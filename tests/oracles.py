"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the
mathematical definitions (words, substitution, dense Gaussian
elimination) and shares no algorithmic code with the package.  The
exceptions are the paths that fast paths of the package replaced:
`spanning_core_vectors_reference`, the element-level spanning family that
the index-table fast path in `oplab.ideals` replaced (it composes every
generator with every composition through `full_compose`, where the fast
path takes one composition per S_k-orbit, applied to the generators'
S_k-closed span); `FractionRowBasis`, the unit-pivot RREF on `Fraction`
entries that the primitive-integer `oplab.RowBasis` replaced;
`identities_slice_reference`, which evaluates every permutation on every
tuple, where `oplab.identities_slice` evaluates one word per arrangement
of each tuple's unit-free core; and `saturate_under_action_reference`,
the last-in-first-out closure that translated echelon rows, which the
sparse best-first closure in `oplab.ideals` replaced; and
`format_element_reference` and `format_poly_reference`, the two
sign-joining printers that `oplab.linalg.format_sum` replaced; and
`load_slice_file_reference`, the slice-cache reader that held the whole
text and its lines, which the streaming `oplab.load_slice_file` replaced;
and `closure_moves_reference`, the closure moves on elements through
`act` and `partial_compose` (so through `perms.block_compose`), which the
integer rewrites of permutation sequences in `oplab.ideals` replaced.
The module also holds two test algebras whose tables are not monomial, and
`is_associative_reference`, the plain check of every basis triple that
Light's test in `oplab.StructureAlgebra` replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import oplab.ideals as ideals
from oplab import (
    UNITAL,
    DimensionMismatch,
    GeneratorSet,
    IdealSlice,
    NcPoly,
    OperadElement,
    Permutation,
    RowBasis,
    StructureAlgebra,
    SparseVector,
    act,
    all_permutations,
    format_permutation,
    format_rational,
    full_compose,
    partial_compose,
    to_vector,
)
from oplab.algebras import _word_evaluator

# Dual numbers in the basis {1, f = 1 + t}: f * f = -1 + 2f has two
# coordinates.
DUAL_SHIFTED = {
    "type": "custom",
    "basis": ["1", "f"],
    "unit": [1, 0],
    "table": [[[1, 0], [0, 1]], [[0, 1], [-1, 2]]],
}

# M_2 in the basis {1, h = e11 - e22, e12, e21}: e12 * e21 = (1 + h)/2 has
# two coordinates, and (1 + h)/2 * e21 cancels to zero inside one product.
M2_UNIT_SPLIT = {
    "type": "custom",
    "basis": ["1", "h", "e12", "e21"],
    "unit": [1, 0, 0, 0],
    "table": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [[0, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 0], ["1/2", "1/2", 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 1], ["1/2", "-1/2", 0, 0], [0, 0, 0, 0]],
    ],
}


def word_substitution_compose(outer: Permutation, parts: list[Permutation]) -> Permutation:
    """Block composition computed through monomial substitution.

    The word of a permutation is its sequence read as letters.  Substitute
    the word of parts[i-1], on letters shifted past all earlier slots, for
    the letter i of the outer word, then read back a permutation.
    """
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.arity
    replacement = {
        i + 1: [offsets[i] + v for v in parts[i].seq] for i in range(len(parts))
    }
    word: list[int] = []
    for letter in outer.seq:
        word.extend(replacement[letter])
    return Permutation(tuple(word))


def poly_substitute(poly: NcPoly, assignment: dict[int, NcPoly]) -> NcPoly:
    """Substitute polynomials for variables (words concatenate)."""
    result = NcPoly.zero()
    for word, coeff in poly.terms.items():
        term = NcPoly.constant(coeff)
        for letter in word:
            term = term.mul(assignment.get(letter, NcPoly.variable(letter)))
        result = result.add(term)
    return result


def substitute_slot(poly: NcPoly, slot: int, inner: NcPoly, inner_arity: int) -> NcPoly:
    """Substitute a multilinear polynomial into one letter slot of another.

    Letter `slot` is replaced by `inner` shifted onto letters
    slot..slot+inner_arity-1; letters above `slot` shift up to make room.
    """
    assignment: dict[int, NcPoly] = {}
    outer_arity = poly.multilinear_arity()
    assert outer_arity is not None
    shifted_inner = NcPoly(
        {
            tuple(v + slot - 1 for v in word): c
            for word, c in inner.terms.items()
        }
    )
    for letter in range(1, outer_arity + 1):
        if letter == slot:
            assignment[letter] = shifted_inner
        elif letter > slot:
            assignment[letter] = NcPoly.variable(letter + inner_arity - 1)
        else:
            assignment[letter] = NcPoly.variable(letter)
    return poly_substitute(poly, assignment)


def substitute_all_slots(poly: NcPoly, inners: list[NcPoly]) -> NcPoly:
    """Simultaneous substitution of one multilinear polynomial per letter,
    each on its own shifted letter range."""
    arities = []
    for inner in inners:
        arity = inner.multilinear_arity()
        assert arity is not None
        arities.append(arity)
    offsets = []
    total = 0
    for arity in arities:
        offsets.append(total)
        total += arity
    assignment = {
        i
        + 1: NcPoly(
            {
                tuple(v + offsets[i] for v in word): c
                for word, c in inners[i].terms.items()
            }
        )
        for i in range(len(inners))
    }
    return poly_substitute(poly, assignment)


def dense_rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by plain dense elimination."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    cols = len(rows[0])
    pivots: list[int] = []
    row_at = 0
    for col in range(cols):
        pivot_row = None
        for r in range(row_at, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row_at], rows[pivot_row] = rows[pivot_row], rows[row_at]
        scale = rows[row_at][col]
        rows[row_at] = [v / scale for v in rows[row_at]]
        for r in range(len(rows)):
            if r != row_at and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == len(rows):
            break
    return [rows[i] for i in range(row_at)], pivots


def dense_rank(matrix: list[list[Fraction]]) -> int:
    return len(dense_rref(matrix)[0])


def dense_in_span(rows: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Membership via the rank criterion on the augmented matrix."""
    base = dense_rank(rows)
    return dense_rank(rows + [target]) == base


def dense_kernel(matrix: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} from the RREF free columns."""
    reduced, pivots = dense_rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    kernel = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[f]
        kernel.append(vec)
    return kernel


def naive_identity_rows(algebra: StructureAlgebra, n: int) -> list[list[Fraction]]:
    """Evaluation rows over ALL ordered basis tuples (the full dim^n sweep),
    one row per (tuple, coordinate), columns indexed by permutations."""
    perms = all_permutations(n)
    rows = []
    dim = algebra.dim
    for tup in product(range(dim), repeat=n):
        by_coord: dict[int, list[Fraction]] = {}
        for si, perm in enumerate(perms):
            vec = algebra.basis_element(tup[perm.seq[0] - 1] ).coords
            for v in perm.seq[1:]:
                vec = algebra.multiply_coords(
                    vec, algebra.basis_element(tup[v - 1]).coords
                )
            for coord, c in vec.entries.items():
                by_coord.setdefault(coord, [Fraction(0)] * len(perms))[si] = c
        rows.extend(by_coord.values())
    return rows


def table_product(
    table: list[list[SparseVector]], x: dict[int, Fraction], y: dict[int, Fraction]
) -> dict[int, Fraction]:
    """x * y for coordinate maps x and y, by bilinearity from the products
    of basis elements, table[a][b] = b_a b_b."""
    out: dict[int, Fraction] = {}
    for a, xa in x.items():
        for b, yb in y.items():
            for c, t in table[a][b].items():
                out[c] = out.get(c, Fraction(0)) + xa * yb * t
    return {c: v for c, v in out.items() if v}


def triple_associates(table: list[list[SparseVector]], i: int, j: int, k: int) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k)."""
    b = [{m: Fraction(1)} for m in range(len(table))]
    return table_product(table, table_product(table, b[i], b[j]), b[k]) == table_product(
        table, b[i], table_product(table, b[j], b[k])
    )


def unit_law_holds(table: list[list[SparseVector]], unit: SparseVector, i: int) -> bool:
    """1 b_i == b_i == b_i 1."""
    b_i = {i: Fraction(1)}
    return table_product(table, unit.entries, b_i) == b_i == table_product(table, b_i, unit.entries)


def is_associative_reference(table: list[list[SparseVector]]) -> bool:
    """Every one of the dim^3 basis triples associates."""
    dim = len(table)
    return all(triple_associates(table, *t) for t in product(range(dim), repeat=3))


def spanning_core_vectors_reference(gens: GeneratorSet, n: int) -> list[SparseVector]:
    """The spanning family before the symmetric-group closure, composed as
    elements: every generator wrapped as 1_3 o (1_r, theta o (1_{s_1},...,
    1_{s_l}), 1_t) with r + sum(s) + t = n, contractions (s_i = 0) only in
    unital mode, and zero results dropped."""
    s_min = 0 if gens.mode == UNITAL else 1
    outer = OperadElement.unit(3)
    vectors = []
    for theta in gens.elements:
        slots = theta.arity
        for r in range(n + 1):
            for t in range(n - r + 1):
                remainder = n - r - t
                for s in product(range(s_min, remainder + 1), repeat=slots):
                    if sum(s) != remainder:
                        continue
                    if slots:
                        middle = full_compose(theta, [OperadElement.unit(k) for k in s])
                    else:
                        middle = theta
                    element = full_compose(
                        outer, [OperadElement.unit(r), middle, OperadElement.unit(t)]
                    )
                    if not element.is_zero():
                        vectors.append(to_vector(element))
    return vectors


def closure_moves_reference(theta: OperadElement, max_arity: int, mode: str):
    """The images of theta under the closure moves, composed as elements, in
    checking order, each with its target arity and the move's name: a
    template and its slot.  Right translates by all of S_m (m >= 2),
    paddings with the binary identity while m + 1 <= max_arity, and
    contractions with the nullary identity in unital mode."""
    m = theta.arity
    if m >= 2:
        for tau in all_permutations(m):
            yield act(theta, tau), m, "right translate by {}", tau
    if m + 1 <= max_arity:
        unit2 = OperadElement.unit(2)
        for i in range(1, m + 1):
            yield partial_compose(theta, i, unit2), m + 1, "padding slot {}", i
        for j in (1, 2):
            yield partial_compose(unit2, j, theta), m + 1, "outer padding slot {}", j
    if mode == UNITAL and m >= 1:
        unit0 = OperadElement.unit(0)
        for i in range(1, m + 1):
            yield partial_compose(theta, i, unit0), m - 1, "contraction at slot {}", i


def identities_slice_reference(algebra: StructureAlgebra, n: int) -> RowBasis:
    """The basis of the arity-n identity slice, with all of S_n evaluated
    on every unordered tuple: one row per (tuple, output coordinate),
    distinct rows inserted, the row space closed under the action and its
    kernel taken."""
    masks = algebra._zero_overlap_masks
    if masks is not None:
        tuples = ideals._disjoint_multisets(masks, n)
    else:
        tuples = combinations_with_replacement(range(algebra.dim), n)
    fact_n = math.factorial(n)
    # In lex order a word's index in the trie is the permutation index si.
    products = _word_evaluator(algebra.columns, [p.seq for p in all_permutations(n)])
    rows = RowBasis(fact_n)
    seen: set[tuple] = set()
    for tup in tuples:
        by_coord: dict[int, dict[int, Fraction | int]] = {}
        for si, vec in products(tup).items():
            for coord, c in vec.items():
                by_coord.setdefault(coord, {})[si] = c
        for row in by_coord.values():
            key = tuple(sorted(row.items()))
            if key in seen:
                continue
            seen.add(key)
            vec = SparseVector(fact_n)
            vec.entries = row
            rows.insert(vec)
    saturate_under_action_reference(rows, n)
    return rows.kernel()


def saturate_under_action_reference(basis: RowBasis, arity: int) -> None:
    """Close the row space of `basis` under the right S_arity-action: each
    row that grows the basis, starting from the echelon rows, is translated
    by the generating pair, last in first out."""
    tables = ideals._action_tables(arity)
    if not tables:
        return
    queue = basis.row_dicts()
    dim = basis.dimension
    while queue:
        row = queue.pop()
        for table in tables:
            vec = SparseVector(dim)
            vec.entries = {table[i]: c for i, c in row.items()}
            if basis.insert(vec):
                queue.append(vec.entries)


class FractionRowBasis:
    """Reduced row-echelon basis on ``Fraction`` entries: rows keyed by
    pivot column, unit pivots, each pivot column zero in every other row.
    Same interface as `oplab.RowBasis`, whose rows are primitive integer
    multiples of these."""

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def rows(self) -> list[SparseVector]:
        out = []
        for pivot in sorted(self._rows):
            vec = SparseVector(self.dimension)
            vec.entries = dict(self._rows[pivot])
            out.append(vec)
        return out

    def _reduce(self, entries: dict[int, Fraction]) -> dict[int, Fraction]:
        v = {c: Fraction(x) for c, x in entries.items()}
        rows = self._rows
        for col in sorted(c for c in v if c in rows):
            coeff = v.get(col)
            if not coeff:
                continue
            for c, x in rows[col].items():
                value = v.get(c, Fraction(0)) - coeff * x
                if value:
                    v[c] = value
                else:
                    v.pop(c, None)
        return v

    def _check(self, vec: SparseVector) -> None:
        if vec.dimension != self.dimension:
            raise DimensionMismatch(
                f"dimension mismatch: {vec.dimension} vs {self.dimension}"
            )

    def contains(self, vec: SparseVector) -> bool:
        self._check(vec)
        return not self._reduce(vec.entries)

    def insert(self, vec: SparseVector) -> bool:
        self._check(vec)
        v = self._reduce(vec.entries)
        if not v:
            return False
        pivot = min(v)
        inv = 1 / v[pivot]
        if inv != 1:
            v = {c: x * inv for c, x in v.items()}
        for row in self._rows.values():
            coeff = row.get(pivot)
            if not coeff:
                continue
            for c, x in v.items():
                value = row.get(c, Fraction(0)) - coeff * x
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
        self._rows[pivot] = v
        return True

    def kernel(self) -> "FractionRowBasis":
        pivots = self.pivots()
        rows = [self._rows[p] for p in pivots]
        kernel = FractionRowBasis(self.dimension)
        for f in range(self.dimension):
            if f in self._rows:
                continue
            entries: dict[int, Fraction] = {f: Fraction(1)}
            for pivot, row in zip(pivots, rows):
                coeff = row.get(f)
                if coeff:
                    entries[pivot] = -coeff
            vec = SparseVector(self.dimension)
            vec.entries = entries
            kernel.insert(vec)
        return kernel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionRowBasis):
            return NotImplemented
        return self.dimension == other.dimension and self._rows == other._rows


def format_element_reference(theta: OperadElement) -> str:
    """Canonical text: "c1*(seq1) + c2*(seq2)" in lexicographic seq order."""
    if not theta.terms:
        return "0"
    parts: list[str] = []
    for perm in sorted(theta.terms, key=lambda p: p.seq):
        coeff = theta.terms[perm]
        body = f"{format_rational(abs(coeff))}*{format_permutation(perm)}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def format_poly_reference(poly: NcPoly) -> str:
    """Canonical text; variable terms always carry an explicit coefficient."""
    if not poly.terms:
        return "0"
    parts: list[str] = []
    for word in sorted(poly.terms):
        coeff = poly.terms[word]
        magnitude = format_rational(abs(coeff))
        if word:
            body = magnitude + "*" + "*".join(f"x{v}" for v in word)
        else:
            body = magnitude
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def load_slice_file_reference(path, *, arity=None) -> tuple[IdealSlice, str]:
    """The slice-cache reader that reads the whole text, splits it into a
    list of lines and parses every row before adopting them.  The text is
    decoded as UTF-8, the encoding the streaming reader pins."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != ideals.CACHE_MAGIC:
        raise ValueError(f"{path}: not a slice cache file")
    header: dict[str, str] = {}
    for chunk in lines[1].split():
        key, _, value = chunk.partition("=")
        header[key] = value
    try:
        declared = int(header["arity"])
        dim = int(header["dim"])
        mode = header["mode"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header") from exc
    if header.get("order") != "lex":
        raise ValueError(f"{path}: unsupported coordinate order")
    if arity is not None and declared != arity:
        raise ValueError(f"{path}: arity {declared}, expected {arity}")
    if not 0 <= declared <= ideals.MAX_SLICE_ARITY:
        raise ValueError(f"{path}: arity {declared} outside 0..{ideals.MAX_SLICE_ARITY}")
    width = math.factorial(declared)
    try:
        rows = [ideals._row_entries(line, width) for line in lines[2:] if line.strip()]
        basis = RowBasis.from_rref(width, rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if basis.rank != dim:
        raise ValueError(f"{path}: declared dim {dim} but rank is {basis.rank}")
    return IdealSlice(declared, basis), mode
