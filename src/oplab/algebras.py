"""Finite-dimensional unital algebras given by structure constants.

An algebra is a basis with a multiplication table (b_i * b_j expanded in
coordinates) and a distinguished unit vector; the unit laws and
associativity are checked at construction time, associativity by Light's
test over a generating set.  Operad elements and noncommutative
polynomials evaluate against tuples of elements with exact arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Mapping, Sequence

from .freealg import NcPoly, format_poly, multilinearize, operad_to_poly, poly_to_operad
from .linalg import DEFAULT_BUDGET, BudgetExceeded, charge
from .linalg import RowBasis, SparseVector, as_fraction, format_rational
from .operad import OperadElement

__all__ = [
    "AlgebraElement",
    "AlgebraError",
    "BudgetExceeded",
    "StructureAlgebra",
    "algebra_from_spec",
    "direct_sum",
    "evaluate",
    "evaluate_nullary",
    "evaluate_poly",
    "grassmann_algebra",
    "IdentityCheckInconsistency",
    "is_identity",
    "is_identity_general",
    "matrix_algebra",
    "tensor_product",
]


class AlgebraError(ValueError):
    """Raised for malformed structure constants or mismatched operands."""


class StructureAlgebra:
    """Unital associative algebra with an explicit multiplication table."""

    __slots__ = ("name", "labels", "dim", "table", "columns", "unit", "_zero_overlap_masks")

    def __init__(
        self,
        labels: Sequence[str],
        table: Sequence[Sequence[SparseVector | Mapping[int, Fraction | int]]],
        unit: SparseVector,
        name: str = "custom",
    ) -> None:
        dim = len(labels)
        if dim == 0:
            raise AlgebraError("algebra must have positive dimension")
        if len(table) != dim or any(len(row) != dim for row in table):
            raise AlgebraError("structure-constant table must be dim x dim")
        if unit.dimension != dim:
            raise AlgebraError("unit vector must have the algebra dimension")
        self.name = name
        self.labels = list(labels)
        self.dim = dim
        shared: dict[tuple, dict[int, Fraction | int]] = {}
        self.table = [[_table_entry(entry, dim, shared) for entry in row] for row in table]
        self.columns = list(zip(*self.table))
        self.unit = unit
        # Optional metadata set by constructors that can guarantee it:
        # masks such that overlapping factors annihilate any basis product.
        self._zero_overlap_masks: list[int] | None = None
        self._validate()

    def _validate(self) -> None:
        """Check the unit laws, then associativity by Light's test (Clifford
        and Preston, The Algebraic Theory of Semigroups I, section 1.2).

        Let G be the set of a with (x a) y = x (a y) for all x, y.  G is a
        subspace, and it holds 1 by the unit laws.  It is closed under
        products: for a, b in G,
        x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y.
        `_light_generators` picks basis elements S such that the smallest
        subspace V holding 1 and closed under left multiplication by S is
        the whole algebra.  Once G holds S, G is such a subspace, so it
        holds V, which is everything.  Hence checking the basis triples
        (b_i, b_j, b_k) with b_j in S, |S| dim^2 of them, proves
        associativity, and a failure names a triple that really fails.
        """
        rows, columns = self.table, self.columns
        labels = self.labels
        unit = _table_entry(self.unit, self.dim, {})
        for i in range(self.dim):
            if _combine(unit, columns[i]) != {i: 1} or _combine(unit, rows[i]) != {i: 1}:
                raise AlgebraError(f"unit law fails on basis element {labels[i]}")
        # Straight on the table entries: for b_i b_j = sum_l c_l b_l,
        # (b_i b_j) b_k = sum_l c_l columns[k][l]; for b_j b_k = sum_l c_l b_l,
        # b_i (b_j b_k) = sum_l c_l rows[i][l].  A zero side is not formed.
        for j in _light_generators(rows, unit):
            row_j = rows[j]
            nonzero = [(k, right) for k, right in enumerate(row_j) if right]
            for i, row_i in enumerate(rows):
                left = row_i[j]
                if left:
                    failing = (
                        k
                        for k, right in enumerate(row_j)
                        if _combine(left, columns[k]) != (_combine(right, row_i) if right else {})
                    )
                else:  # (b_i b_j) b_k = 0, so b_i (b_j b_k) must vanish
                    failing = (k for k, right in nonzero if _combine(right, row_i))
                k = next(failing, None)
                if k is not None:
                    raise AlgebraError(
                        "associativity fails on basis triple "
                        f"({labels[i]}, {labels[j]}, {labels[k]})"
                    )

    def multiply_coords(self, a: SparseVector, b: SparseVector) -> SparseVector:
        """Bilinear extension of the table: a b = sum_j b_j (a b_j)."""
        a_times = {j: _combine(a.entries, self.columns[j]) for j in b.entries}
        out = SparseVector(self.dim)
        out.entries = _combine(b.entries, a_times)
        return out

    def basis_element(self, index: int) -> "AlgebraElement":
        return AlgebraElement(self, SparseVector.basis_vector(self.dim, index))

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def element(self, coords: Iterable[Fraction | int | str]) -> "AlgebraElement":
        return AlgebraElement(self, SparseVector.from_dense(list(coords)))

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, SparseVector(self.dim))

    def __repr__(self) -> str:
        return f"StructureAlgebra({self.name!r}, dim={self.dim})"


class AlgebraElement:
    """Element of a StructureAlgebra in basis coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords: SparseVector) -> None:
        if coords.dimension != algebra.dim:
            raise AlgebraError("coordinate length must match the algebra dimension")
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraError("elements belong to different algebras")

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.coords.add(other.coords))

    def sub(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.coords.sub(other.coords))

    def scale(self, factor: Fraction | int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.coords.scale(factor))

    def mul(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, self.algebra.multiply_coords(self.coords, other.coords)
        )

    __add__ = add
    __sub__ = sub
    __mul__ = mul

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __rmul__(self, factor: Fraction | int) -> "AlgebraElement":
        return self.scale(factor)

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __repr__(self) -> str:
        body = " + ".join(
            f"{format_rational(c)}*{self.algebra.labels[i]}"
            for i, c in sorted(self.coords.entries.items())
        )
        return f"<{body or '0'} in {self.algebra.name}>"


@lru_cache(maxsize=None)
def matrix_algebra(k: int) -> StructureAlgebra:
    """Full k x k matrix algebra on the matrix units e_pq (row-major order);
    e_pq * e_rs = [q == r] e_ps and the unit is the sum of the e_pp."""
    if k < 1:
        raise AlgebraError("matrix algebra needs k >= 1")
    pairs = [(p, q) for p in range(1, k + 1) for q in range(1, k + 1)]
    index = {pq: i for i, pq in enumerate(pairs)}
    dim = k * k
    labels = [f"e{p}{q}" for p, q in pairs]
    table = [[{index[p, s]: 1} if q == r else {} for r, s in pairs] for p, q in pairs]
    unit = SparseVector(dim, {index[p, p]: 1 for p in range(1, k + 1)})
    return StructureAlgebra(labels, table, unit, name=f"matrix({k})")


@lru_cache(maxsize=None)
def grassmann_algebra(generators: int) -> StructureAlgebra:
    """Exterior algebra on the given number of anticommuting generators.

    Basis e_S for subsets S, ordered by (|S|, lexicographic); the product
    e_S * e_T is 0 when the subsets meet and otherwise (-1)^inv(S,T)
    e_{S union T}, where inv(S,T) counts pairs s > t.
    """
    if generators < 0:
        raise AlgebraError("generator count must be nonnegative")
    subsets: list[tuple[int, ...]] = []
    for size in range(generators + 1):
        subsets.extend(combinations(range(1, generators + 1), size))
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)
    labels = ["1"] + ["e" + "".join(map(str, s)) for s in subsets[1:]]
    table = []
    for s in subsets:
        row = []
        s_set = set(s)
        for t in subsets:
            if s_set & set(t):
                row.append({})
            else:
                inversions = sum(1 for a in s for b in t if a > b)
                row.append({index[tuple(sorted(s + t))]: -1 if inversions % 2 else 1})
        table.append(row)
    unit = SparseVector(dim, {0: 1})
    algebra = StructureAlgebra(labels, table, unit, name=f"grassmann({generators})")
    # Any basis product with two factors of overlapping support vanishes in
    # every order, and supports merge under products; record that as masks.
    masks = [sum(1 << (g - 1) for g in s) for s in subsets]
    algebra._zero_overlap_masks = masks
    return algebra


def direct_sum(parts: Sequence[StructureAlgebra]) -> StructureAlgebra:
    """Componentwise product algebra on the concatenated bases."""
    if not parts:
        raise AlgebraError("direct sum needs at least one part")
    dim = sum(a.dim for a in parts)
    labels = [f"{label}#{k}" for k, a in enumerate(parts) for label in a.labels]
    table: list[list[dict[int, Fraction | int]]] = [[{}] * dim for _ in range(dim)]
    unit_entries: dict[int, Fraction] = {}
    off = 0
    for a in parts:
        for i, row in enumerate(a.table):
            table[off + i][off : off + a.dim] = [{off + l: c for l, c in e.items()} for e in row]
        unit_entries.update((off + l, c) for l, c in a.unit.entries.items())
        off += a.dim
    unit = SparseVector(dim, unit_entries)
    name = " (+) ".join(a.name for a in parts)
    return StructureAlgebra(labels, table, unit, name=name)


def tensor_product(left: StructureAlgebra, right: StructureAlgebra) -> StructureAlgebra:
    """Tensor product algebra on the basis b_i (x) c_j."""
    dim = left.dim * right.dim
    labels = [f"{a}(x){b}" for a in left.labels for b in right.labels]

    def product(x: Mapping[int, Fraction | int], y: Mapping[int, Fraction | int]) -> dict:
        """The coordinates of x (x) y, on the index a * right.dim + b."""
        return {a * right.dim + b: ca * cb for a, ca in x.items() for b, cb in y.items()}

    table = [
        [product(x, y) for x in left_row for y in right_row]
        for left_row in left.table
        for right_row in right.table
    ]
    unit_entries = product(left.unit.entries, right.unit.entries)
    unit = SparseVector(dim, unit_entries)
    return StructureAlgebra(labels, table, unit, name=f"{left.name}(x){right.name}")


def _field(spec: Mapping, key: str, kind: type | tuple[type, ...]):
    """spec[key], which must be present and of the JSON type `kind`; a bool
    is never accepted as a number."""
    if not isinstance(spec, Mapping) or key not in spec:
        raise AlgebraError(f"algebra spec needs a {key!r} field")
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise AlgebraError(f"algebra spec field {key!r} has the wrong type: {value!r}")
    return value


def _size(spec: Mapping, key: str) -> int:
    value = _field(spec, key, (int, float))
    if isinstance(value, float) and not value.is_integer():
        raise AlgebraError(f"algebra spec field {key!r} must be an integer, got {value!r}")
    return int(value)


_ARRAY = (list, tuple)


def _spec_vector(raw, dim: int, what: str) -> SparseVector:
    """A vector of `dim` rationals, each an int, a Fraction or a "p/q" string."""
    if not isinstance(raw, _ARRAY) or len(raw) != dim:
        raise AlgebraError(f"custom {what} has the wrong length")
    values = []
    for value in raw:
        try:
            if isinstance(value, bool):
                raise TypeError("a bool is not a rational")
            values.append(as_fraction(value))
        except (TypeError, ValueError) as exc:
            raise AlgebraError(f"custom {what} holds {value!r}, not a rational") from exc
    return SparseVector.from_dense(values)


def _check_build_cost(dim: int, shown: str) -> None:
    """Refuse an algebra whose construction could run more than
    DEFAULT_BUDGET associativity checks; `shown` writes dim.  Light's test
    checks |S| dim^2 basis triples with |S| < dim, so dim^3 is an upper
    bound, nearly reached when every non-unit basis element is a
    generator."""
    if dim**3 > DEFAULT_BUDGET:
        raise AlgebraError(
            f"an algebra of dimension {shown} is too large to build: its dimension^3 "
            f"associativity checks exceed the budget of {DEFAULT_BUDGET}"
        )


def algebra_from_spec(spec: Mapping) -> StructureAlgebra:
    """Build an algebra from its JSON description.

    Supported forms: {"type":"matrix","k":2}, {"type":"grassmann",
    "generators":4}, {"type":"custom","basis":[...],"unit":[...],
    "table":[[[...]]]} with rationals as integers or "p/q" strings, and
    {"type":"direct_sum","parts":[...]} with nested descriptions.  A missing
    field, a field of the wrong JSON type or a size that is not an integer
    raises AlgebraError, and so does an algebra whose bound of dim^3
    associativity checks exceeds DEFAULT_BUDGET, before any table is built.
    """
    kind = _field(spec, "type", str)
    if kind == "matrix":
        k = _size(spec, "k")
        _check_build_cost(max(k, 0) ** 2, f"{k}^2")
        return matrix_algebra(k)
    if kind == "grassmann":
        generators = _size(spec, "generators")
        # generators may be 10^300: 2^generators is never formed, and past
        # the budget's bit length the cap changes no verdict.
        capped = min(generators, DEFAULT_BUDGET.bit_length())
        _check_build_cost(2**capped, f"2^{generators}")
        return grassmann_algebra(generators)
    if kind == "direct_sum":
        parts = [algebra_from_spec(part) for part in _field(spec, "parts", _ARRAY)]
        dim = sum(part.dim for part in parts)
        _check_build_cost(dim, str(dim))
        return direct_sum(parts)
    if kind == "custom":
        labels = [str(s) for s in _field(spec, "basis", _ARRAY)]
        dim = len(labels)
        _check_build_cost(dim, str(dim))
        raw_table = _field(spec, "table", _ARRAY)
        if len(raw_table) != dim:
            raise AlgebraError("custom table has the wrong number of rows")
        table = []
        for row in raw_table:
            if not isinstance(row, _ARRAY) or len(row) != dim:
                raise AlgebraError("custom table has a malformed row")
            table.append([_spec_vector(vec, dim, "table entry") for vec in row])
        unit = _spec_vector(_field(spec, "unit", _ARRAY), dim, "unit")
        return StructureAlgebra(labels, table, unit, name="custom")
    raise AlgebraError(f"unknown algebra type {kind!r}")


def evaluate(theta: OperadElement, args: Sequence[AlgebraElement]) -> AlgebraElement:
    """Apply the n-ary operation of theta: each permutation term multiplies
    the arguments in the order spelled by its sequence."""
    if len(args) != theta.arity:
        raise AlgebraError(
            f"arity {theta.arity} element applied to {len(args)} arguments"
        )
    if args:
        algebra = args[0].algebra
        for arg in args[1:]:
            if arg.algebra is not algebra:
                raise AlgebraError("evaluation arguments must share one algebra")
    else:
        raise AlgebraError("evaluation of arity-0 elements needs an algebra")
    return evaluate_poly(operad_to_poly(theta), dict(enumerate(args, 1)), algebra)


def evaluate_nullary(theta: OperadElement, algebra: StructureAlgebra) -> AlgebraElement:
    """Arity-0 evaluation: the coefficient of the empty permutation times
    the unit of the algebra."""
    if theta.arity != 0:
        raise AlgebraError("evaluate_nullary needs an arity-0 element")
    total = sum(theta.terms.values(), Fraction(0))
    return AlgebraElement(algebra, algebra.unit.scale(total))


def evaluate_poly(
    poly: NcPoly, assignment: Mapping[int, AlgebraElement], algebra: StructureAlgebra
) -> AlgebraElement:
    """Substitute elements for variables and evaluate; the empty word maps
    to the unit."""
    result = SparseVector(algebra.dim)
    for word, coeff in poly.terms.items():
        if word:
            try:
                prod = assignment[word[0]].coords
                for v in word[1:]:
                    prod = algebra.multiply_coords(prod, assignment[v].coords)
            except KeyError as exc:
                raise AlgebraError(f"no value assigned to x{exc.args[0]}") from exc
        else:
            prod = algebra.unit
        result = result.add(prod.scale(coeff))
    return AlgebraElement(algebra, result)


def _combine(
    coords: Mapping[int, Fraction], vecs: Sequence[Mapping[int, Fraction]]
) -> dict[int, Fraction]:
    """Coordinates of sum_l coords[l] * vecs[l], zeros dropped."""
    # The evaluation kernel's inner step, summed inline: through
    # linalg.accumulate it ran 1.7-1.8x slower (E_6, M_2, M_3).
    accum: dict[int, Fraction] = {}
    for l, c in coords.items():
        for k, d in vecs[l].items():
            value = accum.get(k, 0) + c * d
            if value:
                accum[k] = value
            else:
                del accum[k]
    return accum


def _table_entry(
    entry: SparseVector | Mapping[int, Fraction | int],
    dim: int,
    shared: dict[tuple, dict[int, Fraction | int]],
) -> dict[int, Fraction | int]:
    """The nonzero coordinates of a table entry, integral values as ints;
    an entry equal to one already in `shared` is that dict."""
    if isinstance(entry, SparseVector):
        if entry.dimension != dim:
            raise AlgebraError("table entries must have the algebra dimension")
        entry = entry.entries
    key = []
    for k, c in entry.items():
        if k.__class__ is not int or not 0 <= k < dim:
            raise AlgebraError(f"table entry index {k!r} out of range for dimension {dim}")
        if c.__class__ is not int:
            c = as_fraction(c)
            if c.denominator == 1:
                c = c.numerator
        if c:
            key.append((k, c))
    key = tuple(key)
    found = shared.get(key)
    if found is None:
        found = shared[key] = dict(key)
    return found


def _light_generators(
    rows: Sequence[Sequence[Mapping[int, Fraction | int]]], unit: Mapping[int, Fraction]
) -> list[int]:
    """Basis indices S, chosen greedily in basis order, such that the
    smallest subspace V that holds the unit and is closed under left
    multiplication by every b_s (s in S) is the whole algebra; rows[i][j]
    holds the coordinates of b_i b_j.  Index j joins S when e_j lies
    outside the V of the indices before it, and V is then closed again.
    The exterior algebra E_k gets S = {e_1, ..., e_k}."""
    dim = len(rows)
    span = RowBasis(dim)
    span.insert(unit)
    found = [unit]  # spans V
    gens: list[int] = []
    for j in range(dim):
        if span.rank == dim:
            break
        if span.contains({j: 1}):
            continue
        gens.append(j)
        # every (generator, spanning vector) pair is multiplied once
        pending = [(j, v) for v in found]
        while pending and span.rank < dim:
            s, v = pending.pop()
            w = _combine(v, rows[s])
            if w and span.insert(w):
                found.append(w)
                pending.extend((t, w) for t in gens)
    return gens


def _word_evaluator(
    columns: Sequence[Sequence[Mapping[int, Fraction | int]]], words: Sequence[Sequence[int]]
) -> Callable[[Sequence[int]], dict[int, dict[int, Fraction | int]]]:
    """The evaluation kernel.  For distinct words of one length n >= 1 over
    1..n (permutation sequences) and an algebra's `columns`,
    returns a function from a tuple of n basis indices to {index of w in
    `words`: coordinates of b_{tup[w_1]} ... b_{tup[w_n]}} over the words
    w whose product is nonzero (read-only dicts; they may be table
    entries).  On an integral table every coordinate is an int; other
    entries stay ``Fraction``.  The words form a trie: a shared
    prefix is multiplied once per tuple, and a subtree is dropped as soon
    as its prefix product vanishes.
    """
    trie: dict = {}
    for index, word in enumerate(words):
        node = trie
        for v in word[:-1]:
            node = node.setdefault(v - 1, {})
        node[word[-1] - 1] = index  # the leaf level holds the word's index

    def products(tup: Sequence[int]) -> dict[int, dict[int, Fraction | int]]:
        out: dict[int, dict[int, Fraction | int]] = {}
        stack: list[tuple[dict, dict[int, Fraction | int] | None]] = [(trie, None)]
        while stack:
            node, vec = stack.pop()
            for v, child in node.items():
                if vec is None:  # the empty prefix
                    step = {tup[v]: 1}
                elif len(vec) == 1:
                    ((i, c),) = vec.items()
                    step = columns[tup[v]][i]
                    if c != 1:
                        step = {k: c * d for k, d in step.items()}
                else:
                    step = _combine(vec, columns[tup[v]])
                if not step:
                    continue
                if child.__class__ is int:
                    out[child] = step
                else:
                    stack.append((child, step))
        return out

    return products


def is_identity(poly: NcPoly, algebra: StructureAlgebra) -> bool:
    """Exhaustive identity test for a multilinear polynomial.

    By multilinearity it suffices to evaluate on every tuple of basis
    elements, so the test enumerates all dim^n tuples and stops at the
    first nonzero value.  Refuses with BudgetExceeded, before any tuple
    is evaluated, when dim^n exceeds DEFAULT_BUDGET; past n = 24, the
    budget's bit length, it charges dim^24, already over it for dim >= 2.
    """
    theta = poly_to_operad(poly)
    n = theta.arity
    if n == 0:
        return evaluate_nullary(theta, algebra).is_zero()
    charge([algebra.dim ** min(n, DEFAULT_BUDGET.bit_length())])
    coeffs = list(theta.terms.values())
    products = _word_evaluator(algebra.columns, [perm.seq for perm in theta.terms])
    for tup in product(range(algebra.dim), repeat=n):
        found = products(tup)
        if _combine({w: coeffs[w] for w in found}, found):
            return False
    return True


class IdentityCheckInconsistency(RuntimeError):
    """The multilinear reduction and direct random evaluation disagreed."""


def is_identity_general(
    poly: NcPoly,
    algebra: StructureAlgebra,
    *,
    trials: int = 8,
    seed: int = 0,
) -> bool:
    """Identity test for arbitrary polynomials via full linearization.

    In characteristic zero the polynomial is an identity exactly when all
    its multilinearizations are; the result is cross-checked by direct
    evaluation on random elements.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial is excluded")
    parts = multilinearize(poly)
    verdict = all(is_identity(part, algebra) for part in parts)
    rng = random.Random(seed)
    variables = sorted(poly.variables())
    for _ in range(trials):
        assignment = {
            v: algebra.element(
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(algebra.dim)]
            )
            for v in variables
        }
        value = evaluate_poly(poly, assignment, algebra)
        if verdict and not value.is_zero():
            raise IdentityCheckInconsistency(
                f"{format_poly(poly)} passed the multilinear test but a random "
                "substitution is nonzero"
            )
    return verdict
