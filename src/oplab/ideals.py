"""Bounded-arity slices of operadic ideals.

A slice is the arity-n component of an ideal, stored as a canonical RREF
basis in the lexicographic permutation coordinates.  Slices arise three
ways: spanned from a generator set (all unit paddings and contractions
of each generator, closed under the right symmetric-group action),
as a compositional closure fixpoint (an independent algorithm kept for
cross-validation), and as the kernel of the evaluation map against a
concrete algebra.

Three exact reductions keep evaluation small.  The evaluation row of a
permuted argument tuple is a right-translate of the representative
tuple's row, so it suffices to enumerate unordered tuples and close the
row space under the action afterwards.  When the unit is a basis vector,
unit factors drop out of every product, so a tuple's row is its
unit-free core's row lifted through the slot-deletion map.  Within one
core, permutations that give the same arrangement of its basis indices
give the same product, so each arrangement is evaluated once.  Once
generators of arity n or more are contracted to arities n and n - 1, the
spanning family is formed per S_k-orbit of compositions, from the
S_k-closed span of the generators of each arity k < n: a permuted
composition gives a right-translate, which the closure under S_n
supplies.  All of these are lossless; nothing is sampled.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, combinations_with_replacement, count, groupby, permutations
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .algebras import StructureAlgebra, _word_evaluator
from .freealg import NcPoly, operad_to_poly, poly_to_operad
from .linalg import DEFAULT_BUDGET, BudgetExceeded, charge
from .linalg import RowBasis, _integral, accumulate, parse_number
from .operad import OperadElement, format_element, from_vector, to_vector
from .perms import (
    arrangement_classes,
    rank,
    sn_generators,
    unit_contraction_table,
    unit_shift_table,
    unrank,
)

__all__ = [
    "BudgetExceeded",
    "ClosureReport",
    "GeneratorSet",
    "IdealSlice",
    "RoundtripReport",
    "UNITAL",
    "NONUNITAL",
    "codimension",
    "full_slice_map",
    "generator_set_hash",
    "ideal_slice_closure",
    "ideal_slice_spanning",
    "identities_slice",
    "load_slice_file",
    "membership",
    "min_identity_degree",
    "poly_generated_slice",
    "roundtrip_check",
    "save_slice_file",
    "slice_cache_path",
    "slice_polynomials",
    "slices_equal",
    "verify_ideal_closure",
]

UNITAL = "unital"
NONUNITAL = "nonunital"

CACHE_MAGIC = "OPIDEAL v1"
CACHE_SUFFIX = ".opideal"
# The largest arity a slice file may declare: 10! = 3,628,800 columns.
MAX_SLICE_ARITY = 10
# The largest slice file written.  A file spells every coordinate of every
# row, so it takes at least 2*n!*rank bytes: 51 MB at most for arity 7, but
# 3.25 GB for the arity-8 slice of [x1,x2].
MAX_SLICE_FILE_BYTES = 100_000_000


def lowest_arity(mode: str) -> int:
    """The lowest arity of an element: 0 in unital mode (the nullary identity), else 1."""
    if mode not in (UNITAL, NONUNITAL):
        raise ValueError(f"mode must be {UNITAL!r} or {NONUNITAL!r}")
    return 0 if mode == UNITAL else 1


class GeneratorSet:
    """Nonzero operad elements, none below the mode's lowest arity, plus the mode."""

    __slots__ = ("elements", "mode")

    def __init__(self, elements: Iterable[OperadElement], mode: str = UNITAL) -> None:
        elements = tuple(elements)
        if any(e.is_zero() for e in elements):
            raise ValueError("generator sets must not contain the zero element")
        lowest = lowest_arity(mode)
        if any(e.arity < lowest for e in elements):
            raise ValueError(f"{mode} mode has no elements below arity {lowest}")
        self.elements = elements
        self.mode = mode

    def canonical_text(self) -> str:
        return "\n".join(sorted(format_element(e) for e in self.elements))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.mode == other.mode and set(self.elements) == set(other.elements)

    def __repr__(self) -> str:
        return f"GeneratorSet({len(self.elements)} elements, mode={self.mode})"


class IdealSlice:
    """Arity-n slice of an ideal: a canonical RREF basis inside kS_n."""

    __slots__ = ("arity", "basis")

    def __init__(self, arity: int, basis: RowBasis) -> None:
        if basis.dimension != math.factorial(arity):
            raise ValueError(
                f"basis dimension {basis.dimension} is not {arity}!"
            )
        self.arity = arity
        self.basis = basis

    @classmethod
    def zero(cls, arity: int) -> "IdealSlice":
        zero = cls.__new__(cls)  # unchecked, so arity! is formed once
        zero.arity, zero.basis = arity, RowBasis(math.factorial(arity))
        return zero

    @property
    def dim(self) -> int:
        return self.basis.rank

    def elements(self) -> list[OperadElement]:
        return [from_vector(self.arity, row) for row in self.basis.rows()]

    def contains(self, theta: OperadElement) -> bool:
        if theta.arity != self.arity:
            return False
        return self.basis.contains(to_vector(theta))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdealSlice):
            return NotImplemented
        return self.arity == other.arity and self.basis == other.basis

    def __repr__(self) -> str:
        return f"IdealSlice(arity={self.arity}, dim={self.dim})"


@lru_cache(maxsize=None)
def _action_tables(arity: int) -> tuple[tuple[int, ...], ...]:
    """Index translation tables for right multiplication by the generating
    pair of S_arity, on sequences as `multiply` forms them."""
    return tuple(
        tuple(rank([g.seq[v - 1] for v in seq]) for seq in permutations(range(1, arity + 1)))
        for g in sn_generators(arity)
    )


def _saturate_under_action(
    basis: RowBasis, seeds: Iterable[Mapping[int, Fraction | int]]
) -> None:
    """Close the row space of `basis` under the right S_n-action, n! being
    its dimension; `seeds` must span that row space.

    Only sparse vectors are translated: a candidate is the translate of a
    seed by one of the generating pair, or of an earlier candidate that was
    inserted or of its remainder, whichever is shorter.  Candidates wait in
    a heap keyed by the length of their remainder modulo the basis, and the
    shortest remainder is inserted first; one that has grown since it was
    pushed is pushed back.  Together with the rows before it, an inserted
    remainder spans the same space as its candidate, so the translated
    vectors span a space that holds the seeds and is closed under both
    generators: the subspace is the same as any other closure's, and so
    are its canonical rows.
    """
    seeds = list(seeds)
    if not seeds:
        return
    arity = 0
    while math.factorial(arity) < basis.dimension:
        arity += 1
    tables = _action_tables(arity)
    dim = basis.dimension
    heap: list[tuple[int, int, dict, dict[int, int]]] = []
    tick = count()

    def offer(vec: Mapping[int, Fraction | int]) -> None:
        for table in tables:
            translate = {table[i]: c for i, c in vec.items()}
            remainder = basis.reduce(translate)
            if remainder:
                heappush(heap, (len(remainder), next(tick), translate, remainder))

    for seed in seeds:
        offer(seed)
    while heap and basis.rank < dim:
        _, _, candidate, remainder = heappop(heap)
        remainder = basis.reduce(remainder)
        if not remainder:
            continue
        if heap and len(remainder) > heap[0][0]:
            heappush(heap, (len(remainder), next(tick), candidate, remainder))
            continue
        basis.insert(remainder)
        offer(candidate if len(candidate) <= len(remainder) else remainder)


def _slice_width(n: int) -> int:
    """n!, the width of an arity-n slice, refused with BudgetExceeded when
    it exceeds DEFAULT_BUDGET (n >= 11), with `needed` 11!: a huge n! is
    never formed."""
    what = f"a slice of arity {n} spans {n}! coordinates"
    return charge(map(math.factorial, range(n + 1)), what=what)


def _reaching(gens: GeneratorSet, n: int) -> list[OperadElement]:
    """The generators that reach arity n, none where the generated ideal is
    zero there: composing an arity-k generator gives arity lowest * k or
    more, padding every one above."""
    lowest = lowest_arity(gens.mode)
    return [theta for theta in gens.elements if lowest * theta.arity <= n]


def _contractions(theta: OperadElement, arities: Sequence[int]) -> Iterator[tuple[int, dict]]:
    """(j, row) per nonzero contraction of theta, of arity k, to each j in
    `arities`: every term keeps the same j letters, renumbered in order.
    Refused before any is formed if sum comb(k, j) * terms > DEFAULT_BUDGET."""
    k = theta.arity
    what = f"contracting arity {k} to arity {arities[0]} forms {{}} terms"
    charge([sum(math.comb(k, j) for j in arities) * len(theta.terms)], what=what)
    terms = _integral({p.seq: c for p, c in theta.terms.items()}).items()
    for j in arities:
        for kept in combinations(range(1, k + 1), j):
            new = dict(zip(kept, range(1, j + 1)))  # the kept letters, renumbered
            row = accumulate((rank([new[v] for v in seq if v in new]), c) for seq, c in terms)
            if row:
                yield j, row


def _compositions(total: int, parts: int, minimum: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The nonincreasing tuples of `parts` ints in minimum..largest with the
    given total, one from each S_parts-orbit of compositions."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    highest = min(largest, total - minimum * (parts - 1))
    for head in range(max(minimum, -(-total // parts)), highest + 1):
        for tail in _compositions(total - head, parts - 1, minimum, head):
            yield (head,) + tail


def _spanning_core_vectors(gens: GeneratorSet, n: int) -> Iterator[dict[int, int]]:
    """A spanning family before the symmetric-group closure: elements
    1_3 o (1_r, theta o (1_{s_1},...,1_{s_k}), 1_t) with r + sum(s) + t = n;
    contractions (s_i = 0) only in unital mode.  Its S_n-closure is the
    slice of the generated ideal.

    A generator of arity k >= n has k - n or more s_i = 0: with exactly
    k - n, the rest are 1 and the middle is a contraction to arity n, kept
    as it is; with more (unital mode), an element of a contraction to
    n - 1, which joins the arity-(n-1) generators.  Per arity k < n, theta
    runs over the primitive rows of the generators' span closed under S_k,
    and s over nonincreasing compositions only.  That is exact:
    (theta.sigma) o (1_{s_1},...,1_{s_k}) is a block-permutation translate
    of theta o (1_{s_sigma^-1(1)},...), the unit wrap carries right
    translates to right translates, and the family is closed under S_n
    afterwards, so no S_n-closure is formed here.

    Runs on permutation indices: the contracted middle is formed through an
    index table S_k -> S_m, and dropped if it cancels; the unit wrap is an
    injective shift S_m -> S_n, one table per (r, t), in order of m, then r.
    """
    s_min = lowest_arity(gens.mode)
    # middles[m]: the nonzero middles of arity m; by_arity[k]: the generator rows of arity k < n
    middles: list[list[dict[int, int]]] = [[] for _ in range(n + 1)]
    by_arity: dict[int, list[dict[int, int]]] = {}
    for theta in _reaching(gens, n):
        k = theta.arity  # below n, theta is its own contraction
        arities = (k,) if k < n else (n, n - 1) if s_min == 0 < n else (n,)
        for j, row in _contractions(theta, arities):
            (middles[n] if j == n else by_arity.setdefault(j, [])).append(row)
    for k, rows in sorted(by_arity.items()):
        span = RowBasis(math.factorial(k))
        _saturate_under_action(span, [row for row in rows if span.insert(row)])
        rows = span.row_dicts()
        for m in range(n + 1):
            for s in _compositions(m, k, s_min, m):
                table = unit_contraction_table(s)
                for row in rows:
                    # Summed inline: through linalg.accumulate this loop ran
                    # 1.8-2.2x slower (s_4 to arity 7, [[x1,x2],x3] to 8).
                    middle: dict[int, int] = {}
                    for i, c in row.items():
                        j = table[i]
                        value = middle.get(j, 0) + c
                        if value:
                            middle[j] = value
                        else:
                            middle.pop(j, None)
                    if middle:
                        middles[m].append(middle)
    # Middles of the lowest arity go first: of the orders tried, that one
    # left the closure the least work.
    for m, found in enumerate(middles):
        if not found:
            continue
        for r in range(n - m + 1):
            shift = unit_shift_table(r, m, n - m - r)
            for middle in found:
                yield {shift[j]: c for j, c in middle.items()}


def ideal_slice_spanning(
    gens: GeneratorSet,
    n: int,
    *,
    cache_dir: str | Path | None = None,
    stats: dict | None = None,
) -> IdealSlice:
    """Arity-n slice of the ideal generated by `gens`, by direct spanning;
    zero and uncached where no generator reaches n.  No cache is kept above
    MAX_SLICE_ARITY, nor written past MAX_SLICE_FILE_BYTES."""
    if n < 0:
        raise ValueError("arity must be nonnegative")
    if not _reaching(gens, n):
        return IdealSlice.zero(n)
    path = None
    if cache_dir is not None and n <= MAX_SLICE_ARITY:
        path = slice_cache_path(cache_dir, gens, n)
        if path.exists():
            try:
                cached, mode = load_slice_file(path, arity=n)
            except ValueError:  # a corrupt entry is a miss, overwritten below
                mode = None
            if mode == gens.mode:
                if stats is not None:
                    stats["cache_hit"] = True
                return cached
    if stats is not None:
        stats["cache_hit"] = False
    basis = RowBasis(_slice_width(n))
    seeds = [vec for vec in _spanning_core_vectors(gens, n) if basis.insert(vec)]
    _saturate_under_action(basis, seeds)
    result = IdealSlice(n, basis)
    if path is not None and 2 * basis.dimension * basis.rank <= MAX_SLICE_FILE_BYTES:
        save_slice_file(path, result, gens.mode)
    return result


def _closure_bases(gens: GeneratorSet, n: int) -> dict[int, RowBasis]:
    """Fixpoint of the compositional closure moves inside the arity window
    lowest..hi, hi the larger of n and the arity of each generator reaching n.

    Moves (`_closure_moves`): translates by the generating pair of S_n at
    arity n, paddings with the binary identity on either side, and (unital
    mode) contractions with the nullary identity.  Independent of the
    spanning path, it shares only `rank` and `_reaching` with it.  Images
    aimed at an arity whose basis is already all of kS_m are not formed:
    inserting them could not grow it.  A window no generator reaches has
    no bases; any other over budget is refused.

    Exact at n: a spanning element is reached by contracting theta's zero
    slots going down from k, padding up to n and translating last, so no
    arity above max(n, k) and no translate below n is needed.
    """
    reaching = _reaching(gens, n)
    if not reaching:
        return {}
    lo, hi = lowest_arity(gens.mode), max(n, *(theta.arity for theta in reaching))
    widths = (sum(map(math.factorial, range(lo, m + 1))) for m in range(lo, hi + 1))
    charge(widths, what=f"the closure window spans {lo}! + ... + {hi}! coordinates")
    bases = {m: RowBasis(math.factorial(m)) for m in range(lo, hi + 1)}

    def open_at(m: int) -> bool:
        basis = bases.get(m)
        return basis is not None and basis.rank < basis.dimension

    queue: list[tuple[dict[tuple[int, ...], int], int]] = []  # (integer row, arity)
    for theta in reaching:
        m = theta.arity
        row = _integral({p.seq: c for p, c in theta.terms.items()})
        if bases[m].insert({rank(seq): c for seq, c in row.items()}):
            queue.append((row, m))
    while queue:
        row, m = queue.pop()
        translations = [g.seq for g in sn_generators(n)] if m == n and open_at(n) else ()
        moves = _closure_moves(row, m, translations, open_at(m + 1), lo == 0 and open_at(m - 1))
        for image, target, _, _ in moves:
            if bases[target].insert({rank(seq): c for seq, c in image.items()}):
                queue.append((image, target))
    return bases


def _closure_moves(
    row: Mapping[tuple[int, ...], int], m: int, translations: Iterable[Sequence[int]],
    up: bool, down: bool,
) -> Iterator[tuple[dict[tuple[int, ...], int], int, str, object]]:
    """The images of an arity-m row keyed by permutation sequence, in checking
    order, each with its target arity and the move's name (a template and its
    slot): right translates by `translations`; if `up`, paddings with the
    binary identity on each slot and either side; if `down`, contractions of
    each slot with the nullary identity, under which terms may cancel."""
    items = row.items()
    for tau in translations:
        text = "(" + ",".join(map(str, tau)) + ")"
        yield {tuple([tau[v - 1] for v in s]): c for s, c in items}, m, "right translate by {}", text
    if up:
        for i in range(1, m + 1):  # letter i becomes i, i+1; later letters go up by 1
            pad = {
                tuple([w for v in s for w in ((i, i + 1) if v == i else (v + (v > i),))]): c
                for s, c in items
            }
            yield pad, m + 1, "padding slot {}", i
        yield {s + (m + 1,): c for s, c in items}, m + 1, "outer padding slot {}", 1
        yield {(1, *[v + 1 for v in s]): c for s, c in items}, m + 1, "outer padding slot {}", 2
    if down:
        for i in range(1, m + 1):  # letter i goes; later letters go down by 1
            contracted = ((tuple([v - (v > i) for v in s if v != i]), c) for s, c in items)
            yield accumulate(contracted), m - 1, "contraction at slot {}", i


def ideal_slice_closure(gens: GeneratorSet, n: int) -> IdealSlice:
    """Arity-n slice by compositional closure, inside the window that
    `_closure_bases` derives from n and the generators."""
    if n < 0:
        raise ValueError("arity must be nonnegative")
    bases = _closure_bases(gens, n)
    return IdealSlice(n, bases[n]) if n in bases else IdealSlice.zero(n)


def _disjoint_multisets(masks: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing index tuples whose support masks are pairwise disjoint."""
    dim = len(masks)
    prefix: list[int] = []

    def rec(start: int, acc: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for i in range(start, dim):
            m = masks[i]
            if m & acc:
                continue
            prefix.append(i)
            yield from rec(i, acc | m)
            prefix.pop()

    yield from rec(0, 0)


def _disjoint_multiset_count(masks: Sequence[int], n: int) -> int:
    """How many tuples `_disjoint_multisets(masks, n)` yields, without
    visiting them: a DP over (length, used mask) states, one index at a
    time.  An index with mask 0 may repeat; any other at most once."""
    states = {(0, 0): 1}
    for mask in masks:
        grown = dict(states)
        for (length, used), count in states.items():
            if mask == 0:
                steps = [(length + k, used) for k in range(1, n - length + 1)]
            elif length < n and not mask & used:
                steps = [(length + 1, used | mask)]
            else:
                continue
            for state in steps:
                grown[state] = grown.get(state, 0) + count
        states = grown
    return sum(count for (length, _), count in states.items() if length == n)


def identities_slice(
    algebra: StructureAlgebra, n: int, *, budget: int = DEFAULT_BUDGET
) -> IdealSlice:
    """All arity-n elements that vanish under every evaluation on the algebra:
    the kernel of the closed evaluation row space.  Refuses with
    BudgetExceeded when n! or the tuples to evaluate do not fit the budget."""
    return IdealSlice(n, _closed_evaluation_rows(algebra, n, budget).kernel())


def _closed_evaluation_rows(
    algebra: StructureAlgebra, n: int, budget: int
) -> RowBasis:
    """The evaluation row space, closed under the action: one row per
    (argument tuple, output coordinate).  Its rank is the codimension.

    Tuples are enumerated without order (permuted tuples give
    right-translated rows) and the row space is closed under the action
    afterwards, which is exact.  The unordered tuple count is charged
    against the budget, exactly (counted from the masks) when only
    disjoint supports are enumerated; if it does not fit the call refuses
    rather than sampling.  Before that, the width n! is refused above
    DEFAULT_BUDGET (`_slice_width`), as on the spanning side.
    """
    if n < 1:
        raise ValueError("identity slices are defined for arity >= 1")
    _slice_width(n)
    dim = algebra.dim
    masks = algebra._zero_overlap_masks
    if masks is not None:
        needed = _disjoint_multiset_count(masks, n)
        tuples: Iterable[tuple[int, ...]] = _disjoint_multisets(masks, n)
    else:
        needed = math.comb(dim + n - 1, n)
        tuples = combinations_with_replacement(range(dim), n)
    charge([needed], budget)
    rows, seeds = _evaluation_rows(algebra, n, tuples)
    _saturate_under_action(rows, seeds)
    return rows


def _evaluation_rows(
    algebra: StructureAlgebra, n: int, tuples: Iterable[tuple[int, ...]]
) -> tuple[RowBasis, list[dict[int, Fraction | int]]]:
    """The span of the distinct evaluation rows of nondecreasing tuples,
    and the rows that grew it.

    When the unit is a basis vector b_u, a tuple's block of u's (start a,
    length j; an all-unit tuple keeps one u) is stripped: the product of
    a word equals the product of its core word, the word with the unit
    letters deleted, so the row is the core tuple's row in S_{n-j}, read
    through the slot-deletion map S_n -> S_{n-j}.  Without such a unit,
    j = 0 and the core is the tuple.  A product depends only on the
    arrangement of the core's basis indices, so each distinct arrangement
    is evaluated once, on its lex-first word, and the row of an output
    coordinate is built only for a new signature (the core's multiplicity
    pattern, a, j and the coefficient of every arrangement).  Everything
    per pattern lives for one call.
    """
    # The index of the unit if it is a basis vector, else None.
    unit_entries = algebra.unit.entries
    unit = next(iter(unit_entries)) if list(unit_entries.values()) == [1] else None
    # Per multiplicity pattern of a core: the evaluator on the lex-first
    # word of each distinct arrangement, the arrangement class of every
    # permutation index of the core's arity, and the class count.
    by_pattern: dict[tuple[int, ...], tuple] = {}
    # Per (pattern, a, j) with j > 0: the core's class of every permutation
    # index of S_n (with j = 0 the lift is the core's own classes).
    lifts: dict[tuple, list[int]] = {}
    rows = RowBasis(math.factorial(n))
    grown: list[dict[int, Fraction | int]] = []
    signatures: set[tuple] = set()
    for tup in tuples:
        a = j = 0
        if unit is not None:
            a = bisect_left(tup, unit)
            j = min(bisect_right(tup, unit, a) - a, n - 1)
            if not j:
                a = 0
        core = tup[:a] + tup[a + j:]
        # Tuples are nondecreasing, so equal indices sit in blocks.
        pattern = tuple(len(list(block)) for _, block in groupby(core))
        entry = by_pattern.get(pattern)
        if entry is None:
            reps, cls = arrangement_classes(pattern)
            entry = by_pattern[pattern] = (_word_evaluator(algebra.columns, reps), cls, len(reps))
        products, cls, classes = entry
        lift = cls if not j else lifts.get((pattern, a, j))
        if lift is None:
            sizes = (1,) * a + (0,) * j + (1,) * (n - a - j)
            lift = lifts[pattern, a, j] = [cls[i] for i in unit_contraction_table(sizes)]
        by_coord: dict[int, list[Fraction | int]] = {}
        for k, vec in products(core).items():
            for coord, c in vec.items():
                coefs = by_coord.get(coord)
                if coefs is None:
                    coefs = by_coord[coord] = [0] * classes
                coefs[k] = c
        for coefs in by_coord.values():
            # The row is coefs[lift[si]] at si, so equal signatures give
            # equal rows; distinct ones still may, and the basis rejects those.
            signature = (pattern, a, j, tuple(coefs))
            if signature in signatures:
                continue
            signatures.add(signature)
            row = {si: c for si, c in enumerate(map(coefs.__getitem__, lift)) if c}
            if rows.insert(row):
                grown.append(row)
    return rows, grown


def codimension(
    algebra: StructureAlgebra, n: int, *, budget: int = DEFAULT_BUDGET
) -> int:
    """n! minus the dimension of the arity-n identity slice: the rank of the
    closed evaluation row space, read without forming its kernel."""
    return _closed_evaluation_rows(algebra, n, budget).rank


def min_identity_degree(
    algebra: StructureAlgebra, max_arity: int, *, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Least arity <= max_arity with a nonzero identity slice, else None."""
    for n in range(1, _nonnegative(max_arity) + 1):
        if _closed_evaluation_rows(algebra, n, budget).rank < math.factorial(n):
            return n
    return None


def membership(
    theta: OperadElement, gens: GeneratorSet, *, cache_dir: str | Path | None = None
) -> bool:
    """True iff theta lies in the generated ideal's slice at its own arity."""
    return ideal_slice_spanning(gens, theta.arity, cache_dir=cache_dir).contains(theta)


def poly_generated_slice(
    polys: Sequence[NcPoly],
    n: int,
    mode: str = UNITAL,
    *,
    cache_dir: str | Path | None = None,
) -> IdealSlice:
    """Slice of the ideal generated by multilinear polynomial generators."""
    gens = GeneratorSet([poly_to_operad(f) for f in polys], mode)
    return ideal_slice_spanning(gens, n, cache_dir=cache_dir)


def slice_polynomials(slice_: IdealSlice) -> list[NcPoly]:
    """Multilinear polynomial images of the slice basis, in basis order."""
    return [operad_to_poly(theta) for theta in slice_.elements()]


class ClosureReport:
    def __init__(self, ok: bool, checked: int, failure: str | None = None) -> None:
        self.ok = ok
        self.checked = checked
        self.failure = failure

    def __repr__(self) -> str:
        return f"ClosureReport(ok={self.ok!r}, checked={self.checked!r}, failure={self.failure!r})"


def verify_ideal_closure(
    slices: Mapping[int, IdealSlice], max_arity: int, mode: str = UNITAL
) -> ClosureReport:
    """Check that per-arity subspaces behave like ideal slices.

    For every basis element: all right translates stay in the same slice,
    paddings with the binary identity land one arity up (when that slice
    is inside the checked window), and unital contractions land one arity
    down.  A missing arity between 1 and max_arity is a contract violation,
    and so is a mode other than the two; a missing arity-0 slice is zero.
    A slice with rows is refused when its m! translates exceed the budget.
    """
    for m in range(1, _nonnegative(max_arity) + 1):
        if m not in slices:
            raise ValueError(f"missing slice for arity {m}")
    # Every move lands in 0..max_arity, so only arity 0 can be missing.
    slice_at = {0: IdealSlice.zero(0), **slices}
    down = lowest_arity(mode) == 0
    checked = 0
    for m in sorted(k for k in slices if k <= max_arity):
        rows = slices[m].basis.row_dicts()
        if rows:
            _slice_width(m)  # each row's m! translates are checked
        for row in rows:
            row = {unrank(i, m): c for i, c in row.items()}
            translations = permutations(range(1, m + 1)) if m >= 2 else ()
            for image, target, move, slot in _closure_moves(row, m, translations, m < max_arity, down):
                checked += 1
                if not slice_at[target].basis.contains({rank(seq): c for seq, c in image.items()}):
                    where = "the slice" if target == m else f"arity {target}"
                    failure = f"arity {m}: {move.format(slot)} escapes {where}"
                    return ClosureReport(False, checked, failure)
    return ClosureReport(True, checked)


def _nonnegative(max_arity: int) -> int:
    """max_arity, refused with ValueError if negative: a negative bound
    checks nothing and would pass vacuously."""
    if max_arity < 0:
        raise ValueError("the arity bound must be nonnegative")
    return max_arity


class RoundtripReport:
    def __init__(self, per_arity: dict[int, bool] | None = None) -> None:
        self.per_arity = {} if per_arity is None else per_arity

    def __repr__(self) -> str:
        return f"RoundtripReport(per_arity={self.per_arity!r})"

    @property
    def ok(self) -> bool:
        return all(self.per_arity.values())


def roundtrip_check(gens: GeneratorSet, max_arity: int) -> RoundtripReport:
    """Regenerate each slice from its own polynomial translation.

    For each arity: take the slice of the generated ideal, translate its
    basis to multilinear polynomials, translate back to operad generators,
    and span again; both canonical bases must coincide.
    """
    report = RoundtripReport()
    for n in range(1, _nonnegative(max_arity) + 1):
        direct = ideal_slice_spanning(gens, n)
        polys = slice_polynomials(direct)
        regenerated = poly_generated_slice(polys, n, gens.mode)
        report.per_arity[n] = regenerated == direct
    return report


def full_slice_map(gens: GeneratorSet, max_arity: int) -> dict[int, IdealSlice]:
    """Spanning slices for every arity up to the bound; arity 0 is included
    in unital mode, where contractions can land there."""
    start = lowest_arity(gens.mode)
    return {n: ideal_slice_spanning(gens, n) for n in range(start, _nonnegative(max_arity) + 1)}


def slices_equal(
    first: GeneratorSet, second: GeneratorSet, max_arity: int
) -> bool:
    """Compare generated ideals arity by arity up to the bound."""
    if first.mode != second.mode:
        raise ValueError("generator sets must use the same mode")
    for n in range(lowest_arity(first.mode), _nonnegative(max_arity) + 1):
        if ideal_slice_spanning(first, n) != ideal_slice_spanning(second, n):
            return False
    return True


# --- slice cache -----------------------------------------------------------


def generator_set_hash(gens: GeneratorSet) -> str:
    """Content hash of the sorted canonical generator texts: the full
    sha256 hex digest, the only link between a cache file and its
    generator set.  It comes from the interpreter's built-in SHA-256,
    which loads no OpenSSL; hashlib gives the same digest and is the
    fallback where neither built-in module exists."""
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256(gens.canonical_text().encode("utf-8")).hexdigest()


def slice_cache_path(cache_dir: str | Path, gens: GeneratorSet, arity: int) -> Path:
    return Path(cache_dir) / f"{generator_set_hash(gens)}-{gens.mode}-n{arity}{CACHE_SUFFIX}"


def save_slice_file(path: str | Path, slice_: IdealSlice, mode: str) -> None:
    """Write the slice atomically in the cache format, which holds
    arities 0..MAX_SLICE_ARITY."""
    if slice_.arity > MAX_SLICE_ARITY:
        raise ValueError(f"arity {slice_.arity} above {MAX_SLICE_ARITY} cannot be saved")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = slice_.basis.dimension
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(
                f"{CACHE_MAGIC}\narity={slice_.arity} dim={slice_.dim} order=lex mode={mode}\n"
            )
            for row in slice_.basis.row_dicts():
                # The RREF row is the primitive row over its pivot entry,
                # each entry x/pivot written in lowest terms as "p" or "p/q".
                pivot = row[min(row)]
                tokens = ["0"] * width
                for c, x in row.items():
                    if x % pivot:
                        g = math.gcd(x, pivot)
                        tokens[c] = f"{x // g}/{pivot // g}"
                    else:
                        tokens[c] = str(x // pivot)
                handle.write(" ".join(tokens) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


_NOT_ZERO_OR_SPACE = re.compile(r"[^0 ]")


def _row_entries(line: str, width: int) -> dict[int, int | Fraction]:
    """The nonzero entries of a row of `width` whitespace-separated tokens.

    Rows are mostly "0", so the line is searched for the characters of
    the other tokens, and only those tokens are parsed; a token of zeros
    alone is the number 0.
    """
    if line.count(" ") != width - 1 or "  " in line or line[0] == " " or line[-1] == " ":
        line = " ".join(line.split())
        if line.count(" ") != width - 1:
            raise ValueError(f"row of length {len(line.split())}, expected {width}")
    row = {}
    column = start = 0
    search = _NOT_ZERO_OR_SPACE.search
    found = search(line)
    while found:
        begin = line.rfind(" ", 0, found.start()) + 1
        end = line.find(" ", begin)
        if end < 0:
            end = len(line)
        column += line.count(" ", start, begin)
        start = begin
        value = parse_number(line[begin:end])
        if value:
            row[column] = value
        found = search(line, end)
    return row


def _text_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 file at `path` as str.splitlines() gives
    them, read one line at a time.  splitlines also breaks at vertical
    tab, form feed and other characters that file iteration does not, so
    each read line is split again."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            yield from line.splitlines()


def load_slice_file(path: str | Path, *, arity: int | None = None) -> tuple[IdealSlice, str]:
    """Read a cached slice; its rows are checked to be canonical RREF and
    adopted as the basis, without elimination.  The file is streamed a row
    at a time: neither its text nor a list of its lines or rows is held.

    Every defect of the file raises ValueError, rows that are not canonical
    RREF (out of order, not reduced, a pivot entry other than 1) included.
    The header's arity is checked before arity! is computed or anything of
    that size is built: it must lie in 0..MAX_SLICE_ARITY and equal `arity`
    when the caller gives one.  Every row must then have arity! entries.
    Without `arity`, a file with no rows is trusted for its arity (the zero
    slice).
    """
    lines = _text_lines(path)
    if next(lines, None) != CACHE_MAGIC:
        raise ValueError(f"{path}: not a slice cache file")
    header: dict[str, str] = {}
    for chunk in next(lines, "").split():
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
    if not 0 <= declared <= MAX_SLICE_ARITY:
        raise ValueError(f"{path}: arity {declared} outside 0..{MAX_SLICE_ARITY}")
    width = math.factorial(declared)
    try:
        rows = (_row_entries(line, width) for line in lines if line.strip())
        basis = RowBasis.from_rref(width, rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if basis.rank != dim:
        raise ValueError(f"{path}: declared dim {dim} but rank is {basis.rank}")
    return IdealSlice(declared, basis), mode

