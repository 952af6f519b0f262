from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (
    ArityMismatch,
    DimensionMismatch,
    NcPoly,
    OperadElement,
    RowBasis,
    SparseVector,
    all_permutations,
    format_rational,
    kernel_basis,
    parse_rational,
)
from oplab.linalg import accumulate
from oracles import FractionRowBasis, dense_in_span, dense_kernel, dense_rank

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def vec(dim, *pairs):
    return SparseVector(dim, dict(pairs))


# Few keys and small values, so that sums often cancel.
small_keys = st.integers(min_value=0, max_value=4)
small_values = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2]))


@given(
    st.lists(st.tuples(small_keys, small_values), max_size=12),
    st.dictionaries(small_keys, small_values.filter(bool), max_size=4),
)
@settings(max_examples=300, derandomize=True)
def test_accumulate_matches_a_reference_sum(pairs, start):
    before = dict(start)
    reference = defaultdict(Fraction)
    for key, value in [*start.items(), *pairs]:
        reference[key] += value
    sums = accumulate(pairs, start)
    assert sums == {key: value for key, value in reference.items() if value}
    assert all(sums.values())
    assert start == before
    assert accumulate((pair for pair in pairs), start) == sums
    assert accumulate(pairs) == accumulate(pairs, {})


# Each class of exact combination: its constructor from a space and
# terms, its key for each small int, a space, and (with a dimension or an
# arity) a second space with the refusal of adding across the two.
COMBINATIONS = {
    "SparseVector": (
        SparseVector, lambda k: k, 6, (7, DimensionMismatch, "dimension mismatch: 6 vs 7")
    ),
    "OperadElement": (
        OperadElement, all_permutations(3).__getitem__, 3, (4, ArityMismatch, "arity mismatch: 3 vs 4")
    ),
    "NcPoly": (lambda space, terms=(): NcPoly(terms), lambda k: (k + 1, 1), None, None),
}


@pytest.mark.parametrize("kind", list(COMBINATIONS))
@given(
    first=st.lists(st.tuples(small_keys, small_values), max_size=10),
    second=st.lists(st.tuples(small_keys, small_values), max_size=10),
    factor=small_values,
)
@settings(max_examples=150, derandomize=True)
def test_combination_arithmetic_matches_dict_arithmetic(kind, first, second, factor):
    make, key, space, other = COMBINATIONS[kind]

    def build(pairs):
        return make(space, [(key(k), v) for k, v in pairs])

    def reference(*scaled_pairs):
        sums = defaultdict(Fraction)
        for pairs, scale in scaled_pairs:
            for k, v in pairs:
                sums[key(k)] += scale * v
        return {k: v for k, v in sums.items() if v}

    a, b = build(first), build(second)
    assert a.terms == reference((first, 1))
    assert a.add(b).terms == (a + b).terms == reference((first, 1), (second, 1))
    assert a.sub(b).terms == (a - b).terms == reference((first, 1), (second, -1))
    assert a.scale(factor).terms == (factor * a).terms == reference((first, factor))
    assert (-a).terms == reference((first, -1))
    assert a.scale(0).terms == {} and a.scale(0).is_zero() and a.sub(a).is_zero()
    for result in (a.add(b), a.scale(factor), -a):
        assert type(result) is type(a) and result == make(space, result.terms)
    # the same map built in another order: equal, with equal hashes
    again = build(first[::-1])
    assert again == a and hash(again) == hash(a)
    assert a.add(b) == b.add(a) and hash(a.add(b)) == hash(b.add(a))
    # another class holding the very same map is never equal
    for name, (make_other, _, other_space, _) in COMBINATIONS.items():
        if name != kind:
            twin = make_other(other_space)
            twin.terms = dict(a.terms)
            assert a != twin and twin != a
            with pytest.raises(TypeError):
                a.add(twin)
    if other is not None:
        other_space, error, message = other
        assert make(space) != make(other_space)
        with pytest.raises(error) as refused:
            a.add(make(other_space))
        assert str(refused.value) == message


def test_rational_serialization():
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("5/2") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_rational("5/")
    for text in ("1e9999999", "0.5", "1/-2", "nan"):
        with pytest.raises(ValueError):
            parse_rational(text)


@given(rationals, rationals)
def test_exact_arithmetic(a, b):
    assert (a + b) - b == a


def test_sparse_vector_drops_zeros():
    v = vec(3, (0, 1), (1, 0))
    assert v.entries == {0: Fraction(1)}
    assert v.get(1) == 0
    with pytest.raises(DimensionMismatch):
        vec(2, (5, 1))


def test_insert_zero_vector_never_grows():
    basis = RowBasis(2)
    basis.insert(vec(2, (0, 1)))
    before = basis.rows()
    assert not basis.insert(SparseVector(2))
    assert basis.rows() == before


def test_insert_unit_vector_into_empty_basis():
    basis = RowBasis(2)
    assert basis.insert(vec(2, (0, 1)))
    assert basis.rank == 1
    assert basis.rows() == [vec(2, (0, 1))]


def test_insert_hand_elimination():
    # (1,1) then (1,-1) reduce to the standard basis by hand elimination.
    basis = RowBasis(2)
    assert basis.insert(vec(2, (0, 1), (1, 1)))
    assert basis.insert(vec(2, (0, 1), (1, -1)))
    assert basis.rank == 2
    assert basis.rows() == [vec(2, (0, 1)), vec(2, (1, 1))]


def test_insert_is_idempotent():
    basis = RowBasis(3)
    v = vec(3, (0, 2), (2, -1))
    assert basis.insert(v)
    assert not basis.insert(v)
    assert basis.rank == 1


def test_contains_examples():
    empty = RowBasis(2)
    assert empty.contains(SparseVector(2))
    single = RowBasis(2)
    single.insert(vec(2, (0, 1)))
    assert not single.contains(vec(2, (1, 1)))
    # {e1+e2, e1-e2} spans the plane, so e1 is a combination.
    both = RowBasis(2)
    both.insert(vec(2, (0, 1), (1, 1)))
    both.insert(vec(2, (0, 1), (1, -1)))
    assert both.contains(vec(2, (0, 1)))


def test_kernel_examples():
    full = kernel_basis([], 3)
    assert full.rank == 3
    line = kernel_basis([vec(2, (0, 1))], 2)
    assert line.rows() == [vec(2, (1, 1))]
    # Hand elimination: kernel of {(1,1,0),(0,1,1)} is the line (1,-1,1).
    k = kernel_basis([vec(3, (0, 1), (1, 1)), vec(3, (1, 1), (2, 1))], 3)
    assert k.rows() == [vec(3, (0, 1), (1, -1), (2, 1))]


def test_dimension_mismatch_errors():
    basis = RowBasis(3)
    with pytest.raises(DimensionMismatch):
        basis.insert(SparseVector(2))
    with pytest.raises(DimensionMismatch):
        basis.contains(SparseVector(4))


matrix_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda dim: st.lists(
        st.lists(rationals, min_size=dim, max_size=dim), min_size=0, max_size=6
    )
)


@given(matrix_strategy)
@settings(max_examples=60)
def test_rank_nullity(rows):
    dim = len(rows[0]) if rows else 3
    vectors = [SparseVector.from_dense(r) for r in rows]
    basis = RowBasis(dim)
    for v in vectors:
        basis.insert(v)
    assert basis.rank + basis.kernel().rank == dim
    assert basis.rank == dense_rank([list(r) for r in rows])


@given(matrix_strategy, st.lists(rationals, min_size=5, max_size=5))
@settings(max_examples=60)
def test_contains_matches_dense_solve(rows, extra):
    dim = len(rows[0]) if rows else 3
    target = extra[:dim] + [Fraction(0)] * max(0, dim - len(extra))
    basis = RowBasis(dim)
    for r in rows:
        basis.insert(SparseVector.from_dense(r))
    expected = dense_in_span([list(r) for r in rows], target)
    assert basis.contains(SparseVector.from_dense(target)) == expected


def test_contains_matches_dense_solve_dim24():
    import random

    rng = random.Random(7)
    dim = 24
    rows = [
        [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(10)
    ]
    basis = RowBasis(dim)
    for r in rows:
        basis.insert(SparseVector.from_dense(r))
    inside = [sum((r[c] for r in rows[:4]), Fraction(0)) for c in range(dim)]
    assert basis.contains(SparseVector.from_dense(inside))
    assert basis.contains(SparseVector.from_dense(inside)) == dense_in_span(rows, inside)
    probe = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    assert basis.contains(SparseVector.from_dense(probe)) == dense_in_span(rows, probe)


@given(matrix_strategy)
@settings(max_examples=40)
def test_kernel_matches_dense_kernel(rows):
    dim = len(rows[0]) if rows else 3
    vectors = [SparseVector.from_dense(r) for r in rows]
    mine = kernel_basis(vectors, dim)
    reference = dense_kernel([list(r) for r in rows], dim)
    assert mine.rank == len(reference)
    # every reference kernel vector is annihilated and lies in my kernel
    for ref in reference:
        assert mine.contains(SparseVector.from_dense(ref))
        for row in rows:
            assert sum(a * b for a, b in zip(row, ref)) == 0


def test_rref_canonical_under_insertion_order():
    vectors = [
        vec(4, (0, 2), (1, 1)),
        vec(4, (1, 3), (3, -2)),
        vec(4, (0, 1), (2, 5)),
    ]
    one = RowBasis(4)
    two = RowBasis(4)
    for v in vectors:
        one.insert(v)
    for v in reversed(vectors):
        two.insert(v)
    assert one == two


# Entries for the integer-vs-Fraction cross-check: small and huge
# numerators and denominators, negative values, and plain ints.
mixed_entries = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
    st.integers(-(10**12), 10**12),
)


@st.composite
def vector_streams(draw):
    """A dimension 0..8, a stream of sparse vectors (zero vectors and
    linear combinations of earlier ones among them), a reordering of the
    stream and some probes."""
    dim = draw(st.integers(min_value=0, max_value=8))
    sparse = st.dictionaries(
        st.integers(min_value=0, max_value=max(dim - 1, 0)), mixed_entries, max_size=dim
    )
    stream = draw(st.lists(sparse, max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if not stream:
            break
        picks = draw(st.lists(st.integers(0, len(stream) - 1), min_size=1, max_size=3))
        weights = draw(st.lists(mixed_entries, min_size=len(picks), max_size=len(picks)))
        combo: dict[int, Fraction] = {}
        for i, w in zip(picks, weights):
            for c, x in stream[i].items():
                combo[c] = combo.get(c, 0) + w * x
        stream.insert(draw(st.integers(0, len(stream))), combo)
    probes = draw(st.lists(sparse, max_size=4))
    if stream:
        probes.append({c: 3 * x for c, x in stream[-1].items()})
    order = draw(st.permutations(range(len(stream))))

    def make(d):
        out = SparseVector(dim)
        out.entries = {c: x for c, x in d.items() if x}  # ints kept as ints
        return out

    return dim, [make(d) for d in stream], order, [make(d) for d in probes]


@given(vector_streams())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_row_basis_matches_fraction_oracle(case):
    dim, stream, order, probes = case
    mine, reference = RowBasis(dim), FractionRowBasis(dim)
    grew = [reference.insert(v) for v in stream]
    assert [mine.insert(v) for v in stream] == grew
    assert mine.rank == reference.rank
    assert mine.pivots() == reference.pivots()
    rows = mine.rows()
    assert rows == reference.rows()
    assert all(x.__class__ is Fraction for row in rows for x in row.entries.values())
    for probe in probes + stream:
        assert mine.contains(probe) == reference.contains(probe)
    kernel = mine.kernel()
    assert kernel.rows() == reference.kernel().rows()
    assert all(x.__class__ is Fraction for row in kernel.rows() for x in row.entries.values())
    reordered = RowBasis(dim)
    for i in order:
        reordered.insert(stream[i])
    assert reordered == mine
    # the same stream as plain entry maps
    plain = RowBasis(dim)
    assert [plain.insert(dict(v.entries)) for v in stream] == grew
    assert plain == mine
    assert plain.rows() == reference.rows()
    assert plain.kernel().rows() == reference.kernel().rows()
    for probe in probes + stream:
        assert plain.contains(dict(probe.entries)) == reference.contains(probe)


def test_row_basis_range_checks_plain_maps():
    basis = RowBasis(3)
    assert basis.insert({0: 1, 2: Fraction(1, 2)})
    assert basis.contains({0: 2, 2: 1})
    for bad in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
        with pytest.raises(DimensionMismatch):
            basis.insert(bad)
        with pytest.raises(DimensionMismatch):
            basis.contains(bad)
    with pytest.raises(DimensionMismatch):
        RowBasis(0).insert({0: 1})
    assert basis.rank == 1


@given(vector_streams())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_from_rref_adopts_exactly_the_eliminated_basis(case):
    # the RREF rows of a basis built by insert are adopted as that basis,
    # with integral entries given as ints or as Fractions; rows out of
    # order, not reduced, out of range, with a pivot entry other than 1 or
    # empty are not
    dim, stream, _, _ = case
    basis = RowBasis(dim)
    for v in stream:
        basis.insert(v)
    rows = [row.entries for row in basis.rows()]
    assert RowBasis.from_rref(dim, rows) == basis
    as_ints = [{c: int(x) if x.denominator == 1 else x for c, x in r.items()} for r in rows]
    assert RowBasis.from_rref(dim, as_ints) == basis
    defects = [rows + [{}]]
    if rows:
        defects.append([{c: 2 * x for c, x in rows[0].items()}] + rows[1:])
        defects.append([rows[0] | {dim: 1}] + rows[1:])
    if len(rows) >= 2:
        defects.append([rows[1], rows[0]] + rows[2:])
        combined = dict(rows[0])
        for c, x in rows[1].items():
            combined[c] = combined.get(c, 0) + x
        defects.append([combined] + rows[1:])
    for defect in defects:
        with pytest.raises(ValueError):
            RowBasis.from_rref(dim, defect)
