import hashlib
import math
import random
import time
from itertools import permutations, product, zip_longest
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oplab.ideals as ideals_module
import oracles

from oplab import (
    BudgetExceeded,
    GeneratorSet,
    IdealSlice,
    NONUNITAL,
    NcPoly,
    OperadElement,
    Permutation,
    RowBasis,
    SparseVector,
    StructureAlgebra,
    UNITAL,
    act,
    algebra_from_spec,
    all_permutations,
    codimension,
    direct_sum,
    format_rational,
    full_compose,
    full_slice_map,
    generator_set_hash,
    grassmann_algebra,
    ideal_slice_closure,
    ideal_slice_spanning,
    identities_slice,
    identity,
    is_identity,
    load_slice_file,
    matrix_algebra,
    membership,
    min_identity_degree,
    multiply,
    operad_to_poly,
    parse_poly,
    poly_generated_slice,
    poly_to_operad,
    roundtrip_check,
    save_slice_file,
    slice_cache_path,
    slice_polynomials,
    slices_equal,
    standard_polynomial,
    tensor_product,
    to_vector,
    verify_ideal_closure,
)
from oracles import (
    DUAL_SHIFTED,
    M2_UNIT_SPLIT,
    dense_kernel,
    dense_rank,
    dense_rref,
    identities_slice_reference,
    naive_identity_rows,
    saturate_under_action_reference,
    spanning_core_vectors_reference,
)

COMMUTATOR = parse_poly("x1*x2 - x2*x1")
TRIPLE_COMMUTATOR = parse_poly("x1*x2*x3 - x2*x1*x3 - x3*x1*x2 + x3*x2*x1")


def commutator_gens(mode=UNITAL):
    return GeneratorSet([poly_to_operad(COMMUTATOR)], mode)


def random_element(rng, arity):
    terms = {}
    for p in all_permutations(arity):
        if rng.random() < 0.5:
            c = rng.randint(-2, 2)
            if c:
                terms[p] = Fraction(c)
    if not terms:
        terms[identity(arity)] = Fraction(1)
    return OperadElement(arity, terms)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet([OperadElement.zero(2)])
    with pytest.raises(ValueError):
        GeneratorSet([OperadElement.unit(1)], mode="other")


def test_unit_generator_spans_everything():
    gens = GeneratorSet([OperadElement.unit(1)])
    for n in range(4):
        slice_ = ideal_slice_spanning(gens, n)
        assert slice_.dim == math.factorial(n)


def test_commutator_slice_at_own_arity():
    slice_ = ideal_slice_spanning(commutator_gens(), 2)
    assert slice_.dim == 1
    assert slice_.contains(poly_to_operad(COMMUTATOR))


def test_commutator_slice_dimension_oracle():
    # oracle: on a commutative algebra all monomials agree, so the ideal
    # slice is the kernel of the all-ones evaluation row
    for n in (2, 3, 4):
        ones = [[Fraction(1)] * math.factorial(n)]
        expected = len(dense_kernel(ones, math.factorial(n)))
        assert expected == math.factorial(n) - 1
        slice_ = ideal_slice_spanning(commutator_gens(), n)
        assert slice_.dim == expected
        assert slice_ == identities_slice(matrix_algebra(1), n)


def test_spanning_equals_closure_on_examples():
    gens = commutator_gens()
    assert ideal_slice_closure(GeneratorSet([OperadElement.unit(1)]), 2).dim == 2
    c2 = ideal_slice_closure(gens, 2)
    assert c2.dim == 1 and c2 == ideal_slice_spanning(gens, 2)
    c3 = ideal_slice_closure(gens, 3)
    assert c3.dim == 5 and c3 == ideal_slice_spanning(gens, 3)


def test_spanning_equals_closure_random_generators():
    rng = random.Random(11)
    for _ in range(6):
        gens = GeneratorSet([random_element(rng, rng.randint(1, 3))])
        for n in range(1, 5):
            assert ideal_slice_spanning(gens, n) == ideal_slice_closure(gens, n)


def test_spanning_equals_closure_nonunital():
    rng = random.Random(77)
    for _ in range(4):
        gens = GeneratorSet([random_element(rng, rng.randint(1, 3))], NONUNITAL)
        for n in range(1, 5):
            assert ideal_slice_spanning(gens, n) == ideal_slice_closure(gens, n)


# Elements some of whose contractions cancel to zero.
CANCELLING = [
    poly_to_operad(COMMUTATOR),
    poly_to_operad(TRIPLE_COMMUTATOR),
    standard_polynomial(3),
]


@st.composite
def generator_sets(draw):
    # Nonunital mode refuses arity-0 elements, so it draws none.
    mode = draw(st.sampled_from([UNITAL, NONUNITAL]))
    lowest = ideals_module.lowest_arity(mode)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    elements = []
    for arity in draw(st.lists(st.integers(lowest, 4), min_size=1, max_size=3)):
        perms = draw(
            st.lists(st.sampled_from(all_permutations(arity)), min_size=1, max_size=6, unique=True)
        )
        elements.append(OperadElement(arity, {p: draw(coefficients) for p in perms}))
    if draw(st.booleans()):
        elements.append(draw(coefficients) * draw(st.sampled_from(CANCELLING)))
    if lowest == 0 and draw(st.booleans()):
        elements.append(OperadElement(0, {identity(0): draw(coefficients)}))
    return GeneratorSet(elements, mode)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gens=generator_sets(), n=st.integers(0, 4))
def test_spanning_equals_closure_on_generator_sets(gens, n):
    # The two slice algorithms, in both modes, with arity-0 generators in
    # unital mode and generators above n in either.
    assert ideal_slice_spanning(gens, n) == ideal_slice_closure(gens, n)


@pytest.mark.parametrize("mode", [UNITAL, NONUNITAL])
@pytest.mark.parametrize("k", [4, 5])
def test_closure_reaches_down_from_generators_above_n(mode, k):
    # A unital generator of arity k contracts down to every arity below it,
    # so each slice up to k - 1 is all of kS_n; a window that stops short of
    # k misses it.  In nonunital mode it reaches no arity below k.
    gens = GeneratorSet([OperadElement.unit(k)], mode)
    for n in range(k):
        closure = ideal_slice_closure(gens, n)
        assert closure == ideal_slice_spanning(gens, n)
        assert closure.dim == (math.factorial(n) if mode == UNITAL else 0)


@pytest.mark.parametrize(
    "gens, n, window",
    [
        (GeneratorSet([OperadElement.unit(4), poly_to_operad(COMMUTATOR)], NONUNITAL), 2, [1, 2]),
        (GeneratorSet([OperadElement.unit(4)], UNITAL), 1, [0, 1, 2, 3, 4]),
    ],
)
def test_closure_window_is_exact(gens, n, window):
    # lowest arity up to n or the largest arity of a generator reaching n,
    # and no further: a nonunital generator above n reaches nothing
    assert sorted(ideals_module._closure_bases(gens, n)) == window


def test_closure_translates_only_at_the_arity():
    # Contracting, then padding up to n, then translating reaches every
    # spanning element, so the closure asks for the generating pair of S_n
    # and of no other symmetric group.  A unital unit(8) at n = 1 then fills
    # no slice of arity 2..8.
    rng = random.Random(11)
    terms = rng.sample(all_permutations(7), 4)
    sparse = OperadElement(7, {p: Fraction(rng.choice([-2, -1, 1, 3])) for p in terms})
    cases = [
        (commutator_gens(), 3),
        (GeneratorSet([OperadElement.unit(8)]), 1),
        (GeneratorSet([sparse]), 3),
        (GeneratorSet([OperadElement.unit(4), poly_to_operad(COMMUTATOR)], NONUNITAL), 2),
    ]
    real = ideals_module.sn_generators
    for gens, n in cases:
        with mock.patch.object(ideals_module, "sn_generators", wraps=real) as asked:
            closure = ideal_slice_closure(gens, n)
        # none at all where the arity-n basis fills before it is translated
        assert {call.args for call in asked.call_args_list} <= {(n,)}
        assert closure == ideal_slice_spanning(gens, n)
    assert ideal_slice_closure(GeneratorSet([OperadElement.unit(8)]), 1).dim == 1


def test_the_mode_sets_the_lowest_arity():
    # Nonunital mode has no nullary identity, so it refuses arity-0
    # generators; a mode other than the two is refused wherever it enters.
    with pytest.raises(ValueError, match="below arity 1"):
        GeneratorSet([OperadElement.unit(0), OperadElement.unit(2)], NONUNITAL)
    with pytest.raises(ValueError, match="below arity 1"):
        poly_generated_slice([parse_poly("1")], 2, NONUNITAL)
    for mode in ("Unital", "bogus", None):
        with pytest.raises(ValueError, match="mode must be"):
            GeneratorSet([OperadElement.unit(2)], mode)
    assert [ideals_module.lowest_arity(m) for m in (UNITAL, NONUNITAL)] == [0, 1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gens=generator_sets(), n=st.integers(0, 5))
def test_spanning_core_vectors_match_reference(gens, n):
    # The index-table spanning family, formed once per S_k-orbit of
    # compositions from the S_k-closed span of the generators, against the
    # element-level family of every generator and composition: every fast
    # core vector lies in the reference slice, and the slices are equal.
    with mock.patch.object(
        ideals_module, "_spanning_core_vectors", spanning_core_vectors_reference
    ):
        expected = ideal_slice_spanning(gens, n)
    for vec in ideals_module._spanning_core_vectors(gens, n):
        assert expected.basis.contains(vec)
    assert ideal_slice_spanning(gens, n) == expected


def random_lie_element(draw, arity):
    """A bracketing of the letters of `arity` in a random order."""
    letters = draw(st.permutations(range(1, arity + 1)))

    def bracket(lo, hi):
        if hi - lo == 1:
            return NcPoly.variable(letters[lo])
        cut = draw(st.integers(lo + 1, hi - 1))
        left, right = bracket(lo, cut), bracket(cut, hi)
        return left.mul(right).sub(right.mul(left))

    return poly_to_operad(bracket(0, arity))


@st.composite
def closure_generator_sets(draw):
    gens = draw(generator_sets())
    elements = list(gens.elements)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    for arity in draw(st.lists(st.integers(2, 4), max_size=2)):
        lie = random_lie_element(draw, arity)
        if draw(st.booleans()):
            lie = lie + draw(coefficients) * random_lie_element(draw, arity)
        if not lie.is_zero():
            elements.append(draw(coefficients) * lie)
    return GeneratorSet(elements, gens.mode)


def reference_closure(vectors, n):
    """The span of `vectors` closed by the reference closure."""
    basis = RowBasis(math.factorial(n))
    for vec in vectors:
        basis.insert(vec)
    saturate_under_action_reference(basis, n)
    return basis


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gens=closure_generator_sets(), n=st.integers(0, 5))
def test_spanning_closure_matches_reference(gens, n):
    # The sparse best-first closure, seeded by ideal_slice_spanning with
    # the core vectors that grew the basis, against the LIFO closure of
    # the echelon rows.
    expected = reference_closure(spanning_core_vectors_reference(gens, n), n)
    assert ideal_slice_spanning(gens, n).basis == expected


@st.composite
def proper_submodule_generator_sets(draw):
    # Generic generators span all of kS_k once closed, which would hide a
    # spanning family that skips the S_k-closure or some compositions.
    # For an involution sigma, (1 +- sigma)*r lies in a proper right ideal,
    # so its S_k-closed span is more than its span and less than kS_k.
    coefficients = st.integers(-2, 2).filter(bool)
    elements = []
    for arity in draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)):
        perms = all_permutations(arity)
        involutions = [p for p in perms[1:] if multiply(p, p) == perms[0]]
        sigma = draw(st.sampled_from(involutions))
        sign = Fraction(draw(st.sampled_from([1, -1])))
        factor = OperadElement(arity, {perms[0]: Fraction(1), sigma: sign})
        picked = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=4, unique=True))
        element = OperadElement.zero(arity)
        for p in picked:
            element = element + draw(coefficients) * act(factor, p)
        if not element.is_zero():
            elements.append(element)
    assume(elements)
    return GeneratorSet(elements, draw(st.sampled_from([UNITAL, NONUNITAL])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gens=proper_submodule_generator_sets(), n=st.integers(2, 5))
def test_spanning_matches_reference_on_proper_submodules(gens, n):
    expected = reference_closure(spanning_core_vectors_reference(gens, n), n)
    assert ideal_slice_spanning(gens, n).basis == expected


def test_spanning_builds_no_closure_above_the_arity():
    # A generator of arity k > n has no composition in nonunital mode and
    # is contracted to arities n and n - 1 term by term in unital mode:
    # neither a k!-wide closure nor a k!-long contraction table is built.
    # x1x2x3[x4,x5]x6x7 survives only contractions that keep x4 and x5;
    # the others cancel and are dropped.
    rng = random.Random(7)
    perms = all_permutations(7)
    sparse = OperadElement(7, {p: Fraction(rng.choice([-2, -1, 1, 3])) for p in rng.sample(perms, 5)})
    commutator = poly_to_operad(parse_poly("x1*x2*x3*x4*x5*x6*x7 - x1*x2*x3*x5*x4*x6*x7"))
    real_actions = ideals_module._action_tables
    real_contractions = ideals_module.unit_contraction_table
    for theta, mode in product([sparse, commutator], [UNITAL, NONUNITAL]):
        gens = GeneratorSet([theta], mode)
        for n in range(7):

            def actions(k):
                assert k <= n, f"an S_{k}-closure at arity {n}"
                return real_actions(k)

            def contractions(sizes):
                assert len(sizes) <= n, f"an S_{len(sizes)} contraction table at arity {n}"
                return real_contractions(sizes)

            with mock.patch.object(
                ideals_module, "_action_tables", side_effect=actions
            ), mock.patch.object(
                ideals_module, "unit_contraction_table", side_effect=contractions
            ):
                slice_ = ideal_slice_spanning(gens, n)
            if mode == NONUNITAL:
                assert slice_ == IdealSlice.zero(n)
            elif n <= 4:
                assert slice_.basis == reference_closure(spanning_core_vectors_reference(gens, n), n)
        if mode == UNITAL and theta is commutator:
            assert slice_.dim > 0


@st.composite
def unital_sets_reaching_down(draw):
    # Generators of arities n + 1 .. n + 3, which reach n by contraction
    # only, mixed with generators of arity <= n.  Each is a sum of right
    # translates of one factor, so that its contractions to n, and those
    # to n - 1 and below, span proper submodules that differ: 1 - tau, tau
    # an adjacent swap, lies in the commutator ideal, whose arity-2 part
    # no contraction to arity 1 reaches; the sum of S_k (k <= 4) contracts
    # to sums of S_n, which span a line, and to sums of S_{n-1}, whose
    # paddings leave it; 1 +- sigma, sigma an involution, lies between.
    n = draw(st.integers(0, 4))
    coefficients = st.integers(-2, 2).filter(bool)
    above = draw(st.lists(st.integers(n + 1, n + 3), min_size=1, max_size=2))
    elements = []
    for arity in above + draw(st.lists(st.integers(0, n), max_size=1)):
        perms = all_permutations(arity)
        factor = OperadElement(arity, {perms[0]: Fraction(1)})
        kind = draw(st.sampled_from(["swap", "sum", "involution"])) if arity >= 2 else None
        if kind == "swap":
            i = draw(st.integers(0, arity - 2))
            tau = list(range(1, arity + 1))
            tau[i : i + 2] = [i + 2, i + 1]
            factor = factor - OperadElement(arity, {Permutation(tau): Fraction(1)})
        elif kind == "sum" and arity <= 4:
            factor = OperadElement(arity, {p: Fraction(1) for p in perms})
        elif kind is not None:
            involutions = [p for p in perms[1:] if multiply(p, p) == perms[0]]
            sign = Fraction(draw(st.sampled_from([1, -1])))
            factor = factor + OperadElement(arity, {draw(st.sampled_from(involutions)): sign})
        element = OperadElement.zero(arity)
        for p in draw(st.lists(st.sampled_from(perms), min_size=1, max_size=2, unique=True)):
            element = element + draw(coefficients) * act(factor, p)
        if not element.is_zero():
            elements.append(element)
    assume(any(e.arity > n for e in elements))
    return GeneratorSet(elements), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=unital_sets_reaching_down())
def test_contracting_above_the_arity_matches_reference(case):
    # A generator of arity k >= n gives its contractions to arity n as they
    # are, and those to n - 1 join the arity-(n-1) generators; the
    # reference composes every generator with every ordered composition.
    gens, n = case
    expected = reference_closure(spanning_core_vectors_reference(gens, n), n)
    assert ideal_slice_spanning(gens, n).basis == expected


def test_contractions_are_refused_before_they_are_formed():
    # unit(60) has comb(60, 10) + comb(60, 9) = 90,177,170,226 one-term
    # contractions to arities 10 and 9: refused at once; unit(20) has
    # comb(20, 5) + comb(20, 4) = 20,349 to arities 5 and 4, which fit
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as refused:
        ideal_slice_spanning(GeneratorSet([OperadElement.unit(60)]), 10)
    assert time.perf_counter() - start < 1.0
    assert refused.value.needed == math.comb(60, 10) + math.comb(60, 9)
    assert str(refused.value) == (
        "contracting arity 60 to arity 10 forms 90177170226 terms, more than the budget of 10000000"
    )
    assert ideal_slice_spanning(GeneratorSet([OperadElement.unit(20)]), 5).dim == 120


def test_zero_slice_forms_the_factorial_once():
    with mock.patch.object(ideals_module.math, "factorial", wraps=math.factorial) as factorial:
        zero = IdealSlice.zero(300)
    assert factorial.call_count == 1
    assert (zero.arity, zero.dim, zero.basis.dimension) == (300, 0, math.factorial(300))
    assert zero == IdealSlice(300, RowBasis(math.factorial(300)))


@st.composite
def sparse_vector_sets(draw):
    n = draw(st.integers(0, 5))
    width = math.factorial(n)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    entries = st.dictionaries(st.integers(0, width - 1), coefficients, min_size=1, max_size=4)
    return n, [SparseVector(width, e) for e in draw(st.lists(entries, max_size=4))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=sparse_vector_sets())
def test_closure_of_sparse_vectors_matches_reference(case):
    n, vectors = case
    basis = RowBasis(math.factorial(n))
    seeds = [vec.entries for vec in vectors if basis.insert(vec)]
    ideals_module._saturate_under_action(basis, seeds)
    assert basis == reference_closure(vectors, n)


def test_closure_edge_cases():
    for n in range(3):
        basis = RowBasis(math.factorial(n))
        ideals_module._saturate_under_action(basis, [])
        assert basis.rank == 0
    # 2(1,2) + (2,1) generates all of kS_n: the closure reaches full rank.
    full = OperadElement(2, {identity(2): Fraction(2), Permutation((2, 1)): Fraction(1)})
    for n in range(2, 6):
        slice_ = ideal_slice_spanning(GeneratorSet([full]), n)
        assert slice_.dim == math.factorial(n)
    for n in range(6):
        width = math.factorial(n)
        basis = RowBasis(width)
        seed = {0: Fraction(3)}
        basis.insert(SparseVector(width, seed))
        ideals_module._saturate_under_action(basis, [seed])
        assert basis.rank == width
        assert basis == reference_closure([SparseVector(width, seed)], n)


def test_identities_slice_matrix_algebras():
    m1 = matrix_algebra(1)
    for n in range(1, 5):
        assert identities_slice(m1, n).dim == math.factorial(n) - 1
    m2 = matrix_algebra(2)
    assert identities_slice(m2, 3).dim == 0
    st4 = standard_polynomial(4)
    slice4 = identities_slice(m2, 4)
    assert slice4.contains(st4)
    assert slice4.dim == 1  # nothing else in degree 4


def test_identities_slice_grassmann_contains_triple_commutator():
    e4 = grassmann_algebra(4)
    slice3 = identities_slice(e4, 3)
    assert slice3.contains(poly_to_operad(TRIPLE_COMMUTATOR))


def test_identities_slice_matches_naive_enumeration():
    # the unordered-tuple + action-closure computation agrees with the
    # plain full d^n sweep on assorted small algebras
    dual = algebra_from_spec(
        {
            "type": "custom",
            "basis": ["1", "t"],
            "unit": [1, 0],
            "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        }
    )
    cyclic4 = algebra_from_spec(
        {
            "type": "custom",
            "basis": [f"g{i}" for i in range(4)],
            "unit": [1, 0, 0, 0],
            "table": [
                [[1 if k == (i + j) % 4 else 0 for k in range(4)] for j in range(4)]
                for i in range(4)
            ],
        }
    )
    # the last cases have table entries with several coordinates
    dual_shifted = algebra_from_spec(DUAL_SHIFTED)
    m2_split = algebra_from_spec(M2_UNIT_SPLIT)
    cases = [
        (matrix_algebra(2), 2),
        (matrix_algebra(2), 3),
        (grassmann_algebra(2), 3),
        (dual, 3),
        (dual_shifted, 3),
        (dual_shifted, 4),
        (tensor_product(matrix_algebra(2), dual_shifted), 3),
        (m2_split, 3),
        (m2_split, 4),
        (cyclic4, 2),
        (algebra_from_spec({"type": "direct_sum", "parts": [{"type": "matrix", "k": 1}, {"type": "grassmann", "generators": 2}]}), 2),
    ]
    for algebra, n in cases:
        mine = identities_slice(algebra, n)
        rows = naive_identity_rows(algebra, n)
        reference = dense_kernel(rows, math.factorial(n))
        assert mine.dim == len(reference)
        for ref in reference:
            assert mine.basis.contains(SparseVector.from_dense(ref))


# (name, algebra, arities): identity slices checked against the path that
# evaluates every permutation on every tuple.
REFERENCE_CASES = [
    ("M_2", lambda: matrix_algebra(2), range(1, 6)),
    ("E_3", lambda: grassmann_algebra(3), range(1, 5)),
    ("E_4", lambda: grassmann_algebra(4), range(1, 6)),
    ("M_2+E_2", lambda: direct_sum([matrix_algebra(2), grassmann_algebra(2)]), range(1, 5)),
    ("dual shifted", lambda: algebra_from_spec(DUAL_SHIFTED), range(1, 6)),
    ("M_2 unit split", lambda: algebra_from_spec(M2_UNIT_SPLIT), range(1, 6)),
    ("E_6", lambda: grassmann_algebra(6), (5,)),
]


@pytest.mark.parametrize("build", [c[1] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES])
def test_table_columns_are_built_once_from_the_table(build):
    # the columns hold the table's own dicts, and every integral value is
    # stored as an int
    algebra = build()
    for i, row in enumerate(algebra.table):
        for j, entry in enumerate(row):
            assert algebra.columns[j][i] is entry
            for value in entry.values():
                assert value.__class__ is (int if value.denominator == 1 else Fraction)


def evaluation_rows_and_slice(compute, algebra, n):
    """The evaluation row space before the action closes it, as canonical
    rows, and the slice basis that `compute` returns."""
    before = []

    def recording(closure):
        def wrapper(basis, *rest):
            before.append(basis.row_dicts())
            closure(basis, *rest)

        return wrapper

    with mock.patch.object(
        ideals_module, "_saturate_under_action",
        recording(ideals_module._saturate_under_action),
    ), mock.patch.object(
        oracles, "saturate_under_action_reference",
        recording(oracles.saturate_under_action_reference),
    ):
        result = compute(algebra, n)
    return before, getattr(result, "basis", result)


def assert_matches_reference(algebra, n):
    # The rows reach the basis before the action closes it, which would
    # hide a row left out; so the row spaces are compared first.
    fast = evaluation_rows_and_slice(identities_slice, algebra, n)
    assert fast == evaluation_rows_and_slice(identities_slice_reference, algebra, n)


@pytest.mark.parametrize(
    "build, arities", [c[1:] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
)
def test_identities_slice_matches_reference(build, arities):
    algebra = build()
    for n in arities:
        assert_matches_reference(algebra, n)


@pytest.mark.parametrize(
    "build, arities", [c[1:] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
)
def test_codimension_is_rank_of_closed_rows(build, arities):
    # codimension reads the rank of the closed row space; the slice is its
    # kernel, so the two must add up to n!.
    algebra = build()
    for n in arities:
        assert codimension(algebra, n) == math.factorial(n) - identities_slice(algebra, n).dim


def rebased(algebra, matrix):
    """The same algebra in the basis b'_i = sum_j matrix[i][j] b_j."""
    dim = algebra.dim
    identity_rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    reduced, _ = dense_rref([list(row) + unit for row, unit in zip(matrix, identity_rows)])
    inverse = [row[dim:] for row in reduced]

    def new_coords(old):
        return SparseVector(
            dim, enumerate(sum(old[k] * inverse[k][l] for k in range(dim)) for l in range(dim))
        )

    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            old = [Fraction(0)] * dim
            for a, b in product(range(dim), repeat=2):
                scale = matrix[i][a] * matrix[j][b]
                for k, c in algebra.table[a][b].items():
                    old[k] += scale * c
            row.append(new_coords(old))
        table.append(row)
    labels = [f"b{i}" for i in range(dim)]
    return StructureAlgebra(labels, table, new_coords(algebra.unit.to_dense()))


def reindexed(algebra, unit_at):
    """The same algebra with its basis reordered so that the unit, basis
    vector 0, sits at index `unit_at`."""
    order = list(range(1, algebra.dim))
    order.insert(unit_at, 0)
    matrix = [[Fraction(int(j == k)) for j in range(algebra.dim)] for k in order]
    return rebased(algebra, matrix)


@pytest.mark.parametrize(
    "build, unit_at",
    [
        (lambda: grassmann_algebra(3), 3),
        (lambda: grassmann_algebra(3), 7),
        (lambda: algebra_from_spec(DUAL_SHIFTED), 1),
    ],
    ids=["E_3 unit in the middle", "E_3 unit last", "dual shifted unit last"],
)
def test_identities_slice_matches_reference_with_unit_anywhere(build, unit_at):
    # The block of unit indices is stripped wherever it sits in a tuple,
    # not only at its start (Grassmann's unit is basis vector 0).
    algebra = reindexed(build(), unit_at)
    assert algebra.unit.entries == {unit_at: 1}
    for n in range(1, 6):
        assert_matches_reference(algebra, n)


@st.composite
def rebased_algebras(draw):
    # A random triangular change of basis with invertible diagonal turns
    # monomial tables into ones with several coordinates and fractions.
    algebra = draw(st.sampled_from([
        matrix_algebra(2),
        grassmann_algebra(2),
        algebra_from_spec(DUAL_SHIFTED),
        direct_sum([matrix_algebra(1), grassmann_algebra(1)]),
    ]))
    dim = algebra.dim
    entries = st.sampled_from([Fraction(c) for c in (-2, -1, 0, 0, 1, 2)])
    diagonal = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    matrix = [
        [draw(entries) if j < i else draw(diagonal) if j == i else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]
    return rebased(algebra, matrix)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(algebra=rebased_algebras(), n=st.integers(1, 5))
def test_identities_slice_matches_reference_after_basis_change(algebra, n):
    assert_matches_reference(algebra, n)


def test_identities_slice_consistency_with_is_identity():
    e2 = grassmann_algebra(2)
    slice3 = identities_slice(e2, 3)
    rng = random.Random(12)
    for theta in slice3.elements():
        assert is_identity(operad_to_poly(theta), e2)
    for _ in range(10):
        theta = random_element(rng, 3)
        assert slice3.contains(theta) == is_identity(operad_to_poly(theta), e2)


def test_identities_slice_sn_stability():
    m2 = matrix_algebra(2)
    slice4 = identities_slice(m2, 4)
    for theta in slice4.elements():
        for tau in all_permutations(4):
            assert slice4.contains(act(theta, tau))


def test_spanning_slice_sn_stability():
    rng = random.Random(21)
    gens = GeneratorSet([random_element(rng, 2)])
    slice3 = ideal_slice_spanning(gens, 3)
    for theta in slice3.elements():
        for tau in all_permutations(3):
            assert slice3.contains(act(theta, tau))


def test_budget_guard_refuses():
    e6 = grassmann_algebra(6)
    with pytest.raises(BudgetExceeded):
        identities_slice(e6, 5, budget=100)
    with pytest.raises(ValueError):
        identities_slice(e6, 0)


def test_grassmann_budget_charges_exact_tuple_count():
    # E_6 at n = 5 visits 876 tuples of disjoint support; the default
    # budget covers that although comb(64 + 4, 5) does not fit it.
    e6 = grassmann_algebra(6)
    assert math.comb(64 + 4, 5) > ideals_module.DEFAULT_BUDGET
    assert codimension(e6, 5) == 16
    with pytest.raises(BudgetExceeded) as refused:
        identities_slice(e6, 5, budget=875)
    assert refused.value.needed == 876


def test_grassmann_evaluation_walks_unit_free_cores():
    # Words walked by the evaluation kernel for E_6, summed over its calls:
    # one per arrangement of each tuple's unit-free core.  Walking every
    # arrangement of the whole tuple would take 46,656 at n = 5 and
    # 117,649 at n = 6.
    walked = 0
    evaluator = ideals_module._word_evaluator

    def counting(columns, words):
        products = evaluator(columns, words)

        def walk(tup):
            nonlocal walked
            walked += len(words)
            return products(tup)

        return walk

    e6 = grassmann_algebra(6)
    with mock.patch.object(ideals_module, "_word_evaluator", counting):
        for n, words, codim in ((5, 8_646, 16), (6, 9_366, 32)):
            walked = 0
            assert codimension(e6, n) == codim
            assert walked == words


def test_codimension_examples():
    m1 = matrix_algebra(1)
    for n in range(1, 5):
        assert codimension(m1, n) == 1
    m2 = matrix_algebra(2)
    # oracle: codimension = rank of the full evaluation row matrix
    rows = naive_identity_rows(m2, 2)
    assert dense_rank(rows) == 2
    assert codimension(m2, 2) == 2


def test_min_identity_degree():
    assert min_identity_degree(matrix_algebra(1), 4) == 2
    assert min_identity_degree(matrix_algebra(2), 5) == 4
    assert min_identity_degree(grassmann_algebra(4), 4) == 3
    assert min_identity_degree(matrix_algebra(2), 3) is None


def test_membership_examples():
    rng = random.Random(13)
    theta = random_element(rng, 3)
    assert membership(theta, GeneratorSet([theta]))
    assert membership(poly_to_operad(COMMUTATOR), GeneratorSet([OperadElement.unit(1)]))
    # the alternating sum of S_4 is a consequence of commutativity
    assert membership(standard_polynomial(4), commutator_gens())


def test_poly_generated_slice_examples():
    assert poly_generated_slice([COMMUTATOR], 2).dim == 1
    assert poly_generated_slice([], 3).dim == 0
    assert poly_generated_slice([COMMUTATOR], 3).dim == 5
    with pytest.raises(ValueError):
        poly_generated_slice([parse_poly("x1*x1")], 2)


def test_slice_polynomials_round_trip():
    assert slice_polynomials(IdealSlice.zero(3)) == []
    slice2 = ideal_slice_spanning(commutator_gens(), 2)
    (poly,) = slice_polynomials(slice2)
    # equal to the commutator up to a scalar
    ratio = None
    for word, coeff in poly.terms.items():
        ratio = coeff / COMMUTATOR.terms[word] if ratio is None else ratio
        assert coeff == ratio * COMMUTATOR.terms[word]
    # translating the polynomials back spans the slice
    slice3 = ideal_slice_spanning(commutator_gens(), 3)
    rebuilt = RowBasis(6)
    for f in slice_polynomials(slice3):
        rebuilt.insert(to_vector(poly_to_operad(f)))
    assert rebuilt == slice3.basis


def test_verify_ideal_closure_on_identity_ideals():
    m2 = matrix_algebra(2)
    slices = {n: identities_slice(m2, n) for n in range(1, 4)}
    report = verify_ideal_closure(slices, 3)
    assert report.ok, report.failure
    e2 = grassmann_algebra(2)
    slices = {n: identities_slice(e2, n) for n in range(1, 4)}
    report = verify_ideal_closure(slices, 3)
    assert report.ok, report.failure


def test_verify_ideal_closure_on_spanning_slices():
    gens = commutator_gens()
    slices = full_slice_map(gens, 4)
    report = verify_ideal_closure(slices, 4)
    assert report.ok, report.failure


def test_verify_ideal_closure_negative_control():
    # a random line is not stable under the action
    slices = {
        1: IdealSlice.zero(1),
        2: IdealSlice(2, _span([OperadElement.unit(2)])),
        3: IdealSlice.zero(3),
    }
    report = verify_ideal_closure(slices, 3)
    assert not report.ok
    assert "translate" in report.failure


def _span(elements):
    dim = math.factorial(elements[0].arity)
    basis = RowBasis(dim)
    for e in elements:
        basis.insert(to_vector(e))
    return basis


def _planted(arity, *texts):
    return IdealSlice(arity, _span([poly_to_operad(parse_poly(t)) for t in texts]))


# (slices, max_arity, mode) -> (ok, checked, failure), as recorded before the
# checks were folded into one loop over the closure moves.
CLOSURE_PINS = [
    pytest.param(
        lambda: {n: identities_slice(matrix_algebra(2), n) for n in range(1, 4)}, 3, UNITAL,
        (True, 0, None), id="M_2-identities",
    ),
    pytest.param(
        lambda: {n: identities_slice(grassmann_algebra(2), n) for n in range(1, 4)}, 3, UNITAL,
        (True, 18, None), id="E_2-identities",
    ),
    pytest.param(
        lambda: full_slice_map(commutator_gens(UNITAL), 4), 4, UNITAL,
        (True, 722, None), id="commutator-unital",
    ),
    pytest.param(
        lambda: full_slice_map(commutator_gens(NONUNITAL), 4), 4, NONUNITAL,
        (True, 613, None), id="commutator-nonunital",
    ),
    # arity 5: rows with 120 right translates each
    pytest.param(
        lambda: full_slice_map(GeneratorSet([poly_to_operad(TRIPLE_COMMUTATOR)]), 5), 5, UNITAL,
        (True, 13572, None), id="triple-commutator-unital",
    ),
    pytest.param(
        lambda: {n: identities_slice(matrix_algebra(2), n) for n in range(1, 6)}, 5, UNITAL,
        (True, 3659, None), id="M_2-identities-arity-5",
    ),
    pytest.param(
        lambda: {1: IdealSlice.zero(1), 2: _planted(2, "x1*x2")}, 2, NONUNITAL,
        (False, 2, "arity 2: right translate by (2,1) escapes the slice"), id="translate",
    ),
    pytest.param(
        lambda: {1: _planted(1, "x1"), 2: IdealSlice.zero(2)}, 2, NONUNITAL,
        (False, 1, "arity 1: padding slot 1 escapes arity 2"), id="padding",
    ),
    # the inner paddings of [x1,x2] are in the arity-3 slice, [x1,x2]*x3 is not
    pytest.param(
        lambda: {
            1: IdealSlice.zero(1),
            2: _planted(2, "x1*x2 - x2*x1"),
            3: _planted(3, "x1*x2*x3 - x3*x1*x2", "x1*x2*x3 - x2*x3*x1"),
        },
        3, NONUNITAL,
        (False, 5, "arity 2: outer padding slot 1 escapes arity 3"), id="outer-padding",
    ),
    pytest.param(
        lambda: {1: _planted(1, "x1")}, 1, UNITAL,
        (False, 1, "arity 1: contraction at slot 1 escapes arity 0"), id="contraction",
    ),
]


@pytest.mark.parametrize("slices, max_arity, mode, expected", CLOSURE_PINS)
def test_verify_ideal_closure_pinned(slices, max_arity, mode, expected):
    report = verify_ideal_closure(slices(), max_arity, mode)
    assert (report.ok, report.checked, report.failure) == expected


def test_verify_ideal_closure_missing_slice():
    with pytest.raises(ValueError):
        verify_ideal_closure({1: IdealSlice.zero(1)}, 2)


def test_verify_ideal_closure_refuses_an_unknown_mode():
    # The nonunital slices of 1*(1,2) are not closed under contraction.  A
    # mistyped mode used to count as nonunital, and the check passed.
    slices = full_slice_map(GeneratorSet([OperadElement.unit(2)], NONUNITAL), 3)
    report = verify_ideal_closure(slices, 3, UNITAL)
    assert report.failure == "arity 2: contraction at slot 1 escapes arity 1"
    assert verify_ideal_closure(slices, 3, NONUNITAL).ok
    for mode in ("Unital", "bogus"):
        with pytest.raises(ValueError, match="mode must be"):
            verify_ideal_closure(slices, 3, mode)


def test_closure_builds_nothing_for_a_window_no_generator_reaches():
    # A nonunital generator of arity 4003 reaches no arity up to 3000: the
    # zero slice comes back without sizing the window 1! + ... + 3000!.
    gens = GeneratorSet([OperadElement.unit(4003)], NONUNITAL)
    with mock.patch.object(ideals_module.math, "factorial", wraps=math.factorial) as factorial:
        slice_ = ideal_slice_closure(gens, 3000)
    assert slice_.arity == 3000 and slice_.dim == 0
    # only IdealSlice.zero(3000)'s own, its width
    assert factorial.call_count == 1


def _cancelling_row(rng, m):
    """An integer row c*(s - s') where s' moves one letter of s elsewhere,
    so contracting that letter cancels both terms."""
    seq = list(range(1, m + 1))
    rng.shuffle(seq)
    letter = rng.randint(1, m)
    rest = [v for v in seq if v != letter]
    place = rng.choice([p for p in range(m) if p != seq.index(letter)])
    moved = rest[:place] + [letter] + rest[place:]
    c = rng.choice([-2, -1, 1, 3])
    return {tuple(seq): c, tuple(moved): -c}


def test_closure_moves_match_the_element_reference():
    # the sequence rewrites against act/partial_compose (so block_compose),
    # image for image: target arity, move name, slot text and image
    rng = random.Random(1909)
    cancelled = 0
    for _ in range(150):
        m = rng.randint(0, 5)
        if m >= 2 and rng.random() < 0.4:
            row = _cancelling_row(rng, m)
        else:
            seqs = [p.seq for p in all_permutations(m)]
            picked = rng.sample(seqs, rng.randint(1, min(len(seqs), 5)))
            row = {seq: rng.choice([-3, -1, 1, 2]) for seq in picked}
        max_arity = m + rng.randint(0, 1)
        mode = rng.choice([UNITAL, NONUNITAL])
        theta = OperadElement(m, {Permutation(seq): c for seq, c in row.items()})
        translations = list(permutations(range(1, m + 1))) if m >= 2 else ()
        moves = ideals_module._closure_moves(
            row, m, translations, m + 1 <= max_arity, mode == UNITAL and m >= 1
        )
        expected = oracles.closure_moves_reference(theta, max_arity, mode)
        for got, want in zip_longest(moves, expected):
            assert got is not None and want is not None
            image, target, move, slot = got
            assert (target, move, str(slot)) == (want[1], want[2], str(want[3]))
            assert OperadElement(target, {Permutation(seq): c for seq, c in image.items()}) == want[0]
            cancelled += not image
    assert cancelled >= 10


def test_roundtrip_check_small():
    report = roundtrip_check(commutator_gens(), 3)
    assert report.ok
    assert set(report.per_arity) == {1, 2, 3}
    report = roundtrip_check(GeneratorSet([OperadElement.unit(1)]), 3)
    assert report.ok


def test_roundtrip_check_nonunital_mode():
    report = roundtrip_check(commutator_gens(NONUNITAL), 4)
    assert report.ok


def test_grassmann4_identities_match_generated_ideal():
    # smaller sibling of the acceptance comparison: the ideal generated by
    # the triple commutator already captures every degree-4 identity of the
    # 4-generator exterior algebra
    e4 = grassmann_algebra(4)
    for n in (3, 4):
        assert poly_generated_slice([TRIPLE_COMMUTATOR], n) == identities_slice(e4, n)


def test_canonical_slice_file_bytes(tmp_path):
    # deterministic canonical form: the arity-3 commutator slice is the
    # augmentation kernel, whose RREF rows are e_i - e_last
    path = tmp_path / "slice.opideal"
    save_slice_file(path, ideal_slice_spanning(commutator_gens(), 3), "unital")
    assert path.read_text() == (
        "OPIDEAL v1\n"
        "arity=3 dim=5 order=lex mode=unital\n"
        "1 0 0 0 0 -1\n"
        "0 1 0 0 0 -1\n"
        "0 0 1 0 0 -1\n"
        "0 0 0 1 0 -1\n"
        "0 0 0 0 1 -1\n"
    )


def test_canonical_slice_file_bytes_arity_six(tmp_path):
    # the arity-6 slice of [[x1,x2],x3] (688 rows of 720 entries, with
    # non-unit pivots in its primitive integer form) pins the cache bytes
    path = tmp_path / "slice.opideal"
    gens = GeneratorSet([poly_to_operad(TRIPLE_COMMUTATOR)])
    save_slice_file(path, ideal_slice_spanning(gens, 6), "unital")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "07c2ae57d9256fafbce95141125114825db2f23faf3feb310fd955a976ffd095"
    )


def test_slices_equal_examples():
    gens = commutator_gens()
    # adding a consequence changes nothing
    st4 = standard_polynomial(4)
    augmented = GeneratorSet([poly_to_operad(COMMUTATOR), st4])
    assert slices_equal(gens, augmented, 4)
    # the alternating generator does not imply commutativity
    assert not slices_equal(gens, GeneratorSet([st4]), 4)
    # generators differing by the action generate the same ideal
    swapped = GeneratorSet([act(poly_to_operad(COMMUTATOR), Permutation((2, 1)))])
    assert slices_equal(gens, swapped, 3)
    with pytest.raises(ValueError):
        slices_equal(gens, commutator_gens(NONUNITAL), 3)


def test_nonunital_mode():
    # a bare binary identity generator reaches arity 1 only via contraction
    gens_u = GeneratorSet([OperadElement.unit(2)], UNITAL)
    gens_n = GeneratorSet([OperadElement.unit(2)], NONUNITAL)
    assert ideal_slice_spanning(gens_u, 1).dim == 1
    assert ideal_slice_spanning(gens_n, 1).dim == 0
    assert ideal_slice_closure(gens_u, 1).dim == 1
    assert ideal_slice_closure(gens_n, 1).dim == 0
    # below the generator arity the nonunital slices are empty
    nc = commutator_gens(NONUNITAL)
    for n in (0, 1):
        assert ideal_slice_spanning(nc, n).dim == 0
    # unital slices always contain nonunital slices
    uc = commutator_gens(UNITAL)
    for n in range(1, 5):
        unital_slice = ideal_slice_spanning(uc, n)
        for theta in ideal_slice_spanning(nc, n).elements():
            assert unital_slice.contains(theta)


def test_monotonicity_of_generation():
    rng = random.Random(14)
    small = GeneratorSet([random_element(rng, 2)])
    big = GeneratorSet(list(small.elements) + [random_element(rng, 3)])
    for n in range(1, 5):
        inner = ideal_slice_spanning(small, n)
        outer = ideal_slice_spanning(big, n)
        for theta in inner.elements():
            assert outer.contains(theta)


def test_cofactor_factorization_matches_spanning_element():
    # the core identity behind the spanning family: translating the
    # monomial product g * f(u_1,...,u_l) * h back to an element gives
    # exactly the padded composition acted on by the permutation whose
    # sequence spells the concatenated cofactor letters
    from oplab import NcPoly
    from oracles import poly_substitute

    rng = random.Random(5)

    def compositions(total, parts):
        if parts == 0:
            return [()] if total == 0 else []
        out = []
        for head in range(total + 1):
            out.extend((head,) + tail for tail in compositions(total - head, parts - 1))
        return out

    checked = 0
    for _ in range(120):
        slots = rng.randint(1, 3)
        theta = random_element(rng, slots)
        n = rng.randint(0, 5)
        combos = [
            (r, s, t)
            for r in range(n + 1)
            for t in range(n - r + 1)
            for s in compositions(n - r - t, slots)
        ]
        if not combos:
            continue
        r, s, t = rng.choice(combos)
        sigma = rng.choice(all_permutations(n)) if n else identity(0)
        sizes = [r] + list(s) + [t]
        chunks, at = [], 0
        for size in sizes:
            chunks.append(sigma.seq[at : at + size])
            at += size
        assignment = {i + 1: NcPoly.monomial(chunks[1 + i]) for i in range(slots)}
        product = (
            NcPoly.monomial(chunks[0])
            .mul(poly_substitute(operad_to_poly(theta), assignment))
            .mul(NcPoly.monomial(chunks[-1]))
        )
        middle = full_compose(theta, [OperadElement.unit(k) for k in s])
        element = full_compose(
            OperadElement.unit(3),
            [OperadElement.unit(r), middle, OperadElement.unit(t)],
        )
        if n:
            element = act(element, sigma)
        if product.is_zero():
            assert element.is_zero()
        else:
            assert poly_to_operad(product) == element
        checked += 1
    assert checked > 80


def test_slice_cache_round_trip(tmp_path):
    gens = commutator_gens()
    stats: dict = {}
    fresh = ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats)
    assert stats["cache_hit"] is False
    path = slice_cache_path(tmp_path, gens, 3)
    assert path.exists()
    text = path.read_text()
    assert text.splitlines()[0] == "OPIDEAL v1"
    assert text.splitlines()[1] == "arity=3 dim=5 order=lex mode=unital"
    stats = {}
    warm = ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats)
    assert stats["cache_hit"] is True
    assert warm == fresh
    loaded, mode = load_slice_file(path)
    assert mode == "unital"
    assert loaded == fresh


@pytest.mark.parametrize("garbage", [b"garbage\n", b"OPIDEAL v1\n\xff\xfe\n"])
def test_corrupt_cache_entry_is_recomputed(tmp_path, garbage):
    # an entry that does not load is a miss: recomputed and overwritten
    gens = commutator_gens()
    path = slice_cache_path(tmp_path, gens, 3)
    path.write_bytes(garbage)
    stats: dict = {}
    slice_ = ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats)
    assert stats["cache_hit"] is False
    assert slice_.dim == 5
    canonical = tmp_path / "canonical.opideal"
    save_slice_file(canonical, ideal_slice_spanning(gens, 3), gens.mode)
    assert path.read_bytes() == canonical.read_bytes()
    stats = {}
    assert ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats) == slice_
    assert stats["cache_hit"] is True


def test_loader_refuses_rows_not_in_canonical_rref(tmp_path):
    # rows that span the right space but are not canonical RREF are not
    # adopted: the loader refuses them, and the cache treats the entry as
    # a miss and rewrites it with the canonical bytes
    gens = commutator_gens()
    canonical = tmp_path / "canonical.opideal"
    save_slice_file(canonical, ideal_slice_spanning(gens, 3), gens.mode)
    good = canonical.read_text()
    head, rows = good.splitlines()[:2], good.splitlines()[2:]
    assert rows[:2] == ["1 0 0 0 0 -1", "0 1 0 0 0 -1"]
    variants = {
        "swapped": [rows[1], rows[0]] + rows[2:],
        "not reduced": ["1 1 0 0 0 -2"] + rows[1:],
        "pivot entry 2": ["2 0 0 0 0 -2"] + rows[1:],
    }
    entry = slice_cache_path(tmp_path / "cache", gens, 3)
    entry.parent.mkdir()
    for name, variant in variants.items():
        entry.write_text("\n".join(head + variant) + "\n")
        with pytest.raises(ValueError):
            load_slice_file(entry, arity=3)
        stats: dict = {}
        assert ideal_slice_spanning(gens, 3, cache_dir=entry.parent, stats=stats).dim == 5
        assert stats["cache_hit"] is False, name
        assert entry.read_bytes() == canonical.read_bytes(), name
        stats = {}
        ideal_slice_spanning(gens, 3, cache_dir=entry.parent, stats=stats)
        assert stats["cache_hit"] is True, name


def _left_multiply(x, e):
    terms: dict = {}
    for p, a in x.terms.items():
        for q, b in e.terms.items():
            r = multiply(p, q)
            terms[r] = terms.get(r, 0) + a * b
    return OperadElement(e.arity, {r: c for r, c in terms.items() if c})


@st.composite
def fractional_slices(draw):
    # Generic generators span all of kS_n, whose RREF rows are unit
    # vectors.  x*(1 +- s)(1 +- t) generates a right ideal inside one
    # isotypic block, which x moves around; its RREF rows, and those of
    # the bare span of a few generators, hold entries p/q.
    n = draw(st.integers(2, 4))
    perms = all_permutations(n)
    involutions = [p for p in perms[1:] if multiply(p, p) == perms[0]]
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        e = OperadElement(n, {perms[0]: Fraction(1)})
        for _ in range(draw(st.integers(0, 2))):
            sigma = draw(st.sampled_from(involutions))
            sign = Fraction(draw(st.sampled_from([1, -1])))
            e = _left_multiply(e, OperadElement(n, {perms[0]: Fraction(1), sigma: sign}))
        picked = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=4, unique=True))
        element = _left_multiply(OperadElement(n, {p: draw(coefficients) for p in picked}), e)
        if not element.is_zero():
            elements.append(element)
    assume(elements)
    span = RowBasis(math.factorial(n))
    for element in elements:
        span.insert(to_vector(element))
    gens = GeneratorSet(elements, draw(st.sampled_from([UNITAL, NONUNITAL])))
    return gens, [ideal_slice_spanning(gens, n), IdealSlice(n, span)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=fractional_slices())
def test_slice_writer_matches_fraction_formatting(tmp_path_factory, case):
    gens, slices = case
    path = tmp_path_factory.mktemp("writer") / "slice.opideal"
    for slice_ in slices:
        lines = [
            ideals_module.CACHE_MAGIC,
            f"arity={slice_.arity} dim={slice_.dim} order=lex mode={gens.mode}",
        ]
        for row in slice_.basis.row_dicts():
            pivot = row[min(row)]
            tokens = ["0"] * slice_.basis.dimension
            for c, x in row.items():
                tokens[c] = format_rational(Fraction(x, pivot))
            lines.append(" ".join(tokens))
        expected = ("\n".join(lines) + "\n").encode()
        save_slice_file(path, slice_, gens.mode)
        assert path.read_bytes() == expected
        assert load_slice_file(path) == (slice_, gens.mode)
        save_slice_file(path, load_slice_file(path)[0], gens.mode)
        assert path.read_bytes() == expected


def test_slice_writer_cases_hold_fractions():
    # the writer test above reaches the "p/q" form with negative numerators
    # and with a gcd of entry and pivot above 1, not only unit RREF rows
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=fractional_slices())
    def collect(case):
        for slice_ in case[1]:
            for row in slice_.basis.row_dicts():
                pivot = row[min(row)]
                for x in row.values():
                    if x % pivot:
                        seen.add("negative" if x < 0 else "positive")
                        if math.gcd(x, pivot) > 1:
                            seen.add("reduced")

    collect()
    assert seen == {"negative", "positive", "reduced"}


def test_slice_cache_hash_distinguishes_generators():
    g1 = commutator_gens()
    g2 = GeneratorSet([standard_polynomial(4)])
    assert generator_set_hash(g1) != generator_set_hash(g2)
    # the hash ignores listing order
    thc = poly_to_operad(COMMUTATOR)
    st4 = standard_polynomial(4)
    assert generator_set_hash(GeneratorSet([thc, st4])) == generator_set_hash(
        GeneratorSet([st4, thc])
    )


def test_cache_name_carries_the_full_digest(tmp_path):
    gens = commutator_gens()
    digest = hashlib.sha256(gens.canonical_text().encode("utf-8")).hexdigest()
    assert generator_set_hash(gens) == digest
    assert slice_cache_path(tmp_path, gens, 3).name == f"{digest}-unital-n3.opideal"
    # An entry under the old 16-digit name is never read, even when it
    # holds a loadable slice of the right arity.
    stale = tmp_path / f"{digest[:16]}-unital-n3.opideal"
    save_slice_file(stale, IdealSlice.zero(3), gens.mode)
    stats: dict = {}
    assert ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats).dim == 5
    assert stats["cache_hit"] is False
    assert load_slice_file(stale)[0].dim == 0


def test_save_load_rejects_corruption(tmp_path):
    gens = commutator_gens()
    slice_ = ideal_slice_spanning(gens, 2)
    path = tmp_path / "slice.opideal"
    save_slice_file(path, slice_, "unital")
    good = path.read_text()
    path.write_text(good.replace("dim=1", "dim=2"))
    with pytest.raises(ValueError):
        load_slice_file(path)
    path.write_text("garbage\n")
    with pytest.raises(ValueError):
        load_slice_file(path)
    path.write_text("OPIDEAL v1\n")
    with pytest.raises(ValueError):
        load_slice_file(path)
    # rows of the wrong length and rows with a malformed token
    assert good.splitlines()[2] == "1 -1"
    for row in ("1", "1 -1 0", "1 -x", "x -1", "1 1/0", "1 1e9999999"):
        path.write_text(good.replace("1 -1", row))
        with pytest.raises(ValueError):
            load_slice_file(path)


def test_loader_checks_arity_before_allocating(tmp_path):
    # a header arity that the caller does not expect, or that is over the
    # cap, is refused before arity! is computed
    path = tmp_path / "slice.opideal"
    path.write_text("OPIDEAL v1\narity=300000 dim=0 order=lex mode=unital\n\n")
    with mock.patch.object(ideals_module.math, "factorial", side_effect=AssertionError):
        with pytest.raises(ValueError, match="expected 3"):
            load_slice_file(path, arity=3)
        path.write_text("OPIDEAL v1\narity=300000 dim=1 order=lex mode=unital\n1 -1\n")
        with pytest.raises(ValueError):
            load_slice_file(path)
        # a file without rows is refused for an arity over the cap
        path.write_text("OPIDEAL v1\narity=300000 dim=0 order=lex mode=unital\n\n")
        with pytest.raises(ValueError, match="outside"):
            load_slice_file(path)
    cap = ideals_module.MAX_SLICE_ARITY
    path.write_text(f"OPIDEAL v1\narity={cap + 1} dim=0 order=lex mode=unital\n")
    with pytest.raises(ValueError, match="outside"):
        load_slice_file(path)
    path.write_text(f"OPIDEAL v1\narity={cap} dim=0 order=lex mode=unital\n")
    assert load_slice_file(path)[0] == IdealSlice.zero(cap)
    path.write_text("OPIDEAL v1\narity=-1 dim=0 order=lex mode=unital\n")
    with pytest.raises(ValueError):
        load_slice_file(path)
    # the spanning path passes its arity: a foreign-arity entry is a miss
    gens = commutator_gens()
    entry = slice_cache_path(tmp_path, gens, 3)
    entry.write_text("OPIDEAL v1\narity=300000 dim=0 order=lex mode=unital\n\n")
    stats: dict = {}
    assert ideal_slice_spanning(gens, 3, cache_dir=tmp_path, stats=stats).dim == 5
    assert stats["cache_hit"] is False
    assert load_slice_file(entry, arity=3)[0].dim == 5


def test_slices_above_the_cap_are_not_cached(tmp_path):
    # the cache format holds arities up to MAX_SLICE_ARITY, so a larger
    # slice is neither saved nor looked up
    cap = ideals_module.MAX_SLICE_ARITY
    gens = GeneratorSet([])
    # a zero slice builds no action tables, at any arity
    with mock.patch.object(ideals_module, "_action_tables", side_effect=AssertionError):
        assert ideal_slice_spanning(gens, cap + 1, cache_dir=tmp_path) == IdealSlice.zero(cap + 1)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="cannot be saved"):
        save_slice_file(tmp_path / "slice.opideal", IdealSlice.zero(cap + 1), gens.mode)
    assert list(tmp_path.iterdir()) == []


def test_slices_over_the_file_cap_are_returned_but_not_written(tmp_path, monkeypatch):
    # every arity-7 entry fits under the default cap, the arity-8 [x1,x2] one does not
    cap = ideals_module.MAX_SLICE_FILE_BYTES
    assert 2 * math.factorial(7) ** 2 <= cap < 2 * math.factorial(8) * (math.factorial(8) - 1)
    gens = commutator_gens()
    expected = ideal_slice_spanning(gens, 3)
    reference = tmp_path / "reference.opideal"
    save_slice_file(reference, expected, gens.mode)
    # the arity-3 slice has rank 5 in 3! columns: its file has at least 60 bytes
    monkeypatch.setattr(ideals_module, "MAX_SLICE_FILE_BYTES", 59)
    over = tmp_path / "over"
    assert ideal_slice_spanning(gens, 3, cache_dir=over) == expected
    assert not over.exists() or list(over.iterdir()) == []
    monkeypatch.setattr(ideals_module, "MAX_SLICE_FILE_BYTES", 60)
    under = tmp_path / "under"
    assert ideal_slice_spanning(gens, 3, cache_dir=under) == expected
    assert slice_cache_path(under, gens, 3).read_bytes() == reference.read_bytes()


def test_spanning_refuses_above_the_budget_unless_the_slice_is_zero():
    swap = Permutation((2, 1) + tuple(range(3, 13)))
    theta = OperadElement(12, {identity(12): 1, swap: -1})
    # nonunital, an arity-12 generator reaches nothing of arity 11
    assert ideal_slice_spanning(GeneratorSet([theta], NONUNITAL), 11) == IdealSlice.zero(11)
    with pytest.raises(BudgetExceeded) as refused:
        ideal_slice_spanning(GeneratorSet([theta]), 11)
    assert refused.value.needed == math.factorial(11)
    assert refused.value.budget == ideals_module.DEFAULT_BUDGET
    # 5000! has more digits than the interpreter converts to text
    with pytest.raises(BudgetExceeded, match="5000!"):
        ideal_slice_spanning(GeneratorSet([theta]), 5000)


def test_evaluation_refuses_slices_wider_than_the_budget():
    # 11! > 10^7: refused before any tuple is walked, though M_2 has only
    # comb(14, 11) = 364 of them
    with pytest.raises(BudgetExceeded) as refused:
        codimension(matrix_algebra(2), 11)
    assert refused.value.needed == math.factorial(11)
    assert str(refused.value) == (
        "a slice of arity 11 spans 11! coordinates, more than the budget of 10000000"
    )


def test_closure_refuses_a_window_wider_than_the_budget():
    commutator = GeneratorSet([poly_to_operad(parse_poly("x1*x2 - x2*x1"))])
    # the window of n = 11 itself, and a unital generator of arity 11
    # widening the window of n = 3 to 0..11
    for gens, n in ((commutator, 11), (GeneratorSet([OperadElement.unit(11)]), 3)):
        with pytest.raises(BudgetExceeded) as refused:
            ideal_slice_closure(gens, n)
        assert refused.value.needed == sum(math.factorial(m) for m in range(12)) == 43_954_714
        assert str(refused.value) == (
            "the closure window spans 0! + ... + 11! coordinates, more than the budget of 10000000"
        )
    # a window that holds no generator builds nothing
    assert ideal_slice_closure(GeneratorSet([]), 9) == IdealSlice.zero(9)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=3), st.binary(max_size=4)),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_loader_fuzz_mutated_files(tmp_path_factory, edits):
    # replace, insert or delete a few bytes of a valid file: the loader
    # either raises ValueError or returns a slice (of the expected arity,
    # when one is given)
    path = tmp_path_factory.mktemp("fuzz") / "slice.opideal"
    save_slice_file(path, ideal_slice_spanning(commutator_gens(), 3), "unital")
    data = bytearray(path.read_bytes())
    for position, kind, chunk in edits:
        at = position % (len(data) + 1)
        if kind == 0:
            data[at : at + len(chunk)] = chunk
        elif kind == 1:
            data[at:at] = chunk
        elif kind == 2:
            del data[at : at + 1 + len(chunk)]
        else:
            data[at:at] = b"9" * (1 + len(chunk))  # numbers that grow
    path.write_bytes(bytes(data))
    for expected in (3, None):
        try:
            slice_, mode = load_slice_file(path, arity=expected)
        except ValueError:
            continue
        assert expected is None or slice_.arity == expected
        assert isinstance(mode, str) and slice_.dim == slice_.basis.rank


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_loader_fuzz_random_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "random.opideal"
    for payload in (data, b"OPIDEAL v1\n" + data):
        path.write_bytes(payload)
        try:
            slice_, _ = load_slice_file(path)
        except ValueError:
            continue
        assert slice_.dim == slice_.basis.rank


def _loaded(reader, path, arity):
    """What `reader` makes of the file: its (slice, mode), or ValueError."""
    try:
        return reader(path, arity=arity)
    except ValueError:
        return ValueError


_BYTE_EDITS = st.tuples(
    st.integers(min_value=0), st.integers(min_value=0, max_value=3), st.binary(max_size=4)
)
_TEXT_EDITS = st.one_of(
    st.tuples(st.sampled_from(["crlf", "cr", "chop"])),
    st.tuples(
        st.just("blank"), st.integers(min_value=0), st.sampled_from([b"\n", b" \n", b"\t\n", b"\r\n"])
    ),
    # characters that str.splitlines breaks at, and file iteration does not
    st.tuples(
        st.just("break"),
        st.integers(min_value=0),
        st.sampled_from([b"\x0b", b"\x0c", b"\x1c", b"\x1e", b"\xc2\x85", b"\xe2\x80\xa8"]),
    ),
    st.tuples(
        st.just("bytes"),
        st.integers(min_value=0),
        st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xc3\x28", b"\xed\xa0\x80", b"\xf0\x9f"]),
    ),
)


def _edit_file(data: bytearray, edit) -> None:
    """Apply one edit: a byte edit of test_loader_fuzz_mutated_files, or a
    text edit (CRLF or CR line ends, no final newline, a blank line at a
    line end, a line-break character in place of a space or anywhere, or
    bytes that are not UTF-8)."""
    kind = edit[0]
    if isinstance(kind, int):
        position, kind, chunk = edit
        at = position % (len(data) + 1)
        if kind == 0:
            data[at : at + len(chunk)] = chunk
        elif kind == 1:
            data[at:at] = chunk
        elif kind == 2:
            del data[at : at + 1 + len(chunk)]
        else:
            data[at:at] = b"9" * (1 + len(chunk))
    elif kind in ("crlf", "cr"):
        data[:] = data.replace(b"\n", b"\r\n" if kind == "crlf" else b"\r")
    elif kind == "chop":
        if data.endswith(b"\n"):
            del data[-1:]
    elif kind == "blank":
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")] or [len(data)]
        at = ends[edit[1] % len(ends)]
        data[at:at] = edit[2]
    elif kind == "break":
        spaces = [i for i, byte in enumerate(data) if byte == ord(" ")]
        if spaces and edit[1] % 2:
            at = spaces[edit[1] // 2 % len(spaces)]
            data[at : at + 1] = edit[2]
        else:
            at = edit[1] % (len(data) + 1)
            data[at:at] = edit[2]
    else:
        at = edit[1] % (len(data) + 1)
        data[at:at] = edit[2]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    case=sparse_vector_sets(),
    mode=st.sampled_from([UNITAL, NONUNITAL]),
    edits=st.lists(st.one_of(_BYTE_EDITS, _TEXT_EDITS), max_size=4),
)
def test_streamed_loader_matches_the_reference(tmp_path_factory, case, mode, edits):
    # the streamed reader against the one that held the whole text: on a
    # valid file of arity 0..5, edited or not, both return the same slice
    # and mode, or both raise ValueError
    n, vectors = case
    span = RowBasis(math.factorial(n))
    for vec in vectors:
        span.insert(vec)
    path = tmp_path_factory.mktemp("stream") / "slice.opideal"
    save_slice_file(path, IdealSlice(n, span), mode)
    data = bytearray(path.read_bytes())
    for edit in edits:
        _edit_file(data, edit)
    path.write_bytes(bytes(data))
    for expected in (n, None):
        assert _loaded(load_slice_file, path, expected) == _loaded(
            oracles.load_slice_file_reference, path, expected
        )
    if not edits:
        assert load_slice_file(path) == (IdealSlice(n, span), mode)


def test_loading_the_arity_six_entry_holds_little_besides_the_basis(tmp_path):
    # the reader streams the ~1 MB [[x1,x2],x3] entry: its peak is the
    # basis it returns and one row, not the text, its lines and its rows
    import tracemalloc

    gens = GeneratorSet([poly_to_operad(TRIPLE_COMMUTATOR)])
    path = slice_cache_path(tmp_path, gens, 6)
    ideal_slice_spanning(gens, 6, cache_dir=tmp_path)
    assert path.stat().st_size > 900_000
    load_slice_file(path, arity=6)  # compile and cache what any load uses
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded, _ = load_slice_file(path, arity=6)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.dim > 0
    assert peak - before <= 1.25 * (retained - before)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gens=generator_sets())
def test_generator_set_hash_is_the_sha256_of_the_canonical_text(gens):
    digest = hashlib.sha256(gens.canonical_text().encode("utf-8")).hexdigest()
    assert generator_set_hash(gens) == digest


def test_generator_set_hash_falls_back_to_hashlib():
    # without the built-in modules the digest comes from hashlib, unchanged
    import sys

    gens = commutator_gens()
    digest = generator_set_hash(gens)
    with mock.patch.dict(sys.modules, {"_sha256": None, "_sha2": None}):
        with mock.patch.object(hashlib, "sha256", wraps=hashlib.sha256) as fallback:
            assert generator_set_hash(gens) == digest
    assert fallback.called
