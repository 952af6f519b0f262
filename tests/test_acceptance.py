"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is exact (no floating point anywhere in the library).
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from oplab import (
    GeneratorSet,
    IdealSlice,
    OperadElement,
    RowBasis,
    act,
    act_poly,
    all_permutations,
    codimension,
    evaluate,
    grassmann_algebra,
    ideal_slice_closure,
    ideal_slice_spanning,
    identities_slice,
    identity,
    is_identity,
    matrix_algebra,
    membership,
    min_identity_degree,
    operad_to_poly,
    parse_poly,
    partial_compose,
    poly_generated_slice,
    poly_to_operad,
    roundtrip_check,
    slices_equal,
    standard_polynomial,
    to_vector,
    verify_ideal_closure,
)

COMMUTATOR_ELEMENT = poly_to_operad(parse_poly("x1*x2 - x2*x1"))
TRIPLE_COMMUTATOR = parse_poly("x1*x2*x3 - x2*x1*x3 - x3*x1*x2 + x3*x2*x1")


class Criterion:
    def __init__(self, label):
        self.label = label
        self.started = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.started
        status = "PASS" if ok else "FAIL"
        suffix = f" :: {detail}" if detail else ""
        print(f"[{status}] {self.label} ({elapsed:.1f}s){suffix}")
        assert ok, f"{self.label}{suffix}"
        return elapsed


def test_criterion_1_minimal_degree_of_matrix_identities():
    crit = Criterion("criterion 1: minimal-degree identities of 2x2 matrices")
    m2 = matrix_algebra(2)
    ok = True
    detail = ""
    st4 = operad_to_poly(standard_polynomial(4))
    st3 = operad_to_poly(standard_polynomial(3))
    assert m2.dim ** 4 == 256  # the exhaustive check runs over 256 tuples
    if not is_identity(st4, m2):
        ok, detail = False, "degree-4 alternating polynomial is not an identity"
    elif is_identity(st3, m2):
        ok, detail = False, "degree-3 alternating polynomial wrongly passes"
    elif min_identity_degree(m2, 5) != 4:
        ok, detail = False, "minimal identity degree is not 4"
    else:
        for n in (1, 2, 3):
            if identities_slice(m2, n).dim != 0:
                ok, detail = False, f"nonzero identity slice at arity {n}"
                break
    elapsed = crit.finish(ok, detail)
    assert elapsed < 10.0


def test_criterion_2_commutative_collapse():
    crit = Criterion("criterion 2: commutator ideal slices collapse to codimension 1")
    gens = GeneratorSet([COMMUTATOR_ELEMENT])
    m1 = matrix_algebra(1)
    ok = True
    detail = ""
    for n in range(2, 6):
        spanned = ideal_slice_spanning(gens, n)
        if spanned.dim != math.factorial(n) - 1:
            ok, detail = False, f"dim at arity {n} is {spanned.dim}"
            break
        if spanned != identities_slice(m1, n):
            ok, detail = False, f"mismatch with the 1-dimensional algebra at {n}"
            break
    elapsed = crit.finish(ok, detail)
    assert elapsed < 60.0


def test_criterion_3_grassmann_codimensions():
    crit = Criterion("criterion 3: Grassmann codimension sequence and generated ideal")
    e6 = grassmann_algebra(6)
    ok = True
    detail = ""
    for n in range(1, 6):
        c = codimension(e6, n)
        if c != 2 ** (n - 1):
            ok, detail = False, f"codimension at arity {n} is {c}"
            break
    if ok:
        for n in range(3, 6):
            generated = poly_generated_slice([TRIPLE_COMMUTATOR], n)
            independent = identities_slice(e6, n)
            if generated != independent:
                ok, detail = False, f"slice disagreement at arity {n}"
                break
    elapsed = crit.finish(ok, detail)
    assert elapsed < 600.0


def test_criterion_4_polynomial_operad_roundtrip():
    crit = Criterion("criterion 4: ideal slices survive the polynomial round trip")
    st4 = standard_polynomial(4)
    ok = True
    detail = ""
    for label, gens in (
        ("commutator", GeneratorSet([COMMUTATOR_ELEMENT])),
        ("alternating-4", GeneratorSet([st4])),
        ("both", GeneratorSet([COMMUTATOR_ELEMENT, st4])),
    ):
        report = roundtrip_check(gens, 5)
        if not report.ok:
            bad = [n for n, good in report.per_arity.items() if not good]
            ok, detail = False, f"{label} fails at arities {bad}"
            break
    crit.finish(ok, detail)


def test_criterion_5_cross_algorithm_agreement():
    crit = Criterion("criterion 5: spanning and closure algorithms agree")
    rng = random.Random(2024)
    ok = True
    detail = ""
    for trial in range(20):
        arity = rng.randint(1, 3)
        terms = {}
        for p in all_permutations(arity):
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    terms[p] = Fraction(c)
        if not terms:
            terms[identity(arity)] = Fraction(1)
        gens = GeneratorSet([OperadElement(arity, terms)])
        for n in range(1, 6):
            if ideal_slice_spanning(gens, n) != ideal_slice_closure(gens, n):
                ok, detail = False, f"trial {trial} disagrees at arity {n}"
                break
        if not ok:
            break
    crit.finish(ok, detail)


def _random_element(rng, arity, lo=-2, hi=2):
    terms = {}
    for p in all_permutations(arity):
        if rng.random() < 0.5:
            c = rng.randint(lo, hi)
            if c:
                terms[p] = Fraction(c)
    if not terms:
        terms[identity(arity)] = Fraction(1)
    return OperadElement(arity, terms)


def test_criterion_6_operad_axioms():
    crit = Criterion("criterion 6: composition axioms, equivariance, functoriality")
    ok = True
    detail = ""
    basis_pool = [
        OperadElement.basis(p) for n in (1, 2, 3) for p in all_permutations(n)
    ]
    # exhaustive sequential and parallel axioms plus unit laws on basis elements
    unit1 = OperadElement.unit(1)
    for lam, mu, nu in product(basis_pool, repeat=3):
        for i in range(1, lam.arity + 1):
            for j in range(1, mu.arity + 1):
                lhs = partial_compose(partial_compose(lam, i, mu), i + j - 1, nu)
                rhs = partial_compose(lam, i, partial_compose(mu, j, nu))
                if lhs != rhs:
                    ok, detail = False, "sequential axiom fails on basis elements"
        m = mu.arity
        for i in range(1, lam.arity + 1):
            for j in range(i + 1, lam.arity + 1):
                lhs = partial_compose(partial_compose(lam, i, mu), j + m - 1, nu)
                rhs = partial_compose(partial_compose(lam, j, nu), i, mu)
                if lhs != rhs:
                    ok, detail = False, "parallel axiom fails on basis elements"
    for theta in basis_pool:
        if partial_compose(unit1, 1, theta) != theta:
            ok, detail = False, "left unit law fails"
        for i in range(1, theta.arity + 1):
            if partial_compose(theta, i, unit1) != theta:
                ok, detail = False, "right unit law fails"

    rng = random.Random(99)
    m2 = matrix_algebra(2)
    for _ in range(1000):
        l = rng.randint(1, 3)
        m = rng.randint(1, 3)
        n = rng.randint(0, min(3, 6 - l - m))
        lam = _random_element(rng, l)
        mu = _random_element(rng, m)
        nu = _random_element(rng, n)
        i = rng.randint(1, l)
        j = rng.randint(1, m)
        lhs = partial_compose(partial_compose(lam, i, mu), i + j - 1, nu)
        rhs = partial_compose(lam, i, partial_compose(mu, j, nu))
        if lhs != rhs:
            ok, detail = False, "sequential axiom fails on random elements"
            break
        if l >= 2:
            i2, j2 = sorted(rng.sample(range(1, l + 1), 2))
            lhs = partial_compose(partial_compose(lam, i2, mu), j2 + m - 1, nu)
            rhs = partial_compose(partial_compose(lam, j2, nu), i2, mu)
            if lhs != rhs:
                ok, detail = False, "parallel axiom fails on random elements"
                break
        # module-map equivariance of the polynomial translation
        tau = rng.choice(all_permutations(l))
        if act_poly(operad_to_poly(lam), tau) != operad_to_poly(act(lam, tau)):
            ok, detail = False, "translation equivariance fails"
            break
        # evaluation functoriality for partial composition
        args = [
            m2.element([rng.randint(-1, 1) for _ in range(4)])
            for _ in range(l + m - 1)
        ]
        composed = partial_compose(lam, i, mu)
        left_value = evaluate(composed, args)
        inner = evaluate(mu, args[i - 1 : i + m - 1])
        right_value = evaluate(lam, args[: i - 1] + [inner] + args[i + m - 1 :])
        if left_value != right_value:
            ok, detail = False, "evaluation functoriality fails"
            break
    crit.finish(ok, detail)


def test_criterion_7_closure_verification():
    crit = Criterion("criterion 7: identity ideals are closed; a planted line is not")
    ok = True
    detail = ""
    m2 = matrix_algebra(2)
    slices = {n: identities_slice(m2, n) for n in range(1, 5)}
    report = verify_ideal_closure(slices, 4)
    if not report.ok:
        ok, detail = False, f"matrix identities: {report.failure}"
    if ok:
        e4 = grassmann_algebra(4)
        slices = {n: identities_slice(e4, n) for n in range(1, 5)}
        report = verify_ideal_closure(slices, 4)
        if not report.ok:
            ok, detail = False, f"Grassmann identities: {report.failure}"
    if ok:
        planted = RowBasis(2)
        planted.insert(to_vector(OperadElement.unit(2)))
        control = {
            1: IdealSlice.zero(1),
            2: IdealSlice(2, planted),
            3: IdealSlice.zero(3),
            4: IdealSlice.zero(4),
        }
        report = verify_ideal_closure(control, 4)
        if report.ok:
            ok, detail = False, "planted non-stable subspace was not rejected"
    crit.finish(ok, detail)


def test_criterion_8_bounded_arity_substitutes():
    crit = Criterion("criterion 8: bounded-arity stand-ins for all-arity statements")
    ok = True
    detail = ""
    st4 = standard_polynomial(4)
    gens = GeneratorSet([COMMUTATOR_ELEMENT])
    # positive pair: adding a consequence leaves every slice unchanged
    augmented = GeneratorSet([COMMUTATOR_ELEMENT, st4])
    if not slices_equal(gens, augmented, 4):
        ok, detail = False, "consequence changed the generated slices"
    # negative pair: the degree-4 alternating element does not imply commutativity
    if ok and slices_equal(gens, GeneratorSet([st4]), 4):
        ok, detail = False, "distinct ideals reported equal"
    # sanity for the pair: they already differ at arity 2
    if ok and ideal_slice_spanning(GeneratorSet([st4]), 2).dim != 0:
        ok, detail = False, "alternating generator has an arity-2 consequence"
    # single-generator membership check
    if ok and not membership(st4, gens):
        ok, detail = False, "membership surrogate failed"
    crit.finish(ok, detail)
