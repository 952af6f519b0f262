import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oplab import (
    ArityMismatch,
    OperadElement,
    Permutation,
    act,
    all_permutations,
    format_element,
    from_vector,
    full_compose,
    identity,
    multiply,
    parse_element,
    partial_compose,
    standard_polynomial,
    to_vector,
)


def basis(seq):
    return OperadElement.basis(Permutation(seq))


def random_element(rng, arity, density=0.6):
    terms = {}
    for p in all_permutations(arity):
        if rng.random() < density:
            c = rng.randint(-3, 3)
            if c:
                terms[p] = Fraction(c)
    if not terms:
        terms[identity(arity)] = Fraction(1)
    return OperadElement(arity, terms)


def test_normalization_drops_zero_terms():
    theta = OperadElement(2, {identity(2): Fraction(1), Permutation((2, 1)): Fraction(0)})
    assert list(theta.terms) == [identity(2)]
    assert (theta - theta).is_zero()
    with pytest.raises(ArityMismatch):
        OperadElement(2, {identity(3): 1})


def test_full_compose_examples():
    unit1 = OperadElement.unit(1)
    assert full_compose(OperadElement.unit(2), [unit1, unit1]) == OperadElement.unit(2)
    scaled = full_compose(2 * OperadElement.unit(2), [3 * unit1, unit1])
    assert scaled == 6 * OperadElement.unit(2)
    assert full_compose(basis((2, 1)), [basis((2, 1)), unit1]) == basis((3, 2, 1))
    with pytest.raises(ArityMismatch):
        full_compose(OperadElement.unit(2), [unit1])


def test_partial_compose_examples():
    assert partial_compose(OperadElement.unit(2), 1, basis((2, 1))) == basis((2, 1, 3))
    assert partial_compose(basis((2, 1)), 1, OperadElement.unit(0)) == OperadElement.unit(1)
    rng = random.Random(3)
    for _ in range(10):
        arity = rng.randint(1, 4)
        mu = random_element(rng, arity)
        slot = rng.randint(1, arity)
        assert partial_compose(mu, slot, OperadElement.unit(1)) == mu
    with pytest.raises(ArityMismatch):
        partial_compose(OperadElement.unit(2), 3, OperadElement.unit(1))


def test_act_examples():
    rng = random.Random(4)
    theta = random_element(rng, 3)
    assert act(theta, identity(3)) == theta
    assert act(OperadElement.unit(2), Permutation((2, 1))) == basis((2, 1))
    for _ in range(10):
        t1 = rng.choice(all_permutations(3))
        t2 = rng.choice(all_permutations(3))
        assert act(act(theta, t1), t2) == act(theta, multiply(t1, t2))
    with pytest.raises(ArityMismatch):
        act(theta, identity(2))


def test_vector_round_trip():
    assert to_vector(OperadElement.zero(2)).is_zero()
    assert to_vector(OperadElement.unit(2)).entries == {0: Fraction(1)}
    rng = random.Random(5)
    for arity in (0, 1, 2, 3, 4):
        theta = random_element(rng, arity)
        assert from_vector(arity, to_vector(theta)) == theta


def test_vector_round_trip_at_arity_twelve():
    # Coordinates are ranked one permutation at a time: nothing of size 12!
    # is built.
    rng = random.Random(12)
    terms = {Permutation(rng.sample(range(1, 13), 12)): rng.randint(1, 9) for _ in range(20)}
    theta = OperadElement(12, terms)
    start = time.perf_counter()
    vec = to_vector(theta)
    assert vec.dimension == 479001600
    assert from_vector(12, vec) == theta
    assert time.perf_counter() - start < 1.0


def test_standard_polynomial_small():
    assert standard_polynomial(1) == OperadElement.unit(1)
    assert standard_polynomial(2) == OperadElement.unit(2) - basis((2, 1))
    st3 = standard_polynomial(3)
    # signs checked by hand from the inversion parity of each sequence
    expected = {
        (1, 2, 3): 1,
        (1, 3, 2): -1,
        (2, 1, 3): -1,
        (2, 3, 1): 1,
        (3, 1, 2): 1,
        (3, 2, 1): -1,
    }
    assert {p.seq: c for p, c in st3.items()} == {
        seq: Fraction(sign) for seq, sign in expected.items()
    }


def _basis_elements(max_arity):
    out = []
    for n in range(1, max_arity + 1):
        out.extend(OperadElement.basis(p) for p in all_permutations(n))
    return out


def test_sequential_axiom_exhaustive_small():
    pool = _basis_elements(3)
    for lam, mu, nu in product(pool, repeat=3):
        if lam.arity + mu.arity + nu.arity > 6:
            continue
        for i in range(1, lam.arity + 1):
            for j in range(1, mu.arity + 1):
                left = partial_compose(partial_compose(lam, i, mu), i + j - 1, nu)
                right = partial_compose(lam, i, partial_compose(mu, j, nu))
                assert left == right


def test_parallel_axiom_exhaustive_small():
    pool = _basis_elements(3)
    for lam, mu, nu in product(pool, repeat=3):
        if lam.arity < 2 or lam.arity + mu.arity + nu.arity > 6:
            continue
        m = mu.arity
        for i in range(1, lam.arity + 1):
            for j in range(i + 1, lam.arity + 1):
                left = partial_compose(partial_compose(lam, i, mu), j + m - 1, nu)
                right = partial_compose(partial_compose(lam, j, nu), i, mu)
                assert left == right


def test_unit_laws_random():
    rng = random.Random(6)
    unit1 = OperadElement.unit(1)
    for _ in range(30):
        arity = rng.randint(1, 4)
        theta = random_element(rng, arity)
        assert partial_compose(unit1, 1, theta) == theta
        assert partial_compose(theta, rng.randint(1, arity), unit1) == theta


def test_element_text_round_trip():
    theta = OperadElement.unit(2) - basis((2, 1))
    assert format_element(theta) == "1*(1,2) - 1*(2,1)"
    assert parse_element("1*(1,2) - 1*(2,1)") == theta
    assert parse_element("(2,1)") == basis((2, 1))
    assert parse_element("3/2*(1,2)") == OperadElement(2, {identity(2): Fraction(3, 2)})
    assert parse_element("()") == OperadElement.unit(0)
    assert parse_element("0", arity=2) == OperadElement.zero(2)
    assert format_element(OperadElement.zero(3)) == "0"
    rng = random.Random(7)
    for _ in range(20):
        theta = random_element(rng, rng.randint(0, 4))
        assert parse_element(format_element(theta), arity=theta.arity) == theta
    with pytest.raises(ValueError):
        parse_element("1*(1,2) + 1*(1)")
    with pytest.raises(ValueError):
        parse_element("0")


@given(
    st.text(
        alphabet=st.one_of(st.sampled_from("0123456789()+-*/, "), st.characters()),
        max_size=40,
    )
)
@example("1/0*(1,2)")
@example("(1,,2)")
@example("1" * 5000 + "*(1)")
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parse_element_fuzz_raises_only_value_errors(text):
    try:
        element = parse_element(text)
    except ValueError:
        return
    assert parse_element(format_element(element), element.arity) == element
