import random
import re
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oplab import (
    NcPoly,
    OperadElement,
    Permutation,
    PolyParseError,
    act,
    act_poly,
    all_permutations,
    format_element,
    format_poly,
    grassmann_algebra,
    identity,
    is_identity_general,
    matrix_algebra,
    multilinearize,
    operad_to_poly,
    parse_poly,
    partial_compose,
    poly_to_operad,
)
from oracles import (
    format_element_reference,
    format_poly_reference,
    poly_substitute,
    substitute_all_slots,
    substitute_slot,
    word_product_reference,
)


def test_parse_commutator():
    f = parse_poly("x1*x2 - x2*x1")
    assert f.terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_parse_square_expansion():
    # (x1+x2)^2 expanded by hand
    f = parse_poly("(x1 + x2)^2")
    assert f.terms == {
        (1, 1): Fraction(1),
        (1, 2): Fraction(1),
        (2, 1): Fraction(1),
        (2, 2): Fraction(1),
    }


def test_parse_rational_coefficient():
    f = parse_poly("3/2*x5")
    assert f.terms == {(5,): Fraction(3, 2)}


def test_parse_multidigit_and_exponent_zero():
    assert parse_poly("x12").terms == {(12,): Fraction(1)}
    assert parse_poly("x1^0") == NcPoly.one()
    assert parse_poly("2^3") == NcPoly.constant(8)


def test_parse_unary_minus_and_groups():
    f = parse_poly("-x1*x2 + (x2 - x1)*x3")
    assert f.terms == {
        (1, 2): Fraction(-1),
        (2, 3): Fraction(1),
        (1, 3): Fraction(-1),
    }


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1*x2-+")
    assert err.value.position == 6
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0*x1")
    assert err.value.position == 1
    with pytest.raises(PolyParseError):
        parse_poly("x1 x2")
    with pytest.raises(PolyParseError):
        parse_poly("1/0")
    with pytest.raises(PolyParseError):
        parse_poly("")


words = st.lists(
    st.integers(min_value=1, max_value=4), min_size=0, max_size=4
).map(tuple)
polys = st.dictionaries(
    words,
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4),
    max_size=5,
).map(NcPoly)


@given(polys)
@settings(max_examples=80)
def test_print_parse_print_fixed_point(f):
    text = format_poly(f)
    assert parse_poly(text) == f
    assert format_poly(parse_poly(text)) == text


elements = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(all_permutations(n)),
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4),
        max_size=8,
    ).map(lambda terms: OperadElement(n, terms))
)


@given(elements, polys)
@example(OperadElement(3), NcPoly())
@example(
    OperadElement(0, {identity(0): Fraction(-5, 2)}),
    NcPoly({(): -3, (1, 2): Fraction(1, 2), (2, 1): 4}),
)
@example(OperadElement(2, {identity(2): 7}), NcPoly({(): Fraction(7, 3), (1,): -1}))
@settings(max_examples=200, derandomize=True)
def test_printers_match_the_reference(theta, f):
    assert format_element(theta) == format_element_reference(theta)
    assert format_poly(f) == format_poly_reference(f)


def test_phi_examples():
    assert operad_to_poly(OperadElement.unit(3)) == parse_poly("x1*x2*x3")
    theta = OperadElement.basis(Permutation((3, 1, 2)))
    assert operad_to_poly(theta) == parse_poly("x3*x1*x2")


def test_phi_inverse_pair():
    for n in range(1, 6):
        for p in all_permutations(n):
            theta = OperadElement.basis(p)
            assert poly_to_operad(operad_to_poly(theta)) == theta
    rng = random.Random(0)
    for _ in range(20):
        arity = rng.randint(1, 5)
        terms = {}
        for p in all_permutations(arity):
            if rng.random() < 0.3:
                terms[p] = Fraction(rng.randint(-4, 4) or 1)
        theta = OperadElement(arity, terms) if terms else OperadElement.unit(arity)
        if theta.is_zero():
            theta = OperadElement.unit(arity)
        assert poly_to_operad(operad_to_poly(theta)) == theta


def test_phi_inv_rejects_non_multilinear():
    with pytest.raises(ValueError):
        poly_to_operad(parse_poly("x1*x1"))
    with pytest.raises(ValueError):
        poly_to_operad(parse_poly("x1*x2 + x1"))
    with pytest.raises(ValueError):
        poly_to_operad(NcPoly.zero())


def test_act_poly_examples():
    f = parse_poly("x1*x2")
    assert act_poly(f, Permutation((2, 1))) == parse_poly("x2*x1")
    g = parse_poly("x1*x3*x2 - x2*x1*x3")
    assert act_poly(g, identity(3)) == g


def test_phi_equivariance():
    rng = random.Random(1)
    for _ in range(30):
        arity = rng.randint(1, 4)
        terms = {p: Fraction(rng.randint(1, 3)) for p in all_permutations(arity) if rng.random() < 0.5}
        theta = OperadElement(arity, terms) if terms else OperadElement.unit(arity)
        tau = rng.choice(all_permutations(arity))
        assert act_poly(operad_to_poly(theta), tau) == operad_to_poly(act(theta, tau))


def test_substitution_compatibility_exhaustive_small():
    # translating a partial composition equals substituting the translated
    # inner word into the matching letter slot
    for m in (1, 2, 3):
        for n in (0, 1, 2):
            for outer in all_permutations(m):
                for inner in all_permutations(n):
                    mu = OperadElement.basis(outer)
                    nu = OperadElement.basis(inner)
                    for i in range(1, m + 1):
                        lhs = operad_to_poly(partial_compose(mu, i, nu))
                        rhs = substitute_slot(
                            operad_to_poly(mu), i, operad_to_poly(nu), n
                        )
                        assert lhs == rhs


def test_substitution_compatibility_random_arity4():
    rng = random.Random(2)
    for _ in range(15):
        mu_terms = {p: Fraction(rng.randint(-2, 2) or 1) for p in all_permutations(4) if rng.random() < 0.2}
        mu = OperadElement(4, mu_terms) if mu_terms else OperadElement.unit(4)
        n = rng.randint(0, 3)
        nu_terms = {p: Fraction(rng.randint(-2, 2) or 1) for p in all_permutations(n) if rng.random() < 0.5}
        nu = OperadElement(n, nu_terms) if nu_terms else OperadElement.unit(n)
        i = rng.randint(1, 4)
        lhs = operad_to_poly(partial_compose(mu, i, nu))
        rhs = substitute_slot(operad_to_poly(mu), i, operad_to_poly(nu), n)
        assert lhs == rhs


def test_full_compose_matches_simultaneous_substitution():
    # exhaustive up to total result arity 4, arity-0 parts included
    pool = [(m, p) for m in (0, 1, 2) for p in all_permutations(m)]
    from oplab import full_compose

    for outer_arity in (1, 2, 3):
        for outer in all_permutations(outer_arity):
            for combo in product(pool, repeat=outer_arity):
                if sum(m for m, _ in combo) > 4:
                    continue
                theta = OperadElement.basis(outer)
                parts = [OperadElement.basis(p) for _, p in combo]
                lhs = operad_to_poly(full_compose(theta, parts))
                rhs = substitute_all_slots(
                    operad_to_poly(theta), [operad_to_poly(p) for p in parts]
                )
                assert lhs == rhs


def test_multilinearize_already_multilinear():
    f = parse_poly("x1*x2 - x2*x1")
    assert multilinearize(f) == [f]


def test_multilinearize_square():
    assert multilinearize(parse_poly("x1^2")) == [parse_poly("x1*x2 + x2*x1")]


def test_multilinearize_square_times_variable():
    # oracle: substitute x1 -> a+b in x1^2*x2 and keep the part that is
    # linear in both fresh variables
    f = parse_poly("x1^2*x2")
    substituted = poly_substitute(f, {1: parse_poly("x3 + x4")})
    bilinear = NcPoly(
        {
            w: c
            for w, c in substituted.terms.items()
            if w.count(3) == 1 and w.count(4) == 1
        }
    )
    (result,) = multilinearize(f)
    # compare up to the canonical renumbering applied by multilinearize
    assert result == multilinearize(bilinear)[0]
    assert result.multilinear_arity() == 3
    assert result.degree() <= f.degree()


def test_multilinearize_splits_components():
    f = parse_poly("x1^2 + x1*x2")
    parts = multilinearize(f)
    assert len(parts) == 2
    assert all(p.multilinear_arity() is not None for p in parts)
    assert {format_poly(p) for p in parts} == {
        "1*x1*x2",
        "1*x1*x2 + 1*x2*x1",
    }
    with pytest.raises(ValueError):
        multilinearize(NcPoly.zero())


def test_multilinearize_outputs_are_consequences():
    # every linearization output vanishes on any algebra where the input
    # vanishes identically
    cases = [
        ("x1*x2 - x2*x1", matrix_algebra(1)),
        ("x1^2*x2 - x2*x1^2", matrix_algebra(1)),
        ("(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2", matrix_algebra(2)),
    ]
    from oplab import is_identity

    for text, algebra in cases:
        f = parse_poly(text)
        assert is_identity_general(f, algebra)
        for part in multilinearize(f):
            assert is_identity(part, algebra)


def test_multilinearize_grassmann_triple_commutator():
    # the triple commutator vanishes on the Grassmann algebra; so must
    # every multilinearization
    from oplab import is_identity

    f = parse_poly("(x1*x2 - x2*x1)*x3 - x3*(x1*x2 - x2*x1)")
    E3 = grassmann_algebra(3)
    assert is_identity_general(f, E3)
    for part in multilinearize(f):
        assert is_identity(part, E3)


def test_product_of_sums_too_large_to_expand_is_refused():
    # 16 factors (x1+x2) would expand to 65,536 words of 16 letters; the
    # product is refused at a '*' before anything is multiplied.
    text = "*".join(["(x1+x2)"] * 16)
    start = time.perf_counter()
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert time.perf_counter() - start < 0.1
    assert text[err.value.position] == "*"
    # a product within the bound still expands
    assert len(parse_poly("*".join(["(x1+x2)"] * 10)).terms) == 1024


small_polys = st.dictionaries(
    words,
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4),
    max_size=2,
).map(NcPoly)


@given(
    st.lists(st.tuples(small_polys, st.integers(min_value=0, max_value=4)), min_size=1, max_size=3)
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_products_and_powers_parse_to_the_word_product(factors):
    # a power is a product of equal factors, a^0 the empty product; at
    # most 2^12 choices of one term per factor
    text = "*".join(f"({format_poly(f)})^{e}" for f, e in factors)
    expanded = [f.terms for f, e in factors for _ in range(e)]
    assert parse_poly(text) == NcPoly(word_product_reference(expanded))


def test_a_long_monomial_copies_each_letter_once_per_level(monkeypatch):
    # x1*...*x4096 multiplied pairwise forms 12 levels of 4,096 letters; a
    # left fold forms 2 + 3 + ... + 4096, about 8.4 million
    formed = []
    mul = NcPoly.mul

    def counting_mul(self, other):
        result = mul(self, other)
        formed.append(sum(map(len, result.terms)))
        return result

    monkeypatch.setattr(NcPoly, "mul", counting_mul)
    poly = parse_poly("*".join(f"x{i}" for i in range(1, 4097)))
    assert poly.terms == {tuple(range(1, 4097)): 1}
    assert sum(formed) < 4096 * 13


def test_readme_polynomials_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = re.findall(r'--polys?[12]? "([^"]*)"', readme)
    assert len(texts) >= 8
    for text in texts:
        parse_poly(text)


poly_text = st.text(
    alphabet=st.one_of(st.sampled_from("x0123456789+-*/^() "), st.characters()),
    max_size=40,
)


@given(poly_text)
@example("x1^99999999")
@example("(x1+x2)^99")
@example("((((x1^64)^64)^64)^64)")
@example("(((2^64)^64)^64)^64")
@example("x\u00b2")
@example("x" + "1" * 5000)
@example("(" * 5000 + "x1" + ")" * 5000)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parse_poly_fuzz_raises_only_parse_errors(text):
    # powers too large to expand, non-ASCII digits, over-long numbers and
    # deep nesting are syntax errors, like any other malformed text
    try:
        poly = parse_poly(text)
    except PolyParseError:
        return
    assert parse_poly(format_poly(poly)) == poly
