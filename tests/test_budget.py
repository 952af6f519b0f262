"""The work budget: `charge`, the one place a count is refused, and every
entry point that refuses through it."""

import math
import time
from functools import partial
from itertools import count

import pytest

from oplab.algebras import grassmann_algebra, is_identity, is_identity_general, matrix_algebra
from oplab.freealg import multilinearize, parse_poly, poly_to_operad
from oplab.ideals import (
    GeneratorSet,
    IdealSlice,
    codimension,
    ideal_slice_closure,
    ideal_slice_spanning,
    identities_slice,
    verify_ideal_closure,
)
from oplab.linalg import DEFAULT_BUDGET, BudgetExceeded, RowBasis, charge
from oplab.operad import OperadElement


def test_charge_stops_at_the_first_total_over_the_budget():
    pulled = []

    def totals():
        for total in (1, 5, 10, 11, 12):
            pulled.append(total)
            yield total

    with pytest.raises(BudgetExceeded) as refused:
        charge(totals(), 10, what="forming {} things")
    assert pulled == [1, 5, 10, 11]  # 12 is never pulled
    assert (refused.value.needed, refused.value.budget) == (11, 10)
    assert str(refused.value) == "forming 11 things, more than the budget of 10"
    # an endless count is refused at its first total over the default budget
    with pytest.raises(BudgetExceeded) as refused:
        charge(count(0, 10**6))
    assert refused.value.needed == DEFAULT_BUDGET + 10**6


def test_charge_returns_the_last_total_and_keeps_the_default_message():
    assert charge([]) == 0
    assert charge(iter([3, 10]), 10) == 10  # a total at the budget fits
    with pytest.raises(BudgetExceeded) as refused:
        charge([DEFAULT_BUDGET + 1])
    assert str(refused.value) == (
        "enumeration needs 10000001 tuple evaluations, budget is 10000000"
    )
    assert str(BudgetExceeded(7, 5)) == "enumeration needs 7 tuple evaluations, budget is 5"


def monomial(n):
    return parse_poly("*".join(f"x{i}" for i in range(1, n + 1)))


COMMUTATOR = GeneratorSet([poly_to_operad(parse_poly("x1*x2 - x2*x1"))])


def family_with_a_row_at(n):
    """Zero slices below n, and one nonzero row at arity n."""
    top = RowBasis(math.factorial(n))
    top.insert({0: 1})
    return {**{m: IdealSlice.zero(m) for m in range(1, n)}, n: IdealSlice(n, top)}


# Each case builds its input, then names the call that must refuse it.
REFUSALS = {
    "spanning width": lambda: (ideal_slice_spanning, COMMUTATOR, 11),
    "spanning width of a huge arity": lambda: (ideal_slice_spanning, COMMUTATOR, 5000),
    "evaluation width": lambda: (codimension, matrix_algebra(2), 11),
    "closure window": lambda: (ideal_slice_closure, COMMUTATOR, 11),
    "closure window of a huge arity": lambda: (ideal_slice_closure, COMMUTATOR, 3000),
    "contractions": lambda: (
        ideal_slice_spanning, GeneratorSet([OperadElement.unit(60)]), 10
    ),
    "evaluation tuples": lambda: (partial(identities_slice, budget=875), grassmann_algebra(6), 5),
    "is_identity": lambda: (is_identity, monomial(12), matrix_algebra(2)),
    "is_identity of 8000 letters": lambda: (is_identity, monomial(8000), matrix_algebra(2)),
    "closure-verify": lambda: (verify_ideal_closure, family_with_a_row_at(11), 11),
    "multilinearize": lambda: (multilinearize, parse_poly("x1^11")),
    "multilinearize x1^4096": lambda: (multilinearize, parse_poly("(x1^64)^64")),
    "multilinearize letters": lambda: (multilinearize, parse_poly("x1^10")),
    "check-identity of a power": lambda: (
        is_identity_general, parse_poly("x1^12"), matrix_algebra(2)
    ),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_is_quick_and_short(case):
    call, *args = case()
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as refused:
        call(*args)
    assert time.perf_counter() - start < 1.0
    assert len(str(refused.value)) < 200
    assert refused.value.needed > refused.value.budget


def test_closure_verify_refuses_a_row_whose_translates_exceed_the_budget():
    with pytest.raises(BudgetExceeded) as refused:
        verify_ideal_closure(family_with_a_row_at(11), 11)
    assert str(refused.value) == (
        "a slice of arity 11 spans 11! coordinates, more than the budget of 10000000"
    )


def test_multilinearize_charges_the_words_it_forms():
    # x1^11 forms 11! = 39,916,800 words; x1^12 is refused at the same
    # running total, before its 12th factor
    for power in ("x1^11", "x1^12"):
        with pytest.raises(BudgetExceeded) as refused:
            multilinearize(parse_poly(power))
        assert refused.value.needed == math.factorial(11)
        assert str(refused.value) == (
            "multilinearizing forms 39916800 words, more than the budget of 10000000"
        )
    # 2 * 3! * 4! = 288 words across two components fit
    assert len(multilinearize(parse_poly("x1^3*x2^4 + x2^4*x1^3 + x1"))) == 2


def test_multilinearize_charges_the_letters_it_forms():
    # x1^10 forms 10! = 3,628,800 words, within the budget, of 10 letters
    # each; the words are charged first (x1^11 and x1^12 above)
    with pytest.raises(BudgetExceeded) as refused:
        multilinearize(parse_poly("x1^10"))
    assert refused.value.needed == 10 * math.factorial(10)
    assert str(refused.value) == (
        "multilinearizing forms 36288000 letters, more than the budget of 10000000"
    )
    # 2 * 5! * 4! = 5,760 words of 9 letters fit
    assert len(multilinearize(parse_poly("x1^5*x2^4 + x2^4*x1^5"))[0].terms) == 5760
