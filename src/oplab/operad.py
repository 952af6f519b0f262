"""Rational linear combinations of same-arity permutations.

Elements carry the full and partial block compositions (multilinear in
every slot) and the right regular action of the symmetric group.  The
coordinate order for vector conversion is the lexicographic enumeration
of permutation sequences.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import perms
from .linalg import SparseVector, _Combination, accumulate, format_sum, parse_rational
from .perms import (
    ArityMismatch,
    Permutation,
    _trusted,
    all_permutations,
    format_permutation,
    identity,
    multiply,
    rank,
    unrank,
)

__all__ = [
    "NONUNITAL",
    "OperadElement",
    "UNITAL",
    "act",
    "format_element",
    "from_vector",
    "full_compose",
    "parse_element",
    "partial_compose",
    "standard_polynomial",
    "to_vector",
]

UNITAL = "unital"
NONUNITAL = "nonunital"


def lowest_arity(mode: str) -> int:
    """The lowest arity of an element: 0 in unital mode (the nullary identity), else 1."""
    if mode not in (UNITAL, NONUNITAL):
        raise ValueError(f"mode must be {UNITAL!r} or {NONUNITAL!r}")
    return 0 if mode == UNITAL else 1


class OperadElement(_Combination):
    """Finite linear combination of permutations of one fixed arity."""

    __slots__ = ("arity",)
    _space_name = "arity"
    _mismatch = ArityMismatch

    def __init__(
        self,
        arity: int,
        terms: Mapping[Permutation, Fraction | int | str]
        | Iterable[tuple[Permutation, Fraction | int | str]] = (),
    ) -> None:
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        self._fill(terms)

    def _key(self, perm: Permutation) -> Permutation:
        if perm.arity != self.arity:
            raise ArityMismatch(
                f"term {perm} has arity {perm.arity}, element has arity {self.arity}"
            )
        return perm

    @classmethod
    def zero(cls, arity: int) -> "OperadElement":
        return cls(arity)

    @classmethod
    def unit(cls, arity: int) -> "OperadElement":
        """The identity permutation of the given arity with coefficient 1."""
        return cls(arity, {identity(arity): Fraction(1)})

    @classmethod
    def basis(cls, perm: Permutation, coeff: Fraction | int = 1) -> "OperadElement":
        return cls(perm.arity, {perm: coeff})

    def coefficient(self, perm: Permutation) -> Fraction:
        return self.terms.get(perm, Fraction(0))

    def __repr__(self) -> str:
        return f"OperadElement({self.arity}, {format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


def full_compose(theta: OperadElement, parts: Sequence[OperadElement]) -> OperadElement:
    """Compose theta with one element per slot; multilinear in every slot."""
    if theta.arity < 1:
        raise ArityMismatch("full composition needs at least one slot")
    if len(parts) != theta.arity:
        raise ArityMismatch(
            f"expected {theta.arity} parts, got {len(parts)}"
        )
    part_items = [list(p.terms.items()) for p in parts]
    result = OperadElement(sum(p.arity for p in parts))
    result.terms = accumulate(
        (
            # through perms, so that this module holds no second reference
            # for a wrapper of perms.block_compose to miss or leave behind
            perms.block_compose(outer, [perm for perm, _ in combo]),
            math.prod((c for _, c in combo), start=coeff),
        )
        for outer, coeff in theta.terms.items()
        for combo in product(*part_items)
    )
    return result


def partial_compose(mu: OperadElement, slot: int, nu: OperadElement) -> OperadElement:
    """Plug nu into input slot `slot` of mu (1-based); arity-0 nu contracts."""
    if mu.arity < 1:
        raise ArityMismatch("partial composition needs an element of arity >= 1")
    if not 1 <= slot <= mu.arity:
        raise ArityMismatch(f"slot {slot} out of range 1..{mu.arity}")
    unit1 = OperadElement.unit(1)
    parts = [unit1] * mu.arity
    parts[slot - 1] = nu
    return full_compose(mu, parts)


def act(theta: OperadElement, tau: Permutation) -> OperadElement:
    """Right regular action: each basis term sigma goes to sigma*tau."""
    if theta.arity != tau.arity:
        raise ArityMismatch(f"arity mismatch: {theta.arity} vs {tau.arity}")
    result = OperadElement(theta.arity)
    result.terms = {multiply(perm, tau): c for perm, c in theta.terms.items()}
    return result


def to_vector(theta: OperadElement) -> SparseVector:
    """Coordinates in the lexicographic permutation order; dimension arity!."""
    vec = SparseVector(math.factorial(theta.arity))
    vec.entries = {rank(p.seq): c for p, c in theta.terms.items()}
    return vec


def from_vector(arity: int, vec: SparseVector) -> OperadElement:
    if vec.dimension != math.factorial(arity):
        raise ArityMismatch(
            f"vector dimension {vec.dimension} is not {arity}!"
        )
    result = OperadElement(arity)
    result.terms = {_trusted(unrank(i, arity)): c for i, c in vec.entries.items()}
    return result


def standard_polynomial(arity: int) -> OperadElement:
    """Alternating sum of all permutations, each weighted by its sign."""
    if arity < 1:
        raise ValueError("standard polynomial needs arity >= 1")
    result = OperadElement(arity)
    result.terms = {p: Fraction(p.sign()) for p in all_permutations(arity)}
    return result


def format_element(theta: OperadElement) -> str:
    """Canonical text: "c1*(seq1) + c2*(seq2)" in lexicographic seq order."""
    return format_sum(
        (theta.terms[perm], "*" + format_permutation(perm))
        for perm in sorted(theta.terms, key=lambda p: p.seq)
    )


_TERM_RE = re.compile(
    r"""
    \s*(?P<sign>[+-])?\s*
    (?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*\*\s*)?
    \((?P<seq>[\d\s,]*)\)
    """,
    re.VERBOSE,
)


def parse_element(text: str, arity: int | None = None) -> OperadElement:
    """Parse the canonical element text; "0" needs an explicit arity."""
    body = text.strip()
    if body == "0":
        if arity is None:
            raise ValueError("the zero element needs an explicit arity")
        return OperadElement.zero(arity)
    pos = 0
    terms: list[tuple[Permutation, Fraction]] = []
    first = True
    while pos < len(body):
        match = _TERM_RE.match(body, pos)
        if not match or (not first and match.group("sign") is None):
            raise ValueError(f"cannot parse element text at position {pos}: {text!r}")
        sign = -1 if match.group("sign") == "-" else 1
        coeff_text = match.group("coeff")
        coeff = parse_rational(coeff_text.replace(" ", "")) if coeff_text else Fraction(1)
        seq_text = match.group("seq").strip()
        if seq_text:
            seq = tuple(int(v) for v in seq_text.split(","))
        else:
            seq = ()
        terms.append((Permutation(seq), sign * coeff))
        pos = match.end()
        first = False
    arities = {perm.arity for perm, _ in terms}
    if len(arities) != 1:
        raise ValueError(f"mixed arities in element text: {sorted(arities)}")
    found = arities.pop()
    if arity is not None and arity != found:
        raise ValueError(f"expected arity {arity}, found {found}")
    return OperadElement(found, terms)
