"""Noncommutative polynomials over x1, x2, ... and their text grammar.

Grammar (whitespace insignificant; '*' is mandatory between factors):

    poly     := ['-'] term { ('+'|'-') term }
    term     := factor { '*' factor }
    factor   := atom [ '^' nat ]
    atom     := rational | variable | '(' poly ')'
    variable := 'x' nat
    rational := nat [ '/' nat ]

The canonical printer lists terms in lexicographic word order with an
explicit coefficient on every variable term, so print-parse-print is a
fixed point.  Multilinear polynomials of degree n (every word uses each
of x1..xn exactly once) translate back and forth to arity-n operad
elements: a permutation corresponds to the word spelled by its sequence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator, Mapping

from .linalg import _Combination, accumulate, charge, format_sum
from .operad import OperadElement
from .perms import ArityMismatch, Permutation, _trusted

__all__ = [
    "NcPoly",
    "PolyParseError",
    "act_poly",
    "format_poly",
    "multilinearize",
    "operad_to_poly",
    "parse_poly",
    "poly_to_operad",
]

Word = tuple[int, ...]

# Bounds on the powers and products that the parser expands (see parse_poly).
MAX_EXPONENT = 64
MAX_PRODUCT_SIZE = 10**6


class PolyParseError(ValueError):
    """Syntax error with the 0-based offset where parsing failed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NcPoly(_Combination):
    """Polynomial in noncommuting variables, stored as word -> coefficient."""

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[Word, Fraction | int | str]
        | Iterable[tuple[Word, Fraction | int | str]] = (),
    ) -> None:
        self._fill(terms)

    def _key(self, word: Word) -> Word:
        word = tuple(word)
        if any(v < 1 for v in word):
            raise ValueError(f"variable indices must be >= 1, got {word}")
        return word

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def constant(cls, value: Fraction | int) -> "NcPoly":
        return cls({(): value})

    @classmethod
    def variable(cls, index: int) -> "NcPoly":
        return cls({(index,): Fraction(1)})

    @classmethod
    def monomial(cls, word: Word, coeff: Fraction | int = 1) -> "NcPoly":
        return cls({tuple(word): coeff})

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def variables(self) -> set[int]:
        return {v for word in self.terms for v in word}

    def multilinear_arity(self) -> int | None:
        """Arity n if every word is a permutation of 1..n, else None."""
        if not self.terms:
            return None
        lengths = {len(w) for w in self.terms}
        if len(lengths) != 1:
            return None
        n = lengths.pop()
        target = list(range(1, n + 1))
        if all(sorted(w) == target for w in self.terms):
            return n
        return None

    def mul(self, other: "NcPoly") -> "NcPoly":
        return self._like(accumulate(
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        ))

    __mul__ = mul

    def __repr__(self) -> str:
        return f"NcPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(poly: NcPoly) -> str:
    """Canonical text; variable terms always carry an explicit coefficient."""
    return format_sum(
        (poly.terms[word], "".join(f"*x{v}" for v in word)) for word in sorted(poly.terms)
    )


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # beyond the interpreter's digit limit
            self.pos = start
            raise self.error("number too long") from None

    def parse(self) -> NcPoly:
        result = self.poly()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return result

    def poly(self) -> NcPoly:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            op = self.peek()
            if op == "+":
                self.pos += 1
                result = result + self.term()
            elif op == "-":
                self.pos += 1
                result = result - self.term()
            else:
                return result

    def term(self) -> NcPoly:
        # A power a^e is e equal factors (a^0 the factor 1).  The expansion
        # is bounded before anything is multiplied: the factors' term counts
        # multiply, a zero factor counting one, and their weights add.
        factors: list[NcPoly] = []
        terms, weight = 1, 0
        at = None  # the '*' or exponent that makes the term a product
        while True:
            base, exponent = self.atom(), 1
            if self.peek() == "^":
                self.pos += 1
                at = self.pos
                exponent = self.natural()
                if exponent > MAX_EXPONENT:
                    self.pos = at
                    raise self.error("power too large to expand")
                if exponent == 0:
                    base, exponent = NcPoly.one(), 1
            terms *= max(len(base.terms), 1) ** exponent
            weight += exponent * _weight(base)
            if at is not None and terms * weight > MAX_PRODUCT_SIZE:
                self.pos = at
                raise self.error("product too large to expand")
            factors += [base] * exponent
            if self.peek() != "*":
                break
            at = self.pos
            self.pos += 1
        # multiplied pairwise, so each letter is copied once per level
        while len(factors) > 1:
            pairs = [a.mul(b) for a, b in zip(factors[::2], factors[1::2])]
            factors = pairs + factors[len(pairs) * 2 :]
        return factors[0]

    def atom(self) -> NcPoly:
        char = self.peek()
        if char == "(":
            self.pos += 1
            inner = self.poly()
            self.take(")")
            return inner
        if char == "x":
            self.pos += 1
            index_pos = self.pos
            index = self.natural()
            if index == 0:
                self.pos = index_pos
                raise self.error("variable index must be >= 1")
            return NcPoly.variable(index)
        if "0" <= char <= "9":
            numerator = self.natural()
            if self.peek() == "/":
                self.pos += 1
                denom_pos = self.pos
                denominator = self.natural()
                if denominator == 0:
                    self.pos = denom_pos
                    raise self.error("denominator must be positive")
                return NcPoly.constant(Fraction(numerator, denominator))
            return NcPoly.constant(Fraction(numerator))
        raise self.error("expected a rational, variable, or parenthesized group")


def _weight(poly: NcPoly) -> int:
    """d + b + 1, where d is the degree and b bounds the bit size of the
    coefficients: a factor's share of the size of a product's expansion,
    which for t_i terms and weights w_i takes at most prod(t_i) * sum(w_i)
    letters and coefficient bits."""
    bits = max(
        (c.numerator.bit_length() + c.denominator.bit_length() for c in poly.terms.values()),
        default=0,
    )
    return poly.degree() + bits + 1


def parse_poly(text: str) -> NcPoly:
    """Parse polynomial text; raises PolyParseError with the failure offset.

    A power's exponent is at most MAX_EXPONENT, and a term, its powers
    counted as products of equal factors, is expanded only if its
    expansion takes at most MAX_PRODUCT_SIZE letters and coefficient bits.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("parentheses nested too deeply") from None


def operad_to_poly(theta: OperadElement) -> NcPoly:
    """Isomorphism onto multilinear polynomials: a permutation maps to the
    monomial spelled by its sequence."""
    result = NcPoly()
    result.terms = {perm.seq: coeff for perm, coeff in theta.terms.items()}
    return result


def poly_to_operad(poly: NcPoly) -> OperadElement:
    """Inverse translation; rejects anything that is not multilinear."""
    arity = poly.multilinear_arity()
    if arity is None:
        raise ValueError(
            f"not a multilinear polynomial: {format_poly(poly)}"
        )
    result = OperadElement(arity)
    # multilinear_arity has checked every word
    result.terms = {_trusted(word): coeff for word, coeff in poly.terms.items()}
    return result


def act_poly(poly: NcPoly, tau: Permutation) -> NcPoly:
    """Right action on multilinear polynomials: letter i becomes the i-th
    entry of tau's sequence (the inverse image of i)."""
    arity = poly.multilinear_arity()
    if arity is None:
        raise ValueError("the action is defined on multilinear polynomials only")
    if arity != tau.arity:
        raise ArityMismatch(f"arity mismatch: {arity} vs {tau.arity}")
    seq = tau.seq
    result = NcPoly()
    result.terms = {
        tuple(seq[v - 1] for v in word): coeff for word, coeff in poly.terms.items()
    }
    return result


def _multidegree(word: Word) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def _polarize(poly: NcPoly, variable: int, fresh_start: int) -> tuple[NcPoly, int]:
    """Replace the d occurrences of `variable` (same d in every term of a
    multihomogeneous component) by d fresh variables, summed over all d!
    assignments.  Returns the new polynomial and the next unused index."""
    degree = next(iter(poly.terms), ()).count(variable)

    def polarized():
        for word, coeff in poly.terms.items():
            positions = [i for i, v in enumerate(word) if v == variable]
            fresh = range(fresh_start, fresh_start + len(positions))
            for assignment in _itertools_permutations(fresh):
                new_word = list(word)
                for pos, fresh_var in zip(positions, assignment):
                    new_word[pos] = fresh_var
                yield tuple(new_word), coeff

    # Putting `variable` back for the fresh letters recovers the word, so no
    # two polarized words are equal and none needs summing.
    result = NcPoly()
    result.terms = dict(polarized())
    return result, fresh_start + degree


def _formed(
    components: Mapping[tuple[tuple[int, int], ...], dict], letters: bool = False
) -> Iterator[int]:
    """Running count of the words (with `letters`, of their letters) that
    polarizing the components forms, multiplied out one factor of each d!
    at a time, so that a refusal stops at a total within a factor of d of
    the budget."""
    done = 0
    for profile, terms in components.items():
        count = len(terms) * (sum(d for _, d in profile) if letters else 1)
        for _, degree in profile:
            for factor in range(2, degree + 1):
                count *= factor
                yield done + count
        done += count
        yield done


def _renumber_by_first_occurrence(poly: NcPoly) -> NcPoly:
    mapping: dict[int, int] = {}
    for word in sorted(poly.terms):
        for v in word:
            if v not in mapping:
                mapping[v] = len(mapping) + 1
    result = NcPoly()
    result.terms = {
        tuple(mapping[v] for v in word): coeff for word, coeff in poly.terms.items()
    }
    return result


def multilinearize(poly: NcPoly) -> list[NcPoly]:
    """Full linearization: split into multihomogeneous components, polarize
    every repeated variable into fresh ones, and renumber canonically.

    In characteristic zero each output vanishes wherever the input does,
    and the input is recoverable from the outputs by identifying variables,
    so the set captures the same identities.  Degrees never grow.

    Refused with BudgetExceeded before anything is polarized when the
    words it forms, per component its term count times d! for each
    variable of degree d, exceed DEFAULT_BUDGET; then when their letters,
    per component its words times its degree, do.
    """
    if poly.is_zero():
        raise ValueError("cannot multilinearize the zero polynomial")
    components: dict[tuple[tuple[int, int], ...], dict[Word, Fraction]] = {}
    for word, coeff in poly.terms.items():
        components.setdefault(_multidegree(word), {})[word] = coeff
    charge(_formed(components), what="multilinearizing forms {} words")
    charge(_formed(components, letters=True), what="multilinearizing forms {} letters")
    results = []
    for degree_profile, terms in sorted(components.items()):
        component = NcPoly()
        component.terms = dict(terms)
        fresh_start = max((v for v, _ in degree_profile), default=0) + 1
        for variable, degree in degree_profile:
            if degree > 1:
                component, fresh_start = _polarize(component, variable, fresh_start)
        results.append(_renumber_by_first_occurrence(component))
    return results
