"""Exact sparse linear algebra over the rationals.

Vectors are sparse maps from 0-based coordinate indices to nonzero
``Fraction`` values.  A basis is kept in a canonical echelon form on
primitive integer rows (positive pivots, pivot columns eliminated
everywhere else), in bijection with reduced row-echelon form, so two
bases are structurally equal exactly when they span the same subspace.
Elimination runs fraction-free on Python ints; ``Fraction`` appears only
where vectors enter (denominators cleared once per vector) and where RREF
rows leave (:meth:`RowBasis.rows`).

The work budget lives here too, below every other module: `charge` is
the one place a count of what would be built or walked is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "DimensionMismatch",
    "RowBasis",
    "SparseVector",
    "accumulate",
    "as_fraction",
    "charge",
    "format_rational",
    "format_sum",
    "kernel_basis",
    "parse_number",
    "parse_rational",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when vectors of incompatible dimensions are combined."""


# The default cap on exhaustive work: the tuples an identity computation
# enumerates, and dim^3, the bound on the associativity checks of an
# algebra built from a spec.
DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """The requested exhaustive enumeration is larger than the budget.

    `message` replaces the default text, which counts tuple evaluations;
    `needed` may be a lower bound of the count (see `charge`)."""

    def __init__(self, needed: int, budget: int, message: str | None = None) -> None:
        super().__init__(
            message or f"enumeration needs {needed} tuple evaluations, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


def charge(totals: Iterable[int], budget: int = DEFAULT_BUDGET, what: str | None = None) -> int:
    """The last of `totals`, running counts that never decrease, or 0 if
    there are none.  Raises BudgetExceeded at the first total over the
    budget, without pulling the next, so a count that grows without bound
    is refused once it passes the budget and never formed in full; that
    total is `needed`.  The message is "{what}, more than the budget of
    {budget}", the total filling any "{}" in `what`; the default message
    counts tuple evaluations."""
    total = 0
    for total in totals:
        if total > budget:
            if what is not None:
                what = f"{what.format(total)}, more than the budget of {budget}"
            raise BudgetExceeded(total, budget, what)
    return total


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the serialized form "p" or "p/q" (q > 0).  Other forms that
    ``Fraction`` reads, such as "1e9999999" (seconds to expand), are
    rejected."""
    return Fraction(parse_number(text))


def parse_number(text: str) -> int | Fraction:
    """Parse "p" or "p/q" (q > 0) as :func:`parse_rational` does, but give
    the integral form "p" as an int."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"invalid rational literal {text!r}")
    try:
        return int(text) if "/" not in text else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q", omitting the denominator 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def accumulate(pairs: Iterable[tuple], start: Mapping | None = None) -> dict:
    """A fresh map of the per-key sums of start's items, then of the (key,
    value) pairs: keys whose sum is zero are dropped, the others keep the
    order of their first occurrence.  start must hold no zero value (no
    stored ``entries`` or ``terms`` map does) and is not mutated."""
    sums = {} if start is None else dict(start)
    get = sums.get
    for key, value in pairs:
        value = get(key, 0) + value
        if value:
            sums[key] = value
        else:
            sums.pop(key, None)
    return sums


def format_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Canonical text of (coefficient, suffix) terms, each written as its
    magnitude (format_rational) then its suffix: a leading "-" is glued to
    the first term and later terms are joined by " + " or " - "; "0" if
    there are none."""
    parts = [
        f"{'+' if coeff > 0 else '-'} {format_rational(abs(coeff))}{suffix}"
        for coeff, suffix in terms
    ]
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


class _Combination:
    """A finite exact combination: the map ``terms`` from keys to nonzero
    ``Fraction`` coefficients, in the space named by the class attribute
    ``_space_name`` (a dimension or an arity; None for one space shared by
    all).  Two combinations of one class add, and compare equal, only in
    one space; ``add`` raises ``_mismatch`` across spaces.  Subclasses
    check or normalise each key in ``_key``."""

    __slots__ = ("terms",)
    _space_name: str | None = None
    _mismatch: type[ValueError]

    def _fill(self, terms: Mapping | Iterable[tuple]) -> None:
        """Store the per-key sums of terms (a map or (key, value) pairs),
        each key passed through _key and each value through as_fraction."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        key = self._key
        self.terms = accumulate((key(k), as_fraction(raw)) for k, raw in items)

    def _space(self) -> int | None:
        return None if self._space_name is None else getattr(self, self._space_name)

    def _like(self, terms: dict):
        """A combination of self's class and space holding terms as given."""
        out = object.__new__(self.__class__)
        if self._space_name is not None:
            setattr(out, self._space_name, self._space())
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple]:
        return iter(self.terms.items())

    def add(self, other):
        if other.__class__ is not self.__class__:
            raise TypeError(f"cannot add {other.__class__.__name__} to {self.__class__.__name__}")
        if self._space() != other._space():
            raise self._mismatch(
                f"{self._space_name} mismatch: {self._space()} vs {other._space()}"
            )
        return self._like(accumulate(other.terms.items(), self.terms))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, factor: Fraction | int):
        factor = as_fraction(factor)
        return self._like({k: c * factor for k, c in self.terms.items()} if factor else {})

    __add__ = add
    __sub__ = sub

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, factor: Fraction | int):
        return self.scale(factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._space(), frozenset(self.terms.items())))


class SparseVector(_Combination):
    """Sparse vector of a fixed dimension; zero entries are never stored."""

    __slots__ = ("dimension",)
    _space_name = "dimension"
    _mismatch = DimensionMismatch
    entries = _Combination.terms  # the stored map, under its vector name

    def __init__(
        self,
        dimension: int,
        entries: Mapping[int, Fraction | int | str] | Iterable[tuple[int, Fraction | int | str]] = (),
    ) -> None:
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self._fill(entries)

    def _key(self, index: int) -> int:
        if not 0 <= index < self.dimension:
            raise DimensionMismatch(f"index {index} out of range for dimension {self.dimension}")
        return index

    @classmethod
    def from_dense(cls, values: Iterable[Fraction | int | str]) -> "SparseVector":
        dense = [as_fraction(v) for v in values]
        return cls(len(dense), {i: v for i, v in enumerate(dense) if v})

    @classmethod
    def basis_vector(cls, dimension: int, index: int) -> "SparseVector":
        return cls(dimension, {index: ONE})

    def get(self, index: int) -> Fraction:
        return self.entries.get(index, ZERO)

    def to_dense(self) -> list[Fraction]:
        return [self.entries.get(i, ZERO) for i in range(self.dimension)]

    def __repr__(self) -> str:
        body = ", ".join(
            f"{i}: {format_rational(v)}" for i, v in sorted(self.entries.items())
        )
        return f"SparseVector({self.dimension}, {{{body}}})"


class RowBasis:
    """Canonical echelon basis of a subspace of Q^dimension, on integers.

    Rows are stored keyed by pivot column as maps to nonzero ints.  Each
    row is primitive (its entries have gcd 1), its pivot entry is
    positive, and its pivot column is zero in every other row.  Dividing
    a row by its pivot entry gives the unit-pivot RREF row and scaling an
    RREF row by the least positive factor that makes it integral gives
    the stored row back, so the stored form is in bijection with reduced
    row-echelon form: it is a canonical representative of the subspace,
    and :meth:`rows` returns exactly the RREF rows.  Input vectors, given
    as SparseVectors or as plain maps from column index to value, may
    hold ``Fraction`` or int entries; their denominators are cleared once
    per vector, or the RREF rows are adopted whole (:meth:`from_rref`).
    Mutation happens only via :meth:`insert`.
    """

    __slots__ = ("dimension", "_rows")

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.dimension = dimension
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def rows(self) -> list[SparseVector]:
        """Basis rows in RREF (unit pivots), canonical order (increasing
        pivot column)."""
        out = []
        for pivot in sorted(self._rows):
            row = self._rows[pivot]
            p = row[pivot]
            vec = SparseVector(self.dimension)
            vec.entries = {c: Fraction(x, p) for c, x in row.items()}
            out.append(vec)
        return out

    def row_dicts(self) -> list[dict[int, int]]:
        """Snapshot copies of the primitive integer rows, canonical order;
        each spans the same line as the RREF row with the same pivot."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    @classmethod
    def from_rref(
        cls, dimension: int, rows: Iterable[Mapping[int, Fraction | int]]
    ) -> "RowBasis":
        """The basis whose RREF rows are `rows`, adopted without elimination.

        The rows must already be canonical RREF, in canonical order: each
        row nonempty, with nonzero entries in columns 0..dimension-1, pivot
        columns strictly increasing, each pivot entry 1, and no row nonzero
        in another row's pivot column.  Raises ValueError otherwise.
        """
        basis = cls(dimension)
        stored = basis._rows
        last = -1
        for row in rows:
            if not row:
                raise ValueError("RREF row is empty")
            pivot = min(row)
            if pivot <= last:
                raise ValueError(f"pivot {pivot} does not follow pivot {last}")
            if max(row) >= dimension:
                raise DimensionMismatch(f"row index out of range for dimension {dimension}")
            if row[pivot] != 1:
                raise ValueError(f"pivot entry {row[pivot]} in column {pivot} is not 1")
            if not all(row.values()):
                raise ValueError("RREF row stores a zero entry")
            # Over a unit pivot, clearing denominators gives the primitive row.
            stored[pivot] = _integral(row)
            last = pivot
        for pivot, row in stored.items():
            if any(c in stored for c in row if c != pivot):
                raise ValueError(f"row {pivot} is not reduced against the other pivots")
        return basis

    def _entries(self, vec: SparseVector | Mapping[int, Fraction | int]) -> Mapping:
        """vec's entries, checked to fit the dimension of the basis."""
        if isinstance(vec, SparseVector):
            if vec.dimension != self.dimension:
                raise DimensionMismatch(f"dimension mismatch: {vec.dimension} vs {self.dimension}")
            return vec.entries
        if vec and not 0 <= min(vec) <= max(vec) < self.dimension:
            raise DimensionMismatch(f"index out of range for dimension {self.dimension}")
        return vec

    def reduce(self, entries: Mapping[int, Fraction | int]) -> dict[int, int]:
        """The remainder of entries modulo the rows: a fresh integer map, a
        positive multiple of entries minus its projection on the rows, zero
        in every pivot column."""
        v = _integral(entries)
        rows = self._rows
        # Stored rows contain no pivot column other than their own, so a
        # single pass over the pivot columns present in the input suffices.
        for col in sorted(c for c in v if c in rows):
            if col in v:
                _eliminate(v, rows[col], col)
        return v

    def contains(self, vec: SparseVector | Mapping[int, Fraction | int]) -> bool:
        """True iff vec lies in the span of the basis rows."""
        return not self.reduce(self._entries(vec))

    def insert(self, vec: SparseVector | Mapping[int, Fraction | int]) -> bool:
        """Add vec to the span; returns True iff the rank grew."""
        v = self.reduce(self._entries(vec))
        if not v:
            return False
        pivot = min(v)
        content = gcd(*v.values())
        if v[pivot] < 0:
            content = -content
        if content != 1:
            v = {c: x // content for c, x in v.items()}
        # The new pivot column was free until now: clear it from all rows,
        # which keeps each row's pivot positive, and make them primitive.
        for row in self._rows.values():
            if pivot in row:
                _eliminate(row, v, pivot)
                content = gcd(*row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
        self._rows[pivot] = v
        return True

    def kernel(self) -> "RowBasis":
        """Basis of the null space {v : r·v = 0 for every basis row r}."""
        pivots = self.pivots()
        rows = [self._rows[p] for p in pivots]
        free = [c for c in range(self.dimension) if c not in self._rows]
        kernel = RowBasis(self.dimension)
        for f in free:
            # e_f - sum over rows of (row[f] / row[pivot]) e_pivot, scaled
            # by the lcm of those pivot entries.
            terms = [(pivot, row[f], row[pivot]) for pivot, row in zip(pivots, rows) if f in row]
            scale = lcm(*(p for _, _, p in terms))
            entries = {f: scale}
            for pivot, x, p in terms:
                entries[pivot] = -x * (scale // p)
            kernel.insert(entries)
        return kernel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowBasis):
            return NotImplemented
        return self.dimension == other.dimension and self._rows == other._rows

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"RowBasis(dimension={self.dimension}, rank={self.rank})"


def _eliminate(target: dict[int, int], source: Mapping[int, int], col: int) -> None:
    """target <- (b/g)*target - (a/g)*source in place, where a = target[col],
    b = source[col] > 0 and g = gcd(a, b): column col leaves target, and the
    factor on target stays positive."""
    a = target[col]
    b = source[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        for c in target:
            target[c] *= b
    for c, x in source.items():
        value = target.get(c, 0) - a * x
        if value:
            target[c] = value
        else:
            del target[c]


def _integral(entries: Mapping[int, Fraction | int]) -> dict[int, int]:
    """A fresh integer map: entries times the lcm of their denominators."""
    if all(x.__class__ is int for x in entries.values()):
        return dict(entries)
    den = lcm(*(x.denominator for x in entries.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in entries.items()}


def kernel_basis(rows: Iterable[SparseVector], dimension: int) -> RowBasis:
    """RREF basis of the null space {v : M v = 0} of the stacked rows."""
    basis = RowBasis(dimension)
    for row in rows:
        basis.insert(row)
    return basis.kernel()
