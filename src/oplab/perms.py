"""Permutations in sequence form, with group and block-composition ops.

A permutation s of {1..n} is stored as the sequence
(s^{-1}(1), ..., s^{-1}(n)); equivalently, the sequence (i_1, ..., i_n)
names the permutation sending i_k to k.  The identity of S_n has
sequence (1, 2, ..., n), and S_0 consists of the single empty
permutation.  Sequence order (tuple order) is the fixed coordinate
order used everywhere downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, permutations as _lex_permutations
from typing import Sequence

__all__ = [
    "ArityMismatch",
    "Permutation",
    "all_permutations",
    "arrangement_classes",
    "block_compose",
    "format_permutation",
    "identity",
    "multiply",
    "parse_permutation",
    "perm_index",
    "rank",
    "sn_generators",
    "unit_contraction_table",
    "unit_shift_table",
    "unrank",
]


class ArityMismatch(ValueError):
    """Raised when permutations of different arities are combined."""


class Permutation:
    """An immutable permutation, equal to another exactly when their
    sequences are equal."""

    __slots__ = ("seq",)

    def __init__(self, seq: Sequence[int]) -> None:
        seq = tuple(seq)
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"{seq!r} is not a permutation sequence of 1..{len(seq)}")
        object.__setattr__(self, "seq", seq)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Permutation, (self.seq,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Permutation:
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self) -> int:
        return hash((self.seq,))

    @property
    def arity(self) -> int:
        return len(self.seq)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.seq)
        for k, value in enumerate(self.seq, start=1):
            inv[value - 1] = k
        return Permutation(tuple(inv))

    def function_table(self) -> tuple[int, ...]:
        """The values (s(1), ..., s(n)); equals the inverse's sequence."""
        return self.inverse().seq

    def apply(self, value: int) -> int:
        """Apply the permutation as a function {1..n} -> {1..n}."""
        if not 1 <= value <= len(self.seq):
            raise ValueError(f"{value} outside 1..{len(self.seq)}")
        return self.seq.index(value) + 1

    def sign(self) -> int:
        """Parity sign; the sequence has the same parity as the permutation."""
        seq = self.seq
        inversions = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        return -1 if inversions % 2 else 1

    def __repr__(self) -> str:
        return f"Permutation({self.seq!r})"

    def __str__(self) -> str:
        return format_permutation(self)


def _trusted(seq: tuple[int, ...]) -> Permutation:
    """Permutation(seq) without its check, for a seq that is one by construction."""
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "seq", seq)
    return perm


@lru_cache(maxsize=None)
def identity(arity: int) -> Permutation:
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return Permutation(tuple(range(1, arity + 1)))


def multiply(left: Permutation, right: Permutation) -> Permutation:
    """Group product left*right (apply right, then left, as functions)."""
    if left.arity != right.arity:
        raise ArityMismatch(f"arity mismatch: {left.arity} vs {right.arity}")
    rseq = right.seq
    return Permutation(tuple(rseq[v - 1] for v in left.seq))


def block_compose(outer: Permutation, parts: Sequence[Permutation]) -> Permutation:
    """Substitute parts[i] into slot i of outer, as permutations.

    The result concatenates the shifted part sequences in the order given
    by the outer sequence; parts of arity 0 delete their slot.
    """
    if outer.arity == 0 or len(parts) != outer.arity:
        raise ArityMismatch(
            f"outer arity {outer.arity} requires exactly that many parts, got {len(parts)}"
        )
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.arity
    blocks = [
        tuple(offset + v for v in part.seq) for offset, part in zip(offsets, parts)
    ]
    result: list[int] = []
    for slot in outer.seq:
        result.extend(blocks[slot - 1])
    return Permutation(tuple(result))


def all_permutations(arity: int) -> tuple[Permutation, ...]:
    """All of S_arity in lexicographic sequence order, built afresh."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return tuple(map(_trusted, _lex_permutations(range(1, arity + 1))))


def rank(seq: Sequence[int]) -> int:
    """Position of the permutation sequence `seq` in the lexicographic
    enumeration of its arity: its Lehmer code (digit i counts the later
    entries smaller than seq[i]) read in the factorial number system.  The
    entries must be 1..len(seq) in some order; that is not checked."""
    index = used = 0
    radix = len(seq)
    for value in seq:
        bit = 1 << value
        index = index * radix + value - 1 - (used & (bit - 1)).bit_count()
        used |= bit
        radix -= 1
    return index


def unrank(index: int, arity: int) -> tuple[int, ...]:
    """The sequence at position `index` of the lexicographic enumeration of
    S_arity, the inverse of rank; ValueError unless 0 <= index < arity!."""
    if not 0 <= index < math.factorial(arity):
        raise ValueError(f"index {index} outside 0..{arity}!-1")
    free = list(range(1, arity + 1))
    seq = []
    for place in range(arity - 1, -1, -1):
        digit, index = divmod(index, math.factorial(place))
        seq.append(free.pop(digit))
    return tuple(seq)


def perm_index(perm: Permutation) -> int:
    """Position of perm in the lexicographic enumeration of its arity."""
    return rank(perm.seq)


@lru_cache(maxsize=None)
def sn_generators(arity: int) -> tuple[Permutation, ...]:
    """A generating pair of S_arity: the adjacent swap (2,1,3,...,n) and the
    full cycle (2,...,n,1).  Arity 2 needs only the swap; below it, none."""
    if arity < 2:
        return ()
    swap = Permutation((2, 1) + tuple(range(3, arity + 1)))
    if arity == 2:
        return (swap,)
    return (swap, Permutation(tuple(range(2, arity + 1)) + (1,)))


def arrangement_classes(
    pattern: Sequence[int],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The arrangements of a multiset with multiplicity pattern (m_1, ...,
    m_k): letters 1..m_1 carry label 0, the next m_2 letters label 1, and
    so on, and a permutation's arrangement is the label word of its
    sequence.  Returns the lex-first sequence of each distinct arrangement
    (the minimal coset representatives of the Young subgroup S_{m_1} x
    ... x S_{m_k}), in lex order, and cls, where cls[si] is the position
    in that list of the arrangement of the permutation with lex index si.
    """
    # labels[v]: the label of letter v (labels[0] is unused)
    labels = [0] + [label for label, size in enumerate(pattern) for _ in range(size)]
    position: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    cls: list[int] = []
    for seq in _lex_permutations(range(1, len(labels))):
        key = tuple(map(labels.__getitem__, seq))
        k = position.get(key)
        if k is None:
            # Sequences come in lex order, so the first of an arrangement
            # is its lex-first member.
            k = position[key] = len(reps)
            reps.append(seq)
        cls.append(k)
    return reps, cls


def unit_contraction_table(sizes: Sequence[int]) -> list[int]:
    """Index map S_k -> S_m, k = len(sizes), m = sum(sizes), of
    sigma -> block_compose(sigma, [identity(s) for s in sizes]).

    Slots of size 0 contract away, so the map need not be injective.

    Each letter of slot j's block has the same Lehmer digit: the total size
    of the smaller slots after j.  So the sigma of a subset of slots that
    start with j have the indices of the subset without j, shifted by that
    digit times the place values of j's letters.  Subsets come in
    increasing order, each after the subsets it holds.
    """
    # below[t] = 0! + ... + (t-1)!: the first s of t letters have the place
    # values (t-1)!, ..., (t-s)!, whose sum is below[t] - below[t - s]
    below = [0, *accumulate(map(math.factorial, range(sum(sizes))))]
    tables = [[0]]
    totals = [0]
    for subset in range(1, 1 << len(sizes)):
        lowest = (subset & -subset).bit_length() - 1
        total = totals[subset ^ 1 << lowest] + sizes[lowest]
        totals.append(total)
        table: list[int] = []
        smaller = 0
        for j, size in enumerate(sizes):
            if subset >> j & 1:
                rest = tables[subset ^ 1 << j]
                shift = smaller * (below[total] - below[total - size])
                table += [shift + i for i in rest] if shift else rest
                smaller += size
        tables.append(table)
    return tables[-1]


def unit_shift_table(left: int, arity: int, right: int) -> list[int]:
    """Index map S_arity -> S_{left+arity+right} of sigma -> 1_3 o (1_left,
    sigma, 1_right), whose sequence is (1..left, sigma + left, then the rest
    in order).  The map is injective: the padded sequence has sigma's Lehmer
    digits, and zeros around them, at the place values of their positions."""
    table = [0]
    for i in range(arity):
        place = math.factorial(arity - 1 - i + right)
        table = [t + digit * place for t in table for digit in range(arity - i)]
    return table


def format_permutation(perm: Permutation) -> str:
    return "(" + ",".join(str(v) for v in perm.seq) + ")"


def parse_permutation(text: str) -> Permutation:
    """Parse the textual form "(i1,i2,...,in)"; "()" is the empty permutation."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"permutation literal must be parenthesized: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return identity(0)
    try:
        seq = tuple(int(v.strip()) for v in inner.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid permutation literal {text!r}") from exc
    return Permutation(seq)
