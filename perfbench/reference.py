"""Expected answers worked out without oplab.

Every value the benchmark checks comes from here: closed formulas from
the PI-theory literature, and a few texts and substitutions derived from
the definitions in oplab's README.  Nothing in this module imports oplab.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial


def matrix2_codimension(n: int) -> int:
    """c_n(M_2), Procesi's formula: C(2n+2, n+1)/(n+2) - C(n,3) + 1 - 2^n."""
    return comb(2 * n + 2, n + 1) // (n + 2) - comb(n, 3) + 1 - 2**n


def grassmann_codimension(n: int) -> int:
    """c_n(E) = 2^(n-1) (Krakowski-Regev); the exterior algebra on k
    generators agrees with it for n <= k + 1."""
    return 2 ** (n - 1)


def lie3_slice_dim(n: int) -> int:
    """The ideal generated by [[x1,x2],x3] is the T-ideal of E, so its
    arity-n slice has dimension n! - c_n(E)."""
    return factorial(n) - grassmann_codimension(n)


def commutator_slice_dim(n: int) -> int:
    """Commutative algebras have c_n = 1, so [x1,x2] (with or without s_4,
    which it already contains) generates an arity-n slice of dim n! - 1."""
    return factorial(n) - 1


def standard_slice_dim(n: int) -> int:
    """s_4 spans no element below arity 4 and exactly its own line at 4."""
    return 0 if n < 4 else 1


def sign(seq: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def standard_poly_text(n: int, relabel: tuple[int, ...]) -> str:
    """s_n with variable x_i renamed to x_relabel[i-1]; the result is +-s_n."""
    terms = []
    for seq in permutations(range(1, n + 1)):
        word = "*".join(f"x{relabel[v - 1]}" for v in seq)
        terms.append(("+" if sign(seq) > 0 else "-") + word)
    return "".join(terms).lstrip("+")


def standard_element_text(n: int, overall: int) -> str:
    """overall * s_n in the element syntax "c*(seq) +- ..."."""
    parts = []
    for seq in permutations(range(1, n + 1)):
        coeff = overall * sign(seq)
        body = "1*(" + ",".join(map(str, seq)) + ")"
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def commutator_text(a: int, b: int) -> str:
    return f"x{a}*x{b}-x{b}*x{a}"


def lie3_text(a: int, b: int) -> str:
    """[[x_a,x_b],x3]; swapping a and b only flips the sign."""
    inner = commutator_text(a, b)
    return f"({inner})*x3-x3*({inner})"


def monomial_text(seq: tuple[int, ...]) -> str:
    """Polynomial text of the monomial a permutation spells, coefficient 1."""
    return "1*" + "*".join(f"x{v}" for v in seq)


def partial_compose_seq(
    outer: tuple[int, ...], slot: int, inner: tuple[int, ...]
) -> tuple[int, ...]:
    """Substitute the word of `inner` for variable x_slot in the word of
    `outer`, renaming the inner letters to slot..slot+len-1 and shifting
    the outer letters above the slot up by len-1."""
    shift = len(inner) - 1
    word: list[int] = []
    for v in outer:
        if v < slot:
            word.append(v)
        elif v == slot:
            word.extend(slot - 1 + u for u in inner)
        else:
            word.append(v + shift)
    return tuple(word)
