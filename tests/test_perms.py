import copy
import math
import pickle
import random
from itertools import permutations, product

import pytest

from oplab import (
    ArityMismatch,
    Permutation,
    SparseVector,
    all_permutations,
    block_compose,
    format_permutation,
    from_vector,
    identity,
    multiply,
    parse_permutation,
    perm_index,
)
from oplab.perms import (
    arrangement_classes,
    rank,
    sn_generators,
    unit_contraction_table,
    unit_shift_table,
    unrank,
)
from oracles import word_substitution_compose


def test_sequence_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    assert Permutation(()).arity == 0


def test_permutation_value_semantics():
    p = Permutation([2, 1, 3])
    assert p.seq == (2, 1, 3)
    assert repr(p) == "Permutation((2, 1, 3))"
    # equal and hashed by sequence, and only to another Permutation
    assert p == Permutation((2, 1, 3)) and p != Permutation((1, 2, 3))
    assert p != (2, 1, 3) and (2, 1, 3) != p
    assert hash(p) == hash(((2, 1, 3),))
    assert len({p, Permutation((2, 1, 3)), identity(3)}) == 2
    # immutable
    with pytest.raises(AttributeError):
        p.seq = (1, 2, 3)
    with pytest.raises(AttributeError):
        p.other = 1
    with pytest.raises(AttributeError):
        del p.seq
    assert p.seq == (2, 1, 3)
    assert pickle.loads(pickle.dumps(p)) == p and copy.deepcopy(p) == p


def test_unchecked_permutations_behave_like_checked_ones():
    # all_permutations and from_vector build their permutations unchecked
    every = from_vector(3, SparseVector(6, {i: 1 for i in range(6)}))
    for q in all_permutations(3) + tuple(every.terms):
        checked = Permutation(q.seq)
        assert q == checked and hash(q) == hash(checked) and repr(q) == repr(checked)
        with pytest.raises(AttributeError):
            q.seq = (1, 2, 3)
        assert pickle.loads(pickle.dumps(q)) == checked
    with pytest.raises(ValueError):
        Permutation((1, 3))


def test_identity_and_multiply():
    assert multiply(identity(3), Permutation((2, 3, 1))) == Permutation((2, 3, 1))
    sigma = Permutation((3, 1, 2))
    assert multiply(sigma, sigma.inverse()) == identity(3)
    # an involution squares to the identity
    assert multiply(Permutation((2, 1)), Permutation((2, 1))) == identity(2)
    with pytest.raises(ArityMismatch):
        multiply(identity(2), identity(3))


def test_inverse_examples():
    assert identity(4).inverse() == identity(4)
    # invert the function table by hand: (2,3,1) names sigma with
    # sigma(2)=1, sigma(3)=2, sigma(1)=3, so the inverse sequence is (3,1,2)
    assert Permutation((2, 3, 1)).inverse() == Permutation((3, 1, 2))
    rng = random.Random(0)
    for _ in range(20):
        seq = list(range(1, 6))
        rng.shuffle(seq)
        p = Permutation(tuple(seq))
        assert p.inverse().inverse() == p


def test_sequence_and_function_table_swap_under_inversion():
    for p in all_permutations(4):
        assert p.function_table() == p.inverse().seq
        # applying as a function agrees with the table
        assert tuple(p.apply(i) for i in range(1, 5)) == p.function_table()


def test_multiply_matches_function_composition():
    rng = random.Random(1)
    for _ in range(30):
        a = list(range(1, 5))
        b = list(range(1, 5))
        rng.shuffle(a)
        rng.shuffle(b)
        pa, pb = Permutation(tuple(a)), Permutation(tuple(b))
        prod = multiply(pa, pb)
        for x in range(1, 5):
            assert prod.apply(x) == pa.apply(pb.apply(x))


def test_block_compose_examples():
    assert block_compose(identity(2), [identity(1), identity(1)]) == identity(2)
    assert block_compose(identity(2), [identity(2), identity(2)]) == identity(4)
    assert block_compose(
        Permutation((2, 1)), [Permutation((2, 1)), Permutation((1,))]
    ) == Permutation((3, 2, 1))


def test_block_compose_identity_outer_concatenates():
    parts = [Permutation((2, 1)), Permutation((1, 3, 2))]
    composed = block_compose(identity(2), parts)
    assert composed.seq == (2, 1, 3, 5, 4)


def test_block_compose_unit_parts_fix_everything():
    for p in all_permutations(3):
        assert block_compose(p, [identity(1)] * 3) == p


def test_block_compose_deletes_empty_slots():
    # arity-0 parts remove their letters entirely
    result = block_compose(Permutation((2, 1)), [identity(0), identity(1)])
    assert result == identity(1)


def test_block_compose_wrong_part_count():
    with pytest.raises(ArityMismatch):
        block_compose(identity(2), [identity(1)])


def _small_perms(max_arity):
    out = []
    for n in range(max_arity + 1):
        out.extend(all_permutations(n))
    return out


def test_block_compose_matches_word_substitution_oracle():
    parts_pool = _small_perms(2)
    for outer_arity in (1, 2, 3):
        for outer in all_permutations(outer_arity):
            for parts in product(parts_pool, repeat=outer_arity):
                assert block_compose(outer, list(parts)) == word_substitution_compose(
                    outer, list(parts)
                )
    # arity-4 outers against random part tuples
    rng = random.Random(9)
    for outer in all_permutations(4):
        for _ in range(5):
            parts = [rng.choice(parts_pool) for _ in range(4)]
            assert block_compose(outer, parts) == word_substitution_compose(
                outer, parts
            )


def test_block_compose_two_stage_associativity():
    # composing in two stages equals composing the flattened data in one
    for outer in _small_perms(3):
        if outer.arity == 0:
            continue
        for parts in product(all_permutations(1) + all_permutations(2), repeat=outer.arity):
            middle = block_compose(outer, list(parts))
            inner_pool = all_permutations(1) + all_permutations(2)
            random.seed(str(outer.seq) + str(tuple(p.seq for p in parts)))
            inners = [random.choice(inner_pool) for _ in range(middle.arity)]
            staged = block_compose(middle, inners)
            # flatten: substitute into each part the matching chunk of inners
            chunks = []
            at = 0
            for part in parts:
                chunks.append(inners[at : at + part.arity])
                at += part.arity
            flattened = block_compose(
                outer,
                [
                    block_compose(part, chunk) if part.arity else part
                    for part, chunk in zip(parts, chunks)
                ],
            )
            assert staged == flattened


def test_lexicographic_enumeration_and_index():
    perms = all_permutations(3)
    assert [p.seq for p in perms[:3]] == [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    for i, p in enumerate(perms):
        assert perm_index(p) == i


def test_sign_parity_of_sequence():
    assert identity(5).sign() == 1
    assert Permutation((2, 1)).sign() == -1
    # sign is multiplicative
    for a in all_permutations(3):
        for b in all_permutations(3):
            assert multiply(a, b).sign() == a.sign() * b.sign()


def test_permutation_text_round_trip():
    assert format_permutation(Permutation((3, 2, 1))) == "(3,2,1)"
    assert parse_permutation("(3,2,1)") == Permutation((3, 2, 1))
    assert parse_permutation("()") == identity(0)
    with pytest.raises(ValueError):
        parse_permutation("3,2,1")
    for p in all_permutations(4):
        assert parse_permutation(format_permutation(p)) == p


def test_unit_index_tables_match_block_compose():
    # The spanning family's index maps against element-free block
    # composition with identity parts, on every small shape.
    for k in range(0, 4):
        for sizes in product(range(0, 3), repeat=k):
            table = unit_contraction_table(sizes)
            for i, sigma in enumerate(all_permutations(k)):
                expected = (
                    block_compose(sigma, [identity(s) for s in sizes]) if k else sigma
                )
                assert table[i] == perm_index(expected)
    for left, arity, right in product(range(3), range(4), range(3)):
        table = unit_shift_table(left, arity, right)
        outer = identity(3)
        for i, sigma in enumerate(all_permutations(arity)):
            expected = block_compose(outer, [identity(left), sigma, identity(right)])
            assert table[i] == perm_index(expected)
        assert len(set(table)) == len(table)


def test_unit_index_tables_match_block_compose_up_to_arity_seven():
    # Random shapes beyond the exhaustive small ones, each with an empty
    # and a multi-letter block.
    rng = random.Random(7)
    for k in range(2, 8):
        for _ in range(3):
            sizes = [0, rng.randint(2, 3)] + [rng.randint(0, 3) for _ in range(k - 2)]
            rng.shuffle(sizes)
            table = unit_contraction_table(sizes)
            units = [identity(s) for s in sizes]
            for i, sigma in enumerate(all_permutations(k)):
                assert table[i] == perm_index(block_compose(sigma, units))
    for arity in range(4, 8):
        left, right = rng.randint(0, 3), rng.randint(0, 3)
        table = unit_shift_table(left, arity, right)
        for i, sigma in enumerate(all_permutations(arity)):
            padded = block_compose(identity(3), [identity(left), sigma, identity(right)])
            assert table[i] == perm_index(padded)


def test_rank_and_unrank_follow_the_lex_enumeration():
    for k in range(8):
        for i, seq in enumerate(permutations(range(1, k + 1))):
            assert rank(seq) == i
            assert unrank(i, k) == seq
    for k in range(5):
        for index in (-1, math.factorial(k), math.factorial(k) + 7):
            with pytest.raises(ValueError):
                unrank(index, k)


def test_sn_generators_generate_the_group():
    for n in range(0, 6):
        reached = {identity(n)}
        frontier = [identity(n)]
        while frontier:
            p = frontier.pop()
            for g in sn_generators(n):
                q = multiply(p, g)
                if q not in reached:
                    reached.add(q)
                    frontier.append(q)
        assert len(reached) == len(all_permutations(n))
        assert len(sn_generators(n)) == min(max(n - 1, 0), 2)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in _compositions(n - head):
            yield (head,) + tail


def test_arrangement_classes():
    # For a multiplicity pattern: the classes partition S_n; each class is
    # the prod m_i! permutations of one arrangement of the labels; its
    # representative is the lex-first member.
    for n in range(1, 7):
        perms = all_permutations(n)
        for pattern in _compositions(n):
            labels = [label for label, size in enumerate(pattern) for _ in range(size)]
            reps, cls = arrangement_classes(pattern)
            assert len(cls) == len(perms)
            assert set(cls) == set(range(len(reps)))
            members: dict[int, list] = {}
            for si, p in enumerate(perms):
                members.setdefault(cls[si], []).append(p.seq)
            size = math.prod(math.factorial(m) for m in pattern)
            assert len(reps) == len(perms) // size
            arrangements = set()
            for k, rep in enumerate(reps):
                found = {tuple(labels[v - 1] for v in seq) for seq in members[k]}
                assert len(members[k]) == size and len(found) == 1
                assert rep == min(members[k])
                arrangements |= found
            assert len(arrangements) == len(reps)
            assert reps == sorted(reps)
