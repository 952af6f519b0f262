import hashlib
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oplab.algebras as algebras
from oplab import (
    AlgebraError,
    OperadElement,
    Permutation,
    SparseVector,
    StructureAlgebra,
    all_permutations,
    algebra_from_spec,
    direct_sum,
    evaluate,
    evaluate_nullary,
    evaluate_poly,
    grassmann_algebra,
    identities_slice,
    is_identity,
    is_identity_general,
    matrix_algebra,
    operad_to_poly,
    parse_poly,
    partial_compose,
    standard_polynomial,
    tensor_product,
)
from oracles import (
    DUAL_SHIFTED,
    M2_UNIT_SPLIT,
    is_associative_reference,
    table_product,
    triple_associates,
    unit_law_holds,
)


def unit_entry(algebra, label):
    return algebra.basis_element(algebra.labels.index(label))


def test_matrix_algebra_structure():
    trivial = matrix_algebra(1)
    assert trivial.dim == 1
    assert trivial.unit.entries == {0: Fraction(1)}
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    e12, e21 = unit_entry(m2, "e12"), unit_entry(m2, "e21")
    e11, e22 = unit_entry(m2, "e11"), unit_entry(m2, "e22")
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert e12 * e12 == m2.zero_element()
    with pytest.raises(AlgebraError):
        matrix_algebra(0)


def test_grassmann_algebra_structure():
    e1_only = grassmann_algebra(1)
    gen = unit_entry(e1_only, "e1")
    assert gen * gen == e1_only.zero_element()
    e2 = grassmann_algebra(2)
    a, b, ab = unit_entry(e2, "e1"), unit_entry(e2, "e2"), unit_entry(e2, "e12")
    assert a * b == ab
    assert b * a == -1 * ab
    assert (a * b) * a == e2.zero_element()
    assert e2.dim == 4
    assert grassmann_algebra(0).dim == 1


def test_unit_laws_and_element_arithmetic():
    m2 = matrix_algebra(2)
    rng = random.Random(0)
    for _ in range(10):
        a = m2.element([rng.randint(-3, 3) for _ in range(4)])
        b = m2.element([rng.randint(-3, 3) for _ in range(4)])
        c = m2.element([rng.randint(-3, 3) for _ in range(4)])
        assert a * m2.unit_element() == a
        assert m2.unit_element() * a == a
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c


BUILDERS = {
    "M_1": lambda: matrix_algebra(1),
    "M_2": lambda: matrix_algebra(2),
    "M_3": lambda: matrix_algebra(3),
    "E_0": lambda: grassmann_algebra(0),
    "E_1": lambda: grassmann_algebra(1),
    "E_2": lambda: grassmann_algebra(2),
    "E_3": lambda: grassmann_algebra(3),
    "E_4": lambda: grassmann_algebra(4),
    "E_6": lambda: grassmann_algebra(6),
    "M_2+E_2": lambda: direct_sum([matrix_algebra(2), grassmann_algebra(2)]),
    "M_2xE_1": lambda: tensor_product(matrix_algebra(2), grassmann_algebra(1)),
    "E_1xE_1": lambda: tensor_product(grassmann_algebra(1), grassmann_algebra(1)),
    "dual shifted": lambda: algebra_from_spec(DUAL_SHIFTED),
    "M_2 unit split": lambda: algebra_from_spec(M2_UNIT_SPLIT),
}

# sha256 of each builder's canonical text (`canonical_text`), recorded when
# the builders still wrote their tables as SparseVectors.
BUILDER_HASHES = {
    "M_1": "372297b1a01e781247cef6f1d9531e6c7b1d76104773cee85912cd9b0a79aed1",
    "M_2": "95a0f03fbadc6974badeab3a67616171cc14acc9d2876e19bd14f497124bedb9",
    "M_3": "032d53171fca21f71ba7b0a0b0a5f5d084d4227e91406ff9a378972775981885",
    "E_0": "d5439d94523ea612df4643e72ef5550fdf91d3786a8ae839a742afb66264d947",
    "E_1": "7b6af850d85bb92beff5bbc81e10156d69dd9f4c57654da70f0943e7ee79955c",
    "E_2": "d4585ab05d908c648867391f7069a20b94b2e06f3d54ce520dca399ac074c308",
    "E_3": "c510ce975423275375cb957b95b701cddc8ff2280c6808693c070552803f5ad8",
    "E_4": "cafc97de1fbbcc537497ceef7b2df9832f95493e5e559120d5cfa6a3f886f55e",
    "E_6": "093d7f6f39232620d6f47490e766eac2009d0b5524883b40f55562f9b07a6fc1",
    "M_2+E_2": "057cf464c697b6e8f227b1d79961821bfeb398f21dfd95b41ceac26dc4e1d5d5",
    "M_2xE_1": "891bac5ba1770fa0ca6643e2cb85130a5cba6567f128a53f7f15cf0c02f2fc4a",
    "E_1xE_1": "0945d958b588999179c36509b692360a77c4dc8b4fd4bec083fb66d72be023ba",
    "dual shifted": "20ffdf1681af9f11c63a9dcc99d6e52973d47580d396f90204de61f48b47aaa7",
    "M_2 unit split": "0f5db85bf6c9a0b4ee523f5d598df25f8aeb3e46f6902c206c214a0cac78a93d",
}


def canonical_text(algebra):
    """The labels, one line per table entry (row by row) of its sorted
    (coordinate, "p/q") pairs, and the unit's pairs."""

    def pairs(coords):
        return " ".join(f"{k}:{c.numerator}/{c.denominator}" for k, c in sorted(coords.items()))

    lines = [" ".join(algebra.labels)]
    lines += [pairs(entry) for row in algebra.table for entry in row]
    lines.append(pairs(algebra.unit.entries))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_write_the_recorded_tables(name):
    text = canonical_text(BUILDERS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_HASHES[name]


def test_multiply_coords_matches_table_product():
    # element products against the triple loop over the table, on random
    # elements with a few nonzero Fraction coordinates
    rng = random.Random(13)
    for build in BUILDERS.values():
        algebra = build()
        for _ in range(20):
            a, b = (
                {
                    i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for i in rng.sample(range(algebra.dim), min(algebra.dim, rng.randint(1, 4)))
                }
                for _ in range(2)
            )
            product = algebra.multiply_coords(
                SparseVector(algebra.dim, a), SparseVector(algebra.dim, b)
            )
            assert product.entries == table_product(algebra.table, a, b)
            assert all(c.__class__ is Fraction for c in product.entries.values())


def test_constructor_normalizes_table_entries():
    # basis {1, f} with f f = 3 f; entries given as maps, zeros included
    one = SparseVector(2, {0: 1})
    algebra = StructureAlgebra(
        ["1", "f"],
        [[{0: 1}, {1: 1}], [SparseVector(2, {1: 1}), {0: 0, 1: Fraction(3, 1)}]],
        one,
    )
    assert algebra.table == [[{0: 1}, {1: 1}], [{1: 1}, {1: 3}]]
    assert algebra.table[1][1][1].__class__ is int
    assert algebra.table[0][1] is algebra.table[1][0]
    # the dual numbers, t t = 0 given as a zero value
    dual = StructureAlgebra(["1", "t"], [[{0: 1}, {1: 1}], [{1: 1}, {1: 0}]], one)
    assert dual.table[1][1] == {}
    for bad in ({2: 1}, {-1: 1}):
        with pytest.raises(AlgebraError, match="out of range"):
            StructureAlgebra(["1", "t"], [[{0: 1}, {1: 1}], [{1: 1}, bad]], one)
    with pytest.raises(AlgebraError, match="algebra dimension"):
        StructureAlgebra(["1", "t"], [[{0: 1}, {1: 1}], [{1: 1}, SparseVector(3)]], one)


def test_builders_make_no_vector_per_entry(monkeypatch):
    # an exterior algebra's table is written as plain maps: the only
    # SparseVector made while E_6 builds is its unit
    made = []
    real = SparseVector.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SparseVector, "__init__", counting)
    algebras.grassmann_algebra.__wrapped__(6)
    monkeypatch.undo()
    assert len(made) <= 1


def test_non_associative_table_rejected():
    from oplab.algebras import StructureAlgebra

    dim = 3
    unit = SparseVector(dim, {0: Fraction(1)})

    def v(*entries):
        return SparseVector(dim, {i: Fraction(c) for i, c in enumerate(entries) if c})

    one, a, b = v(1, 0, 0), v(0, 1, 0), v(0, 0, 1)
    # a*a = b, a*b = a, b*a = 0: then (a*a)*a = 0 but a*(a*a) = a
    table = [
        [one, a, b],
        [a, b, a],
        [b, v(0, 0, 0), v(0, 0, 0)],
    ]
    with pytest.raises(AlgebraError, match="associativity"):
        StructureAlgebra(["1", "a", "b"], table, unit)


def test_broken_unit_law_rejected():
    from oplab.algebras import StructureAlgebra

    dim = 2
    unit = SparseVector(dim, {0: Fraction(1)})
    one = SparseVector(dim, {0: Fraction(1)})
    b = SparseVector(dim, {1: Fraction(1)})
    doubled = SparseVector(dim, {1: Fraction(2)})
    table = [[one, doubled], [b, SparseVector(dim)]]
    with pytest.raises(AlgebraError, match="unit"):
        StructureAlgebra(["1", "b"], table, unit)


def build_verdict(labels, table, unit):
    """Whether StructureAlgebra accepts the table, checked against the
    reference: accepted exactly when the unit laws hold and every basis
    triple associates, and a rejection names a unit law or a triple that
    really fails."""
    try:
        StructureAlgebra(labels, table, unit)
    except AlgebraError as exc:
        message = str(exc)
        unit_prefix = "unit law fails on basis element "
        if message.startswith(unit_prefix):
            assert not unit_law_holds(table, unit, labels.index(message[len(unit_prefix):]))
            return "unit"
        prefix = "associativity fails on basis triple ("
        assert message.startswith(prefix) and message.endswith(")"), message
        i, j, k = (labels.index(x) for x in message[len(prefix):-1].split(", "))
        assert all(unit_law_holds(table, unit, m) for m in range(len(labels)))
        assert not triple_associates(table, i, j, k)
        return "associativity"
    assert all(unit_law_holds(table, unit, m) for m in range(len(labels)))
    assert is_associative_reference(table)
    return "accepted"


PERTURBED_BASES = [
    lambda: grassmann_algebra(2),
    lambda: grassmann_algebra(3),
    lambda: matrix_algebra(2),
    lambda: direct_sum([matrix_algebra(1), grassmann_algebra(1)]),
    lambda: direct_sum([grassmann_algebra(1), grassmann_algebra(1), matrix_algebra(1)]),
    lambda: tensor_product(grassmann_algebra(1), grassmann_algebra(1)),
    lambda: tensor_product(matrix_algebra(2), grassmann_algebra(1)),
]


def perturbed_table(rng, algebra):
    """The algebra's table and unit as coordinate maps, in a third of cases
    rescaled basis by basis (an associative change of basis), then changed
    in up to two entries: a coordinate moved, two entries swapped or an
    entry cleared.  Most changes avoid the entries the unit laws read."""
    dim = algebra.dim
    table = [[dict(entry) for entry in row] for row in algebra.table]
    unit = dict(algebra.unit.entries)
    if rng.random() < 1 / 3:
        s = [Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])) for _ in range(dim)]
        table = [
            [{l: s[i] * s[j] * c / s[l] for l, c in table[i][j].items()} for j in range(dim)]
            for i in range(dim)
        ]
        unit = {l: c / s[l] for l, c in unit.items()}
    plain = [m for m in range(dim) if m not in unit] or list(range(dim))

    def position():
        pool = plain if rng.random() < 0.8 else range(dim)
        return rng.choice(pool), rng.choice(pool)

    for _ in range(rng.choice([0, 1, 1, 2])):
        i, j = position()
        kind = rng.randrange(3)
        if kind == 0:
            l = rng.randrange(dim)
            value = table[i][j].get(l, 0) + Fraction(rng.choice([-2, -1, 1]), rng.choice([1, 2]))
            if value:
                table[i][j][l] = value
            else:
                del table[i][j][l]
        elif kind == 1:
            k, m = position()
            table[i][j], table[k][m] = table[k][m], table[i][j]
        else:
            table[i][j] = {}
    vectors = [[SparseVector(dim, entry) for entry in row] for row in table]
    return [f"b{m}" for m in range(dim)], vectors, SparseVector(dim, unit)


def test_light_test_matches_checking_every_triple():
    # accept/reject against the dim^3 reference on 1,260 derandomized
    # perturbations of small tables (exterior and matrix algebras, direct
    # sums and tensor products), with both verdicts well represented
    rng = random.Random(12)
    verdicts = {"accepted": 0, "unit": 0, "associativity": 0}
    for build in PERTURBED_BASES:
        algebra = build()
        for _ in range(180):
            verdicts[build_verdict(*perturbed_table(rng, algebra))] += 1
    assert sum(verdicts.values()) >= 1000
    assert verdicts["accepted"] >= 200 and verdicts["associativity"] >= 200, verdicts


def test_light_test_on_a_square_zero_extension():
    # Q1 + V with V^2 = 0: the unit and left products of generators reach
    # a v_m only through v_m itself, so every non-unit basis element is a
    # generator (the worst case, |S| dim^2 = (dim - 1) dim^2 triples)
    dim = 5
    labels = ["1"] + [f"v{m}" for m in range(1, dim)]

    def table_with(extra):
        return [
            [
                SparseVector(dim, {i + j: 1} if not i * j else extra.get((i, j), {}))
                for j in range(dim)
            ]
            for i in range(dim)
        ]

    one = SparseVector(dim, {0: 1})
    algebra = StructureAlgebra(labels, table_with({}), one)
    assert algebras._light_generators(algebra.table, {0: 1}) == [1, 2, 3, 4]
    assert build_verdict(labels, table_with({}), one) == "accepted"
    # v1 v2 = v3 stays associative; v1 v2 = v1 fails on (v1, v2, v2)
    assert build_verdict(labels, table_with({(1, 2): {3: 1}}), one) == "accepted"
    assert build_verdict(labels, table_with({(1, 2): {1: 1}}), one) == "associativity"
    with pytest.raises(AlgebraError, match=r"\(v1, v2, v2\)"):
        StructureAlgebra(labels, table_with({(1, 2): {1: 1}}), one)


def test_light_test_finds_a_defect_between_two_non_generators():
    # E_3's generators are e1, e2, e3.  The only change, e12 * e13 = e123
    # instead of 0, is a product of two non-generators; it surfaces in a
    # triple whose middle factor is a generator
    e3 = grassmann_algebra(3)
    generators = algebras._light_generators(e3.table, {0: 1})
    assert [e3.labels[j] for j in generators] == ["e1", "e2", "e3"]
    table = [list(row) for row in e3.table]
    e12, e13, e123 = (e3.labels.index(x) for x in ("e12", "e13", "e123"))
    assert not table[e12][e13]
    table[e12][e13] = SparseVector(e3.dim, {e123: 1})
    assert build_verdict(e3.labels, table, e3.unit) == "associativity"
    with pytest.raises(AlgebraError) as info:
        StructureAlgebra(e3.labels, table, e3.unit)
    middle = str(info.value).rsplit("(", 1)[1].split(", ")[1]
    assert e3.labels.index(middle) in generators


def test_light_test_checks_few_triples(monkeypatch):
    # while E_6 builds, each checked triple with b_i b_j != 0 forms
    # (b_i b_j) b_k once, as a combination of the table's columns: at most
    # |S| dim^2 = 6 * 64^2 of them, where checking every basis triple forms
    # 729 * 64
    seen = []
    real = algebras._combine

    def counting(coords, vecs):
        seen.append(id(vecs))
        return real(coords, vecs)

    monkeypatch.setattr(algebras, "_combine", counting)
    e6 = algebras.grassmann_algebra.__wrapped__(6)
    monkeypatch.undo()
    columns = {id(column) for column in e6.columns}
    # less the dim products of the left unit law
    triples = sum(v in columns for v in seen) - e6.dim
    assert 0 < triples <= 6 * 64**2
    m5 = matrix_algebra(5)
    assert len(algebras._light_generators(m5.table, m5.unit.entries)) == 9


def test_algebra_from_spec_round_trip():
    m2 = algebra_from_spec({"type": "matrix", "k": 2})
    assert m2 is matrix_algebra(2)
    e4 = algebra_from_spec({"type": "grassmann", "generators": 4})
    assert e4.dim == 16
    ds = algebra_from_spec(
        {"type": "direct_sum", "parts": [{"type": "matrix", "k": 1}, {"type": "matrix", "k": 1}]}
    )
    assert ds.dim == 2
    custom = algebra_from_spec(
        {
            "type": "custom",
            "basis": ["1", "t"],
            "unit": [1, 0],
            "table": [[[1, 0], [0, 1]], [[0, 1], ["0", "0"]]],
        }
    )
    assert custom.dim == 2  # dual numbers: t*t = 0
    t = custom.basis_element(1)
    assert t * t == custom.zero_element()
    quadratic = algebra_from_spec(
        {
            "type": "custom",
            "basis": ["1", "t"],
            "unit": [1, 0],
            "table": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        }
    )
    assert quadratic.dim == 2  # t*t = 1 is associative
    with pytest.raises(AlgebraError):
        algebra_from_spec({"type": "nonsense"})
    # malformed shapes are rejected
    with pytest.raises(AlgebraError):
        algebra_from_spec(
            {"type": "custom", "basis": ["1"], "unit": [1], "table": [[[1], [1]]]}
        )


def test_algebra_from_spec_rejects_malformed_fields():
    for spec in (
        {"type": "custom"},
        {"type": "matrix"},
        {"type": "custom", "basis": ["1"], "unit": [None], "table": [[[1]]]},
        {"type": "custom", "basis": ["1"], "unit": [1], "table": [[1]]},
        {"type": "custom", "basis": ["1"], "unit": [True], "table": [[[1]]]},
        {"type": "custom", "basis": ["1"], "unit": [0.5], "table": [[[1]]]},
        {"type": "matrix", "k": 2.5},
        {"type": "matrix", "k": True},
        {"type": "matrix", "k": "2"},
        {"type": "matrix", "k": math.inf},
        {"type": "grassmann", "generators": None},
        {"type": "direct_sum", "parts": 3},
        {"type": 3},
        [],
    ):
        with pytest.raises(AlgebraError):
            algebra_from_spec(spec)
    assert algebra_from_spec({"type": "matrix", "k": 2.0}) is matrix_algebra(2)


def test_algebra_from_spec_refuses_builds_above_the_budget(monkeypatch):
    # dim^3 associativity checks above 10**7 are refused before anything is
    # built: every builder raises if called, so a broken check fails here
    # instead of hanging
    def never(*args):
        raise AssertionError("builder called")

    for name in ("matrix_algebra", "grassmann_algebra", "direct_sum", "StructureAlgebra"):
        monkeypatch.setattr(algebras, name, never)
    for spec in (
        {"type": "matrix", "k": 15},
        {"type": "matrix", "k": 40},
        {"type": "grassmann", "generators": 8},  # E_8, dim 256
        {"type": "grassmann", "generators": 1e300},
        {"type": "custom", "basis": list(range(216)), "unit": [], "table": []},
    ):
        with pytest.raises(AlgebraError, match="too large to build"):
            algebra_from_spec(spec)
    # the largest that fit take 196^3 and 128^3 checks
    monkeypatch.setattr(algebras, "matrix_algebra", lambda k: SimpleNamespace(dim=k * k))
    monkeypatch.setattr(algebras, "grassmann_algebra", lambda g: SimpleNamespace(dim=2**g))
    assert algebra_from_spec({"type": "matrix", "k": 14}).dim == 196
    assert algebra_from_spec({"type": "grassmann", "generators": 7}).dim == 128
    # the parts are built, and their summed dimension checked before direct_sum
    e7 = {"type": "grassmann", "generators": 7}
    with pytest.raises(AlgebraError, match="too large to build"):
        algebra_from_spec({"type": "direct_sum", "parts": [e7, e7]})
    monkeypatch.setattr(algebras, "direct_sum", lambda parts: sum(a.dim for a in parts))
    assert algebra_from_spec({"type": "direct_sum", "parts": [e7, {"type": "matrix", "k": 9}]}) == 209


VALID_SPECS = [
    *({"type": "matrix", "k": k} for k in (1, 2, 3)),
    *({"type": "grassmann", "generators": g} for g in (0, 1, 2, 3)),
    {"type": "custom", "basis": ["1"], "unit": [1], "table": [[[1]]]},
    DUAL_SHIFTED,
    {"type": "direct_sum", "parts": [{"type": "matrix", "k": 1}, {"type": "grassmann", "generators": 1}]},
]
SPEC_KEYS = st.sampled_from(["type", "k", "generators", "parts", "basis", "unit", "table"]) | st.text(max_size=2)
# JSON values whose numbers stay at most 3, so that every algebra built is small
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(["matrix", "grassmann", "custom", "direct_sum", "1/2", "-1", "1/0", "x"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(SPEC_KEYS, children, max_size=4),
    max_leaves=12,
)


@st.composite
def algebra_specs(draw):
    """A random JSON value, or a valid spec with a few entries deleted,
    replaced or added anywhere in it."""
    if draw(st.booleans()):
        return draw(json_values)
    spec = json.loads(json.dumps(draw(st.sampled_from(VALID_SPECS))))
    for _ in range(draw(st.integers(1, 3))):
        containers = []

        def walk(node):
            if isinstance(node, (dict, list)):
                containers.append(node)
                for child in node.values() if isinstance(node, dict) else node:
                    walk(child)

        walk(spec)
        node = draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["delete", "replace", "add"]))
        if keys and action != "add":
            key = draw(st.sampled_from(keys))
            if action == "delete":
                del node[key]
            else:
                node[key] = draw(json_values)
        elif isinstance(node, dict):
            node[draw(SPEC_KEYS)] = draw(json_values)
        else:
            node.append(draw(json_values))
    return spec


@given(algebra_specs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_algebra_from_spec_fuzz(spec):
    # a spec either builds an algebra or is refused with AlgebraError,
    # which the CLI reports as a structured error
    try:
        algebra = algebra_from_spec(spec)
    except AlgebraError:
        return
    assert isinstance(algebra, StructureAlgebra)


def test_direct_sum_identity_implication():
    m1 = matrix_algebra(1)
    e2 = grassmann_algebra(2)
    ds = direct_sum([m1, e2])
    # the triple commutator is an identity of both parts, hence of the sum
    f = parse_poly("x1*x2*x3 - x2*x1*x3 - x3*x1*x2 + x3*x2*x1")
    assert is_identity(f, m1)
    assert is_identity(f, e2)
    assert is_identity(f, ds)
    # the plain commutator separates them
    g = parse_poly("x1*x2 - x2*x1")
    assert is_identity(g, m1)
    assert not is_identity(g, e2)
    assert not is_identity(g, ds)


def test_tensor_product_of_matrix_algebras():
    m2 = matrix_algebra(2)
    tp = tensor_product(m2, matrix_algebra(1))
    assert tp.dim == 4
    st4 = operad_to_poly(standard_polynomial(4))
    assert is_identity(st4, tp)


def test_evaluate_examples():
    m2 = matrix_algebra(2)
    e12, e21 = unit_entry(m2, "e12"), unit_entry(m2, "e21")
    e11, e22 = unit_entry(m2, "e11"), unit_entry(m2, "e22")
    assert evaluate(OperadElement.unit(2), [e12, e21]) == e11
    commutator = OperadElement.unit(2) - OperadElement.basis(Permutation((2, 1)))
    assert evaluate(commutator, [e12, e21]) == e11 - e22
    theta = standard_polynomial(3)
    total = sum(c for _, c in theta.items())
    u = m2.unit_element()
    assert evaluate(theta, [u, u, u]) == total * u
    lopsided = 2 * OperadElement.unit(2) + OperadElement.basis(Permutation((2, 1)))
    assert evaluate(lopsided, [u, u]) == 3 * u
    assert evaluate_nullary(3 * OperadElement.unit(0), m2) == 3 * u
    with pytest.raises(AlgebraError):
        evaluate(commutator, [e12])


def test_evaluate_multilinearity():
    m2 = matrix_algebra(2)
    rng = random.Random(1)
    theta = standard_polynomial(3)
    for _ in range(5):
        a, b, c, d = (
            m2.element([rng.randint(-2, 2) for _ in range(4)]) for _ in range(4)
        )
        lhs = evaluate(theta, [a + b, c, d])
        rhs = evaluate(theta, [a, c, d]) + evaluate(theta, [b, c, d])
        assert lhs == rhs
        scaled = evaluate(theta, [a, Fraction(3, 2) * c, d])
        assert scaled == Fraction(3, 2) * evaluate(theta, [a, c, d])


def test_evaluate_functoriality_with_partial_composition():
    # plugging before evaluating equals evaluating the inner element first
    rng = random.Random(2)
    e3 = grassmann_algebra(2)
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(0, 2)
        mu_terms = {
            p: Fraction(rng.randint(-2, 2) or 1)
            for p in all_permutations(m)
            if rng.random() < 0.6
        }
        mu = OperadElement(m, mu_terms) if mu_terms else OperadElement.unit(m)
        nu_terms = {
            p: Fraction(rng.randint(-2, 2) or 1)
            for p in all_permutations(n)
            if rng.random() < 0.6
        }
        nu = OperadElement(n, nu_terms) if nu_terms else OperadElement.unit(n)
        i = rng.randint(1, m)
        args = [
            e3.element([rng.randint(-1, 1) for _ in range(e3.dim)])
            for _ in range(m + n - 1)
        ]
        composed = partial_compose(mu, i, nu)
        lhs = (
            evaluate_nullary(composed, e3)
            if composed.arity == 0
            else evaluate(composed, args)
        )
        inner_args = args[i - 1 : i + n - 1]
        inner = (
            evaluate(nu, inner_args) if n else evaluate_nullary(nu, e3)
        )
        outer_args = args[: i - 1] + [inner] + args[i + n - 1 :]
        rhs = evaluate(mu, outer_args)
        assert lhs == rhs


def test_is_identity_examples():
    m1, m2 = matrix_algebra(1), matrix_algebra(2)
    commutator = parse_poly("x1*x2 - x2*x1")
    assert is_identity(commutator, m1)
    st3 = operad_to_poly(standard_polynomial(3))
    assert not is_identity(st3, m2)
    st4 = operad_to_poly(standard_polynomial(4))
    assert is_identity(st4, m2)


def test_is_identity_charges_the_tuples_to_the_budget():
    # dim^n tuples against DEFAULT_BUDGET: 4^11 fits, 4^12 does not
    import oplab
    import oplab.ideals

    assert oplab.BudgetExceeded is oplab.ideals.BudgetExceeded is algebras.BudgetExceeded
    m2 = matrix_algebra(2)
    assert 4**11 <= algebras.DEFAULT_BUDGET < 4**12
    with pytest.raises(algebras.BudgetExceeded) as refused:
        is_identity(parse_poly("*".join(f"x{i}" for i in range(1, 13))), m2)
    assert (refused.value.needed, refused.value.budget) == (4**12, algebras.DEFAULT_BUDGET)
    # at 4^11 the walk starts, and stops at the first nonzero product
    assert not is_identity(parse_poly("*".join(f"x{i}" for i in range(1, 12))), m2)


def test_is_identity_exhibits_witness_for_st3():
    # exhaustive search over basis triples finds a nonvanishing tuple
    from itertools import product as iproduct

    m2 = matrix_algebra(2)
    st3 = standard_polynomial(3)
    witnesses = [
        tup
        for tup in iproduct(range(4), repeat=3)
        if not evaluate(st3, [m2.basis_element(i) for i in tup]).is_zero()
    ]
    assert witnesses


def test_is_identity_general_examples():
    m1 = matrix_algebra(1)
    assert not is_identity_general(parse_poly("x1^2"), m1)
    e3 = grassmann_algebra(3)
    triple = parse_poly("(x1*x2 - x2*x1)*x3 - x3*(x1*x2 - x2*x1)")
    assert is_identity_general(triple, e3)
    # on the one-dimensional unital algebra a polynomial is an identity iff
    # it vanishes on the all-ones substitution
    with pytest.raises(ValueError):
        is_identity_general(parse_poly("x1^2 - x1*x1"), m1)  # collapses to zero
    g = parse_poly("x1^2*x2 - x2*x1^2")
    ones = {v: m1.unit_element() for v in g.variables()}
    assert evaluate_poly(g, ones, m1).is_zero() == is_identity_general(g, m1)


def test_evaluate_poly_unit_word():
    m2 = matrix_algebra(2)
    f = parse_poly("2 + x1")
    a = m2.basis_element(1)
    value = evaluate_poly(f, {1: a}, m2)
    assert value == 2 * m2.unit_element() + a


def _kernel_algebras():
    # two monomial tables and two with multi-coordinate entries
    return [
        matrix_algebra(2),
        grassmann_algebra(3),
        algebra_from_spec(DUAL_SHIFTED),
        algebra_from_spec(M2_UNIT_SPLIT),
    ]


def _random_theta(rng, arity, terms):
    perms = all_permutations(arity)
    perms = rng.sample(perms, min(terms, len(perms)))
    coeffs = {p: Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])) for p in perms}
    return OperadElement(arity, coeffs)


def _brute_force_is_identity(theta, algebra):
    from itertools import product as iproduct

    basis = [algebra.basis_element(i) for i in range(algebra.dim)]
    return all(
        evaluate(theta, [basis[i] for i in tup]).is_zero()
        for tup in iproduct(range(algebra.dim), repeat=theta.arity)
    )


def test_is_identity_matches_brute_force_evaluation():
    # the word-trie kernel against plain per-term evaluation over all
    # ordered basis tuples, on monomial and non-monomial tables; sparse
    # elements (one or two terms) have words that die early, and random
    # combinations of identity-slice elements give true verdicts
    rng = random.Random(41)
    verdicts = set()
    for algebra in _kernel_algebras():
        for n in range(1, 5):
            thetas = [_random_theta(rng, n, k) for k in (1, 2, 24)]
            identities = identities_slice(algebra, n).elements()
            if identities:
                combo = {}
                for element in identities:
                    c = Fraction(rng.randint(-2, 2))
                    for p, v in element.terms.items():
                        combo[p] = combo.get(p, 0) + c * v
                combo = {p: v for p, v in combo.items() if v}
                if combo:
                    thetas.append(OperadElement(n, combo))
                thetas.append(identities[0])
            for theta in thetas:
                expected = _brute_force_is_identity(theta, algebra)
                assert is_identity(operad_to_poly(theta), algebra) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_word_evaluator_matches_evaluate():
    # every word's product, coordinate by coordinate, on random tuples
    from oplab.algebras import _word_evaluator

    rng = random.Random(42)
    for algebra in _kernel_algebras():
        basis = [algebra.basis_element(i) for i in range(algebra.dim)]
        for n in range(1, 5):
            words = [p.seq for p in _random_theta(rng, n, 5).terms]
            products = _word_evaluator(algebra.columns, words)
            for _ in range(20):
                tup = [rng.randrange(algebra.dim) for _ in range(n)]
                args = [basis[i] for i in tup]
                expected = {}
                for w, seq in enumerate(words):
                    value = evaluate(OperadElement(n, {Permutation(seq): Fraction(1)}), args)
                    if not value.is_zero():
                        expected[w] = value.coords.entries
                assert products(tup) == expected
