import dataclasses
import json
import re
from operator import add
from unittest import mock

import numpy as np
import pytest
from conftest import EVERY_TYPE, coroot, norm2, run_optimized, string_depth, string_walk_positive_roots

from monolab import rootsys
from monolab.chevalley import build_chevalley_algebra
from monolab.prime_scan import build_report
from monolab.principal_sl2 import principal_kostant
from monolab.rootsys import (
    EXCEPTIONAL_TYPES,
    SimpleType,
    _validate,
    build_root_datum,
    cartan_matrix,
)

ALL_TYPES = [
    "A1", "A2", "A3", "A5", "A8",
    "B2", "B3", "B5", "B8",
    "C3", "C4", "C8",
    "D4", "D5", "D6", "D8",
    "G2", "F4", "E6", "E7", "E8",
]

ROOT_COUNTS = {"G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}


def classical_positive_count(t: SimpleType) -> int:
    # closed-form counts per family, as an independent oracle for the closure
    n = t.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[t.family]


def test_a1_is_trivial_case():
    d = build_root_datum("A1")
    assert len(d.positive_roots) == 1
    assert d.coxeter_number == 2
    assert d.exponents == (1,)


def test_e6_exponents():
    assert build_root_datum("E6").exponents == (1, 4, 5, 7, 8, 11)


def test_e8_counts():
    d = build_root_datum("E8")
    assert len(d.positive_roots) == 120
    assert d.coxeter_number == 30
    assert sum(2 * m + 1 for m in d.exponents) == 248


@pytest.mark.parametrize("name", ALL_TYPES)
def test_datum_invariants(name):
    d = build_root_datum(name)
    n_pos, l = len(d.positive_roots), d.rank
    if name in ROOT_COUNTS:
        assert 2 * n_pos == ROOT_COUNTS[name]
    else:
        assert n_pos == classical_positive_count(d.simple_type)
    assert d.coxeter_number == sum(d.highest_root) + 1
    assert sum(2 * m + 1 for m in d.exponents) == 2 * n_pos + l
    for i in range(l):
        assert d.exponents[i] + d.exponents[l - 1 - i] == d.coxeter_number
    # the first l positive roots are the simple roots in order
    for i in range(l):
        assert d.positive_roots[i] == tuple(1 if j == i else 0 for j in range(l))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_exponents_conjugate_to_height_counts(name):
    d = build_root_datum(name)
    counts = {}
    for r in d.positive_roots:
        counts[sum(r)] = counts.get(sum(r), 0) + 1
    lam = sorted(counts.values(), reverse=True)
    conj = sorted(
        (sum(1 for x in lam if x >= j) for j in range(1, max(lam) + 1)), reverse=True
    )
    assert tuple(sorted(conj)) == d.exponents


@pytest.mark.parametrize("name", ALL_TYPES)
def test_reflection_stability(name):
    # s_alpha(beta) = beta - <beta, alpha^vee> alpha stays a root, all pairs
    d = build_root_datum(name)
    roots = set(d.all_roots)
    for alpha, ac in zip(d.all_roots, d.coroots.tolist()):
        for beta in roots:
            pairing = sum(ac[i] * d.cartan[i][j] * beta[j] for i in range(d.rank) for j in range(d.rank))
            refl = tuple(b - pairing * a for b, a in zip(beta, alpha))
            assert refl in roots


# B17, D21 and A30 key their sums in more than one int64 word: a single
# positional key would pass 2**63 from A28 (5**28) and B20, C20, D20 (9**20)
@pytest.mark.parametrize("name", ALL_TYPES + ["B17", "D21", "A30"])
def test_root_sum_matches_tuple_sums(name):
    d = build_root_datum(name)
    roots = d.all_roots
    assert roots == d.positive_roots + tuple(tuple(-c for c in r) for r in d.positive_roots)
    index = {r: k for k, r in enumerate(roots)}
    assert len(index) == len(roots)
    sums = d.root_sums
    assert sums.dtype == np.min_scalar_type(-len(roots)) and not sums.flags.writeable
    assert sums.tolist() == [[index.get(tuple(map(add, u, v)), -1) for v in roots] for u in roots]


# the closure's frontiers and row keys are largest at rank 32
@pytest.mark.parametrize("name", ALL_TYPES + ["B17", "D21", "A30", "A32", "B32", "C32", "D32"])
def test_positive_roots_match_string_walk(name):
    # the reflection closure finds the roots the string-walk closure finds, in the same order
    d = build_root_datum(name)
    assert list(d.positive_roots) == string_walk_positive_roots(d.cartan)


BUILDERS = [build_root_datum, build_chevalley_algebra, principal_kostant, build_report]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
def test_one_object_per_simple_type(build):
    assert build("E8") is build("e8") is build(SimpleType("E", 8)) is build(" E8 ")
    assert build_chevalley_algebra("E8").datum is build_root_datum("E8")
    with pytest.raises(ValueError, match="not a classified simple type: Z9"):
        build("Z9")


def test_cold_datum_and_algebra_close_the_roots_once():
    for build in BUILDERS:  # all four, so no cached object keeps a datum that the others dropped
        build.cache_clear()
    with mock.patch.object(rootsys, "_close_positive_roots", wraps=rootsys._close_positive_roots) as spy:
        d = build_root_datum("F4")
        assert build_chevalley_algebra(SimpleType("F", 4)).datum is d
    assert spy.call_count == 1


def test_a_cold_build_leaves_all_roots_unbuilt():
    # the cold pipeline reads the one coordinate array `coords`; the tuples of `all_roots` are built only when read
    for build in BUILDERS:
        build.cache_clear()
    d = build_root_datum("F4")
    for build in BUILDERS[1:]:  # the algebra, the Kostant decomposition and the scan report, which reads its strings
        build("F4")
    assert "coords" in vars(d) and "all_roots" not in vars(d)


@pytest.mark.parametrize("name", ALL_TYPES + ["B17"])
def test_string_depth_matches_tuple_walk(name):
    # every pair (u, v), asked at once as two index grids
    d = build_root_datum(name)
    roots, root_set = d.all_roots, set(d.all_roots)
    u, v = np.indices((len(roots), len(roots)))
    depth = d.string_depth(u, v)
    assert depth.dtype == np.int64
    assert depth.tolist() == [[string_depth(root_set, a, b) for b in roots] for a in roots]
    assert d.string_depth(0, 1).tolist() == depth[0, 1]  # one pair, as plain ints


@pytest.mark.parametrize("name", ALL_TYPES + ["B17"])
def test_coroots_and_norms_match_tuple_formula(name):
    d = build_root_datum(name)
    roots, n = d.all_roots, d.rank
    assert d.pairings.tolist() == [[sum(d.cartan[i][j] * r[j] for j in range(n)) for i in range(n)] for r in roots]
    assert d.heights.tolist() == [sum(r) for r in roots]
    assert d.norm2.tolist() == [norm2(d, r) for r in roots]
    assert d.coroots.tolist() == [list(coroot(d, r)) for r in roots]


def test_per_root_arrays_read_only_and_built_once():
    d = dataclasses.replace(build_root_datum("F4"))  # a fresh datum, so nothing is cached yet
    names = ("coords", "root_sums", "heights", "pairings", "norm2", "coroots")
    assert not set(names) & set(vars(d))
    for name in names:
        array = getattr(d, name)
        assert getattr(d, name) is array and not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert d.coords.shape == d.pairings.shape == d.coroots.shape == (48, 4) and d.norm2.shape == d.heights.shape == (48,)
    assert d.coords.dtype == np.int64 and d.coords.tolist() == [list(r) for r in d.all_roots]
    assert d.root_sums.shape == (48, 48)


def test_weyl_minus_one_table():
    expected_true = ["A1", "B2", "B3", "C3", "D4", "D8", "G2", "F4", "E7", "E8"]
    expected_false = ["A2", "A3", "A8", "D5", "E6"]
    for t in expected_true:
        assert build_root_datum(t).weyl_has_minus_one, t
    for t in expected_false:
        assert not build_root_datum(t).weyl_has_minus_one, t


def symmetry_count(t: SimpleType) -> int:
    # the automorphisms of the Dynkin diagram: one flip of A_n (n >= 2), D_n (n >= 5) and E6, S3 on D4, else none
    if str(t) == "D4":
        return 6
    flips = t.family == "A" and t.rank >= 2 or t.family == "D" and t.rank >= 5 or str(t) == "E6"
    return 2 if flips else 1


def test_diagram_symmetries_of_every_type():
    for name in EVERY_TYPE:
        d = build_root_datum(name)
        syms, cartan = d.diagram_symmetries, np.array(d.cartan)
        assert len(syms) == symmetry_count(d.simple_type), name
        assert syms[0] == tuple(range(d.rank)) and list(syms) == sorted(set(syms)), name
        assert all(sorted(p) == list(range(d.rank)) and (cartan[np.ix_(p, p)] == cartan).all() for p in syms), name
        assert "diagram_symmetries" not in d.to_json_dict()
    assert (2, 1, 3, 0) in build_root_datum("D4").diagram_symmetries  # triality
    assert build_root_datum("D6").diagram_symmetries[1] == (0, 1, 2, 3, 5, 4)  # the end swap, not -w0 on even D_n


def test_heights_and_coroots():
    e8 = build_root_datum("E8")
    assert sum(e8.highest_root) == 29
    for i in range(e8.rank):
        assert sum(e8.positive_roots[i]) == 1
    a2 = build_root_datum("A2")
    assert a2.all_roots[0] == (1, 0) and a2.all_roots[2] == (1, 1)
    assert a2.coroots[[0, 2]].tolist() == [[1, 0], [1, 1]]
    g2 = build_root_datum("G2")
    # long-root coroots shrink by the squared-length ratio: theta = (3, 2) has coroot (1, 2)
    theta = len(g2.positive_roots) - 1
    assert g2.all_roots[theta] == g2.highest_root == (3, 2)
    assert g2.norm2[theta] == 3 * g2.norm2[0]
    assert g2.coroots[theta].tolist() == [1, 2]


def test_norms_are_ints():
    for name, norms in (("A2", (1, 1)), ("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("F4", (2, 2, 1, 1)), ("G2", (1, 3))):
        d = build_root_datum(name)
        assert d.simple_norms == norms
        assert d.norm2.dtype == np.int64
        assert set(d.norm2.tolist()) == {2 * n for n in norms}


def reference_root_lengths(cartan) -> tuple[int, ...]:
    """d_i by propagation along a spanning tree of the Dynkin diagram, rescaling when a ratio is not integral."""
    n = len(cartan)
    d = [0] * n
    d[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] == 0:
                num, den = d[i] * abs(cartan[i][j]), abs(cartan[j][i])
                if num % den:
                    d = [x * den for x in d]
                    num *= den
                d[j] = num // den
                stack.append(j)
    assert 0 not in d and all(x % min(d) == 0 for x in d)
    return tuple(x // min(d) for x in d)


def test_root_lengths_match_the_propagation():
    for name in EVERY_TYPE:
        d = build_root_datum(name)
        assert d.simple_norms == reference_root_lengths(d.cartan), name


@pytest.mark.parametrize(
    "cartan",
    [((2, 0), (0, 2)), ((2, -1, -1), (-2, 2, -1), (-1, -1, 2))],
    ids=["disconnected", "cycle-without-symmetrizer"],
)
def test_root_lengths_refuse_a_matrix_without_one_symmetrizer(cartan):
    # A1 x A1 has a two-dimensional kernel; on the triangle the propagation's tree
    # gives d_1 = 2 d_2 and d_1 = d_3, and missed the third edge's d_2 = d_3
    with pytest.raises(ArithmeticError, match="no symmetrizer with least entry 1"):
        rootsys._root_lengths(cartan)


# tampered data that each invariant check must reject, also under python -O; the exponents are
# read off the heights, so B3 without its top two roots (heights 1, 1, 1, 2, 2, 3, 3) has (1, 3, 3)
B3_ROOTS = "build_root_datum('B3').positive_roots"
BAD_EXPONENTS = f"_validate(dataclasses.replace(build_root_datum('B3'), positive_roots={B3_ROOTS}[:-2]))"
BAD_TOP = f"_validate(dataclasses.replace(build_root_datum('B3'), positive_roots={B3_ROOTS}[::-1]))"
BAD_COROOT = "dataclasses.replace(build_root_datum('A2'), simple_norms=(1, 2)).coroots"


@pytest.mark.parametrize(
    "expr, message",
    [
        (BAD_EXPONENTS, "invalid root datum for B3: one highest root, exponents symmetric about h/2"),
        (BAD_TOP, "invalid root datum for B3: one highest root"),  # the last root, alpha_1, is not on top
        (BAD_COROOT, "coroot: 2/3 is not integral"),
    ],
    ids=["exponents", "highest-root", "coroot"],
)
def test_tampered_datum_rejected(expr, message):
    with pytest.raises(ArithmeticError, match=re.escape(message)) as exc:
        eval(expr)
    code = (
        "import dataclasses\n"
        "from monolab.rootsys import _validate, build_root_datum\n"
        "try:\n"
        f"    {expr}\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code) == str(exc.value)


@pytest.mark.parametrize(
    "family,rank",
    [("E", 9), ("E", 5), ("F", 5), ("F", 3), ("G", 3), ("G", 1), ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("H", 4), ("A", 33), ("D", 10**10),
     ("A", True), ("E", np.int64(8)), ("A", 2.0)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        SimpleType(family, rank)


def test_a_refused_bool_rank_leaves_a1_named_a1():
    # SimpleType("A", True) equals and hashes like A1, so a build through it
    # would be the cached A1 of every later caller, named "ATrue"
    for build in BUILDERS:
        build.cache_clear()
    with pytest.raises(ValueError, match=r"^rank is not an int: True$"):
        build_root_datum(SimpleType("A", True))
    assert build_root_datum("A1").to_json_dict()["simple_type"] == "A1"
    assert str(build_report("A1").simple_type) == "A1"


def test_parse():
    assert SimpleType.parse("e6") == SimpleType("E", 6)
    assert str(SimpleType.parse("D13")) == "D13"
    assert SimpleType.parse("A0032") == SimpleType("A", 32)
    with pytest.raises(ValueError):
        SimpleType.parse("Q5")
    with pytest.raises(ValueError):
        SimpleType.parse("E")


@pytest.mark.parametrize(
    "name, message",
    [
        ("A³", "cannot parse simple type 'A³'"),
        ("A٣", "cannot parse simple type 'A٣'"),
        ("A0033", "A33: ranks above 32 are not built"),
        ("b00" + "7" * 40, f"B{'7' * 40}: ranks above 32 are not built"),
        ("E" + "8" * 5000, f"not a classified simple type: E{'8' * 5000}"),
    ],
    ids=["superscript", "arabic-indic", "leading-zeros", "long", "long-exceptional"],
)
def test_parse_reads_ascii_ranks_and_answers_long_ones_before_int(name, message):
    # a rank of more digits than MAX_RANK is answered as the constructor would answer it
    with pytest.raises(ValueError) as exc:
        SimpleType.parse(name)
    assert str(exc.value) == message


def test_cartan_matrix_shapes():
    A = cartan_matrix(SimpleType.parse("F4"))
    assert A == ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    B = cartan_matrix(SimpleType.parse("B3"))
    assert B[2][1] == -2 and B[1][2] == -1


def test_json_report():
    doc = json.loads(json.dumps(build_root_datum("E6").to_json_dict()))
    assert doc["exponents"] == [1, 4, 5, 7, 8, 11]
    assert doc["num_roots"] == 72
    assert doc["weyl_has_minus_one"] is False
    assert doc["dim_algebra"] == 78


def test_exceptional_list():
    assert EXCEPTIONAL_TYPES == ("G2", "F4", "E6", "E7", "E8")
