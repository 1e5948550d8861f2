import gc
import hashlib
import itertools
import json
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    EVERY_TYPE,
    ad_power,
    bracket,
    flipped_algebra,
    frenkel_kac_algebra,
    h_of,
    norm2,
    reference_bracket,
    reference_jacobi,
    reference_rows,
    reference_table,
    reference_triples,
    root_constants,
    run_optimized,
    string_depth,
    traced_peak,
    x_of,
    y_of,
)

from monolab import chevalley
from monolab.chevalley import (
    ChevalleyAlgebra,
    _BLOCK,
    _check_map,
    _rows,
    _signed_map,
    brackets,
    build_chevalley_algebra,
    diagram_involution,
    jacobi_sweep,
)
from monolab.group_cohomology import ResourceLimitError
from monolab.principal_sl2 import build_principal_sl2, kostant_decomposition, principal_kostant
from monolab.rootsys import RootDatum, SimpleType, build_root_datum


def test_a1_sl2_relations():
    alg = build_chevalley_algebra("A1")
    assert alg.dim == 3
    x, y, h = x_of(alg, 0), y_of(alg, 0), h_of(alg, 0)
    assert bracket(y, x) == h
    assert bracket(x, h) == x.scale(2)
    assert bracket(y, h) == y.scale(-2)


def test_a2_no_root_string():
    alg = build_chevalley_algebra("A2")
    assert abs(root_constants(alg)[(0, 1)]) == 1


def test_g2_long_strings():
    alg = build_chevalley_algebra("G2")
    constants = root_constants(alg)
    assert len(constants) == 60  # every ordered pair of roots with a root sum
    magnitudes = {abs(n) for n in constants.values()}
    assert 3 in magnitudes
    assert magnitudes <= {1, 2, 3}


def test_bracket_alternating_and_missing_target():
    alg = build_chevalley_algebra("F4")
    d = alg.datum
    rng = random.Random(3)
    for _ in range(20):
        v = alg.element({rng.randrange(alg.dim): rng.randrange(-5, 6) or 1 for _ in range(4)})
        assert bracket(v, v).is_zero()
    # highest root plus any simple root leaves the root system
    theta_idx = len(d.positive_roots) - 1
    for i in range(d.rank):
        assert bracket(x_of(alg, theta_idx), x_of(alg, i)).is_zero()


def test_extraspecial_sign_convention():
    # sums of two simple roots: the minimal-first pair carries +(p+1)
    for name in ("A2", "B2", "G2", "F4", "E6"):
        alg = build_chevalley_algebra(name)
        d, constants = alg.datum, root_constants(alg)
        roots = set(d.all_roots)
        for j in range(d.rank):
            for i in range(j):
                s = tuple(a + b for a, b in zip(d.positive_roots[i], d.positive_roots[j]))
                if s in roots:
                    n = constants[(i, j)]
                    if i == min(
                        k
                        for k in range(d.rank)
                        if tuple(x - y for x, y in zip(s, d.positive_roots[k])) in roots
                    ):
                        assert n == string_depth(roots, d.positive_roots[i], d.positive_roots[j]) + 1


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8", "A4", "B5", "C6", "D5"])
def test_magnitude_rule_exhaustive(name):
    alg = build_chevalley_algebra(name)
    d = alg.datum
    roots = d.all_roots
    pairs = {(roots[i], roots[j]): n for (i, j), n in root_constants(alg).items()}
    # every pair whose sum is a root, by tuple arithmetic
    root_set = set(roots)
    assert set(pairs) == {(u, v) for u in roots for v in roots if tuple(a + b for a, b in zip(u, v)) in root_set}
    for (u, v), n in pairs.items():
        assert abs(n) == string_depth(root_set, u, v) + 1, (u, v)
        # criterion 5's identity |N_uv| (v,v) = q (u+v,u+v), q the up-length of the u-string through v
        q = string_depth(root_set, tuple(-c for c in u), v)
        assert abs(n) * norm2(d, v) == q * norm2(d, tuple(a + b for a, b in zip(u, v))), (u, v)


def test_inexact_norm_ratio_raises_under_optimize():
    # G2 with its long roots' (a, a) moved from 6 to 7 in a fresh datum: a
    # mixed-sign constant (w,w)/(u,u) N_{w,v} is then no integer, and the check is no assert
    code = (
        "import dataclasses\n"
        "from monolab.chevalley import _carter_constants\n"
        "from monolab.rootsys import build_root_datum\n"
        "d = dataclasses.replace(build_root_datum('G2'))\n"
        "d.__dict__['norm2'] = d.norm2 + (d.norm2 == 6)\n"
        "try:\n"
        "    _carter_constants(d)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code) == "structure constant: -6/7 is not integral"


@pytest.mark.parametrize(
    "name, pairs, message",
    [
        ("G2", [((1, 1), (2, 1))], "|N((1, 1), (2, 1))| = 3 under (3, 2), want p+1 = 4"),
        ("B3", [((0, 0, 1), (1, 1, 1))], "|N((0, 0, 1), (1, 1, 1))| = 2 under (1, 1, 2), want p+1 = 3"),
        # two at one height: the first in pair order is named
        ("B3", [((0, 1, 1), (1, 1, 1)), ((1, 1, 0), (0, 1, 2))], "|N((1, 1, 0), (0, 1, 2))| = 1 under (1, 2, 2), want p+1 = 2"),
        # the first in pair order has the higher sum: the lower height is named
        ("C3", [((0, 1, 0), (1, 1, 1)), ((0, 0, 1), (1, 1, 0))], "|N((0, 0, 1), (1, 1, 0))| = 1 under (1, 1, 1), want p+1 = 2"),
    ],
)
def test_carter_magnitude_check_names_the_first_failing_pair(mutant, name, pairs, message):
    # string_depth one too deep on non-extraspecial pairs: the root-quadruple
    # identity still fixes N there, so only the p+1 check fails, first in
    # (height, pair) order; the messages were recorded before the gather
    # indices were hoisted out of the height loop
    d = build_root_datum(name)
    bumped = {(d.all_roots.index(u), d.all_roots.index(v)) for u, v in pairs}
    real = RootDatum.string_depth
    mutant.setattr(RootDatum, "string_depth", lambda self, u, v: real(self, u, v) + [(x, y) in bumped for x, y in zip(u, v)])
    with pytest.raises(ArithmeticError) as caught:
        chevalley._carter_constants(d)
    assert str(caught.value) == message


def test_table_antisymmetry():
    alg = build_chevalley_algebra("F4")
    rows = {tuple(r) for r in alg.entries.T.tolist()}
    assert rows == {(j, i, k, -c) for i, j, k, c in rows}


def test_entries_are_the_one_read_only_store():
    alg = build_chevalley_algebra("G2")
    assert alg.entries.dtype == np.int64 and alg.entries.shape[0] == 4
    assert not alg.entries.flags.writeable
    with pytest.raises(ValueError):
        alg.entries[3, 0] = 0
    order = np.lexsort(alg.entries[2::-1])
    assert (order == np.arange(alg.entries.shape[1])).all()  # sorted by (i, j, k)


def bracket_matrix(alg, z):
    """ad z column by column, one bracket per basis vector."""
    m = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for j in range(alg.dim):
        for k, c in bracket(z, alg.element({j: 1})).coeffs.items():
            m[k, j] = c
    return m


@pytest.mark.parametrize("name", ["G2", "F4", "B3"])
def test_ad_of_basis_vectors_matches_brackets(name):
    alg = build_chevalley_algebra(name)
    for k in range(alg.dim):
        e = alg.element({k: 1})
        assert (alg.ad(e) == bracket_matrix(alg, e)).all(), k


def test_ad_of_principal_triple():
    alg = build_chevalley_algebra("E8")
    trip = build_principal_sl2(alg)
    for z in (trip.X, trip.Y, trip.H):
        assert (alg.ad(z) == bracket_matrix(alg, z)).all()
    with pytest.raises(ValueError, match="incompatible operands"):
        alg.ad(build_chevalley_algebra("G2").element({0: 1}))


def test_ad_rejects_coefficients_beyond_its_int64_guard():
    alg = build_chevalley_algebra("G2")
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        alg.ad(alg.element({0: 2**31}))
    assert alg.ad(alg.element({0: 2**31 - 1})).any()
    e8 = build_chevalley_algebra("E8")
    big = principal_kostant("E8").strings[7][58]
    assert max(abs(v) for v in big.coeffs.values()).bit_length() == 474
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        e8.ad(big)


@pytest.mark.parametrize("key", [-1, 99, True, 1.0, "0"])
def test_element_rejects_keys_outside_the_basis(key):
    alg = build_chevalley_algebra("A2")
    with pytest.raises(ValueError, match="not a basis index"):
        alg.element({key: 1})


def test_element_rejects_bool_coefficients():
    alg = build_chevalley_algebra("A2")
    with pytest.raises(ValueError, match="^scalar is not an int: True$"):
        alg.element({0: True})
    with pytest.raises(ValueError, match="^scalar is not an int: False$"):
        x_of(alg, 0).scale(False)


def sweep_outcome(alg, triples=None):
    try:
        return jacobi_sweep(alg, triples)
    except ArithmeticError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "F4"])
def test_jacobi_exhaustive_small(name):
    # the contraction against the explicit-triple path over all dim**3 triples,
    # on the intact table and a sign-flipped copy
    alg = build_chevalley_algebra(name)
    every = itertools.product(range(alg.dim), repeat=3)
    assert jacobi_sweep(alg) == jacobi_sweep(alg, triples=every) == alg.dim**3
    broken = flipped_algebra(name)
    got = sweep_outcome(broken)
    assert got.startswith("Jacobi fails on basis triple")
    assert got == sweep_outcome(broken, itertools.product(range(alg.dim), repeat=3))
    if alg.dim < 20:  # the dict-table loop over every triple
        assert got == reference_jacobi(broken, itertools.product(range(alg.dim), repeat=3))


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_jacobi_exhaustive_large(name):
    alg = build_chevalley_algebra(name)
    assert jacobi_sweep(alg) == alg.dim**3


def test_jacobi_exhaustive_catches_flipped_e8():
    broken = flipped_algebra("E8")
    got = sweep_outcome(broken)
    assert got == "Jacobi fails on basis triple (0, 2, 3): {15: -2}"
    assert sweep_outcome(broken, [(0, 2, 3)]) == got


def test_jacobi_loop_raises_under_optimize():
    code = (
        "from conftest import flipped_algebra\n"
        "from monolab.chevalley import jacobi_sweep\n"
        "try:\n"
        "    jacobi_sweep(flipped_algebra('G2'), triples=[(0, 1, 3)])\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code) == "Jacobi fails on basis triple (0, 1, 3): {5: 6}"


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_jacobi_sampled_large(name):
    alg = build_chevalley_algebra(name)
    jacobi_sweep(alg, samples=3000, seed=11)


@pytest.mark.parametrize("name", ["G2", "F4", "E8"])
def test_jacobi_paths_match_the_reference_loop(name):
    alg = build_chevalley_algebra(name)
    rng = random.Random(name)
    triples = [tuple(rng.randrange(alg.dim) for _ in range(3)) for _ in range(300)]
    assert jacobi_sweep(alg, triples=triples) == reference_jacobi(alg, triples) == 300
    assert jacobi_sweep(alg, samples=500, seed=4) == reference_jacobi(alg, reference_triples(alg.dim, 500, 4)) == 500


@pytest.mark.parametrize("name", ["A1", "G2", "E8"])
def test_rows_matches_the_query_order_search(name):
    # the pointer is the binary search of every pair; duplicates, pairs with
    # no entry and no queries at all; a query out of range raises, and -1
    # never reads the wrapped starts[-1]
    alg = build_chevalley_algebra(name)
    keys = alg.entries[0] * alg.dim + alg.entries[1]
    assert np.array_equal(alg.starts, np.searchsorted(keys, np.arange(alg.dim**2 + 1)))
    # every dim-th pointer is the pointer over the first index alone, which the contraction reads
    assert np.array_equal(alg.starts[:: alg.dim], np.searchsorted(alg.entries[0], np.arange(alg.dim + 1)))
    rng = random.Random(name)
    present = keys[[rng.randrange(len(keys)) for _ in range(50)]]
    for queries in (
        np.zeros(0, dtype=np.int64),
        np.r_[present, present[::-1], present[:7]],
        np.array([rng.randrange(alg.dim**2) for _ in range(500)], dtype=np.int64),
        np.r_[present, [alg.dim**2 - 1, 0, 0]],
    ):
        got, want = _rows(alg.starts, queries), reference_rows(keys, queries)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for bad in (alg.dim**2, -1, -2):
        with pytest.raises(IndexError):
            _rows(alg.starts, np.r_[present, [bad, 0]])


def test_jacobi_paths_report_the_reference_failure():
    # the first failing triple in list order, with the same coefficients
    broken = flipped_algebra("G2")
    every = list(itertools.product(range(broken.dim), repeat=3))
    random.Random(2).shuffle(every)
    want = reference_jacobi(broken, every)
    assert want.startswith("Jacobi fails on basis triple")
    assert sweep_outcome(broken, every) == want
    assert sweep_outcome(broken, [(0, 0, 0)] * 5000 + every) == want  # found in the second block of 4096
    for seed in range(3):
        try:
            got = jacobi_sweep(broken, samples=400, seed=seed)
        except ArithmeticError as exc:
            got = str(exc)
        assert got == reference_jacobi(broken, reference_triples(broken.dim, 400, seed))
        assert isinstance(got, str)


NOT_A_TRIPLE = "not a triple of basis indices of ChevalleyAlgebra(G2, ZZ): "


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"triples": [(999, 0, 0)]}, "not a basis index of ChevalleyAlgebra(G2, ZZ): 999"),
        ({"triples": [(-1, 0, 1)]}, "not a basis index of ChevalleyAlgebra(G2, ZZ): -1"),
        ({"triples": [(0.5, 1, 2)]}, "not a basis index of ChevalleyAlgebra(G2, ZZ): 0.5"),
        ({"triples": [(True, 1, 2)]}, "not a basis index of ChevalleyAlgebra(G2, ZZ): True"),
        ({"triples": [(0, 1, 2), (0, 1)]}, NOT_A_TRIPLE + "(0, 1)"),
        ({"triples": [(0, 1, 2, 3)]}, NOT_A_TRIPLE + "(0, 1, 2, 3)"),
        ({"triples": [5]}, NOT_A_TRIPLE + "5"),
        ({"triples": ["abc"]}, NOT_A_TRIPLE + "'abc'"),
        ({"triples": [{0, 1, 2}]}, NOT_A_TRIPLE + "{0, 1, 2}"),
        ({"samples": -5}, "samples must be >= 0, got -5"),
        ({"samples": 2.0}, "samples is not an int: 2.0"),
        ({"samples": True}, "samples is not an int: True"),
        ({"triples": [(0, 1, 2)], "samples": 5}, "pass triples or samples, not both"),
        ({"seed": 5}, "seed is read only with samples, got seed=5 and no samples"),  # was the contraction's 2744
        ({"triples": [(0, 1, 2)], "seed": 5}, "seed is read only with samples, got seed=5 and no samples"),
    ],
    ids=[
        "too-large", "negative", "float", "bool", "pair", "four", "int", "str", "set",
        "negative-samples", "float-samples", "bool-samples", "triples-and-samples",
        "seed-without-samples", "seed-with-triples",
    ],
)
def test_jacobi_sweep_rejects_what_is_not_a_basis_triple(kwargs, message):
    alg = build_chevalley_algebra("G2")
    with pytest.raises(ValueError, match=re.escape(message)):
        jacobi_sweep(alg, **kwargs)
    assert jacobi_sweep(alg, samples=0) == jacobi_sweep(alg, triples=[]) == 0


def spy_randbytes(monkeypatch):
    """The byte counts of every `random.Random.randbytes` call from here on, in call order."""
    asked, draw = [], random.Random.randbytes
    monkeypatch.setattr(random.Random, "randbytes", lambda self, n: asked.append(n) or draw(self, n))
    return asked


def test_jacobi_sweep_refuses_samples_past_the_memory_budget(monkeypatch):
    # refused before any draw; a sample is charged one block's check, 16 KiB a
    # triple of at most 4096, so 10**8 samples ask what 4096 do
    alg, asked = build_chevalley_algebra("G2"), spy_randbytes(monkeypatch)
    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", str(2**14 * 100))
    for samples, need in ((101, 2**14 * 101), (10**8, 2**14 * 4096)):
        with pytest.raises(ResourceLimitError, match=f"{samples} sampled Jacobi triples needs about {need} bytes"):
            jacobi_sweep(alg, samples=samples)
    assert asked == []
    assert jacobi_sweep(alg, samples=100) == 100  # exactly the budget
    assert asked == [24 * 100]


@pytest.mark.parametrize("samples", [1, 10_000])
@pytest.mark.parametrize("name", ["A1", "G2", "E8"])
def test_jacobi_sweep_stays_within_its_charge(monkeypatch, name, samples):
    # what the budget check charges bounds the traced peak, draws and one block's check included
    alg, charged = build_chevalley_algebra(name), []
    monkeypatch.setattr(chevalley, "_check_budget", lambda need, what: charged.append(need))
    assert traced_peak(lambda: jacobi_sweep(alg, samples=samples)) <= charged[0]


def test_jacobi_sweep_draws_lie_scans_triples(monkeypatch):
    # the 4000 samples of a lie-scan op are one block: one draw of three 64-bit words a triple
    asked = spy_randbytes(monkeypatch)
    assert jacobi_sweep(build_chevalley_algebra("E8"), samples=4000, seed=301) == 4000
    assert asked == [24 * 4000]


def test_sampled_blocks_continue_one_seeded_stream(monkeypatch):
    # on the flipped E8, seed 0's first failing triple is triple 6051 of the
    # stream, in the second block: a block that restarted the stream would
    # pass it, and one that skipped words would check other triples
    broken = flipped_algebra("E8")
    triples = reference_triples(broken.dim, 10_000, 0)
    assert reference_jacobi(broken, triples[:_BLOCK]) == _BLOCK
    want = reference_jacobi(broken, triples)
    assert want == f"Jacobi fails on basis triple {triples[6051]}: {{153: 2}}"
    asked = spy_randbytes(monkeypatch)
    with pytest.raises(ArithmeticError) as failure:
        jacobi_sweep(broken, samples=10_000, seed=0)
    assert str(failure.value) == want
    assert asked == [24 * _BLOCK] * 2
    asked.clear()
    assert jacobi_sweep(build_chevalley_algebra("E8"), samples=10_000, seed=0) == 10_000
    assert asked == [24 * _BLOCK] * 2 + [24 * (10_000 - 2 * _BLOCK)]


def test_sampled_jacobi_without_a_seed_draws_seed_0():
    # a sample with no seed is seed 0's on every call, not one seeded from the OS
    broken = flipped_algebra("G2")
    want = reference_jacobi(broken, reference_triples(broken.dim, 500, 0))
    assert want.startswith("Jacobi fails on basis triple")
    for seed in (None, None, 0):
        with pytest.raises(ArithmeticError) as failure:
            jacobi_sweep(broken, None, 500, seed)
        assert str(failure.value) == want, seed


@pytest.mark.parametrize("name", ["G2", "F4", "B3", "E8"])
def test_bracket_matches_the_reference(name):
    alg = build_chevalley_algebra(name)
    rng = random.Random(name)

    def sparse():
        return {rng.randrange(alg.dim): rng.randrange(-9, 10) for _ in range(rng.randrange(6))}

    pairs = [(alg.element(sparse()), alg.element(sparse())) for _ in range(300)]
    want = [reference_bracket(a, b) for a, b in pairs]
    assert [bracket(a, b).coeffs for a, b in pairs] == want
    assert [c.coeffs for c in brackets(pairs)] == want  # one batch, zero operands among them


def test_brackets_of_no_pairs_is_no_brackets():
    assert brackets([]) == []


def test_bracket_matches_the_reference_on_e8_strings():
    kd = principal_kostant("E8")
    vectors = [v for string in kd.strings for v in string[:-1:2]]  # strings[7][58] has the 474-bit one
    assert max(abs(c).bit_length() for v in vectors for c in v.coeffs.values()) == 474
    for v in vectors:
        for w in (kd.triple.Y, kd.triple.X, vectors[len(vectors) // 2], v):
            assert bracket(w, v).coeffs == reference_bracket(w, v)


def test_root_graded():
    alg = build_chevalley_algebra("E6")
    d = alg.datum
    num_pos = len(d.positive_roots)

    def root_of(k):
        if k < num_pos:
            return d.positive_roots[k]
        if k < 2 * num_pos:
            return tuple(-c for c in d.positive_roots[k - num_pos])
        return None  # Cartan

    rng = random.Random(5)
    for _ in range(300):
        i, j = rng.randrange(2 * num_pos), rng.randrange(2 * num_pos)
        u, v = root_of(i), root_of(j)
        s = tuple(a + b for a, b in zip(u, v))
        out = bracket(alg.element({i: 1}), alg.element({j: 1}))
        if out.is_zero():
            continue
        if all(c == 0 for c in s):
            assert all(k >= 2 * num_pos for k in out.coeffs)
        else:
            assert s in set(d.all_roots)
            assert all(root_of(k) == s for k in out.coeffs)


def test_cartan_pairing_matches_matrix():
    for name in ("A3", "G2", "F4", "E6"):
        alg = build_chevalley_algebra(name)
        A = alg.datum.cartan
        for i in range(alg.datum.rank):
            for j in range(alg.datum.rank):
                out = bracket(x_of(alg, i), h_of(alg, j))
                coeff = out.coeffs.get(i, 0)
                assert coeff == A[j][i]
                assert set(out.coeffs) <= {i}


def test_dual_cartan_basis_relation():
    # [x_i, det(A) h[j]] = det(A) delta_ij x_i over ZZ, with det(A) h[j] built
    # from the inverse Cartan matrix times det A (3, 1 and 3 here)
    dets = []
    for name in ("A2", "G2", "E6"):
        alg = build_chevalley_algebra(name)
        l = alg.datum.rank
        # invert A over QQ by elimination, multiplying up its pivots
        aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(l)] for i, row in enumerate(alg.datum.cartan)]
        det = Fraction(1)
        for c in range(l):
            piv = next(i for i in range(c, l) if aug[i][c])
            if piv != c:
                aug[c], aug[piv], det = aug[piv], aug[c], -det
            det *= aug[c][c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for i in range(l):
                if i != c and aug[i][c]:
                    aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[c])]
        adj = [[det * x for x in row[l:]] for row in aug]
        assert all(x.denominator == 1 for row in adj for x in row)
        dets.append(int(det))
        for j in range(l):
            hj = alg.element({2 * alg.num_pos + k: int(adj[j][k]) for k in range(l)})
            for i in range(l):
                assert bracket(x_of(alg, i), hj) == x_of(alg, i).scale(dets[-1] * (i == j))
    assert dets == [3, 1, 3]


def test_ad_power():
    alg = build_chevalley_algebra("A1")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    trip = kd.triple
    v = alg.element({0: 3, 2: 1})
    assert ad_power(trip.Y, 0, v) == v
    # ad(Y)^2 X = [Y, H] = -2Y in the rank-one algebra, and the string stops there
    assert kd.strings == ((trip.X, trip.H, trip.Y.scale(-2), alg.element({})),)
    assert ad_power(trip.Y, 2, trip.X) == kd.strings[0][2]


def test_ad_power_kills_string_tops():
    alg = build_chevalley_algebra("G2")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    for (m, p), string in zip(kd.pairs, kd.strings):
        assert len(string) == 2 * m + 2
        assert list(string) == [ad_power(kd.triple.Y, k, p) for k in range(2 * m + 2)]
        assert string[-1].is_zero() and not string[-2].is_zero()


def test_e6_scan_vector_drops_support_mod_11():
    from monolab.prime_scan import build_report

    rep = build_report("E6")
    hit = False
    for scan in rep.per_exponent:
        for c in scan.vector:
            if c != 0 and c % 11 == 0:
                hit = True
    assert hit, "11 must divide some simple-projection coefficient in type E6"


def test_mixed_operand_rejection():
    a2 = build_chevalley_algebra("A2")
    b2 = build_chevalley_algebra("B2")
    with pytest.raises(ValueError):
        bracket(x_of(a2, 0), x_of(b2, 0))
    # G2 against a flipped copy of its table: one root datum, two algebras
    g2, flipped = build_chevalley_algebra("G2"), flipped_algebra("G2")
    with pytest.raises(ValueError):
        bracket(x_of(g2, 0), x_of(flipped, 0))
    for late in [(x_of(flipped, 0), x_of(flipped, 1)), (x_of(g2, 0), x_of(flipped, 1))]:  # a later pair of another algebra
        with pytest.raises(ValueError, match="incompatible operands"):
            brackets([(x_of(g2, 0), x_of(g2, 1)), late])


def test_dropped_algebra_freed_without_gc():
    # perfbench's lie-scan drops each cached algebra between ops; a reference
    # cycle would hold its table until the next gc and raise the peak RSS
    alg = ChevalleyAlgebra(build_root_datum("A2"))
    x_of(alg, 0)
    ref = weakref.ref(alg)
    gc.disable()
    try:
        del alg
        assert ref() is None
    finally:
        gc.enable()


def structure_constants_export(alg):
    """The table as one JSON document of (i, j, k, c) triples with the basis labels, for cross-tool checks."""
    return json.dumps(
        {
            "simple_type": str(alg.datum.simple_type),
            "dim": alg.dim,
            "basis": [alg.basis_label(k) for k in range(alg.dim)],
            "triples": [list(t) for t in alg.structure_constant_triples()],
        },
        sort_keys=True,
    )


def test_structure_constants_export():
    alg = build_chevalley_algebra("A2")
    doc = json.loads(structure_constants_export(alg))
    assert doc["dim"] == 8
    triples = {tuple(t) for t in doc["triples"]}
    # [y_0, x_0] = h_0 must appear with coefficient +1
    assert (alg.num_pos, 0, 2 * alg.num_pos, 1) in triples
    assert structure_constants_export(alg) == structure_constants_export(alg)


# sha256 of the export above: any change to the table, its order or the
# basis labels, a sign flip that still satisfies Jacobi included, changes the digest
EXPORT_SHA256 = {
    "A3": "d05b1b96081c1e4d6b69e986ee6dcab9fd100240664f7cc6831de3fdd0ad995a",
    "A8": "5d5828adee7791f3a8f6e98904939e3c1d1a27516e0c512d19a5f904589705e8",
    "B8": "5a6ade2ee54f47d2e2843f9ea9d66a73c73579cea3a7bf2237303c2413d79e70",
    "C8": "de2f4dfc3d6bb65fdec84ad1790f76901097db5f082b85ad1cba3241aa719ecd",
    "D8": "8ebaab9f3c966d9786fd7125737e7df2fb51b2a71197edad84d618cd02a6cc3b",
    "B3": "50fdd46a6033f6e95c32bb6a45af6f2d2fa18284e8c25007f03de647f0513882",
    "C3": "652764a8ad4a257276a24b7ec193757cdab6b497343f844aaa5c6aec0ad496f5",
    "D4": "821a11be26a5dcc5f6849b3ae9a1feeb1e9511e37ef3bbf323eb292f0a3d1995",
    "G2": "7ff0f5cfd825f7dfffcddecb8fc4e3a0b9cdf5a71be72f4dc28ac83c7a3df32e",
    "F4": "ed3377ecf6950fc20c0cd63340ca71d903c1205ac62953024d72282158e70e50",
    "E6": "a6056e09622824afd3e07cd9963530a4aafd0ac513d219bec3134826fe03d087",
    "E7": "74531489a2d4e9f9b267fd764a2e827ddf0d718adde68c8d5aa0e2302815d3f9",
    "E8": "3e3da5bd1af2a0beaf3e9c3a7a455090914f1d5c42ccaf960d320889ea1a5f6d",
    "A13": "6cb031445f984a172a7c2c5733237ea818d2f2ab639727b73c372ee9724ac985",
    "B10": "48276a29a56c710b8d95bd3efc3e2abacd3e9828b846bbbbf04e0065ac931213",
    "C6": "46ae103ef96b9a8b1ea3ac7a839b4eb94eda0869ba59ece3518da1f97e6c8941",
    "D10": "e3a904e6bfae7084821327d1ec6c18cde0c88d7f00c5e562a02c0f31c96339eb",
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_structure_constants_export_pinned(name):
    text = structure_constants_export(build_chevalley_algebra(name))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[name]


# sha256 of `entries.tobytes()` for the deepest classical tables (62 heights
# on B32), whose JSON export is too large to hash here
ENTRIES_SHA256 = {
    "A32": "17141d6ba20525c712045ad272330d67f87a6b172dcc262a819d80c899c62449",
    "B32": "2288804a829621a21f983b64dc6a8de2c4131dce8ab75825d76c09ffa96443b2",
    "C32": "19eaa52e01332c09e62b144de62ce806b02f67c6f38aa2c832f397a1bbc9da4c",
    "D32": "231dca8a9a10692f3519a3a23acab88888072db6e94332cedaa595cf049656f8",
}


@pytest.mark.parametrize("name", sorted(ENTRIES_SHA256))
def test_deepest_tables_pinned(name):
    # uncached: the rank-32 root data and tables are not kept for later tests;
    # the int32 pointer is built with no dim**2-long int64 array beside it
    alg = ChevalleyAlgebra(build_root_datum.__wrapped__(SimpleType.parse(name)))
    assert hashlib.sha256(alg.entries.tobytes()).hexdigest() == ENTRIES_SHA256[name]
    keys = alg.entries[0] * alg.dim + alg.entries[1]
    assert traced_peak(lambda: chevalley._pointer(keys, alg.dim**2)) < 8 * alg.dim**2


def test_element_canonical_form():
    alg = build_chevalley_algebra("A2")
    v = alg.element({0: 1, 1: 0, 3: -1})
    assert 1 not in v.coeffs
    assert v.scale(0).is_zero()
    assert (repr(v), repr(v.scale(0))) == ("1*x[0] + -1*y[0]", "0")


# -- signed maps between tables: the diagram involution --------------------------


def lands_on_dict_table(a, b, perm, sign):
    """Whether [s e_i, s e_j] = s [e_i, e_j] on the dict tables of a and b, for s e_k = sign[k] e_perm[k], and s is onto."""
    image = {(int(perm[i]), int(perm[j])): sorted((int(perm[k]), c * int(sign[i] * sign[j] * sign[k])) for k, c in terms)
             for (i, j), terms in reference_table(a).items()}
    return image == {key: sorted(terms) for key, terms in reference_table(b).items()}


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", "A1", "A4", "B3", "C3", "D4", "D5"])
def test_diagram_involution_is_an_automorphism(name):
    # an automorphism of the dict table; sigma is the identity exactly when -1 is in W
    alg = build_chevalley_algebra(name)
    perm, sign = diagram_involution(alg)
    assert lands_on_dict_table(alg, alg, perm, sign)
    assert (perm[perm] == np.arange(alg.dim)).all() and set(sign.tolist()) <= {-1, 1}
    assert (perm == np.arange(alg.dim)).all() == alg.datum.weyl_has_minus_one
    assert not perm.flags.writeable and not sign.flags.writeable


def test_e6_diagram_involution_swaps_the_outer_simple_roots():
    alg = build_chevalley_algebra("E6")
    perm, sign = diagram_involution(alg)
    num_pos = alg.num_pos
    pi = [5, 1, 4, 3, 2, 0]
    for i in range(6):  # x_i, y_i and h_i go to x, y and h of Bourbaki's 1 <-> 6, 3 <-> 5, with sign +1
        assert perm[[i, num_pos + i, 2 * num_pos + i]].tolist() == [pi[i], num_pos + pi[i], 2 * num_pos + pi[i]]
    assert (sign[2 * num_pos :] == 1).all() and (sign[:6] == 1).all()
    kd = principal_kostant("E6")  # sigma fixes the principal triple
    for z in (kd.triple.X, kd.triple.H, kd.triple.Y):
        assert {int(perm[k]): int(sign[k]) * c for k, c in z.coeffs.items()} == z.coeffs


def test_flipped_sign_fails_the_map_check():
    # negative control: flipping sigma's sign on any one non-simple root vector, positive or negative, breaks the map
    alg = build_chevalley_algebra("E6")
    perm, sign = diagram_involution(alg)
    for k in np.flatnonzero(np.abs(alg.datum.heights) >= 2):
        flipped = sign.copy()
        flipped[k] *= -1
        with pytest.raises(ArithmeticError, match=r"entry \(.*\) does not land on the second table"):
            _check_map(alg, alg, perm, flipped)
    _check_map(alg, alg, perm, sign)


def test_d4_triality_lands_with_order_3(monkeypatch):
    # the one builder takes triality too; only diagram_involution's square check refuses it
    alg = build_chevalley_algebra("D4")
    perm, sign = _signed_map(alg, alg, [2, 1, 3, 0])
    square, identity = perm[perm], np.arange(alg.dim)
    assert (square != identity).any() and (perm[square] == identity).all() and (sign * sign[perm] * sign[square] == 1).all()
    assert lands_on_dict_table(alg, alg, perm, sign)
    monkeypatch.setattr(chevalley, "_opposition", lambda d: [2, 1, 3, 0])
    with pytest.raises(ArithmeticError, match="the signed permutation is no involution"):
        diagram_involution(alg)


def reference_opposition(t: SimpleType) -> list[int]:
    """-w0 on the simple roots, 0-based, written out per family: A_n reversed, odd D_n's end swap, E6's 1 <-> 6, 3 <-> 5."""
    n = t.rank
    if t.family == "A":
        return [*range(n)][::-1]
    if t.family == "D" and n % 2:
        return [*range(n - 2), n - 1, n - 2]
    return [5, 1, 4, 3, 2, 0] if str(t) == "E6" else [*range(n)]


def test_opposition_read_off_the_cartan_matrix_matches_the_written_table():
    for name in EVERY_TYPE:
        d = build_root_datum(name)
        assert chevalley._opposition(d) == reference_opposition(d.simple_type), name


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "D7", "E6"])
def test_every_diagram_symmetry_lifts_to_the_table(name):
    alg = build_chevalley_algebra(name)
    for pi in alg.datum.diagram_symmetries:
        perm, sign = _signed_map(alg, alg, pi)
        assert lands_on_dict_table(alg, alg, perm, sign), pi


@pytest.mark.parametrize("name", ["A3", "E6"])
@pytest.mark.parametrize("count", [1, 3])
def test_opposition_needs_exactly_one_nontrivial_symmetry(monkeypatch, name, count):
    # negative control: with -1 not in W, a diagram of 1 or 3 symmetries has no one -w0 to offer
    monkeypatch.setattr(RootDatum, "diagram_symmetries", property(lambda d: (tuple(range(d.rank)),) * count))
    with pytest.raises(ArithmeticError, match=f"{name}: -1 is not in W, and the diagram has {count} symmetries, not 2"):
        chevalley._opposition(build_root_datum(name))


# -- Frenkel-Kac signs: a second table that Carter's signs must map onto ---------


FK_NEGATED = {"A3": 0, "A7": 0, "A14": 0, "D4": 3, "D5": 6, "D8": 21, "D11": 45, "E6": 7, "E7": 18, "E8": 38}


@pytest.mark.parametrize("name", FK_NEGATED)
def test_carter_signs_map_onto_frenkel_kac(name):
    # the Frenkel-Kac table is a Lie algebra, and a sign on each root vector takes Carter's table onto it
    fk, alg = frenkel_kac_algebra(name), build_chevalley_algebra(name)
    assert jacobi_sweep(fk) == fk.dim**3
    perm, sign = _signed_map(alg, fk, range(alg.datum.rank))
    assert (perm == np.arange(alg.dim)).all() and lands_on_dict_table(alg, fk, perm, sign)
    assert int((sign[: alg.num_pos] < 0).sum()) == FK_NEGATED[name]
    assert np.array_equal(fk.entries, alg.entries) == name.startswith("A")  # on type A the two tables agree


def test_flipped_carter_sign_fails_the_frenkel_kac_certificate():
    # negative control: one negated antisymmetric pair lands on no Frenkel-Kac entry under any sign map
    with pytest.raises(ArithmeticError, match=re.escape("entry (3, 6, 11, -1) does not land on the second table")):
        _signed_map(flipped_algebra("E6"), frenkel_kac_algebra("E6"), range(6))


@pytest.mark.parametrize("pi", [[1, 0, 2, 3, 4, 5], [5, 1, 2, 3, 4, 0], [5, 3, 4, 1, 2, 0]])
def test_wrong_simple_permutation_is_rejected(monkeypatch, pi):
    # only the diagram symmetry extends to an automorphism; the identity does too, and criterion 7 rejects it
    monkeypatch.setattr(chevalley, "_opposition", lambda d: pi)
    with pytest.raises(ArithmeticError):
        diagram_involution(build_chevalley_algebra("E6"))
