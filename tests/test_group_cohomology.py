import dataclasses
import hashlib
import math
import re
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from conftest import run_optimized, traced_peak

from monolab import group_cohomology, verify
from monolab.exact import EchelonState, det_mod, diagonal_divisors, integer_kernel, is_prime, rank_mod
from monolab.group_cohomology import (
    CohomologyReport,
    FiniteMatrixGroup,
    ModuleAction,
    ResourceLimitError,
    _primitive_root,
    _relation_lattice,
    _tree_products,
    adjoint_h1_via_kostant,
    close_group,
    h0,
    h1,
    h1_naive,
    h1_trivial_module_rank,
    module_direct_sum,
    module_from_matrices,
    sl2_generators,
    sl2_group,
    sym_module,
)

# value of h1(SL2(F_5), Sym^2 (x) det^-1): an excluded field size, so the
# solver itself is the source; frozen after the first computation purely to
# pin determinism, not as an external target
EXPLORATORY_SL2_F5_SYM2 = 1


def mat_mult(a, b, ell):
    # the Python-int reference product for checking the Cayley table
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % ell for j in range(n)) for i in range(n))


def rebuild_elements(G):
    # G's elements in label order, rebuilt along G.tree with the Python-int product:
    # the tree edge g * ng + j into element k says that element k is element g times s_j
    ng, d = len(G.generators), G.degree
    elements = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
    for e in G.tree.tolist():
        elements.append(mat_mult(elements[e // ng], G.generators[e % ng], G.ell))
    return tuple(elements)


def trivial_module(ell, ngens, dim=1):
    eye = np.eye(dim, dtype=np.int64)
    return module_from_matrices(ell, [eye] * ngens, "trivial")


def fixed_space_oracle(G, M):
    # brute force over every element, not just generators
    n, dim, ell = G.order, M.dim, G.ell
    rho = np.zeros((n, dim, dim), dtype=np.int64)
    rho[0] = np.eye(dim, dtype=np.int64)
    seen = [True] + [False] * (n - 1)
    for g in range(n):
        for j in range(len(G.generators)):
            t = int(G.cayley[g, j])
            if not seen[t]:
                seen[t] = True
                rho[t] = rho[g] @ M.matrices[j] % ell
    stacked = np.vstack([rho[g] - np.eye(dim, dtype=np.int64) for g in range(n)]) % ell
    from monolab.exact import rank_mod

    return dim - rank_mod(stacked, ell)


# -- closure -----------------------------------------------------------------


@pytest.mark.parametrize("ell", [3, 5, 13])
def test_sl2_closure_order(ell):
    assert sl2_group(ell).order == ell * (ell**2 - 1)


def test_identity_only_group():
    G = close_group([((1, 0), (0, 1))], 5)
    assert G.order == 1


def test_closure_cap(monkeypatch):
    # close_group builds at the call; a group made from generators alone builds on the first read
    monkeypatch.setattr(group_cohomology, "CLOSURE_CAP", 100)
    with pytest.raises(ResourceLimitError, match="cap=100"):
        close_group(sl2_generators(13), 13)
    G = FiniteMatrixGroup(13, 2, sl2_generators(13))
    with pytest.raises(ResourceLimitError, match="cap=100"):
        G.cayley


def test_non_invertible_rejected():
    with pytest.raises(ValueError):
        close_group([((1, 0), (2, 0))], 5)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="not a prime: 12"):
        close_group([((1, 1), (0, 1))], 12)


def test_cayley_table_consistency():
    G = sl2_group(5)
    elements = rebuild_elements(G)
    for g in (0, 1, 17, 100):
        for j, s in enumerate(G.generators):
            assert elements[G.cayley[g, j]] == mat_mult(elements[g], s, 5)


# sha256 of repr(rebuild_elements(G)) and of G.cayley.tobytes(), computed
# with the per-edge closure that preceded the level-batched one
CLOSURE_DIGESTS = {
    "SL2(F_13)": (
        2184,
        "5c09d4502810aae906bf34fc81d0a004fd4aa924370759621f7b4d4343db1de5",
        "043a897dbd991177551a601623a7587be1691bc1847b0cb452b4136e84c72052",
    ),
    "SL2(F_29)": (
        24360,
        "499929ce8058344e1e4b381623bf169c34012a1b037ce329618530fae566ac96",
        "634265b970531c6f432f900174242647719b14342807d7ec829e0f6983c39d82",
    ),
    "Borel(F_7)": (
        42,
        "9f9241655dd97cea4c1d816c354848bd658f6a4854482255ffd540f8e199f15c",
        "bc24fe2c881ef13114c53e59bcf979a08f6b4d07793ace1577475adb71739641",
    ),
    "monomial3(F_5)": (
        192,
        "dd8e5819d5e2e0d89a331486b831cc46139520180ad42c49242a663ffedd99f3",
        "ccc82872ec92e7b1264dcd5d2530cb9e38008580c3ccab5c21000a4906125dc0",
    ),
    "C3(F_2^31-1)": (
        3,
        "e708bcc0973124b56103ef42dde7a5d906c5d102e3d16242e7cfb374e27c970a",
        "e92b80d2ee5ab0f63d286728dc9849450b7cf439c2c2718d3bac632a510fd50c",
    ),
}

BOREL_7 = [((1, 1), (0, 1)), ((3, 0), (0, 5))]  # 3 is a primitive root mod 7


def test_closure_order_pinned():
    groups = {
        "SL2(F_13)": close_group(sl2_generators(13), 13),
        "SL2(F_29)": close_group(sl2_generators(29), 29),
        "Borel(F_7)": close_group(BOREL_7, 7),
        "monomial3(F_5)": close_group(
            [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))], 5
        ),
        "C3(F_2^31-1)": close_group([((0, -1), (1, -1))], 2**31 - 1),
    }
    for name, G in groups.items():
        order, elements_digest, cayley_digest = CLOSURE_DIGESTS[name]
        assert G.order == order, name
        assert G.cayley.dtype == np.int64 and G.cayley.shape == (order, len(G.generators)), name
        assert hashlib.sha256(repr(rebuild_elements(G)).encode()).hexdigest() == elements_digest, name
        assert hashlib.sha256(G.cayley.tobytes()).hexdigest() == cayley_digest, name
        # the tree the closure records is the first Cayley edge into each element k >= 1,
        # and its parents are non-decreasing and precede k (breadth-first order)
        labels, first = np.unique(G.cayley, return_index=True)
        assert labels.tolist() == list(range(order)) and G.tree.tolist() == first[1:].tolist(), name
        parents = G.tree // len(G.generators)
        assert np.all(np.diff(parents) >= 0) and np.all(parents < np.arange(1, order)), name


@pytest.mark.parametrize(
    "gens, ell, order", [([((1, 1), (0, 1))], 101, 101), (BOREL_7, 7, 42)], ids=["unipotent-101", "borel-7"]
)
def test_closure_cap_boundary(monkeypatch, gens, ell, order):
    # the cap is checked as each new element is found, on a narrow group (101
    # levels of one element) and a wide one: a group of exactly CLOSURE_CAP
    # elements closes, and one more element is past the cap
    monkeypatch.setattr(group_cohomology, "CLOSURE_CAP", order)
    assert close_group(gens, ell).order == order
    monkeypatch.setattr(group_cohomology, "CLOSURE_CAP", order - 1)
    with pytest.raises(ResourceLimitError, match=f"cap={order - 1}"):
        close_group(gens, ell)


def test_closure_residues_near_2_31():
    # signed 3 x 3 permutation matrices mod 2^31 - 1, whose entries include
    # p - 1: the products take matmul_mod's split path, and the closure keys
    # them by their int64 bytes
    p = 2**31 - 1
    G = close_group([((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((p - 1, 0, 0), (0, 1, 0), (0, 0, 1))], p)
    elements = rebuild_elements(G)
    assert G.order == 24 and len(set(elements)) == 24
    assert any(p - 1 in row for e in elements for row in e)
    for g in range(G.order):
        for j, s in enumerate(G.generators):
            assert elements[G.cayley[g, j]] == mat_mult(elements[g], s, p), (g, j)


def test_bfs_level_shapes():
    # the unipotent groups of orders 61 and 251 take one element per level, and some
    # level of the Borel subgroup of SL2(F_7) is entered by both of its generators
    for ell in (61, 251):
        assert bfs_tree(close_group([((1, 1), (0, 1))], ell))[0] == list(range(ell))
    level_gens = {}
    for d, j in zip(*bfs_tree(close_group(BOREL_7, 7))):
        level_gens.setdefault(d, set()).add(j)
    assert {0, 1} in level_gens.values()


def test_closed_group_keeps_no_element_tuples():
    # a closed group is its Cayley table and tree: SL2(F_29) keeps about
    # 0.6 MB of arrays, where its 24,360 element tuples took about 4.7 MB
    tracemalloc.start()
    try:
        G = close_group(sl2_generators(29), 29)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 24360 and not hasattr(G, "elements")
    assert kept < 1.5 * 2**20, kept


# -- modules -----------------------------------------------------------------


def test_sym_module_dims():
    assert sym_module(7, 0, 0).dim == 1
    assert sym_module(7, 1, 0).dim == 2
    assert sym_module(7, 2, 1).dim == 3


def test_sym_module_is_homomorphism():
    # propagate rho over the whole group, then check rho(g)rho(h) = rho(gh)
    import random

    ell = 11
    G = sl2_group(ell)
    M = sym_module(ell, 4, 2)
    n, dim = G.order, M.dim
    rho = np.zeros((n, dim, dim), dtype=np.int64)
    rho[0] = np.eye(dim, dtype=np.int64)
    seen = [True] + [False] * (n - 1)
    for g in range(n):
        for j in range(len(G.generators)):
            t = int(G.cayley[g, j])
            if not seen[t]:
                seen[t] = True
                rho[t] = rho[g] @ M.matrices[j] % ell
    elements = rebuild_elements(G)
    index = {e: k for k, e in enumerate(elements)}
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randrange(n), rng.randrange(n)
        c = index[mat_mult(elements[a], elements[b], ell)]
        assert np.array_equal(rho[a] @ rho[b] % ell, rho[c])


def sym_reference(ell, r, twist, generators):
    # sym_module's reference, by binomial expansion in Python ints: column k
    # holds the coefficients of (aX + cY)^(r-k) (bX + dY)^k
    def expand(u, v, n):
        # coefficients of (uX + vY)^n in X^(n-i) Y^i, reduced mod ell
        out = [1]
        for _ in range(n):
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] = (nxt[i] + c * u) % ell
                nxt[i + 1] = (nxt[i + 1] + c * v) % ell
            out = nxt
        return out

    mats = []
    for (a, b), (c, d) in generators:
        scale = pow((a * d - b * c) % ell, -twist, ell) if twist else 1
        cols = []
        for k in range(r + 1):
            poly = [0] * (r + 1)
            for i, ci in enumerate(expand(a, c, r - k)):
                for j, cj in enumerate(expand(b, d, k)):
                    poly[i + j] = (poly[i + j] + ci * cj) % ell
            cols.append([x * scale % ell for x in poly])
        mats.append([list(row) for row in zip(*cols)])
    return mats


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13, 127, 2**31 - 1])
def test_sym_module_matches_binomial_reference(ell):
    import random

    rng = random.Random(ell)
    for r in list(range(8)) + [rng.randrange(8, 31) for _ in range(4)] + [30]:
        gens = []
        while len(gens) < 3:
            g = tuple(tuple(rng.randrange(ell) for _ in range(2)) for _ in range(2))
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % ell:
                gens.append(g)
        twist = rng.randrange(-3, 4)
        M = sym_module(ell, r, twist, gens)
        assert M.dim == r + 1 and all(m.dtype == np.int64 for m in M.matrices)
        assert [m.tolist() for m in M.matrices] == sym_reference(ell, r, twist, gens), (r, twist, gens)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: module_from_matrices(7, [1.5 * np.eye(2, dtype=np.int64)]), "must be integers, got float64"),
        (lambda: close_group([((1.5, 0), (0, 1))], 7), "must be integers, got float"),
        (lambda: sym_module(7, 2, 1.0), "^twist is not an int: 1.0$"),
        (lambda: module_from_matrices(7, []), "at least one module matrix"),
        (lambda: sym_module(7, 2, 0, [np.eye(3, dtype=np.int64)]), "2 x 2 generator matrices"),
        (lambda: sym_module(7, 2, 0, []), "need at least one generator"),
        (
            lambda: sym_module(7, 2, 0, [((1, 1), (0, 1)), np.eye(3, dtype=np.int64)]),
            r"generators must be nonempty and all square of one shape, got \[\(2, 2\), \(3, 3\)\]",
        ),
        (lambda: rank_mod([], 7), r"2-d matrix, got shape \(0,\)"),
        (lambda: det_mod([[1, 2, 3], [4, 5, 6]], 7), r"^det_mod row 0 is a list, not a \{column: entry\} dict$"),
        (
            lambda: close_group([((1, 1), (0, 1)), np.eye(3, dtype=np.int64)], 7),
            r"one shape, got \[\(2, 2\), \(3, 3\)\]",
        ),
        (lambda: sym_module(7, 2, 0, [((1, 1), (0, 1)), ((1, 0), (0, 0))]), "generator 1 is singular mod 7"),
        (lambda: sym_module(7, 2, 1, [((1, 1), (0, 1)), ((1, 0), (0, 0))]), "generator 1 is singular mod 7"),
        (lambda: module_from_matrices(7, [np.zeros((0, 0), dtype=np.int64)]), r"got \[\(0, 0\)\]"),
        (lambda: close_group([np.zeros((0, 0), dtype=np.int64)], 7), r"got \[\(0, 0\)\]"),
        (lambda: close_group([((1, 1), (0, 1)), ((1, 0), (2, 0))], 5), "generators must be invertible"),
        (lambda: close_group([((1, 0, 0), (0, 1, 0))], 7), r"all square of one shape, got \[\(2, 3\)\]"),
        (lambda: close_group([(1, 2)], 7), r"all square of one shape, got \[\(2,\)\]"),
        (lambda: det_mod([{0: True, 1: 1}, {1: True}], 7), "must be integers, got bool"),
        (lambda: det_mod([{0: np.True_}, {1: np.True_}], 7), "must be integers, got bool"),
        (lambda: det_mod(np.eye(2, dtype=np.int64), 7), r"^det_mod takes a list or tuple of \{column: entry\} dict rows, got ndarray$"),
        (lambda: det_mod([{0: 1}, {1: True}], 7), "must be integers, got bool"),
        (lambda: det_mod([{0: 1}, {True: 1}], 7), r"det_mod row 1 has column key True, not an integer in \[0, 2\)"),
        (lambda: det_mod([{0: 1}, {1.0: 1}], 7), r"det_mod row 1 has column key 1.0, not an integer in \[0, 2\)"),
        (lambda: det_mod([{0: 1}, {2: 1}], 7), r"det_mod row 1 has column key 2, not an integer in \[0, 2\)"),
        (lambda: det_mod([{-1: 1}, {1: 1}], 7), r"det_mod row 0 has column key -1, not an integer in \[0, 2\)"),
        (lambda: det_mod([{0: 1}, [0, 1]], 7), r"^det_mod row 1 is a list, not a \{column: entry\} dict$"),
        (lambda: integer_kernel([[1, 2, 3]], 2), r"^row 0 is not 2 integers: \[1, 2, 3\]$"),
        (lambda: integer_kernel([[0, 0, 0], [1, 2]], 3), r"^row 1 is not 3 integers: \[1, 2\]$"),
        (lambda: integer_kernel([[True, 1]], 2), r"^row 0 is not 2 integers: \[True, 1\]$"),
        (lambda: integer_kernel([[1.5, 1]], 2), r"^row 0 is not 2 integers: \[1.5, 1\]$"),
        (lambda: integer_kernel(np.eye(2, dtype=bool), 2), r"^row 0 is not 2 integers: \[np\.True_, np\.False_\]$"),
        (lambda: diagonal_divisors([[1, 2], [1.0, 2]], 2), r"^row 1 is not 2 integers: \[1.0, 2\]$"),
        (lambda: diagonal_divisors([[1, 2]], 1), r"^row 0 is not 1 integers: \[1, 2\]$"),
        (lambda: integer_kernel([], -5), "^ncols must be >= 0, got -5$"),
        (lambda: integer_kernel([[1, 2]], 2.0), "^ncols is not an int: 2.0$"),
        (lambda: integer_kernel([[1]], True), "^ncols is not an int: True$"),
        (lambda: integer_kernel(np.array([1, 2, 3]), 3), r"^row 0 is not 3 integers: np\.int64\(1\)$"),
        (lambda: integer_kernel([5], 1), "^row 0 is not 1 integers: 5$"),
        (lambda: diagonal_divisors(np.array([2, 4]), 2), r"^row 0 is not 2 integers: np\.int64\(2\)$"),
        (lambda: diagonal_divisors([], -2), "^ncols must be >= 0, got -2$"),
        (lambda: h1_trivial_module_rank(close_group([((1, 1), (0, 1))], 7), -2), "^dim must be >= 1, got -2$"),
        (lambda: h1_trivial_module_rank(close_group([((1, 1), (0, 1))], 7), 0), "^dim must be >= 1, got 0$"),
        (lambda: h1_trivial_module_rank(close_group([((1, 1), (0, 1))], 7), 1.5), "^dim is not an int: 1.5$"),
        (lambda: h1_trivial_module_rank(close_group([((1, 1), (0, 1))], 7), True), "^dim is not an int: True$"),
    ],
    ids=[
        "module-float", "close-float", "sym-float-twist", "module-empty", "sym-3x3", "sym-empty", "sym-ragged",
        "rank-empty", "det-2x3", "close-mixed", "sym-singular", "sym-singular-twist",
        "module-0x0", "close-0x0", "close-singular", "close-2x3", "close-1-d", "det-bool", "det-numpy-bool", "det-ndarray",
        "det-dict-bool-value", "det-dict-bool-key", "det-dict-float-key", "det-dict-key-n", "det-dict-key-minus-1",
        "det-dict-list-row", "kernel-wide-row", "kernel-short-row", "kernel-bool", "kernel-float", "kernel-numpy-bool",
        "divisors-float", "divisors-wide-row", "kernel-ncols-minus-5", "kernel-ncols-float", "kernel-ncols-bool",
        "kernel-1-d-array", "kernel-int-row", "divisors-1-d-array", "divisors-ncols-minus-2", "trivial-rank-dim-minus-2", "trivial-rank-dim-0", "trivial-rank-dim-float",
        "trivial-rank-dim-bool",
    ],
)
def test_non_integer_or_empty_input_rejected(call, match):
    # a float entry is never truncated, a bool (Python's or numpy's) is not
    # read as 0 or 1, an empty list gets a clean error, a 3 x 3 generator is
    # not read through its top-left 2 x 2 block, a wrong shape is named
    # instead of surfacing as a numpy error, and a singular generator is
    # named whatever the twist (not pow()'s own error, and no non-invertible
    # module matrices), as is a singular or non-square generator of a group;
    # det_mod takes only a list or tuple of dict rows, and names the row of a
    # column key outside [0, n) or of a row that is not a dict; an integer
    # matrix over ZZ names its first row that is not ncols integers, never
    # dropping, padding or truncating one, nor taking a bare number for a row,
    # and its ncols is an int;
    # the trivial-module rank takes an int dimension of at least 1
    with pytest.raises(ValueError, match=match):
        call()


def test_sym_build_checked_against_budget(monkeypatch):
    # Sym^r is built for every r, so its (r+1)^2 arrays are checked against the
    # budget before the O(r) loop starts
    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", str(64 * 101**2))
    assert sym_module(7, 100, 0).dim == 101
    with pytest.raises(ResourceLimitError, match=r"Sym\^101 needs about"):
        sym_module(7, 101, 0)
    with pytest.raises(ResourceLimitError, match=r"Sym\^1000000 needs about"):
        sym_module(2**31 - 1, 10**6, 0)


# -- h0 ------------------------------------------------------------------------


def test_h0_trivial():
    G = sl2_group(5)
    assert h0(G, trivial_module(5, 2)) == 1


def test_h0_adjoint_sl2_f7():
    G = sl2_group(7)
    M = sym_module(7, 2, 1)
    assert h0(G, M) == 0
    assert fixed_space_oracle(G, M) == 0


def test_h0_additive():
    G = sl2_group(5)
    M = sym_module(5, 2, 1)
    assert h0(G, module_direct_sum(M, M)) == 2 * h0(G, M)
    T = trivial_module(5, 2)
    assert h0(G, module_direct_sum(T, T)) == 2


# -- h1 ------------------------------------------------------------------------


def abelianization_elementary_divisors(G):
    # nontrivial elementary divisors of G^ab = ZZ^ng / (relation lattice)
    return tuple(d for d in diagonal_divisors(_relation_lattice(G), len(G.generators)) if d != 1)


def loop_relations(G):
    # the nonzero count vectors of the loops that non-tree edges close, by a
    # plain loop over the Cayley edges in breadth-first order
    ng = len(G.generators)
    words = {0: (0,) * ng}
    rels = set()
    for g in range(G.order):
        for j, t in enumerate(G.cayley[g].tolist()):
            step = tuple(w + (i == j) for i, w in enumerate(words[g]))
            if t not in words:
                words[t] = step
            elif step != words[t]:
                rels.add(tuple(a - b for a, b in zip(step, words[t])))
    return rels


IDENTITY_2 = ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "gens, ell, divisors",
    [
        ([((1, 1), (0, 1))] * 3, 7, (7,)),
        ([IDENTITY_2, BOREL_7[1], IDENTITY_2, BOREL_7[0]], 7, (6,)),
        ([((2, 0), (0, 1)), ((1, 0), (0, 2))], 5, (4, 4)),
        ([((3, 0), (0, 1)), ((1, 0), (0, 6)), ((6, 0), (0, 6))], 7, (2, 6)),
        ([((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))], 3, (3, 3)),
        (list(sl2_generators(5)[::-1]) + [sl2_generators(5)[0]], 5, ()),
        # the groups of the smith rows of CROSS_CHECKS: SL2(F_7) is perfect, SL2(F_3)^ab = Z/3,
        # and the cyclic group of order 7, the torus of order 12 and the Borel subgroup of SL2(F_7)
        (sl2_generators(7), 7, ()),
        (sl2_generators(3), 3, (3,)),
        ([((1, 1), (0, 1))], 7, (7,)),
        ([((2, 0), (0, 7))], 13, (12,)),
        (BOREL_7, 7, (6,)),
    ],
)
def test_relation_lattice_rows(gens, ell, divisors):
    # the lattice is handed over as its distinct nonzero loop relations; the
    # elementary divisors are those the gcd echelon basis gave, and G^ab (x) F_ell
    # has one dimension for each of them that ell divides
    G = close_group(gens, ell)
    rows = _relation_lattice(G)
    assert len(set(rows)) == len(rows) and all(any(r) for r in rows)
    assert set(rows) == loop_relations(G)
    assert abelianization_elementary_divisors(G) == divisors
    assert h1_trivial_module_rank(G) == sum(d % ell == 0 for d in divisors)


def test_report_rejects_negative_dimensions():
    with pytest.raises(ArithmeticError):
        CohomologyReport(h0=3, dim_Z1=2, dim_B1=4, h1=-2)
    with pytest.raises(ArithmeticError):
        CohomologyReport(h0=0, dim_Z1=2, dim_B1=1, h1=0)


def test_report_checks_survive_optimize():
    code = (
        "from monolab.group_cohomology import CohomologyReport\n"
        "for dims in ((3, 2, 4, -2), (0, 2, 1, 0)):\n"
        "    try:\n"
        "        CohomologyReport(*dims)\n"
        "    except ArithmeticError:\n"
        "        print('rejected')\n"
    )
    assert run_optimized(code) == "rejected\nrejected"


def certified_nonvanishing(ell, r):
    """Independent certificate: an explicit cocycle, checked on all pairs."""
    from monolab.exact import rank_mod

    G = sl2_group(ell)
    M = sym_module(ell, r, r // 2)
    n, ng, dim = G.order, len(G.generators), M.dim
    rho = np.zeros((n, dim, dim), dtype=np.int64)
    rho[0] = np.eye(dim, dtype=np.int64)
    C = np.zeros((n, dim, ng * dim), dtype=np.int64)
    seen = [True] + [False] * (n - 1)
    rows = []
    for g in range(n):
        for j in range(ng):
            t = int(G.cayley[g, j])
            if not seen[t]:
                seen[t] = True
                rho[t] = rho[g] @ M.matrices[j] % ell
                C[t] = C[g]
                C[t, :, j * dim : (j + 1) * dim] = (C[t, :, j * dim : (j + 1) * dim] + rho[g]) % ell
            else:
                blk = C[g].copy()
                blk[:, j * dim : (j + 1) * dim] += rho[g]
                rows.append((blk - C[t]) % ell)
    A = np.vstack(rows)
    # nullspace basis by full reduction
    m = A.copy()
    ncols = ng * dim
    pivcols, rr = [], 0
    for c in range(ncols):
        piv = next((i for i in range(rr, m.shape[0]) if m[i, c] % ell), None)
        if piv is None:
            continue
        m[[rr, piv]] = m[[piv, rr]]
        m[rr] = m[rr] * pow(int(m[rr, c]), -1, ell) % ell
        for i in range(m.shape[0]):
            if i != rr and m[i, c] % ell:
                m[i] = (m[i] - m[i, c] * m[rr]) % ell
        pivcols.append(c)
        rr += 1
    free = [c for c in range(ncols) if c not in pivcols]
    elements = rebuild_elements(G)
    index = {e: k for k, e in enumerate(elements)}
    gen_idx = [index[s] for s in G.generators]
    cob = np.zeros((dim, ncols), dtype=np.int64)
    for b in range(dim):
        v = np.zeros(dim, dtype=np.int64)
        v[b] = 1
        for j in range(ng):
            cob[b, j * dim : (j + 1) * dim] = (rho[gen_idx[j]] @ v - v) % ell
    witness = None
    base_rank = rank_mod(cob, ell)
    for fc in free:
        u = np.zeros(ncols, dtype=np.int64)
        u[fc] = 1
        for i, c in enumerate(pivcols):
            u[c] = (-m[i, fc]) % ell
        if rank_mod(np.vstack([cob, u]), ell) > base_rank:
            witness = u
            break
    if witness is None:
        return False
    phi = np.array([(C[g] @ witness) % ell for g in range(n)])
    for a in range(n):
        prod = [index[mat_mult(elements[a], elements[b], ell)] for b in range(n)]
        lhs = phi[prod]
        rhs = (phi[a][None, :] + phi @ rho[a].T) % ell
        if not np.array_equal(lhs, rhs):
            return False
    return True


def bfs_tree(G):
    # breadth-first distance of every element and the generator of the first
    # edge reaching it, by a plain loop of its own
    dist, via = [0] + [None] * (G.order - 1), [None] * G.order
    for g in range(G.order):
        for j, t in enumerate(G.cayley[g].tolist()):
            if dist[t] is None:
                dist[t], via[t] = dist[g] + 1, j
    return dist, via


# -- H^1 cross-checks --------------------------------------------------------
#
# CROSS_CHECKS has one row per group and solver set.  `cross_check` runs each
# named solver on each module of the row, requires one CohomologyReport from
# all of them, and compares that report with the value that the row's source
# gives from outside the solvers:
#   coprime      gcd(|G|, ell) = 1, so h1 = 0;
#   closed-form  h1 = [r = ell - 3] on SL2(F_ell) or its Borel subgroup, for
#                ell >= 7 and r < ell (restriction to B is an isomorphism on
#                H^1: the index ell + 1 is prime to ell, and the torus has no
#                H^1); on the unipotent group of order ell, Sym^r with
#                r + 1 < ell is one Jordan block, so h1 = h0 = 1;
#   smith        `h1_trivial_module_rank`, read off the relation lattice;
#   additive     h1 adds over direct sums;
#   certificate  `certified_nonvanishing`: an explicit cocycle outside B^1 at
#                r = ell - 3, the one class there;
#   pinned       EXPLORATORY_SL2_F5_SYM2, where the solver itself is the source;
#   None         only agreement vouches for the value (AGREEMENT_ONLY).
# On a trivial module h0 = dim as well, and every report has dim B^1 = dim - h0.
# Agreement alone is weak: all three solvers reduce through exact.EchelonState,
# and the Cayley solver and h1_naive share _tree_products and _check_module
# (cocycles as in K. S. Brown, Cohomology of Groups, IV.2; independent checks
# as in McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying algorithms", 2011).


@dataclasses.dataclass(frozen=True)
class CrossCheck:
    name: str  # run by test_<name>; the rows named x[p] are the parameters p of test_x
    gens: tuple  # the generator list
    ell: int
    modules: tuple  # each (r1, r2, ...): Sym^r1 + Sym^r2 + ... on gens, twist 0; or a fixture module as it is
    solvers: tuple  # names in SOLVERS
    source: str | None
    order: int | None = None  # the group order, where the row pins it


SOLVERS = {
    "h1": h1,  # on the given generators: the Borel solver on `sl2_generators`, else the Cayley solver
    "swapped": lambda G, M: h1(swapped_group(G.ell, G.generators), swapped_module(M)),
    "naive": h1_naive,
}
ALL, NO_NAIVE = tuple(SOLVERS), ("h1", "swapped")
ONE_GENERATOR = ("h1", "naive")  # the swapped list is the same list

# generators of cyclic subgroups of SL2(ZZ), by order
CYCLIC_GENERATORS = {
    2: ((-1, 0), (0, -1)),
    3: ((0, -1), (1, -1)),
    4: ((0, -1), (1, 0)),
    6: ((1, -1), (1, 0)),
}
UNIPOTENT = ((1, 1), (0, 1))


def torus_generator(ell):
    a = _primitive_root(ell)
    return ((a, 0), (0, pow(a, -1, ell)))


def each(rs):
    return tuple((r,) for r in rs)


def sl2_row(name, ell, modules, solvers, source):
    return CrossCheck(name, sl2_generators(ell), ell, modules, solvers, source)


# verify's oracle fixtures, one row per (G, M) in its order: name, source and group order
FIXTURE_ROWS = [
    CrossCheck(name, G.generators, G.ell, (M,), ALL if len(G.generators) > 1 else ONE_GENERATOR, source, order)
    for (name, source, order), (G, M) in zip(
        [
            ("oracle_fixture[sl2-3-sym2]", None, 24),
            ("h1_trivial_sl2_f3", "smith", 24),
            ("excluded_size_exploratory_value", "pinned", 120),
            ("oracle_fixture[sl2-5-sym4]", None, 120),
            ("oracle_fixture[unipotent-7-sym1]", "closed-form", 7),
            ("h1_trivial_on_cyclic_group", "smith", 7),
            ("oracle_fixture[torus-13-sym2]", "coprime", 12),
        ],
        verify._oracle_fixture_groups(),
        strict=True,
    )
]

# the Borel subgroup of SL2(F_7) on lists with the identity or a repeated generator: the naive
# system reads s_j's element as cayley[0, j], which such a list must not shift
BOREL_LISTS = {
    "identity-first": (IDENTITY_2, *BOREL_7),
    "repeated": (*BOREL_7, BOREL_7[0]),
    "identity-and-repeated": (BOREL_7[1], IDENTITY_2, BOREL_7[1], BOREL_7[0]),
}

CROSS_CHECKS = (
    *FIXTURE_ROWS,
    sl2_row("h1_trivial_on_perfect_group", 7, ((0,),), ALL, "smith"),
    sl2_row("certified_nonvanishing_at_ell_minus_3", 7, ((4,),), NO_NAIVE, "certificate"),
    sl2_row("h1_direct_sum_additive", 5, ((2, 4),), ALL, "additive"),
    *(sl2_row(f"symmetric_power_vanishing_values[{ell}]", ell, each(range(ell)), NO_NAIVE, "closed-form")
      for ell in (7, 11, 13)),
    # every r < 8 at ell < 5, and past r = ell - 1 with a direct sum from ell = 5 on
    sl2_row("borel_matches_cayley[2]", 2, each(range(8)) + ((0, 3, 0, 0),), ALL, None),
    sl2_row("borel_matches_cayley[3]", 3, each(range(8)) + ((0, 4, 0, 0), (4, 0, 0)), ALL, None),
    *(sl2_row(f"borel_matches_cayley[{ell}]", ell, each(range(ell, ell + 3)) + ((ell - 3, ell + 1, 0, 0),), NO_NAIVE,
              None) for ell in (5, 7, 11, 13)),
    # h1_naive refuses |G| dim > 1500; Sym^2 and Sym^4 at ell = 5 and Sym^0 at ell = 7 are rows above
    sl2_row("borel_matches_naive[5]", 5, each((0, 1, 3)), ALL, None),
    sl2_row("borel_matches_naive[7]", 7, each((1,)), ALL, "closed-form"),
    *(CrossCheck(f"naive_matches_cayley_on_repeated_and_identity_generators[{key}]", gens, 7, each(range(7)),
                 ALL, "closed-form", 42) for key, gens in BOREL_LISTS.items()),
    CrossCheck("h1_borel_two_generator_levels", tuple(BOREL_7), 7, tuple((r, 0, 0) for r in range(7)), ALL,
               "closed-form", 42),
    CrossCheck("h1_one_element_levels", (UNIPOTENT,), 61, each(range(9)), ONE_GENERATOR, "closed-form", 61),
    *(CrossCheck(f"naive_on_the_unipotent_group_of_order_251[{r}]", (UNIPOTENT,), 251, ((r,),), ONE_GENERATOR,
                 "closed-form", 251) for r in (0, 1)),
    CrossCheck("h1_torus_levels", (((3, 0), (0, 21)),), 31, each((0, 1, 2, 7, 15, 30)), ONE_GENERATOR, "coprime", 30),
    CrossCheck("naive_on_the_torus_of_order_126", (torus_generator(127),), 127, ((0, 0, 0, 0),), ONE_GENERATOR,
               "coprime", 126),
    CrossCheck("torus_relation_lattice", (((2, 0), (0, 7)),), 13, ((0,),), ONE_GENERATOR, "smith", 12),
    # products of residues near 2**31 overflow int64, which once gave h1 = -2 at order 3 on Sym^6;
    # the id k is order k at 2**31 - 1
    CrossCheck("h1_exact_at_largest_prime", (CYCLIC_GENERATORS[3],), 2**31 - 1, ((6,),), ONE_GENERATOR, "coprime", 3),
    *(CrossCheck(f"coprime_cyclic_h1_vanishes_below_2_31[{k if ell == 2**31 - 1 else f'{k}-{ell}'}]", (g,), ell,
                 each((4, 5) if (k, ell) == (3, 2**31 - 1) else (4, 5, 6)), ONE_GENERATOR, "coprime", k)
      for k, g in CYCLIC_GENERATORS.items() for ell in (2**31 - 1, 2147483629, 2147483587)),
)

# the rows that only agreement vouches for, each with the ROADMAP item that would give it an
# independent value: 14, a Fox-calculus solver at every ell, or 25, certificates for every (ell, r)
AGREEMENT_ONLY = {
    "oracle_fixture[sl2-3-sym2]": 14,
    "oracle_fixture[sl2-5-sym4]": 14,
    "borel_matches_cayley[2]": 14,
    "borel_matches_cayley[3]": 14,
    "borel_matches_cayley[5]": 14,
    "borel_matches_cayley[7]": 25,
    "borel_matches_cayley[11]": 25,
    "borel_matches_cayley[13]": 25,
    "borel_matches_naive[5]": 14,
}


@lru_cache(maxsize=None)
def table_group(gens, ell):
    # SL2(F_ell) on sl2_generators stays unclosed until something reads its closure
    return sl2_group(ell) if gens == sl2_generators(ell) else close_group(gens, ell)


def table_module(G, spec):
    if isinstance(spec, ModuleAction):
        return spec
    return reduce(module_direct_sum, [sym_module(G.ell, r, 0, generators=G.generators) for r in spec])


def independent_value(row, G, spec):
    """The report fields that row.source fixes for the module of spec, each from outside the solvers."""
    rs = (spec.dim - 1,) if isinstance(spec, ModuleAction) else spec  # a fixture module is one Sym^r
    ell = G.ell
    value = {} if any(rs) else {"h0": len(rs)}
    if row.source == "coprime":
        assert math.gcd(G.order, ell) == 1
        value["h1"] = 0
    elif row.source == "closed-form" and G.order == ell:  # the unipotent group
        assert max(rs) + 1 < ell
        value.update(h0=len(rs), h1=len(rs))
    elif row.source == "closed-form":  # SL2(F_ell) or its Borel subgroup
        assert ell >= 7 and max(rs) < ell
        value["h1"] = rs.count(ell - 3)
    elif row.source == "smith":
        assert not any(rs)
        value["h1"] = h1_trivial_module_rank(G, len(rs))
    elif row.source == "additive":
        assert len(rs) > 1
        value["h1"] = sum(h1(G, table_module(G, (r,))).h1 for r in rs)
    elif row.source == "certificate":
        assert rs == (ell - 3,) and certified_nonvanishing(ell, ell - 3)
        value["h1"] = 1
    elif row.source == "pinned":
        assert (ell, rs) == (5, (2,))
        value["h1"] = EXPLORATORY_SL2_F5_SYM2
    else:
        assert row.source is None, row.source
    return value


def cross_check(row):
    G = table_group(row.gens, row.ell)
    assert row.order in (None, G.order)
    for spec in row.modules:
        M = table_module(G, spec)
        reports = {name: SOLVERS[name](G, M) for name in row.solvers}
        rep = reports[row.solvers[0]]
        assert set(reports.values()) == {rep}, (spec, reports)
        assert rep.dim_B1 == M.dim - rep.h0, (spec, rep)
        want = independent_value(row, G, spec)
        assert {key: getattr(rep, key) for key in want} == want, (spec, rep)


def _runner(rows):
    """test_x: the one row named x, or the rows x[p] as its parameters p."""
    if len(rows) == 1 and "[" not in rows[0].name:
        return lambda: cross_check(rows[0])

    @pytest.mark.parametrize("row", rows, ids=[row.name.partition("[")[2][:-1] for row in rows])
    def test(row):
        cross_check(row)

    return test


for _name in dict.fromkeys(row.name.partition("[")[0] for row in CROSS_CHECKS):
    globals()[f"test_{_name}"] = _runner([row for row in CROSS_CHECKS if row.name.partition("[")[0] == _name])


def test_agreement_only_rows_are_pinned():
    # a row that gains or loses an independent value moves in or out of AGREEMENT_ONLY
    assert len({row.name for row in CROSS_CHECKS}) == len(CROSS_CHECKS)
    assert {row.name for row in CROSS_CHECKS if row.source is None} == set(AGREEMENT_ONLY)
    assert set(AGREEMENT_ONLY.values()) <= {14, 25}


def test_cross_check_fails_on_a_disagreement_or_a_missed_value(monkeypatch):
    row = next(row for row in CROSS_CHECKS if row.name == "h1_torus_levels")
    cross_check(row)

    def skew(solver):  # one cocycle class more
        def skewed(G, M):
            rep = solver(G, M)
            return dataclasses.replace(rep, dim_Z1=rep.dim_Z1 + 1, h1=rep.h1 + 1)

        return skewed

    monkeypatch.setitem(SOLVERS, "naive", skew(h1_naive))
    with pytest.raises(AssertionError, match=r"'naive': CohomologyReport\(h0=1, dim_Z1=1, dim_B1=0, h1=1\)"):
        cross_check(row)
    monkeypatch.setitem(SOLVERS, "h1", skew(h1))  # both agree now, on h1 = 1 where gcd(30, 31) = 1 says 0
    with pytest.raises(AssertionError, match=r"\(\(0,\), CohomologyReport\(h0=1, dim_Z1=1, dim_B1=0, h1=1\)\)"):
        cross_check(row)


def test_det_twist_trivial_on_sl2():
    # every generator list of the table has det 1, so det^-t changes no matrix and each row takes twist 0;
    # a generator with det != 1 in the table fails here
    for gens, ell in {(row.gens, row.ell) for row in CROSS_CHECKS}:
        want = sym_module(ell, 4, 0, gens).matrices
        for t in (1, 2, 3):
            assert all(np.array_equal(x, y) for x, y in zip(sym_module(ell, 4, t, gens).matrices, want)), (gens, ell, t)


def multiplicative_order(g, p):
    k, x = 1, g % p
    while x != 1:
        k, x = k + 1, x * g % p
    return k


def test_primitive_root_is_the_least_generator():
    # the Borel solver's torus element h(a) needs a generator a of F_p^x; orders brute-forced
    for p in [p for p in range(2, 2000) if is_prime(p)]:
        assert _primitive_root(p) == next(g for g in range(1, p) if multiplicative_order(g, p) == p - 1), p
    assert _primitive_root(2) == 1 and _primitive_root(2**31 - 1) == 7


def affine_maps(G, M):
    # [M_j | E_j] for each generator: E_j places phi(s_j) among the ng generator values
    ncols = len(G.generators) * M.dim
    return np.concatenate([np.array(M.matrices), np.eye(ncols, dtype=np.int64).reshape(-1, M.dim, ncols)], axis=2)


def tree_walk(G, M):
    # [rho(k) | C_k] of every element k by the Python-int walk along G.tree: element k is
    # element g times s_j, so rho(k) = rho(g) M_j and C_k = C_g + rho(g) E_j
    ng, dim, ell = len(G.generators), M.dim, G.ell
    mats = [tuple(map(tuple, m.tolist())) for m in M.matrices]
    rho = [tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))]
    C = [tuple((0,) * (ng * dim) for _ in range(dim))]
    for e in G.tree.tolist():
        g, j = divmod(e, ng)
        rho.append(mat_mult(rho[g], mats[j], ell))
        step = [[rho[g][a][b - j * dim] if b // dim == j else 0 for b in range(ng * dim)] for a in range(dim)]
        C.append(tuple(tuple((c + s) % ell for c, s in zip(*rows)) for rows in zip(C[g], step)))
    return [[list(r) + list(c) for r, c in zip(*rc)] for rc in zip(rho, C)]


def oracle_groups():
    # (generators, ell) of every kind of group that the small-group-oracle benchmark draws
    groups = [(sl2_generators(ell), ell) for ell in (2, 3, 5, 7)]
    groups += [([((1, 1), (0, 1)), torus_generator(ell)], ell) for ell in (3, 5, 7, 11, 13)]
    groups += [([((1, 1), (0, 1))], 251), ([torus_generator(127)], 127)]
    return groups + [([g], 2**31 - 1) for g in CYCLIC_GENERATORS.values()]


@pytest.mark.parametrize("gens, ell", oracle_groups())
def test_tree_products_match_the_tree_walk(gens, ell):
    G = close_group(gens, ell)
    M = sym_module(ell, 2, 1, generators=G.generators)
    walk = tree_walk(G, M)
    assert _tree_products(G, affine_maps(G, M), ell).tolist() == walk
    assert _tree_products(G, np.array(M.matrices), ell).tolist() == [[row[: M.dim] for row in X] for X in walk]


@pytest.mark.parametrize(
    "gens, ell, steps",
    [
        ([((1, 1), (0, 1))], 251, 8),
        (sl2_generators(13), 13, 5),
        ([torus_generator(127)], 127, 7),
        ([((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 1), (1, 0))], 5, 4),
    ],
    ids=["cyclic-251", "sl2-13", "torus-126", "gl2-5"],
)
def test_tree_products_take_log_depth_steps(monkeypatch, gens, ell, steps):
    # a tree of depth d takes ceil(log2 d) jumping steps, one product each;
    # step t jumps only the elements deeper than 2^t and multiplies each
    # distinct pair of path words once; every factor of a tree path is a tree
    # path, so the products number one per element of depth 2 or more, where
    # one per jumping element and step would be about log2 d times as many
    G = close_group(gens, ell)
    dist = bfs_tree(G)[0]
    assert (max(dist) - 1).bit_length() == steps
    calls, real = [], group_cohomology.matmul_mod
    monkeypatch.setattr(group_cohomology, "matmul_mod", lambda a, b, ell: calls.append(len(a)) or real(a, b, ell))
    _tree_products(G, np.array(sym_module(ell, 1, 0, generators=G.generators).matrices), ell)
    assert len(calls) == steps
    assert all(0 < c <= sum(d > 2**t for d in dist) for t, c in enumerate(calls))
    assert sum(calls) == sum(d > 1 for d in dist)


def test_cayley_peak_under_its_estimate(monkeypatch):
    # the Cayley solver's budget estimate covers what it allocates, also on
    # the int64 products of all elements and one jumping step over them, and
    # a budget one byte below the estimate refuses the run
    U = close_group([((1, 1), (0, 1))], 251)
    cases = [
        (swapped_group(13), swapped_module(sym_module(13, 6, 0))),
        (U, sym_module(251, 5, 0, generators=U.generators)),
    ]
    needs, real = [], group_cohomology._check_budget
    monkeypatch.setattr(group_cohomology, "_check_budget", lambda need, what: needs.append(need) or real(need, what))
    for G, M in cases:
        needs.clear()
        peak = traced_peak(lambda: h1(G, M))
        [need] = needs
        assert need / 4 < peak < need, (G.order, M.dim)
        monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", str(need - 1))
        with pytest.raises(ResourceLimitError, match="cocycle propagation"):
            h1(G, M)
        monkeypatch.delenv("MONOLAB_MEMORY_BUDGET")


def test_naive_columns_newest_element_first(monkeypatch):
    # element h's unknowns are column block n - 1 - h, so the row of the tree
    # edge from g into k leads with k's own block; the edges from the identity
    # are left out, where phi(s_j) cancels and the row is -phi(1)
    G = close_group(BOREL_7, 7)
    M = sym_module(7, 2, 1, generators=G.generators)
    n, ng, dim = G.order, len(G.generators), M.dim
    batches = []

    class Recording(EchelonState):
        def add(self, batch):
            batches.append(batch.copy())
            super().add(batch)

    monkeypatch.setattr(group_cohomology, "EchelonState", Recording)
    h1_naive(G, M)
    rows = np.vstack(batches).reshape(n, ng, dim, n * dim)
    g, j = np.divmod(G.tree, ng)
    lead = (rows[g, j] != 0).argmax(axis=-1)[g > 0]
    k = np.arange(1, n)[g > 0]
    assert lead.tolist() == ((n - 1 - k)[:, None] * dim + np.arange(dim)).tolist()


def test_naive_peak_on_sl2_7_sym3():
    # with the newest element first, a pivot row of the naive system is 0 off
    # a few columns, and the echelon state keeps each row on the columns it
    # reaches: 1,344 unknowns peak near 2.6 MB, where rows over every free
    # column would take 12.0 MB
    G, M = sl2_group(7), sym_module(7, 3, 0)
    assert G.order * M.dim == 1344
    got = []
    assert traced_peak(lambda: got.append(h1_naive(G, M))) < 4 * 10**6
    assert got == [h1(G, M)]


@pytest.mark.parametrize("ell, r", [(5, 12), (7, 4), (11, 1)])
def test_naive_refuses_past_its_reach(ell, r):
    # README's reach on SL2(F_ell): r <= 11 at ell = 5, r <= 3 at ell = 7, r = 0 at ell = 11; Sym^r is the first refused
    G, M = sl2_group(ell), sym_module(ell, r, 0)
    assert G.order * (M.dim - 1) <= 1500 < G.order * M.dim
    with pytest.raises(ResourceLimitError, match=r"^naive solver is restricted to \|G\| \* dim <= 1500$"):
        h1_naive(G, M)


def test_adjoint_h1_values():
    assert adjoint_h1_via_kostant("F4", 29) == 0
    assert adjoint_h1_via_kostant("E6", 29) == 0
    # G2 at ell = 13 hits the exceptional weight 2(h-1) = ell - 3
    assert adjoint_h1_via_kostant("G2", 13) == 1
    assert adjoint_h1_via_kostant("G2", 17) == 0


def test_adjoint_h1_bound_guard():
    with pytest.raises(ValueError):
        adjoint_h1_via_kostant("G2", 7)  # below 2h-1 = 11
    with pytest.raises(ValueError, match="^not a prime: 9$"):
        adjoint_h1_via_kostant("G2", 9)  # a composite is refused as one, before the bound


def test_memory_budget(monkeypatch):
    # the Cayley solver's guard, on SL2(F_13) closed from swapped generators
    G, M = swapped_group(13), swapped_module(sym_module(13, 10, 5))
    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", "10000")
    with pytest.raises(ResourceLimitError):
        h1(G, M)
    # more digits than int() reads, and non-ASCII digits: refused by name, not read
    for bad in ("7" * 5000, "١٢"):
        monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", bad)
        with pytest.raises(ValueError, match=re.escape(f"MONOLAB_MEMORY_BUDGET={bad!r}: the memory budget must be")):
            h1(G, M)


def test_memory_budget_borel(monkeypatch):
    # the Borel solver checks its own estimate against the same budget, and
    # needs far less than the Cayley solver on the same group and module
    G, M = sl2_group(13), sym_module(13, 10, 5)
    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", "10000")
    with pytest.raises(ResourceLimitError, match="Borel"):
        h1(G, M)
    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", "1000000")
    assert h1(G, M).h1 == 1
    with pytest.raises(ResourceLimitError, match="cocycle propagation"):
        h1(swapped_group(13), swapped_module(M))


def test_budget_env_override(monkeypatch):
    from monolab.group_cohomology import memory_budget

    monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", "12345")
    assert memory_budget() == 12345
    for bad in ("abc", "-5", "0", "1.5", " 7"):  # each a ValueError that names the variable and its value
        monkeypatch.setenv("MONOLAB_MEMORY_BUDGET", bad)
        with pytest.raises(ValueError, match=re.escape(f"MONOLAB_MEMORY_BUDGET={bad!r}")):
            memory_budget()
    monkeypatch.delenv("MONOLAB_MEMORY_BUDGET")
    assert memory_budget() == 2 * 1024**3


def test_module_group_mismatch_rejected():
    G = sl2_group(5)
    with pytest.raises(ValueError):
        h1(G, sym_module(7, 2, 1))
    # h1_naive shares the check: a module over another field, and one with a matrix too many
    cyclic_7 = close_group([((1, 1), (0, 1))], 7)
    for group, module in [(G, trivial_module(7, 2)), (cyclic_7, trivial_module(7, 2))]:
        for solver in (h1, h1_naive):
            with pytest.raises(ValueError, match="^module does not match the group's generator list$"):
                solver(group, module)


def test_report_consistency():
    rep = h1(sl2_group(7), sym_module(7, 2, 1))
    assert rep.dim_B1 == 3 - rep.h0
    assert rep.h1 == rep.dim_Z1 - rep.dim_B1
    doc = rep.to_json_dict()
    assert set(doc) == {"h0", "dim_Z1", "dim_B1", "h1"}


# -- Borel solver ------------------------------------------------------------


def swapped_group(ell, gens=None):
    # the group again on its generator list reversed: for SL2(F_ell), the default, h1 then takes the Cayley solver
    return table_group(tuple(gens or sl2_generators(ell))[::-1], ell)


def swapped_module(M):
    return module_from_matrices(M.ell, M.matrices[::-1], M.description)


def test_stored_tree_reaches_every_element():
    G = sl2_group(7)
    assert G.tree.shape == (G.order - 1,)
    assert G.cayley.flat[G.tree].tolist() == list(range(1, G.order))


def test_solver_selected_by_generator_list(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong solver")

    M = sym_module(7, 4, 2)
    monkeypatch.setattr(group_cohomology, "_z1_cayley", refuse)
    assert h1(sl2_group(7), M).h1 == 1
    monkeypatch.undo()
    monkeypatch.setattr(group_cohomology, "_h1_sl2", refuse)
    assert h1(swapped_group(7), swapped_module(M)).h1 == 1


def is_module_oracle(G, mats):
    """rho(g) M_j = rho(g s_j) on every Cayley edge, rho propagated along first visits."""
    dim = mats[0].shape[0]
    rho = [np.eye(dim, dtype=np.int64)] + [None] * (G.order - 1)
    for g in range(G.order):
        for j, t in enumerate(G.cayley[g].tolist()):
            value = rho[g] @ mats[j] % G.ell
            if rho[t] is None:
                rho[t] = value
            elif not np.array_equal(rho[t], value):
                return False
    return True


def borel_accepts(G, M):
    try:
        h1(G, M)
    except ValueError:
        return False
    return True


def solver_verdict(solver, G, M):
    try:
        solver(G, M)
    except ValueError as exc:
        assert str(exc).startswith("not a module"), exc
        return False
    return True


# the unipotent generator of SL2(F_7) acting by 5 on a line: 5^7 != 1 mod 7
NON_MODULE = "close_group([((1, 1), (0, 1))], 7), module_from_matrices(7, [[[5, 0], [0, 1]]])"


@pytest.mark.parametrize("solver", [h1, h1_naive], ids=["cayley", "naive"])
def test_non_modules_rejected_off_sl2(solver):
    # groups that h1 sends to the Cayley solver: each verdict against the edge oracle
    assert not solver_verdict(solver, *eval(NON_MODULE))
    rng = np.random.default_rng(11)
    groups = [close_group([((1, 1), (0, 1))], 7), close_group([((3, 0), (0, 5)), ((1, 1), (0, 1))], 7), swapped_group(5)]
    verdicts = {True: 0, False: 0}
    for G in groups:
        for d in (1, 2, 3):
            for _ in range(20):
                M = module_from_matrices(G.ell, [rng.integers(0, G.ell, (d, d)) for _ in G.generators])
                is_module = is_module_oracle(G, M.matrices)
                verdicts[is_module] += 1
                assert solver_verdict(solver, G, M) == is_module, [m.tolist() for m in M.matrices]
        M = trivial_module(G.ell, len(G.generators), 2)
        assert solver_verdict(solver, G, M)
    assert verdicts[False] >= 100


def test_non_module_rejected_under_optimize():
    code = (
        "from monolab.group_cohomology import close_group, h1, h1_naive, module_from_matrices\n"
        "for solver in (h1, h1_naive):\n"
        "    try:\n"
        f"        solver({NON_MODULE})\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    msg = "not a module: rho(g) M_j != rho(g s_j) at element g=6, generator j=0"
    assert run_optimized(code) == f"{msg}\n{msg}"


@pytest.mark.parametrize("ell", [5, 7])
def test_module_check_against_edge_oracle(ell):
    G = sl2_group(ell)
    rng = np.random.default_rng(ell)
    pairs = [[rng.integers(0, ell, (d, d)) for _ in range(2)] for d in (1, 2, 3) for _ in range(67)]
    for r in (1, 2, 3):
        U, W = sym_module(ell, r, 0).matrices
        for _ in range(30):
            bad = [U.copy(), W.copy()]
            which, i, k = rng.integers(2), rng.integers(r + 1), rng.integers(r + 1)
            bad[which][i, k] = (bad[which][i, k] + rng.integers(1, ell)) % ell
            pairs.append(bad)
        # the same module in a random basis, still a module
        while True:
            B = rng.integers(0, ell, (r + 1, r + 1))
            if det_mod([dict(enumerate(row)) for row in B.tolist()], ell):
                break
        Binv = np.array(inverse_mod(B, ell))
        pairs.append([B @ U @ Binv % ell, B @ W @ Binv % ell])
    # scalars 1 and -1 satisfy every relation but (U W)^3 = 1
    pairs.append([np.eye(1, dtype=np.int64), np.full((1, 1), ell - 1)])
    if ell == 7:  # 2 is a primitive cube root of unity mod 7: every relation but W^4 = 1 holds
        pairs.append([np.eye(1, dtype=np.int64), np.full((1, 1), 2)])
    verdicts = {True: 0, False: 0}
    for mats in pairs:
        M = module_from_matrices(ell, mats)
        is_module = is_module_oracle(G, M.matrices)
        verdicts[is_module] += 1
        assert borel_accepts(G, M) == is_module, [m.tolist() for m in M.matrices]
        if is_module:
            assert h1(G, M) == h1(swapped_group(ell), swapped_module(M))
    assert verdicts[True] >= 3 and verdicts[False] >= 200


def inverse_mod(B, ell):
    # Gauss-Jordan on [B | 1] with Python ints
    n = len(B)
    a = [[int(x) % ell for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(B)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        inv = pow(a[c][c], -1, ell)
        a[c] = [x * inv % ell for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                a[i] = [(x - a[i][c] * y) % ell for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


# PSL2(F_8) on the 9 points of P^1(F_8), as images of S = w and T = x+(1) of
# SL2(ZZ): S -> an involution x, ST -> an element y of order 3 with x y of
# order 7 (a Hurwitz generation), found by search.  p[i] is the image of i.
HURWITZ_PSL2_8 = {"S": (0, 6, 4, 7, 2, 8, 1, 3, 5), "T": (8, 5, 3, 4, 0, 2, 6, 7, 1)}


def permutation_matrix(p):
    m = np.zeros((len(p), len(p)), dtype=np.int64)
    m[list(p), range(len(p))] = 1
    return m


def test_sl2z_quotient_that_is_not_sl2_f7_rejected():
    # every relation of SL2(ZZ) holds, and T^7 = 1, so the pair satisfies
    # U^7 = W^4 = 1, W^2 U = U W^2 and (U W)^3 = 1; but PSL2(F_8) is not a
    # quotient of SL2(F_7), so only the Behr-Mennicke relation (BM) can reject it
    U, W = permutation_matrix(HURWITZ_PSL2_8["T"]), permutation_matrix(HURWITZ_PSL2_8["S"])
    ell, eye = 7, np.eye(9, dtype=np.int64)
    assert np.array_equal(np.linalg.matrix_power(U, 7), eye)
    assert np.array_equal(np.linalg.matrix_power(W, 4), eye)
    assert np.array_equal(U @ W @ U @ W.T @ U, W)
    M = module_from_matrices(ell, [U, W], "PSL2(F_8) on P^1(F_8)")
    assert not is_module_oracle(sl2_group(ell), M.matrices)
    with pytest.raises(ValueError, match=r"\(BM\)"):
        h1(sl2_group(ell), M)


def test_input_checks_raise_errors():
    with pytest.raises(ValueError):
        module_from_matrices(5, [np.eye(2), np.zeros((2, 3))])
    with pytest.raises(ValueError):
        module_direct_sum(sym_module(5, 1, 0), sym_module(7, 1, 0))
    with pytest.raises(ValueError):
        module_direct_sum(sym_module(5, 1, 0), trivial_module(5, 1))


def test_sl2_order_check_raises(monkeypatch):
    # the check runs where the closure is built, on the first read
    real = group_cohomology._bfs_closure
    monkeypatch.setattr(group_cohomology, "_bfs_closure", lambda gens, ell: real(gens[:1], ell))
    G = group_cohomology.sl2_group.__wrapped__(5)
    with pytest.raises(ArithmeticError, match="order 5"):
        G.order
    with pytest.raises(ArithmeticError, match="order 5"):
        close_group(sl2_generators(5), 5)


def test_sl2_group_builds_no_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("closure built")

    sl2_group.cache_clear()
    monkeypatch.setattr(group_cohomology, "_bfs_closure", refuse)
    G = sl2_group(127)  # 2,048,256 elements, past the default cap
    assert repr(G) == "FiniteMatrixGroup(generators=2, degree=2, ell=127)"
    assert h1(G, sym_module(127, 2, 1)).h1 == 0
    assert adjoint_h1_via_kostant("G2", 13) == 1
    # Sym^1 is faithful, so the presentation check that accepts it checks the
    # relation word in SL2(F_ell) itself; -1 kills the cohomology for odd ell
    for ell in [p for p in range(2, 2000) if is_prime(p)] + [2**31 - 1]:
        assert h1(sl2_group(ell), sym_module(ell, 1, 0)) == CohomologyReport(h0=0, dim_Z1=2, dim_B1=2, h1=0), ell
    with pytest.raises(AssertionError, match="closure built"):
        G.order
    with pytest.raises(ValueError, match="not a prime: 12"):
        sl2_group(12)
    sl2_group.cache_clear()


def test_non_square_module_rejected_under_optimize():
    code = (
        "import numpy as np\n"
        "from monolab.group_cohomology import module_from_matrices\n"
        "try:\n"
        "    module_from_matrices(5, [np.eye(2), np.zeros((2, 3))])\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    assert run_optimized(code) == "rejected"
