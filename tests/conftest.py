"""Helpers shared by the test modules (importable as `conftest`)."""

import functools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import monolab
from monolab import chevalley
from monolab.chevalley import ChevalleyAlgebra, brackets, build_chevalley_algebra
from monolab.prime_scan import build_report
from monolab.principal_sl2 import principal_kostant
from monolab.rootsys import build_root_datum
from monolab.selmer_arith import local_dim
from monolab.verify import _ledgers


def _clear_per_type_caches():
    for cached in (principal_kostant, build_report):
        cached.cache_clear()


@pytest.fixture
def mutant():
    """A MonkeyPatch for library mutations, applied between two clears of the per-type caches they can feed.

    `principal_kostant` and `build_report` keep one result per simple type: the
    first clear makes them rebuild through the patches, and the second, once the
    patches are undone, keeps a mutant result from reaching a later test.
    """
    _clear_per_type_caches()
    with pytest.MonkeyPatch.context() as mp:
        yield mp
    _clear_per_type_caches()


def run_optimized(code):
    """Run `code` under `python -O` with monolab and this module importable; returns its stdout."""
    paths = [os.path.dirname(os.path.dirname(monolab.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def traced_peak(call):
    """Peak bytes that tracemalloc counts during call(), numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bracket(a, b):
    """[a, b], one pair through `brackets`."""
    return brackets([(a, b)])[0]


def x_of(alg, a):
    """The root vector x_a of the positive root with index a."""
    return alg.element({a: 1})


def y_of(alg, a):
    """The root vector y_a of the negative of the positive root with index a."""
    return alg.element({alg.num_pos + a: 1})


def h_of(alg, i):
    """The i-th simple coroot vector."""
    return alg.element({2 * alg.num_pos + i: 1})


@functools.lru_cache(maxsize=4)
def reference_table(alg):
    """The (i, j) -> [(k, c), ...] dict of the structure constants, read off `structure_constant_triples()`."""
    table = {}
    for i, j, k, c in alg.structure_constant_triples():
        table.setdefault((i, j), []).append((k, c))
    return table


def reference_clean(alg, acc):
    """acc without zero values, reduced mod ell on an F_ell view."""
    ell = alg.ell
    return {k: v if ell is None else v % ell for k, v in acc.items() if (v if ell is None else v % ell)}


def reference_bracket(a, b):
    """Dict-table oracle for the coefficients of [a, b]: every pair of coefficients times every (k, c) of its (i, j)."""
    assert a.algebra is b.algebra
    table, acc = reference_table(a.algebra), {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            for k, c in table.get((i, j), ()):
                acc[k] = acc.get(k, 0) + ci * cj * c
    return reference_clean(a.algebra, acc)


def reference_triples(dim, samples, seed):
    """The `samples` seeded basis triples that `jacobi_sweep(alg, None, samples, seed)` checks.

    One draw of all their bytes, read as little-endian 64-bit words mod dim, three a triple.
    """
    words = random.Random(seed).randbytes(24 * samples)
    index = [int.from_bytes(words[at : at + 8], "little") % dim for at in range(0, len(words), 8)]
    return list(zip(index[0::3], index[1::3], index[2::3]))


def reference_rows(keys, queries):
    """`chevalley._rows` by two binary searches in query order: (query, position) pairs with keys[position] == queries[query]."""
    start = np.searchsorted(keys, queries, "left")
    n = np.searchsorted(keys, queries, "right") - start
    return np.repeat(np.arange(len(queries)), n), np.arange(n.sum()) + np.repeat(start - (np.cumsum(n) - n), n)


def reference_jacobi(alg, triples):
    """Per-triple Jacobi loop over the dict table: the number of triples, or the error text naming the first failing one."""
    table, checked = reference_table(alg), 0
    for i, j, k in triples:
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in table.get((a, b), ()):
                for t, ct in table.get((m, c), ()):
                    acc[t] = acc.get(t, 0) + cm * ct
        acc = reference_clean(alg, acc)
        if acc:
            return f"Jacobi fails on basis triple {(i, j, k)}: {dict(sorted(acc.items()))}"
        checked += 1
    return checked


def ad_power(y, n, v):
    """ad(y)^n v by n brackets, independent of the Kostant strings the package caches."""
    for _ in range(n):
        v = bracket(y, v)
    return v


# every buildable simple type: the classical ones up to rank 32 and the five exceptional ones, 127 in all
EVERY_TYPE = [f"{family}{n}" for family, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(lo, 33)] + [
    "G2", "F4", "E6", "E7", "E8"
]


def string_depth(roots, u, v):
    """Tuple-arithmetic oracle for the depth p of the u-string through v, as in |N| = p+1; `roots` is the root set."""
    p = 0
    w = tuple(a - b for a, b in zip(v, u))
    while w in roots:
        p += 1
        w = tuple(a - b for a, b in zip(w, u))
    return p


def string_walk_positive_roots(cartan):
    """Reference closure: beta + alpha_i is a root iff q = p - <alpha_i^vee, beta> >= 1, with p walked down on tuples.

    Sorted by (height, alpha_1-first lexicographic), the order `RootDatum.positive_roots` keeps.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known, frontier = set(simple), list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                if beta == simple[i]:  # 2 alpha_i is no root
                    continue
                p = string_depth(known, simple[i], beta)
                up = tuple(b + s for b, s in zip(beta, simple[i]))
                if p - sum(cartan[i][j] * beta[j] for j in range(n)) >= 1 and up not in known:
                    known.add(up)
                    new.append(up)
        frontier = new
    return sorted(known, key=lambda r: (sum(r), tuple(-c for c in r)))


def norm2(datum, a):
    """Tuple-arithmetic oracle for the Weyl-invariant (a, a): sum_ij a_i a_j d_i A_ij."""
    d, A, n = datum.simple_norms, datum.cartan, datum.rank
    return sum(a[i] * a[j] * d[i] * A[i][j] for i in range(n) for j in range(n))


def coroot(datum, a):
    """Tuple-arithmetic oracle for the coroot 2 a / (a, a) in simple-coroot coordinates."""
    n2 = norm2(datum, a)
    assert all(2 * c * d % n2 == 0 for c, d in zip(a, datum.simple_norms)), a
    return tuple(2 * c * d // n2 for c, d in zip(a, datum.simple_norms))


def root_constants(alg):
    """{(i, j): N} read off the table for roots i, j whose sum k is a root: [x_i, x_j] = N x_k."""
    num_roots = 2 * alg.num_pos
    return {(i, j): n for i, j, k, n in alg.structure_constant_triples() if max(i, j, k) < num_roots}


def flipped_algebra(name, factor=-1):
    """A copy of the ZZ algebra with the first antisymmetric pair of its entries times factor, negated by default.

    Under negation antisymmetry still holds, so only the Jacobi identity can
    catch it.  The cached algebra and its entries are left untouched.
    """
    alg = build_chevalley_algebra(name)
    entries = alg.entries.copy()
    i, j = entries[:2, 0]  # the least (i, j) pair
    pair = ((entries[0] == i) & (entries[1] == j)) | ((entries[0] == j) & (entries[1] == i))
    entries[3, pair] *= factor
    return ChevalleyAlgebra(alg.datum, _shared=entries)


def frenkel_kac_constants(datum):
    """(u, v, n) for every pair of roots with a root sum, in `_carter_constants`' orientation, from Frenkel-Kac signs.

    For a simply-laced type, eps(u, v) is bimultiplicative on the root lattice
    with eps(alpha_i, alpha_j) = -1 exactly when i = j or i < j are linked
    (Frenkel and Kac, Invent. Math. 62, 1980).  The table's bracket is the
    negated one, [x_u, x_-u] = -u^vee, so n takes eps(u, v) times -1 for each
    negative root among u, v and u + v.
    """
    num_pos, sums = len(datum.positive_roots), datum.root_sums
    assert set(datum.simple_norms) == {1}, f"{datum.simple_type} is not simply laced"
    u, v = np.nonzero(sums >= 0)
    form = np.eye(datum.rank, dtype=np.int64) + np.triu(np.array(datum.cartan) == -1, 1)  # i = j or i < j linked
    coords = np.array(datum.all_roots, dtype=np.int64)
    parity = ((coords[u] @ form) * coords[v]).sum(1) + (u >= num_pos) + (v >= num_pos) + (sums[u, v] >= num_pos)
    return u, v, 1 - 2 * (parity % 2)


def frenkel_kac_algebra(name):
    """The ZZ Chevalley algebra of a simply-laced type on the Frenkel-Kac signs, built by `_build_table`."""
    datum = build_root_datum(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chevalley, "_carter_constants", frenkel_kac_constants)
        return ChevalleyAlgebra(datum, _shared=chevalley._build_table(datum))


def reference_euler_difference(ledger):
    """The difference formula in its Euler-characteristic grouping, the oracle for `wiles_difference`.

    h0 - h0(1) - sum_{v | infinity} h0_v + sum over finite places (dim L_v - h0_v):
    the archimedean places are subtracted outside the sum.
    """
    total = ledger.h0_global - ledger.h0_global_twist - sum(ledger.archimedean_fixed_dims)
    for c in ledger.locals:
        total += local_dim(c, ledger.dim_n) - c.h0_local
    return total


def balanced_ledger(t, degree):
    """Criterion 7's balanced ledger of degree 1..3 for type t, as `verify._ledgers` builds it: ordinary surplus
    degree*N at ell, degree archimedean places of fixed dimension N (the number of positive roots) and two balanced
    places (steinberg, minimal), with h0 = 0."""
    alg = build_chevalley_algebra(t)
    return _ledgers(alg, len(alg.datum.positive_roots), 0)[degree - 1]
