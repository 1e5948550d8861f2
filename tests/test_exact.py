import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod
from unittest import mock

import numpy as np
import pytest
from conftest import run_optimized, traced_peak, x_of

from monolab import exact
from monolab.chevalley import build_chevalley_algebra, jacobi_sweep
from monolab.exact import (
    _CHUNK,
    EchelonState,
    check_prime_modulus,
    det_mod,
    diagonal_divisors,
    factor,
    integer_kernel,
    is_prime,
    kernel_mod,
    matmul_mod,
    normalize_primitive,
    rank_mod,
    residues,
)
from monolab.group_cohomology import (
    adjoint_h1_via_kostant,
    close_group,
    h1,
    h1_naive,
    module_from_matrices,
    sl2_generators,
    sl2_group,
    sym_module,
)
from monolab.principal_sl2 import principal_kostant, sl2_string_family_rows
from monolab.selmer_arith import LocalCondition, SelmerLedger, local_dim
from monolab.verify import _next_primes


def rational_rank(rows, ncols):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def rational_det(rows):
    n = len(rows)
    work = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] / work[c][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def test_kernel_known_cases():
    assert integer_kernel([[1, 0], [0, 1]], 2) == []
    assert integer_kernel([[2, 0]], 2) == [(0, 1)]
    k = integer_kernel([[1, 2, 3], [2, 4, 6]], 3)
    assert len(k) == 2
    for v in k:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    # int64 entries are read as Python ints: the column steps pass 2**63 without wrapping
    row = [2**40 + 1, 3**25, 7**14]
    k = integer_kernel([row], 3)
    assert k[1] == (90825462104588418349408, -117862615606108191366555, 1)
    assert integer_kernel(np.array([row], dtype=np.int64), 3) == integer_kernel([list(np.array(row))], 3) == k
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for v in k)


def divisor_chain(ds):
    # gcd and lcm of each pair in turn, so each entry divides the next
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            ds[i], ds[j] = gcd(ds[i], ds[j]), ds[i] * ds[j] // gcd(ds[i], ds[j])
    return ds


def determinantal_divisors(rows, ncols):
    # d_k / d_(k-1), where d_k is the gcd of all k x k minors, up to the rank
    out, last = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = 0
        for rs in combinations(rows, k):
            for cs in combinations(range(ncols), k):
                d = gcd(d, int(rational_det([[r[c] for c in cs] for r in rs])))
        if d == 0:
            break
        out.append(d // last)
        last = d
    return out


def test_diagonal_divisors_against_determinantal_divisors():
    rng = random.Random(4404)
    for _ in range(300):
        m, n, bound = rng.randrange(1, 6), rng.randrange(1, 5), rng.choice([3, 10, 200])
        rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]
        assert divisor_chain(diagonal_divisors(rows, n)) == determinantal_divisors(rows, n), rows
    # a loop that stopped at one nonzero per column would cycle here between two
    # lower-triangular forms, since _xgcd(1, -2) mixes the pivot column back in
    cycle_prone = [[14, 0], [0, 0], [27, 2], [0, 0], [0, 30]]
    assert determinantal_divisors(cycle_prone, 2) == diagonal_divisors(cycle_prone, 2) == [1, 2]
    assert diagonal_divisors([[0, 0], [0, 0]], 2) == diagonal_divisors([], 3) == diagonal_divisors([[], []], 0) == []
    wide = [[2**70, 6 * 2**64], [3 * 2**66, 0]]
    assert divisor_chain(diagonal_divisors(wide, 2)) == determinantal_divisors(wide, 2) == [2**65, 9 * 2**66]


def test_column_reduction_refuses_a_wrong_bezout_step(monkeypatch):
    # with an off-by-one Bezout coefficient the 2 x 2 step leaves a + g, not g, in
    # its pivot column, and the loop raises rather than return a wrong kernel
    real = exact._xgcd

    def off_by_one(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    monkeypatch.setattr(exact, "_xgcd", off_by_one)
    with pytest.raises(ArithmeticError) as caught:
        integer_kernel([[2, 3]], 2)
    assert str(caught.value) == "column reduction left row 0 uncleared"


def test_kernel_saturation():
    # (1,1,-1) lies in the kernel of [1,2,3]; the basis must reach it integrally
    basis = integer_kernel([[1, 2, 3]], 3)
    target = (1, 1, -1)
    # solve integer combination by brute force over a small box
    hits = [
        (a, b)
        for a in range(-5, 6)
        for b in range(-5, 6)
        if tuple(a * x + b * y for x, y in zip(*basis)) == target
    ]
    assert hits


def test_kernel_random_property():
    rng = random.Random(42)
    for _ in range(50):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        kern = integer_kernel(rows, n)
        for v in kern:
            assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows)
            lead = next((x for x in v if x), 0)
            assert lead > 0
        assert len(kern) == n - rational_rank(rows, n)


def test_normalize_primitive():
    assert normalize_primitive((2, -4, 6)) == (1, -2, 3)
    assert normalize_primitive((-3, 6)) == (1, -2)
    assert normalize_primitive((0, 0)) == (0, 0)


def test_primality():
    small = [n for n in range(2, 60) if is_prime(n)]
    assert small == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    assert is_prime(1000000000039)
    assert not is_prime(1000000000039 * 1000000000061)
    # psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13 prime bases
    # (Sorenson and Webster, Math. Comp. 86, 2017): the first is caught by base 41, the second is refused
    psi12, psi13 = 399165290221 * 798330580441, 1287836182261 * 2575672364521
    assert (psi12, psi13) == (318665857834031151167461, exact._MR_PROVEN_LIMIT)
    assert all(exact._miller_rabin(psi12, a) for a in exact._MR_BASES[:12])
    assert not exact._miller_rabin(psi12, 41)
    assert all(exact._miller_rabin(psi13, a) for a in exact._MR_BASES)
    assert not is_prime(psi12)
    for n in (psi13, 2**89 - 1):
        with pytest.raises(ValueError, match=f"^{n} passes Miller-Rabin on the first 13 prime bases"):
            is_prime(n)
    assert not is_prime(3 * (2**89 - 1))
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_det_mod_against_rational():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        d = rational_det(rows)
        for ell in (2, 3, 5, 13, 101):
            assert det_mod(dict_rows(rows), ell) == int(d) % ell


def reference_rank_det(rows, ell):
    """Rank mod ell and, for a square matrix, the determinant mod ell.

    Plain Gaussian elimination on Python ints, so no fixed-width arithmetic
    is shared with the kernel under test.
    """
    work = [[x % ell for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    rank, det = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            det = -det
        det = det * work[rank][c] % ell
        inv = pow(work[rank][c], -1, ell)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv % ell
            if f:
                work[i] = [(a - f * b) % ell for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank, det % ell


def random_residue_matrix(rng, m, n, ell, kind):
    if kind == "low-rank":
        k = rng.randrange(min(m, n))
        left = [[rng.randrange(ell) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(ell) for _ in range(n)] for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k)) % ell for j in range(n)] for i in range(m)]
    rows = [[rng.randrange(ell) for _ in range(n)] for _ in range(m)]
    if kind == "zero-columns":
        for j in rng.sample(range(n), max(1, n // 4)):
            for r in rows:
                r[j] = 0
    return rows


@pytest.mark.parametrize("ell", [2, 3, 7, 65521, 2**31 - 1])
def test_kernel_against_python_reference(ell):
    # 70 rows span two elimination chunks, so the reduction of a later chunk
    # and the back-substitution into earlier pivot rows both run
    assert _CHUNK < 70
    rng = random.Random(ell)
    for m, n in [(1, 1), (3, 5), (7, 4), (12, 12), (70, 40), (40, 70), (70, 70)]:
        for kind in ("random", "low-rank", "zero-columns"):
            rows = random_residue_matrix(rng, m, n, ell, kind)
            rank, det = reference_rank_det(rows, ell)
            assert rank_mod(rows, ell) == rank, (m, n, kind)
            state = EchelonState(n, ell)
            cuts = [0] + sorted(rng.sample(range(1, m), min(2, m - 1))) + [m]
            for lo, hi in zip(cuts, cuts[1:]):
                state.add(np.array(rows[lo:hi], dtype=np.int64))
            assert state.rank == rank, (m, n, kind, cuts)
            if m == n:
                assert det_mod(dict_rows(rows), ell) == det, (m, kind)
            other = [[rng.randrange(ell) for _ in range(3)] for _ in range(n)]
            want = [[sum(r[t] * other[t][j] for t in range(n)) % ell for j in range(3)] for r in rows]
            got = matmul_mod(np.array(rows, dtype=np.int64), np.array(other, dtype=np.int64), ell)
            assert got.tolist() == want, (m, n, kind)


def shuffled_blocks(rng, blocks):
    """The matrix with these blocks (lists of rows, of any shapes) on its diagonal, rows and columns shuffled."""
    ncols = sum(len(b[0]) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + r + [0] * (ncols - at - len(r)) for r in b]
        at += len(b[0])
    rng.shuffle(rows)
    cols = list(range(ncols))
    rng.shuffle(cols)
    return [[r[j] for j in cols] for r in rows]


def block_cases(rng, ell):
    """(name, matrix) pairs whose nonzero pattern splits into blocks, for `det_mod` against the reference."""

    def square(k):  # nonsingular, so that a shuffle's sign shows
        while reference_rank_det(block := random_residue_matrix(rng, k, k, ell, "random"), ell)[0] < k:
            pass
        return block

    chain = [[rng.randrange(1, ell) if j in (i, i + 1) else 0 for j in range(40)] for i in range(40)]
    zero_row = shuffled_blocks(rng, [square(3), square(2), square(4)])
    zero_row[rng.randrange(9)] = [0] * 9
    zero_col = shuffled_blocks(rng, [square(3), square(1), square(5)])
    zero_col = [r[:4] + [0] + r[5:] for r in zero_col]
    yield "1x1 zero", [[0]]
    for t in range(6):
        yield f"blocks {t}", shuffled_blocks(rng, [square(rng.randrange(1, 7)) for _ in range(rng.randrange(1, 9))])
    yield "singular block", shuffled_blocks(rng, [square(3), random_residue_matrix(rng, 4, 4, ell, "low-rank"), square(2)])
    yield "zero row", zero_row
    yield "zero column", zero_col
    tall, wide = random_residue_matrix(rng, 3, 2, ell, "random"), random_residue_matrix(rng, 2, 3, ell, "random")
    yield "more rows than columns", shuffled_blocks(rng, [square(2), tall, wide])
    yield "bidiagonal chain", chain
    yield "shuffled chain", shuffled_blocks(rng, [chain, square(3)])


def dict_rows(matrix):
    """The matrix as sparse rows {column: entry}, with an explicit 0 on the diagonal of each nonzero row that has none."""
    return [{j: x for j, x in enumerate(row) if x or (i == j and any(row))} for i, row in enumerate(matrix)]


@pytest.mark.parametrize("ell", [2, 3, 7, 65521, 2**31 - 1])
def test_det_mod_block_by_block_against_the_reference(ell):
    # the shuffles make the sign of the row and column orders matter, and a
    # block that is singular, has a zero row or column, or more rows than
    # columns makes the determinant 0; each matrix goes in as dict rows,
    # where a zero row is an empty dict
    rng, nonzero, explicit_zeros, empty_rows = random.Random(ell), 0, 0, 0
    for name, matrix in block_cases(rng, ell):
        det, rows = reference_rank_det(matrix, ell)[1], dict_rows(matrix)
        assert det_mod(rows, ell) == det, name
        nonzero += det != 0
        explicit_zeros += sum(0 in row.values() for row in rows)
        empty_rows += rows.count({})
    assert nonzero >= 8 and explicit_zeros and empty_rows
    assert det_mod([], ell) == det_mod((), ell) == 1  # the empty product


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_det_mod_of_string_families_against_the_reference(name):
    # criterion 8's determinants: a string family splits into its weight
    # blocks, at most the rank wide
    kd = principal_kostant(name)
    rows, h = sl2_string_family_rows(kd), kd.triple.algebra.datum.coxeter_number
    dense = [[row.get(j, 0) for j in range(len(rows))] for row in rows]
    for ell in _next_primes(2 * h - 1, 3):
        det = reference_rank_det(dense, ell)[1]
        assert det != 0 and det_mod(rows, ell) == det, ell


def test_det_mod_peak_on_one_wide_block():
    # one 200-wide block and 300 singletons, shuffled: the 200-wide batch
    # holds the wide block and five zero-padded singletons, and the rest is
    # one batch of width 1
    rng, ell, n = np.random.default_rng(200), 65521, 500
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[:200, :200] = rng.integers(0, ell, (200, 200))
    matrix[np.arange(200, n), np.arange(200, n)] = rng.integers(1, ell, n - 200)
    matrix = matrix[rng.permutation(n)][:, rng.permutation(n)]
    rows = dict_rows(matrix.tolist())
    assert det_mod(rows, ell) == reference_rank_det(matrix.tolist(), ell)[1]
    assert traced_peak(lambda: det_mod(rows, ell)) <= 4 * matrix.nbytes


def test_det_mod_peak_on_the_e8_string_family():
    # E8's family reaches det_mod as 248 sparse rows, 2.2 % of the entries
    # nonzero: read into those entries, it stays below half of one dense
    # int64 copy
    rows = sl2_string_family_rows(principal_kostant("E8"))
    n, ell = len(rows), 61
    assert det_mod(rows, ell) != 0
    assert traced_peak(lambda: det_mod(rows, ell)) <= 4 * n * n


def _sign(perm):
    """The sign of a permutation of 0..n-1, from its cycle count."""
    seen, cycles = np.zeros(len(perm), dtype=bool), 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k], k = True, perm[k]
    return -1 if (len(perm) - cycles) % 2 else 1


def test_det_mod_of_one_wide_sparse_block():
    # one 600-wide bidiagonal block, lower and upper, rows and columns
    # shuffled: each pivot column reaches one row below its pivot, so a step
    # that rewrote every row below it would hold a (k-1)**2 temporary on top
    # of the batch
    rng, ell, n = np.random.default_rng(600), 61, 600
    for offset in (-1, 1):
        diag = rng.integers(1, ell, n)
        matrix = np.diag(diag) + np.diag(rng.integers(1, ell, n - 1), offset)
        rows, cols = rng.permutation(n), rng.permutation(n)
        matrix = matrix[rows][:, cols]
        det, sparse = prod(diag.tolist()) * _sign(rows) * _sign(cols) % ell, dict_rows(matrix.tolist())
        assert det_mod(sparse, ell) == det, offset
        assert traced_peak(lambda: det_mod(sparse, ell)) <= 2.5 * matrix.nbytes


@pytest.mark.parametrize("ell", [7, 101, 2**31 - 1])
def test_kernel_mod_spans_the_kernel(ell):
    # B = kernel_mod(A): A B = 0, and B has full column rank ncols - rank(A);
    # a zero matrix gives the identity, a full-rank one no columns
    rng = random.Random(ell)
    cases = [
        random_residue_matrix(rng, m, n, ell, kind)
        for m, n in [(1, 1), (3, 5), (7, 4), (12, 12), (40, 70)]
        for kind in ("random", "low-rank", "zero-columns")
    ]
    cases += [[[0] * 6] * 4, [[(i + 1) * (i == j) for j in range(5)] for i in range(5)]]
    for rows in cases:
        A = np.array(rows, dtype=np.int64)
        B = kernel_mod(A, ell)
        assert B.shape == (A.shape[1], A.shape[1] - rank_mod(A, ell))
        assert not matmul_mod(A, B, ell).any()
        assert rank_mod(B, ell) == B.shape[1]
    assert kernel_mod(cases[-2], ell).tolist() == np.eye(6, dtype=int).tolist()
    assert kernel_mod(cases[-1], ell).shape == (5, 0)


def python_product(a, b, ell):
    return [[sum(x * y for x, y in zip(row, col)) % ell for col in zip(*b)] for row in a]


def test_blas_products_match_the_python_reference():
    # 64 x 64 x 80 is past the volume gate; with k = 64 the float64 product is
    # exact while 64 * (ell - 1)**2 < 2**53, and the first row of a and first
    # column of b, all ell - 1, reach that sum in entry (0, 0)
    k = 64
    below = next(p for p in range(isqrt(2**53 // k) + 1, 2, -1) if k * (p - 1) ** 2 < 2**53 and is_prime(p))
    above = next(p for p in range(below + 1, 2**31) if is_prime(p))
    assert k * (above - 1) ** 2 >= 2**53 and k * 64 * 80 >= exact._BLAS_VOLUME
    rng = random.Random(53)
    for ell in (below, above, 2**31 - 1):  # float64, int64, 16-bit split
        a = [[ell - 1] * k] + [[rng.randrange(ell) for _ in range(k)] for _ in range(63)]
        b = [[ell - 1] + [rng.randrange(ell) for _ in range(79)] for _ in range(k)]
        got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), ell)
        assert got.dtype == np.int64 and got.tolist() == python_product(a, b, ell), ell
    # stacks of three, as the tree products and the closure pass them: the gate
    # reads the volume of one matrix, 15 * 64 * 17 just below _BLAS_VOLUME and
    # 16 * 64 * 16 at it, and ell on either side of the float64 bound
    assert 15 * k * 17 < exact._BLAS_VOLUME == 16 * k * 16
    for m, n in [(15, 17), (16, 16)]:
        for ell in (below, above):
            a = [[[ell - 1] * k] + [[rng.randrange(ell) for _ in range(k)] for _ in range(m - 1)] for _ in range(3)]
            b = [[[ell - 1] + [rng.randrange(ell) for _ in range(n - 1)] for _ in range(k)] for _ in range(3)]
            got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), ell)
            want = [python_product(x, y, ell) for x, y in zip(a, b)]
            assert got.dtype == np.int64 and got.tolist() == want, (m, n, ell)


def test_split_product_refuses_an_inner_dimension_of_2_16():
    # past 2**63 the product runs on 16-bit halves, whose partial sums stay below
    # 2**63 only while k < 2**16; k = 2**16 at the largest modulus is refused
    ell, k = 2**31 - 1, 2**16
    with pytest.raises(ValueError) as caught:
        matmul_mod(np.zeros((1, k), dtype=np.int64), np.zeros((k, 1), dtype=np.int64), ell)
    assert str(caught.value) == f"inner dimension {k} too large for an exact product mod {ell}"


def test_sparse_system_across_chunks_matches_the_reference(monkeypatch):
    # 150 rows span three chunks; each row has its diagonal and two more
    # nonzeros, and the elimination fills them in.  The last row of the second
    # matrix is the sum of two others, so its rank is 149 and its det 0.
    ell, n = 65521, 150
    products = []
    real = exact.matmul_mod
    monkeypatch.setattr(exact, "matmul_mod", lambda a, b, p: products.append((a.shape, b.shape, p)) or real(a, b, p))
    rng = random.Random(150)
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j in [i, *rng.sample(range(n), 2)]:
            row[j] = rng.randrange(1, ell)
    singular = rows[:-1] + [[(x + y) % ell for x, y in zip(rows[3], rows[77])]]
    assert _CHUNK < n // 2
    for matrix, want_rank in [(rows, n), (singular, n - 1)]:
        rank, det = reference_rank_det(matrix, ell)
        assert rank == want_rank and (det != 0) == (rank == n)
        assert rank_mod(matrix, ell) == rank
        assert det_mod(dict_rows(matrix), ell) == det
    gated = [sa[-2] * sa[-1] * sb[-1] >= exact._BLAS_VOLUME and sa[-1] * (p - 1) ** 2 < 2**53 for sa, sb, p in products]
    assert any(gated)  # some product passed the BLAS gate


def test_kernel_rejects_bad_moduli():
    with pytest.raises(ValueError, match="not a prime: 12"):
        det_mod([{0: 1, 1: 2}, {0: 3, 1: 4}], 12)
    with pytest.raises(ValueError, match="not a prime: 12"):
        rank_mod([[1, 2]], 12)
    with pytest.raises(ValueError, match="prime out of machine-width range"):
        det_mod([{0: 1}], 2**31 + 11)
    for bad in (7.0, 7.5):
        with pytest.raises(ValueError, match="modulus is not an int"):
            det_mod([{0: 1, 1: 2}, {0: 3, 1: 4}], bad)
        with pytest.raises(ValueError, match="modulus is not an int"):
            EchelonState(2, bad)


@pytest.mark.parametrize(
    "ncols, match",
    [(-1, "ncols must be >= 0, got -1"), (2.5, "ncols is not an int: 2.5"), (True, "ncols is not an int: True")],
    ids=["negative", "float", "bool"],
)
def test_echelon_rejects_a_bad_column_count(ncols, match):
    # unchecked, -1 and 2.5 would raise numpy's own errors, and True would
    # pass for one column; 0 columns is a state of rank 0
    with pytest.raises(ValueError, match=match):
        EchelonState(ncols, 7)
    state = EchelonState(0, 7)
    state.add(np.zeros((3, 0), dtype=np.int64))
    assert state.rank == 0 and state.rows.shape == (0, 0)


@pytest.mark.parametrize("bad", [7.0, np.int64(7), True, [7]], ids=["float", "int64", "bool", "list"])
def test_modulus_type_checked_after_seven_is_accepted(bad):
    # the primality verdict is cached, the type and range checks are not:
    # 7.0 and True hash like 7 and 1, and would find a cached verdict
    check_prime_modulus(7)
    with pytest.raises(ValueError):
        check_prime_modulus(bad)
    with pytest.raises(ValueError):
        build_chevalley_algebra("A2").mod(bad)


G2 = build_chevalley_algebra("G2")
INT_ARGUMENTS = {  # entry point -> a call on the one argument under test
    "factor": factor,
    "is_prime": is_prime,
    "check_prime_modulus": check_prime_modulus,
    "sym_module r": lambda x: sym_module(7, x, 0),
    "sym_module twist": lambda x: sym_module(7, 2, x),
    "adjoint_h1_via_kostant ell": lambda x: adjoint_h1_via_kostant("G2", x),
    "jacobi_sweep samples": lambda x: jacobi_sweep(G2, None, x),
    "jacobi_sweep seed": lambda x: jacobi_sweep(G2, None, 3, x),
    "element index": lambda x: G2.element({x: 1}),
    "element scalar": lambda x: G2.element({0: x}),
    "SelmerLedger dim_n": lambda x: SelmerLedger(0, 0, x, 0),
    "local_dim dim_n": lambda x: local_dim(LocalCondition("ordinary", 0, 2), x),
    "SelmerLedger h0_global": lambda x: SelmerLedger(x, 0, 6, 0),
    "SelmerLedger schema_version": lambda x: SelmerLedger(0, 0, 6, 0, schema_version=x),
}
INT_ROWS = [  # (entry point, bad value, exception type, message with {!r} for the value): a bool, a float or a numpy integer is no int
    ("factor", True, ValueError, "factor's argument is not an int: {!r}"),
    ("factor", 2.0, ValueError, "factor's argument is not an int: {!r}"),
    ("factor", np.int64(12), ValueError, "factor's argument is not an int: {!r}"),
    ("is_prime", True, ValueError, "is_prime's argument is not an int: {!r}"),
    ("is_prime", 2.0, ValueError, "is_prime's argument is not an int: {!r}"),
    ("is_prime", np.int64(2**61 - 1), ValueError, "is_prime's argument is not an int: {!r}"),
    ("check_prime_modulus", True, ValueError, "modulus is not an int: {!r}"),
    ("check_prime_modulus", 2.0, ValueError, "modulus is not an int: {!r}"),
    ("check_prime_modulus", np.int64(7), ValueError, "modulus is not an int: {!r}"),
    ("sym_module r", True, ValueError, "r is not an int: {!r}"),  # would build Sym^1
    ("sym_module r", 2.0, ValueError, "r is not an int: {!r}"),
    ("sym_module twist", True, ValueError, "twist is not an int: {!r}"),
    ("sym_module twist", 2.0, ValueError, "twist is not an int: {!r}"),
    ("sym_module r", np.int64(2), ValueError, "r is not an int: {!r}"),
    ("sym_module r", np.uint8(255), ValueError, "r is not an int: {!r}"),  # r + 1 would wrap to 0
    ("sym_module twist", np.int64(0), ValueError, "twist is not an int: {!r}"),
    ("adjoint_h1_via_kostant ell", True, ValueError, "modulus is not an int: {!r}"),  # checked before the bound 2h-1
    ("adjoint_h1_via_kostant ell", 7.5, ValueError, "modulus is not an int: {!r}"),
    ("jacobi_sweep samples", True, ValueError, "samples is not an int: {!r}"),
    ("jacobi_sweep samples", 2.0, ValueError, "samples is not an int: {!r}"),
    ("jacobi_sweep samples", np.int64(3), ValueError, "samples is not an int: {!r}"),
    ("jacobi_sweep seed", True, ValueError, "seed is not an int: {!r}"),
    ("jacobi_sweep seed", 2.0, ValueError, "seed is not an int: {!r}"),
    ("jacobi_sweep seed", np.int64(3), ValueError, "seed is not an int: {!r}"),
    ("element index", True, ValueError, "not a basis index of ChevalleyAlgebra(G2, ZZ): {!r}"),
    ("element index", 2.0, ValueError, "not a basis index of ChevalleyAlgebra(G2, ZZ): {!r}"),
    ("element index", np.int64(0), ValueError, "not a basis index of ChevalleyAlgebra(G2, ZZ): {!r}"),
    ("element scalar", True, ValueError, "scalar is not an int: {!r}"),
    ("element scalar", 2.0, ValueError, "scalar is not an int: {!r}"),
    ("element scalar", np.int64(1), ValueError, "scalar is not an int: {!r}"),
    ("SelmerLedger dim_n", True, ValueError, "dim_n is not an int: {!r}"),
    ("SelmerLedger dim_n", 2.0, ValueError, "dim_n is not an int: {!r}"),
    ("SelmerLedger dim_n", np.int64(6), ValueError, "dim_n is not an int: {!r}"),
    ("local_dim dim_n", True, ValueError, "dim_n is not an int: {!r}"),  # was the ordinary surplus 2 * True
    ("local_dim dim_n", 2.0, ValueError, "dim_n is not an int: {!r}"),
    ("SelmerLedger h0_global", True, ValueError, "h0_global is not an int: {!r}"),
    # a ledger has no schema version: none can be claimed for one
    ("SelmerLedger schema_version", True, TypeError, "SelmerLedger.__init__() got an unexpected keyword argument 'schema_version'"),
]


@pytest.mark.parametrize("entry, bad, exc, message", INT_ROWS, ids=[f"{e}-{b!r}" for e, b, *_ in INT_ROWS])
def test_integer_arguments_refuse_bools_floats_and_numpy_integers(entry, bad, exc, message):
    with pytest.raises(exc) as caught:
        INT_ARGUMENTS[entry](bad)
    assert str(caught.value) == message.format(bad)


def test_prime_verdict_computed_once_per_modulus():
    ell = 2**31 - 1
    exact._is_prime_modulus.cache_clear()
    with mock.patch.object(exact, "is_prime", wraps=exact.is_prime) as spy:
        assert det_mod([{0: 1, 1: 2}, {0: 3, 1: 4}], ell) == ell - 2
        assert det_mod([{0: 2}, {1: 3}], ell) == 6
        assert h1(sl2_group(ell), sym_module(ell, 3, 0)).h1 == 0
    # `factor` proves the factor 331 of ell - 1 with is_prime too; only the calls on ell count here
    assert [c.args for c in spy.call_args_list].count((ell,)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: det_mod([{0: 1.5}, {1: 1}], 7),
        lambda: rank_mod([[0.5, 0], [0, 1]], 7),
        lambda: det_mod([{0: 1}, {0: 2, 1: 1.5}], 7),
    ],
    ids=["det_mod-float", "rank_mod-float", "det_mod-dict-row-float"],
)
def test_kernel_rejects_non_integer_entries(call):
    # a float entry is rejected, never truncated to an int
    with pytest.raises(ValueError, match="matrix entries must be integers, got float"):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: det_mod(5, 7), r"^det_mod takes a list or tuple of \{column: entry\} dict rows, got int$"),
        (lambda: rank_mod(5, 7), r"2-d matrix, got shape \(\)"),
        (lambda: kernel_mod(5, 7), r"kernel_mod needs a 2-d matrix, got shape \(\)"),
        (lambda: module_from_matrices(7, [5]), r"square of one shape, got \[\(\)\]"),
    ],
    ids=["det_mod", "rank_mod", "kernel_mod", "module_from_matrices"],
)
def test_bare_integer_is_not_a_matrix(call, match):
    # a 0-d input reaches the shape checks as a 0-d residue array
    with pytest.raises(ValueError, match=match):
        call()


def test_kernel_reduces_entries_of_any_size():
    # entries beyond int64 are reduced exactly; 2**70 = 2 mod 7
    assert rank_mod([[2**70, 0], [0, 1]], 7) == 2
    assert det_mod([{0: 2**70}, {1: -(2**65)}], 7) == 2 * (-(2**65)) % 7
    assert residues(np.array([[2**64 - 1]], dtype=np.uint64), 7).tolist() == [[(2**64 - 1) % 7]]
    # numpy scalars in a list are reduced as ints, whatever their width
    assert det_mod([{0: np.int8(3), 1: np.uint64(2**64 - 1)}, {0: np.int16(-1), 1: 2}], 251) == (6 + (2**64 - 1)) % 251


@pytest.mark.parametrize("ell", [7, 251, 65521, 2**31 - 1])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint16, np.uint64, np.int64])
def test_residues_widen_every_integer_dtype(dtype, ell):
    # numpy 2 will not hold a modulus past the dtype's range, so narrow
    # dtypes widen before they are reduced, and uint64 is reduced before its
    # cast to int64, which would wrap entries >= 2**63
    info = np.iinfo(dtype)
    rng = np.random.default_rng(ell)
    a = rng.integers(info.min, info.max, (6, 6), dtype=dtype, endpoint=True)
    a[0, :2] = info.min, info.max
    rows = a.tolist()
    assert residues(a, ell).tolist() == [[x % ell for x in r] for r in rows]
    rank, det = reference_rank_det(rows, ell)
    assert rank_mod(a, ell) == rank and det_mod(dict_rows(a), ell) == det
    assert rank_mod(a[:4], ell) == reference_rank_det(rows[:4], ell)[0]


def test_narrow_dtype_generators_and_modules():
    # -1 in int8 is 250 mod 251; the signed permutation matrices of degree 2
    # form the dihedral group of order 8
    flip, sign = [[0, 1], [1, 0]], [[-1, 0], [0, 1]]
    G = close_group([np.array(flip, dtype=np.int8), np.array(sign, dtype=np.int8)], 251)
    assert G.order == 8 and np.array_equal(G.cayley, close_group([flip, sign], 251).cayley)
    M = module_from_matrices(251, [np.array(sign, dtype=np.int8)])
    assert M.matrices[0].dtype == np.int64 and M.matrices[0].tolist() == [[250, 0], [0, 1]]


ADD_REJECTS = [
    ([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], r"3-column .*got int64 \(2, 5\)"),
    ([[1, 2]], r"3-column .*got int64 \(1, 2\)"),
    ([1, 2, 3], r"2-d int64 .*got int64 \(3,\)"),
    ([[1, -1, 0]], r"residues in \[0, 7\)"),
    ([[1, 7, 0]], r"residues in \[0, 7\)"),
    ([[1.5, 0, 0]], r"int64 .*got float64 \(1, 3\)"),
]


@pytest.mark.parametrize("batch, match", ADD_REJECTS, ids=["wide", "narrow", "1-d", "negative", "ell", "float"])
def test_echelon_add_rejects_a_bad_batch(batch, match):
    # add takes int64 residues, which it checks and does not reduce: unchecked,
    # a wide batch would give a wrong rank, a narrow or 1-d one an IndexError,
    # and a float one would be truncated
    state = EchelonState(3, 7)
    state.add([[0, 1, 2]])
    with pytest.raises(ValueError, match=match):
        state.add(batch)
    with pytest.raises(ValueError, match=match):
        EchelonState(3, 7).add(batch)
    assert state.rank == 1 and state.pivots == [1]


def test_echelon_add_rejects_a_bad_batch_under_optimize():
    code = (
        "from monolab.exact import EchelonState\n"
        f"for batch in {[batch for batch, _ in ADD_REJECTS]!r}:\n"
        "    try:\n"
        "        EchelonState(3, 7).add(batch)\n"
        "    except ValueError:\n"
        "        print('rejected')\n"
    )
    assert run_optimized(code) == "\n".join(["rejected"] * len(ADD_REJECTS))


def test_first_batch_is_not_reduced(monkeypatch):
    # at rank 0 every column is free and no row has a pivot to clear, so the
    # first batch goes to _absorb as it is; later batches are reduced
    calls = []
    real = EchelonState._reduce
    monkeypatch.setattr(EchelonState, "_reduce", lambda self, batch: calls.append(len(batch)) or real(self, batch))
    state = EchelonState(5, 7)
    state.add(np.array([[0] * 5, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [0, 0, 6, 1, 0]] * 16))
    assert state.rank == 2 and calls == []
    state.add(np.array([[2, 4, 6, 1, 3], [0, 0, 0, 0, 1]]))
    assert state.rank == 3 and calls


def test_later_chunks_meet_only_the_added_pivots(monkeypatch):
    # at rank > 0 the whole batch is reduced once, a product of inner dimension
    # the rank it meets; each later chunk of nonzero rows is then reduced
    # against only the pivots the earlier chunks added, a product of inner
    # dimension rank - rank0, and a batch of one chunk takes no such product.
    # Each absorb back-substitutes by one product over the old rows that are
    # nonzero in its new pivot columns, of inner dimension the pivots it adds,
    # and by none when no old row is hit, as at rank 0
    rng, ell = random.Random(64), 7
    state = EchelonState(300, ell)
    state.add(np.array(random_residue_matrix(rng, 20, 300, ell, "random"), dtype=np.int64))
    batch = np.array(random_residue_matrix(rng, 3 * _CHUNK + 10, 300, ell, "low-rank"), dtype=np.int64)
    batch[::7] = 0
    nonzero = int(state._reduce(batch).any(axis=1).sum())
    assert nonzero > 2 * _CHUNK
    events, heights, hits, matmul, absorb = [], [], [], exact.matmul_mod, EchelonState._absorb

    def spy_matmul(a, b, ell):
        events.append(a.shape[-1])
        heights.append(a.shape[0])
        return matmul(a, b, ell)

    def spy_absorb(s, a):
        events.append(("absorb", s.rank))
        rows, free, rank, made = free_wide(s), s.free, s.rank, len(heights)
        absorb(s, a)
        hit = int(rows[:, np.searchsorted(free, s.pivots[rank:])].any(axis=1).sum())
        hits.append(hit)
        assert heights[made:] == [hit] * (hit > 0)

    monkeypatch.setattr(exact, "matmul_mod", spy_matmul)
    monkeypatch.setattr(EchelonState, "_absorb", spy_absorb)
    single = np.array(random_residue_matrix(rng, _CHUNK, 300, ell, "random"), dtype=np.int64)
    for batch, chunks in [(batch, -(-nonzero // _CHUNK)), (single, 1)]:
        rank0, events[:], hits[:] = state.rank, [], []
        state.add(batch)
        ranks = [e[1] for e in events if isinstance(e, tuple)] + [state.rank]
        assert len(ranks) == chunks + 1 and ranks[1] > rank0
        want = [rank0]
        for i, (before, after) in enumerate(zip(ranks, ranks[1:])):
            want += [before - rank0] * (i > 0) + [("absorb", before)] + [after - before] * (hits[i] > 0)
        assert events == want
    events[:] = []
    EchelonState(300, ell).add(single)
    assert events == [("absorb", 0)]


def free_wide(state):
    """The state's pivot rows on all its free columns: `rows` scattered through `cols`, 0 elsewhere."""
    rows = np.zeros((state.rank, len(state.free)), dtype=np.int64)
    rows[:, np.searchsorted(state.free, state.cols)] = state.rows
    return rows


def two_pass_add(state, batch):
    """`EchelonState.add` as it was when every chunk of nonzero rows was reduced again, the first one too."""
    batch = batch[(state._reduce(batch) if state.rank else batch).any(axis=1)]
    for chunk in (batch[start : start + _CHUNK] for start in range(0, len(batch), _CHUNK)):
        state._absorb(state._reduce(chunk) if state.rank else chunk)


@pytest.mark.parametrize("ell", [2, 7, 65521])
def test_add_matches_the_two_pass_add(ell):
    # batch after batch, the pivots, free columns and pivot rows agree
    rng = random.Random(ell)
    for n in (5, 90, 160):
        ours, theirs = EchelonState(n, ell), EchelonState(n, ell)
        for m, kind in [(3, "random"), (2 * _CHUNK + 5, "low-rank"), (_CHUNK + 1, "zero-columns"), (n, "random")]:
            batch = np.array(random_residue_matrix(rng, m, n, ell, kind), dtype=np.int64)
            ours.add(batch)
            two_pass_add(theirs, batch)
            assert ours.pivots == theirs.pivots, (n, m, kind)
            assert np.array_equal(ours.free, theirs.free) and np.array_equal(ours.rows, theirs.rows)


def reference_rref_add(rref, row, ell):
    """Add one row to a reduced echelon form kept as {pivot column: row} of Python ints."""
    for p, r in rref.items():
        if row[p]:
            row = [(x - row[p] * y) % ell for x, y in zip(row, r)]
    q = next((j for j, x in enumerate(row) if x), None)
    if q is None:
        return
    inv = pow(row[q], -1, ell)
    row = [x * inv % ell for x in row]
    for p, r in rref.items():
        if r[q]:
            rref[p] = [(x - r[q] * y) % ell for x, y in zip(r, row)]
    rref[q] = row


def hit_batches(rng, n, ell):
    """Batches whose pivots land in columns that the earlier rows leave 0, then batches whose pivots hit them."""
    half = n // 2
    left = [row[:half] + [0] * (n - half) for row in random_residue_matrix(rng, 3, n, ell, "random")]
    right = [[0] * half + row[half:] for row in random_residue_matrix(rng, 2 * _CHUNK + 5, n, ell, "low-rank")]
    yield left, False
    yield right, False
    for m, kind in [(3, "random"), (_CHUNK + 1, "zero-columns"), (2 * _CHUNK + 5, "low-rank"), (n, "random")]:
        yield random_residue_matrix(rng, m, n, ell, kind), None


@pytest.mark.parametrize("ell", [2, 7, 65521, 2**31 - 1])
def test_state_grown_batch_by_batch_is_the_reduced_echelon_form(ell):
    # after every batch the pivots, free columns and pivot rows are those of
    # a pure-Python reduced echelon form of every row added so far; batches
    # whose new pivots hit no earlier row and batches whose pivots do both occur.
    # The rows are kept on `cols`, sorted free columns off which every pivot
    # row is 0, and the half-width first batches leave `cols` short of `free`
    rng, seen, narrow = random.Random(ell), set(), False
    for n in (6, 40, 90):
        state, rref = EchelonState(n, ell), {}
        for batch, want_hit in hit_batches(rng, n, ell):
            old = {p: list(r) for p, r in rref.items()}
            for row in batch:
                reference_rref_add(rref, list(row), ell)
            new = rref.keys() - old.keys()
            hit = any(r[q] for r in old.values() for q in new)
            assert want_hit in (None, hit), (n, len(batch))
            if old and new:
                seen.add(hit)
            state.add(np.array(batch, dtype=np.int64))
            assert sorted(state.pivots) == sorted(rref), (n, len(batch))
            free = [j for j in range(n) if j not in rref]
            assert state.free.tolist() == free
            cols = state.cols.tolist()
            assert cols == sorted(cols) and set(cols) <= set(free) and state.rows.shape == (len(rref), len(cols))
            assert not any(rref[p][j] for p in rref for j in set(free) - set(cols))
            narrow |= len(cols) < len(free)
            order = np.argsort(state.pivots)
            assert free_wide(state)[order].tolist() == [[rref[p][j] for j in free] for p in sorted(rref)]
    assert seen == {False, True} and narrow


def test_first_batch_with_zero_duplicate_and_unreduced_rows():
    # the rank-0 path sees leading zero rows, duplicates and entries that
    # rank_mod and det_mod reduce before they reach it
    ell = 7
    zero, big, low, mixed, ones = [0] * 4, [3, -1, 8, 2**70], [-7, 14, 1, -2], [9, 0, -3, 5], [1, 1, 1, 1]
    rows = [zero, zero, big, big, low, mixed]
    for matrix in (rows, rows[2:], [zero, low, mixed, big], [low, big, mixed, ones], [zero, big, ones, ones]):
        rank, det = reference_rank_det(matrix, ell)
        assert rank_mod(matrix, ell) == rank, matrix
        if len(matrix) == 4:
            assert det_mod(dict_rows(matrix), ell) == det, matrix


def test_rank_mod_of_a_zero_matrix_copies_it_once():
    # the one copy is its reduction; at rank 0 the zero rows come from any(),
    # not from a reduction pass
    zero = np.zeros((960, 480), dtype=np.int64)
    assert traced_peak(lambda: rank_mod(zero, 7)) <= 1.1 * zero.nbytes


def test_h1_naive_peak_against_its_system():
    # the naive system of SL2(F_5) on Sym^3 is 960 x 480 int64 (3.5 MiB),
    # eliminated one 64-row chunk at a time; about 1.7 MiB at peak with the
    # rest of the solver
    G, M = sl2_group(5), sym_module(5, 3, 0)
    assert G.order * len(G.generators) * M.dim == 960 and G.order * M.dim == 480
    assert traced_peak(lambda: h1_naive(G, M)) < 4 * 960 * 480 * 8


@pytest.mark.parametrize("ell, r", [(7, 3), (5, 11)])
def test_h1_naive_never_holds_its_whole_system(ell, r):
    # the largest naive systems under the |G| * dim <= 1500 guard: 2688 x 1344
    # int64 (27.6 MiB) on SL2(F_7), 2880 x 1440 (31.6 MiB) on SL2(F_5); built
    # and eliminated one elimination chunk at a time, with back-substitution
    # into only the pivot rows a new pivot hits, they peak near 11.4 and 12.8 MiB
    G = close_group(sl2_generators(ell)[::-1], ell)
    M = module_from_matrices(ell, sym_module(ell, r, 0).matrices[::-1])
    assert G.order * M.dim in (1344, 1440)
    assert traced_peak(lambda: h1_naive(G, M)) < 16 * 2**20


def test_prime_field_ops():
    alg = build_chevalley_algebra("A2")
    f = alg.mod(13)
    assert f.element({0: -1}).coeffs == {0: 12}
    assert x_of(f, 0).scale(7).scale(2) == x_of(f, 0)
    assert f.element({0: 13}).is_zero()
    with pytest.raises(ValueError, match="not a prime: 12"):
        alg.mod(12)
    with pytest.raises(ValueError, match="prime out of machine-width range"):
        alg.mod(2**31 + 11)
    with pytest.raises(ValueError, match="modulus is not an int: 7.0"):
        alg.mod(7.0)


def test_ring_coercions():
    # coefficients are ints on the ZZ form and on every F_ell view
    alg = build_chevalley_algebra("A2")
    for form in (alg, alg.mod(7)):
        for bad in (Fraction(1, 2), Fraction(4, 2), 2.0):
            for call in (lambda: form.element({0: bad}), lambda: x_of(form, 0).scale(bad)):
                with pytest.raises(ValueError) as caught:
                    call()
                assert str(caught.value) == f"scalar is not an int: {bad!r}"
