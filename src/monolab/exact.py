"""Exact integer and mod-ell linear algebra.

Scalars are plain ints: arbitrary precision over ZZ, residues in [0, ell)
over F_ell, where ell is a bare int prime below 2**31 that
`check_prime_modulus` accepts.  Integers are tested and factored here, and
nowhere else: `is_prime` gives a proven verdict, and `factor` certifies each
prime it reports with it.  Every unimodular reduction over ZZ is one loop,
`_column_reduce`: `integer_kernel` returns saturated lattice bases with no
rational intermediate step (the Kostant strings, and the Cartan symmetrizer
that gives the root lengths), and `diagonal_divisors` a diagonal form.  The
shared guards live here too: `check_int`, and `_check_budget` on `memory_budget()`.

Every rank and kernel over F_ell in the package goes through one kernel at the
end of this module: `matmul_mod`, the streamed reduced echelon form
`EchelonState`, `rank_mod` and `kernel_mod`; no other module reads how
`EchelonState` stores its rows, each only on the free columns that some added
row reached.  It is exact for every prime ell < 2**31.
`det_mod` reads its matrix as sparse rows {column: entry}, eliminates its
blocks side by side and shares no logic with `EchelonState`, whose pivot
step a block split would tax on systems that form one block.
Both eliminations take one update rule: a pivot rewrites, from its column
on, only the rows with an entry in that column; back-substitution touches
only the pivot rows that a new pivot hits.  `matmul_mod` has three
products, chosen from the shapes and ell alone: float64 on numpy's BLAS while
every partial sum is an integer below 2**53 and the product is large enough
to repay the conversion; int64 below 2**63; and int64 on 16-bit halves above
that.  Floating point appears nowhere else.
`residues` is the one reducer, of every integer matrix that enters from outside;
`EchelonState.add` takes its int64 residues in [0, ell) and only checks them.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np


def exact_div(a: int, b: int, what: str) -> int:
    """a // b, raising ArithmeticError (naming `what`) if b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{what}: {a}/{b} is not integral")
    return q


def exact_div_arrays(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num // den elementwise on int64 arrays, raising as `exact_div` does at the first inexact entry."""
    num, den = np.broadcast_arrays(num, den)
    q, r = np.divmod(num, den)
    for k in np.flatnonzero(r)[:1]:
        exact_div(int(num.flat[k]), int(den.flat[k]), what)
    return q


def check_int(x, what: str) -> None:
    """Raise ValueError naming x unless it is a bare int: a bool, a float or a numpy integer is not one."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} is not an int: {x!r}")


def check_prime_modulus(ell: int) -> None:
    """Raise ValueError unless ell is an int prime below 2**31."""
    check_int(ell, "modulus")
    if not (2 <= ell < 2**31):
        raise ValueError(f"prime out of machine-width range: {ell}")
    if not _is_prime_modulus(ell):
        raise ValueError(f"not a prime: {ell}")


@lru_cache(maxsize=1024)
def _is_prime_modulus(ell: int) -> bool:
    """is_prime, memoized: reached only by an int that passed the type check, since 7.0 hashes like 7."""
    return is_prime(ell)


DEFAULT_MEMORY_BUDGET = 2 * 1024**3
_BUDGET_ENV = "MONOLAB_MEMORY_BUDGET"


class ResourceLimitError(RuntimeError):
    """Closure cap or memory budget exceeded."""


def memory_budget() -> int:
    """Bytes the solvers may allocate: MONOLAB_MEMORY_BUDGET, or 2 GiB; ValueError unless it is a positive integer."""
    env = os.environ.get(_BUDGET_ENV) or str(DEFAULT_MEMORY_BUDGET)
    with contextlib.suppress(ValueError):  # int() refuses more digits than sys.get_int_max_str_digits()
        if env.isascii() and env.isdecimal() and (budget := int(env)) > 0:  # str.isdecimal alone passes '١٢'
            return budget
    raise ValueError(f"{_BUDGET_ENV}={env!r}: the memory budget must be a positive integer number of bytes")


def _check_budget(need: int, what: str) -> None:
    if need > (limit := memory_budget()):
        raise ResourceLimitError(f"{what} needs about {need} bytes, budget is {limit} (set {_BUDGET_ENV} to override)")


# ---------------------------------------------------------------------------
# primality: Miller-Rabin on the first 13 prime bases, which Sorenson and
# Webster ("Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
# prove exact below psi_13; an n at or above it that every base passes is
# refused, not guessed
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3317044064679887385961981  # psi_13, the least strong pseudoprime to every base above


def _miller_rabin(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a % n, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime, proven: False once a base witnesses n composite, True below psi_13.

    Raises ValueError for an n >= psi_13 that every base passes (Sorenson and
    Webster, 2017), since no base set here decides it, and for an n that is not an int.
    """
    check_int(n, "is_prime's argument")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if not all(_miller_rabin(n, a) for a in _MR_BASES):
        return False
    if n < _MR_PROVEN_LIMIT:
        return True
    raise ValueError(f"{n} passes Miller-Rabin on the first 13 prime bases, a proof only below {_MR_PROVEN_LIMIT}")


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 2**10


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(p for p in range(2, _TRIAL_LIMIT) if is_prime(p))


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]  # ((prime, exponent), ...) sorted

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __post_init__(self):
        if prod(p**e for p, e in self.factors) != abs(self.n):
            raise ArithmeticError(f"factorization {self.factors} does not reconstruct |{self.n}|")


def _brent_rho(n: int) -> int:
    # Brent's cycle variant of the rho splitter, seeded from n; n odd composite with no prime factor below 2^10, prime powers too
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _split(n: int, out: dict):
    """Count n's prime factors into out, which holds only primes that `is_prime` has proven, each proven once."""
    if n == 1:
        return
    if n in out or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factor(n: int) -> Factorization:
    """Complete factorization of a nonzero integer.

    Trial division by the 172 primes below 2^10 (the paper's obstruction
    primes lie below 400), then a Brent-style rho splitter, which also splits
    prime powers, seeded from the number it splits so that runs are reproducible.
    Every reported prime is proven once: a trial prime when the table was
    built, any other by `is_prime` in the splitter, which raises ValueError
    for a factor it cannot decide, as it does for an n that is not an int.
    Zero is rejected; callers route structural zeros elsewhere.
    """
    check_int(n, "factor's argument")
    if n == 0:
        raise ValueError("cannot factor 0; zero coefficients are structural data")
    m, small = abs(n), _small_primes()
    out: dict[int, int] = {}
    for p in small:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    proven: dict[int, int] = {}
    _split(m, proven)
    fact = Factorization(n, tuple(sorted((out | proven).items())))
    uncertified = [p for p in fact.primes() if p not in proven and p not in small]
    if uncertified:
        raise ArithmeticError(f"factor({n}) reported factors neither in the trial table nor proven: {uncertified}")
    return fact


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _check_ncols(ncols) -> None:
    check_int(ncols, "ncols")
    if ncols < 0:
        raise ValueError(f"ncols must be >= 0, got {ncols}")


def _int_rows(rows, ncols: int) -> list[list[int]]:
    """Rows of ncols Python ints, an integer array by one `.tolist()`; ValueError names a bad ncols or a bad row."""
    _check_ncols(ncols)
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (ncols,):
        return rows.tolist()
    for r, row in enumerate(rows):
        sized = hasattr(row, "__len__")  # a bare number or a numpy scalar is no row
        if not sized or len(row) != ncols or not all(type(x) is int or isinstance(x, np.integer) for x in row):
            raise ValueError(f"row {r} is not {ncols} integers: {list(row) if sized else row!r}")
    return [list(map(int, row)) for row in rows]


def _column_reduce(cols: list[list[int]], m: int) -> int:
    """Column echelon form on the first m coordinates, in place, by unimodular 2 x 2 steps; returns the rank."""
    ncols, col = len(cols), 0
    for r in range(m):
        if col >= ncols:
            break
        nz = [j for j in range(col, ncols) if cols[j][r] != 0]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][r], cols[j][r]
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            cj0, cj = cols[j0], cols[j]
            for i in range(r, len(cj0)):  # columns col.. are 0 on the rows above r
                u, v = cj0[i], cj[i]
                cj0[i] = x * u + y * v
                cj[i] = aa * v - bb * u
            if cols[j0][r] != g or cols[j][r] != 0:
                raise ArithmeticError(f"column reduction left row {r} uncleared")
        cols[col], cols[j0] = cols[j0], cols[col]
        col += 1
    return col


def integer_kernel(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {v in ZZ^ncols : M v = 0} for the integer matrix with these rows.

    Unimodular column reduction of M stacked over the identity: columns whose
    M-part vanishes carry a basis of the integer kernel, which is automatically
    saturated.  Deterministic; returned vectors are sign-normalised so the
    first nonzero coordinate is positive.
    """
    m = len(rows := _int_rows(rows, ncols))
    # column-major: cols[j] holds column j of M stacked over e_j
    cols = [[rows[r][j] for r in range(m)] + [0] * ncols for j in range(ncols)]
    for j in range(ncols):
        cols[j][m + j] = 1
    rank = _column_reduce(cols, m)
    # columns rank.. are 0 on every row of M, so they carry the kernel
    return [normalize_primitive(tuple(c[m:])) for c in cols[rank:]]


def diagonal_divisors(rows, ncols: int) -> list[int]:
    """Sorted |d| over the nonzero d of a diagonal form of the integer matrix with these rows, not always a divisor chain.

    Column echelon passes on the matrix and its transpose in turn (Kannan and
    Bachem, SIAM J. Comput. 8, 1979) until a pass keeps the |pivots|.  On the
    transpose of an echelon E, a pass's first pivot is the gcd of E's first
    column, which divides its pivot; if equal, row steps clear that column
    below the pivot, and so on down.  So kept pivots make E equivalent to their
    diagonal; a changed list falls lexicographically, so the loop ends.
    """
    rows = _int_rows(rows, ncols)
    m, cols, old = len(rows), [list(c) for c in zip(*rows)], None
    while True:
        rank = _column_reduce(cols, m)
        pivots = [abs(next(x for x in c if x)) for c in cols[:rank]]
        if pivots == old:
            return sorted(pivots)
        m, cols, old = rank, [list(r) for r in zip(*cols[:rank]) if any(r)], pivots  # the transpose, less zero columns


def normalize_primitive(vec) -> tuple[int, ...]:
    """Divide out the content and make the first nonzero coordinate positive."""
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    lead = next(x for x in vec if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in vec)


# ---------------------------------------------------------------------------
# linear algebra over F_ell (int64 arrays with entries in [0, ell))
# ---------------------------------------------------------------------------

# surviving rows are eliminated this many at a time: a wider chunk makes each
# pivot step cost more, a narrower one adds reduction and back-substitution
# products.  Replaying every elimination of one pass of each perfbench
# workload (2 vCPUs, this kernel) with chunks of 32, 64, 128 and 256 rows:
# small-group-oracle 0.62, 0.55, 0.55, 0.58 s, lie-scan 0.29, 0.30, 0.30,
# 0.31 s, sl2-cohomology 0.027-0.028 s at each
_CHUNK = 64

# a product of at least this volume m * k * n goes to BLAS; below it the
# conversions to float64 and back cost more than they save.  Replaying the
# 7,608 products of one pass of each perfbench workload (seed 604) on both
# paths (2 vCPUs, OpenBLAS 0.3.31, then pinned to one thread), float64 lost
# to int64 on none of the 472 of volume >= 16,384; with no gate at all,
# sl2-cohomology's wall_s read 6.7 % higher, and lower in none of 6 pairs
_BLAS_VOLUME = 2**14


def matmul_mod(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """a @ b mod ell, exact for ell < 2**31 and inner dimension k < 2**16, by one of three products.

    float64 on BLAS while k * (ell - 1)**2 < 2**53, so every partial sum is an
    integer that float64 holds exactly in any order of summation, and so on
    any number of BLAS threads, once the volume m * k * n of one matrix
    product reaches `_BLAS_VOLUME`; a and b may be stacks of matrices.
    int64 while k * (ell - 1)**2 < 2**63.  Otherwise int64 with a split into
    16-bit halves, so that every partial sum stays below 2**63.  Entries of a
    and b must lie in [0, ell).  The modulus is not checked here: callers pass
    one already checked where they were entered.
    """
    k = a.shape[-1]
    if a.shape[-2] * k * b.shape[-1] >= _BLAS_VOLUME and k * (ell - 1) ** 2 < 2**53:
        product = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        product %= ell
        return product
    if k * (ell - 1) ** 2 < 2**63:
        return a @ b % ell
    if k >= 2**16:
        raise ValueError(f"inner dimension {k} too large for an exact product mod {ell}")
    return ((a >> 16) @ b % ell * 2**16 + (a & 0xFFFF) @ b % ell) % ell


class EchelonState:
    """Reduced row echelon form over F_ell, grown one batch of rows at a time.

    Pivot row i has a 1 in column `pivots[i]` and every pivot row has 0 in the
    other pivot columns, so only its entries on the `free` columns are stored,
    and of those only the ones on `cols`, the sorted free columns that some
    absorbed row reached: `rows` is rank x len(cols), and every pivot row is 0
    on the free columns outside `cols`.  Reducing a row against the state is
    one product, subtracted at `cols`.  An added batch is reduced with one
    such product, none at rank 0; only its nonzero rows are eliminated,
    `_CHUNK` rows at a time, the first chunk as that product left it and each
    later one reduced by one more product against only the pivots that the
    earlier chunks added.  Each chunk rebuilds the state once, into one new
    array over the old `cols` and the free columns its new pivot rows reach,
    less its new pivots, and back-substitutes into only the old rows that are
    nonzero in a new pivot column, which must be one of the old `cols`, by one
    product over those rows; no row is hit at rank 0.
    """

    def __init__(self, ncols: int, ell: int):
        _check_ncols(ncols)
        check_prime_modulus(ell)
        self.ell = ell
        self.free = np.arange(ncols)
        self.pivots: list[int] = []
        self.cols = self.free[:0]
        self.rows = np.zeros((0, 0), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _at(self):
        """The positions of `cols` among the free columns: a slice when they are all of them."""
        return slice(None) if len(self.cols) == len(self.free) else np.searchsorted(self.free, self.cols)

    def _reduce(self, batch: np.ndarray) -> np.ndarray:
        """The rows of batch minus their pivot-column combination, on the free columns."""
        reduced, at = batch[:, self.free], self._at()
        reduced[:, at] = (reduced[:, at] - matmul_mod(batch[:, self.pivots], self.rows, self.ell)) % self.ell
        return reduced

    def add(self, batch: np.ndarray) -> None:
        """Absorb a 2-d int64 batch of residues in [0, ell), as `residues` makes them; ValueError for anything else."""
        batch, ncols, ell = np.asarray(batch), len(self.free) + self.rank, self.ell
        shaped = batch.dtype == np.int64 and batch.shape[1:] == (ncols,)
        if not shaped or batch.size and not 0 <= batch.min() <= batch.max() < ell:
            raise ValueError(f"need {ncols}-column 2-d int64 residues in [0, {ell}), got {batch.dtype} {batch.shape}")
        rank, free = self.rank, self.free
        reduced = self._reduce(batch) if rank else batch  # at rank 0 nothing is reduced
        nonzero = np.flatnonzero(reduced.any(axis=1))
        for start in range(0, len(nonzero), _CHUNK):
            chunk = reduced[nonzero[start : start + _CHUNK]]
            if self.rank > rank:  # a later chunk meets the pivots added since, on the batch's free columns
                added, at = chunk[:, np.searchsorted(free, self.pivots[rank:])], self._at()
                chunk = np.take(chunk, np.searchsorted(free, self.free), axis=1)  # C order, for the pivot loop's row steps
                chunk[:, at] = (chunk[:, at] - matmul_mod(added, self.rows[rank:], ell)) % ell
            self._absorb(chunk)

    def _absorb(self, a: np.ndarray) -> None:
        """Gauss-Jordan on reduced rows, then back-substitution into the state."""
        ell = self.ell
        new_rows, new_cols = [], []
        for i in a.any(axis=1).nonzero()[0]:  # a zero row stays zero
            support = a[i].nonzero()[0]
            if not support.size:
                continue
            q = int(support[0])
            row = a[i, q:]
            pivot = int(row[0])
            if pivot != 1:
                row = row * pow(pivot, -1, ell) % ell
                a[i, q:] = row
            col = a[:, q].copy()
            col[i] = 0
            nz = col.nonzero()[0]
            if nz.size:
                a[nz, q:] = (a[nz, q:] - col[nz, None] * row) % ell
            new_rows.append(i)
            new_cols.append(q)
        if not new_rows:  # every row reduced to 0
            return
        rank, keep, old = self.rank, np.ones(len(self.free), dtype=bool), np.zeros(len(self.free), dtype=bool)
        keep[new_cols] = False
        old[self._at()] = True
        new, pivots = a[new_rows], self.free[new_cols]
        reach = (old | new.any(axis=0)) & keep  # the new cols, as a mask over the free columns
        rows = np.zeros((rank + len(new_rows), np.count_nonzero(reach)), dtype=np.int64)
        np.compress(reach, new, axis=1, out=rows[rank:])
        if rank:  # an old row moves to the new cols; it changes only if nonzero in a new pivot column, an old col
            rows[:rank, old[reach]] = self.rows[:, keep[old]]
            was = old[new_cols]
            hits = self.rows[:, np.searchsorted(self.cols, pivots[was])]
            hit = np.flatnonzero(hits.any(axis=1))
            if hit.size:
                rows[hit] = (rows[hit] - matmul_mod(hits[hit], rows[rank:][was], ell)) % ell
        self.rows, self.cols, self.free = rows, self.free[reach], self.free[keep]
        self.pivots += pivots.tolist()


def residues(matrix, ell: int) -> np.ndarray:
    """An integer matrix, entries of any size, as int64 residues in [0, ell).

    Raises ValueError for an entry that is not an int or a numpy integer
    (a float such as 1.5 is never truncated, and neither kind of bool is an
    integer entry) and for a bad modulus.
    """
    check_prime_modulus(ell)
    a = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
    kinds = set(map(type, a.flat)) if a.dtype == object else {a.dtype.type}
    bad = sorted(t.__name__ for t in kinds if not issubclass(t, (int, np.integer)) or issubclass(t, bool))
    if bad:
        raise ValueError(f"matrix entries must be integers, got {', '.join(bad)}")
    if a.dtype == object:  # only the nonzero entries are reduced, as ints: np.int8(3) % 251 overflows
        out, nz = np.zeros(a.shape, dtype=np.int64), np.flatnonzero(a)
        out.flat[nz] = [int(x) % ell for x in a.flat[nz]]
        return out
    # uint64 is reduced before the cast to int64, which would wrap values >= 2**63; narrower dtypes widen
    return np.remainder(a % ell if a.dtype == np.uint64 else a, ell, dtype=np.int64)


def _echelon(matrix, ell: int, caller: str) -> EchelonState:
    """The reduced echelon form over F_ell of an integer matrix; ValueError (naming `caller`) for anything not 2-d."""
    matrix = residues(matrix, ell)
    if matrix.ndim != 2:
        raise ValueError(f"{caller} needs a 2-d matrix, got shape {matrix.shape}")
    state = EchelonState(matrix.shape[1], ell)
    state.add(matrix)
    return state


def rank_mod(matrix, ell: int) -> int:
    """Rank over F_ell of an integer matrix; ValueError for anything not 2-d."""
    return _echelon(matrix, ell, "rank_mod").rank


def kernel_mod(matrix, ell: int) -> np.ndarray:
    """Columns spanning the kernel over F_ell of an integer matrix; ValueError for anything not 2-d.

    Free column j gives the basis vector with 1 at j, 0 at the other free
    columns and minus the pivot rows' entries at the pivot columns.
    """
    state = _echelon(matrix, ell, "kernel_mod")
    free = state.free
    basis = np.zeros((len(free) + state.rank, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[np.ix_(state.pivots, np.searchsorted(free, state.cols))] = -state.rows % ell
    return basis


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Each node's least connected node, in the graph on 0..n-1 with edges (u[i], v[i]): hooking, pointer jumping."""
    root = np.arange(n)
    while (cross := (ru := root[u]) != (rv := root[v])).any():
        np.minimum.at(root, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while not np.array_equal(up := root[root], root):
            root = up
    return root


def _entries(rows, ell: int):
    """n and the nonzero residues v at (r, c) of the n x n integer matrix with these n {column: entry} dict rows."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"det_mod takes a list or tuple of {{column: entry}} dict rows, got {type(rows).__name__}")
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"det_mod row {i} is a {type(row).__name__}, not a {{column: entry}} dict")
        for k in row:
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < n:
                raise ValueError(f"det_mod row {i} has column key {k!r}, not an integer in [0, {n})")
    r = np.repeat(np.arange(n), [len(row) for row in rows])
    c = np.fromiter((k for row in rows for k in row), dtype=np.int64, count=len(r))
    v = residues(np.fromiter((x for row in rows for x in row.values()), dtype=object, count=len(r)), ell)
    keep = np.flatnonzero(v)
    return n, r[keep], c[keep], v[keep]


def det_mod(rows, ell: int) -> int:
    """Determinant mod ell of an n x n integer matrix, block by block over F_ell.

    The matrix is a list or tuple of n sparse rows {column: entry}, read once
    into its nonzero residues; no n x n array is built, n = 0 gives the empty
    product 1, and any other input is a ValueError.  Sorted stably into the
    connected blocks of its nonzero pattern, largest first, the matrix is
    block diagonal: the sign of the two orders times the block determinants,
    0 unless every block is square.  Zero-padded to the
    width k of the first, the blocks go into int64 batches of at most n**2
    entries, each eliminated in k Python steps (step j only on the blocks
    wider than j, and there only on the rows with an entry in column j),
    with products of two residues below ell**2 < 2**62.  A dense k x k block
    costs O(k**3) numpy work, a sparse one only the rows its pivots reach.
    """
    n, r, c, v = _entries(rows, ell)
    root = _components(r, c + n, 2 * n)  # rows are nodes 0..n-1, columns n..2n-1
    size = np.bincount(root[:n], minlength=2 * n)
    if not np.array_equal(size, np.bincount(root[n:], minlength=2 * n)):  # a block is not square
        return 0
    blocks = np.flatnonzero(size)[np.argsort(-size[size > 0], kind="stable")]  # roots, largest block first
    sizes, block = size[blocks], np.zeros(2 * n, dtype=np.int64)
    block[blocks] = np.arange(len(blocks))
    block = block[root]  # the block of each row and column
    row_order, col_order = np.argsort(block[:n], kind="stable"), np.argsort(block[n:], kind="stable")
    at = np.empty(2 * n, dtype=np.int64)  # the place of each row and column inside its block
    at[row_order] = at[n + col_order] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    swaps = n - np.count_nonzero(_components(row_order, col_order, n) == np.arange(n))  # both orders' parity
    det, start = 1, 0
    while start < len(sizes):
        k = int(sizes[start])
        stop = min(len(sizes), start + n * n // (k * k))
        batch, width = np.zeros((stop - start, k, k), dtype=np.int64), sizes[start:stop]
        e = np.flatnonzero((start <= block[r]) & (block[r] < stop))  # the entries in this batch
        batch[block[r[e]] - start, at[r[e]], at[n + c[e]]] = v[e]
        for j in range(k):
            live = batch[: np.count_nonzero(width > j)]  # the blocks wider than j, a prefix of the batch
            each = np.arange(len(live))
            p = j + np.argmax(live[:, j:, j] != 0, axis=1)
            pivots = live[each, p, j]
            if not (det := det * prod(pivots.tolist()) % ell):
                return 0
            swaps += np.count_nonzero(p != j)
            live[each, p], live[each, j] = live[each, j], live[each, p]
            b, i = np.nonzero(live[:, j + 1 :, j])  # the rows below the pivot with an entry in its column
            i += j + 1
            scale = live[b, i, j] * np.array([pow(x, -1, ell) for x in pivots.tolist()])[b] % ell
            live[b, i, j + 1 :] = (live[b, i, j + 1 :] - scale[:, None] * live[b, j, j + 1 :]) % ell
        start = stop
    return (-det if swaps % 2 else det) % ell
