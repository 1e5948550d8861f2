"""Root systems of the simple Lie types, built exactly from Cartan matrices.

Roots live in simple-root coordinates (integer tuples); every pairing goes
through the Cartan matrix, whose symmetrizer is `simple_norms`: a squared root
length is 1, 2 or 3 times the short one, so the whole module is exact integer
arithmetic.  Positive roots are the closure of the simple roots under the raising
simple reflections, one array pass a level, frozen in a deterministic order whose
first ``rank`` entries are the simple roots in their conventional numbering.

Below `RootDatum` a root is its index k into `coords`, the one read-only (2N x
rank) int64 root-coordinate array (the N positive roots, then their negatives,
so -(root k) is root (k + N) mod 2N; `all_roots` holds the same as tuples).
`RootDatum` alone computes per-root numbers, each a read-only array built once
per datum and read off `coords`: `root_sums`, the signed `heights`, `pairings`,
`norm2` and `coroots`; the exponents, the Coxeter number, the highest root and
`weyl_has_minus_one` are read off `heights`.  `string_depth(u, v)`, walked on
`root_sums`, is the one root-string walk, run only on the index pairs a reader
passes.  The node numbering is written only in `cartan_matrix`:
`diagram_symmetries`, the node permutations that keep the Cartan matrix, is
read off it.
`_sum_index` builds the sums with array operations on int64 keys short enough
that no key wraps at any rank.  `per_type` caches each per-type builder (the
datum here, the Chevalley algebra, the Kostant decomposition and the prime
scan report) once per parsed `SimpleType`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np

from .exact import check_int, exact_div_arrays, integer_kernel

Root = tuple[int, ...]

# The exceptional types, each with the count of its full root system |Phi|,
# used as a construction-time cross-check.
_EXCEPTIONAL_ROOT_COUNTS = {("G", 2): 12, ("F", 4): 48, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240}
EXCEPTIONAL_TYPES = tuple(f"{family}{rank}" for family, rank in _EXCEPTIONAL_ROOT_COUNTS)

_CLASSICAL_MIN_RANKS = {"A": 1, "B": 2, "C": 3, "D": 4}
MAX_RANK = 32  # the largest classical rank built; primescan on B32 takes 0.8-1.0 s and 126 MB cold on 2 vCPUs


@dataclass(frozen=True, order=True)
class SimpleType:
    """A point of the Cartan classification, e.g. SimpleType('E', 6)."""

    family: str
    rank: int

    def __post_init__(self):
        check_int(self.rank, "rank")  # True and np.int64(8) hash like 1 and 8, and would share their per-type caches
        if self.is_exceptional:
            return
        if self.family not in _CLASSICAL_MIN_RANKS or self.rank < _CLASSICAL_MIN_RANKS[self.family]:
            raise ValueError(f"not a classified simple type: {self.family}{self.rank}")
        if self.rank > MAX_RANK:
            raise ValueError(f"{self.family}{self.rank}: ranks above {MAX_RANK} are not built")

    @staticmethod
    def parse(name) -> "SimpleType":
        if isinstance(name, SimpleType):
            return name
        name = str(name).strip()
        family, digits = name[:1].upper(), name[1:]
        if not (digits.isascii() and digits.isdigit()):  # str.isdigit alone passes '³' and '٣'
            raise ValueError(f"cannot parse simple type {name!r}")
        rank = digits.lstrip("0")
        if len(rank) > len(str(MAX_RANK)):  # answered before int(), which refuses 4,301 digits
            if family in _CLASSICAL_MIN_RANKS:
                raise ValueError(f"{family}{rank}: ranks above {MAX_RANK} are not built")
            raise ValueError(f"not a classified simple type: {family}{rank}")
        return SimpleType(family, int(rank or 0))

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def is_exceptional(self) -> bool:
        return (self.family, self.rank) in _EXCEPTIONAL_ROOT_COUNTS


def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = <alpha_i^vee, alpha_j>, Bourbaki numbering."""
    n = t.rank
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    fam = t.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if fam == "B":  # alpha_n short
            A[n - 1][n - 2] = -2
        elif fam == "C":  # alpha_n long
            A[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    elif fam == "E":
        # chain 1-3-4-5-...-n with node 2 attached to node 4
        join(0, 2)
        for i in range(2, n - 1):
            join(i, i + 1)
        join(1, 3)
    elif fam == "F":
        join(0, 1)
        join(1, 2, aij=-1, aji=-2)  # alpha_2 long, alpha_3 short
        join(2, 3)
    elif fam == "G":
        join(0, 1, aij=-3, aji=-1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in A)


def _root_lengths(cartan) -> tuple[int, ...]:
    """d_i = (alpha_i, alpha_i)/2, the Cartan symmetrizer: the diagonal D with DA symmetric (Kac, §2.1).

    D spans the integer kernel of d_i A_ij - d_j A_ji = 0 over the linked pairs i < j.  Its primitive vector has least
    entry 1, as a simple type has at most two root lengths, in ratio 1, 2 or 3; ArithmeticError otherwise.
    """
    A, eye = np.array(cartan, dtype=np.int64), np.eye(len(cartan), dtype=np.int64)
    i, j = np.nonzero(np.triu(A | A.T, 1))  # the linked pairs: A_ij or A_ji is nonzero
    kernel = integer_kernel(A[i, j, None] * eye[i] - A[j, i, None] * eye[j], len(A))
    if len(kernel) != 1 or min(kernel[0]) != 1:
        raise ArithmeticError(f"no symmetrizer with least entry 1: the integer kernel is {kernel}")
    return kernel[0]


def _sum_index(coords) -> np.ndarray:
    """(2N x 2N) array: the index of root i + root j, else -1, for the rows of coords, N roots and then their negatives.

    Coordinates are keyed k at a time in base B = 4M + 1 (M the largest
    |coordinate|): key(u + v) = key(u) + key(v), injective on sums of two
    roots.  Word by word, each root and each sum gets the id of its prefix
    among the roots' prefixes (their first position in sorted order; -1 once
    none matches) by one `searchsorted` on id * B**k + key.  Ids stay below
    2N and 2N * B**k <= 2**63, so no int64 wraps at any rank.  Only sums with a
    positive root are searched, and entries take the least signed type for -2N.
    """
    n, rank = coords.shape
    base = 4 * int(coords.max()) + 1  # the negatives are among the roots; a Python int, so base**k cannot wrap
    width = max(k for k in range(1, 64) if n * base**k <= 2**63)
    row_id, sum_id = np.zeros(n, dtype=np.int64), np.zeros((n // 2, n), dtype=np.int64)
    for lo in range(0, rank, width):
        chunk = coords[:, lo : lo + width]
        span, key = base ** chunk.shape[1], (chunk * base ** np.arange(chunk.shape[1], dtype=np.int64)).sum(1)
        key += (span - 1) // 2  # now in [0, span), and so is key(u) + key(v) - (span - 1) // 2
        row_key = row_id * span + key
        keys = np.array(sorted(row_key.tolist()), dtype=np.int64)  # n keys; sorted() loads no numpy sort kernel
        sum_id *= span  # a dead prefix (-1) goes negative and matches no root again
        sum_id += key[: n // 2, None]
        sum_id += key - (span - 1) // 2
        at = np.minimum(np.searchsorted(keys, sum_id), n - 1)
        row_id, sum_id = np.searchsorted(keys, row_key), np.where(keys[at] == sum_id, at, -1)
    root_of = np.full(n + 1, -1, dtype=np.min_scalar_type(-n))  # root_of[id]: the root with that id; root_of[-1] = -1
    root_of[row_id] = np.arange(n)
    top = root_of[sum_id]
    negative = np.concatenate([np.arange(n // 2, n), np.arange(n // 2), [-1]]).astype(root_of.dtype)
    return np.vstack([top, negative[np.roll(top, n // 2, axis=1)]])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RootDatum:
    """Immutable combinatorial skeleton of one simple type; its exponents, h, theta and -1 in W are read off `heights`."""

    simple_type: SimpleType
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    simple_norms: tuple[int, ...]  # d_i = (alpha_i, alpha_i)/2, each 1, 2 or 3

    @cached_property
    def all_roots(self) -> tuple[Root, ...]:
        """The positive roots, then their negatives in the same order."""
        return self.positive_roots + tuple(tuple(-c for c in r) for r in self.positive_roots)

    # -- read-only per-root arrays, built once and indexed like coords --

    @cached_property
    def coords(self) -> np.ndarray:
        """(2N x rank) int64 array: row u holds the simple-root coordinates of root u; every per-root array reads it."""
        positive = np.array(self.positive_roots, dtype=np.int64)
        return _read_only(np.concatenate([positive, -positive]))

    @cached_property
    def root_sums(self) -> np.ndarray:
        """(2N x 2N) integer array: entry (i, j) is the index of root i + root j, -1 if not a root."""
        return _read_only(_sum_index(self.coords))

    @cached_property
    def heights(self) -> np.ndarray:
        """2N int64 array of signed heights: the sum of the simple-root coordinates of root u."""
        return _read_only(self.coords.sum(1))

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        """The conjugate of the height partition lam_k = #{positive roots of height k}, ascending (Kostant, 1959)."""
        lam = np.bincount(self.heights[: len(self.positive_roots)])[1:].tolist()
        return tuple(sorted(sum(x >= j for x in lam) for j in range(1, max(lam) + 1)))

    @cached_property
    def coxeter_number(self) -> int:
        """h = ht(theta) + 1, one more than the largest height."""
        return int(self.heights.max()) + 1

    @cached_property
    def highest_root(self) -> Root:
        """theta, the last positive root: the roots are sorted by height, and `_validate` checks it alone is on top."""
        return self.positive_roots[-1]

    @cached_property
    def weyl_has_minus_one(self) -> bool:
        """Whether -1 lies in the Weyl group, which is when every exponent is odd."""
        return all(m % 2 for m in self.exponents)

    @cached_property
    def pairings(self) -> np.ndarray:
        """(2N x rank) int64 array: entry (u, i) is <alpha_i^vee, root u>."""
        return _read_only(self.coords @ np.array(self.cartan, dtype=np.int64).T)

    @cached_property
    def norm2(self) -> np.ndarray:
        """2N int64 array of the Weyl-invariant (u, u) = sum_i u_i d_i <alpha_i^vee, u>; short simple roots have 2."""
        return _read_only((self.coords * self.simple_norms * self.pairings).sum(1))

    @cached_property
    def coroots(self) -> np.ndarray:
        """(2N x rank) int64 array: the coroot 2 u / (u, u) of root u in simple-coroot coordinates."""
        return _read_only(exact_div_arrays(2 * self.coords * self.simple_norms, self.norm2[:, None], "coroot"))

    def string_depth(self, u, v) -> np.ndarray:
        """Int64 depths of the u-strings through v, each the largest k with v - k*u a root; u, v are root indices."""
        minus = (np.asarray(u) + len(self.positive_roots)) % len(self.coords)  # the index of -(root u)
        depth, w = np.zeros(np.broadcast(minus, v).shape, dtype=np.int64), self.root_sums[minus, v]  # v - u, or -1
        while (live := w >= 0).any():
            depth += live
            w = np.where(live, self.root_sums[w, minus], -1)  # one step further down the string
        return depth

    @cached_property
    def diagram_symmetries(self) -> tuple[tuple[int, ...], ...]:
        """The sorted node permutations pi with C[pi][:, pi] = C, the identity first.

        Each pi grows along a breadth-first order of the connected diagram, a
        node going to a neighbour of its parent's image; only the finished maps
        that keep C are kept (Kac, Infinite-dimensional Lie algebras, ch. 7).
        """
        C, n = self.cartan, self.rank
        order, parent = [0], {0: 0}
        for i in order:  # `order` grows in place while it is walked
            new = [j for j in range(n) if C[i][j] and j not in parent]
            parent.update(dict.fromkeys(new, i))
            order += new
        maps = [{0: k} for k in range(n)]
        for j in order[1:]:
            maps = [{**m, j: k} for m in maps for k in range(n) if C[m[parent[j]]][k] and k not in m.values()]
        perms = (tuple(m[i] for i in range(n)) for m in maps)
        return tuple(sorted(p for p in perms if tuple(tuple(C[a][b] for b in p) for a in p) == C))

    # -- serialisation ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "simple_type": str(self.simple_type),
            "rank": self.rank,
            "cartan": [list(r) for r in self.cartan],
            "num_positive_roots": len(self.positive_roots),
            "num_roots": 2 * len(self.positive_roots),
            "dim_algebra": 2 * len(self.positive_roots) + self.rank,
            "positive_roots": [list(r) for r in self.positive_roots],
            "heights": self.heights[: len(self.positive_roots)].tolist(),
            "highest_root": list(self.highest_root),
            "coxeter_number": self.coxeter_number,
            "exponents": list(self.exponents),
            "weyl_has_minus_one": self.weyl_has_minus_one,
        }


def _close_positive_roots(cartan) -> list[Root]:
    """All positive roots: the simple roots closed under the raising simple reflections, one array pass a level.

    s_i(beta) = beta - <alpha_i^vee, beta> alpha_i changes only coordinate i, and raises beta when the pairing is
    negative.  A non-simple positive root beta pairs positively with some alpha_i^vee, and s_i(beta) is then a positive
    root of lower height that pairs negatively with it (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.2): reversing that chain, raising reflections reach every positive root from the simple ones, and no
    other root, as s_i sends only alpha_i (which pairs to 2) out of the positive roots.  A level is one int64 product
    frontier @ A^T, its new rows kept by their bytes.  Only the Cartan matrix is read; no root string is walked.
    """
    A = np.array(cartan, dtype=np.int64)
    simple = frontier = np.eye(len(A), dtype=np.int64)
    known, levels, width = {row.tobytes() for row in frontier}, [frontier], frontier.itemsize * len(A)  # bytes a row
    while len(frontier):
        pair = frontier @ A.T  # pair[b, i] = <alpha_i^vee, beta_b>
        b, i = np.nonzero(pair < 0)  # the raising reflections
        gamma = frontier[b] - pair[b, i, None] * simple[i]  # s_i(beta) = beta - <alpha_i^vee, beta> alpha_i
        keys = gamma.tobytes()
        rows = {keys[k * width : (k + 1) * width]: k for k in range(len(b))}  # one row a distinct image
        frontier = gamma[[k for key, k in rows.items() if key not in known]]
        known.update(rows)
        levels.append(frontier)
    # (height, alpha_1-first lexicographic), as (-height, r) descending: simple roots land on indices 0..n-1
    # in their conventional numbering.
    return sorted(map(tuple, np.concatenate(levels).tolist()), key=lambda r: (-sum(r), r), reverse=True)


def per_type(build):
    """Cache `build(t)` once per simple type, parsing t first: 'E8', 'e8' and SimpleType('E', 8) share one result.

    The wrapper exposes `cache_clear`; its `__wrapped__` is the uncached `build`, which takes a parsed SimpleType.
    """
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def by_type(t: SimpleType | str):
        return cached(SimpleType.parse(t))

    by_type.cache_clear = cached.cache_clear
    return by_type


@per_type
def build_root_datum(t: SimpleType) -> RootDatum:
    """Construct the validated RootDatum of a simple type."""
    A = cartan_matrix(t)
    datum = RootDatum(t, t.rank, A, tuple(_close_positive_roots(A)), _root_lengths(A))
    _validate(datum)
    return datum


def _validate(d: RootDatum):
    n_pos, l, exps, top = len(d.positive_roots), d.rank, d.exponents, d.coxeter_number - 1
    key = (d.simple_type.family, d.simple_type.rank)
    checks = {
        "root count": 2 * n_pos == _EXCEPTIONAL_ROOT_COUNTS.get(key, 2 * n_pos),
        "one highest root": d.heights[n_pos - 1] == top and np.count_nonzero(d.heights == top) == 1,
        "one exponent per simple root": len(exps) == l,
        "sum(2m+1) = dim": sum(2 * m + 1 for m in exps) == 2 * n_pos + l,
        "exponents symmetric about h/2": len(exps) == l
        and all(exps[i] + exps[l - 1 - i] == d.coxeter_number for i in range(l)),
        "smallest exponent 1": exps[:1] == (1,),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise ArithmeticError(f"invalid root datum for {d.simple_type}: {', '.join(bad)}")

