"""Root systems of the simple Lie types, built exactly from Cartan matrices.

Roots live in simple-root coordinates (integer tuples); every pairing goes
through the Cartan matrix, and a squared root length is 1, 2 or 3 times the
short one, so the whole module is exact integer arithmetic.  Positive roots
are enumerated by closure under root addition and frozen in a deterministic
order whose first ``rank`` entries are the simple roots alpha_1, ..., alpha_l
in their conventional numbering.

Below `RootDatum` a root is its index k into `all_roots` (the N positive
roots, then their negatives in the same order, so -(root k) is root
(k + N) mod 2N).  Sums go through integer keys sum_i c_i B^i with
B = 4M + 1, M = max(highest_root): they add as roots add and are injective on
sums and differences of two roots (coordinates in [-2M, 2M]), but not on
arbitrary tuples, so keys are formed only from roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .exact import exact_div

Root = tuple[int, ...]

# Counts of the full root system |Phi| for the exceptional types, used as a
# construction-time cross-check.
_EXCEPTIONAL_ROOT_COUNTS = {("G", 2): 12, ("F", 4): 48, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A point of the Cartan classification, e.g. SimpleType('E', 6)."""

    family: str
    rank: int

    def __post_init__(self):
        ok = self.family in _VALID_RANKS and _VALID_RANKS[self.family](self.rank)
        if not ok:
            raise ValueError(f"not a classified simple type: {self.family}{self.rank}")

    @staticmethod
    def parse(name) -> "SimpleType":
        if isinstance(name, SimpleType):
            return name
        name = str(name).strip()
        if len(name) < 2 or not name[1:].isdigit():
            raise ValueError(f"cannot parse simple type {name!r}")
        return SimpleType(name[0].upper(), int(name[1:]))

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def is_exceptional(self) -> bool:
        return self.family in ("E", "F", "G")


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
    """d_i = (alpha_i, alpha_i)/2 normalised so that min d_i = 1.

    Solves d_i * |A[i][j]| = d_j * |A[j][i]| by propagation along the Dynkin
    diagram, scaling every d found so far when a ratio is not integral; the
    diagram of a simple type is connected, so this determines d up to the
    overall scale fixed by the normalisation.
    """
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
    if 0 in d:
        raise ArithmeticError("Dynkin diagram not connected")
    lo = min(d)
    return tuple(exact_div(x, lo, "root length ratio") for x in d)


class _RootTable(NamedTuple):
    roots: tuple[Root, ...]  # positives, then their negatives in the same order
    index: dict  # root -> its index in roots
    keys: tuple[int, ...]  # the key of roots[k]
    by_key: dict  # key -> index


@dataclass(frozen=True)
class RootDatum:
    """Immutable combinatorial skeleton of one simple type."""

    simple_type: SimpleType
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    coxeter_number: int
    exponents: tuple[int, ...]
    weyl_has_minus_one: bool
    simple_norms: tuple[int, ...]  # d_i = (alpha_i, alpha_i)/2, each 1, 2 or 3

    # -- pairings -------------------------------------------------------

    def pairing(self, i: int, root: Root) -> int:
        """<alpha_i^vee, root> via the Cartan matrix."""
        return sum(self.cartan[i][j] * root[j] for j in range(self.rank))

    def inner(self, a: Root, b: Root) -> int:
        """Weyl-invariant form (a, b), normalised so short simple roots have (a,a)=2."""
        return sum(
            a[i] * b[j] * self.simple_norms[i] * self.cartan[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
            if a[i] and b[j]
        )

    def norm2(self, a: Root) -> int:
        return self.inner(a, a)

    @cached_property
    def _roots(self) -> _RootTable:
        pos = self.positive_roots
        roots = pos + tuple(tuple(-c for c in r) for r in pos)
        base = 4 * max(self.highest_root) + 1
        keys = tuple(sum(c * base**i for i, c in enumerate(r)) for r in roots)
        return _RootTable(roots, {r: k for k, r in enumerate(roots)}, keys, {key: k for k, key in enumerate(keys)})

    @property
    def all_roots(self) -> tuple[Root, ...]:
        """The positive roots, then their negatives in the same order."""
        return self._roots.roots

    def root_index(self, root: Root) -> int:
        """The index of `root` in `all_roots`; ValueError if it is not a root."""
        k = self._roots.index.get(root)
        if k is None:
            raise ValueError(f"not a root of {self.simple_type}: {root}")
        return k

    def root_sum(self, i: int, j: int) -> int | None:
        """The index of root i + root j, or None if that sum is not a root."""
        table = self._roots
        return table.by_key.get(table.keys[i] + table.keys[j])

    def string_depth(self, u: Root, v: Root) -> int:
        """Depth of the u-string through the root v: the largest k with v - k*u a root."""
        n = len(self.positive_roots)
        minus_u = (self.root_index(u) + n) % (2 * n)
        w, k = self.root_index(v), 0
        while (w := self.root_sum(w, minus_u)) is not None:
            k += 1
        return k

    def coroot(self, root: Root) -> Root:
        """The coroot of `root` in simple-coroot coordinates."""
        self.root_index(root)
        n2 = self.norm2(root)
        return tuple(
            exact_div(2 * root[i] * self.simple_norms[i], n2, f"coroot of {root}")
            for i in range(self.rank)
        )

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
            "heights": [sum(r) for r in self.positive_roots],
            "highest_root": list(self.highest_root),
            "coxeter_number": self.coxeter_number,
            "exponents": list(self.exponents),
            "weyl_has_minus_one": self.weyl_has_minus_one,
        }


def _close_positive_roots(cartan) -> list[Root]:
    """All positive roots, by breadth-first closure from the simple roots.

    A candidate beta + alpha_i is accepted iff the alpha_i-string through
    beta continues upward, i.e. q = p - <alpha_i^vee, beta> >= 1 where p is
    the depth of the string below beta.  Only validated string data is used,
    never Euclidean geometry.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                if beta == simple[i]:  # 2 alpha_i is no root
                    continue
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                p = 0
                down = tuple(b - s for b, s in zip(beta, simple[i]))
                while down in known:
                    p += 1
                    down = tuple(b - s for b, s in zip(down, simple[i]))
                q = p - pairing
                if q >= 1:
                    up = tuple(b + s for b, s in zip(beta, simple[i]))
                    if up not in known:
                        known.add(up)
                        new.append(up)
        frontier = new
    # (height, alpha_1-first lexicographic): simple roots land on indices 0..n-1
    # in their conventional numbering.
    return sorted(known, key=lambda r: (sum(r), tuple(-c for c in r)))


def _exponents_from_heights(positive_roots) -> tuple[int, ...]:
    """Exponents as the conjugate of the height-count partition.

    With lam_k = #{positive roots of height exactly k}, the conjugate
    partition lam*_j = #{k : lam_k >= j} lists the exponents (largest first).
    """
    counts: dict[int, int] = {}
    for r in positive_roots:
        counts[sum(r)] = counts.get(sum(r), 0) + 1
    lam = [counts[k] for k in sorted(counts)]
    conj = [sum(1 for x in lam if x >= j) for j in range(1, max(lam) + 1)]
    return tuple(sorted(conj))


@lru_cache(maxsize=None)
def build_root_datum(t: SimpleType | str) -> RootDatum:
    """Construct the validated RootDatum of a simple type."""
    t = SimpleType.parse(t)
    A = cartan_matrix(t)
    pos = tuple(_close_positive_roots(A))
    theta = pos[-1]
    top = [r for r in pos if sum(r) == sum(theta)]
    if top != [theta]:
        raise ArithmeticError(f"highest root of {t} is not unique: {top}")
    h = sum(theta) + 1
    exps = _exponents_from_heights(pos)
    datum = RootDatum(
        simple_type=t,
        rank=t.rank,
        cartan=A,
        positive_roots=pos,
        highest_root=theta,
        coxeter_number=h,
        exponents=exps,
        weyl_has_minus_one=all(m % 2 == 1 for m in exps),
        simple_norms=_root_lengths(A),
    )
    _validate(datum)
    return datum


def _validate(d: RootDatum):
    n_pos, l, exps = len(d.positive_roots), d.rank, d.exponents
    key = (d.simple_type.family, d.simple_type.rank)
    checks = {
        "root count": 2 * n_pos == _EXCEPTIONAL_ROOT_COUNTS.get(key, 2 * n_pos),
        "one exponent per simple root": len(exps) == l,
        "sum(2m+1) = dim": sum(2 * m + 1 for m in exps) == 2 * n_pos + l,
        "exponents symmetric about h/2": len(exps) == l
        and all(exps[i] + exps[l - 1 - i] == d.coxeter_number for i in range(l)),
        "smallest exponent 1": exps[:1] == (1,),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise ArithmeticError(f"invalid root datum for {d.simple_type}: {', '.join(bad)}")


EXCEPTIONAL_TYPES = ("G2", "F4", "E6", "E7", "E8")
