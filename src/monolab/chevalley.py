"""Integral Chevalley bases with exact structure-constant arithmetic.

Every coefficient is a plain int, and an algebra is its ZZ form.  A relation
that holds over ZZ holds mod every prime ell, so reductions are made on the
outputs, as `exact.residues(alg.ad(z), ell)` for an ad matrix mod ell.

With N = `num_pos` positive roots, basis vector a < N is x_a, vector N + a
is y_a = x_{-a} and vector 2N + i is h_i, the i-th simple coroot vector, so
vector k < 2N is the root vector of root k, row k of `RootDatum.coords`, and
dim = 2N + rank.  Bracket conventions follow the
computer-algebra normalisation

    [y_a, x_a] = a^vee,      [x_a, t] = a(t) * x_a  for t in the Cartan,

so in particular [x_i, h[j]] = delta_ij * x_i against the dual Cartan basis
h[j] (fundamental coweights).

Magnitudes are |N_{a,b}| = p+1, p the depth of the a-string through b (from
`RootDatum.string_depth(u, v)`, the one root-string walk, run on the pairs
asked); signs are +(p+1) on extraspecial pairs in the (height, lex) root order
and follow elsewhere from the root-quadruple identities, from gather indices
computed once.  The one store is the read-only int64 array `entries` of rows
(i, j, k, c), [e_i, e_j] having c on e_k, sorted by (i, j, k) and built in
array operations on the arrays of `RootDatum`; its one index is `starts`, the
read-only int32 compressed-sparse-row pointer of q = i*dim + j, whose entries
are entries[:, starts[q]:starts[q + 1]].  `ad`, the one builder of ad
matrices, scatters the entries; `brackets` and `jacobi_sweep` find their rows
by one lookup, `_rows`, two gathers of `starts` a query.  Criterion 5 checks
the table by exhaustive Jacobi and Carter's magnitude identity.
`build_chevalley_algebra` is cached once per parsed simple type, on the cached
`build_root_datum`.  `_signed_map`, the one signed-map builder, gives sigma
and the Frenkel-Kac maps; sigma lifts -w0, which `_opposition` reads off
`RootDatum.diagram_symmetries`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exact import _check_budget, check_int, exact_div_arrays
from .rootsys import RootDatum, SimpleType, _read_only, build_root_datum, per_type

_BLOCK = 2**12  # triples per pass of `jacobi_sweep`; a pass takes under 6 KiB of temporaries a triple, charged as 16


def _carter_constants(datum: RootDatum):
    """Structure constants in standard orientation: arrays u, v, n with N_{u,v} = n, one entry per root sum.

    The extraspecial pair of a sum (least first member) gets n = -(p+1), all at
    once; the other positive pairs follow by the root-quadruple identity, one
    height of their sum at a time in (height, pair) order, from gather indices
    computed once, reading only extraspecial pairs and pairs of lower sums, and
    `_opposite` carries them to every sign (Carter, Simple Groups of Lie Type,
    4.1).  The exposed bracket negates the table: users see +(p+1) there.
    """
    num_pos, sums, norm2 = len(datum.positive_roots), datum.root_sums, datum.norm2
    a, b = np.nonzero(np.triu(sums[:num_pos, :num_pos] >= 0))  # positive pairs a < b
    depth = datum.string_depth(a, b)  # p: depth of the a-string through b
    down = sums[:num_pos, num_pos:]  # down[g, k]: the index of root g - root k
    gamma, least = sums[a, b], np.argmax((down >= 0) & (down < num_pos), axis=1)
    alpha = least[gamma]  # the extraspecial pair of gamma: (alpha, beta) with the least alpha
    beta, first, height = down[gamma, alpha], a == alpha, datum.heights[gamma]
    table = np.zeros((num_pos, num_pos), dtype=np.int64)
    table[a[first], b[first]], table[b[first], a[first]] = -(depth[first] + 1), depth[first] + 1
    rest = np.flatnonzero(~first)[np.argsort(height[~first], kind="stable")]  # (height, pair) order
    al, be, xi, eta = alpha[rest], beta[rest], a[rest], b[rest]
    # N_{xi,eta} = (gamma,gamma)/n0 * (N_{beta,-xi} N_{alpha,-eta} / (beta-xi)^2
    #                                 - N_{alpha,-xi} N_{beta,-eta} / (alpha-xi)^2); absent terms are 0/1
    d1, d2 = sums[be, xi + num_pos], sums[al, xi + num_pos]
    q1, q2 = np.where(d1 >= 0, norm2[d1], 1), np.where(d2 >= 0, norm2[d2], 1)
    gathers = _opposite(norm2, sums, np.concatenate([be, al, al, be]), np.concatenate([xi, eta, xi, eta]))
    row, col, num, den = (x.reshape(4, -1) for x in gathers)
    ng, den0, cuts = norm2[gamma[rest]], q1 * q2 * table[al, be], (np.flatnonzero(np.diff(height[rest])) + 1).tolist()
    for s in map(slice, [0, *cuts], [*cuts, len(rest)]):  # one height at a time
        n1, n2, n3, n4 = exact_div_arrays(num[:, s] * table[row[:, s], col[:, s]], den[:, s], "structure constant")
        value = exact_div_arrays(ng[s] * (n1 * n2 * q2[s] - n3 * n4 * q1[s]), den0[s], "root-quadruple identity")
        table[xi[s], eta[s]], table[eta[s], xi[s]] = value, -value
        for i in rest[s][np.abs(value) != depth[rest[s]] + 1][:1]:
            r, got = datum.all_roots, abs(table[a[i], b[i]])
            raise ArithmeticError(f"|N{r[a[i]], r[b[i]]}| = {got} under {r[gamma[i]]}, want p+1 = {depth[i] + 1}")
    p, q = np.nonzero(down >= 0)  # root p plus the negative of root q
    row, col, num, den = _opposite(norm2, sums, p, q)
    n, mixed = table[a, b], exact_div_arrays(num * table[row, col], den, "structure constant")
    u = np.concatenate([a, b, a + num_pos, b + num_pos, p, q + num_pos])
    v = np.concatenate([b, a, b + num_pos, a + num_pos, q + num_pos, p])
    return u, v, np.concatenate([n, -n, -n, n, mixed, -mixed])


def _opposite(norm2, sums, u, v):
    """Gathers of N_{u,-v} = num*table[row, col]/den: (w,w)/(u,u) N_{w,v} if w = u-v > 0, else (w,w)/(v,v) N_{-w,u}."""
    num_pos = len(sums) // 2
    w = sums[u, v + num_pos]
    up = w < num_pos
    return w % num_pos, np.where(up, v, u), np.where(w >= 0, norm2[w], 0), np.where(up, norm2[u], norm2[v])


class ChevalleyAlgebra:
    """Simple Lie algebra over ZZ, with frozen structure constants `entries` and their `starts`.

    Basis vectors are indices below `dim`: x_a is a, y_a is `num_pos` + a and h_i is 2 * `num_pos` + i.
    Coefficients are plain ints.  Instances are immutable after construction;
    `brackets` and friends are pure and safe to share across threads.  Use
    `build_chevalley_algebra` to get the cached algebra of a simple type, so
    algebra identity can be used for operand compatibility checks.
    """

    def __init__(self, datum: RootDatum, _shared=None):
        self.datum = datum
        self.num_pos = len(datum.positive_roots)
        self.dim = 2 * self.num_pos + datum.rank
        self.entries = _build_table(datum) if _shared is None else _shared
        self.starts = _pointer(self.entries[0] * self.dim + self.entries[1], self.dim**2)  # over i*dim + j

    def _clean(self, coeffs: dict) -> dict:
        """coeffs without zero entries."""
        return {k: v for k, v in coeffs.items() if v}

    def __repr__(self):
        return f"ChevalleyAlgebra({self.datum.simple_type}, ZZ)"

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: dict) -> "LieElement":
        for k, v in coeffs.items():
            self._index(k)
            check_int(v, "scalar")
        return LieElement(self, self._clean(coeffs))

    def _index(self, k) -> int:
        """k, checked to be a basis index: an int in range(dim), not a bool."""
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < self.dim:
            raise ValueError(f"not a basis index of {self!r}: {k!r}")
        return k

    def basis_label(self, k: int) -> str:
        n = self.num_pos
        if k < n:
            return f"x[{k}]"
        if k < 2 * n:
            return f"y[{k - n}]"
        return f"h[{k - 2 * n}]"

    # -- structure constants ------------------------------------------------

    def structure_constant_triples(self):
        """All (i, j, k, c) with [e_i, e_j] having coefficient c on e_k, in (i, j, k) order."""
        yield from zip(*self.entries.tolist())

    def ad(self, z: "LieElement") -> np.ndarray:
        """The dim x dim int64 matrix of ad z: column j holds the coordinates of [z, e_j]."""
        _check_compat(z.algebra, self)
        if any(abs(v) >= 2**31 for v in z.coeffs.values()):
            raise ValueError("ad takes coefficients below 2**31 in absolute value")
        coeffs, out = np.zeros(self.dim, dtype=np.int64), np.zeros((self.dim, self.dim), dtype=np.int64)
        coeffs[list(z.coeffs)] = list(z.coeffs.values())
        i, j, k, c = self.entries[:, _rows(self.starts[:: self.dim], np.flatnonzero(coeffs))[1]]  # the rows [e_i, .] of z
        # exact in int64: every |c| <= 6 (a coroot coordinate at most), so under the
        # guard a term is below 6 * 2**31, and a cell (k, j) sums at most rank terms
        np.add.at(out, (k, j), coeffs[i] * c)
        return out


def _build_table(datum: RootDatum) -> np.ndarray:
    """The read-only int64 (4, n) array of rows (i, j, k, c), [e_i, e_j] = c e_k + ..., sorted by (i, j, k), over ZZ."""
    num_pos, num_roots, pairings = len(datum.positive_roots), 2 * len(datum.positive_roots), datum.pairings
    u, v, n = _carter_constants(datum)  # root-root brackets: [x_u, x_v] = -n x_{u+v}
    cu, ck = np.nonzero(datum.coroots)  # [x_u, x_-u] = -u^vee
    pu, pk = np.nonzero(pairings)  # Cartan against root vectors: [x_u, h_k] = <alpha_k^vee, u> x_u
    h, pc = num_roots + pk, pairings[pu, pk]
    i, j = np.concatenate([u, cu, pu, h]), np.concatenate([v, (cu + num_pos) % num_roots, h, pu])
    k, c = np.concatenate([datum.root_sums[u, v], num_roots + ck, pu, pu]), np.concatenate([-n, -datum.coroots[cu, ck], pc, -pc])
    dim = num_roots + datum.rank  # one sort key per (i, j, k): an argsort is several times faster than np.lexsort
    return _read_only(np.array([i, j, k, c], dtype=np.int64)[:, np.argsort((i * dim + j) * dim + k)])


@dataclass
class LieElement:
    """Sparse vector in a ChevalleyAlgebra; no zero coefficients are stored."""

    algebra: ChevalleyAlgebra
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c):
        check_int(c, "scalar")
        return LieElement(self.algebra, self.algebra._clean({k: v * c for k, v in self.coeffs.items()}))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        alg = self.algebra
        return " + ".join(f"{v}*{alg.basis_label(k)}" for k, v in sorted(self.coeffs.items()))


def _check_compat(a: ChevalleyAlgebra, b: ChevalleyAlgebra):
    if a is not b:
        raise ValueError(f"incompatible operands: {a!r} vs {b!r} (mixed algebras)")


@per_type
def build_chevalley_algebra(t: SimpleType) -> ChevalleyAlgebra:
    """The Chevalley algebra of a simple type over ZZ."""
    return ChevalleyAlgebra(build_root_datum(t))


def _opposition(d: RootDatum) -> list[int]:
    """The simple-root permutation -w0, 0-based: the identity when -1 is in W, else the one nontrivial diagram symmetry."""
    if d.weyl_has_minus_one:
        return list(range(d.rank))
    if (count := len(d.diagram_symmetries)) != 2:  # -w0 is then a nontrivial diagram involution (Steinberg, Lectures, 11)
        raise ArithmeticError(f"{d.simple_type}: -1 is not in W, and the diagram has {count} symmetries, not 2")
    return list(d.diagram_symmetries[1])


def diagram_involution(alg: ChevalleyAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The diagram automorphism sigma of -w0, `_signed_map(alg, alg, _opposition(d))`; ArithmeticError if sigma^2 != 1."""
    perm, sign = _signed_map(alg, alg, _opposition(alg.datum))
    if (perm[perm] != np.arange(alg.dim)).any() or (sign * sign[perm] != 1).any():
        raise ArithmeticError("the signed permutation is no involution")
    return perm, sign


def _signed_map(a: ChevalleyAlgebra, b: ChevalleyAlgebra, pi) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 arrays (perm, sign) of e_k -> sign[k] e_perm[k], taking table a onto table b of one root datum.

    The simple x_i, y_i and h_i go to those of pi(i) with sign 1, and the map
    extends one root height at a time: root k = s + r with s simple, so
    sigma e_k = [sigma e_s, sigma e_r] / N_{s,r} (Carter, Simple Groups of Lie
    Type, the chapter on twisted groups).  ArithmeticError unless `_check_map`
    lands every entry of a on b, which is onto: one root datum's tables share their (i, j, k).
    """
    d, num_pos, dim = a.datum, a.num_pos, a.dim
    simple, pi, perm, sign = np.arange(d.rank), np.array(pi), np.arange(dim), np.ones(dim, dtype=np.int64)
    perm[simple], perm[simple + num_pos], perm[simple + 2 * num_pos] = pi, pi + num_pos, pi + 2 * num_pos
    for h in range(2, d.coxeter_number):  # the heights of the non-simple roots
        k = np.flatnonzero(np.abs(d.heights) == h)
        s = simple + num_pos * (k[:, None] >= num_pos)  # the simple roots of each root's sign
        down = d.root_sums[k[:, None], (s + num_pos) % (2 * num_pos)]  # root k - s, -1 if none
        least, rows = np.argmax(down >= 0, axis=1), np.arange(len(k))
        s, r = s[rows, least], down[rows, least]
        perm[k] = d.root_sums[perm[s], perm[r]]
        if (perm[k] < 0).any():
            raise ArithmeticError(f"the permutation {pi.tolist()} of the simple roots is no diagram symmetry")
        n, image = (t.entries[3, t.starts[u * dim + v]] for t, u, v in ((a, s, r), (b, perm[s], perm[r])))
        sign[k] = sign[r] * image // n
    _check_map(a, b, perm, sign)
    return _read_only(perm), _read_only(sign)


def _check_map(a: ChevalleyAlgebra, b: ChevalleyAlgebra, perm, sign):
    """ArithmeticError naming the first entry (i, j, k, c) of table a that the signed permutation does not land on b."""
    key, keys = np.ravel_multi_index(perm[a.entries[:3]], (a.dim,) * 3), np.ravel_multi_index(b.entries[:3], (b.dim,) * 3)
    at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)  # keys are sorted, as b's entries are
    for bad in np.flatnonzero((keys[at] != key) | (b.entries[3, at] != a.entries[3] * sign[a.entries[:3]].prod(0)))[:1]:
        raise ArithmeticError(f"entry {tuple(a.entries[:, bad].tolist())} does not land on the second table")


def _pointer(keys, n):
    """Read-only int32 CSR pointer of sorted keys in [0, n): key q at starts[q]:starts[q + 1]; no n-long int64 temporary."""
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    runs = np.diff(np.concatenate([[-1], keys[first], [n]]))  # starts[q]: the position of the first key >= q
    return _read_only(np.repeat(np.concatenate([first, [len(keys)]]).astype(np.int32), runs))


def _rows(starts, queries):
    """(query, position) pairs with position in starts[q]:starts[q + 1], q = queries[query], in query order.

    IndexError for a query outside [0, len(starts) - 1), negative ones included.
    """
    if queries.min(initial=0) < 0:
        raise IndexError(f"negative query {queries.min()}")
    lo = starts[queries]
    n = starts[queries + 1] - lo
    return np.repeat(np.arange(len(queries)), n), np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def brackets(pairs) -> list[LieElement]:
    """The exact Lie bracket [a, b] of every pair (a, b) of elements of one algebra, with one `_rows` lookup for all.

    Bilinear and alternating; pass a list of one pair for a single bracket.
    """
    if not pairs:
        return []
    alg = pairs[0][0].algebra
    for a, b in pairs:
        _check_compat(alg, a.algebra)
        _check_compat(a.algebra, b.algebra)
    lefts, rights = [a.coeffs for a, _ in pairs], [b.coeffs for _, b in pairs]
    na, nb = np.array([len(d) for d in lefts], dtype=np.int64), np.array([len(d) for d in rights], dtype=np.int64)
    ka, kb = np.fromiter(chain(*lefts), np.int64, na.sum()), np.fromiter(chain(*rights), np.int64, nb.sum())
    ca, cb = [v for d in lefts for v in d.values()], [v for d in rights for v in d.values()]
    pair = np.repeat(np.arange(len(pairs)), na)  # the pair of each term of a
    u, v = _rows(np.concatenate([[0], np.cumsum(nb)]), pair)  # each term of a with each term of b, pair after pair
    query, pos = _rows(alg.starts, ka[u] * alg.dim + kb[v])
    acc: list[dict] = [{} for _ in pairs]
    for p, x, y, k, c in zip(*np.array([pair[u[query]], u[query], v[query], *alg.entries[2:, pos]]).tolist()):
        acc[p][k] = acc[p].get(k, 0) + ca[x] * cb[y] * c  # Python ints: exact at any size
    return [LieElement(alg, alg._clean(d)) for d in acc]


def jacobi_sweep(alg: ChevalleyAlgebra, triples=None, samples: int | None = None, seed: int | None = None):
    """Check [[u,v],w] + [[v,w],u] + [[w,u],v] = 0 on basis triples.

    With neither `triples` nor `samples`, checks every triple at once by
    `_jacobi_contraction`.  Otherwise checks the given triples, or `samples`
    pseudo-random ones whose indices are the little-endian 64-bit words of
    `random.Random(seed).randbytes`, each mod dim (a bias below dim / 2**64),
    drawn block by block from an int `seed`, read only with `samples` (None
    is 0, so a sample is the same on every call).  Each rotation (a, b, c)
    of a triple joins [e_a, e_b] = c1 e_m with [e_m, e_c] = c2 e_t, `_BLOCK`
    triples at a time.  Returns the number of triples checked.
    ArithmeticError names the first failing triple and its nonzero
    coefficients, ValueError a triple that is not three basis indices,
    `triples` with `samples`, or a seed not an int or without `samples`;
    ResourceLimitError refuses, before any draw, samples whose block check
    (16 KiB a triple) exceeds `memory_budget()`.
    """
    dim = alg.dim
    if samples is None and seed is not None:
        raise ValueError(f"seed is read only with samples, got seed={seed!r} and no samples")
    if triples is None:
        if samples is None:
            return _jacobi_contraction(alg)
        check_int(samples, "samples", 0)
        seed = 0 if seed is None else seed
        check_int(seed, "seed")
        _check_budget(2**14 * min(samples, _BLOCK), f"{samples} sampled Jacobi triples")
        rng, n = random.Random(seed), samples
    elif samples is not None:
        raise ValueError("pass triples or samples, not both")
    else:
        triples = list(triples)  # an iterator is read twice
        if bad := [t for t in triples if not isinstance(t, (tuple, list)) or len(t) != 3][:1]:
            raise ValueError(f"not a triple of basis indices of {alg!r}: {bad[0]!r}")
        triples = np.asarray([(alg._index(i), alg._index(j), alg._index(k)) for i, j, k in triples], np.int64).reshape(-1, 3)
        n = len(triples)
    for start in range(0, n, _BLOCK):  # the first failing block has the first failure
        if triples is None:
            # three 64-bit words a triple: whole 32-bit words, so the blocks continue one stream
            block = (np.frombuffer(rng.randbytes(24 * min(_BLOCK, n - start)), "<u8") % dim).astype(np.int64).reshape(-1, 3)
        else:
            block = triples[start : start + _BLOCK]
        i, j, k = block.T
        first, p = _rows(alg.starts, np.concatenate([i, j, k]) * dim + np.concatenate([j, k, i]))
        second, q = _rows(alg.starts, alg.entries[2, p] * dim + np.concatenate([k, i, j])[first])
        slot = np.tile(np.arange(len(block)), 3)[first[second]]  # the triple's position in the block
        terms = alg.entries[3, p[second]] * alg.entries[3, q]
        _check_sums(alg, slot * dim + alg.entries[2, q], terms, lambda s: tuple(block[s].tolist()))
    return n


def _jacobi_contraction(alg: ChevalleyAlgebra) -> int:
    """Exhaustive Jacobi check as one sparse contraction over the table.

    Joining each entry [e_a, e_b] = c e_m with each entry [e_m, e_k] = c2 e_t
    of row m gives every nonzero term c*c2 of [[e_a, e_b], e_k] at e_t.  The
    sum for (i, j, k) runs over the three rotations of the triple, so
    (a, b, k), (k, a, b) and (b, k, a) share one sum: each term is keyed by
    the least of the three, together with t, and the terms are summed per key.
    A triple with no term sums to zero, so all dim**3 triples are checked.
    """
    dim = alg.dim
    a, b, m, c = alg.entries
    first, second = _rows(alg.starts[::dim], m)  # row m of the table is starts[m*dim]:starts[(m + 1)*dim]
    i, j, k = a[first], b[first], b[second]
    least = np.minimum((i * dim + j) * dim + k, (k * dim + i) * dim + j)  # the least of the three rotations
    least = np.minimum(least, (j * dim + k) * dim + i)
    _check_sums(alg, least * dim + m[second], c[first] * c[second], lambda s: (s // dim**2, s // dim % dim, s % dim))
    return dim**3


def _check_sums(alg: ChevalleyAlgebra, keys, terms, triple):
    """Sum the Jacobi terms per key slot*dim + t; raise naming `triple(slot)` for the least failing slot."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(keys != np.concatenate([[-1], keys[:-1]]))  # keys are >= 0, so the first starts a run
    sums = np.add.reduceat(terms[order], starts)
    keys = keys[starts]
    bad = np.flatnonzero(sums)
    if bad.size:
        slot = int(keys[bad[0]] // alg.dim)
        coeffs = {int(keys[s] % alg.dim): int(sums[s]) for s in bad if keys[s] // alg.dim == slot}
        raise ArithmeticError(f"Jacobi fails on basis triple {triple(slot)}: {coeffs}")
