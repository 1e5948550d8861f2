"""H^0 and H^1 of finite matrix groups over prime fields.

`h1` has two solvers and picks one from the group's generator list.

SL2(F_ell) on its standard generators (`sl2_generators`) is solved by
restriction to the Borel subgroup B = U T.  The index [SL2(F_ell) : B] =
ell + 1 and the torus order |T| = ell - 1 are both prime to ell, so
H^1(SL2(F_ell), M) = H^1(U, M)^T (stable elements; Brown, Cohomology of
Groups, III.10).  U is cyclic of order ell, so this is linear algebra on
dim(M) x dim(M) matrices whatever the group order is.  The module matrices
are first checked against a five-relation presentation of SL2(F_ell) (Behr
and Mennicke's presentation of PSL(2, ell) with a central y^2), and the
whole solver takes O(log ell) products of them.  Its torus generator is read
off `exact.factor(ell - 1)`.

Every other group goes to the Cayley solver, which never needs a
presentation: a cocycle is determined by its values on the generators, and
propagating symbolic affine expressions along a breadth-first spanning tree
of the Cayley graph turns every non-tree edge into linear consistency
constraints on those generator values.  The constraint matrix has only
n_generators * dim(M) columns, so the elimination state stays small however
large the group is; the per-element expression matrices are the dominant
memory cost and are guarded by a budget.  It shares `_tree_products` and the
module check `_check_module` with the naive oracle `h1_naive`, and every
matrix list enters through one validator, `_square_stack`.  The oracle on
trivial modules reads G^ab off `exact.diagonal_divisors`, which no solver reaches.

Specialised helpers cover SL2(F_ell) acting on Sym^r(F_ell^2) (x) det^{-m}
(det = 1 on `sl2_generators`, so on SL2 the twist changes no matrix), and
the adjoint-type vanishing sum driven by the exponent data of a root system.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

# the memory budget lives in exact; memory_budget is imported for the benchmark and the tests, which read it here
from .exact import (
    _CHUNK, EchelonState, ResourceLimitError, _check_budget, check_int, check_prime_modulus, diagonal_divisors, factor,
    kernel_mod, matmul_mod, memory_budget, rank_mod, residues
)
from .rootsys import SimpleType, build_root_datum

CLOSURE_CAP = 2_000_000


Matrix = tuple[tuple[int, ...], ...]


class FiniteMatrixGroup:
    """A subgroup of GL_degree(F_ell), given by its reduced invertible generators.

    The closed group is two arrays, built by `_bfs_closure` on the first read
    of either or of order: cayley[g, j] is the label of element g times
    generators[j], labels in breadth-first discovery order with the identity
    0, and tree[k - 1] is the flat Cayley position of the edge that found
    element k.  The build raises ResourceLimitError past CLOSURE_CAP
    elements, and for `sl2_generators` it checks the order ell (ell^2 - 1).
    """

    def __init__(self, ell, degree, generators):
        self.ell, self.degree, self.generators = ell, degree, tuple(generators)

    @cached_property
    def _closure(self):
        cayley, tree = _bfs_closure(self.generators, self.ell)
        n, want = len(cayley), self.ell * (self.ell**2 - 1)
        if self.is_standard_sl2 and n != want:
            raise ArithmeticError(f"SL2(F_{self.ell}) closure has order {n}, want {want}")
        return cayley, tree

    cayley = property(lambda self: self._closure[0])
    tree = property(lambda self: self._closure[1])
    order = property(lambda self: len(self._closure[0]))

    @property
    def is_standard_sl2(self) -> bool:  # SL2(F_ell) by construction; h1 takes the Borel solver on it
        return self.generators == sl2_generators(self.ell)

    def __repr__(self):
        return f"FiniteMatrixGroup(generators={len(self.generators)}, degree={self.degree}, ell={self.ell})"


def _bfs_closure(gens: tuple[Matrix, ...], ell: int):
    """Cayley table and spanning tree of the group that reduced invertible generators span.

    Labels are discovery order (identity first, generators applied in list
    order), which fixes every downstream computation bit-for-bit.  Each BFS
    level times every generator is one batched product, looked up in
    (element, generator) order by the bytes of each product's int64 entries;
    the new elements form the next level.  tree[k - 1] is the flat Cayley
    position g * ng + j of the edge that found element k, the first edge
    into it, so the parents g are non-decreasing and each BFS level is a
    contiguous range of labels.
    """
    degree = len(gens[0])
    frontier, stacked = np.eye(degree, dtype=np.int64)[None], np.array(gens, dtype=np.int64)
    key = np.dtype((np.void, 8 * degree * degree))
    index = {frontier.tobytes(): 0}
    edges, tree = [], []
    while len(frontier):
        prods = matmul_mod(frontier[:, None], stacked, ell).reshape(-1, degree, degree)
        fresh = []
        for pos, prod in enumerate(prods.ravel().view(key).tolist()):
            k = index.get(prod)
            if k is None:
                if len(index) >= CLOSURE_CAP:
                    raise ResourceLimitError(f"group closure exceeded cap={CLOSURE_CAP}")
                k = index[prod] = len(index)
                fresh.append(pos)
                tree.append(len(edges))
            edges.append(k)
        frontier = prods[fresh]
    return np.array(edges, dtype=np.int64).reshape(-1, len(gens)), np.array(tree, dtype=np.int64)


def _square_stack(matrices, ell: int, what: tuple[str, str]) -> np.ndarray:
    """The (k, d, d) residues of k >= 1 d x d matrices, d >= 1; ValueError naming them by `what` = (one, many)."""
    mats = [residues(m, ell) for m in matrices]
    if not mats:
        raise ValueError(f"need at least one {what[0]}")
    if len({m.shape for m in mats}) > 1 or mats[0].ndim != 2 or not 0 < mats[0].shape[0] == mats[0].shape[1]:
        raise ValueError(f"{what[1]} must be nonempty and all square of one shape, got {[m.shape for m in mats]}")
    return np.array(mats)


def _generated(generators, ell: int) -> FiniteMatrixGroup:
    """The unclosed group of a generator list; ValueError for a bad list, entry, shape or modulus."""
    gens = _square_stack(generators, ell, ("generator", "generators"))
    if any(rank_mod(g, ell) < len(g) for g in gens):
        raise ValueError("generators must be invertible")
    return FiniteMatrixGroup(ell, gens.shape[1], (tuple(map(tuple, g)) for g in gens.tolist()))


def close_group(generators, ell: int) -> FiniteMatrixGroup:
    """Breadth-first closure of a generator list inside GL_degree(F_ell), built before it returns."""
    G = _generated(generators, ell)
    G.order  # builds the closure here, so that its errors surface at this call
    return G


def sl2_generators(ell: int) -> tuple[Matrix, Matrix]:
    """The standard unipotent / Weyl pair generating SL2(F_ell)."""
    return ((1, 1), (0, 1)), ((0, 1), (ell - 1, 0))


@lru_cache(maxsize=8)
def sl2_group(ell: int) -> FiniteMatrixGroup:
    """SL2(F_ell) on `sl2_generators(ell)`; its closure, of ell (ell^2 - 1) elements, is built only when read."""
    return _generated(sl2_generators(ell), ell)


@dataclass(frozen=True)
class ModuleAction:
    """A left F_ell[G]-module given by its generator matrices."""

    ell: int
    dim: int
    matrices: tuple[np.ndarray, ...]  # one per generator, dim x dim mod ell
    description: str

    def __repr__(self):
        return f"ModuleAction({self.description}, dim={self.dim}, ell={self.ell})"


def module_from_matrices(ell, matrices, description="explicit") -> ModuleAction:
    """The module with these generator matrices; ValueError for no matrix, a non-integer entry, 0 x 0 or mixed shape."""
    mats = _square_stack(matrices, ell, ("module matrix", "module matrices"))
    return ModuleAction(ell, mats.shape[1], tuple(mats), description)


def sym_module(ell: int, r: int, twist: int, generators=None) -> ModuleAction:
    """Sym^r(F_ell^2) (x) det^{-twist} on binary forms of degree r.

    Basis is X^{r-k} Y^k for k = 0..r; a matrix [[a,b],[c,d]] substitutes
    X -> aX + cY, Y -> bX + dY, which makes g -> matrix a homomorphism.  This
    is a module for every int r >= 0 (irreducible while r < ell).  `check_int`
    refuses any other r and a twist that is not an int, a singular generator is
    a ValueError, and a build over `memory_budget()` a ResourceLimitError.

    Column k of Sym^n(g) is (aX + cY)^(n-k) (bX + dY)^k, so Sym^n comes from
    Sym^(n-1) in one step for all generators at once: every column times
    aX + cY, then the last column times bX + dY appended.  Each entry is
    below 2 (ell - 1)^2 < 2**63 before it is reduced.
    """
    check_int(r, "r", 0)  # a bool would build Sym^1, an np.uint8 255 wrap r + 1
    check_int(twist, "twist")
    g = _square_stack(sl2_generators(ell) if generators is None else generators, ell, ("generator", "generators"))
    if g.shape[1:] != (2, 2):
        raise ValueError(f"Sym^r needs 2 x 2 generator matrices, got shape {g.shape}")
    a, b, c, d = (g[:, i, j, None] for i in (0, 1) for j in (0, 1))
    dets = ((a * d - b * c) % ell).ravel()
    if not dets.all():
        raise ValueError(f"generator {int(np.flatnonzero(dets == 0)[0])} is singular mod {ell}")
    _check_budget(4 * len(g) * (r + 1) ** 2 * 8, f"Sym^{r}")  # S, T and two temporaries
    S = np.ones((len(g), 1, 1), dtype=np.int64)
    for n in range(1, r + 1):
        T = np.zeros((len(g), n + 1, n + 1), dtype=np.int64)
        T[:, :n, :n] = a[..., None] * S
        T[:, 1:, :n] += c[..., None] * S
        T[:, :n, n] = b * S[:, :, -1]
        T[:, 1:, n] += d * S[:, :, -1]
        S = T % ell
    if twist:
        scale = [pow(int(det), -int(twist), ell) for det in dets]
        S = S * np.array(scale)[:, None, None] % ell
    return ModuleAction(ell, r + 1, tuple(S), f"Sym^{r}(x)det^{-twist}")


def module_direct_sum(m1: ModuleAction, m2: ModuleAction) -> ModuleAction:
    if m1.ell != m2.ell or len(m1.matrices) != len(m2.matrices):
        raise ValueError("direct summands need the same ell and the same number of generator matrices")
    dim = m1.dim + m2.dim
    mats = np.zeros((len(m1.matrices), dim, dim), dtype=np.int64)
    mats[:, : m1.dim, : m1.dim], mats[:, m1.dim :, m1.dim :] = m1.matrices, m2.matrices
    return ModuleAction(m1.ell, dim, tuple(mats), f"{m1.description}(+){m2.description}")


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    dim_Z1: int
    dim_B1: int
    h1: int

    def __post_init__(self):
        if self.h1 != self.dim_Z1 - self.dim_B1 or min(self.h0, self.dim_B1, self.h1) < 0:
            raise ArithmeticError(f"inconsistent cohomology dimensions: {self}")

    def to_json_dict(self):
        return asdict(self)


def h0(G: FiniteMatrixGroup, M: ModuleAction) -> int:
    """Dimension of the simultaneous fixed space of the generator action.

    The one check, for `h1` and `h1_naive` too, that M has G's field and one matrix per generator.
    """
    if M.ell != G.ell or len(M.matrices) != len(G.generators):
        raise ValueError("module does not match the group's generator list")
    eye = np.eye(M.dim, dtype=np.int64)
    stacked = np.vstack([m - eye for m in M.matrices]) % M.ell
    return M.dim - rank_mod(stacked, M.ell)


def h1(G: FiniteMatrixGroup, M: ModuleAction) -> CohomologyReport:
    """H^1(G, M), by the Borel solver when G is generated by `sl2_generators`, else the Cayley solver.

    Such a G is SL2(F_ell) by construction, so the choice is exact.  B^1 has
    dimension dim(M) - h^0 either way; the Borel solver returns h1 and the
    Cayley solver dim Z^1, and the report is the same from both.  Each
    solver checks its own memory estimate against `memory_budget()`.
    """
    fixed = h0(G, M)
    dim_B1 = M.dim - fixed
    if G.is_standard_sl2:
        dim_Z1 = _h1_sl2(M) + dim_B1
    else:
        dim_Z1 = _z1_cayley(G, M)
    return CohomologyReport(h0=fixed, dim_Z1=dim_Z1, dim_B1=dim_B1, h1=dim_Z1 - dim_B1)


def _tree_products(G: FiniteMatrixGroup, mats: np.ndarray, ell: int) -> np.ndarray:
    """Each element's product of the affine maps mats[j] = [M_j | E_j] (or M_j alone) along its tree path.

    [A | B] [A' | B'] = [A A' | B + A B'], so the product for g is [rho(g) | C_g].
    Pointer jumping (Wyllie 1979): anc[k] starts as k's parent, and each step, one
    batched product, takes it to anc[anc[k]] until it is 1: ceil(log2 depth) steps.
    word[k] names the map of the path (anc[k], k] in T, and each step multiplies each
    new pair of words once.  Tree paths are shortlex-least words, whose factors are
    tree paths too, so this is one product per element of depth 2 or more in all.
    """
    ng, dim = len(G.generators), mats.shape[1]
    parent, gen = np.divmod(G.tree, ng)  # the tree edge into element k sits at index k - 1
    T = np.concatenate([mats, np.eye(dim, mats.shape[2], dtype=np.int64)[None]])  # word j < ng is s_j, word ng is 1
    anc, word = np.concatenate([[0], parent]), np.concatenate([[ng], gen])
    live = np.flatnonzero(anc)
    while live.size:
        up = anc[live]
        pairs, new = np.unique(word[up] * len(T) + word[live], return_inverse=True)
        a, b = np.divmod(pairs, len(T))
        step = matmul_mod(T[a, :, :dim], T[b], ell)
        step[:, :, dim:] = (step[:, :, dim:] + T[a, :, dim:]) % ell
        word[live] = len(T) + new
        T = np.concatenate([T, step])
        anc[live] = anc[up]
        live = live[anc[live] != 0]
    return T[word]


def _check_module(G: FiniteMatrixGroup, rho: np.ndarray, mats: np.ndarray, g: np.ndarray, j: np.ndarray) -> None:
    """Raise ValueError at the first edge (g[k], j[k]) with rho(g) M_j != rho(g s_j); tree edges hold by construction."""
    bad = np.flatnonzero((matmul_mod(rho[g], mats[j], G.ell) != rho[G.cayley[g, j]]).any(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"not a module: rho(g) M_j != rho(g s_j) at element g={g[bad[0]]}, generator j={j[bad[0]]}")


def _z1_cayley(G: FiniteMatrixGroup, M: ModuleAction) -> int:
    """dim Z^1(G, M) by tree-propagated cocycles.

    phi is encoded by its generator values u = (phi(s_1), ..., phi(s_ng));
    each element g carries the matrix C_g with phi(g) = C_g u, and as
    phi(g s_j) = C_g u + rho(g) E_j u, `_tree_products` of [M_j | E_j] gives
    every [rho(g) | C_g]; each non-tree Cayley edge (g, j) contributes the block
    C_g + rho(g) E_j - C_{g s_j} = 0 of linear constraints.  dim Z^1 is the
    constraint-matrix corank.  The non-tree blocks are gathered by fancy
    indexing, at most 4096 rows per elimination batch.  The budget covers
    n int64 maps [rho(g) | C_g] and six more arrays of their size: the
    jumping table and one step's gathers, factor copies and products.
    """
    n, ng, dim, ell = G.order, len(G.generators), M.dim, G.ell
    ncols = ng * dim
    _check_budget(7 * 8 * n * dim * (ncols + dim) + 64 * n * ng, "cocycle propagation")
    mats = np.array(M.matrices)
    X = _tree_products(G, np.concatenate([mats, np.eye(ncols, dtype=np.int64).reshape(ng, dim, ncols)], axis=2), ell)
    rho, C = X[:, :, :dim], X[:, :, dim:].reshape(n, dim, ng, dim)  # C[g, :, j] multiplies phi(s_j)
    edges = np.setdiff1d(np.arange(n * ng), G.tree, assume_unique=True)
    state = EchelonState(ncols, ell)
    step = max(1, 4096 // dim)
    for start in range(0, len(edges), step):
        g, j = np.divmod(edges[start : start + step], ng)
        _check_module(G, rho, mats, g, j)
        block = C[g] - C[G.cayley[g, j]]
        block[np.arange(len(g)), :, j] += rho[g]
        state.add(np.remainder(block, ell, out=block).reshape(-1, ncols))
    return ncols - state.rank


def _h1_sl2(M: ModuleAction) -> int:
    """dim H^1(SL2(F_ell), M) for M given on `sl2_generators(ell)`, as H^1(U, M)^T.

    U = <u> is cyclic of order ell, so with u -> U a cocycle on U is its value
    v = phi(u), and Z^1(U, M) = V = ker N for N = 1 + U + ... + U^(ell-1)
    (= (U - 1)^(ell-1) mod ell), while B^1(U, M) = im(U - 1).  The torus
    element t = h(a), a a generator of F_ell^x, acts on cocycles by
    (t.phi)(u) = t phi(t^-1 u t) = T (1 + U + ... + U^(c-1)) v = S v, since
    t^-1 u t = u^c with c = a^-2 mod ell.  c comes from the group, not from
    the module: on a module where U = 1 any c would match.  T acts on
    H^1(U, M) through a group of order prime to ell, so its invariants have
    the dimension of its coinvariants:

        h1 = dim V - rank[(S - 1) B_V | U - 1],   B_V a basis of V.

    T is w+(a) W^-1 with w+(a) = U^a W U^(1/a) W^-1 U^a, since w+(1) = W in
    SL2(F_ell).  Both sums and every power come from one `_geometric` call
    and `_check_sl2_presentation` reuses them, so the solver takes O(log ell)
    products and holds a constant number of dim x dim matrices.
    """
    ell, dim = M.ell, M.dim
    _check_budget(64 * dim * dim * 8, "the Borel solver")
    U, W = M.matrices
    a = _primitive_root(ell)
    ai = pow(a, -1, ell)
    (N, Nc, *_), (Ul, _, Ua, Uai, U4, Uh) = _geometric(U, [ell, ai * ai % ell, a, ai, 4, (ell + 1) // 2], ell)
    _check_sl2_presentation(U, W, Ul, U4, Uh, ell)
    Wi = _product(ell, W, W, W)
    S = _product(ell, Ua, W, Uai, Wi, Ua, Wi, Nc)
    V = kernel_mod(N, ell)
    eye = np.eye(dim, dtype=np.int64)
    span = np.hstack([matmul_mod((S - eye) % ell, V, ell), (U - eye) % ell])
    return V.shape[1] - rank_mod(span, ell)


def _geometric(A: np.ndarray, exponents: list[int], ell: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k<n} A^k and A^n for each n in `exponents`, stacked, by binary doubling.

    X stacks the sums S, G = sum_{k<2^i} A^k, the powers P and Q = A^(2^i).
    Bit i takes S to G + Q S and P to Q P where n has that bit, and G, Q to
    G + Q G, Q Q: one batched product per bit of the largest n.
    """
    m, eye = len(exponents), np.eye(len(A), dtype=np.int64)
    X = np.stack([0 * eye] * m + [eye] * (m + 1) + [A])
    for i in range(max(exponents).bit_length()):
        on = [j for j, n in enumerate(exponents) if n >> i & 1]
        rows = on + [m] + [m + 1 + j for j in on] + [-1]
        Y = matmul_mod(X[-1], X[rows], ell)
        Y[: len(on) + 1] = (Y[: len(on) + 1] + X[m]) % ell
        X[rows] = Y
    return X[:m], X[m + 1 : -1]


def _check_sl2_presentation(U, W, Ul, U4, Uh, ell: int) -> None:
    """Raise ValueError naming the first relation that fails; Ul, U4, Uh are U^ell, U^4, U^((ell+1)/2).

    The relations are <x, y | x^ell, y^4, [y^2, x], (xy)^3, (x^4 y x^((ell+1)/2) y)^2 y^2>
    with x -> U, y -> W.  Modulo the central y^2 this is Behr and Mennicke's
    presentation of PSL(2, ell) (Canad. J. Math. 20 (1968) 1432-1438; for
    SL(2, m) see D. Sunday, Canad. J. Math. 24 (1972)), so it defines a group
    of order at most |SL2(F_ell)| that maps onto SL2(F_ell) by
    `sl2_generators(ell)`: SL2(F_ell) itself.  At ell = 2 the last relation
    reads y^2 = 1 given the others, leaving <x, y | x^2, y^2, (xy)^3> = SL2(F_2).
    """
    W2, UW, R = matmul_mod(W, W, ell), matmul_mod(U, W, ell), _product(ell, U4, W, Uh, W)
    eye = np.eye(len(U), dtype=np.int64)
    for relation, lhs, rhs in [
        ("U^ell = 1", Ul, eye),
        ("W^4 = 1", matmul_mod(W2, W2, ell), eye),
        ("W^2 U = U W^2", matmul_mod(W2, U, ell), matmul_mod(U, W2, ell)),
        ("(U W)^3 = 1", _product(ell, UW, UW, UW), eye),
        ("(BM) (U^4 W U^((ell+1)/2) W)^2 W^2 = 1", _product(ell, R, R, W2), eye),
    ]:
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"not a module of SL2(F_{ell}) on sl2_generators({ell}): relation {relation} fails")


def _product(ell: int, *factors: np.ndarray) -> np.ndarray:
    return reduce(lambda p, q: matmul_mod(p, q, ell), factors)


def _primitive_root(ell: int) -> int:
    """The least generator of F_ell^x, for a prime ell."""
    primes = factor(ell - 1).primes()
    return next(g for g in range(1, ell) if all(pow(g, (ell - 1) // q, ell) != 1 for q in primes))


def h1_naive(G: FiniteMatrixGroup, M: ModuleAction) -> CohomologyReport:
    """Oracle solver with one unknown module vector per group element.

    Solves phi(g s) = phi(g) + rho(g) phi(s) over all (element, generator)
    pairs; only usable for small groups, which is what it is for:
    cross-checking both of `h1`'s solvers.  The rows are built and eliminated
    one elimination chunk at a time, the whole elements that fit in
    `exact._CHUNK` rows (or one element), never all at once.
    Element g's unknowns are column block n - 1 - g, newest first, so a tree edge's
    row leads with its child's columns and elimination does not fill in from the generators'.
    """
    fixed = h0(G, M)
    n, ng, dim, ell = G.order, len(G.generators), M.dim, G.ell
    if n * dim > 1500:
        raise ResourceLimitError("naive solver is restricted to |G| * dim <= 1500")
    mats = np.array(M.matrices)
    rho = _tree_products(G, mats, ell)
    _check_module(G, rho, mats, *np.divmod(np.setdiff1d(np.arange(n * ng), G.tree, assume_unique=True), ng))
    state = EchelonState(n * dim, ell)
    step = max(1, _CHUNK // (ng * dim))
    for lo in range(0, n, step):
        # row (g, j, a) is coordinate a of phi(g s_j) - phi(g) - rho(g) phi(s_j), and s_j = 1 * s_j
        g, j, a = np.ix_(range(lo, min(lo + step, n)), range(ng), range(dim))
        rows = np.zeros((len(g), ng, dim, n, dim), dtype=np.int64)
        rows[g - lo, j, a, n - 1 - G.cayley[g, j], a] = 1
        rows[g - lo, j, a, n - 1 - g, a] -= 1
        rows[g - lo, j, :, n - 1 - G.cayley[0, j], :] -= rho[g]
        state.add(np.remainder(rows, ell, out=rows).reshape(-1, n * dim))
    dim_Z1 = n * dim - state.rank
    return CohomologyReport(h0=fixed, dim_Z1=dim_Z1, dim_B1=dim - fixed, h1=dim_Z1 - (dim - fixed))


def _relation_lattice(G: FiniteMatrixGroup) -> list[tuple[int, ...]]:
    """The distinct nonzero rows that span the abelianised relation lattice in ZZ^n_generators.

    Each element carries the signed generator count of its spanning-tree word;
    every non-tree Cayley edge closes a loop, and the loop's count vector is a
    relation of G^ab.  Rows come in Cayley-edge order, each at its first edge.
    """
    ng = len(G.generators)
    words = [[0] * ng]
    for e in G.tree.tolist():  # the word of element k extends its parent's by its tree edge
        words.append(words[e // ng].copy())
        words[-1][e % ng] += 1
    words = np.array(words, dtype=np.int64)
    # edge (g, j) closes the loop words[g] + e_j - words[g s_j], which is 0 on tree edges
    rels = (words[:, None] + np.eye(ng, dtype=np.int64) - words[G.cayley]).reshape(-1, ng)
    return list(dict.fromkeys(map(tuple, rels[rels.any(axis=1)].tolist())))


def h1_trivial_module_rank(G: FiniteMatrixGroup, dim: int = 1) -> int:
    """dim Hom(G^ab (x) F_ell, F_ell^dim), the value of h1 on a trivial module: an oracle for the solvers.

    G^ab (x) F_ell is F_ell^ng modulo one row per divisor d, and that row is zero when ell divides d.
    """
    check_int(dim, "dim", 1)
    divisors = diagonal_divisors(_relation_lattice(G), len(G.generators))
    return (len(G.generators) - sum(d % G.ell != 0 for d in divisors)) * dim


def adjoint_h1_via_kostant(t: SimpleType | str, ell: int) -> int:
    """Sum over exponents m of dim(P_2m) * h1(SL2(F_ell), Sym^{2m}), built as Sym^{2m} (x) det^{-m}: det = 1 on SL2.

    Requires ell >= 2h-1 so the exponent decomposition persists mod ell and
    every summand has 2m < ell.
    """
    check_prime_modulus(ell)
    d = build_root_datum(t)
    bound = 2 * d.coxeter_number - 1
    if ell < bound:
        raise ValueError(
            f"ell={ell} is below 2h-1={bound} for {d.simple_type};"
            " the mod-ell exponent decomposition needs ell >= 2h-1"
        )
    G = sl2_group(ell)
    total = 0
    for m in sorted(set(d.exponents)):
        mult = d.exponents.count(m)
        rep = h1(G, sym_module(ell, 2 * m, m))
        total += mult * rep.h1
    return total
