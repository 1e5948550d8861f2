"""The principal sl2 triple and the centralizer decomposition of the adjoint.

X is the sum of the simple positive root vectors, H the sum of all positive
coroots (= 2 rho^vee), and Y the unique combination of simple negative root
vectors making (X, H, Y) satisfy

    [X, H] = 2X,    [Y, H] = -2Y,    [Y, X] = H.

The centralizer P of X is abelian of dimension equal to the rank, and H acts
on it with eigenvalues {2m : m an exponent} (Kostant, Amer. J. Math. 81,
1959).  `kostant_decomposition` finds P in one pass over the H-grading of g
(twice `RootDatum.heights` on root vectors, 0 on the Cartan): at every weight
w it takes the integer kernel of ad(X): g_w -> g_{w+2}, a block of the one
matrix `ChevalleyAlgebra.ad(X)`, and checks that its dimension is the number
of exponents m with 2m = w.  The eigenvectors come back as primitive integer
vectors in a deterministic order.  Each p_i of exponent m_i spans the string
ad(Y)^k p_i, k <= 2 m_i, of the Kostant summand V_{2 m_i};
`KostantDecomposition.strings` builds every string once, and
`principal_kostant` one ZZ decomposition per parsed simple type, shared by the
scan, verify-paper and the CLI.  H comes from `RootDatum.coroots`; no root
string is walked here (the roots come from simple reflections, and
`RootDatum.string_depth(u, v)`, run on the pairs asked, is the one walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .chevalley import ChevalleyAlgebra, LieElement, brackets, build_chevalley_algebra
from .exact import integer_kernel
from .rootsys import RootDatum, SimpleType, per_type


def principal_coefficients(d: RootDatum) -> tuple[int, ...]:
    """Coefficients c with sum_{a>0} H_a = sum_i c_i H_{alpha_i}, read off `RootDatum.coroots`.

    The pairing sum_i c_i <alpha_j, H_i> = 2 for every j is the x_j coefficient of [X, H] = 2X, which
    `build_principal_sl2` checks through `relations_hold` before it returns a triple; over ZZ it pins
    c = 2 rho^vee, a positive vector.
    """
    return tuple(d.coroots[: len(d.positive_roots)].sum(0).tolist())


@dataclass(frozen=True)
class Sl2Triple:
    """A principal sl2 inside a Chevalley algebra."""

    algebra: ChevalleyAlgebra
    X: LieElement
    H: LieElement
    Y: LieElement
    c: tuple[int, ...]


def build_principal_sl2(alg: ChevalleyAlgebra) -> Sl2Triple:
    """Construct (X, H, Y); relations are verified exactly (ArithmeticError if they fail).

    Over F_ell the construction requires ell >= h (Coxeter number); smaller
    primes are rejected because the triple need not exist integrally there.
    """
    d = alg.datum
    h = d.coxeter_number
    if alg.ell is not None and alg.ell < h:
        raise ValueError(
            f"prime {alg.ell} below the Coxeter bound h={h} for {d.simple_type};"
            " the principal sl2 is only defined for ell >= h"
        )
    c = principal_coefficients(d)
    X = alg.element({i: 1 for i in range(d.rank)})
    H = alg.element({2 * alg.num_pos + i: c[i] for i in range(d.rank)})
    Y = alg.element({alg.num_pos + i: c[i] for i in range(d.rank)})
    triple = Sl2Triple(alg, X, H, Y, c)
    if not relations_hold(triple):
        raise ArithmeticError("[X,H] = 2X, [Y,H] = -2Y, [Y,X] = H fail")
    return triple


def relations_hold(triple: Sl2Triple) -> bool:
    """Whether [X, H] = 2X, [Y, H] = -2Y and [Y, X] = H hold exactly."""
    X, H, Y = triple.X, triple.H, triple.Y
    return brackets([(X, H), (Y, H), (Y, X)]) == [X.scale(2), Y.scale(-2), H]


def _graded_kernel(ad_x, grading: dict, w: int) -> list[tuple[int, ...]]:
    """Primitive integer kernel of ad(X): g_w -> g_{w+2}, in coordinates on the basis of g_w.

    `ad_x` is `ChevalleyAlgebra.ad(X)`; `grading` maps each weight to its basis indices in increasing order.
    """
    src, dst = grading[w], grading.get(w + 2, [])
    return integer_kernel(ad_x[dst][:, src], len(src))


@dataclass(frozen=True)
class KostantDecomposition:
    """H-eigenbasis of the centralizer of X, keyed by the exponents."""

    triple: Sl2Triple
    pairs: tuple  # ((m_i, p_i: LieElement over ZZ), ...) sorted by m_i

    @property
    def exponents(self):
        return tuple(m for m, _ in self.pairs)

    @cached_property
    def strings(self) -> tuple[tuple[LieElement, ...], ...]:
        """Per pair (m, p): (ad(Y)^k p for k = 0..2m+1); built on first read from the columns of one ad(Y)."""
        alg, out = self.triple.algebra, []
        ad_y = alg.ad(self.triple.Y).T  # ad_y[j]: the coordinates of [Y, e_j]
        col = [list(zip(r.nonzero()[0].tolist(), r[r != 0].tolist())) for r in ad_y]  # its nonzero (k, c)
        for m, p in self.pairs:
            string = [p]
            for _ in range(2 * m + 1):
                acc: dict = {}
                for j, v in string[-1].coeffs.items():
                    for k, c in col[j]:
                        acc[k] = acc.get(k, 0) + v * c  # Python ints: E8's strings reach 474 bits
                string.append(LieElement(alg, alg._clean(acc)))
            out.append(tuple(string))
        return tuple(out)

    def to_json_dict(self) -> dict:
        alg = self.triple.algebra
        return {
            "simple_type": str(alg.datum.simple_type),
            "exponents": list(self.exponents),
            "principal_coefficients": list(self.triple.c),
            "eigenvectors": [
                {
                    "exponent": m,
                    "coords": {alg.basis_label(k): str(v) for k, v in sorted(p.coeffs.items())},
                }
                for m, p in self.pairs
            ],
        }


def kostant_decomposition(alg: ChevalleyAlgebra, triple: Sl2Triple) -> KostantDecomposition:
    """Primitive H-eigenvectors p_i of the centralizer of X, [p_i, H] = 2 m_i p_i, in one graded pass.

    The basis is grouped by H-weight, twice the height on root vectors and 0
    on the Cartan.  ad(X) raises the weight by 2, so ker ad(X) is the sum of
    its graded pieces; at every weight w the piece must have dimension
    #{exponents m : 2m = w} (ArithmeticError naming w otherwise), which is
    the one check that dim ker ad(X) = rank.  Kernel vectors are primitive
    with positive leading coordinate; repeated exponents (type D_{2n}) get the
    echelon basis of their graded kernel, in deterministic order.  One batch
    of `brackets` then checks that every p_i is an H-eigenvector and that the
    p_i commute pairwise.
    """
    if alg.ell is not None:
        raise ValueError("the decomposition is computed on the ZZ form")
    d = alg.datum
    grading: dict = {}
    for k, w in enumerate([2 * h for h in d.heights.tolist()] + [0] * d.rank):
        grading.setdefault(w, []).append(k)
    pairs, ad_x = [], alg.ad(triple.X)
    for w in sorted(grading):
        vecs = _graded_kernel(ad_x, grading, w)
        mult = sum(2 * m == w for m in d.exponents)
        if len(vecs) != mult:
            raise ArithmeticError(f"weight {w}: ker ad X has dimension {len(vecs)}, expected {mult}")
        pairs += [(w // 2, alg.element({k: v for k, v in zip(grading[w], vec) if v})) for vec in vecs]
    # one batch: [p, H] for every p, then [p, q] for every p before q (the bracket is alternating)
    ps = [p for _, p in pairs]
    got = brackets([(p, triple.H) for p in ps] + [(p, q) for i, p in enumerate(ps) for q in ps[i + 1 :]])
    for (m, p), pH in zip(pairs, got):
        if pH != p.scale(2 * m):
            raise ArithmeticError(f"weight {2 * m}: kernel vector is not an H-eigenvector")
    if pairs[0][0] != 1 or pairs[0][1] != triple.X:
        raise ArithmeticError("p_1 must be X itself")
    if any(not pq.is_zero() for pq in got[len(pairs) :]):
        raise ArithmeticError("centralizer of X is not abelian: structure bug")
    return KostantDecomposition(triple, tuple(pairs))


@per_type
def principal_kostant(t: SimpleType) -> KostantDecomposition:
    """The Kostant decomposition of the ZZ form of a simple type."""
    alg = build_chevalley_algebra(t)
    return kostant_decomposition(alg, build_principal_sl2(alg))


def sl2_string_lengths_ok(kd: KostantDecomposition) -> bool:
    """Each p_i generates a string ad(Y)^k(p_i) != 0 for k <= 2m_i, then 0."""
    return all(
        not any(v.is_zero() for v in string[:-1]) and string[-1].is_zero() for string in kd.strings
    )


def sl2_string_family_rows(kd: KostantDecomposition) -> list[dict[int, int]]:
    """The family {ad(Y)^k p_i : 0 <= k <= 2m_i} as sparse rows {column: coefficient}, each a fresh dict."""
    return [dict(v.coeffs) for string in kd.strings for v in string[:-1]]
