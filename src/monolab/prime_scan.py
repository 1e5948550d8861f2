"""Obstruction-prime scan over the negative simple root spaces.

For each exponent m with primitive eigenvector p in the centralizer of X, the
element ad(Y)^{m+1}(p) lands in the span of the y_alpha for simple alpha (it
sits two weight steps below the zero weight space).  The scan reads it from
the Kostant string `kd.strings`, records its integer coordinates there,
factors every nonzero one with `exact.factor`, and aggregates the primes.
`char0_zeros` derives the zeros in characteristic zero from the diagram
involution; E6 has them at exponents 4 and 8, so its aggregation also reads
the first dual Cartan component of ad(Y)^m(p), its x_1-coefficient (row x_1
of ad(x_1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chevalley import diagram_involution
from .exact import factor
from .fixtures import E8_CANDIDATES, OBSTRUCTION_PRIMES
from .principal_sl2 import KostantDecomposition, principal_kostant
from .rootsys import SimpleType, per_type


@dataclass(frozen=True)
class ExponentScan:
    exponent: int
    vector: tuple[int, ...]  # coefficient of y_alpha_i, i = 0..rank-1
    zero_in_char_zero: frozenset


@dataclass(frozen=True)
class PrimeScanReport:
    simple_type: str
    per_exponent: tuple[ExponentScan, ...]
    e6_cartan_scan: tuple[tuple[int, int], ...]  # (exponent, h[1]-component)
    bad_primes: tuple[int, ...]
    informational: bool = False
    e8_adjudication: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "simple_type": self.simple_type,
            "per_exponent": [
                {
                    "exponent": s.exponent,
                    "vector": [str(c) for c in s.vector],
                    "zero_in_char_zero": sorted(s.zero_in_char_zero),
                }
                for s in self.per_exponent
            ],
            "e6_cartan_scan": [
                {"exponent": m, "h1_component": str(c)} for m, c in self.e6_cartan_scan
            ],
            "bad_primes": list(self.bad_primes),
            "informational": self.informational,
            "e8_adjudication": self.e8_adjudication,
        }


def scan_simple_projections(kd: KostantDecomposition) -> tuple[ExponentScan, ...]:
    """ad(Y)^{m_i+1}(p_i) coordinates on the negative simple root spaces.

    Raises ArithmeticError if any scan element has support outside those
    spaces; that cannot happen for a correct bracket table, so a leak is a
    bug signal rather than input error.
    """
    alg = kd.triple.algebra
    rank = alg.datum.rank
    simple_y = {alg.num_pos + i: i for i in range(rank)}
    out = []
    for m, string in zip(kd.exponents, kd.strings):
        v = string[m + 1]
        bad = [k for k in v.coeffs if k not in simple_y]
        if bad:
            raise ArithmeticError(
                f"scan element for exponent {m} leaks outside the simple spaces: {bad}"
            )
        vec = [0] * rank
        for k, c in v.coeffs.items():
            vec[simple_y[k]] = c
        out.append(
            ExponentScan(
                exponent=m,
                vector=tuple(vec),
                zero_in_char_zero=frozenset(i for i, c in enumerate(vec) if c == 0),
            )
        )
    return tuple(out)


def scan_e6_cartan(kd: KostantDecomposition) -> tuple[tuple[int, int], ...]:
    """For every exponent m, the h[1] dual-basis component of ad(Y)^m(p).

    Only defined in type E6, where alpha_1 is a simple root not fixed by the
    outer diagram automorphism.  ad(Y)^m(p) lies in the Cartan, and by the
    definition [x_1, h[j]] = delta_1j x_1 its h[1] component is the coefficient
    of x_1 in [x_1, ad(Y)^m(p)], read with row x_1 of ad(x_1) and summed in
    Python ints.
    """
    alg = kd.triple.algebra
    if str(alg.datum.simple_type) != "E6":
        raise ValueError("the Cartan scan is specific to type E6")
    row, out = alg.ad(alg.element({0: 1}))[0].tolist(), []  # x_1 is basis vector 0
    for m, string in zip(kd.exponents, kd.strings):
        v = string[m]
        nonc = [k for k in v.coeffs if k < 2 * alg.num_pos]
        if nonc:
            raise ArithmeticError(f"ad(Y)^{m}(p) has non-Cartan support: {nonc}")
        out.append((m, sum(row[k] * c for k, c in v.coeffs.items())))
    return tuple(out)


def char0_zeros(kd: KostantDecomposition) -> tuple[frozenset, ...]:
    """Per pair (m, p) of kd, the simple roots where ad(Y)^{m+1}(p) vanishes in characteristic 0.

    `diagram_involution` fixes X and Y, so sigma p = +p or -p (ArithmeticError
    otherwise).  Where sigma p = -p, ad(Y)^{m+1}(p) is odd under sigma and
    vanishes on the y_i that sigma fixes; elsewhere no zero is expected.
    """
    alg, out = kd.triple.algebra, []
    perm, sign = diagram_involution(alg)
    fixed = frozenset(i for i in range(alg.datum.rank) if perm[alg.num_pos + i] == alg.num_pos + i)
    for m, p in kd.pairs:
        image = {int(perm[k]): int(sign[k]) * c for k, c in p.coeffs.items()}
        if image not in (p.coeffs, {k: -c for k, c in p.coeffs.items()}):
            raise ArithmeticError(f"sigma maps the eigenvector of exponent {m} to neither p nor -p")
        out.append(frozenset() if image == p.coeffs else fixed)
    return tuple(out)


@per_type
def build_report(t: SimpleType) -> PrimeScanReport:
    """Full scan pipeline for one simple type.

    The primes are those of every nonzero scan coefficient (and, in E6, of
    every Cartan component).  Exceptional types must show exactly the char-0
    zeros that `char0_zeros` derives; any other simple type is scanned for
    information only, with no zero pattern asserted.
    """
    kd = principal_kostant(t)
    name = str(t)
    scans = scan_simple_projections(kd)
    cartan = scan_e6_cartan(kd) if name == "E6" else ()
    primes: set[int] = set()
    for s, want in zip(scans, char0_zeros(kd)):
        if t.is_exceptional and s.zero_in_char_zero != want:
            raise ArithmeticError(
                f"{name} exponent {s.exponent}: char-0 zeros at {sorted(s.zero_in_char_zero)},"
                f" expected exactly {sorted(want)}"
            )
        primes.update(p for c in s.vector if c for p in factor(c).primes())
    for _, comp in cartan:
        if comp == 0:
            raise ArithmeticError("E6 Cartan scan hit a zero h[1]-component")
        primes.update(factor(comp).primes())
    adjudication = {}
    if name == "E8":
        adjudication = {
            "disputed_pair": sorted(E8_CANDIDATES),
            "present": sorted(set(E8_CANDIDATES) & primes),
            "absent": sorted(set(E8_CANDIDATES) - primes),
        }
    return PrimeScanReport(
        name, scans, cartan, tuple(sorted(primes)), not t.is_exceptional, adjudication
    )


def check_against_reference(report: PrimeScanReport):
    """Compare a scan report with the bundled reference lists.

    Returns (ok, expected, note).  For E8 a report matching either candidate
    list passes, and the note says which one the computation certifies.  A
    type that no bundled list covers raises ValueError.
    """
    name = report.simple_type
    if name in OBSTRUCTION_PRIMES:
        expected = OBSTRUCTION_PRIMES[name]
        return report.bad_primes == expected, expected, ""
    if name != "E8":
        raise ValueError(f"no reference list for {name}")
    for disputed, cand in sorted(E8_CANDIDATES.items()):
        if report.bad_primes == cand:
            other = ({367, 397} - {disputed}).pop()
            return True, cand, f"matches the candidate containing {disputed}, not {other}"
    return False, E8_CANDIDATES[397], "matches neither E8 candidate list"
