"""Exact integer bookkeeping for Selmer-style dimension formulas.

A ledger lists global invariant dimensions, the local condition at each finite
place with its cataloged tangent-space dimension, and the archimedean
fixed-space dimensions.  Criterion 7 (`verify._ledgers`) builds g's ledgers
from the root datum, the diagram involution and h0; everything here is exact
integer arithmetic in those quantities.

Local tangent-space dimension catalog (dim_n denotes the dimension of the
nilpotent radical of a Borel, equal to the number of positive roots):

    ordinary      h0 + [F_v:Q_ell] * dim_n
    steinberg     h0
    minimal       h0
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .exact import check_int
from .fixtures import E8_CANDIDATES
from .rootsys import SimpleType, build_root_datum

KINDS = ("ordinary", "steinberg", "minimal")
GLOBAL_DIMS = ("h0_global", "h0_global_twist", "dim_n", "totally_real_degree")


def _check_dims(**dims) -> None:
    """`check_int` on every named dimension, with the lower bound 0."""
    for name, d in dims.items():
        check_int(d, name, 0)


@dataclass(frozen=True)
class LocalCondition:
    kind: str
    h0_local: int
    field_degree: int = 0  # degree over Q_ell; read only for kind="ordinary"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown local condition kind {self.kind!r}")
        _check_dims(h0_local=self.h0_local, field_degree=self.field_degree)
        if self.field_degree and self.kind != "ordinary":
            raise ValueError(f"field_degree is read only when kind='ordinary', got it on kind={self.kind!r}")


def local_dim(c: LocalCondition, dim_n: int) -> int:
    """Tangent-space dimension of a local condition, per the catalog."""
    _check_dims(dim_n=dim_n)
    return c.h0_local + c.field_degree * dim_n  # field_degree is 0 off the ordinary kind


@dataclass(frozen=True)
class SelmerLedger:
    h0_global: int
    h0_global_twist: int
    dim_n: int
    totally_real_degree: int
    archimedean_fixed_dims: tuple[int, ...] = ()
    locals: tuple[LocalCondition, ...] = ()

    def __post_init__(self):
        _check_dims(**{key: getattr(self, key) for key in GLOBAL_DIMS})
        _check_dims(**{f"archimedean_fixed_dims[{i}]": d for i, d in enumerate(self.archimedean_fixed_dims)})
        for i in [i for i, c in enumerate(self.locals) if not isinstance(c, LocalCondition)][:1]:
            raise ValueError(f"locals[{i}] is not a LocalCondition: {self.locals[i]!r}")
        if len(self.archimedean_fixed_dims) != self.totally_real_degree:
            raise ValueError(
                f"a totally real field of degree {self.totally_real_degree} needs as many"
                f" archimedean entries, found {len(self.archimedean_fixed_dims)}"
            )


def wiles_difference(ledger: SelmerLedger) -> int:
    """h^1_P - h^1_{P-perp} as the global difference formula evaluates it:

    h0 - h0(1) + sum over all places (dim L_v - h0_v), with archimedean
    places contributing (0 - h0_v) inside the sum.
    """
    total = ledger.h0_global - ledger.h0_global_twist
    for c in ledger.locals:
        total += local_dim(c, ledger.dim_n) - c.h0_local
    for d in ledger.archimedean_fixed_dims:
        total += 0 - d
    return total


def oddness_deficit(ledger: SelmerLedger) -> int:
    """sum of archimedean fixed dims minus [F:Q] * dim_n.

    Zero exactly when every archimedean involution is split Cartan; positive
    whenever some fixed space is larger, which kills the balance.
    """
    return sum(ledger.archimedean_fixed_dims) - ledger.totally_real_degree * ledger.dim_n


@dataclass(frozen=True)
class PrimeBounds:
    simple_type: str
    maximal_image_bound: int  # usable primes must satisfy ell > this
    principal_sl2_bound: int  # usable primes must satisfy ell > this
    e8_exclusions: dict = field(default_factory=dict)

    def to_json_dict(self):
        return asdict(self)


def bound_formulas(z: int, h: int) -> tuple[int, int]:
    """(maximal_image_bound, principal_sl2_bound) of `lifting_prime_bounds` from the center order z and Coxeter number h."""
    return 1 + max(8 * z, (h - 1) * z if z % 2 == 0 else (2 * h - 2) * z), 4 * h - 1


def lifting_prime_bounds(t: SimpleType | str) -> PrimeBounds:
    """Prime thresholds of the two lifting settings for one simple type.

    maximal_image_bound: ell - 1 must exceed max(8z, (h-1)z) for even z, or
    max(8z, (2h-2)z) for odd z, z = 1 + #{i : theta_i = 1} the simply-connected
    center order, read off the highest root theta (one plus the number of
    minuscule coweights; Bourbaki, Lie Groups and Lie Algebras, ch. VI).
    principal_sl2_bound: 4h - 1 (through the dual Coxeter number for E6, which
    agrees as E6 is simply laced).  The E8 exclusions are "certain", the primes
    common to both candidate lists that exceed the principal-sl2 bound, and
    "disputed", the unresolved 367-vs-397 pair that the prime scan adjudicates.
    """
    d = build_root_datum(t)
    name, (maximal, principal) = str(d.simple_type), bound_formulas(1 + d.highest_root.count(1), d.coxeter_number)
    shared = set.intersection(*map(set, E8_CANDIDATES.values()))
    exclusions = {"certain": sorted(p for p in shared if p > principal), "disputed": sorted(E8_CANDIDATES)}
    return PrimeBounds(
        simple_type=name,
        maximal_image_bound=maximal,
        principal_sl2_bound=principal,
        e8_exclusions=exclusions if name == "E8" else {},
    )
