"""Exact integer bookkeeping for Selmer-style dimension formulas.

The ledger is declarative input: it lists global invariant dimensions, the
local condition at each place with its cataloged tangent-space dimension, and
the archimedean fixed-space dimensions.  Everything here is exact integer
arithmetic in those quantities; no attempt is made to validate that the
numbers are realizable by an actual representation.

Local tangent-space dimension catalog (dim_n denotes the dimension of the
nilpotent radical of a Borel, equal to the number of positive roots):

    ordinary      h0 + [F_v:Q_ell] * dim_n
    ramakrishna   h0
    steinberg     h0
    minimal       h0
    unramified    h0
    archimedean   0
    custom        explicit override

An archimedean place may be declared in `archimedean_fixed_dims` or as an
`archimedean` local condition; the difference formula reads both the same.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .fixtures import E8_CANDIDATES
from .rootsys import SimpleType, build_root_datum

SCHEMA_VERSION = 1

KINDS = ("ordinary", "ramakrishna", "steinberg", "minimal", "archimedean", "unramified", "custom")
GLOBAL_DIMS = ("h0_global", "h0_global_twist", "dim_n", "totally_real_degree")


def _check_dims(**dims) -> None:
    """Raise ValueError unless every named dimension is an int (not a bool) >= 0."""
    for name, d in dims.items():
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"{name} must be an int, got {d!r}")
        if d < 0:
            raise ValueError(f"negative dimensions are not meaningful: {name} = {d}")


def _required(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} is missing the key {key!r}")
    return doc[key]


def _check_keys(doc: dict, cls, where: str, *extra: str) -> None:
    """Raise ValueError naming a key of doc outside the fields of cls and extra: a misspelt key reads as its default."""
    stray = [key for key in doc if key not in {*extra, *(f.name for f in fields(cls))}]
    if stray:
        raise ValueError(f"{where} has the unknown key {stray[0]!r}")


@dataclass(frozen=True)
class LocalCondition:
    kind: str
    h0_local: int
    field_degree: int = 0  # degree over Q_ell; read only for kind="ordinary"
    custom_dim: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown local condition kind {self.kind!r}")
        if (self.custom_dim is None) == (self.kind == "custom"):
            raise ValueError("custom_dim is required exactly when kind='custom'")
        _check_dims(h0_local=self.h0_local, field_degree=self.field_degree)
        if self.field_degree and self.kind != "ordinary":
            raise ValueError(f"field_degree is read only when kind='ordinary', got it on kind={self.kind!r}")
        if self.custom_dim is not None:
            _check_dims(custom_dim=self.custom_dim)


def local_dim(c: LocalCondition, dim_n: int) -> int:
    """Tangent-space dimension of a local condition, per the catalog."""
    _check_dims(dim_n=dim_n)
    if c.kind == "ordinary":
        return c.h0_local + c.field_degree * dim_n
    if c.kind == "archimedean":
        return 0
    if c.kind == "custom":
        return c.custom_dim
    # ramakrishna, steinberg, minimal, unramified all have dim L = h0
    return c.h0_local


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
        n_arch = len(self.all_archimedean_dims())
        if n_arch != self.totally_real_degree:
            raise ValueError(
                f"a totally real field of degree {self.totally_real_degree} needs as many"
                f" archimedean entries, found {n_arch}"
            )

    # archimedean h0 values regardless of which slot they were declared in
    def all_archimedean_dims(self) -> tuple[int, ...]:
        extra = tuple(c.h0_local for c in self.locals if c.kind == "archimedean")
        return tuple(self.archimedean_fixed_dims) + extra

    @staticmethod
    def from_json_dict(doc) -> "SelmerLedger":
        """The ledger of a parsed JSON document; ValueError naming a missing or unknown key or a bad shape."""
        if not isinstance(doc, dict):
            raise ValueError(f"a ledger must be a JSON object, got {type(doc).__name__}")
        version = doc.get("schema_version")
        if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported ledger schema_version {version!r}, expected {SCHEMA_VERSION}")
        _check_keys(doc, SelmerLedger, "ledger", "schema_version")
        arch, locs = doc.get("archimedean_fixed_dims", []), doc.get("locals", [])
        if not isinstance(arch, list):
            raise ValueError(f"archimedean_fixed_dims must be a list of ints, got {arch!r}")
        if not isinstance(locs, list):
            raise ValueError(f"locals must be a list of objects, got {locs!r}")
        for i, c in enumerate(locs):
            if not isinstance(c, dict):
                raise ValueError(f"local condition {i} must be an object, got {c!r}")
            _check_keys(c, LocalCondition, f"local condition {i}")
        conds = tuple(
            LocalCondition(
                kind=_required(c, "kind", f"local condition {i}"),
                h0_local=_required(c, "h0_local", f"local condition {i}"),
                field_degree=c.get("field_degree", 0),
                custom_dim=c.get("custom_dim"),
            )
            for i, c in enumerate(locs)
        )
        dims = {key: _required(doc, key, "ledger") for key in GLOBAL_DIMS}
        return SelmerLedger(**dims, archimedean_fixed_dims=tuple(arch), locals=conds)

    @staticmethod
    def from_json(text: str) -> "SelmerLedger":
        try:
            doc = json.loads(text)
        except RecursionError:  # the parser recurses once per level of [ or {
            raise ValueError("ledger JSON nested too deeply to parse") from None
        return SelmerLedger.from_json_dict(doc)


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
    return sum(ledger.all_archimedean_dims()) - ledger.totally_real_degree * ledger.dim_n


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
