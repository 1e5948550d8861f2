"""The three benchmark workloads: seeded op plans, op bodies and answer checks.

Every op calls monolab's public functions through ``ctx.call(span, fn, *args)``
so that the traced run can time each call from outside the library.  An op
returns ``(result, check)``: ``result`` is the canonical answer that goes into
the run digest and ``check`` names the check that vouched for it.  A check
that fails raises ``WrongAnswer``; the worker counts that op as failed.

Plans are built from the seed and the run length alone, never from a
measurement, so one seed gives one op list on every commit.  A plan is a list
of target op costs, and each target is filled with a candidate op whose
calibrated cost (``costs.json``) is close to it.  Every seed thus gets the
same cost at every rank, so the metrics read from order statistics (the
median op and the 11th-slowest op) compare across seeds.
"""

from __future__ import annotations

import math
import random

import numpy as np

from monolab import chevalley, fixtures, rootsys
from monolab.chevalley import build_chevalley_algebra, jacobi_sweep
from monolab.exact import det_mod
from monolab.group_cohomology import (
    adjoint_h1_via_kostant,
    close_group,
    h1,
    h1_naive,
    h1_trivial_module_rank,
    memory_budget,
    module_direct_sum,
    module_from_matrices,
    sl2_group,
    sym_module,
)
from monolab.prime_scan import factor, scan_e6_cartan, scan_simple_projections
from monolab.principal_sl2 import build_principal_sl2, kostant_decomposition, sl2_string_family_rows
from monolab.rootsys import build_root_datum
from monolab.selmer_arith import lifting_prime_bounds

WORKLOADS = ("sl2-cohomology", "lie-scan", "small-group-oracle")

# The benchmark's own Lie-theory table: the five exceptional exponent lists.
# Classical exponents come from the formulas in `exponents`; fixtures.EXPONENTS
# is deliberately not used, so that deleting it cannot change the checks.
EXCEPTIONAL_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}

SL2_PRIMES = (7, 11, 13, 17, 19, 23, 29)
ADJOINT_TYPES = ("G2", "F4", "E6")
JACOBI_SAMPLES = 4000
# Candidates slower than this are never drawn.  lie-scan's cap sits just
# above E8's cost, so that more types fit a pass and its tail rank has more
# ops below it.
MAX_OP_COST_S = {"sl2-cohomology": 1.5, "lie-scan": 1.05, "small-group-oracle": 1.5}

# A plan's target costs sweep the candidates' cost range, lo to hi, evenly
# in log cost, so the ops around any rank differ by a steady factor.  Except
# in lie-scan, whose types cannot repeat, two bands of extra targets sit where
# op_p50_s and op_tail_s read their ranks (see banded_targets).  Read from
# many ops spread over the run, those ranks then move with the machine's
# speed over the run, as wall_s does, and not with its speed at one op.  Each
# op is drawn from the candidates within COST_WINDOW of its target, or is the
# nearest candidate when none is that close.
COST_WINDOW = 1.03
TAIL_BAND = 10
# Candidates every plan holds, each in place of the target nearest its cost:
# the five exceptional types carry the paper's reference checks, and SL2(F_7)
# is where ROADMAP item 2 sets its h1_naive target.
ANCHORS = {
    "lie-scan": ["lie/G2", "lie/F4", "lie/E6", "lie/E7", "lie/E8"],
    "small-group-oracle": ["sgo/sl2/7/sym0", "sgo/sl2/7/triv1"],
}
NAIVE_GUARD = 1500  # h1_naive's own |G| * dim limit
TOP_PRIME = 2**31 - 1  # the largest modulus PrimeField and close_group accept


class WrongAnswer(AssertionError):
    """An op's answer failed the check named for it."""


def exponents(type_name: str) -> tuple[int, ...]:
    fam, n = type_name[0], int(type_name[1:])
    if fam == "A":
        return tuple(range(1, n + 1))
    if fam in "BC":
        return tuple(range(1, 2 * n, 2))
    if fam == "D":
        return tuple(sorted([*range(1, 2 * n - 2, 2), n - 1]))
    return EXCEPTIONAL_EXPONENTS[type_name]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; independent of monolab's test."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_primes(start: int, count: int) -> list[int]:
    out, n = [], max(2, start)
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def expect(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# candidates: (cost key, op template); the plan fills in the seeded parameters
# ---------------------------------------------------------------------------


def sl2_candidates():
    out = []
    for ell in SL2_PRIMES:
        for r in range(ell):
            out.append((f"h1/{ell}/{r}", {"kind": "h1", "ell": ell, "r": r}))
        for t in ADJOINT_TYPES:
            if ell >= 2 * (max(exponents(t)) + 1) - 1:
                out.append((f"adjoint/{t}/{ell}", {"kind": "adjoint", "type": t, "ell": ell}))
    return out


LIE_TYPES = (
    [f"A{n}" for n in range(1, 25)]
    + [f"B{n}" for n in range(2, 18)]
    + [f"C{n}" for n in range(3, 17)]
    + [f"D{n}" for n in range(4, 19)]
    + list(EXCEPTIONAL_EXPONENTS)
)


def lie_candidates():
    return [(f"lie/{t}", {"kind": "lie", "type": t}) for t in LIE_TYPES]


def primitive_root(ell: int) -> int:
    if ell == 2:
        return 1
    qs = {p for p in range(2, ell) if (ell - 1) % p == 0 and is_prime(p)}
    return next(a for a in range(2, ell) if all(pow(a, (ell - 1) // q, ell) != 1 for q in qs))


# Small groups by kind; `order` gives |G| from ell.  The cyclic kinds of
# order 2..6 come from SL2(ZZ) and are drawn with ell anywhere up to
# TOP_PRIME; the others use the listed primes.
GROUP_KINDS = {
    "sl2": {"primes": (2, 3, 5, 7), "order": lambda l: l * (l * l - 1)},
    "borel": {"primes": (3, 5, 7, 11, 13), "order": lambda l: l * (l - 1)},
    "unipotent": {"primes": (5, 13, 61, 251), "order": lambda l: l},
    "torus": {"primes": (7, 31, 127), "order": lambda l: l - 1},
    "order2": {"primes": None, "order": lambda l: 2},
    "order3": {"primes": None, "order": lambda l: 3},
    "order4": {"primes": None, "order": lambda l: 4},
    "order6": {"primes": None, "order": lambda l: 6},
}

CYCLIC_GENERATOR = {
    "order2": ((-1, 0), (0, -1)),
    "order3": ((0, -1), (1, -1)),
    "order4": ((0, -1), (1, 0)),
    "order6": ((1, -1), (1, 0)),
}

# ell ranges for the coprime cyclic kinds; "top" reaches TOP_PRIME itself,
# where h1's int64 products overflow (ROADMAP item 2), so that defect stays
# visible as failed ops until it is fixed.
ELL_BANDS = {
    "low": (11, 2**12),
    "mid": (2**12, 2**24),
    "high": (2**24, 2**31 - 2**20),
    "top": (2**31 - 2**20, TOP_PRIME),
}


def module_shapes(max_dim: int, max_r: int):
    """(label, dim) of Sym^r, trivial^d and direct sums, with total dim <= max_dim."""
    shapes = [(f"sym{r}", r + 1) for r in range(min(max_r, 8) + 1)]
    shapes += [(f"triv{d}", d) for d in range(1, 5)]
    shapes += [(f"sym{r}+triv{d}", r + 1 + d) for r in range(1, min(max_r, 4) + 1) for d in (1, 2)]
    shapes += [
        (f"sym{r}+sym{s}", r + s + 2) for r in range(1, min(max_r, 3) + 1) for s in range(r, min(max_r, 3) + 1)
    ]
    return [(label, dim) for label, dim in shapes if dim <= max_dim]


def sgo_candidates():
    out = []
    for kind, spec in GROUP_KINDS.items():
        if spec["primes"] is None:
            for label, dim in module_shapes(min(8, NAIVE_GUARD // spec["order"](0)), 6):
                out.append((f"sgo/{kind}/{label}", {"kind": kind, "module": label, "dim": dim}))
            continue
        for ell in spec["primes"]:
            n = spec["order"](ell)
            for label, dim in module_shapes(NAIVE_GUARD // n, ell - 1):
                out.append((f"sgo/{kind}/{ell}/{label}", {"kind": kind, "ell": ell, "module": label, "dim": dim}))
    return out


CANDIDATES = {
    "sl2-cohomology": sl2_candidates,
    "lie-scan": lie_candidates,
    "small-group-oracle": sgo_candidates,
}


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def build_plan(workload: str, seed: int, seconds: float, costs: dict) -> list[dict]:
    """The seeded op list of one run, sized to `seconds` of calibrated cost.

    Each ANCHORS candidate replaces the target nearest its cost.  lie-scan
    takes, for each other target, the nearest type not yet taken, so its set
    of types is the same for every seed and the seed sets their order and the
    Jacobi samples.  The other workloads draw each op by seed.
    """
    rng = random.Random(f"{workload}/{seed}")
    cap = MAX_OP_COST_S[workload]
    pool = sorted(
        ((costs[key], key, op) for key, op in CANDIDATES[workload]() if costs.get(key, math.inf) <= cap),
        key=lambda c: (c[0], c[1]),
    )
    if not pool:
        raise RuntimeError(f"no calibrated candidates for {workload}; run perfbench/calibrate.py")
    budget = seconds - sum(v for k, v in costs.items() if k.startswith(f"fixed/{workload}/"))
    lo, hi = pool[0][0], pool[-1][0]
    if workload == "lie-scan":
        targets = sweep(min(len(pool), round(budget / mean_cost(lo, hi))), lo, hi)
    else:
        targets = banded_targets(lo, hi, budget)
    chosen = []
    for key in ANCHORS.get(workload, ()):
        anchor = next((c for c in pool if c[1] == key), None)
        if anchor is None:
            raise RuntimeError(f"anchor {key} has no calibrated cost under {cap} s")
        targets.remove(min(targets, key=lambda t: abs(math.log(anchor[0] / t))))
        chosen.append(anchor)
    for target in targets:
        near = sorted(pool, key=lambda c: abs(math.log(c[0] / target)))
        if workload == "lie-scan":
            near = [c for c in near if c not in chosen]  # types never repeat
            width = 1
        else:
            width = max(1, sum(1 for c in near if target / COST_WINDOW <= c[0] <= target * COST_WINDOW))
        chosen.append(near[rng.randrange(width)])
    plan = [instantiate(dict(template), key, rng) for _, key, template in chosen]
    if workload == "small-group-oracle":
        plan += overflow_probes(rng)
    rng.shuffle(plan)
    for i, op in enumerate(plan):
        op["id"] = i
    return plan


def sweep(n: int, lo: float, hi: float) -> list[float]:
    """n target costs from lo to hi, evenly spaced in log cost."""
    return [lo * (hi / lo) ** ((k + 0.5) / n) for k in range(n)]


def mean_cost(lo: float, hi: float) -> float:
    """Mean of costs spread evenly in log cost from lo to hi."""
    return (hi - lo) / math.log(hi / lo)


def banded_targets(lo: float, hi: float, budget: float) -> list[float]:
    """A sweep of n targets plus the median band and the tail band.

    The median band holds 1.5 n targets from mid/2 to 2 mid.  The tail band
    holds TAIL_BAND targets within a factor 1.4 of the sweep's sixth-slowest
    target, where the 11th-slowest op then lies.  n fills the budget.
    """
    mid = math.sqrt(lo * hi)
    n, band = round(budget / (mean_cost(lo, hi) + 1.5 * mid)), []
    for _ in range(20):  # the tail band's cost depends on n
        tail = lo * (hi / lo) ** ((n - 5.5) / n)
        band = sweep(TAIL_BAND, tail / 1.4, tail * 1.4)
        n, last = round((budget - sum(band)) / (mean_cost(lo, hi) + 1.5 * mid)), n
        if n == last:
            break
    return sweep(n, lo, hi) + sweep(round(1.5 * n), mid / 2, mid * 2) + band


def instantiate(op: dict, key: str, rng: random.Random) -> dict:
    op["cost_key"] = key
    if op["kind"] == "h1":
        op["twist"] = rng.randrange(op["ell"] - 1)
    elif op["kind"] == "lie":
        op["jacobi_seed"] = rng.randrange(2**31)
    elif op["kind"] in GROUP_KINDS:
        if "ell" not in op:
            lo, hi = ELL_BANDS[rng.choice(sorted(ELL_BANDS))]
            op["ell"] = TOP_PRIME if hi == TOP_PRIME and rng.random() < 0.5 else random_prime(rng, lo, hi)
        op["twist"] = rng.randrange(4)
    return op


def overflow_probes(rng: random.Random) -> list[dict]:
    """Cyclic-group ops at the top of the ell range the guards accept.

    There h1 and h1_naive multiply int64 arrays past 2^63 (ROADMAP item 2).
    The first probe is the reproduced case, the order-3 group on Sym^6 at
    ell = 2^31 - 1, where both solvers return h1 = -2 and the coprime-order
    value is 0; the rest are seeded.  They are not counted in the run budget.
    """
    probes = [{"kind": "order3", "module": "sym6", "dim": 7, "ell": TOP_PRIME}]
    for _ in range(3):
        r = rng.randrange(4, 7)
        kind = rng.choice(sorted(CYCLIC_GENERATOR))
        probes.append({"kind": kind, "module": f"sym{r}", "dim": r + 1, "ell": random_prime(rng, *ELL_BANDS["top"])})
    return [instantiate(p, f"sgo/{p['kind']}/{p['module']}", rng) for p in probes]


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi], log-uniform in its start point."""
    n = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    while not is_prime(n) or n > hi:
        n = n + 1 if n < hi else lo
    return n


# ---------------------------------------------------------------------------
# op bodies
# ---------------------------------------------------------------------------


def run_op(op: dict, ctx) -> tuple[object, str]:
    return OP_BODIES[op["kind"]](op, ctx)


def op_h1(op, ctx):
    ell, r, twist = op["ell"], op["r"], op["twist"]
    G = ctx.call("group_cohomology.close", sl2_group, ell)
    ctx.first_closure(ell, G)
    M = ctx.call("group_cohomology.module", sym_module, ell, r, twist)
    rep = ctx.call("group_cohomology.h1", h1, G, M)
    ctx.count_h1(G, M, rep)
    # computed truth: H^1 is one-dimensional exactly at r = ell - 3; det is
    # trivial on SL2, so H^0 = 1 exactly at r = 0 for every twist
    expect(rep.h1 == (1 if r == ell - 3 else 0), f"h1={rep.h1} for ell={ell} r={r}")
    expect(rep.h0 == (1 if r == 0 else 0), f"h0={rep.h0} for ell={ell} r={r}")
    return rep.to_json_dict(), "closed-form"


def op_adjoint(op, ctx):
    t, ell = op["type"], op["ell"]
    total = ctx.call("group_cohomology.adjoint", adjoint_h1_via_kostant, t, ell)
    want = sum(1 for m in exponents(t) if 2 * m == ell - 3)
    expect(total == want, f"adjoint total {total} for {t} at ell={ell}, want {want}")
    return {"h1_total": total}, "closed-form"


def op_lie(op, ctx):
    # a CLI call starts with no type cached, and a type's time would depend
    # on the heap that earlier types left cached
    for module in (rootsys, chevalley):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    t = op["type"]
    exps = exponents(t)
    h = max(exps) + 1
    d = ctx.call("rootsys.datum", build_root_datum, t)
    alg = ctx.call("chevalley.build", build_chevalley_algebra, t)
    checked = ctx.call("chevalley.jacobi", jacobi_sweep, alg, None, JACOBI_SAMPLES, op["jacobi_seed"])
    triple = ctx.call("principal_sl2.triple", build_principal_sl2, alg)
    kd = ctx.call("principal_sl2.kostant", kostant_decomposition, alg, triple)
    scans = ctx.call("prime_scan.scan", scan_simple_projections, kd)
    cartan = ctx.call("prime_scan.scan", scan_e6_cartan, kd) if t == "E6" else ()
    coeffs = [c for s in scans for c in s.vector if c] + [c for _, c in cartan]
    coeff_primes = {c: ctx.call("prime_scan.factor", factor, c).primes() for c in coeffs}
    rows = ctx.call("principal_sl2.string_rows", sl2_string_family_rows, kd)
    dets = [ctx.call("exact.det_mod", det_mod, rows, ell) for ell in next_primes(2 * h - 1, 3)]
    bounds = ctx.call("selmer_arith.bounds", lifting_prime_bounds, t)
    if ctx.counters is not None:
        ctx.add("rootsys.positive_roots", len(d.positive_roots))
        ctx.add("chevalley.table_triples", sum(1 for _ in alg.structure_constant_triples()))
        ctx.add("chevalley.jacobi_triples", checked)
        ctx.add("exact.det_mod_calls", len(dets))
        ctx.add("exact.det_mod_dim", len(dets) * len(rows))
        ctx.add("prime_scan.factor_calls", len(coeffs))
        ctx.peak("prime_scan.max_coeff_bits", max(abs(c).bit_length() for c in coeffs))

    expect(d.exponents == exps, f"{t} exponents {d.exponents}, want {exps}")
    expect(d.coxeter_number == h, f"{t} Coxeter number {d.coxeter_number}, want {h}")
    expect(kd.exponents == exps, f"{t} Kostant exponents {kd.exponents}, want {exps}")
    expect(alg.dim == sum(2 * m + 1 for m in exps), f"{t} dim {alg.dim} != sum(2m+1)")
    expect(checked == JACOBI_SAMPLES, f"{t} Jacobi checked {checked} triples")
    expect(all(dets), f"{t} string family degenerates mod {next_primes(2 * h - 1, 3)}")
    expect(bounds.principal_sl2_bound == 4 * h - 1, f"{t} principal bound {bounds.principal_sl2_bound}")
    primes = aggregate_primes(t, scans, cartan, coeff_primes)
    if t in fixtures.OBSTRUCTION_PRIMES:
        want = fixtures.OBSTRUCTION_PRIMES[t]
        expect(primes == want, f"{t} primes {primes}, want {want}")
    elif t == "E8":
        want = fixtures.E8_CANDIDATES[397]
        expect(primes == want, f"E8 primes {primes}, want the list containing 397 and not 367")
    return {
        "exponents": list(d.exponents),
        "coxeter": d.coxeter_number,
        "dim": alg.dim,
        "dets": dets,
        "primes": list(primes),
        "bounds": bounds.to_json_dict(),
    }, "independent"


def aggregate_primes(t, scans, cartan, coeff_primes) -> tuple[int, ...]:
    """The paper's aggregation rule, from the scan coefficients' factorizations.

    E6 reads only the first simple coordinate at exponents 4 and 8 (where the
    outer-automorphism-fixed coordinates vanish in characteristic 0) plus the
    h[1] component of the Cartan scan; every other type takes all nonzero
    coefficients.
    """
    primes = set()
    for s in scans:
        coeffs = [s.vector[0]] if t == "E6" and s.exponent in (4, 8) else [c for c in s.vector if c]
        for c in coeffs:
            primes.update(coeff_primes[c])
    for _, c in cartan:
        primes.update(coeff_primes[c])
    return tuple(sorted(primes))


def small_group(kind: str, ell: int):
    if kind == "sl2":
        gens = [((1, 1), (0, 1)), ((0, 1), (ell - 1, 0))]
    elif kind in ("borel", "torus"):
        a = primitive_root(ell)
        t = ((a, 0), (0, pow(a, -1, ell)))
        gens = [((1, 1), (0, 1)), t] if kind == "borel" else [t]
    elif kind == "unipotent":
        gens = [((1, 1), (0, 1))]
    else:
        gens = [CYCLIC_GENERATOR[kind]]
    return gens


def small_module(label: str, G, twist: int, ctx):
    ell, ng = G.ell, len(G.generators)
    parts = []
    for part in label.split("+"):
        if part.startswith("sym"):
            r = int(part[3:])
            parts.append(("sym", r, ctx.call("group_cohomology.module", sym_module, ell, r, twist, G.generators)))
        else:
            d = int(part[4:])
            eye = [np.eye(d, dtype=np.int64)] * ng
            parts.append(("triv", d, ctx.call("group_cohomology.module", module_from_matrices, ell, eye, "trivial")))
    M = parts[0][2]
    for _, _, extra in parts[1:]:
        M = ctx.call("group_cohomology.module", module_direct_sum, M, extra)
    return M, parts


def op_small_group(op, ctx):
    kind, ell, label = op["kind"], op["ell"], op["module"]
    G = ctx.call("group_cohomology.close", close_group, small_group(kind, ell), ell)
    ctx.first_closure(None, G)
    M, parts = small_module(label, G, op["twist"], ctx)
    streamed = ctx.call("group_cohomology.h1", h1, G, M)
    naive = ctx.call("group_cohomology.h1_naive", h1_naive, G, M)
    ctx.count_h1(G, M, streamed, naive)
    # an independent value exists when every summand has one; h1 is additive
    values, whys = [], set()
    for shape, size, _ in parts:
        if math.gcd(G.order, ell) == 1:
            value, why = 0, "coprime"
        elif shape == "triv":
            value = ctx.call("group_cohomology.abelianization", h1_trivial_module_rank, G, size)
            why = "smith"
        elif kind == "sl2" and ell >= 7:
            value, why = (1 if size == ell - 3 else 0), "closed-form"
        elif kind == "unipotent":
            # u acts on Sym^r (r < ell) as one Jordan block of size r + 1, and
            # H^1 of a cyclic group of order ell is ker(N)/im(u - 1)
            value, why = (1 if size + 1 < ell else 0), "closed-form"
        else:
            value, why = None, "agreement"
        values.append(value)
        whys.add(why)
    want = None if None in values else sum(values)
    check = "agreement" if want is None else "+".join(sorted(whys))
    if want is None:
        expect(streamed == naive, f"streamed {streamed} != naive {naive}")
    else:
        expect(streamed.h1 == want, f"streamed h1={streamed.h1}, want {want}")
        expect(naive.h1 == want, f"naive h1={naive.h1}, want {want}")
    return {"order": G.order, "streamed": streamed.to_json_dict(), "naive": naive.to_json_dict()}, check


OP_BODIES = {"h1": op_h1, "adjoint": op_adjoint, "lie": op_lie}
OP_BODIES.update({kind: op_small_group for kind in GROUP_KINDS})


def h1_counts(G, M, rep, naive=None) -> tuple[dict, int, float]:
    """Exact work counts of one h1 call, from its inputs and its public report.

    est_bytes is computed, not measured: h1's own estimate of its expression
    matrices, n * (dim * ncols + dim^2) * 8 + 64 * n.
    """
    n, ng, dim = G.order, len(G.generators), M.dim
    ncols = ng * dim
    nontree = n * ng - (n - 1)
    out = {
        "group_cohomology.nontree_edges": nontree,
        "group_cohomology.constraint_rows": nontree * dim,
        "group_cohomology.constraint_cols": ncols,
        "group_cohomology.rank": ncols - rep.dim_Z1,
    }
    if naive is not None:
        out["group_cohomology.naive_rows"] = n * ng * dim
        out["group_cohomology.naive_cols"] = n * dim
        out["group_cohomology.naive_rank"] = n * dim - naive.dim_Z1
    est = n * (dim * ncols + dim * dim) * 8 + 64 * n
    return out, est, est / memory_budget()
