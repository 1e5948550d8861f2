"""The reference acceptance matrix: every conformance criterion in one place.

Each criterion is a generator that yields one (ok, detail) pair per check it
reports, in report order; `CRITERIA` names them.  `verify_paper` runs them
(optionally restricted) and is the one place a verdict is formed: a
criterion passes when every check it yielded passes, and one that raises
ArithmeticError is a FAIL whose one detail is the error.  The same
`verify_paper` backs the test suite and the `verify-paper` CLI subcommand,
so there is a single source of truth for what "conforms" means.

Criterion `cohomology-vanishing` pins the classical H^1 pattern exactly:
h1(SL2(F_ell), Sym^r) is 1 at r = ell - 3 and 0 at every other even r < ell,
and each adjoint sum equals the number of exponents m with 2m = ell - 3
(Andersen-Jorgensen-Landrock 1983; Cline-Parshall-Scott 1975).  Pinning the
nonzero value as well is what lets it catch a solver that returns 0
everywhere.  The modules are built as Sym^r (x) det^{-r/2}, but det = 1 on
`sl2_generators`, so on SL2 the twist changes no matrix
(tests/test_group_cohomology.py::test_det_twist_trivial_on_sl2) until a GL2
group is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import fixtures
from .chevalley import build_chevalley_algebra, diagram_involution, jacobi_sweep
from .exact import det_mod, is_prime
from .group_cohomology import (
    adjoint_h1_via_kostant,
    close_group,
    h0,
    h1,
    h1_naive,
    module_from_matrices,
    sl2_generators,
    sl2_group,
    sym_module,
)
from .principal_sl2 import (
    build_principal_sl2,
    principal_kostant,
    sl2_string_family_rows,
    sl2_string_lengths_ok,
)
from .prime_scan import build_report, check_against_reference
from .rootsys import EXCEPTIONAL_TYPES, build_root_datum
from .selmer_arith import LocalCondition, SelmerLedger, lifting_prime_bounds, oddness_deficit, wiles_difference


@dataclass
class CriterionResult:
    name: str
    ok: bool
    details: list
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.1f}s)"


def _next_primes(start: int, count: int):
    out = []
    n = max(2, start)
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


# --- criterion 1 -----------------------------------------------------------


def crit_prime_lists():
    for t in ("G2", "F4", "E7", "E6"):
        rep = build_report(t)
        ok, want, _ = check_against_reference(rep)
        yield ok, f"{t}: scan {list(rep.bad_primes)} vs reference {list(want)} -> {'ok' if ok else 'MISMATCH'}"


# --- criterion 2 -----------------------------------------------------------


def crit_e8_adjudication():
    rep = build_report("E8")
    ok, expected, note = check_against_reference(rep)
    yield ok, f"E8 scan: {list(rep.bad_primes)}"
    yield ok, f"adjudication: {rep.e8_adjudication} ({note})"
    if not ok:
        yield False, f"neither candidate matched; closest reference {list(expected)}"


# --- criterion 3 -----------------------------------------------------------


def crit_kostant_structure():
    # principal_kostant raises ArithmeticError, which verify_paper reports as
    # FAIL, unless ker ad X has dimension #{m : 2m = w} at every weight w (so
    # dim P = rank), each eigenvector has eigenvalue 2m and P is abelian;
    # build_root_datum raises unless sum(2m+1) = dim g.  No constructor checks
    # the string lengths, nor that each p_i is primitive (content 1), which a
    # rescaled p_i would break while every relation above still held.
    for t in EXCEPTIONAL_TYPES:
        kd = principal_kostant(t)
        fails = [] if sl2_string_lengths_ok(kd) else ["strings of length 2m+1"]
        fails += [f"p of exponent {m} has content {c}" for m, p in kd.pairs if (c := gcd(*p.coeffs.values())) != 1]
        yield not fails, f"{t}: {'FAIL ' + ', '.join(fails) if fails else 'ok'}"


# --- criterion 4 -----------------------------------------------------------


def _sl2_relations_ok(alg) -> bool:
    try:  # the constructor raises ArithmeticError if a relation fails
        build_principal_sl2(alg)
    except ArithmeticError:
        return False
    return True


def crit_sl2_relations():
    for t in EXCEPTIONAL_TYPES:
        d = build_root_datum(t)
        h = d.coxeter_number
        algZ = build_chevalley_algebra(t)
        rel_ok = _sl2_relations_ok(algZ)
        primes = _next_primes(h, 1) + _next_primes(h + 2, 1)
        mod_ok = all(_sl2_relations_ok(algZ.mod(ell)) for ell in primes)
        # the largest prime below h must be rejected
        below = [p for p in range(2, h) if is_prime(p)]
        reject_ok = True
        if below:
            try:
                build_principal_sl2(algZ.mod(below[-1]))
                reject_ok = False
            except ValueError:
                pass
        yield rel_ok and mod_ok and reject_ok, (
            f"{t}: ZZ relations {'ok' if rel_ok else 'FAIL'},"
            f" mod-ell {'ok' if mod_ok else 'FAIL'},"
            f" reject ell<h {'ok' if reject_ok else 'FAIL'}"
        )


# --- criterion 5 -----------------------------------------------------------


def crit_structure_constants():
    for t in EXCEPTIONAL_TYPES:
        try:
            n = jacobi_sweep(build_chevalley_algebra(t))
        except ArithmeticError as exc:
            yield False, f"{t}: exhaustive Jacobi FAIL: {exc}"
        else:
            yield True, f"{t}: exhaustive Jacobi on {n} triples ok"
    for t in EXCEPTIONAL_TYPES:
        alg = build_chevalley_algebra(t)
        num_pos, norm2 = alg.basis.num_pos, alg.datum.norm2
        # [x_a, x_b] = n x_s for roots a, b, s = a+b; with q the up-length of the a-string through b,
        # N^2 = q (p+1) (s,s)/(b,b) (Carter, Simple Groups of Lie Type, 4.1) and |N| = p+1 give |N| (b,b) = q (s,s)
        a, b, s, n = alg.entries[:, (alg.entries[:3] < 2 * num_pos).all(0)]
        q = alg.datum.string_depth((a + num_pos) % (2 * num_pos), b)
        bad = int((abs(n) * norm2[b] != q * norm2[s]).sum())
        yield bad == 0, (
            f"{t}: |N_ab|(b,b) = q(a+b,a+b) exhaustive over {len(n)} pairs"
            f" -> {'ok' if bad == 0 else f'{bad} violations'}"
        )


# --- criterion 6 -----------------------------------------------------------


def _oracle_fixture_groups():
    """Groups of order <= 200 with small modules, for solver cross-checks."""
    out = []
    g3 = sl2_group(3)  # order 24
    out.append((g3, sym_module(3, 2, 1)))
    out.append((g3, module_from_matrices(3, [[[1]], [[1]]], "trivial")))
    g5 = sl2_group(5)  # order 120
    out.append((g5, sym_module(5, 2, 1)))
    out.append((g5, sym_module(5, 4, 2)))
    c7 = close_group([((1, 1), (0, 1))], 7)  # cyclic of order 7
    out.append((c7, sym_module(7, 1, 0, generators=c7.generators)))
    out.append((c7, module_from_matrices(7, [[[1]]], "trivial")))
    t13 = close_group([((2, 0), (0, 7))], 13)  # split torus, order 12
    out.append((t13, sym_module(13, 2, 1, generators=t13.generators)))
    return out


CROSS_CHECK_PRIMES = (7, 11, 13)


def crit_cohomology_vanishing():
    """h1(SL2(F_ell), Sym^r) is [r = ell-3] for every even r < ell.

    The adjoint sum over the principal-sl2 exponents m therefore counts the
    exponents with 2m = ell-3.  The twist det^{-r/2} changes no matrix (det = 1
    on `sl2_generators`).  h1 takes its Borel solver on sl2_group; at ell in
    CROSS_CHECK_PRIMES every swept module is also solved by the Cayley solver,
    on SL2(F_ell) closed from the generators in swapped order.
    """
    cross_cases, cross_bad = 0, []
    for ell in (7, 11, 13, 17, 19, 23, 29):
        G = sl2_group(ell)
        swapped = close_group(sl2_generators(ell)[::-1], ell) if ell in CROSS_CHECK_PRIMES else None
        got = {}
        for r in range(0, ell, 2):
            M = sym_module(ell, r, r // 2)
            rep = h1(G, M)
            if rep.h1 != 0:
                got[r] = rep.h1
            if swapped is not None:
                cross_cases += 1
                if h1(swapped, module_from_matrices(ell, M.matrices[::-1], M.description)) != rep:
                    cross_bad.append((ell, r))
        want = {ell - 3: 1}
        ok = got == want
        yield ok, f"ell={ell}: even r < ell, nonzero h1 expected {want}, computed {got} -> {'ok' if ok else 'MISMATCH'}"
    for t, ell in (("G2", 13), ("F4", 29), ("E6", 29)):
        hits = [m for m in build_root_datum(t).exponents if 2 * m == ell - 3]
        got = adjoint_h1_via_kostant(t, ell)
        ok = got == len(hits)
        yield ok, (
            f"{t} adjoint at ell={ell}: expected {len(hits)} (exponents m with"
            f" 2m = ell-3: {hits}), computed {got} -> {'ok' if ok else 'MISMATCH'}"
        )
    oracle_ok = True
    fixture_groups = _oracle_fixture_groups()
    for G, M in fixture_groups:
        a, b = h1(G, M), h1_naive(G, M)
        if a != b:
            oracle_ok = False
            yield False, f"oracle mismatch: |G|={G.order} {M.description}: {a} vs {b}"
    yield oracle_ok, (
        f"streamed-vs-naive oracle equivalence on {len(fixture_groups)} fixture groups of order <= 200:"
        f" {'ok' if oracle_ok else 'FAIL'}"
    )
    yield not cross_bad, (
        f"Borel-vs-Cayley cross-check on {cross_cases} modules (every even r < ell at ell in"
        f" {CROSS_CHECK_PRIMES}, Cayley solver on the swapped generators):"
        f" {'ok' if not cross_bad else f'FAIL at (ell, r) {cross_bad}'}"
    )
    # the last two lines say which solver ran where and what is checked
    # elsewhere; they report no check of their own
    yield True, (
        "solvers: the r sweep and the adjoint totals ran the Borel solver (restriction to U x| T);"
        " the Cayley cocycle solver ran on the swapped-generator cross-check and on the fixture"
        " groups not generated by sl2_generators; the naive whole-group oracle ran only on the"
        " fixture groups of order <= 200"
    )
    yield True, (
        "the r = ell-3 class is not certified here; its explicit non-coboundary cocycle is"
        " checked on every group-element pair by"
        " tests/test_group_cohomology.py::test_certified_nonvanishing_at_ell_minus_3"
    )


# --- criterion 7 -----------------------------------------------------------


def _ledgers(alg, arch: int, h0_g: int) -> list[SelmerLedger]:
    """g's ledgers of degree k = 1..3: dim_n = N, k places of dimension arch, h0 = h0(1) = h0_g, ordinary surplus k N."""
    n, places = len(alg.datum.positive_roots), (LocalCondition("steinberg", 0), LocalCondition("minimal", 1))
    return [SelmerLedger(h0_g, h0_g, n, k, (arch,) * k, (LocalCondition("ordinary", 0, k), *places)) for k in (1, 2, 3)]


def crit_selmer_identities():
    """g's ledgers balance when complex conjugation acts on g as an odd involution, and only then.

    theta acts by (-1)^ht on x_alpha and by 1 on the Cartan, so dim g^theta = N + #{even exponents},
    N exactly when -1 is in W; composed with the diagram involution sigma it is odd, dim g^(sigma theta)
    = N (B. Gross, "Odd Galois representations").  So the ledgers with dim g^(sigma theta) must balance
    on every type, and those with dim g^theta exactly when -1 is in W.
    """
    for t in EXCEPTIONAL_TYPES:
        alg = build_chevalley_algebra(t)
        d, n = alg.datum, len(alg.datum.positive_roots)
        theta = np.r_[1 - 2 * (d.heights % 2), np.ones(d.rank, dtype=np.int64)]
        perm, sign = diagram_involution(alg)
        moved = perm != np.arange(alg.dim)  # sigma theta fixes its +1 fixed points and one vector per 2-cycle
        fixed, odd = int((theta == 1).sum()), int((~moved & (sign * theta == 1)).sum() + moved.sum() // 2)
        even = sum(m % 2 == 0 for m in d.exponents)
        ok = fixed == n + even and (fixed == n) == d.weyl_has_minus_one
        yield ok, (
            f"{t}: dim g^theta = {fixed}, N + #even exponents = {n} + {even},"
            f" -1 {'in' if d.weyl_has_minus_one else 'not in'} W -> {'ok' if ok else 'MISMATCH'}"
        )
        ell = _next_primes((bound := lifting_prime_bounds(t).principal_sl2_bound) + 1, 1)[0]
        h0_g = sum(h0(sl2_group(ell), sym_module(ell, 2 * m, m)) for m in d.exponents)
        leds = [_ledgers(alg, arch, h0_g) for arch in (odd, fixed)]
        vals, theta_vals = ([(wiles_difference(x), oddness_deficit(x)) for x in led] for led in leds)
        ok = vals == [(0, 0)] * 3 and (theta_vals == [(0, 0)] * 3) == d.weyl_has_minus_one
        led = leds[0][0]  # the entries printed are the ledgers' own
        yield ok, (
            f"{t}: ledgers k = 1..3: dim_n = N = {led.dim_n} (root datum), k archimedean places of dim g^(sigma theta)"
            f" = {led.archimedean_fixed_dims[0]} (sigma {'outer' if moved.any() else 'the identity'}), h0 = h0(1) ="
            f" {led.h0_global} over the Kostant summands Sym^2m at ell = {ell}, the first prime > 4h-1 = {bound} (det = 1"
            f" on SL2: h0(1) is h0 until a GL2 group is built); (wiles_difference, oddness_deficit) {vals}, with"
            f" dim g^theta instead {theta_vals} -> {'ok' if ok else 'MISMATCH'}"
        )


# --- criterion 8 -----------------------------------------------------------


def crit_bounds_and_persistence():
    b = lifting_prime_bounds("E6").principal_sl2_bound
    yield b == 47, f"E6 principal bound: {b} (want 47) -> {'ok' if b == 47 else 'FAIL'}"
    for t in EXCEPTIONAL_TYPES:
        kd = principal_kostant(t)
        alg = kd.triple.algebra
        rows = sl2_string_family_rows(kd)
        h = alg.datum.coxeter_number
        primes = _next_primes(2 * h - 1, 3)
        # det != 0 mod ell keeps the family a basis of g: integral persistence for ell >= 2h-1
        good = len(rows) == alg.dim and all(det_mod(rows, ell) for ell in primes)
        yield good, f"{t}: string family stays a basis mod {primes} -> {'ok' if good else 'FAIL'}"


CRITERIA = (
    ("prime-lists", crit_prime_lists),
    ("e8-adjudication", crit_e8_adjudication),
    ("kostant-structure", crit_kostant_structure),
    ("sl2-relations", crit_sl2_relations),
    ("structure-constants", crit_structure_constants),
    ("cohomology-vanishing", crit_cohomology_vanishing),
    ("selmer-identities", crit_selmer_identities),
    ("bounds-and-persistence", crit_bounds_and_persistence),
)


def verify_paper(only=None) -> list[CriterionResult]:
    """Run the acceptance matrix in fixed criterion order, or the criteria named in `only`, a nonempty list.

    A criterion passes when every (ok, detail) pair it yields is ok; one that
    raises ArithmeticError FAILs with the error as its one detail.
    """
    fixtures.assert_data_file_sync()
    if only is not None:
        if not isinstance(only, (list, tuple, set, frozenset)) or not only:  # a str reads as letters, [] as no check
            raise ValueError(f"only takes a nonempty list of criterion names, got {only!r}")
        unknown = set(only) - {n for n, _ in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    selected = [(n, f) for n, f in CRITERIA if only is None or n in only]

    results = []
    for name, criterion in selected:
        t0 = time.time()
        try:
            checks = list(criterion())
        except ArithmeticError as exc:
            checks = [(False, f"{type(exc).__name__}: {exc}")]
        ok = all(passed for passed, _ in checks)
        results.append(CriterionResult(name, ok, [detail for _, detail in checks], time.time() - t0))
    return results
