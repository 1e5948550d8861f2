"""Acceptance matrix: one test per criterion, one printed line per criterion, and one table of mutations.

Every target value and tolerance is pinned here exactly as specified; nothing
is deferred or loosened.  Criterion 6 asserts the exact pattern
h1(SL2(F_ell), Sym^r (x) det^{-r/2}) = [r = ell - 3] over all even r < ell,
nonzero value included (that class is certified by an explicit cocycle in the
unit suite), and adjoint sums equal to the number of exponents m with
2m = ell - 3.  Every result is read through `verify_paper`, the one place a
verdict is formed; stub criteria show that one failing check fails the whole
criterion and that an ArithmeticError after a check becomes the one FAIL line.

The negative controls are the rows of MUTATIONS, row `x` run by test_x.  A
row replaces one library function by a mutant and names each criterion that
`verify-paper --only` must then FAIL, with exactly the detail lines that
differ from a passing run; every criterion has a row.  A survivor names none:
every criterion still passes on it, and `caught_by` says what will catch it.
"""

import dataclasses
import functools
import io
import json
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from conftest import flipped_algebra, run_optimized

from monolab import chevalley, prime_scan, principal_sl2, verify
from monolab.cli import EXIT_MISMATCH, EXIT_OK, main
from monolab.fixtures import E8_CANDIDATES
from monolab.group_cohomology import CohomologyReport, sl2_generators


def report(result, budget_s=None):
    print()
    print(result.line())
    for d in result.details:
        print("   ", d)
    if budget_s is not None:
        assert result.elapsed <= budget_s, f"runtime budget {budget_s}s exceeded"
    assert result.ok, f"criterion {result.name} failed; see printed details"


def run(name):
    """The result of the one named criterion, as verify_paper forms it."""
    (res,) = verify.verify_paper(only=[name])
    return res


def test_verdict_fails_on_any_failing_check(monkeypatch):
    def stub():
        yield True, "a"
        yield False, "b"
        yield True, "c"

    monkeypatch.setattr(verify, "CRITERIA", (("stub", stub),))
    res = run("stub")
    assert res.ok is False and res.details == ["a", "b", "c"]


def test_verdict_of_a_raising_criterion_is_the_error_alone(monkeypatch):
    def stub():
        yield True, "a"
        raise ArithmeticError("weight 0: ker ad X has dimension 1, expected 0")

    monkeypatch.setattr(verify, "CRITERIA", (("stub", stub),))
    res = run("stub")
    assert res.ok is False
    assert res.details == ["ArithmeticError: weight 0: ker ad X has dimension 1, expected 0"]


def test_only_that_selects_nothing_is_rejected(monkeypatch):
    # a bare str would run its letters as names, an empty list no check at all, and a generator
    # only the names that the first membership tests leave: each would read as a pass
    monkeypatch.setattr(verify, "CRITERIA", (("stub", lambda: iter([(True, "a")])),))
    for only in ("stub", [], (), (name for name in ["stub"])):
        with pytest.raises(ValueError, match=re.escape(f"only takes a nonempty list of criterion names, got {only!r}")):
            verify.verify_paper(only=only)
    with pytest.raises(ValueError, match=r"^unknown criteria: \['stu'\]$"):
        verify.verify_paper(only=["stu"])
    assert [r.name for r in verify.verify_paper(only=("stub",))] == ["stub"]


@dataclasses.dataclass(frozen=True)
class Mutation:
    name: str  # run by test_<name>
    target: tuple  # (module, name) of the one library function replaced
    mutant: object  # mutant(real, *args), handed the real function
    fails: dict = dataclasses.field(default_factory=dict)  # criterion -> the detail lines that differ from a pass
    optimized: bool = False  # run under python -O, where an assert-based check would pass
    also: object = lambda: None  # one more check under the mutation
    caught_by: str = ""  # for a survivor: what will make a criterion FAIL on it


def where(cond, change):
    """A mutant: change(the real result) on the calls whose arguments satisfy cond, the real result on the others."""
    return lambda real, *args, **kw: change(real(*args, **kw)) if cond(*args) else real(*args, **kw)


def typed(*types):
    """cond: the first argument names one of the types, or is an algebra or a Kostant decomposition of one."""
    def cond(x, *_):
        alg = x.triple.algebra if hasattr(x, "triple") else x
        return (alg if isinstance(alg, str) else str(alg.datum.simple_type)) in types
    return cond


def swept_h1(cond, value):
    """A verify.h1 mutant: h1 = value(h1) where cond(G, M) on a swept group; the oracle fixtures have order <= 200."""
    return where(lambda G, M: G.order > 200 and cond(G, M),
                 lambda rep: CohomologyReport(rep.h0, rep.dim_B1 + value(rep.h1), rep.dim_B1, value(rep.h1)))


def top_times(q):
    """The top eigenvector p of a Kostant decomposition, a highest root vector, times q."""
    return lambda kd: dataclasses.replace(kd, pairs=(*kd.pairs[:-1], (kd.pairs[-1][0], kd.pairs[-1][1].scale(q))))


def plus(bound, by):
    return lambda b: dataclasses.replace(b, **{bound: getattr(b, bound) + by})


def extra_at_zero(real, ad_x, grading, w):
    """A _graded_kernel mutant: one extra kernel vector at weight 0, where no exponent lives."""
    vecs = real(ad_x, grading, w)
    return vecs + [(1,) + (0,) * (len(grading[w]) - 1)] if w == 0 else vecs


TYPES = ("G2", "F4", "E6", "E7", "E8")
C1, C2, C3, C4, C5, C6, C7, C8 = (name for name, _ in verify.CRITERIA)  # criterion n is Cn
WEIGHT_0 = "weight 0: ker ad X has dimension 1, expected 0"
G2_FAIL = "G2: exhaustive Jacobi FAIL: Jacobi fails on basis triple (0, 1, 3): {5: 6}"
KOSTANT, H1, BOUNDS = (principal_sl2, "kostant_decomposition"), (verify, "h1"), (verify, "lifting_prime_bounds")
TABLE, FAMILY, LEDGERS = (verify, "build_chevalley_algebra"), (verify, "sl2_string_family_rows"), (verify, "_ledgers")


def each_ledger(change):
    """change(ledger) on each of the degree 1..3 ledgers that `verify._ledgers` builds."""
    return lambda ledgers: [change(x) for x in ledgers]


def ledger_line(t, n, arch, h0, ell, bound, odd_vals, theta_vals, verdict="ok"):
    """Criterion 7's ledger line for type t."""
    return (f"{t}: ledgers k = 1..3: dim_n = N = {n} (root datum), k archimedean places of dim g^(sigma theta) = {arch},"
            f" h0 = h0(1) = {h0} over the Kostant summands Sym^2m at ell = {ell}, the first prime > 4h-1 = {bound}"
            f" (det = 1 on SL2: h0(1) is h0 until a GL2 group is built); (wiles_difference, oddness_deficit)"
            f" {odd_vals}, with dim g^theta instead {theta_vals} -> {verdict}")

MUTATIONS = (
    # criterion 6's adjoint sums assume g = sum of V_{2m} under the principal sl2
    Mutation("criterion_3_reports_broken_strings", (verify, "sl2_string_lengths_ok"), lambda real, kd: False,
             {C3: [f"{t}: FAIL strings of length 2m+1" for t in TYPES]}),
    Mutation("criterion_3_reports_extra_centralizer_vector", (principal_sl2, "_graded_kernel"), extra_at_zero,
             {C3: [f"ArithmeticError: {WEIGHT_0}"]},
             also=lambda: pytest.raises(ArithmeticError, principal_sl2.principal_kostant, "G2").match(WEIGHT_0)),
    Mutation("criterion_3_rejects_eigenvectors_times_2", KOSTANT, where(typed(*TYPES), top_times(2)),
             {C3: [f"{t}: FAIL p of exponent {m} has content 2" for t, m in zip(TYPES, (5, 11, 11, 17, 29))]}),
    Mutation("criterion_3_rejects_e8_eigenvector_times_5", KOSTANT, where(typed("E8"), top_times(5)),
             {C3: ["E8: FAIL p of exponent 29 has content 5"]}),
    Mutation("criterion_3_rejects_e8_eigenvector_times_397", KOSTANT, where(typed("E8"), top_times(397)),
             {C3: ["E8: FAIL p of exponent 29 has content 397"]}),
    Mutation("criterion_1_rejects_g2_eigenvector_times_7", KOSTANT, where(typed("G2"), top_times(7)),
             {C1: ["G2: scan [2, 3, 5, 7] vs reference [2, 3, 5] -> MISMATCH"],
              C3: ["G2: FAIL p of exponent 5 has content 7"]}),
    Mutation("criterion_2_rejects_e8_eigenvector_times_367", KOSTANT, where(typed("E8"), top_times(367)),
             {C2: [f"E8 scan: {sorted({*E8_CANDIDATES[397], 367})}",
                   "adjudication: {'disputed_pair': [367, 397], 'present': [367, 397], 'absent': []}"
                   " (matches neither E8 candidate list)",
                   f"neither candidate matched; closest reference {list(E8_CANDIDATES[397])}"],
              C3: ["E8: FAIL p of exponent 29 has content 367"]}),
    # the constructor's relations check is the one check; the criterion reports FAIL lines instead of raising
    Mutation("criterion_4_reports_broken_relations", (principal_sl2, "relations_hold"), lambda real, triple: False,
             {C4: [f"{t}: ZZ relations FAIL, mod-ell FAIL, reject ell<h ok" for t in TYPES]}),
    # one antisymmetric pair of G2 sign-flipped, on a copy of the table: only the Jacobi identity can see it
    Mutation("criterion_5_reports_broken_table", TABLE, where(typed("G2"), lambda alg: flipped_algebra("G2")),
             {C5: [G2_FAIL]}),
    Mutation("criterion_5_reports_broken_table_under_optimize", TABLE,
             where(typed("G2"), lambda alg: flipped_algebra("G2")), {C5: [G2_FAIL]}, optimized=True),
    # one G2 root pair's constant doubled in both orders: antisymmetry holds, |N| is no longer q (a+b,a+b)/(b,b)
    Mutation("criterion_5_reports_magnitude_violations", TABLE, where(typed("G2"), lambda alg: flipped_algebra("G2", 2)),
             {C5: ["G2: exhaustive Jacobi FAIL: Jacobi fails on basis triple (0, 1, 3): {5: -3}",
                   "G2: |N_ab|(b,b) = q(a+b,a+b) exhaustive over 60 pairs -> 2 violations"]}),
    Mutation("criterion_6_rejects_all_zero_pattern", H1, swept_h1(lambda G, M: True, lambda h: 0),
             {C6: [f"ell={ell}: even r < ell, nonzero h1 expected {{{ell - 3}: 1}}, computed {{}} -> MISMATCH"
                   for ell in (7, 11, 13, 17, 19, 23, 29)]}),
    Mutation("criterion_6_rejects_spurious_nonzero", H1, swept_h1(lambda G, M: (M.ell, M.dim) == (11, 5), lambda h: h + 1),
             {C6: ["ell=11: even r < ell, nonzero h1 expected {8: 1}, computed {4: 1, 8: 1} -> MISMATCH"]}),
    Mutation("criterion_6_rejects_wrong_adjoint_total", (verify, "adjoint_h1_via_kostant"), lambda real, t, ell: 0,
             {C6: ["G2 adjoint at ell=13: expected 1 (exponents m with 2m = ell-3: [5]), computed 0 -> MISMATCH"]}),
    # the Cayley solver on the swapped generators skewed at r = 4 only
    Mutation("criterion_6_rejects_borel_cayley_disagreement", H1,
             swept_h1(lambda G, M: G.generators != sl2_generators(G.ell) and M.dim == 5, lambda h: h + 1),
             {C6: ["Borel-vs-Cayley cross-check on 17 modules (every even r < ell at ell in (7, 11, 13), Cayley"
                   " solver on the swapped generators): FAIL at (ell, r) [(7, 4), (11, 4), (13, 4)]"]}),
    # sigma the identity: theta alone fixes 38 dimensions of E6, not N = 36
    Mutation("criterion_7_rejects_e6_without_sigma", (verify, "diagram_involution"),
             lambda real, alg: (np.arange(alg.dim), np.ones(alg.dim, dtype=np.int64)),
             {C7: [ledger_line("E6", 36, "38 (sigma the identity)", 0, 53, 47, [(-2, 2), (-4, 4), (-6, 6)],
                               [(-2, 2), (-4, 4), (-6, 6)], "MISMATCH")]}),
    # sigma's sign on E6's highest root vector (index 35, fixed by sigma) flipped past the map's check: both readers see it
    Mutation("criteria_1_and_7_reject_a_sigma_sign_past_the_map_check", (chevalley, "_signed_map"),
             where(typed("E6"), lambda m: (m[0], m[1] * np.where(np.arange(len(m[1])) == 35, -1, 1))),
             {C1: ["ArithmeticError: E6 exponent 11: char-0 zeros at [], expected exactly [1, 3]"],
              C7: [ledger_line("E6", 36, "37 (sigma outer)", 0, 53, 47, [(-1, 1), (-2, 2), (-3, 3)],
                               [(-2, 2), (-4, 4), (-6, 6)], "MISMATCH")]}),
    # G2's ledgers with archimedean dimension N + 1 = 7, not dim g^(sigma theta)
    Mutation("criterion_7_rejects_a_ledger_that_is_not_odd", LEDGERS,
             where(typed("G2"), each_ledger(lambda x: dataclasses.replace(x, archimedean_fixed_dims=(7,) * x.totally_real_degree))),
             {C7: [ledger_line("G2", 6, "7 (sigma the identity)", 0, 29, 23, [(-1, 1), (-2, 2), (-3, 3)],
                               [(-1, 1), (-2, 2), (-3, 3)], "MISMATCH")]}),
    Mutation("criterion_8_rejects_a_string_family_row_times_59", FAMILY,
             where(typed("E8"), lambda rows: [{k: 59 * c for k, c in rows[0].items()}, *rows[1:]]),
             {C8: ["E8: string family stays a basis mod [59, 61, 67] -> FAIL"]}),
    Mutation("criterion_8_rejects_e6_principal_bound_plus_2", BOUNDS, where(typed("E6"), plus("principal_sl2_bound", 2)),
             {C8: ["E6 principal bound: 49 (want 47) -> FAIL"]}),
    # survivors: every criterion still passes, and caught_by names what will make one FAIL
    Mutation("survivor_367_flip", (verify, "build_report"),
             where(typed("E8"), lambda r: dataclasses.replace(r, bad_primes=tuple(sorted({*r.bad_primes} ^ {367, 397})))),
             caught_by="ROADMAP item 12, a second, mod-p route to the obstruction primes"),
    Mutation("survivor_e8_family_row_times_1009", FAMILY,
             where(typed("E8"), lambda rows: [{k: 1009 * c for k, c in rows[0].items()}, *rows[1:]]),
             caught_by="ROADMAP item 15, criterion 8 naming every prime where the family stops being a basis"),
    Mutation("survivor_twist_forced_to_0", (verify, "sym_module"), lambda real, ell, r, twist, **kw: real(ell, r, 0, **kw),
             caught_by="ROADMAP item 18, H^1 over GL2(F_ell), where det is not 1"),
    Mutation("survivor_both_h0_entries_plus_1", LEDGERS,
             where(typed(*TYPES), each_ledger(lambda x: dataclasses.replace(x, h0_global=x.h0_global + 1,
                                                                           h0_global_twist=x.h0_global_twist + 1))),
             caught_by="nothing: wiles_difference reads only h0 - h0(1); ROADMAP item 18 makes them differ"),
    Mutation("survivor_maximal_image_bound_plus_100", BOUNDS, where(typed(*TYPES), plus("maximal_image_bound", 100)),
             caught_by="nothing: declared data that no criterion reads"),
    Mutation("survivor_principal_bound_plus_2_but_e6", BOUNDS,
             where(typed("G2", "F4", "E7", "E8"), plus("principal_sl2_bound", 2)),
             caught_by="nothing: criterion 7 reads it only to take h0 at the first prime above it, where h0 is 0"),
)


@pytest.fixture(scope="module")
def passing():
    """Each criterion's detail lines on the unmutated library."""
    return {r.name: r.details for r in verify.verify_paper()}


def verify_under(row, mp):
    """Exit code, stderr and JSON document of `verify-paper --only <each criterion in row.fails>` under the mutant."""
    module, name = row.target
    mp.setattr(module, name, functools.partial(row.mutant, getattr(module, name)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify-paper", *(arg for c in row.fails for arg in ("--only", c))])
    return code, err.getvalue(), json.loads(out.getvalue())


def _control(row):
    def test(mutant, passing):
        if row.optimized:  # a fresh process: no patch or cache to undo
            code = f"import json, pytest, test_acceptance as t\nrow = t.MUTATIONS[{MUTATIONS.index(row)}]\n"
            code += "print(json.dumps(t.verify_under(row, pytest.MonkeyPatch())))"
            status, err, doc = json.loads(run_optimized(code))
        else:
            status, err, doc = verify_under(row, mutant)
            row.also()
        if not row.fails:  # a survivor: with no --only, every criterion ran, and passed
            assert status == EXIT_OK and len(doc["criteria"]) == len(verify.CRITERIA), f"{row.name} is caught now"
            return
        assert status == EXIT_MISMATCH and all(f"FAIL {c} (" in err for c in row.fails)
        changed = {c["name"]: [d for d in c["details"] if d not in passing[c["name"]]] for c in doc["criteria"]}
        assert changed == row.fails

    return test


for _row in MUTATIONS:
    globals()[f"test_{_row.name}"] = _control(_row)


def test_every_criterion_has_a_mutation_that_fails_it():
    assert {name for name, _ in verify.CRITERIA} <= {c for row in MUTATIONS for c in row.fails}


def test_criterion_1_prime_list_reproduction():
    # G2 {2,3,5}; F4 {2,3,5,7,11}; E7 {...53}; E6 {2,3,5,7,11}; exact equality
    report(run("prime-lists"), budget_s=10)


def test_criterion_2_e8_adjudication():
    # must match one of the two candidate lists exactly and flag which
    report(run("e8-adjudication"), budget_s=60)


def test_criterion_3_kostant_structure():
    # strings of length 2m+1 and primitive p_i on all five types; principal_kostant raises, and so fails the
    # criterion, unless dim ker ad X = #{m : 2m = w} at every weight w (so dim P = rank), the eigenvalues
    # are 2m and P is abelian, and build_root_datum raises unless sum(2m+1) = dim g
    report(run("kostant-structure"), budget_s=30)


def test_criterion_4_sl2_relations():
    # exact relations over ZZ and sampled F_ell; constructor rejects ell < h
    report(run("sl2-relations"))


def test_criterion_5_structure_constant_integrity():
    # Jacobi on every basis triple and the p+1 magnitude rule on every root
    # pair, for all five exceptional types
    report(run("structure-constants"), budget_s=10)


def test_criterion_6_cohomology_vanishing():
    # asserted: h1 = 1 at r = ell-3 and 0 at every other even r < ell
    # (ell in {7,...,29}); adjoint sums (G2,13) = 1 since 2*5 = 13-3,
    # (F4,29) = 0 and (E6,29) = 0
    report(run("cohomology-vanishing"), budget_s=300)


def test_criterion_7_selmer_identities():
    res = run("selmer-identities")
    report(res, budget_s=1)
    assert "E6: dim g^theta = 38, N + #even exponents = 36 + 2, -1 not in W -> ok" in res.details
    zeros = [(0, 0)] * 3
    assert ledger_line("E6", 36, "36 (sigma outer)", 0, 53, 47, zeros, [(-2, 2), (-4, 4), (-6, 6)]) in res.details
    # sigma theta balances on every type, theta exactly where -1 is in W; h0 is taken at the first prime > 4h-1
    for t, n, ell, bound in (("G2", 6, 29, 23), ("F4", 24, 53, 47), ("E7", 63, 73, 71), ("E8", 120, 127, 119)):
        assert ledger_line(t, n, f"{n} (sigma the identity)", 0, ell, bound, zeros, zeros) in res.details


def test_criterion_8_bounds_and_persistence():
    report(run("bounds-and-persistence"))


def test_verify_paper_builds_each_kostant_decomposition_once(mutant):
    # criteria 1-2 (through the prime scan), 3 and 8 read one shared ZZ
    # decomposition per exceptional type
    built = Counter()
    real = principal_sl2.kostant_decomposition

    def counting(alg, triple):
        built[str(alg.datum.simple_type)] += 1
        return real(alg, triple)

    for module in (principal_sl2, prime_scan, verify):  # also counts a caller that imports the builder itself
        mutant.setattr(module, "kostant_decomposition", counting, raising=False)
    assert all(r.ok for r in verify.verify_paper())
    assert built == {t: 1 for t in ("G2", "F4", "E6", "E7", "E8")}
