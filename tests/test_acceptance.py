"""Acceptance matrix: one test per criterion, one printed line per criterion.

Every target value and tolerance is pinned here exactly as specified; nothing
is deferred or loosened.  Criterion 6 asserts the exact pattern
h1(SL2(F_ell), Sym^r (x) det^{-r/2}) = [r = ell - 3] over all even r < ell,
nonzero value included (that class is certified by an explicit cocycle in the
unit suite), and adjoint sums equal to the number of exponents m with
2m = ell - 3.  Negative controls stub the solvers to show that the criterion
still fails on the all-zero pattern and on a spurious nonzero value, stub
the string-length and sl2-relations checks and add a centralizer vector at
weight 0 to show that criteria 3 and 4 report FAIL, and hand criterion 5 a
sign-flipped G2 table to show that it reports FAIL, also under python -O, and
a G2 table with one constant doubled to show that its magnitude line counts
the violations.  Criterion 7 reports FAIL when the E6 diagram involution is
stubbed to the identity (theta alone fixes 38 dimensions, not N = 36) and
when a balanced ledger's archimedean dimension is not dim g^(sigma theta).
Every result is read through `verify_paper`, the one place a verdict is
formed; stub criteria show that one failing check fails the whole criterion
and that an ArithmeticError after a check becomes the one FAIL line.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from conftest import flipped_algebra, run_optimized

from monolab import prime_scan, principal_sl2, verify
from monolab.chevalley import build_chevalley_algebra
from monolab.cli import EXIT_MISMATCH, main
from monolab.group_cohomology import CohomologyReport


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


def test_criterion_1_prime_list_reproduction():
    # G2 {2,3,5}; F4 {2,3,5,7,11}; E7 {...53}; E6 {2,3,5,7,11}; exact equality
    report(run("prime-lists"), budget_s=10)


def test_criterion_2_e8_adjudication():
    # must match one of the two candidate lists exactly and flag which
    report(run("e8-adjudication"), budget_s=60)


def test_criterion_3_kostant_structure():
    # strings of length 2m+1 on all five types; principal_kostant raises,
    # and so fails the criterion, unless dim ker ad X = #{m : 2m = w} at every
    # weight w (so dim P = rank), the eigenvalues are 2m and P is abelian, and
    # build_root_datum raises unless sum(2m+1) = dim g
    report(run("kostant-structure"), budget_s=30)


def test_criterion_3_reports_broken_strings(monkeypatch):
    # criterion 6's adjoint sums assume g = sum of V_{2m} under the principal
    # sl2; with the string-length check stubbed to fail, criterion 3 must
    # report FAIL and name that check for every type
    monkeypatch.setattr(verify, "sl2_string_lengths_ok", lambda kd: False)
    res = run("kostant-structure")
    assert res.ok is False
    assert res.details == [f"{t}: FAIL strings of length 2m+1" for t in ("G2", "F4", "E6", "E7", "E8")]


def test_criterion_3_reports_extra_centralizer_vector(monkeypatch, capsys):
    # one extra kernel vector at weight 0, where no exponent lives: the
    # weight-by-weight dimension check raises, and criterion 3 and the CLI
    # report FAIL
    real = principal_sl2._graded_kernel

    def extra_at_zero(ad_x, grading, w):
        vecs = real(ad_x, grading, w)
        return vecs + [(1,) + (0,) * (len(grading[w]) - 1)] if w == 0 else vecs

    monkeypatch.setattr(principal_sl2, "_graded_kernel", extra_at_zero)
    message = "weight 0: ker ad X has dimension 1, expected 0"
    alg = build_chevalley_algebra("G2")
    with pytest.raises(ArithmeticError, match=message):
        principal_sl2.kostant_decomposition(alg, principal_sl2.build_principal_sl2(alg))
    principal_sl2.principal_kostant.cache_clear()
    res = run("kostant-structure")
    assert res.ok is False and res.details == [f"ArithmeticError: {message}"]
    assert main(["verify-paper", "--only", "kostant-structure"]) == EXIT_MISMATCH
    assert "FAIL kostant-structure" in capsys.readouterr().err


def test_criterion_4_sl2_relations():
    # exact relations over ZZ and sampled F_ell; constructor rejects ell < h
    report(run("sl2-relations"))


def test_criterion_4_reports_broken_relations(monkeypatch):
    # the constructor's relations check is the one check; when it fails, the
    # criterion must report FAIL lines instead of raising
    monkeypatch.setattr(principal_sl2, "relations_hold", lambda triple: False)
    res = run("sl2-relations")
    assert res.ok is False
    assert len(res.details) == 5
    assert all("ZZ relations FAIL, mod-ell FAIL, reject ell<h ok" in d for d in res.details)


def test_criterion_5_structure_constant_integrity():
    # Jacobi on every basis triple and the p+1 magnitude rule on every root
    # pair, for all five exceptional types
    report(run("structure-constants"), budget_s=10)


G2_FAIL = "G2: exhaustive Jacobi FAIL: Jacobi fails on basis triple (0, 1, 3): {5: 6}"


def test_criterion_5_reports_broken_table(monkeypatch):
    # G2 with one antisymmetric pair sign-flipped, on a copy of the table: the
    # criterion must report a FAIL line naming the triple instead of raising
    real = verify.build_chevalley_algebra
    monkeypatch.setattr(verify, "build_chevalley_algebra", lambda t: flipped_algebra(t) if t == "G2" else real(t))
    res = run("structure-constants")
    assert res.ok is False
    assert [d for d in res.details if "FAIL" in d] == [G2_FAIL]


def test_criterion_5_reports_magnitude_violations(monkeypatch):
    # G2 with one root pair's constant doubled in both orders: antisymmetry
    # holds, |N| is no longer q (a+b,a+b)/(b,b), and the magnitude line counts
    # both ordered pairs
    real = verify.build_chevalley_algebra
    monkeypatch.setattr(verify, "build_chevalley_algebra", lambda t: flipped_algebra(t, 2) if t == "G2" else real(t))
    res = run("structure-constants")
    assert res.ok is False
    assert "G2: |N_ab|(b,b) = q(a+b,a+b) exhaustive over 60 pairs -> 2 violations" in res.details
    assert res.details[0].startswith("G2: exhaustive Jacobi FAIL")


def test_criterion_5_reports_broken_table_under_optimize():
    # the same under python -O, where an assert-based check would pass
    code = (
        "from conftest import flipped_algebra\n"
        "from monolab import verify\n"
        "verify.build_chevalley_algebra = lambda t: flipped_algebra('G2')\n"
        "(res,) = verify.verify_paper(only=['structure-constants'])\n"
        "print(res.ok, res.details[0])\n"
    )
    assert run_optimized(code) == f"False {G2_FAIL}"


def test_criterion_6_cohomology_vanishing():
    # asserted: h1 = 1 at r = ell-3 and 0 at every other even r < ell
    # (ell in {7,...,29}); adjoint sums (G2,13) = 1 since 2*5 = 13-3,
    # (F4,29) = 0 and (E6,29) = 0
    report(run("cohomology-vanishing"), budget_s=300)


def _stub_solvers(monkeypatch, h1_value, adjoint_value):
    """Replace the solvers criterion 6 sweeps with the given value functions.

    Groups of order <= 200 keep the real streamed solver, so the oracle
    fixtures still agree and only the swept values decide the outcome.
    """
    real_h1 = verify.h1

    def fake_h1(G, M):
        if G.order <= 200:
            return real_h1(G, M)
        v = h1_value(M.ell, M.dim - 1)
        return CohomologyReport(h0=0, dim_Z1=v, dim_B1=0, h1=v)

    monkeypatch.setattr(verify, "h1", fake_h1)
    monkeypatch.setattr(verify, "adjoint_h1_via_kostant", adjoint_value)


def _true_adjoint(t, ell):
    return {("G2", 13): 1}.get((t, ell), 0)


def test_criterion_6_rejects_all_zero_pattern(monkeypatch):
    _stub_solvers(monkeypatch, lambda ell, r: 0, lambda t, ell: 0)
    res = run("cohomology-vanishing")
    assert res.ok is False
    assert "ell=7: even r < ell, nonzero h1 expected {4: 1}, computed {} -> MISMATCH" in res.details


def test_criterion_6_rejects_spurious_nonzero(monkeypatch):
    _stub_solvers(monkeypatch, lambda ell, r: int(r == ell - 3 or (ell, r) == (11, 4)), _true_adjoint)
    res = run("cohomology-vanishing")
    assert res.ok is False
    assert [d for d in res.details if "MISMATCH" in d] == [
        "ell=11: even r < ell, nonzero h1 expected {8: 1}, computed {4: 1, 8: 1} -> MISMATCH"
    ]


def test_criterion_6_rejects_wrong_adjoint_total(monkeypatch):
    _stub_solvers(monkeypatch, lambda ell, r: int(r == ell - 3), lambda t, ell: 0)
    res = run("cohomology-vanishing")
    assert res.ok is False
    assert [d for d in res.details if "MISMATCH" in d] == [
        "G2 adjoint at ell=13: expected 1 (exponents m with 2m = ell-3: [5]), computed 0 -> MISMATCH"
    ]


def test_criterion_6_rejects_borel_cayley_disagreement(monkeypatch):
    # the Cayley solver on the swapped generators is skewed at r = 4 only
    from monolab.group_cohomology import sl2_generators

    real_h1 = verify.h1

    def skewed_h1(G, M):
        rep = real_h1(G, M)
        if G.generators != sl2_generators(G.ell) and G.order > 200 and M.dim == 5:
            return CohomologyReport(h0=rep.h0, dim_Z1=rep.dim_Z1 + 1, dim_B1=rep.dim_B1, h1=rep.h1 + 1)
        return rep

    monkeypatch.setattr(verify, "h1", skewed_h1)
    res = run("cohomology-vanishing")
    assert res.ok is False
    assert [d for d in res.details if "FAIL" in d or "MISMATCH" in d] == [
        "Borel-vs-Cayley cross-check on 17 modules (every even r < ell at ell in (7, 11, 13),"
        " Cayley solver on the swapped generators): FAIL at (ell, r) [(7, 4), (11, 4), (13, 4)]"
    ]


def test_criterion_7_selmer_identities():
    res = run("selmer-identities")
    report(res, budget_s=1)
    assert "E6: dim g^theta = 38, N + #even exponents = 36 + 2, -1 not in W -> ok" in res.details
    assert "E6: dim g^(sigma theta) = 36 with sigma outer, N = 36, balanced-ledger archimedean dim 36 -> ok" in res.details


def test_criterion_7_rejects_e6_without_sigma(monkeypatch):
    # negative control: with sigma stubbed to the identity, theta alone fixes 38 dimensions of E6, not N = 36
    def identity(alg):
        return np.arange(alg.dim), np.ones(alg.dim, dtype=np.int64)

    monkeypatch.setattr(verify, "diagram_involution", identity)
    res = run("selmer-identities")
    assert not res.ok
    bad = [d for d in res.details if not d.endswith("-> ok") and "balanced ledgers" not in d]
    assert bad == ["E6: dim g^(sigma theta) = 38 with sigma the identity, N = 36, balanced-ledger archimedean dim 36 -> MISMATCH"]


def test_criterion_7_rejects_a_ledger_that_is_not_odd(monkeypatch):
    # negative control: a balanced ledger whose archimedean dimension is not dim g^(sigma theta) fails
    real = verify.balanced_ledger

    def even_places(t, degree):
        led = real(t, degree)
        return dataclasses.replace(led, archimedean_fixed_dims=(led.dim_n + 1,) * degree)

    monkeypatch.setattr(verify, "balanced_ledger", even_places)
    res = run("selmer-identities")
    assert not res.ok
    assert "G2: dim g^(sigma theta) = 6 with sigma the identity, N = 6, balanced-ledger archimedean dim 7 -> MISMATCH" in res.details


def test_criterion_8_bounds_and_persistence():
    report(run("bounds-and-persistence"))


def test_verify_paper_builds_each_kostant_decomposition_once(monkeypatch):
    # criteria 1-2 (through the prime scan), 3 and 8 read one shared ZZ
    # decomposition per exceptional type
    built = Counter()
    real = principal_sl2.kostant_decomposition

    def counting(alg, triple):
        built[str(alg.datum.simple_type)] += 1
        return real(alg, triple)

    for module in (principal_sl2, prime_scan, verify):  # also counts a caller that imports the builder itself
        monkeypatch.setattr(module, "kostant_decomposition", counting, raising=False)
    principal_sl2.principal_kostant.cache_clear()
    prime_scan.build_report.cache_clear()
    assert all(r.ok for r in verify.verify_paper())
    assert built == {t: 1 for t in ("G2", "F4", "E6", "E7", "E8")}
