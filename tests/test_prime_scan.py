import json
import random
from math import prod

import numpy as np
import pytest
from conftest import ad_power, run_optimized, traced_peak

from monolab import exact, prime_scan
from monolab.chevalley import build_chevalley_algebra
from monolab.principal_sl2 import (
    KostantDecomposition,
    build_principal_sl2,
    kostant_decomposition,
)
from monolab.exact import Factorization
from monolab.prime_scan import (
    ExponentScan,
    build_report,
    char0_zeros,
    check_against_reference,
    factor,
    scan_e6_cartan,
    scan_simple_projections,
)
from monolab.rootsys import SimpleType


def decomposition(name):
    alg = build_chevalley_algebra(name)
    return kostant_decomposition(alg, build_principal_sl2(alg))


# -- factorization ----------------------------------------------------------


def test_factor_known():
    assert factor(794).factors == ((2, 1), (397, 1))
    assert factor(-12).factors == ((2, 2), (3, 1))
    assert factor(1).factors == ()
    assert factor(2**40).factors == ((2, 40),)
    assert factor(997).factors == ((997, 1),)
    assert factor(318665857834031151167461).factors == ((399165290221, 1), (798330580441, 1))  # psi_12
    with pytest.raises(ValueError, match="passes Miller-Rabin on the first 13 prime bases"):
        factor(3317044064679887385961981)  # psi_13, refused rather than split on an unproven verdict


def test_factor_two_large_primes():
    p, q = 100000000003, 100000000019  # both prime, 12 digits
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factor_rho_path():
    # composite with no factor below the trial-division bound
    p, q = 1000003, 1000033
    assert factor(p * q).factors == ((p, 1), (q, 1))
    assert factor(p**3).factors == ((p, 3),)
    # factors between the trial-division bound 2^10 and 10^6, alone and past small ones
    assert factor(1031 * 1033).factors == ((1031, 1), (1033, 1))
    assert factor(65537 * 999983).factors == ((65537, 1), (999983, 1))
    assert factor(-(2**3) * 1021 * 1031 * 999983).factors == ((2, 3), (1021, 1), (1031, 1), (999983, 1))
    assert factor(1031**2).factors == ((1031, 2),)
    assert factor(3 * 9541733).factors == ((3, 1), (9541733, 1))  # the one scan factor above 10^6


def test_factor_splits_prime_powers():
    # rho is the one splitter past trial division, prime powers included: it peels them one factor at a time
    assert [factor(1031**k).factors for k in range(1, 9)] == [((1031, k),) for k in range(1, 9)]
    rng, primes = random.Random(48), []
    while len(primes) < 60:
        p = rng.randrange(1031, 2 * 10**5)
        if exact.is_prime(p) and p not in primes:
            primes.append(p)
    for _ in range(300):
        want = sorted((p, rng.randint(1, 6)) for p in rng.sample(primes, rng.randint(1, 3)))
        assert factor(prod(p**e for p, e in want)).factors == tuple(want)


def test_factor_set_up_is_small():
    # the trial divisors are the 172 primes below 2^10, not a table of the 78,498 below 10^6
    exact._small_primes.cache_clear()
    assert traced_peak(lambda: factor(2)) < 64 * 1024
    assert len(exact._small_primes()) == 172 and exact._small_primes()[-1] == 1021


@pytest.mark.parametrize(
    "n, tested",
    [(2**31 - 2, [331]), (3 * 9541733, [9541733]), (1031**3, [1031**3, 1031, 1031**2])],
    ids=["2^31-2", "3*9541733", "1031^3"],
)
def test_factor_proves_each_prime_once(monkeypatch, n, tested):
    # the trial primes were proven when the table was built and the splitter
    # proves the rest, so nothing is proven a second time: 331 = 2^31 - 2
    # over 2 * 3^2 * 7 * 11 * 31 * 151 is left when trial division stops at
    # 157^2, and rho splits 1031^3 into 1031 and 1031^2, so 1031 is proven once
    # for its three copies and the composite 1031^2 is tested once
    factor(2)
    calls, real = [], exact.is_prime
    monkeypatch.setattr(exact, "is_prime", lambda m: calls.append(m) or real(m))
    assert factor(n).primes()[-1] in tested
    assert calls == tested


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstruction_guard():
    for n, factors in ((10, ((2, 1), (3, 1))), (12, ((2, 2),))):
        with pytest.raises(ArithmeticError, match="does not reconstruct"):
            Factorization(n, factors)


def test_factor_reconstruction_guard_under_optimize():
    code = (
        "from monolab.exact import Factorization\n"
        "try:\n"
        "    Factorization(12, ((2, 2),))\n"
        "except ArithmeticError:\n"
        "    print('rejected')\n"
    )
    assert run_optimized(code) == "rejected"


# -- projection scans ---------------------------------------------------------


def test_a1_scan_by_hand():
    # ad(Y)^2(X) = [Y, H] = -2Y: single coefficient -2, bad prime 2
    scans = scan_simple_projections(decomposition("A1"))
    assert len(scans) == 1
    assert scans[0].vector == (-2,)
    assert scans[0].zero_in_char_zero == frozenset()


def test_g2_flagship_list():
    assert build_report("G2").bad_primes == (2, 3, 5)


def test_f4_list():
    assert build_report("F4").bad_primes == (2, 3, 5, 7, 11)


def test_e7_list():
    assert build_report("E7").bad_primes == (2, 3, 5, 7, 11, 13, 17, 19, 31, 37, 53)


def test_e6_list_and_zero_pattern():
    rep = build_report("E6")
    assert rep.bad_primes == (2, 3, 5, 7, 11)
    for scan in rep.per_exponent:
        if scan.exponent in (4, 8):
            # zeros exactly at the two diagram-automorphism-fixed simple roots
            assert scan.zero_in_char_zero == frozenset({1, 3})
            assert scan.vector[0] != 0
        else:
            assert scan.zero_in_char_zero == frozenset()


def test_char0_zero_rule_is_enforced(monkeypatch):
    # an extra zero stops an exceptional report, E6 included; classical types are not checked
    scan = prime_scan.scan_simple_projections

    def with_zero_at_0(kd):
        return tuple(
            ExponentScan(s.exponent, (0, *s.vector[1:]), s.zero_in_char_zero | {0}) for s in scan(kd)
        )

    monkeypatch.setattr(prime_scan, "scan_simple_projections", with_zero_at_0)
    for name in ("G2", "E6"):
        with pytest.raises(ArithmeticError, match=f"{name} exponent 1: char-0 zeros at \\[0\\]"):
            build_report.__wrapped__(SimpleType.parse(name))  # uncached, so the cached reports stay untouched
    assert build_report.__wrapped__(SimpleType("A", 3)).informational


def test_char0_zeros_derive_the_e6_pattern():
    # sigma p_m = -p_m exactly at E6's exponents 4 and 8, so the zeros sit on sigma's fixed simple roots 1 and 3
    kd = decomposition("E6")
    assert dict(zip(kd.exponents, char0_zeros(kd))) == {
        1: frozenset(), 4: frozenset({1, 3}), 5: frozenset(), 7: frozenset(), 8: frozenset({1, 3}), 11: frozenset()
    }
    for name in ("G2", "F4", "E7", "E8"):  # sigma is the identity where -1 is in W
        assert not any(char0_zeros(decomposition(name)))


@pytest.mark.parametrize("name", ["A2", "A3", "A5", "D5", "D7"])
def test_char0_zeros_match_the_classical_scans(name):
    # where -1 is not in W, sigma predicts these classical scans' zeros too; build_report still
    # asserts no classical pattern, because B3 and D4, say, have zeros that sigma = id does not explain
    kd = decomposition(name)
    assert tuple(s.zero_in_char_zero for s in scan_simple_projections(kd)) == char0_zeros(kd)
    assert any(char0_zeros(kd)) == (name != "A2")  # A2's diagram symmetry fixes no simple root


def test_e6_zeros_need_sigma_odd_on_p4(monkeypatch):
    # negative control: with sigma's sign on p_4 (the height-4 root vectors) stubbed to +1, the
    # derived pattern expects no zero at exponent 4, and the E6 report stops
    real = prime_scan.diagram_involution

    def even_on_p4(alg):
        perm, sign = real(alg)
        return perm, np.where(np.r_[np.abs(alg.datum.heights), np.zeros(alg.datum.rank, int)] == 4, -sign, sign)

    monkeypatch.setattr(prime_scan, "diagram_involution", even_on_p4)
    with pytest.raises(ArithmeticError, match=r"E6 exponent 4: char-0 zeros at \[1, 3\], expected exactly \[\]"):
        build_report.__wrapped__(SimpleType.parse("E6"))  # uncached, so the cached report stays untouched


def test_scans_refuse_strings_off_their_spaces():
    # with every exponent shifted, the scan reads a string entry that is off the
    # negative simple spaces (G2, one step short: on the Cartan) and the Cartan
    # scan one that is off the Cartan (E6, one step past: on the simple y_i)
    g2, e6 = decomposition("G2"), decomposition("E6")
    short = KostantDecomposition(g2.triple, tuple((m - 1, p) for m, p in g2.pairs))
    with pytest.raises(ArithmeticError) as caught:
        scan_simple_projections(short)
    assert str(caught.value) == "scan element for exponent 0 leaks outside the simple spaces: [12, 13]"
    past = KostantDecomposition(e6.triple, tuple((m + 1, p) for m, p in e6.pairs))
    with pytest.raises(ArithmeticError) as caught:
        scan_e6_cartan(past)
    assert str(caught.value) == "ad(Y)^2(p) has non-Cartan support: [36, 38, 37, 39, 40, 41]"


def test_char0_zeros_refuse_a_vector_sigma_does_not_fix_up_to_sign():
    # A2's sigma swaps x_0 and x_1, so x_0 alone maps to neither p nor -p
    kd = decomposition("A2")
    alone = KostantDecomposition(kd.triple, ((1, kd.triple.algebra.element({0: 1})),))
    with pytest.raises(ArithmeticError) as caught:
        char0_zeros(alone)
    assert str(caught.value) == "sigma maps the eigenvector of exponent 1 to neither p nor -p"


def test_e6_report_refuses_a_zero_cartan_component(monkeypatch):
    monkeypatch.setattr(prime_scan, "scan_e6_cartan", lambda kd: ((1, 0),))
    with pytest.raises(ArithmeticError) as caught:
        build_report.__wrapped__(SimpleType.parse("E6"))  # uncached, so the cached report stays untouched
    assert str(caught.value) == "E6 Cartan scan hit a zero h[1]-component"


def test_e6_cartan_scan():
    kd = decomposition("E6")
    cartan = scan_e6_cartan(kd)
    assert [m for m, _ in cartan] == [1, 4, 5, 7, 8, 11]
    assert all(c != 0 for _, c in cartan)
    # ad(Y)(X) = H pairs to 2 against every simple root
    assert cartan[0][1] == 2


def test_cartan_scan_restricted_to_e6():
    with pytest.raises(ValueError):
        scan_e6_cartan(decomposition("F4"))


def test_e8_adjudication():
    rep = build_report("E8")
    ok, expected, note = check_against_reference(rep)
    assert ok
    assert rep.e8_adjudication["present"] == [397]
    assert rep.e8_adjudication["absent"] == [367]
    assert 397 in rep.bad_primes and 367 not in rep.bad_primes


def test_classical_types_informational():
    # no bundled list covers A3: the check refuses it, reporting no pass it never ran
    rep = build_report("A3")
    assert rep.informational
    with pytest.raises(ValueError, match="^no reference list for A3$"):
        check_against_reference(rep)


def test_scan_supports_stay_simple():
    for name in ("A2", "B3", "G2"):
        for scan in scan_simple_projections(decomposition(name)):
            assert len(scan.vector) == build_chevalley_algebra(name).datum.rank


def test_determinism():
    kd = decomposition("F4")
    assert scan_simple_projections(kd) == scan_simple_projections(kd)
    rep1 = json.dumps(build_report("F4").to_json_dict(), indent=2, sort_keys=True)
    rep2 = json.dumps(build_report("F4").to_json_dict(), indent=2, sort_keys=True)
    assert rep1 == rep2
    json.loads(rep1)


def test_scaling_invariance():
    kd = decomposition("G2")
    base = scan_simple_projections(kd)
    scaled_pairs = tuple((m, p.scale(3)) for m, p in kd.pairs)
    scaled = scan_simple_projections(KostantDecomposition(kd.triple, scaled_pairs))
    for s_base, s_scaled in zip(base, scaled):
        assert s_scaled.vector == tuple(3 * c for c in s_base.vector)
    # the primitive run's primes are contained in any scaled run's primes
    def primes_of(scans):
        out = set()
        for s in scans:
            for c in s.vector:
                if c:
                    out.update(factor(c).primes())
        return out

    assert primes_of(base) <= primes_of(scaled)


@pytest.mark.parametrize("name,ells", [("E7", (37, 53)), ("E8", (61,))])
def test_cross_characteristic_consistency(name, ells):
    # the scan bracketed natively in F_ell, from Y and the p reduced mod ell, is
    # the ZZ scan mod ell: it vanishes exactly where ell divides the ZZ coefficient
    kd = decomposition(name)
    base = scan_simple_projections(kd)
    alg = kd.triple.algebra
    h, rank = alg.datum.coxeter_number, alg.datum.rank
    for ell in ells:
        assert ell >= 2 * h - 1
        fl = alg.mod(ell)
        Y = fl.element(kd.triple.Y.coeffs)
        hits = 0
        for s_int, (m, p) in zip(base, kd.pairs):
            v = ad_power(Y, m + 1, fl.element(p.coeffs))
            assert set(v.coeffs) <= {fl.num_pos + i for i in range(rank)}
            for i, c_int in enumerate(s_int.vector):
                c_mod = v.coeffs.get(fl.num_pos + i, 0)
                assert c_mod == c_int % ell
                hits += c_int != 0 and c_mod == 0
        assert hits, f"{ell} divides no nonzero {name} scan coefficient"


def test_report_json_shape():
    doc = build_report("G2").to_json_dict()
    assert doc["bad_primes"] == [2, 3, 5]
    assert all(isinstance(v, str) for rec in doc["per_exponent"] for v in rec["vector"])
    assert doc["informational"] is False
