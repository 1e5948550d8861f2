from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from conftest import ad_power, bracket, h_of, x_of, y_of

from monolab import principal_sl2
from monolab.chevalley import ChevalleyAlgebra, build_chevalley_algebra
from monolab.exact import det_mod
from monolab.prime_scan import scan_e6_cartan, scan_simple_projections
from monolab.principal_sl2 import (
    KostantDecomposition,
    build_principal_sl2,
    kostant_decomposition,
    principal_coefficients,
    sl2_string_family_rows,
    sl2_string_lengths_ok,
)
from monolab.rootsys import EXCEPTIONAL_TYPES, build_root_datum

KNOWN_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def coefficients_via_inverse_cartan(datum):
    # oracle: c = 2 * column sums of A^{-1}, from <alpha_j, sum c_i H_i> = 2
    l = datum.rank
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(l)]
        for i, row in enumerate(datum.cartan)
    ]
    for c in range(l):
        piv = next(i for i in range(c, l) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(l):
            if i != c and aug[i][c]:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[c])]
    inv = [row[l:] for row in aug]
    out = []
    for i in range(l):
        v = 2 * sum(inv[j][i] for j in range(l))
        assert v.denominator == 1
        out.append(int(v))
    return tuple(out)


def test_principal_coefficients_small():
    assert principal_coefficients(build_root_datum("A1")) == (1,)
    # A2 oracle: coroots (1,0) + (0,1) + (1,1)
    assert principal_coefficients(build_root_datum("A2")) == (2, 2)


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", *EXCEPTIONAL_TYPES])
def test_principal_coefficients_match_inverse_cartan(name):
    d = build_root_datum(name)
    c = principal_coefficients(d)
    assert c == coefficients_via_inverse_cartan(d)
    assert all(type(v) is int for v in c)  # alg.element rejects numpy integers
    # pairing identity <alpha_j, H> = 2 for every simple root
    for j in range(d.rank):
        assert sum(c[i] * d.cartan[i][j] for i in range(d.rank)) == 2


def test_e8_coefficients_scale():
    c = principal_coefficients(build_root_datum("E8"))
    assert max(c) >= 2 * 29  # at least twice the height of the highest root
    assert all(v > 0 for v in c)


def test_a1_triple_is_standard_basis():
    alg = build_chevalley_algebra("A1")
    trip = build_principal_sl2(alg)
    assert trip.X == x_of(alg, 0)
    assert trip.H == h_of(alg, 0)
    assert trip.Y == y_of(alg, 0)


@pytest.mark.parametrize("name", EXCEPTIONAL_TYPES)
def test_triple_relations_over_zz(name):
    alg = build_chevalley_algebra(name)
    trip = build_principal_sl2(alg)
    assert bracket(trip.X, trip.H) == trip.X.scale(2)
    assert bracket(trip.Y, trip.H) == trip.Y.scale(-2)
    assert bracket(trip.Y, trip.X) == trip.H


def test_centralizer_a1():
    alg = build_chevalley_algebra("A1")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    assert [p.coeffs for _, p in kd.pairs] == [{0: 1}]  # the line through x itself


@pytest.mark.parametrize("name", EXCEPTIONAL_TYPES)
def test_centralizer_dimension(name):
    alg = build_chevalley_algebra(name)
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    assert len(kd.pairs) == alg.datum.rank
    for _, p in kd.pairs:
        assert bracket(kd.triple.X, p).is_zero()


def test_g2_eigenvalues_on_centralizer():
    alg = build_chevalley_algebra("G2")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    eig = []
    for _, p in kd.pairs:
        out = bracket(p, kd.triple.H)
        ratio = {out.coeffs[k] // v for k, v in p.coeffs.items()}
        assert len(ratio) == 1
        eig.append(ratio.pop())
    assert eig == [2, 10]


@pytest.mark.parametrize("name", EXCEPTIONAL_TYPES)
def test_kostant_decomposition(name):
    alg = build_chevalley_algebra(name)
    trip = build_principal_sl2(alg)
    kd = kostant_decomposition(alg, trip)
    assert kd.exponents == KNOWN_EXPONENTS[name]
    assert kd.pairs[0][1] == trip.X
    assert sum(2 * m + 1 for m in kd.exponents) == alg.dim
    for _, p in kd.pairs:
        assert gcd(*p.coeffs.values()) == 1
    for _, p in kd.pairs:
        for _, q in kd.pairs:
            assert bracket(p, q).is_zero()


def test_d4_repeated_exponent():
    alg = build_chevalley_algebra("D4")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    assert kd.exponents == (1, 3, 3, 5)
    threes = [p for m, p in kd.pairs if m == 3]
    assert len(threes) == 2 and threes[0] != threes[1]


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_sl2_strings(name):
    alg = build_chevalley_algebra(name)
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    assert sl2_string_lengths_ok(kd)


def test_sl2_strings_reject_wrong_lengths():
    # a string that has not reached 0 at k = 2m+1, or reaches it before, fails the check
    alg = build_chevalley_algebra("G2")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    for shift in (-1, 1):
        shifted = KostantDecomposition(kd.triple, tuple((m + shift, p) for m, p in kd.pairs))
        assert not sl2_string_lengths_ok(shifted)


def test_decomposition_checks_its_eigenvectors_against_the_triple(monkeypatch):
    # ad(X) alone gives the kernel, so a triple with H or X doubled, or a bracket
    # that breaks commutativity, reaches the checks after the graded pass
    alg = build_chevalley_algebra("G2")
    triple = build_principal_sl2(alg)
    cases = [
        (replace(triple, H=triple.H.scale(2)), "weight 2: kernel vector is not an H-eigenvector"),
        (replace(triple, X=triple.X.scale(2)), "p_1 must be X itself"),  # the kernel vector is primitive
    ]
    for bad, message in cases:
        with pytest.raises(ArithmeticError) as caught:
            kostant_decomposition(alg, bad)
        assert str(caught.value) == message
    real = principal_sl2.brackets

    def noncommuting(pairs):
        got = real(pairs)
        return got[:-1] + [pairs[-1][0]]  # [p_1, p_5] becomes p_1

    monkeypatch.setattr(principal_sl2, "brackets", noncommuting)
    with pytest.raises(ArithmeticError) as caught:
        kostant_decomposition(alg, triple)
    assert str(caught.value) == "centralizer of X is not abelian: structure bug"


def test_strings_built_once(monkeypatch):
    # the four string readers on one decomposition share one ad(Y), built on the first read;
    # scan_e6_cartan reads row x_1 of ad(x_1) on each call
    alg = build_chevalley_algebra("E6")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    calls = []

    def counting(self, z):
        calls.append(z)
        return ad(self, z)

    ad = ChevalleyAlgebra.ad
    monkeypatch.setattr(ChevalleyAlgebra, "ad", counting)
    readers = (sl2_string_lengths_ok, sl2_string_family_rows, scan_simple_projections, scan_e6_cartan)
    first = [reader(kd) for reader in readers]
    assert [reader(kd) for reader in readers] == first
    x1 = alg.element({0: 1})
    assert calls == [kd.triple.Y, x1, x1]


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_adX_nilpotency_bound(name):
    alg = build_chevalley_algebra(name)
    trip = build_principal_sl2(alg)
    h = alg.datum.coxeter_number
    for k in range(alg.dim):
        assert ad_power(trip.X, 2 * h - 1, alg.element({k: 1})).is_zero()
    # and the bound is sharp: ad(X)^{2h-2} does not kill the lowest vector
    bottom = y_of(alg, len(alg.datum.positive_roots) - 1)  # lowest root vector
    assert not ad_power(trip.X, 2 * h - 2, bottom).is_zero()


@pytest.mark.parametrize("name", EXCEPTIONAL_TYPES)
def test_mod_ell_persistence(name):
    alg = build_chevalley_algebra(name)
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    h = alg.datum.coxeter_number
    ell = next(p for p in range(2 * h - 1, 4 * h) if all(p % q for q in range(2, p)))
    # criterion 8's test: the string family stays a basis of g mod ell
    rows = sl2_string_family_rows(kd)
    assert len(rows) == alg.dim and det_mod(rows, ell) != 0
    # the rows are fresh dicts: editing one leaves the strings as they were
    rows[0].clear()
    assert sl2_string_family_rows(kd)[0] == kd.strings[0][0].coeffs != {}


def test_kostant_json():
    alg = build_chevalley_algebra("G2")
    kd = kostant_decomposition(alg, build_principal_sl2(alg))
    doc = kd.to_json_dict()
    assert doc["exponents"] == [1, 5]
    assert doc["principal_coefficients"] == [6, 10]
    for rec in doc["eigenvectors"]:
        assert all(isinstance(v, str) for v in rec["coords"].values())
