import random

import pytest
from conftest import balanced_ledger, reference_euler_difference

from monolab.chevalley import build_chevalley_algebra
from monolab.rootsys import MAX_RANK, SimpleType, build_root_datum
from monolab.selmer_arith import (
    LocalCondition,
    SelmerLedger,
    lifting_prime_bounds,
    local_dim,
    oddness_deficit,
    wiles_difference,
)
from monolab.verify import _ledgers

EXC = ("G2", "F4", "E6", "E7", "E8")
# Order of the center of the simply-connected form (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates V-IX).
CENTER_ORDERS = {"G2": 1, "F4": 1, "E6": 3, "E7": 2, "E8": 1}


# -- local dimension catalog --------------------------------------------------


def test_local_dim_catalog():
    assert local_dim(LocalCondition("ordinary", h0_local=0, field_degree=1), 6) == 6
    assert local_dim(LocalCondition("ordinary", h0_local=3, field_degree=2), 6) == 15
    assert local_dim(LocalCondition("steinberg", h0_local=4), 6) == 4
    assert local_dim(LocalCondition("minimal", h0_local=5), 6) == 5


def test_ordinary_surplus_identity():
    for degree in (1, 2, 3):
        for dim_n in (1, 6, 120):
            c = LocalCondition("ordinary", h0_local=4, field_degree=degree)
            u = LocalCondition("steinberg", h0_local=4)
            assert local_dim(c, dim_n) - local_dim(u, dim_n) == degree * dim_n


def test_condition_validation():
    for kind in ("weird", "ramakrishna", "unramified", "archimedean", "custom"):
        with pytest.raises(ValueError, match=f"unknown local condition kind '{kind}'"):
            LocalCondition(kind, 0)
    with pytest.raises(ValueError, match="^h0_local must be >= 0, got -1$"):
        LocalCondition("ordinary", -1)
    for bad in (2.5, True, "2"):  # a dimension is an int, and a bool is not one
        with pytest.raises(ValueError) as caught:
            LocalCondition("minimal", bad)
        assert str(caught.value) == f"h0_local is not an int: {bad!r}"
    for kind in ("steinberg", "minimal"):
        # a degree only the ordinary catalog entry reads would be dropped in silence
        with pytest.raises(ValueError, match=f"field_degree is read only when kind='ordinary', got it on kind='{kind}'"):
            LocalCondition(kind, 0, field_degree=3)
    assert LocalCondition("steinberg", 0, field_degree=0).field_degree == 0


@pytest.mark.parametrize("bad", ["ordinary", ("ordinary", 0, 1), None])
def test_ledger_refuses_a_local_entry_that_is_no_local_condition(bad):
    # an entry with no h0_local would otherwise fail only later, inside wiles_difference
    good = LocalCondition("steinberg", 1)
    with pytest.raises(ValueError) as caught:
        SelmerLedger(0, 0, 6, 1, (6,), locals=(good, bad))
    assert str(caught.value) == f"locals[1] is not a LocalCondition: {bad!r}"
    with pytest.raises(ValueError) as caught:
        SelmerLedger(0, 0, 6, 1, (6,), locals=(bad,))
    assert str(caught.value) == f"locals[0] is not a LocalCondition: {bad!r}"


# -- the difference formula, against the Euler grouping in conftest ------------


def test_all_balanced_gives_zero():
    led = SelmerLedger(
        h0_global=0,
        h0_global_twist=0,
        dim_n=6,
        totally_real_degree=0,
        locals=(
            LocalCondition("steinberg", 3),
            LocalCondition("minimal", 7),
            LocalCondition("steinberg", 2),
        ),
    )
    assert wiles_difference(led) == 0
    assert reference_euler_difference(led) == 0


@pytest.mark.parametrize("name", EXC)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_balanced_fixture(name, degree):
    led = balanced_ledger(name, degree)
    assert wiles_difference(led) == 0
    assert oddness_deficit(led) == 0
    assert reference_euler_difference(led) == 0


@pytest.mark.parametrize("name", EXC)
def test_formulas_agree_on_criterion_7_ledgers(name):
    # off balance too: k archimedean places of dimension N + e put the difference at -k e, as criterion 7 prints it
    alg = build_chevalley_algebra(name)
    n = len(alg.datum.positive_roots)
    for excess in (0, 1, 2, n):
        for h0_g in (0, 3):
            for k, led in enumerate(_ledgers(alg, n + excess, h0_g), 1):
                assert wiles_difference(led) == reference_euler_difference(led) == -oddness_deficit(led) == -k * excess


def test_formulas_agree_on_random_ledgers():
    rng = random.Random(99)
    for _ in range(200):
        degree = rng.randrange(0, 4)
        conds = []
        for _ in range(rng.randrange(5)):
            kind = rng.choice(("ordinary", "steinberg", "minimal"))
            conds.append(LocalCondition(kind, rng.randrange(20), field_degree=rng.randrange(4) if kind == "ordinary" else 0))
        led = SelmerLedger(
            h0_global=rng.randrange(4),
            h0_global_twist=rng.randrange(4),
            dim_n=rng.randrange(130),
            totally_real_degree=degree,
            archimedean_fixed_dims=tuple(rng.randrange(260) for _ in range(degree)),
            locals=tuple(conds),
        )
        assert wiles_difference(led) == reference_euler_difference(led)


def test_oddness_deficit():
    led = balanced_ledger("G2", 3)
    assert oddness_deficit(led) == 0
    # one even involution: fixed space all of g instead of n
    bumped = SelmerLedger(
        h0_global=0,
        h0_global_twist=0,
        dim_n=6,
        totally_real_degree=1,
        archimedean_fixed_dims=(14,),
        locals=(),
    )
    assert oddness_deficit(bumped) == 14 - 6 == 8
    empty = SelmerLedger(0, 0, 6, 0)
    assert oddness_deficit(empty) == 0


def test_ledger_arch_count_validation():
    with pytest.raises(ValueError, match="degree 2 needs as many archimedean entries, found 1"):
        SelmerLedger(0, 0, 6, totally_real_degree=2, archimedean_fixed_dims=(6,))
    with pytest.raises(ValueError, match="degree 0 needs as many archimedean entries, found 2"):
        SelmerLedger(0, 0, 6, totally_real_degree=0, archimedean_fixed_dims=(6, 6))
    assert SelmerLedger(0, 0, 6, totally_real_degree=2, archimedean_fixed_dims=(6, 6)).archimedean_fixed_dims == (6, 6)


# -- type-derived quantities --------------------------------------------------


def test_split_cartan_dims():
    # a balanced ledger's dim_n and archimedean dims are N, the number of positive roots
    for name, n in (("G2", 6), ("E8", 120), ("A1", 1)):
        led = balanced_ledger(name, 2)
        assert led.dim_n == n and led.archimedean_fixed_dims == (n, n)


def test_bounds():
    assert lifting_prime_bounds("E6").principal_sl2_bound == 47
    assert lifting_prime_bounds("G2").maximal_image_bound == 11
    assert lifting_prime_bounds("G2").principal_sl2_bound == 23
    e8 = lifting_prime_bounds("E8")
    assert e8.e8_exclusions == {"certain": [229, 269], "disputed": [367, 397]}
    assert lifting_prime_bounds("F4").e8_exclusions == {}
    # A_n center has order n+1: even/odd branch of the image bound
    a3 = lifting_prime_bounds("A3")  # z = 4 even, h = 4
    assert a3.maximal_image_bound == 1 + max(8 * 4, 3 * 4)
    a2 = lifting_prime_bounds("A2")  # z = 3 odd, h = 3
    assert a2.maximal_image_bound == 1 + max(8 * 3, 4 * 3)


def family_center_order(t):
    """The center order of the simply connected group by family: n + 1 on A_n, 2 on B and C, 4 on D, else the table."""
    return CENTER_ORDERS[str(t)] if t.is_exceptional else {"A": t.rank + 1, "B": 2, "C": 2, "D": 4}[t.family]


def test_center_order_read_off_the_highest_root_is_the_family_rule():
    # every buildable type: z = 1 + #{i : theta_i = 1} gives the bound that the per-family z gives
    first = {"A": 1, "B": 2, "C": 3, "D": 4}
    types = [SimpleType(f, n) for f, lo in first.items() for n in range(lo, MAX_RANK + 1)]
    types += [SimpleType.parse(t) for t in EXC]
    assert len(types) == 127
    for t in types:
        z, h = family_center_order(t), build_root_datum(t).coxeter_number
        height_term = (h - 1) * z if z % 2 == 0 else (2 * h - 2) * z
        assert lifting_prime_bounds(t).maximal_image_bound == 1 + max(8 * z, height_term), t
