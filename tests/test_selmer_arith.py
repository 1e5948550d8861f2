import json
import random

import pytest
from conftest import balanced_ledger, ledger_json_dict, reference_euler_difference

from monolab.fixtures import CENTER_ORDERS
from monolab.rootsys import MAX_RANK, SimpleType, build_root_datum
from monolab.selmer_arith import (
    LocalCondition,
    SelmerLedger,
    lifting_prime_bounds,
    local_dim,
    oddness_deficit,
    wiles_difference,
)

EXC = ("G2", "F4", "E6", "E7", "E8")


# -- local dimension catalog --------------------------------------------------


def test_local_dim_catalog():
    assert local_dim(LocalCondition("ordinary", h0_local=0, field_degree=1), 6) == 6
    assert local_dim(LocalCondition("ordinary", h0_local=3, field_degree=2), 6) == 15
    assert local_dim(LocalCondition("archimedean", h0_local=6), 6) == 0
    assert local_dim(LocalCondition("ramakrishna", h0_local=2), 6) == 2
    assert local_dim(LocalCondition("steinberg", h0_local=4), 6) == 4
    assert local_dim(LocalCondition("minimal", h0_local=5), 6) == 5
    assert local_dim(LocalCondition("unramified", h0_local=1), 6) == 1
    assert local_dim(LocalCondition("custom", h0_local=1, custom_dim=9), 6) == 9


def test_ordinary_surplus_identity():
    for degree in (1, 2, 3):
        for dim_n in (1, 6, 120):
            c = LocalCondition("ordinary", h0_local=4, field_degree=degree)
            u = LocalCondition("unramified", h0_local=4)
            assert local_dim(c, dim_n) - local_dim(u, dim_n) == degree * dim_n


def test_condition_validation():
    with pytest.raises(ValueError):
        LocalCondition("weird", 0)
    with pytest.raises(ValueError):
        LocalCondition("ordinary", -1)
    with pytest.raises(ValueError):
        LocalCondition("custom", 0)  # missing custom_dim
    with pytest.raises(ValueError):
        LocalCondition("steinberg", 0, custom_dim=3)  # spurious custom_dim
    for bad in (2.5, True, "2"):  # a dimension is an int, and a bool is not one
        with pytest.raises(ValueError, match="custom_dim must be an int"):
            LocalCondition("custom", 0, custom_dim=bad)
        with pytest.raises(ValueError, match="h0_local must be an int"):
            LocalCondition("minimal", bad)
    for kind in ("ramakrishna", "steinberg", "minimal", "archimedean", "unramified"):
        # a degree only the ordinary catalog entry reads would be dropped in silence
        with pytest.raises(ValueError, match=f"field_degree is read only when kind='ordinary', got it on kind='{kind}'"):
            LocalCondition(kind, 0, field_degree=3)
    with pytest.raises(ValueError, match="field_degree is read only"):
        LocalCondition("custom", 0, field_degree=1, custom_dim=2)
    assert LocalCondition("steinberg", 0, field_degree=0).field_degree == 0


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
            LocalCondition("unramified", 2),
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


def test_extra_ramakrishna_place_is_neutral():
    led = balanced_ledger("G2", 1)
    more = SelmerLedger(
        h0_global=led.h0_global,
        h0_global_twist=led.h0_global_twist,
        dim_n=led.dim_n,
        totally_real_degree=led.totally_real_degree,
        archimedean_fixed_dims=led.archimedean_fixed_dims,
        locals=led.locals + (LocalCondition("ramakrishna", 5),),
    )
    assert wiles_difference(more) == wiles_difference(led)


def test_archimedean_placement_rearrangement():
    base = balanced_ledger("F4", 2)
    moved = SelmerLedger(
        h0_global=base.h0_global,
        h0_global_twist=base.h0_global_twist,
        dim_n=base.dim_n,
        totally_real_degree=base.totally_real_degree,
        archimedean_fixed_dims=(),
        locals=base.locals
        + tuple(LocalCondition("archimedean", d) for d in base.archimedean_fixed_dims),
    )
    assert wiles_difference(base) == wiles_difference(moved)
    assert reference_euler_difference(base) == reference_euler_difference(moved)
    assert oddness_deficit(base) == oddness_deficit(moved)


def test_formulas_agree_on_random_ledgers():
    rng = random.Random(99)
    for _ in range(200):
        degree = rng.randrange(0, 4)
        n_in_locals = rng.randrange(0, degree + 1) if degree else 0
        conds = [LocalCondition("archimedean", rng.randrange(20)) for _ in range(n_in_locals)]
        for _ in range(rng.randrange(5)):
            kind = rng.choice(("ordinary", "ramakrishna", "steinberg", "minimal", "unramified", "custom"))
            conds.append(
                LocalCondition(
                    kind,
                    rng.randrange(20),
                    field_degree=rng.randrange(4) if kind == "ordinary" else 0,
                    custom_dim=rng.randrange(20) if kind == "custom" else None,
                )
            )
        led = SelmerLedger(
            h0_global=rng.randrange(4),
            h0_global_twist=rng.randrange(4),
            dim_n=rng.randrange(130),
            totally_real_degree=degree,
            archimedean_fixed_dims=tuple(rng.randrange(260) for _ in range(degree - n_in_locals)),
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
    with pytest.raises(ValueError):
        SelmerLedger(0, 0, 6, totally_real_degree=2, archimedean_fixed_dims=(6,))
    SelmerLedger(
        0, 0, 6, totally_real_degree=2,
        archimedean_fixed_dims=(6,), locals=(LocalCondition("archimedean", 6),),
    )


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
    """The center order of the simply connected group by family: n + 1 on A_n, 2 on B and C, 4 on D, else the fixture."""
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


# -- serialisation -----------------------------------------------------------


def test_ledger_json_round_trip():
    led = balanced_ledger("E7", 2)
    again = SelmerLedger.from_json(json.dumps(ledger_json_dict(led), indent=2, sort_keys=True))
    assert again == led
    doc = ledger_json_dict(led)
    assert doc["schema_version"] == 1


def test_ledger_schema_version_guard():
    doc = ledger_json_dict(balanced_ledger("G2", 1))
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        SelmerLedger.from_json_dict(doc)
