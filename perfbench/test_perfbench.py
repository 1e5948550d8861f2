"""Tests of the benchmark itself: wrong answers count as failed ops, plans and
digests are deterministic, and the harness refuses to run without monolab.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
import refspeed  # noqa: E402
from worker import PASSES, Ctx, execute, scale  # noqa: E402

COSTS = json.loads((HERE / "costs.json").read_text())


def plan_of(*ops):
    return [dict(op, id=i) for i, op in enumerate(ops)]


def failed(records):
    return [r for r in records if r["error"]]


H1_OP = {"kind": "h1", "ell": 7, "r": 4, "twist": 2}  # r = ell - 3, so h1 = 1
G2_OP = {"kind": "lie", "type": "G2", "jacobi_seed": 1}
BOREL_OP = {"kind": "borel", "ell": 5, "module": "sym1", "twist": 0, "dim": 2}


def off_by_one(fn):
    def wrong(*args):
        rep = fn(*args)
        return dataclasses.replace(rep, dim_Z1=rep.dim_Z1 + 1, h1=rep.h1 + 1)

    return wrong


def test_correct_answers_pass():
    records, _, _ = execute(plan_of(H1_OP, G2_OP, BOREL_OP), Ctx(traced=False))
    assert failed(records) == []
    assert [r["check"] for r in records] == ["closed-form", "independent", "agreement"]


def test_h1_off_by_one_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(workloads, "h1", off_by_one(workloads.h1))
    records, _, _ = execute(plan_of(H1_OP, dict(H1_OP, r=2)), Ctx(traced=False))
    assert len(failed(records)) == 2
    assert all(r["check"] == "wrong-answer" for r in records)


def test_missing_obstruction_prime_is_a_failed_op(monkeypatch):
    real = workloads.factor

    class Dropped:
        def __init__(self, f):
            self.f = f

        def primes(self):
            return tuple(p for p in self.f.primes() if p != 5)

    monkeypatch.setattr(workloads, "factor", lambda n: Dropped(real(n)))
    records, _, _ = execute(plan_of(G2_OP), Ctx(traced=False))
    assert "G2 primes" in failed(records)[0]["error"]


def test_streamed_naive_disagreement_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(workloads, "h1_naive", off_by_one(workloads.h1_naive))
    records, _, _ = execute(plan_of(BOREL_OP), Ctx(traced=False))
    assert "streamed" in failed(records)[0]["error"]


@pytest.mark.parametrize(
    "op, check",
    [
        ({"kind": "order3", "ell": 101, "module": "sym2+triv1", "twist": 1, "dim": 4}, "coprime"),
        ({"kind": "unipotent", "ell": 13, "module": "triv2", "twist": 0, "dim": 2}, "smith"),
        ({"kind": "unipotent", "ell": 5, "module": "sym4", "twist": 0, "dim": 5}, "closed-form"),
        ({"kind": "sl2", "ell": 7, "module": "sym1+triv1", "twist": 0, "dim": 3}, "closed-form+smith"),
        ({"kind": "sl2", "ell": 3, "module": "sym2", "twist": 0, "dim": 3}, "agreement"),
    ],
)
def test_each_op_records_its_check(op, check):
    records, _, _ = execute(plan_of(op), Ctx(traced=False))
    assert failed(records) == [] and records[0]["check"] == check


def test_digest_repeats_and_traced_run_matches():
    plan = plan_of(H1_OP, G2_OP, BOREL_OP)
    _, d1, _ = execute(plan, Ctx(traced=False))
    ctx = Ctx(traced=True)
    _, d2, _ = execute(plan, ctx)
    assert d1 == d2
    assert {s[0] for s in ctx.spans} >= {"op", "chevalley.build", "group_cohomology.h1", "group_cohomology.h1_naive"}
    assert ctx.counters["group_cohomology.naive_cols"] == 20 * 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_seeded(workload):
    a = workloads.build_plan(workload, 1, 20, COSTS)
    assert a == workloads.build_plan(workload, 1, 20, COSTS)
    assert a != workloads.build_plan(workload, 2, 20, COSTS)
    assert len(a) > bench.TAIL_BEYOND


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_one_cost_profile(workload):
    # the median and the 11th-slowest op compare across seeds only if each
    # seed's plan has (nearly) the same calibrated costs at those ranks
    for rank in (0.5, None):
        values = []
        for seed in range(1, 6):
            plan = workloads.build_plan(workload, seed, 21 / PASSES, COSTS)
            cost = sorted(COSTS[op["cost_key"]] for op in plan)
            values.append(cost[-bench.TAIL_BEYOND - 1] if rank is None else cost[len(cost) // 2])
        assert max(values) / min(values) < 1.12, values


def test_lie_scan_never_repeats_a_type():
    for seed in range(20):
        types = [op["type"] for op in workloads.build_plan("lie-scan", seed, 20, COSTS)]
        assert len(types) == len(set(types))


def test_times_scale_by_the_nearest_probes():
    # the machine runs at half speed around t=10 and at full speed around t=100
    probes = [(t, 2.0) for t in (8, 9, 10, 11, 12)] + [(t, 1.0) for t in (98, 99, 100, 101, 102)]
    records = [{"seconds": 4.0, "at": 10.0}, {"seconds": 1.0, "at": 100.0}]
    wall = scale(records, 6.0, probes)
    assert [r["seconds"] for r in records] == [2.0, 1.0]
    assert [r["raw_seconds"] for r in records] == [4.0, 1.0]
    # the 1 s between ops is scaled by the median of all probes
    assert wall == 3.0 + 1.0 / refspeed.speed(probes)


def test_probes_stay_out_of_the_wall_time_and_digest(monkeypatch):
    monkeypatch.setattr(refspeed, "_kernel", lambda: time.sleep(0.05))
    plan = plan_of(H1_OP, dict(H1_OP, r=2))
    probes = []
    t0 = time.perf_counter()
    records, digest, wall = execute(plan, Ctx(traced=False), probes)
    elapsed = time.perf_counter() - t0
    assert len(probes) >= 1 and failed(records) == []
    assert abs(elapsed - wall - 0.05 * len(probes)) < 0.01 * len(probes)
    # the digest is in op id order, so a pass in another order matches it
    assert digest == execute(plan[::-1], Ctx(traced=False))[1]


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 5.0, 6.0, 0, 0]]
    assert bench.self_times(spans) == {"op": 6.0, "a": 3.0, "b": 1.0}


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct = bench.tail(times)
    assert sum(1 for t in times if t > value) == bench.TAIL_BEYOND and pct == 75


def test_refuses_to_run_without_monolab(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
