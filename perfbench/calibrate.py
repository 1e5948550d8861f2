"""Measure every candidate op and write the cost table ``costs.json``.

    PYTHONPATH=src python3 perfbench/calibrate.py WORKLOAD [WORKLOAD ...]

The table only sizes and shapes plans (see workloads.build_plan); no metric
reads it.  Its costs are seconds at refspeed's reference speed, as the
benchmark's times are.  It was measured at the commit that added the
benchmark, on 2 CPUs with Python 3.11 and numpy 2.4.  Re-running it changes the op lists, so do
that only in a change of its own, never in a change that claims a gain.
Candidates are timed in order of growing size within their group (one ell,
one Lie family or one small group); after one takes more than 1.5 times the
largest MAX_OP_COST_S, the rest of its group is skipped and gets no entry.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

from monolab import fixtures
from monolab.group_cohomology import sl2_group
from monolab.prime_scan import factor

from refspeed import probe, speed
from worker import Ctx
from workloads import CANDIDATES, MAX_OP_COST_S, SL2_PRIMES, WrongAnswer, exponents, instantiate, run_op

COSTS = Path(__file__).with_name("costs.json")
TOO_SLOW = 1.5 * max(MAX_OP_COST_S.values())


def time_op(op) -> float:
    """Median of three timings, each scaled to the reference speed by the
    refspeed probes around it, as the worker scales its op times.  A first
    timing over TOO_SLOW is taken alone: such an op is never drawn."""
    samples = []
    for _ in range(3):
        around = [probe(), probe()]
        t0 = time.perf_counter()
        try:
            run_op(op, Ctx(traced=False))
        except WrongAnswer:
            pass
        raw = time.perf_counter() - t0
        around += [probe(), probe()]
        samples.append(raw / speed(around))
        gc.collect()  # as the worker does between ops
        gc.freeze()
        if samples[0] > TOO_SLOW:
            break
    return statistics.median(samples)


def group_key(key: str) -> str:
    """Candidates whose cost grows along the list: one ell, one family or one group."""
    parts = key.split("/")
    if parts[0] == "lie":
        return "lie/" + parts[1][0]
    return "/".join(parts[:-1])


def calibrate(workload: str) -> dict:
    costs = {}
    if workload == "sl2-cohomology":
        for ell in SL2_PRIMES:
            around = [probe(), probe()]
            t0 = time.perf_counter()
            sl2_group(ell)
            raw = time.perf_counter() - t0
            around += [probe(), probe()]
            costs[f"fixed/{workload}/close/{ell}"] = raw / speed(around)
    rng = random.Random(0)
    too_slow = set()
    cands = CANDIDATES[workload]()
    if workload == "small-group-oracle":
        cands.sort(key=lambda c: (group_key(c[0]), c[1]["dim"]))
    for key, template in cands:
        if template["kind"] == "adjoint":
            ell = template["ell"]
            parts = [costs.get(f"h1/{ell}/{2 * m}", float("inf")) for m in set(exponents(template["type"]))]
            if sum(parts) > TOO_SLOW:
                continue
        elif group_key(key) in too_slow:
            continue
        costs[key] = time_op(instantiate(dict(template), key, rng))
        print(f"{key}: {costs[key]:.4f}", file=sys.stderr, flush=True)
        if costs[key] > TOO_SLOW:
            too_slow.add(group_key(key))
    return costs


if __name__ == "__main__":
    fixtures.assert_data_file_sync()
    factor(2)
    table = json.loads(COSTS.read_text()) if COSTS.exists() else {}
    for name in sys.argv[1:]:
        stale = {k for k, _ in CANDIDATES[name]()}
        table = {k: v for k, v in table.items() if k not in stale and not k.startswith(f"fixed/{name}/")}
        table.update(calibrate(name))
    COSTS.write_text(json.dumps({k: round(v, 5) for k, v in sorted(table.items())}, indent=1) + "\n")

