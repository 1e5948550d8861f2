"""One workload run in a fresh interpreter: ``worker.py WORKLOAD SEED SECONDS TRACE``.

Runs the seeded plan as a closed loop with one client (one op after another,
no threads) and prints one JSON object: per-op times and verdicts, the run
digest, wall times, peak RSS and, when TRACE is 1, the spans and counters.
run.py starts this in its own process for every run, so each run is cold and
its peak RSS is its own.

An untraced run makes PASSES passes over one plan of SECONDS / PASSES of
calibrated cost, each pass in its own seeded order and from cold caches, so
every op is timed PASSES times at moments spread over the run.  A traced run
makes one pass.  Every time is scaled to the reference speed read by the
refspeed probes between the ops; the raw times are kept beside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from monolab import fixtures
from monolab.group_cohomology import sl2_group
from monolab.prime_scan import factor

from refspeed import probe, speed
from workloads import WrongAnswer, build_plan, h1_counts, run_op

COSTS = Path(__file__).with_name("costs.json")
PASSES = 3
PROBE_EVERY_S = 0.1


class Ctx:
    """Calls into monolab on behalf of one run; records spans when traced.

    A span is [name, start, end, parent span index, op id], kept in memory
    and returned at the end of the run.  Untraced, `call` is a plain call.
    """

    def __init__(self, traced: bool):
        self.spans = [] if traced else None
        self.counters = {} if traced else None
        self.op_id = None
        self._stack = []
        self._closed = set()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        if self.spans is None:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def add(self, name: str, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def first_closure(self, ell, G):
        """Count a group closure once; sl2_group caches SL2(F_ell) per ell."""
        if self.counters is None or (ell is not None and ell in self._closed):
            return
        self._closed.add(ell)
        self.add("group_cohomology.group_order", G.order)

    def count_h1(self, G, M, rep, naive=None):
        if self.counters is None:
            return
        counts, est, frac = h1_counts(G, M, rep, naive)
        for name, value in counts.items():
            self.add(name, value)
        self.peak("group_cohomology.est_bytes", est)
        self.peak("group_cohomology.est_bytes_frac_of_budget", frac)


def execute(plan: list[dict], ctx: Ctx, probes: list | None = None) -> tuple[list[dict], str, float]:
    """Run the ops one after another; returns per-op records, digest and wall time.

    With a `probes` list, the reference kernel runs before the first op and
    then after an op whenever PROBE_EVERY_S has passed since the last probe,
    and its samples go into the list.  The wall time leaves the probes out.
    """
    traced = ctx.spans is not None
    ops, canon = [], []
    start = time.perf_counter()
    probed, last_probe = 0.0, -math.inf

    def maybe_probe():
        nonlocal probed, last_probe
        t = time.perf_counter()
        if probes is not None and t - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
            probed += last_probe - t

    maybe_probe()
    for op in plan:
        ctx.op_id = op["id"]
        t0 = time.perf_counter()
        try:
            if traced:
                with ctx.span("op"):
                    result, check = run_op(op, ctx)
            else:
                result, check = run_op(op, ctx)
            error = None
        except WrongAnswer as exc:
            result, check, error = None, "wrong-answer", str(exc)
        except Exception as exc:  # a raising op is a failed op; keep the loop going
            result, check, error = None, "raised", f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        ops.append({"op": op, "seconds": t1 - t0, "at": (t0 + t1) / 2, "check": check, "error": error})
        # free what the op left behind, and keep what stays cached (the SL2
        # closures) out of later ops' collections, as in a fresh process
        gc.collect()
        gc.freeze()
        canon.append([op["id"], {k: v for k, v in op.items() if k != "id"}, result, error])
        maybe_probe()
    wall = time.perf_counter() - start - probed
    # in op id order, so that every pass over one plan has the same digest
    canon.sort(key=lambda c: c[0])
    return ops, hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest(), wall


def scale(records: list[dict], wall: float, probes: list) -> float:
    """Scale a pass's op times and wall time to the reference speed.

    Each op is divided by the slowdown of the probes nearest to it; the wall
    time's remainder (the harness's gc between ops) by the pass's median
    slowdown.  The raw op times are kept as raw_seconds.
    """
    rest = wall
    scaled = 0.0
    for rec in records:
        rest -= rec["seconds"]
        rec["raw_seconds"] = rec["seconds"]
        rec["seconds"] /= speed(probes, rec["at"])
        scaled += rec["seconds"]
    return scaled + rest / speed(probes)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # the one-time set-up every CLI call pays; setup_s measures it separately
    fixtures.assert_data_file_sync()
    factor(2)
    plan = build_plan(workload, seed, seconds / PASSES, json.loads(COSTS.read_text()))
    rng = random.Random(f"{workload}/{seed}/order")
    ctx = Ctx(traced)
    passes, probes = [], []
    for k in range(1 if traced else PASSES):
        order = list(plan)
        if k:
            rng.shuffle(order)
        # every pass starts cold: no SL2 closure cached, nothing frozen
        sl2_group.cache_clear()
        gc.unfreeze()
        gc.collect()
        pass_probes = []
        records, digest, wall = execute(order, ctx, pass_probes)
        passes.append((records, digest, scale(records, wall, pass_probes), wall))
        probes += pass_probes
    ops = {}
    for records, _, _, _ in passes:
        for rec in records:
            op = ops.setdefault(rec["op"]["id"], dict(rec, seconds=[], raw_seconds=[], at=[]))
            for key in ("seconds", "raw_seconds", "at"):
                op[key].append(rec[key])
            if rec["error"] and not op["error"]:
                op.update(check=rec["check"], error=rec["error"])
    return {
        "workload": workload,
        "seed": seed,
        "ops": [ops[i] for i in sorted(ops)],
        "pass_walls": [wall for _, _, wall, _ in passes],
        "raw_pass_walls": [raw for _, _, _, raw in passes],
        "wall_s": statistics.median(wall for _, _, wall, _ in passes),
        "digests": [digest for _, digest, _, _ in passes],
        "speed": speed(probes),
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": ctx.spans,
        "counters": ctx.counters,
    }


if __name__ == "__main__":
    name, seed, seconds, trace = sys.argv[1:5]
    print(json.dumps(run(name, int(seed), float(seconds), trace == "1")))
