"""The monolab benchmark: one seeded closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; monolab is imported from ./src.  Each
workload run happens in a fresh child interpreter (worker.py), one at a time.

The worker makes three passes over one plan, each in its own seeded order
and from cold caches, and scales every time to the reference speed that
refspeed.py's probes between the ops read.  --trace 0 prints the end-to-end
metrics: wall_s (the median pass), op_p50_s and op_tail_s (order statistics
of each op's median over the passes), setup_s and peak_rss_mb.  --trace 1
runs the plan untraced and then for one traced pass, and prints the
per-layer metrics (self times summed per layer, plus counts) and the tracing
overhead, i.e. the difference of the two runs' wall_s.  Both print a report
and then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  The spans of a traced run
are written to .perfbench/trace-WORKLOAD-seedN.json.

An op fails if it raises or its answer fails its check; failed ops are counted
in `failed`.  `correct` is false when a run-level check fails: an op list too
short for a tail percentile, a repeated type in lie-scan, or two passes or
runs of one seed whose output digests differ.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sl2-cohomology", "lie-scan", "small-group-oracle")
SETUP_RUNS = 7
TAIL_BEYOND = 10
DEADLINE_S = 170  # every invocation ends within 180 s

# the one-time set-up every CLI call pays: importing the CLI (and with it
# every layer), the data-file sync check and the 10^6 trial-division sieve
SETUP_CODE = (
    "import monolab.cli\n"
    "from monolab import fixtures\n"
    "from monolab.prime_scan import factor\n"
    "fixtures.assert_data_file_sync()\n"
    "factor(2)\n"
)
# then, in the same interpreter, three probes of the machine's speed: their
# median slowdown and their own time, which the sample leaves out
PROBE_CODE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from refspeed import probe\n"
    "t0 = time.perf_counter()\n"
    "slowdown = statistics.median(probe()[1] for _ in range(3))\n"
    "print(slowdown, time.perf_counter() - t0)\n"
)

TIMED_LAYERS = (
    "rootsys.datum",
    "chevalley.build",
    "chevalley.jacobi",
    "principal_sl2.triple",
    "principal_sl2.kostant",
    "principal_sl2.string_rows",
    "exact.det_mod",
    "prime_scan.scan",
    "prime_scan.factor",
    "selmer_arith.bounds",
    "group_cohomology.close",
    "group_cohomology.module",
    "group_cohomology.h1",
    "group_cohomology.h1_naive",
    "group_cohomology.adjoint",
    "group_cohomology.abelianization",
)

COUNTS = {
    "rootsys.positive_roots": "count",
    "chevalley.table_triples": "count",
    "chevalley.jacobi_triples": "count",
    "exact.det_mod_calls": "count",
    "exact.det_mod_dim": "count",
    "prime_scan.factor_calls": "count",
    "prime_scan.max_coeff_bits": "bits",
    "group_cohomology.group_order": "count",
    "group_cohomology.nontree_edges": "count",
    "group_cohomology.constraint_rows": "count",
    "group_cohomology.constraint_cols": "count",
    "group_cohomology.rank": "count",
    "group_cohomology.naive_rows": "count",
    "group_cohomology.naive_cols": "count",
    "group_cohomology.naive_rank": "count",
    "group_cohomology.est_bytes": "bytes",
    "group_cohomology.est_bytes_frac_of_budget": "frac",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline: float, runs: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of `runs` fresh interpreters doing the set-up.

    Each interpreter then probes its own speed (refspeed.py); the scaled
    sample is the raw one over that slowdown, as the worker scales op times.
    Each child is awaited with a blocking read and wait, and a watchdog kills
    it at the deadline: a wait with a timeout polls at intervals of up to
    50 ms, which would round every sample up to that grain.
    """
    cmd = [sys.executable, "-c", SETUP_CODE + PROBE_CODE, str(HERE)]
    raw, scaled = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.time()), proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with code {proc.returncode}")
        slowdown, probed = map(float, out.split())
        raw.append(wall - probed)
        scaled.append(raw[-1] / slowdown)
    return raw, scaled


def run_worker(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), "1" if traced else "0"]
    proc = subprocess.run(
        cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.time())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_times(run: dict) -> list[float]:
    """Each op's median time over the run's passes, sorted."""
    return sorted(statistics.median(o["seconds"]) for o in run["ops"])


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    k = len(times) - TAIL_BEYOND - 1
    return times[k], (100 * (k + 1)) // len(times)


def run_checks(run: dict) -> list[str]:
    problems = []
    if len(run["ops"]) <= TAIL_BEYOND:
        problems.append(f"only {len(run['ops'])} ops; op_tail_s needs more than {TAIL_BEYOND}")
    if run["workload"] == "lie-scan":
        types = [o["op"]["type"] for o in run["ops"]]
        if len(set(types)) != len(types):
            problems.append("lie-scan repeated a type within one pass")
    if len(set(run["digests"])) != 1:
        problems.append("passes over one plan produced different digests")
    return problems


def self_times(spans: list) -> dict:
    """Sum of self time per span name: duration minus the direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def end_to_end(run: dict, setup_s: float) -> dict:
    times = op_times(run)
    return {
        "wall_s": (run["wall_s"], "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail(times)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    selfs = self_times(traced["spans"])
    counters = traced["counters"]
    out = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in TIMED_LAYERS}
    out.update({name: (counters.get(name, 0), unit) for name, unit in COUNTS.items()})

    def ratio(num, den):
        return num / den if den else 0.0

    out["chevalley.jacobi_triples_per_s"] = (
        ratio(counters.get("chevalley.jacobi_triples", 0), selfs.get("chevalley.jacobi", 0.0)),
        "1/s",
    )
    out["group_cohomology.h1_rows_per_s"] = (
        ratio(counters.get("group_cohomology.constraint_rows", 0), selfs.get("group_cohomology.h1", 0.0)),
        "1/s",
    )
    out["group_cohomology.rows_useful_frac"] = (
        ratio(counters.get("group_cohomology.rank", 0), counters.get("group_cohomology.constraint_rows", 0)),
        "frac",
    )
    out["bench.harness_s"] = (selfs.get("op", 0.0), "s")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    out["trace.overhead_frac"] = (ratio(traced["wall_s"] - plain["wall_s"], plain["wall_s"]), "frac")
    return out


def report(run: dict, metrics: dict):
    ops = run["ops"]
    failed = [o for o in ops if o["error"]]
    times = op_times(run)
    value, pct = tail(times) if len(times) > TAIL_BEYOND else (float("nan"), 0)
    checks = {}
    for o in ops:
        checks[o["check"]] = checks.get(o["check"], 0) + 1
    passes = len(run["pass_walls"])
    print(f"workload {run['workload']}  seed {run['seed']}  closed loop, 1 client, {len(ops)} ops, {passes} passes")
    print(f"  op_tail_s is p{pct}: {TAIL_BEYOND} of {len(ops)} ops took longer than {value:.6f} s (median over passes)")
    print(f"  failed_frac = {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)} ops)")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in sorted(checks.items())))
    for o in failed[:20]:
        op = {k: v for k, v in o["op"].items() if k not in ("id", "cost_key")}
        print(f"  FAILED {op}: {o['error']}")
    print(f"  digest {run['digests'][0]}")
    print("  scaled pass walls: " + ", ".join(f"{w:.3f} s" for w in run["pass_walls"]))
    print("  raw pass walls: " + ", ".join(f"{w:.3f} s" for w in run["raw_pass_walls"]))
    print(f"  slowdown: probe time / reference = {run['speed']:.4f}")
    for name, (val, unit) in metrics.items():
        print(f"  {name} = {val:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "monolab" / "__init__.py").is_file():
        print(f"error: no monolab sources under {SRC}; run from a monolab checkout", file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    if args.trace:
        plain = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        run = run_worker(args.workload, args.seed, args.seconds, True, deadline)
        metrics = per_layer(plain, run)
        problems = run_checks(run)
        if plain["digests"][0] != run["digests"][0]:
            problems.append("two runs of one seed produced different digests")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({k: run[k] for k in ("workload", "seed", "spans", "counters")}))
    else:
        # half the set-up samples before the run and half after, so that their
        # median does not hang on the machine's state at one moment
        measure_setup(deadline, 1)  # writes the bytecode caches
        raw, scaled = measure_setup(deadline, SETUP_RUNS // 2)
        run = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        more_raw, more_scaled = measure_setup(deadline, SETUP_RUNS - SETUP_RUNS // 2)
        print(f"set-up: raw median {statistics.median(raw + more_raw):.6f} s")
        metrics = end_to_end(run, statistics.median(scaled + more_scaled))
        problems = run_checks(run)
    report(run, metrics)
    for p in problems:
        print(f"  RUN CHECK FAILED: {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(run["ops"]),
                "failed": sum(1 for o in run["ops"] if o["error"]),
                "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
