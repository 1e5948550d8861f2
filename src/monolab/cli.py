"""Command-line interface: one binary exposing every engine.

Subcommands: roots, kostant, primescan, cohomology, selmer, bounds,
verify-paper.  Data goes to stdout (or --out), diagnostics to stderr.  Exit
codes: 0 success, 1 usage or resource errors, 2 reference-fixture mismatch
under --check-paper / verify-paper.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .exact import is_prime
from .group_cohomology import (
    ResourceLimitError,
    adjoint_h1_via_kostant,
    h1,
    sl2_group,
    sym_module,
)
from .principal_sl2 import principal_kostant
from .prime_scan import build_report, check_against_reference
from .rootsys import MAX_RANK, SimpleType, build_root_datum
from .selmer_arith import SelmerLedger, lifting_prime_bounds, oddness_deficit, wiles_difference
from .verify import verify_paper

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            rows.extend(_flatten(doc[k], f"{prefix}{k}."))
    elif isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def _emit(doc: dict, ns: argparse.Namespace):
    if ns.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif ns.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten(doc):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        lines = [f"{key} = {value}" for key, value in _flatten(doc)]
        text = "\n".join(lines) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="monolab", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, with_type=True):
        if with_type:
            p.add_argument("--type", required=True, help=f"simple type, e.g. E6 or A3; classical ranks up to {MAX_RANK}")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("roots", help="root system report for a simple type")
    common(p)

    p = sub.add_parser("kostant", help="principal sl2 and centralizer eigenbasis")
    common(p)

    p = sub.add_parser("primescan", help="obstruction-prime scan")
    common(p)
    p.add_argument("--check-paper", action="store_true", help="compare against the bundled reference lists")

    p = sub.add_parser("cohomology", help="H^0/H^1 of SL2(F_ell) on symmetric powers")
    p.add_argument("mode", nargs="?", choices=("sweep",), help="run the adjoint sweep over a prime range")
    p.add_argument("--type", help=f"simple type (sweep mode); classical ranks up to {MAX_RANK}")
    p.add_argument("--ell", required=True, help="prime, or range like 13..31 in sweep mode")
    p.add_argument("--sym", type=int, help="symmetric power r")
    p.add_argument("--twist", type=int, default=None,
                   help="determinant twist exponent t for det^t (default -r//2); det = 1 on SL2: no matrix changes")
    common(p, with_type=False)

    p = sub.add_parser("selmer", help="evaluate the difference formulas on a ledger file")
    p.add_argument("--ledger", required=True)
    common(p, with_type=False)

    p = sub.add_parser("bounds", help="prime bounds for the lifting settings")
    common(p)

    p = sub.add_parser("verify-paper", help="run the full acceptance matrix")
    p.add_argument("--only", action="append", help="criterion name; repeatable")
    common(p, with_type=False)
    return ap


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed subcommand; returns the process exit code."""
    try:
        return _HANDLERS[ns.subcommand](ns)
    except (ValueError, OSError, ArithmeticError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_roots(ns: argparse.Namespace) -> int:
    _emit(build_root_datum(ns.type).to_json_dict(), ns)
    return EXIT_OK


def _cmd_kostant(ns: argparse.Namespace) -> int:
    _emit(principal_kostant(ns.type).to_json_dict(), ns)
    return EXIT_OK


def _cmd_primescan(ns: argparse.Namespace) -> int:
    rep = build_report(ns.type)
    doc = rep.to_json_dict()
    code = EXIT_OK
    if ns.check_paper:
        ok, expected, note = check_against_reference(rep)
        doc["check_paper"] = {"ok": ok, "expected": list(expected), "note": note}
        if not ok:
            got, want = set(rep.bad_primes), set(expected)
            print(
                f"reference mismatch for {rep.simple_type}:"
                f" unexpected {sorted(got - want)}, missing {sorted(want - got)}",
                file=sys.stderr,
            )
            code = EXIT_MISMATCH
    _emit(doc, ns)
    return code


def _cmd_cohomology(ns: argparse.Namespace) -> int:
    sweep = ns.mode == "sweep"
    if sweep:  # the options that only the other mode reads
        unread = {"--sym": ns.sym is not None, "--twist": ns.twist is not None}
    else:
        unread = {"--type": ns.type is not None}
    stray = [opt for opt, given in unread.items() if given]
    if stray:
        raise ValueError(f"{', '.join(stray)} not read {'in' if sweep else 'outside'} sweep mode")
    ell, is_range, hi = ns.ell.partition("..")
    bounds = (ell, hi) if is_range else (ell, ell)
    if not all(b.isascii() and b.isdigit() for b in bounds):  # str.isdecimal alone passes '١٣'
        raise ValueError(f"--ell {ns.ell}: expected a prime like 13, or a range like 13..31 in sweep mode")
    bounds = [b.lstrip("0") or "0" for b in bounds]
    if any(len(b) > 10 or int(b) >= 2**31 for b in bounds):  # before int() refuses 4,301 digits, and before a sweep
        raise ValueError(f"--ell {ns.ell}: primes are read only below 2**31")
    ell, hi = map(int, bounds)
    if hi < ell:
        raise ValueError(f"--ell {ns.ell}: the range runs downwards; expected low..high like 13..31")
    if sweep:
        if not ns.type:
            raise ValueError("sweep mode needs --type")
        t = SimpleType.parse(ns.type)  # an unknown type fails here, not silently in an empty range
        primes = [p for p in range(ell, hi + 1) if is_prime(p)]
        rows = [{"ell": p, "h1_total": adjoint_h1_via_kostant(t, p)} for p in primes]
        _emit({"simple_type": str(t), "sweep": rows}, ns)
        return EXIT_OK
    if is_range:
        raise ValueError(f"--ell {ns.ell}: a range is read only in sweep mode")
    if ns.sym is None:
        raise ValueError("--sym is needed outside sweep mode")
    if ns.sym < 0:  # checked here, as sym_module's message would name the internal twist -t
        raise ValueError(f"--sym {ns.sym}: expected a symmetric power r >= 0")
    twist = ns.twist if ns.twist is not None else -(ns.sym // 2)
    G = sl2_group(ell)
    M = sym_module(ell, ns.sym, -twist)
    doc = h1(G, M).to_json_dict()
    doc.update({"ell": ell, "sym": ns.sym, "twist": twist, "solver": "borel"})
    _emit(doc, ns)
    return EXIT_OK


def _cmd_selmer(ns: argparse.Namespace) -> int:
    with open(ns.ledger) as fh:
        ledger = SelmerLedger.from_json(fh.read())
    diff = wiles_difference(ledger)  # the one formula, reported under the Euler-grouping key as well
    _emit({"wiles_difference": diff, "oddness_deficit": oddness_deficit(ledger), "lgroup_euler_difference": diff}, ns)
    return EXIT_OK


def _cmd_bounds(ns: argparse.Namespace) -> int:
    _emit(lifting_prime_bounds(ns.type).to_json_dict(), ns)
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    try:  # verify_paper checks the fixture sync first
        results = verify_paper(only=ns.only)
    except AssertionError as exc:
        print(f"FAIL fixture-sync: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    # timing goes to stderr only, so the data stream is bit-identical across runs
    doc = {
        "criteria": [{"name": r.name, "ok": r.ok, "details": r.details} for r in results],
        "all_ok": all(r.ok for r in results),
    }
    for r in results:
        print(r.line(), file=sys.stderr)
    _emit(doc, ns)
    return EXIT_OK if doc["all_ok"] else EXIT_MISMATCH


_HANDLERS = {
    "roots": _cmd_roots,
    "kostant": _cmd_kostant,
    "primescan": _cmd_primescan,
    "cohomology": _cmd_cohomology,
    "selmer": _cmd_selmer,
    "bounds": _cmd_bounds,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
