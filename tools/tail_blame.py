#!/usr/bin/env python3
"""tail_blame: who owns the fleet's p99 — per-(shard, queue, phase).

Drives the sharded KV fleet (``fleet_simspeed``) with tail exemplar
capture on — each telemetry window keeps the K slowest requests' full
blame breakdowns (:mod:`repro.obs.blame`) — and rolls them up into the
per-(shard, queue, phase) table that answers "which queue on which
shard causes the tail"::

    PYTHONPATH=src python tools/tail_blame.py                 # table
    PYTHONPATH=src python tools/tail_blame.py --json -        # summary
    PYTHONPATH=src python tools/tail_blame.py --flame out.folded
    PYTHONPATH=src python tools/tail_blame.py --input run.jsonl
    PYTHONPATH=src python tools/tail_blame.py \\
        --fail-if pool_wait\\>2500                             # CI gate
    PYTHONPATH=src python tools/tail_blame.py \\
        --budgets ci/fleet_blame.json                         # CI gate
    PYTHONPATH=src python tools/tail_blame.py \\
        --diff baseline.json                                  # regression

Budget gates compare each phase's **mean blame ns per tail exemplar**
(the ``mean_ns`` field of the ``--json`` summary) against the budget.
``--diff`` takes a previous ``--json`` summary and attributes the p99
delta to the phase and shard means that moved.

Every number is simulated time, so the output is byte-identical
between the sharded and serial drives (``--serial`` to check) and
diffable run to run.

Exit codes: 0 ok; 1 a ``--fail-if``/``--budgets`` gate tripped;
2 scenario/input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
for path in (str(SRC), str(REPO_ROOT / "tools")):
    if path not in sys.path:
        sys.path.insert(0, path)

DEFAULT_EXEMPLARS = 8


def run_fleet(args):
    from repro.bench.fleet import build_fleet

    scenario = build_fleet(num_shards=args.shards,
                           clients_per_shard=args.clients,
                           requests_per_client=args.requests,
                           telemetry_path="", exemplars=0)
    fleet = scenario.attach_telemetry(window_ns=args.window,
                                      exemplars=args.exemplars)
    fingerprint, measures = scenario.run(serial=args.serial)
    return fleet.records, fingerprint, measures


def parse_gate(text: str):
    """One ``PHASE>NS`` gate; returns ``(phase, budget_ns)``."""
    from repro.obs.blame import BLAME_PHASES

    phase, sep, budget = text.partition(">")
    if not sep or phase not in BLAME_PHASES:
        raise ValueError(
            f"want PHASE>NS with PHASE in {'/'.join(BLAME_PHASES)}, "
            f"got {text!r}")
    return phase, float(budget)


def load_budgets(path: str):
    """A budgets file: ``{"phase_mean_ns": {"pool_wait": 2500, ...}}``."""
    from repro.obs.blame import BLAME_PHASES

    doc = json.loads(Path(path).read_text())
    budgets = doc.get("phase_mean_ns")
    if not isinstance(budgets, dict):
        raise ValueError("budgets file wants a phase_mean_ns object")
    for phase in budgets:
        if phase not in BLAME_PHASES:
            raise ValueError(f"unknown blame phase {phase!r}")
    return {phase: float(ns) for phase, ns in budgets.items()}


def render_blame(summary: dict) -> str:
    from repro.bench import render_table

    headers = ["shard", "queue", "phase", "ns", "req", "share%"]
    total = summary["exemplar_latency_sum_ns"] or 1
    rows = [[f"shard{row['shard']}", row["queue"] or "-", row["phase"],
             str(row["ns"]), str(row["requests"]),
             f"{row['ns'] / total * 100:.1f}"]
            for row in summary["table"]]
    p99 = summary["p99_ns"]
    return render_table(
        headers, rows,
        title=f"tail_blame — {summary['exemplars']} exemplars / "
              f"{summary['requests']} requests, stream p99 "
              f"{p99 if p99 is not None else '-'}ns")


def render_diff(diff: dict) -> str:
    from repro.bench import render_table

    rows = [[row["phase"], f"{row['mean_ns']:.1f}",
             f"{row['baseline_mean_ns']:.1f}",
             f"{row['delta_ns']:+.1f}"] for row in diff["phases"]]
    rows += [[f"shard {row['shard']}", f"{row['mean_ns']:.1f}",
              f"{row['baseline_mean_ns']:.1f}",
              f"{row['delta_ns']:+.1f}"] for row in diff["shards"]
             if row["delta_ns"]]
    delta = diff["p99_delta_ns"]
    title = (f"tail_blame diff — p99 {diff['p99_ns']}ns vs "
             f"{diff['baseline_p99_ns']}ns"
             + (f" ({delta:+d}ns)" if delta is not None else ""))
    return render_table(["blame", "mean ns", "baseline", "delta"],
                        rows, title=title)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input", metavar="FILE.jsonl",
                        help="roll up an existing telemetry stream "
                             "(with exemplars) instead of running")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--clients", type=int, default=128,
                        help="clients per shard (default 128)")
    parser.add_argument("--requests", type=int, default=3,
                        help="requests per client (default 3)")
    parser.add_argument("--exemplars", type=int,
                        default=DEFAULT_EXEMPLARS, metavar="K",
                        help="slowest requests kept per window "
                             f"(default {DEFAULT_EXEMPLARS})")
    parser.add_argument("--window", type=int, metavar="NS",
                        help="telemetry window width in simulated ns")
    parser.add_argument("--serial", action="store_true",
                        help="drive the serial merge (identical blame)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the blame summary as JSON "
                             "('-' for stdout)")
    parser.add_argument("--flame", metavar="FILE",
                        help="write flamegraph folded stacks "
                             "(shard;queue;phase ns; '-' for stdout)")
    parser.add_argument("--diff", metavar="BASELINE.json",
                        help="attribute the p99 delta against a "
                             "previous --json summary")
    parser.add_argument("--fail-if", action="append", default=[],
                        metavar="PHASE>NS",
                        help="exit 1 if the phase's mean blame ns per "
                             "exemplar exceeds NS (repeatable)")
    parser.add_argument("--budgets", metavar="BUDGETS.json",
                        help="phase_mean_ns budgets file; each entry "
                             "acts like a --fail-if gate")
    parser.add_argument("--history", metavar="FILE.json",
                        help="append phase means to a bench_history "
                             "file under the tail_blame figure")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the table (exports/gates only)")
    args = parser.parse_args(argv)

    gates = {}
    try:
        if args.budgets:
            gates.update(load_budgets(args.budgets))
        for text in args.fail_if:
            phase, budget = parse_gate(text)
            gates[phase] = budget
    except (OSError, ValueError) as exc:
        print(f"tail_blame: bad budget: {exc}", file=sys.stderr)
        return 2

    from repro.obs.blame import diff_blame, folded_blame, summarize_blame
    from repro.obs.telemetry import load_records

    if args.input:
        if args.window:
            parser.error("--window only applies when running the "
                         "fleet, not with --input")
        try:
            records = load_records(args.input)
        except (OSError, ValueError) as exc:
            print(f"tail_blame: cannot read {args.input}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        from repro.obs.telemetry import DEFAULT_WINDOW_NS
        args.window = args.window or DEFAULT_WINDOW_NS
        try:
            records, fingerprint, measures = run_fleet(args)
        except Exception as exc:  # scenario misconfiguration
            print(f"tail_blame: fleet run failed: {exc}",
                  file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"fleet: {fingerprint['requests']} requests, "
                  f"frontier {fingerprint['frontier_ns']}ns, p99 "
                  f"{fingerprint['p99_ns']}ns "
                  f"({'serial' if args.serial else 'sharded'})",
                  file=sys.stderr)

    summary = summarize_blame(records)
    if not summary["exemplars"]:
        print("tail_blame: stream holds no exemplars (run with "
              "--exemplars K, or export one via fleet_top --fleet "
              "--exemplars K --jsonl)", file=sys.stderr)
        return 2

    if args.json:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)
    if args.flame:
        text = "".join(line + "\n" for line in folded_blame(records))
        if args.flame == "-":
            sys.stdout.write(text)
        else:
            Path(args.flame).write_text(text)
    if not args.quiet:
        print(render_blame(summary))

    if args.diff:
        try:
            baseline = json.loads(Path(args.diff).read_text())
            diff = diff_blame(summary, baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"tail_blame: bad baseline {args.diff}: {exc}",
                  file=sys.stderr)
            return 2
        print(render_diff(diff))

    if args.history:
        from bench_history import append_entry
        figs = {"tail_blame": {
            f"{phase}_mean_ns": summary["phases"][phase]["mean_ns"]
            for phase in summary["phases"]
            if summary["phases"][phase]["total_ns"]}}
        p99 = summary["p99_ns"]
        append_entry(args.history, figs=figs,
                     p99_ns={"tail_blame": p99} if p99 else None)
        print(f"appended tail_blame figures to {args.history}",
              file=sys.stderr)

    failed = False
    for phase in sorted(gates):
        mean = summary["phases"][phase]["mean_ns"]
        over = mean > gates[phase]
        failed = failed or over
        print(f"gate {phase}: mean {mean}ns vs budget "
              f"{gates[phase]:g}ns — {'FAIL' if over else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
