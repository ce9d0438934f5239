#!/usr/bin/env python3
"""fleet_top: top-style per-bed view of a cluster telemetry stream.

Drives the ``cluster_simspeed`` scenario — or, with ``--fleet``, the
sharded KV fleet (``fleet_simspeed``) — with the fleet telemetry plane
attached (or reads a previously exported stream) and renders a per-bed
table — requests, tail latency, PU utilization, queue peaks, hot keys
— plus optional SLO burn-rate alerting::

    PYTHONPATH=src python tools/fleet_top.py                    # table
    PYTHONPATH=src python tools/fleet_top.py --fleet            # KV fleet
    PYTHONPATH=src python tools/fleet_top.py --jsonl out.jsonl  # raw stream
    PYTHONPATH=src python tools/fleet_top.py --json -           # summary
    PYTHONPATH=src python tools/fleet_top.py \\
        --slo ci/cluster_slo.json --fail-on-burn                # CI gate
    PYTHONPATH=src python tools/fleet_top.py --input run.jsonl  # offline

The stream is deterministic — byte-identical between sharded and
serial drives of the same scenario (``--serial`` to check) — so every
export is diffable run to run.

Exit codes: 0 ok; 1 SLO burn alert fired under ``--fail-on-burn``;
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


def run_cluster(args):
    from repro.bench.cluster import build_cluster

    # This tool attaches its own fleet with the requested window.
    scenario = build_cluster(num_beds=args.beds,
                             clients_per_bed=args.clients,
                             requests_per_client=args.requests,
                             telemetry_path="")
    fleet = scenario.attach_telemetry(window_ns=args.window)
    fingerprint, measures = scenario.run(serial=args.serial)
    return fleet.records, fingerprint, measures


def run_fleet(args):
    from repro.bench.fleet import build_fleet

    # --beds are shards here; --clients/--requests keep their meaning.
    scenario = build_fleet(num_shards=args.beds,
                           clients_per_shard=args.clients,
                           requests_per_client=args.requests,
                           telemetry_path="", exemplars=0)
    fleet = scenario.attach_telemetry(window_ns=args.window,
                                      exemplars=args.exemplars)
    fingerprint, measures = scenario.run(serial=args.serial)
    return fleet.records, fingerprint, measures


def render_fleet(records, window_ns) -> str:
    from repro.bench import render_table
    from repro.obs.telemetry import summarize_records

    summaries = summarize_records(records)
    headers = ["bed", "req", "req/us", "p50", "p99", "p999", "pw p99",
               "util%", "sq^", "cq^", "wrs", "dma KB", "hot key"]
    rows = []
    for bed in sorted(summaries):
        s = summaries[bed]
        span_ns = (s["last_window"] - s["first_window"] + 1) * window_ns
        rate = s["requests"] / span_ns * 1000 if span_ns else 0.0
        latency = s["latency"] or {}
        pool_wait = s.get("pool_wait") or {}
        hot = next(iter(s["keys"].items()), None)
        rows.append([
            bed, str(s["requests"]), f"{rate:.2f}",
            str(latency.get("p50", "-")), str(latency.get("p99", "-")),
            str(latency.get("p999", "-")),
            str(pool_wait.get("p99", "-")),
            f"{s['util'] * 100:.1f}",
            str(s["sq_depth_max"]), str(s["cq_depth_max"]),
            str(s["wrs"]), f"{s['dma_bytes'] / 1024:.0f}",
            f"{hot[0]}x{hot[1]}" if hot else "-",
        ])
    windows = 1 + max(r["window"] for r in records) \
        - min(r["window"] for r in records)
    return render_table(
        headers, rows,
        title=f"fleet_top — {len(summaries)} beds, {windows} windows "
              f"x {window_ns}ns")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input", metavar="FILE.jsonl",
                        help="render an existing telemetry stream "
                             "instead of running the cluster")
    parser.add_argument("--fleet", action="store_true",
                        help="drive the sharded KV fleet "
                             "(fleet_simspeed) instead of the cluster; "
                             "--beds become shards")
    parser.add_argument("--beds", type=int, default=None,
                        help="cluster beds / fleet shards "
                             "(default 16 cluster, 8 fleet)")
    parser.add_argument("--clients", type=int, default=None,
                        help="clients per bed/shard "
                             "(default 1 cluster, 128 fleet)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client "
                             "(default 40 cluster, 3 fleet)")
    parser.add_argument("--serial", action="store_true",
                        help="drive the serial merge instead of the "
                             "sharded synchronizer (identical stream)")
    parser.add_argument("--window", type=int, metavar="NS",
                        help="telemetry window width in simulated ns")
    parser.add_argument("--exemplars", type=int, default=0, metavar="K",
                        help="with --fleet: keep the K slowest "
                             "requests' blame breakdowns per window "
                             "(see tools/tail_blame.py)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the per-bed summary as JSON "
                             "('-' for stdout)")
    parser.add_argument("--jsonl", metavar="FILE",
                        help="write the raw window record stream as "
                             "JSONL ('-' for stdout)")
    parser.add_argument("--slo", metavar="RULES.json",
                        help="evaluate SLO burn-rate rules over the "
                             "stream")
    parser.add_argument("--fail-on-burn", action="store_true",
                        help="exit 1 if any SLO burn alert fires")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the table (exports/alerts only)")
    args = parser.parse_args(argv)
    if args.exemplars and not args.fleet:
        parser.error("--exemplars requires --fleet")

    from repro.obs.telemetry import (DEFAULT_WINDOW_NS, evaluate_slo,
                                     load_records, load_slo_rules,
                                     summarize_records)

    if args.beds is None:
        args.beds = 8 if args.fleet else 16
    if args.clients is None:
        args.clients = 128 if args.fleet else 1
    if args.requests is None:
        args.requests = 3 if args.fleet else 40

    if args.input:
        if args.window:
            parser.error("--window only applies when running a "
                         "scenario, not with --input")
        try:
            records = load_records(args.input)
        except (OSError, ValueError) as exc:
            print(f"fleet_top: cannot read {args.input}: {exc}",
                  file=sys.stderr)
            return 2
        if not records:
            print(f"fleet_top: {args.input} holds no telemetry records",
                  file=sys.stderr)
            return 2
        window_ns = records[0]["end_ns"] - records[0]["start_ns"]
    else:
        args.window = args.window or DEFAULT_WINDOW_NS
        label = "fleet" if args.fleet else "cluster"
        from repro.bench.fleet import FleetError
        try:
            runner = run_fleet if args.fleet else run_cluster
            records, fingerprint, measures = runner(args)
        except FleetError as exc:
            # Typed fleet failure: name the implicated beds and dead
            # simulated processes instead of a bare traceback.
            print(f"fleet_top: {label} run failed: {exc}",
                  file=sys.stderr)
            for bed, process in zip(exc.beds, exc.processes):
                print(f"fleet_top:   bed {bed}: {process}",
                      file=sys.stderr)
            return 2
        except Exception as exc:  # scenario misconfiguration
            print(f"fleet_top: {label} run failed: {exc}",
                  file=sys.stderr)
            return 2
        window_ns = args.window
        if not args.quiet:
            line = (f"{label}: {fingerprint['requests']} requests, "
                    f"frontier {fingerprint['frontier_ns']}ns, "
                    f"{measures['rounds']} rounds "
                    f"({'serial' if args.serial else 'sharded'})")
            if "aggregate_mops" in measures:
                line += f", {measures['aggregate_mops']:.3f} Mops"
            print(line, file=sys.stderr)

    if args.jsonl:
        text = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in records)
        if args.jsonl == "-":
            sys.stdout.write(text)
        else:
            Path(args.jsonl).write_text(text)
            print(f"wrote {len(records)} records to {args.jsonl}",
                  file=sys.stderr)
    if args.json:
        summaries = summarize_records(records)
        text = json.dumps({"window_ns": window_ns,
                           "beds": {bed: summaries[bed]
                                    for bed in sorted(summaries)}},
                          indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)

    if not args.quiet:
        print(render_fleet(records, window_ns))

    if args.slo:
        try:
            rules = load_slo_rules(args.slo)
        except (OSError, ValueError, TypeError) as exc:
            print(f"fleet_top: bad SLO rules {args.slo}: {exc}",
                  file=sys.stderr)
            return 2
        alerts = evaluate_slo(records, rules)
        for alert in alerts:
            print(alert.describe())
        if not alerts:
            print(f"SLO: {len(rules)} rule(s) clean over "
                  f"{len(records)} records")
        if alerts and args.fail_on_burn:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
