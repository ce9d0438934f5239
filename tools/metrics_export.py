#!/usr/bin/env python3
"""metrics_export: dump a simulation's metrics as OpenMetrics text.

Runs one of the built-in offload scenarios (the same runners
``latency_profile.py`` uses), folds the critical-path profiler's
per-phase histograms into the simulator's MetricsRegistry, and writes
the whole registry — kernel gauges, NIC/driver counters, histograms —
in OpenMetrics/Prometheus text exposition format::

    PYTHONPATH=src python tools/metrics_export.py                 # stdout
    PYTHONPATH=src python tools/metrics_export.py -o metrics.prom
    PYTHONPATH=src python tools/metrics_export.py --offload recycled-get

With ``--blame STREAM.jsonl`` it instead exports the tail-blame
rollup of a fleet telemetry stream (written with exemplars on, see
``tools/tail_blame.py``) as (phase, shard)-labeled counters —
``blame_phase_ns_total{shard="shard3", key="pool_wait"}`` — one
labeled registry per shard via ``to_openmetrics_multi``.

The output is deterministic for a given scenario and parses back with
``repro.obs.parse_openmetrics`` (the round-trip the test suite checks),
so it can double as a golden artifact for dashboard ingestion tests.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
for path in (str(SRC), str(REPO_ROOT / "tools")):
    if path not in sys.path:
        sys.path.insert(0, path)

from _offload_runners import OFFLOADS, run_offload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--offload", choices=sorted(OFFLOADS),
                        default="hash-lookup",
                        help="scenario to run (default hash-lookup)")
    parser.add_argument("--calls", type=int, default=4,
                        help="offload calls to issue (default 4)")
    parser.add_argument("--blame", metavar="STREAM.jsonl",
                        help="export a fleet telemetry stream's "
                             "tail-blame rollup as (phase, shard)-"
                             "labeled counters instead of running an "
                             "offload scenario")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write to FILE instead of stdout")
    parser.add_argument("--label", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="constant label added to every sample "
                             "(repeatable; e.g. --label bed=server-0 "
                             "keeps multi-bed exports from colliding)")
    args = parser.parse_args(argv)

    labels = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep or not key:
            parser.error(f"--label wants KEY=VALUE, got {item!r}")
        labels[key] = value

    if args.blame:
        from repro.obs import blame_registries, to_openmetrics_multi
        from repro.obs.telemetry import load_records
        if labels:
            parser.error("--label does not combine with --blame "
                         "(samples are shard-labeled already)")
        try:
            records = load_records(args.blame)
        except (OSError, ValueError) as exc:
            print(f"metrics_export: cannot read {args.blame}: {exc}",
                  file=sys.stderr)
            return 2
        registries = blame_registries(records)
        if not registries:
            print(f"metrics_export: {args.blame} holds no blame "
                  "exemplars", file=sys.stderr)
            return 2
        text = to_openmetrics_multi(registries, label="shard")
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote {len(text.splitlines())} lines to "
                  f"{args.output}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0

    from repro.obs import profile_tracer

    from repro.obs import Tracer

    run = run_offload(
        args.offload, args.calls,
        instrument=lambda bed, label: Tracer(bed.sim, name=label))
    registry = run["bed"].sim.metrics
    profile_tracer(run["instrument"]).record_metrics(registry)
    text = registry.to_openmetrics(labels=labels or None)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
