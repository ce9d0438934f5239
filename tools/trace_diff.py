#!/usr/bin/env python
"""Diff two flight-recorder journals, reporting the first divergence.

Aligns two journals (``--journal OUT.jsonl`` dumps from the
benchmarks, or ``FlightRecorder.dump`` output) on **causal keys** —
queue + WR index, CQ + completion count — rather than wall order, so
one early perturbation does not drown the report in knock-on diffs.
Every difference is typed (``wqe_bytes`` with chain-IR field names,
``timing`` with the delta, ``missing``/``extra``, per-CQ
``cqe_count``), and the earliest one is printed together with a causal
slice of the events that fed it.

A tracer journal (``Tracer.dump``) is a journal too: it carries the
same causal records, slot bytes included, plus the trace's span records.

Exit status: 0 when causally identical; with ``--fail-on-divergence``,
2 when any divergence was found (1 is reserved for usage/parse
errors, so CI can tell "the runs differ" from "the tool broke").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.obs.recorder import Journal, JournalError, load_journal  # noqa: E402
from repro.obs.tracediff import diff_journals, render_report  # noqa: E402


def _load(path: str) -> Journal:
    """A journal from a JSONL dump."""
    text = Path(path).read_text()
    return load_journal(text if "\n" in text else [text])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("journal_a", help="baseline journal (run A)")
    parser.add_argument("journal_b", help="candidate journal (run B)")
    parser.add_argument("--slice", type=int, default=8, metavar="N",
                        help="causal-slice depth for the first "
                             "divergence (default 8, 0 disables)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full machine-readable report")
    parser.add_argument("--fail-on-divergence", action="store_true",
                        help="exit 2 if the journals diverge")
    args = parser.parse_args(argv)

    try:
        journal_a = _load(args.journal_a)
        journal_b = _load(args.journal_b)
    except (OSError, JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = diff_journals(journal_a, journal_b)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report, journal_a, slice_depth=args.slice))

    if args.fail_on_divergence and not report.identical:
        print(f"\nFAIL: {len(report.divergences)} divergence(s) "
              f"between {args.journal_a} and {args.journal_b}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
