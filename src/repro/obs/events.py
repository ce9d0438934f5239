"""Shared event normalization for the observability tooling.

Three consumers — the critical-path profiler (``obs/critpath.py``),
the trace inspector (``tools/trace_inspect.py``) and the trace-diff
engine (``obs/tracediff.py``) — all need the same two conversions:

* **normalized events**: one uniform ``(ph, cat, name, track, ts, dur,
  args)`` view over a Chrome trace — an exported file or a live
  tracer's rendering — with microsecond floats recovered to exact
  integer nanoseconds via ``round(ts_us * 1000)``, or over journal
  records;
* **WQE field diffs**: byte images resolved to the chain-IR field
  names of :data:`repro.nic.wqe.WQE_HEADER`, so a divergence report
  can say ``operand1: 0xdead -> 0xbeef`` instead of "byte 40 differs".

This module is pure post-processing — nothing here runs during a
simulation, so the zero-cost guarantee of ``repro.obs`` is unaffected.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..nic.wqe import WQE_HEADER, WQE_SLOT_SIZE

__all__ = [
    "NormalizedEvent",
    "events_from_trace",
    "events_from_journal",
    "wqe_field_diff",
    "format_field_diff",
]


class NormalizedEvent:
    """One tracer event in integer nanoseconds with a resolved track."""

    __slots__ = ("ph", "cat", "name", "track", "ts", "dur", "args")

    def __init__(self, ph: str, cat: str, name: str, track: str,
                 ts: int, dur: int, args: Optional[Dict[str, Any]]):
        self.ph = ph
        self.cat = cat
        self.name = name
        self.track = track          # "<process>/<thread>", e.g. "nic/wq:ctl"
        self.ts = ts
        self.dur = dur
        self.args = args or {}

    @property
    def end(self) -> int:
        return self.ts + self.dur

    def __repr__(self) -> str:
        return (f"<Ev {self.ph} {self.name} @{self.ts}"
                f"{f'+{self.dur}' if self.dur else ''} {self.track}>")


def events_from_trace(data) -> List[NormalizedEvent]:
    """Normalize a parsed Chrome trace (``repro.obs.TraceData``)."""
    out: List[NormalizedEvent] = []
    for event in data.events:
        ph = event.get("ph")
        if ph == "C":
            continue
        ts = round(event.get("ts", 0) * 1000)
        dur = round(event.get("dur", 0) * 1000)
        out.append(NormalizedEvent(
            ph, event.get("cat", ""), event.get("name", ""),
            data.track_name(event), ts, dur, event.get("args")))
    return out


#: Journal record kind -> (category, track-field) for the event view.
_JOURNAL_CATS = {
    "post": "queue",
    "doorbell": "queue",
    "fetch": "fetch",
    "exec": "exec",
    "done": "exec",
    "wait": "sync",
    "enable": "sync",
    "cqe": "cqe",
    "atomic": "atomic",
    "store": "mem",
    "checkpoint": "checkpoint",
}


def _journal_name(record: Dict[str, Any]) -> str:
    kind = record["kind"]
    op = record.get("op")
    if kind in ("post", "fetch", "done") and op:
        return f"{kind}:{op}"
    if kind == "cqe" and op:
        return f"cqe:{op}"
    if kind == "atomic" and op:
        return op
    if kind == "store":
        return f"store:{record.get('region', '?')}"
    return kind


def _journal_track(record: Dict[str, Any]) -> str:
    kind = record["kind"]
    if "wq" in record:
        return f"wq:{record['wq']}"
    if kind == "cqe":
        return f"cq:{record.get('cq', '?')}"
    if kind == "atomic":
        return f"{record.get('nic', '?')}/atomics"
    if kind == "store":
        return f"{record.get('mem', '?')}/stores"
    return kind


def events_from_journal(records) -> List[NormalizedEvent]:
    """Normalize flight-recorder journal records (see ``obs/recorder``).

    Every journal record is an instant on simulated time; the causal
    identity (queue, WR index, CQE count...) rides in ``args`` — the
    original record dict itself.
    """
    out: List[NormalizedEvent] = []
    for record in records:
        kind = record.get("kind")
        if kind in (None, "meta"):
            continue
        out.append(NormalizedEvent(
            "i", _JOURNAL_CATS.get(kind, kind), _journal_name(record),
            _journal_track(record), record.get("ts", 0), 0, record))
    return out


# -- WQE field diffing ----------------------------------------------------


def wqe_field_diff(old: bytes, new: bytes) -> List[Dict[str, Any]]:
    """Field-level diff between two WQE byte images.

    Slot 0 resolves to :data:`WQE_HEADER` field names with both values
    as integers; follow-on (SGE) slots are reported coarsely with
    ``None`` values. The tracer's human-readable ``diff_wqe_bytes`` and
    the trace-diff engine's typed reports are both built on this.
    """
    diffs: List[Dict[str, Any]] = []
    for name, field in WQE_HEADER.fields.items():
        lo, hi = field.offset, field.offset + field.width
        before = old[lo:hi]
        after = new[lo:hi]
        if before != after:
            diffs.append({"field": name,
                          "a": int.from_bytes(before, "big"),
                          "b": int.from_bytes(after, "big")})
    for slot in range(1, len(new) // WQE_SLOT_SIZE):
        lo, hi = slot * WQE_SLOT_SIZE, (slot + 1) * WQE_SLOT_SIZE
        if old[lo:hi] != new[lo:hi]:
            diffs.append({"field": f"slot[{slot}]", "a": None, "b": None})
    return diffs


def format_field_diff(diff: Dict[str, Any],
                      arrow: str = "->") -> str:
    """``operand1: 0xdead -> 0xbeef`` (or ``slot[1] bytes changed``)."""
    if diff["a"] is None:
        return f"{diff['field']} bytes changed"
    return f"{diff['field']}: {diff['a']:#x} {arrow} {diff['b']:#x}"
