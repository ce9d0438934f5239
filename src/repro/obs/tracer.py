"""The tracer: a flight recorder whose journal renders as a Perfetto trace.

:class:`Tracer` is a :class:`~repro.obs.recorder.FlightRecorder` with an
unbounded ring and no invariant monitor. It journals the recorder's
causal records (post, doorbell, fetch, exec, WAIT, ENABLE, done, CQE,
atomic, annotated-region store) plus what a trace needs on top: ``nic``
and ``queue`` records fixing the track layout, a record per span hook
(PU occupancy, fetch and payload DMA, wire, pool lease waits, coalesced
doorbells, shared-CQ demux, fabric links, offload calls, request
windows) carrying its Chrome category, name, track and span, and the
CQE host-delivery delay (``cqe_dma``). :func:`chrome_events` renders
Chrome trace-event JSON (https://ui.perfetto.dev loads it directly) as
a pure function of the records, so a dumped tracer journal re-renders
offline byte for byte. Track layout:

* one *process* (pid) per RNIC, named after the NIC, with threads for
  each PU (``port0/pu3`` — execute occupancy spans), each port's fetch
  engine (``port0/fetch`` — WQE fetch DMA spans), the PCIe attachment
  (``pcie`` — payload DMA spans), the atomic units (``atomics`` — CAS /
  FETCH_ADD applies), every work queue (``wq:name`` — post, doorbell,
  fetch snapshots, op spans, WAIT/ENABLE, race flags) and every
  completion queue (``cq:name`` — CQE instants plus a completion
  counter track);
* one process per host DRAM for stores into *annotated* regions (WQE
  rings and RedN code regions), so traces stay proportional to program
  activity, not payload volume.

The §3.1 race inspector has two halves. ``self_mod`` flags a WQE whose
slot generations *and* bytes changed between its post (or previous
fetch) and its fetch — a RecycledLoop restore READ rewriting identical
template bytes is not flagged; the post and fetch records carry both
images, so it is rendered. ``stale_wqe`` flags a WQE whose DRAM bytes
changed between fetch and execute — the prefetch incoherence hazard;
no record carries DRAM at execute time, so the tracer checks it online
and journals the finding.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..nic.opcodes import op_name
from .events import format_field_diff, wqe_field_diff
from .recorder import FlightRecorder

__all__ = ["Tracer", "chrome_events", "export_merged_chrome",
           "diff_wqe_bytes"]


def diff_wqe_bytes(old: bytes, new: bytes) -> List[str]:
    """``self_mod`` / ``stale_wqe`` args: the rendered field diff
    (:func:`repro.obs.events.wqe_field_diff`) of two WQE images."""
    return [format_field_diff(diff)
            for diff in wqe_field_diff(old, new)]


class Tracer(FlightRecorder):
    """Journals one simulation for its trace; one tracer per Simulator."""

    kind = "tracer"

    def __init__(self, sim, name: str = "trace"):
        super().__init__(sim, name=name, capacity=None,
                         checkpoint_interval=None, monitor=False)
        self._since = sim.now
        # Which queue (by id) each journal name currently renders for,
        # per kind; the NIC each queue was registered on; a serial per
        # queue (names may repeat across NICs, serials do not). Keyed
        # by id so the tracer keeps no simulated object alive.
        self._bound: Dict[Tuple[str, str], int] = {}
        self._queue_nics: Dict[int, str] = {}
        self._serials: Dict[int, int] = {}
        # Fetch-time record per in-flight (wq, wr_index).
        self._fetch_snaps: Dict[Tuple[int, int], Tuple] = {}
        self._exec_hist = sim.metrics.histogram("obs.execute_ns")

    def __repr__(self) -> str:
        return f"<Tracer {self.name} records={len(self.records)}>"

    # -- track layout ------------------------------------------------------

    def attach_nic(self, nic) -> None:
        """Register a NIC's tracks, queues and DRAM write hook.

        Idempotent; also invoked lazily by every NIC-side event, so an
        explicit call is only needed to pre-register empty tracks.
        """
        if id(nic) not in self._nics_seen:
            threads = []
            for port in nic.ports:
                threads.append(f"port{port.index}/fetch")
                threads.extend(f"port{port.index}/pu{pu}"
                               for pu in range(len(port.pus)))
            self._emit({"kind": "nic", "nic": nic.name,
                        "threads": threads + ["pcie", "wire", "atomics"]})
            super().attach_nic(nic)

    def _queue_created(self, nic, queue, kind: str) -> None:
        self.attach_nic(nic)
        if id(queue) not in self._queue_nics:
            self._queue_nics[id(queue)] = nic.name
            self._bind(kind, queue, nic.name)

    def _bind(self, kind: str, queue, nic_name: Optional[str]) -> None:
        """Point the journal's name for ``queue`` at its track."""
        self._bound[(kind, queue.name)] = id(queue)
        serial = self._serials.setdefault(id(queue), len(self._serials))
        self._emit({"kind": "queue", "queue": kind, "name": queue.name,
                    "nic": nic_name, "id": serial})

    def _wq_track(self, wq) -> None:
        if self._bound.get(("wq", wq.name)) == id(wq):
            return
        nic_name = self._queue_nics.get(id(wq))
        if nic_name is None and wq.qp is not None:
            self.on_wq_created(wq.qp.nic, wq)
        else:
            self._bind("wq", wq, nic_name)

    def _cq_track(self, cq) -> None:
        if self._bound.get(("cq", cq.name)) != id(cq):
            self._bind("cq", cq, self._queue_nics.get(id(cq)))

    #: A RedN code region: its stores are journaled like ring stores.
    on_code_region = FlightRecorder.annotate_region

    def _event(self, kind: str, cat: str, name: str, track,
               args: Optional[Dict[str, Any]] = None,
               span: Optional[Tuple[int, int]] = None) -> None:
        """A trace-only record: an instant, or a ``(start, dur)`` span,
        on ``track`` — ``(process, thread)`` labels, or ``{"wq": name}``
        / ``{"cq": name}`` for a queue's track."""
        record = {"kind": kind, "cat": cat, "name": name}
        if isinstance(track, dict):
            record.update(track)
        else:
            record["track"] = track
        if span is not None:
            record["start"], record["dur"] = span
        if args is not None:
            record["args"] = args
        self._emit(record)

    # -- causal hooks: the recorder's records, on the right tracks -----------

    def on_post(self, wq, wr_index: int, slot_cursor: int, slots: int,
                opcode: int) -> None:
        self._wq_track(wq)
        super().on_post(wq, wr_index, slot_cursor, slots, opcode)

    def on_doorbell(self, wq, up_to: int) -> None:
        self._wq_track(wq)
        super().on_doorbell(wq, up_to)

    def on_fetch(self, nic, wq, start_ns: int, managed: bool,
                 fetched: List[Tuple]) -> None:
        """One fetch DMA (managed: 1 WQE; normal: a prefetch batch) and
        the ``(wqe, wr_index, slot_cursor, slots, cache_hit)`` it read."""
        self.attach_nic(nic)
        self._wq_track(wq)
        count = len(fetched)
        self._event("fetch_span", "fetch",
                    "fetch" if managed else f"prefetch[{count}]",
                    (nic.name, f"port{wq.port_index}/fetch"),
                    {"wq": wq.name, "count": count, "managed": managed},
                    (start_ns, self.sim.now - start_ns))
        super().on_fetch(nic, wq, start_ns, managed, fetched)

    def _fetched(self, wq, wqe, wr_index: int, slot_cursor: int,
                 slots: int, cache_hit: bool) -> Dict[str, Any]:
        """Arm the fetch-vs-execute half of the race join."""
        record = super()._fetched(wq, wqe, wr_index, slot_cursor, slots,
                                  cache_hit)
        self._fetch_snaps[(id(wq), wr_index)] = (record, slot_cursor,
                                                 slots)
        return record

    def on_exec(self, wq, wr_index: int, wqe) -> None:
        """WQE entered execution: close the fetch-vs-execute window."""
        self._wq_track(wq)
        super().on_exec(wq, wr_index, wqe)
        snap = self._fetch_snaps.pop((id(wq), wr_index), None)
        if snap is None:
            return
        fetch, slot_cursor, slots = snap
        if list(wq.slot_gens(slot_cursor, slots)) == fetch["gens"]:
            return
        _, current = wq.slot_state(slot_cursor, slots)
        fetched = bytes.fromhex(fetch["wqe"])
        if current == fetched:
            return
        self._event("stale_wqe", "race", "stale_wqe", {"wq": wq.name}, {
            "wq": wq.name, "wr_index": wr_index, "fetched_at": fetch["ts"],
            "window_ns": self.sim.now - fetch["ts"],
            "changed": diff_wqe_bytes(fetched, current)})

    def _exec_started(self, wq, wr_index: int, start_ns: int) -> None:
        """A WR that entered execution before the tracer attached has
        no ``exec`` record to start its span at: journal the start."""
        if start_ns <= self._since:
            self._emit({"kind": "exec_start", "wq": wq.name,
                        "wr": wr_index, "start": start_ns})

    def on_wait(self, wq, wr_index: int, wqe, cq, start_ns: int) -> None:
        self._wq_track(wq)
        self._exec_started(wq, wr_index, start_ns)
        super().on_wait(wq, wr_index, wqe, cq, start_ns)

    def on_enable(self, wq, wr_index: int, wqe, relative: bool,
                  target) -> None:
        self._wq_track(wq)
        super().on_enable(wq, wr_index, wqe, relative, target)

    def on_done(self, wq, wr_index: int, wqe, status: str, byte_len: int,
                start_ns: int) -> None:
        self._wq_track(wq)
        self._exec_hist.observe(self.sim.now - start_ns)
        self._exec_started(wq, wr_index, start_ns)
        super().on_done(wq, wr_index, wqe, status, byte_len, start_ns)

    def on_cqe(self, cq, cqe, host_delay_ns: int) -> None:
        self._cq_track(cq)
        if host_delay_ns > 0:
            # The posted DMA that carries the CQE to host memory: the
            # monotonic counter (WAIT verbs) bumped at span start, the
            # host poller sees the entry at span end.
            self._emit({"kind": "cqe_dma", "ns": host_delay_ns})
        super().on_cqe(cq, cqe, host_delay_ns)

    def on_atomic(self, nic, wq, wqe, original: int) -> None:
        self.attach_nic(nic)
        super().on_atomic(nic, wq, wqe, original)

    # -- span hooks ----------------------------------------------------------

    def on_pu(self, nic, wq, opcode: int, start_ns: int) -> None:
        self.attach_nic(nic)
        self._event("pu", "exec", op_name(opcode),
                    (nic.name, f"port{wq.port_index}/pu{wq.pu_index}"),
                    {"wq": wq.name}, (start_ns, self.sim.now - start_ns))

    def on_dma(self, nic, nbytes: int, start_ns: int) -> None:
        self.attach_nic(nic)
        self._event("dma", "dma", f"dma[{nbytes}B]", (nic.name, "pcie"),
                    {"bytes": nbytes}, (start_ns, self.sim.now - start_ns))

    def on_dma_txn(self, nic, kind: str, start_ns: int) -> None:
        """A posted/non-posted PCIe transaction latency window."""
        self.attach_nic(nic)
        self._event("dma_txn", "dma", f"dma:{kind}", (nic.name, "pcie"),
                    {"kind": kind}, (start_ns, self.sim.now - start_ns))

    def on_wire(self, nic, dst_nic, nbytes: int, start_ns: int,
                end_ns: int) -> None:
        """One message's serialization + link traversal (never loopback).

        ``end_ns`` is the arrival at ``dst_nic``; the hook itself may
        fire later, after the responder's folded RX processing.
        """
        self.attach_nic(nic)
        self._event("wire", "wire", f"wire[{nbytes}B]", (nic.name, "wire"),
                    {"bytes": nbytes, "dst": dst_nic.name},
                    (start_ns, end_ns - start_ns))

    def on_pool_acquire(self, pool, waited_from: Optional[int],
                        tag: str) -> None:
        """A lease acquisition; spans its FIFO wait, if it had one."""
        now = self.sim.now
        if waited_from is not None and waited_from != now:
            self._event("pool_wait", "conn", "pool_wait",
                        (pool.name, "lease-wait"),
                        {"pool": pool.name, "tag": tag},
                        (waited_from, now - waited_from))

    def on_doorbell_batch(self, wq, count: int, start_ns: int,
                          extra_delay_ns: int) -> None:
        """One coalesced doorbell flush: hold window + batch surcharge."""
        self._wq_track(wq)
        self._event("doorbell_batch", "conn", f"batch[{count}]",
                    {"wq": wq.name},
                    {"wq": wq.name, "count": count,
                     "extra_delay_ns": extra_delay_ns},
                    (start_ns, self.sim.now - start_ns + extra_delay_ns))

    def on_cqe_demux(self, cq, cqe) -> None:
        """CompletionRouter delivered one shared-CQ entry."""
        self._demux("cqe_demux", cq, cqe, "demux")

    def on_stale_cqe(self, cq, cqe) -> None:
        """CompletionRouter quarantined one stale shared-CQ entry."""
        self._demux("stale_cqe", cq, cqe, "demux:stale")

    def _demux(self, kind: str, cq, cqe, name: str) -> None:
        self._cq_track(cq)
        self._event(kind, "conn", name, {"cq": cq.name},
                    {"cq_num": cq.cq_num, "wq_num": cqe.wq_num,
                     "wr_id": cqe.wr_id})

    def on_link_send(self, src_index: int, dst_index: int, mailbox: str,
                     arrival_ns: int) -> None:
        """One ShardFabric message's wire traversal to the peer shard."""
        now = self.sim.now
        self._event("link_send", "link", f"link:{mailbox}",
                    ("fabric", f"link:{src_index}->{dst_index}"),
                    {"src": src_index, "dst": dst_index,
                     "mailbox": mailbox, "arrival_ns": arrival_ns},
                    (now, arrival_ns - now))

    def on_offload_call(self, conn, start_ns: int, ok: bool,
                        byte_len: int) -> None:
        nic = conn.client_nic
        self.attach_nic(nic)
        self._event("offload_call", "offload", f"call:{conn.name}",
                    (nic.name, "offload"), {"ok": ok, "bytes": byte_len},
                    (start_ns, self.sim.now - start_ns))

    def request_span(self, label: str, start_ns: int,
                     args: Optional[Dict[str, Any]] = None) -> None:
        """An application-defined request window (benchmark samples).

        The critical-path profiler treats each such span — like each
        offload ``call:`` span — as one request to attribute.
        """
        self._event("request", "request", label, (self.name, "requests"),
                    args, (start_ns, self.sim.now - start_ns))

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid_offset: int = 0) -> List[Dict[str, Any]]:
        """All events as Chrome trace-event dicts (ts/dur in us)."""
        return chrome_events(self.records, pid_offset)

    @property
    def self_mod_count(self) -> int:
        return sum(1 for event in self.chrome_events()
                   if event["name"] == "self_mod")

    @property
    def stale_count(self) -> int:
        return sum(1 for record in self.records
                   if record["kind"] == "stale_wqe")

    def to_json(self) -> str:
        return _trace_json(self.chrome_events())

    def export_chrome(self, path) -> int:
        """Write Chrome trace-event JSON; returns the event count."""
        events = self.chrome_events()
        with open(path, "w") as handle:
            handle.write(_trace_json(events))
        return sum(1 for event in events if event["ph"] != "M")


def _trace_json(events: List[Dict[str, Any]]) -> str:
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ns"},
                      sort_keys=True, separators=(",", ":"))


def export_merged_chrome(tracers, path) -> int:
    """Merge several tracers (distinct pid spaces) into one trace file."""
    events: List[Dict[str, Any]] = []
    offset = 0
    for tracer in tracers:
        rendered = tracer.chrome_events(pid_offset=offset)
        offset += sum(1 for event in rendered
                      if event["name"] == "process_name"
                      and event["ph"] == "M")
        events.extend(rendered)
    with open(path, "w") as handle:
        handle.write(_trace_json(events))
    return len(events)


# -- rendering -------------------------------------------------------------


def chrome_events(records, pid_offset: int = 0) -> List[Dict[str, Any]]:
    """Render a tracer journal's records as Chrome trace-event dicts.

    A pure function of ``records`` (a live tracer's or a loaded
    journal's): process/thread metadata first, in track-registration
    order, then every event in record order; ts/dur in microseconds.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[int, str], int] = {}
    threads: Dict[int, int] = {}
    # (process, thread) labels -> (pid, tid); (queue kind, name) ->
    # (pid, tid, serial) of the queue that journal name stands for.
    tracks: Dict[Tuple[str, str], Tuple[int, int]] = {}
    bound: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
    starts: Dict[Tuple[int, int], int] = {}
    images: Dict[Tuple[int, int], Tuple[List[int], str]] = {}
    cqe_dma = 0
    out: List[Dict[str, Any]] = []

    def track_of(process: str, thread: str) -> Tuple[int, int]:
        track = tracks.get((process, thread))
        if track is None:
            pid = pids.get(process)
            if pid is None:
                pid = pids[process] = len(pids) + 1
            tid = tids.get((pid, thread))
            if tid is None:
                tid = tids[(pid, thread)] = threads[pid] = \
                    threads.get(pid, 0) + 1
            track = tracks[(process, thread)] = (pid, tid)
        return track

    def instant(cat: str, name: str, track: Tuple, ts: int,
                args: Optional[Dict[str, Any]]) -> None:
        event = {"ph": "i", "cat": cat, "name": name, "s": "t",
                 "pid": track[0] + pid_offset, "tid": track[1],
                 "ts": ts / 1000}
        if args is not None:
            event["args"] = args
        out.append(event)

    def span(cat: str, name: str, track: Tuple, start: int, dur: int,
             args: Optional[Dict[str, Any]]) -> None:
        event = {"ph": "X", "cat": cat, "name": name,
                 "pid": track[0] + pid_offset, "tid": track[1],
                 "ts": start / 1000, "dur": dur / 1000}
        if args is not None:
            event["args"] = args
        out.append(event)

    for record in records:
        kind = record["kind"]
        ts = record["ts"]
        if "wq" in record:
            queue = bound[("wq", record["wq"])]
        elif "cq" in record:
            queue = bound[("cq", record["cq"])]
        if "cat" in record:  # a trace-only event record
            track = record.get("track")
            if track is not None:
                queue = track_of(track[0], track[1])
            if "dur" in record:
                span(record["cat"], record["name"], queue, record["start"],
                     record["dur"], record.get("args"))
            else:
                instant(record["cat"], record["name"], queue, ts,
                        record.get("args"))
        elif kind == "store":
            instant("mem", f"store:{record['region']}",
                    track_of(record["mem"], "stores"), ts,
                    {"addr": record["addr"], "len": record["len"],
                     "region": record["region"]})
        elif kind == "post":
            images[(queue[2], record["slot"])] = (record["gens"],
                                                  record["wqe"])
            instant("queue", f"post:{record['op']}", queue, ts,
                    {"wr_index": record["wr"], "slot": record["slot"],
                     "slots": record["slots"]})
        elif kind == "fetch":
            key = (queue[2], record["slot"])
            image = images.get(key)
            if (image is not None and image[0] != record["gens"]
                    and image[1] != record["wqe"]):
                instant("race", "self_mod", queue, ts, {
                    "wq": record["wq"], "wr_index": record["wr"],
                    "slot": record["slot"],
                    "changed": diff_wqe_bytes(bytes.fromhex(image[1]),
                                              bytes.fromhex(record["wqe"]))})
            images[key] = (record["gens"], record["wqe"])
            instant("fetch", f"wqe:{record['op']}", queue, ts,
                    {"wr_index": record["wr"], "slot": record["slot"],
                     "cache": "hit" if record["cache"] else "miss"})
        elif kind == "exec":
            starts[(queue[2], record["wr"])] = ts
        elif kind == "doorbell":
            instant("queue", "doorbell", queue, ts,
                    {"up_to": record["up_to"]})
        elif kind == "done":
            start = starts.pop((queue[2], record["wr"]))
            span("exec", f"op:{record['op']}", queue, start, ts - start,
                 {"wr_index": record["wr"], "status": record["status"]})
        elif kind == "cqe_dma":
            cqe_dma = record["ns"]
        elif kind == "cqe":
            instant("cqe", f"cqe:{record['op']}", queue, ts, {
                "wr_id": record["wr_id"], "status": record["status"],
                "wq_num": record["wq_num"], "cq_num": record["cq_num"],
                "count": record["count"]})
            if cqe_dma:
                span("cqe", "cqe_dma", queue, ts, cqe_dma,
                     {"wr_id": record["wr_id"], "cq_num": record["cq_num"]})
                cqe_dma = 0
            out.append({"ph": "C", "cat": "cqe", "name": f"cq:{record['cq']}",
                        "pid": queue[0] + pid_offset, "tid": queue[1],
                        "ts": ts / 1000,
                        "args": {"completions": record["count"]}})
        elif kind == "enable":
            args = {"target_wq": record["target"], "count": record["count"],
                    "relative": record["relative"]}
            if record["target_name"] is not None:
                args["target_name"] = record["target_name"]
            instant("sync", "ENABLE", queue, ts, args)
        elif kind == "wait":
            start = starts.pop((queue[2], record["wr"]))
            span("sync", "WAIT", queue, start, ts - start,
                 {"cq_num": record["cq"], "count": record["threshold"]})
            instant("sync", "WAIT.wake", queue, ts, {"cq_num": record["cq"]})
        elif kind == "exec_start":
            starts[(queue[2], record["wr"])] = record["start"]
        elif kind == "atomic":
            if record["op"] == "CAS":
                args = {"raddr": record["raddr"], "expected": record["op0"],
                        "desired": record["op1"], "original": record["orig"],
                        "swapped": record["swapped"]}
            else:
                args = {"raddr": record["raddr"], "delta": record["op0"],
                        "original": record["orig"]}
            instant("atomic", record["op"], track_of(record["nic"], "atomics"),
                    ts, args)
        elif kind == "queue":
            nic = record["nic"]
            name = record["name"]
            bound[(record["queue"], name)] = track_of(
                "orphan-queues" if nic is None else nic,
                f"{record['queue']}:{name}") + (record["id"],)
        elif kind == "nic":
            for thread in record["threads"]:
                track_of(record["nic"], thread)
    meta: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid + pid_offset,
         "tid": 0, "args": {"name": label}}
        for label, pid in pids.items()]
    meta.extend({"ph": "M", "name": "thread_name",
                 "pid": pid + pid_offset, "tid": tid,
                 "args": {"name": label}}
                for (pid, label), tid in tids.items())
    return meta + out
