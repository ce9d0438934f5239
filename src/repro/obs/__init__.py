"""repro.obs — tracing and metrics for the RedN simulator.

Two pieces, both zero-cost when disabled:

* :class:`Tracer` (``repro.obs.tracer``) — typed span/instant events
  keyed on *simulated* time (WQE fetch, prefetch-cache hit/stale,
  execute, CAS apply, WAIT wakeup, ENABLE, doorbell, DMA, CQE),
  exported as Chrome trace-event JSON loadable in Perfetto with PUs,
  WQs, CQs and ports as tracks. The tracer also runs the
  **self-modification race inspector** online: it joins DRAM
  write-generation bumps against WQE fetch snapshots and flags every
  WQE whose ring bytes changed between post and fetch (``self_mod``)
  or between fetch and execute (``stale_wqe`` — the §3.1 prefetch
  incoherence window).

* :class:`MetricsRegistry` (``repro.obs.metrics``) — named counters,
  gauges and sim-time histograms behind one ``snapshot()`` API. Every
  :class:`~repro.sim.core.Simulator` owns one lazily
  (``sim.metrics``); the RNIC and its send-queue drivers register
  their counters there, so one snapshot covers kernel, device and
  driver state. Exportable as OpenMetrics/Prometheus text via
  :meth:`MetricsRegistry.to_openmetrics`.

* :class:`FlightRecorder` (``repro.obs.recorder``) — a bounded causal
  journal of every post/doorbell/fetch/execute/WAIT/ENABLE/CQE/atomic/
  ring-store event plus periodic checkpoints of sim-visible state,
  dumpable to JSONL, replayable deterministically with event-by-event
  verification, and watched online by invariant monitors. The
  trace-diff engine (``repro.obs.tracediff``) aligns two journals on
  causal keys and reports the *first* divergence with a typed
  explanation and an upstream causal slice — see
  ``tools/trace_diff.py``.

A third piece, ``repro.obs.critpath``, is pure post-processing: it
rebuilds the causal DAG over a recorded trace's events per request,
computes the critical path, and attributes every nanosecond of a
request to exactly one typed phase (``queueing``/``fetch``/
``wait_blocked``/``pu_exec``/``dma``/``wire``/``cqe``) — see
``tools/latency_profile.py``. ``repro.obs.blame`` extends that
attribution *across shards*: a live :class:`RequestBlame` context
rides the fleet's fabric payloads while the connection plane records
typed spans into it (``pool_wait``, ``doorbell_batch``, ``cqe_demux``,
``link_wire``, ``gw_wait``), so per-phase blame for a cross-shard get
sums exactly to its end-to-end latency — see ``tools/tail_blame.py``.

``repro.obs.sentry`` closes the loop: a :class:`FleetSentry` folds
over the sealed telemetry window stream with deterministic anomaly
detectors (tail step-changes, queue growth, PU saturation, pool
pressure, stale-CQE quarantines, request-skew shifts, flatlines,
throughput collapse), groups time-correlated anomalies into incidents
with targeted capture (boosted blame-exemplar retention, bounded
flight-recorder slices, pre/post baselines), and emits a causal
root-cause report ranking implicated (shard, queue, phase) — see
``tools/incident_report.py`` and the fault scenarios in
``repro.bench.faults``.

Fast path
---------

Every instrumentation site in the simulator is one guarded loop over
its simulator's hook table (:class:`Hooks`, ``sim.hooks``)::

    from .. import obs as _obs
    ...
    if _obs.enabled:
        for hook in sim.hooks.exec:
            hook(wq, wr_index, wqe)

The table holds, per hook name in :data:`HOOKS`, a tuple of the bound
``on_<name>`` methods of the sim's attached sinks, in the fixed order
tracer, recorder, telemetry; a sink that does not define a hook is not
in its tuple, so no no-op calls are made. :func:`attach` and
:func:`detach` are the one place that sets the ``sim.tracer`` /
``sim.recorder`` / ``sim.telemetry`` handles and rebuilds the table.

When no sink is attached anywhere in the process the entire cost of the
instrumentation is one module-attribute load and a branch — the
BENCH_simspeed perf gate runs with every sink off and is unaffected.
Attaching any sink flips the flag; detaching the last one clears it.
"""

from __future__ import annotations

__all__ = [
    "enabled",
    "HOOKS",
    "Hooks",
    "attach",
    "detach",
    "Tracer",
    "export_merged_chrome",
    "MetricsRegistry",
    "Histogram",
    "HistogramLayoutError",
    "parse_openmetrics",
    "to_openmetrics_multi",
    "SENTRY_SCHEMA",
    "DETECTORS",
    "Anomaly",
    "Incident",
    "FleetSentry",
    "triage_verdict",
    "DEFAULT_WINDOW_NS",
    "TelemetryCollector",
    "FleetTelemetry",
    "SloRule",
    "BurnAlert",
    "load_slo_rules",
    "evaluate_slo",
    "summarize_records",
    "TraceData",
    "load_trace",
    "summarize_trace",
    "race_report",
    "wq_timeline",
    "track_summary",
    "PHASES",
    "CritPathProfile",
    "RequestProfile",
    "profile_tracer",
    "profile_trace",
    "sync_counts",
    "attribute_spans",
    "BLAME_PHASES",
    "RequestBlame",
    "blame_table",
    "summarize_blame",
    "folded_blame",
    "diff_blame",
    "blame_registries",
    "exemplar_order",
    "exemplars_of",
    "NormalizedEvent",
    "events_from_tracer",
    "events_from_trace",
    "events_from_journal",
    "wqe_field_diff",
    "format_field_diff",
    "FlightRecorder",
    "InvariantMonitor",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "JournalTruncatedError",
    "ReplayDivergence",
    "ReplayResult",
    "load_journal",
    "replay_journal",
    "export_merged_journal",
    "Divergence",
    "DiffReport",
    "diff_journals",
    "causal_slice",
    "records_from_trace",
]

#: Module-level fast-path flag: False means every instrumentation site
#: in the simulator reduces to one attribute load and a branch.
enabled = False

#: Every hook an instrumentation site fires. A sink subscribes by
#: defining ``on_<name>``; DESIGN.md ("The hook table") lists each
#: hook's arguments and which sink implements it.
HOOKS = (
    # NIC object lifecycle and RedN code regions
    "wq_created", "cq_created", "code_region",
    # queue plane
    "post", "doorbell", "doorbell_batch", "cqe",
    # NIC fetch/execute pipeline and its data path
    "fetch", "recv_fetch", "exec", "wait", "enable", "pu", "done",
    "atomic", "wire", "dma", "dma_txn",
    # connection plane, shard fabric and request level
    "cqe_demux", "stale_cqe", "pool_acquire", "pool_wait", "link_send",
    "offload_call", "request", "serviced",
)

#: Sink kinds in dispatch order; each names the Simulator attribute that
#: holds the sim's one sink of that kind.
SINK_KINDS = ("tracer", "recorder", "telemetry")


class Hooks:
    """One simulator's hook table: a tuple of bound sink methods per hook."""

    __slots__ = HOOKS

    def __init__(self, sinks=()):
        for name in HOOKS:
            method = "on_" + name
            setattr(self, name, tuple(getattr(sink, method)
                                      for sink in sinks
                                      if hasattr(sink, method)))


#: The shared empty table every Simulator starts with.
NO_HOOKS = Hooks()

_attached = 0


def attach(sim, kind: str, sink) -> None:
    """Make ``sink`` the sim's one ``kind`` sink (flips :data:`enabled` on).

    Raises if the sim already has a sink of that kind.
    """
    global enabled, _attached
    current = getattr(sim, kind, None)
    if current is not None:
        if kind == "telemetry":
            raise RuntimeError(f"simulator already has a telemetry "
                               f"collector ({current!r})")
        raise ValueError(f"{sim!r} already has a {kind} attached")
    setattr(sim, kind, sink)
    _rebuild(sim)
    _attached += 1
    enabled = True


def detach(sim, kind: str, sink) -> bool:
    """Detach ``sink`` if it is the sim's ``kind`` sink; returns whether
    it was. :data:`enabled` clears with the last sink in the process."""
    global enabled, _attached
    if getattr(sim, kind, None) is not sink:
        return False
    setattr(sim, kind, None)
    _rebuild(sim)
    _attached -= 1
    enabled = _attached > 0
    return True


def _rebuild(sim) -> None:
    sinks = [getattr(sim, kind, None) for kind in SINK_KINDS]
    sim.hooks = Hooks([sink for sink in sinks if sink is not None])


class RegionSink:
    """DRAM bookkeeping shared by the tracer and the flight recorder.

    Both watch stores into *annotated* regions (WQE rings, RedN code)
    through one store hook per memory and annotate every ring the NIC
    creates. Subclasses set ``kind`` and define ``attach_nic`` and
    ``_region_store`` (one store that hit an annotated region).
    """

    kind = ""

    def __init__(self, sim):
        attach(sim, self.kind, self)
        self.sim = sim
        self._nics_seen: set = set()
        self._memories: list = []
        # Annotated regions per memory: sorted [(start, end, label)].
        self._regions: dict = {}

    def close(self) -> None:
        """Detach from the simulator and its memories."""
        if detach(self.sim, self.kind, self):
            for memory, hook in self._memories:
                memory.remove_store_hook(hook)
            self._memories.clear()

    def attach_memory(self, memory) -> None:
        """Install the DRAM store hook (stores into annotated regions)."""
        if id(memory) in self._regions:
            return
        self._regions[id(memory)] = []

        def hook(addr: int, length: int, _memory=memory) -> None:
            self._dram_store(_memory, addr, length)

        memory.add_store_hook(hook)
        self._memories.append((memory, hook))

    def _dram_store(self, memory, addr: int, length: int) -> None:
        end = addr + length
        for start, stop, label in self._regions.get(id(memory), ()):
            if start >= end:
                return
            if stop > addr:
                self._region_store(memory, label, addr, length)
                return

    def annotate_region(self, memory, addr: int, size: int,
                        label: str) -> None:
        """Mark [addr, addr+size) as interesting: stores get observed."""
        self.attach_memory(memory)
        regions = self._regions[id(memory)]
        for start, end, _ in regions:
            if start == addr and end == addr + size:
                return
        regions.append((addr, addr + size, label))
        regions.sort()

    # -- NIC object lifecycle hooks -----------------------------------------

    def on_wq_created(self, nic, wq) -> None:
        self._queue_created(nic, wq, "wq")
        self.annotate_region(wq.memory, wq.ring.addr, wq.ring.size,
                             f"ring:{wq.name}")

    def on_cq_created(self, nic, cq) -> None:
        self._queue_created(nic, cq, "cq")

    def _queue_created(self, nic, queue, kind: str) -> None:
        self.attach_nic(nic)


# Submodules are imported lazily so that the hot-path guard above can
# be imported from anywhere in the package (including modules the
# tracer itself depends on) without import cycles.
_LAZY = {
    "Tracer": "tracer",
    "export_merged_chrome": "tracer",
    "MetricsRegistry": "metrics",
    "Histogram": "metrics",
    "HistogramLayoutError": "metrics",
    "parse_openmetrics": "metrics",
    "to_openmetrics_multi": "metrics",
    "SENTRY_SCHEMA": "sentry",
    "DETECTORS": "sentry",
    "Anomaly": "sentry",
    "Incident": "sentry",
    "FleetSentry": "sentry",
    "triage_verdict": "sentry",
    "DEFAULT_WINDOW_NS": "telemetry",
    "TelemetryCollector": "telemetry",
    "FleetTelemetry": "telemetry",
    "SloRule": "telemetry",
    "BurnAlert": "telemetry",
    "load_slo_rules": "telemetry",
    "evaluate_slo": "telemetry",
    "summarize_records": "telemetry",
    "TraceData": "inspect",
    "load_trace": "inspect",
    "summarize_trace": "inspect",
    "race_report": "inspect",
    "wq_timeline": "inspect",
    "track_summary": "inspect",
    "PHASES": "critpath",
    "CritPathProfile": "critpath",
    "RequestProfile": "critpath",
    "profile_tracer": "critpath",
    "profile_trace": "critpath",
    "sync_counts": "critpath",
    "attribute_spans": "critpath",
    "BLAME_PHASES": "blame",
    "RequestBlame": "blame",
    "blame_table": "blame",
    "summarize_blame": "blame",
    "folded_blame": "blame",
    "diff_blame": "blame",
    "blame_registries": "blame",
    "exemplar_order": "blame",
    "exemplars_of": "blame",
    "NormalizedEvent": "events",
    "events_from_tracer": "events",
    "events_from_trace": "events",
    "events_from_journal": "events",
    "wqe_field_diff": "events",
    "format_field_diff": "events",
    "FlightRecorder": "recorder",
    "InvariantMonitor": "recorder",
    "Journal": "recorder",
    "JournalError": "recorder",
    "JournalCorruptError": "recorder",
    "JournalTruncatedError": "recorder",
    "ReplayDivergence": "recorder",
    "ReplayResult": "recorder",
    "load_journal": "recorder",
    "replay_journal": "recorder",
    "export_merged_journal": "recorder",
    "Divergence": "tracediff",
    "DiffReport": "tracediff",
    "diff_journals": "tracediff",
    "causal_slice": "tracediff",
    "records_from_trace": "tracediff",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value
