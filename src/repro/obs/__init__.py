"""repro.obs — tracing, journaling, metrics and telemetry for the simulator.

Every piece keys on *simulated* time and is zero-cost when off:

* :class:`FlightRecorder` (``recorder``) — the one capture core: a
  bounded causal journal of WQE post/doorbell/fetch/execute, WAIT,
  ENABLE, CQE, atomic and ring-store events (slot bytes included) with
  periodic state checkpoints, dumped as JSONL, replayed with
  event-by-event verification, watched by online invariant monitors.
  ``tracediff`` aligns two journals on causal keys and reports the
  first divergence (``tools/trace_diff.py``).
* :class:`Tracer` (``tracer``) — a FlightRecorder that also journals
  span hooks and track layout; :func:`chrome_events` renders its
  records as Chrome trace-event JSON for Perfetto, with the §3.1
  ``self_mod`` / ``stale_wqe`` race flags (``tools/trace_inspect.py``).
* :class:`MetricsRegistry` (``metrics``) — counters, gauges and sim-time
  histograms behind ``sim.metrics.snapshot()``, exportable as
  OpenMetrics text.
* :class:`TelemetryCollector` / :class:`FleetTelemetry` (``telemetry``)
  — windowed per-bed fleet telemetry with SLO burn-rate alerts
  (``tools/fleet_top.py``).
* Post-processing: ``critpath`` attributes every nanosecond of a traced
  request to one phase (``tools/latency_profile.py``); ``blame`` does so
  across shards (``tools/tail_blame.py``); ``sentry`` folds the
  telemetry stream into incidents with root-cause reports
  (``tools/incident_report.py``).

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
    "cqe_demux", "stale_cqe", "pool_acquire", "link_send",
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


# Submodules are imported lazily so that the hot-path guard above can
# be imported from anywhere in the package (including modules the
# tracer itself depends on) without import cycles.
_LAZY = {
    "Tracer": "tracer",
    "chrome_events": "tracer",
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
}

__all__ = ["enabled", "HOOKS", "Hooks", "attach", "detach", *_LAZY]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value
