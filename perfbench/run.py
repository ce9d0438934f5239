#!/usr/bin/env python3
"""The repo benchmark: simulator speed, set-up cost and simulated tails.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv_fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` builds and runs the workload repeatedly for ``--seconds``
after a warm-up run and prints the end-to-end metrics (host CPU ops/s,
set-up seconds, peak RSS, simulated p50/p99 and Mops). ``--trace 1``
runs it once untraced and once under ``cProfile`` and prints the
per-layer metrics. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Every output is checked; the exit code is 1 when a
check fails and 2 on a usage or environment error.

Each invocation also writes a run manifest (and, traced, the spans) to
``perfbench/results/``. ``--record`` rewrites ``perfbench/expected.json``
from one untraced run of each workload at the default seed; the
benchmark prints any later drift from it by name.

Host times are process CPU seconds (``time.process_time``) of one
single-threaded process. ``host_ops_per_s`` rescales each timed run to
a reference host by a calibration loop timed beside it (see
``calibrate.py``); the manifest keeps the raw CPU seconds and loop
times. Sim values are simulated time, which is deterministic for a
fixed seed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")

#: Timed reps at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up samples per untraced invocation, spread over the timed runs.
SETUPS = 9

END_TO_END = (
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("sim_mops", "Mops"),
)

_OPCODES = ("READ", "WRITE", "WRITE_IMM", "SEND", "CAS", "WAIT", "ENABLE",
            "NOOP")
#: Layers reported with a self time; ``obs`` sums the obs sinks.
_SELF_LAYERS = ("sim.core", "sim.sharded", "memory", "nic.wqe", "nic.queue",
                "nic.processing", "nic.verbs", "nic.other", "redn",
                "offloads", "ibv", "net.conn", "obs.metrics", "obs",
                "obs.telemetry", "obs.blame", "obs.sentry", "obs.recorder",
                "apps", "datastructs", "bench", "harness")

#: Deterministic counts, read from the untraced runs.
EXACT = (
    ("sim.events", "count"), ("sim.events_per_op", "count"),
    ("sim.heap_peak", "count"),
    ("sim.sharded.rounds", "count"),
    ("sim.sharded.events_per_round", "count"),
    ("sim.sharded.messages", "count"),
    ("nic.wrs", "count"), ("nic.wrs_per_op", "count"),
) + tuple((f"nic.wrs.{op}", "count") for op in _OPCODES) + (
    ("nic.fetch_managed", "count"), ("nic.fetch_batches", "count"),
    ("nic.fetch_prefetched", "count"),
    ("net.conn.leases", "count"), ("net.conn.recycles", "count"),
    ("net.conn.peak_in_use", "count"), ("net.conn.exhausted_hits", "count"),
    ("net.conn.stale_cqes", "count"),
    ("triage_detect_us", "sim_us"),
)

PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in _SELF_LAYERS) + (
    ("traced_total_s", "s"), ("redn.self_share", "ratio"),
    ("memory.calls", "count"), ("nic.calls", "count"),
    ("redn.calls", "count"),
    ("nic.doorbell_rings", "count"), ("nic.doorbells_per_op", "count"),
    ("sim.host_ns_per_event", "ns"), ("redn.post_instance_us", "us"),
    ("setup.testbed_s", "s"), ("setup.load_s", "s"),
    ("setup.program_s", "s"), ("trace_overhead", "ratio"),
) + EXACT


def _exact_counts(outcome) -> dict:
    """The deterministic counts of one run, from its simulators."""
    events = heap_peak = 0
    counters: dict = {}
    for sim in outcome.sims:
        snapshot = sim.metrics.snapshot()
        events += snapshot["gauges"]["sim.events_executed"]
        heap_peak = max(heap_peak, snapshot["gauges"]["sim.heap_peak"])
        for family, values in snapshot["counters"].items():
            if family.endswith(".wrs") or family.endswith(".fetch"):
                for key, value in values.items():
                    counters[key] = counters.get(key, 0) + value
    ops = max(1, outcome.attempted)
    counts = {name: 0 for name, _ in EXACT}
    counts.update({
        "sim.events": events, "sim.events_per_op": events / ops,
        "sim.heap_peak": heap_peak,
        "nic.wrs": counters.get("total_wrs", 0),
        "nic.wrs_per_op": counters.get("total_wrs", 0) / ops,
        "nic.fetch_managed": counters.get("fetch_managed", 0),
        "nic.fetch_batches": counters.get("fetch_batches", 0),
        "nic.fetch_prefetched": counters.get("fetch_prefetched", 0),
    })
    for op in _OPCODES:
        counts[f"nic.wrs.{op}"] = counters.get(op, 0)
    for name, value in outcome.counts.items():
        if name in counts:
            counts[name] = value
    rounds = counts["sim.sharded.rounds"]
    counts["sim.sharded.events_per_round"] = events / rounds if rounds else 0
    return counts


def _summary(outcome) -> dict:
    """Plain-data view of an Outcome, so the built system can be freed."""
    from repro.bench import percentile
    latencies = outcome.latencies_ns
    sim = {"sim_p50_us": 0.0, "sim_p99_us": 0.0, "sim_mops": 0.0}
    if latencies and outcome.sim_elapsed_ns:
        sim = {"sim_p50_us": percentile(latencies, 0.50) / 1000,
               "sim_p99_us": percentile(latencies, 0.99) / 1000,
               "sim_mops": len(latencies) / outcome.sim_elapsed_ns * 1000}
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "problems": list(outcome.problems), "ops": len(latencies),
            "sim": sim, "counts": _exact_counts(outcome)}


class _SetupZygote:
    """Times builds in cold processes, on request, across the run.

    The zygote is forked before this process builds anything and then
    only forks: each sample is a build in a fresh grandchild, so every
    sample pays the same cold allocations (fresh DRAM pages) as a
    user's first build. A build in a process that has already built and
    freed one reuses warm pages and reads far lower. Spreading the
    samples over the timed window keeps their median from resting on
    one stretch of host load.
    """

    def __init__(self, cls, seed: int, size: str):
        self._requests_r, self._requests_w = os.pipe()
        replies_r, self._replies_w = os.pipe()
        sys.stdout.flush()
        self.pid = os.fork()
        if self.pid == 0:
            self._serve(cls, seed, size)
        os.close(self._requests_r)
        os.close(self._replies_w)
        self._replies = os.fdopen(replies_r)

    def _serve(self, cls, seed: int, size: str) -> None:
        status = 1
        try:
            os.close(self._requests_w)
            while os.read(self._requests_r, 1):
                pid = os.fork()
                if pid == 0:
                    self._build(cls, seed, size)
                _, child_status = os.waitpid(pid, 0)
                if child_status:
                    os.write(self._replies_w, b"failed\n")
            status = 0
        finally:
            os._exit(status)

    def _build(self, cls, seed: int, size: str) -> None:
        status = 1
        try:
            start = time.process_time()
            cls(seed, size)
            seconds = time.process_time() - start
            os.write(self._replies_w, f"{seconds!r}\n".encode())
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)

    def sample(self) -> float:
        """Set-up CPU seconds of one cold build."""
        sys.stdout.flush()
        os.write(self._requests_w, b"b")
        reply = self._replies.readline()
        try:
            return float(reply)
        except ValueError:
            raise RuntimeError("a set-up build failed") from None

    def close(self) -> None:
        os.close(self._requests_w)
        self._replies.close()
        os.waitpid(self.pid, 0)


def _run(workload):
    start = time.process_time()
    outcome = workload.run()
    return outcome, time.process_time() - start


class Measurement:
    """Everything one invocation measured, before it is printed."""

    def __init__(self, name: str, seed: int, size: str, trace: bool):
        self.name, self.seed, self.size, self.trace = name, seed, size, trace
        self.attempted = self.failed = 0
        self.problems: list = []
        self.reference: dict = {}
        self.metrics: dict = {}
        self.samples: dict = {"setup_s": [], "run_cpu_s": [],
                              "host_ops_per_s": []}
        self.spans: list = []

    def add(self, summary: dict) -> None:
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.problems += summary["problems"][:20]
        if not self.reference:
            self.reference = summary
        elif (summary["sim"], summary["counts"]) != \
                (self.reference["sim"], self.reference["counts"]):
            self.problems.append("sim metrics differ between two runs of "
                                 "the same seed")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _check_identity(cls, seed: int, size: str, sharded: dict,
                    m: Measurement) -> None:
    """kv_fleet: the serial drive must match the sharded one exactly
    (fingerprint, which holds the per-shard event counts)."""
    workload = cls(seed, size)
    workload.run(serial=True)
    if sharded is None or workload.fingerprint != sharded:
        m.problems.append("kv_fleet sharded and serial drives differ "
                          "(fingerprint or per-shard event counts)")


def measure(name: str, seed: int, seconds: float, size: str = "full",
            trace: bool = False) -> Measurement:
    """Build, run and check one workload; see the module docstring."""
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    m = Measurement(name, seed, size, trace)
    if trace:
        _warm_up(cls, m)
        _traced(cls, m)
        return m
    zygote = _SetupZygote(cls, seed, size)   # before anything is built
    try:
        peak_rss_mb = _warm_up(cls, m)
        _timed(cls, seconds, zygote, m)
    finally:
        zygote.close()
    m.metrics = {
        "host_ops_per_s": statistics.median(m.samples["host_ops_per_s"]),
        "setup_s": statistics.median(m.samples["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        **m.reference["sim"],
    }
    return m


def _warm_up(cls, m: Measurement) -> float:
    """One untimed run: fills lazy caches, gives the reference sim
    metrics, and is the "built and ran once" point for peak RSS, which
    it returns in MB. kv_fleet's identity check follows it."""
    gc.collect()
    workload = cls(m.seed, m.size)
    m.add(_summary(workload.run()))
    sharded = getattr(workload, "fingerprint", None)
    del workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if m.name == "kv_fleet":
        gc.collect()
        _check_identity(cls, m.seed, m.size, sharded, m)
    return peak_rss_mb


def _timed(cls, seconds: float, zygote: _SetupZygote,
           m: Measurement) -> None:
    """Timed runs for ``seconds``, each beside a calibration loop, with
    the set-up samples spread over the same window."""
    from calibrate import loop_seconds, to_reference
    ops = m.reference["ops"]
    setups = m.samples["setup_s"]
    loop_seconds()   # warm-up: the first loop reads slow
    loops = m.samples["loop_s"] = [loop_seconds()]
    start = time.perf_counter()
    while len(m.samples["run_cpu_s"]) < MIN_REPS \
            or time.perf_counter() < start + seconds:
        if len(setups) * seconds < SETUPS * (time.perf_counter() - start):
            setups.append(zygote.sample())
        gc.collect()
        workload = cls(m.seed, m.size)
        outcome, run_s = _run(workload)
        m.add(_summary(outcome))
        del workload, outcome
        loops.append(loop_seconds())
        m.samples["run_cpu_s"].append(run_s)
        m.samples["host_ops_per_s"].append(
            ops / to_reference(run_s, (loops[-2] + loops[-1]) / 2))
    while len(setups) < SETUPS:
        setups.append(zygote.sample())


def _traced(cls, m: Measurement) -> None:
    """One untraced run for the baseline, then one under cProfile."""
    from workloads import Spans
    gc.collect()
    outcome, untraced_s = _run(cls(m.seed, m.size))
    m.add(_summary(outcome))
    del outcome
    gc.collect()
    spans = Spans(enabled=True)
    # cProfile's default wall-clock timer costs far less per call than a
    # CPU-time one, so the profile skews proportions less; the traced
    # total is therefore wall time too, and encloses every self time.
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    workload = cls(m.seed, m.size, spans)
    run_from = time.process_time()
    outcome = workload.run()
    traced_run_s = time.process_time() - run_from
    profile.disable()
    traced_total_s = time.perf_counter() - start
    m.add(_summary(outcome))
    del workload, outcome
    m.spans = spans.records
    m.metrics = _layer_metrics(pstats.Stats(profile).stats, spans,
                               m.reference, untraced_s, traced_run_s,
                               traced_total_s)
    if m.name != "triage_storm" and m.metrics["obs.self_s"] > 0:
        m.problems.append("obs code ran in an obs-off workload")


def _layer_metrics(stats: dict, spans, reference: dict, untraced_s: float,
                   traced_run_s: float, traced_total_s: float) -> dict:
    from layers import attribute
    self_s, calls = attribute(stats)
    # The obs sinks: every repro.obs module but the counter registry.
    self_s["obs"] = sum(v for k, v in self_s.items()
                        if k.startswith("obs.") and k != "obs.metrics")
    doorbells = sum(row[1] for func, row in stats.items()
                    if func[0].endswith(os.path.join("nic", "queue.py"))
                    and func[2] == "doorbell")
    ops = max(1, reference["ops"])
    counts = reference["counts"]
    posts = spans.seconds("post_instances")
    metrics = {f"{layer}.self_s": self_s[layer] for layer in _SELF_LAYERS}
    metrics.update({
        "traced_total_s": traced_total_s,
        "redn.self_share": self_s["redn"] / traced_total_s,
        "memory.calls": calls["memory"], "nic.calls": calls["nic"],
        "redn.calls": calls["redn"],
        "nic.doorbell_rings": doorbells,
        "nic.doorbells_per_op": doorbells / ops,
        "sim.host_ns_per_event": untraced_s * 1e9 / max(
            1, counts["sim.events"]),
        "redn.post_instance_us":
            statistics.mean(posts) * 1e6 if posts else 0.0,
        "setup.testbed_s": sum(spans.seconds("setup.testbed")),
        "setup.load_s": sum(spans.seconds("setup.load")),
        "setup.program_s": sum(spans.seconds("setup.program")),
        "trace_overhead": traced_run_s / untraced_s,
    })
    metrics.update(counts)
    return metrics


# -- reporting ------------------------------------------------------------


def _git_state():
    """``(sha, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) \
                != os.path.realpath(ROOT):
            return None, None
        return git("rev-parse", "HEAD"), bool(
            git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def _source_digest() -> str:
    """sha256 over ``src/repro``'s Python files: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _sim_digest(reference: dict) -> str:
    blob = json.dumps([reference["sim"], reference["counts"]],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_expected() -> dict:
    try:
        with open(EXPECTED) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def drift(m: Measurement, expected: dict) -> list:
    """Names of sim metrics/counts that moved from the recorded values.

    Compared only where the recorded values apply: always for workloads
    the seed does not reach, else only at the recorded default seed.
    """
    recorded = expected.get("workloads", {}).get(m.name)
    if not recorded or m.size != "full" or not m.reference:
        return []
    if recorded["seed_applies"] and m.seed != expected["default_seed"]:
        return []
    now = {**m.reference["sim"], **m.reference["counts"]}
    return [f"{key}: {now.get(key)!r} (recorded {value!r})"
            for key, value in sorted(recorded["values"].items())
            if now.get(key) != value]


def _write_manifest(m: Measurement, result: dict, drifted: list) -> None:
    from workloads import SIZES, WORKLOADS
    sha, dirty = _git_state()
    manifest = {
        "workload": m.name, "seed": m.seed, "trace": int(m.trace),
        "size": m.size, "sizing": SIZES[m.name][m.size],
        "seed_applies": WORKLOADS[m.name].seed_applies,
        "git_sha": sha, "git_dirty": dirty,
        "source_sha256": _source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "sim_digest": _sim_digest(m.reference) if m.reference else None,
        "per_run": m.samples, "drift": drifted, "problems": m.problems[:50],
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{m.name}-seed{m.seed}-trace{int(m.trace)}"
                                 f"-{time.time_ns()}")
    with open(stem + ".json", "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    if m.spans:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(m.spans, handle)


def result_of(m: Measurement) -> dict:
    units = dict(PER_LAYER if m.trace else END_TO_END)
    return {"correct": m.correct, "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {name: {"value": m.metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _print_report(m: Measurement, result: dict, drifted: list) -> None:
    ops = m.reference.get("ops", 0)
    reps = len(m.samples["run_cpu_s"])
    print(f"workload {m.name}  seed {m.seed}  ops/run {ops}"
          + ("" if m.trace else f"  timed runs {reps}"))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    rate = m.failed / m.attempted if m.attempted else 0.0
    print(f"  {'error_rate':34s} {rate:>16.6g} fraction "
          f"({m.failed} of {m.attempted} ops failed)")
    for line in drifted:
        print(f"  drift {line}")
    for line in m.problems[:20]:
        print(f"  FAILED CHECK: {line}")


def _record() -> int:
    """Rewrite expected.json from one run per workload at the default
    seed."""
    from workloads import WORKLOADS
    expected = _load_expected()
    expected.setdefault("default_seed", 1)
    expected.setdefault("held_out_seed", 7919)
    expected["workloads"] = {}
    for name, cls in WORKLOADS.items():
        m = measure(name, expected["default_seed"], 0, trace=False)
        if not m.correct:
            print(f"{name}: {m.problems[:3]}", file=sys.stderr)
            return 1
        expected["workloads"][name] = {
            "seed_applies": cls.seed_applies,
            "values": {**m.reference["sim"], **m.reference["counts"]}}
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record:
        return _record()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    m = measure(args.workload, args.seed, args.seconds, args.size,
                bool(args.trace))
    result = result_of(m)
    drifted = drift(m, _load_expected())
    _print_report(m, result, drifted)
    _write_manifest(m, result, drifted)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
