"""The four benchmark workloads, built only from the package's public API.

Each workload class builds its system in ``__init__`` (the set-up phase,
timed as ``setup_s``) and runs it once in :meth:`run` (the run phase,
timed as ``host_ops_per_s``). ``run`` checks every output and returns an
:class:`Outcome`; a built workload runs exactly once.

Every workload is closed-loop in simulated time: each client issues its
next operation only after the previous one completed.

* ``kv_fleet`` — ``build_fleet()`` on the sharded drive, obs off.
* ``offload_gets`` — one small-DRAM testbed, a cuckoo KV server and its
  Fig 9 hash-get offload; one client posts one instance, then calls.
* ``verb_flood`` — the default testbed; 8 QPs post seeded waves of
  unsignaled WRITE/CAS work requests with one signaled WR per wave.
* ``triage_storm`` — the ``run_triage("storm")`` composition: a 4-shard
  fleet with telemetry, exemplars, the sentry and a flight recorder.

The seed reaches the program only as generated inputs: the offload's key
set and key stream, and the flood's wave order. ``kv_fleet`` and
``triage_storm`` draw their keys inside ``repro.bench.fleet`` as a pure
function of (shard, client, seq), so the seed does not apply to them.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Dict, List, Optional

from repro import obs
from repro.apps import MemcachedServer
from repro.bench import Testbed
from repro.bench.faults import inject_storm
from repro.bench.fleet import FleetError, build_fleet
from repro.datastructs.hashing import hash_key
from repro.ibv import wr_cas, wr_write
from repro.obs.recorder import FlightRecorder
from repro.obs.sentry import FleetSentry, triage_verdict
from repro.redn.offload import OffloadClient

__all__ = ["Outcome", "Spans", "WORKLOADS", "SIZES"]

#: Per-workload sizing. ``full`` is what BENCHMARK.json runs; ``tiny``
#: keeps the benchmark's own tests quick.
SIZES = {
    "kv_fleet": {
        "full": dict(num_shards=8, clients_per_shard=128,
                     requests_per_client=3),
        "tiny": dict(num_shards=2, clients_per_shard=8,
                     requests_per_client=2),
    },
    "offload_gets": {
        "full": dict(calls=2000, keys=64),
        "tiny": dict(calls=40, keys=8),
    },
    "verb_flood": {
        "full": dict(qps=8, waves_per_qp=128),
        "tiny": dict(qps=2, waves_per_qp=8),
    },
    "triage_storm": {
        "full": dict(num_shards=4, clients_per_shard=16,
                     requests_per_client=16),
        "tiny": dict(num_shards=4, clients_per_shard=16,
                     requests_per_client=16),
    },
}


class Spans:
    """In-memory host-time spans around the benchmark's calls into the
    program. Disabled instances record nothing."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, op: Optional[int]):
        span_id = len(self.records)
        record = {"id": span_id, "name": name, "op": op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.records.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, op)

    def seconds(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [(r["end_ns"] - r["start_ns"]) / 1e9 for r in self.records
                if r["name"] == name and r["end_ns"] is not None]


class Outcome:
    """What one run did: ops, failures, simulated latencies, counts."""

    def __init__(self, attempted: int, failed: int, latencies_ns: List[int],
                 sim_elapsed_ns: int, sims: list, problems: List[str],
                 counts: Optional[Dict[str, float]] = None):
        self.attempted = attempted
        self.failed = failed
        self.latencies_ns = latencies_ns
        self.sim_elapsed_ns = sim_elapsed_ns
        #: Every Simulator the run used; exact counts come from these.
        self.sims = sims
        #: One line per failed check (empty when every output is right).
        self.problems = problems
        #: Workload-specific exact counts (synchronizer, pool, triage).
        self.counts = counts or {}


def _obs_off_problems(when: str) -> List[str]:
    return [f"repro.obs.enabled is on {when} an obs-off run"] \
        if obs.enabled else []


# -- kv_fleet -------------------------------------------------------------


class KvFleet:
    """8-shard cuckoo-KV fleet, 1024 zipfian pooled connections."""

    name = "kv_fleet"
    seed_applies = False

    def __init__(self, seed: int, size: str = "full", spans: Spans = None):
        self.sizing = SIZES[self.name][size]
        self.spans = spans or Spans()
        with self.spans.span("setup.testbed"):
            # Testbeds, KV load, offload programs and fleet wiring are
            # one public call; the phases are not separable from here.
            self.scenario = build_fleet(**self.sizing, telemetry_path="",
                                        exemplars=0)
        self.fingerprint: Optional[dict] = None

    @property
    def planned(self) -> int:
        return _planned(self.sizing)

    def run(self, serial: bool = False) -> Outcome:
        problems = _obs_off_problems("before")
        scenario = self.scenario
        sims = [rig.sim for rig in scenario.rigs]
        try:
            with self.spans.span("scenario.run"):
                fingerprint, measures = scenario.run(serial=serial)
        except FleetError as error:
            failed = _fleet_error_ops(error, self.sizing)
            return Outcome(self.planned, failed, [], 0, sims,
                           problems + [f"FleetError: {error}"])
        problems += _obs_off_problems("after")
        self.fingerprint = fingerprint
        return _fleet_outcome(scenario, fingerprint, measures,
                              self.planned, sims, problems)


def _planned(sizing: dict) -> int:
    """Requests a clean fleet run completes."""
    return (sizing["num_shards"] * sizing["clients_per_shard"]
            * sizing["requests_per_client"])


def _fleet_error_ops(error: FleetError, sizing: dict) -> int:
    """Ops a FleetError fails: every request of each client process it
    names; if it names no client, every request on its beds."""
    per_client = sizing["requests_per_client"]
    clients = [p for p in error.processes if "-client" in p]
    if clients:
        return len(clients) * per_client
    return len(error.beds) * sizing["clients_per_shard"] * per_client


def _fleet_outcome(scenario, fingerprint: dict, measures: dict,
                   planned: int, sims: list, problems: List[str],
                   counts: Optional[dict] = None) -> Outcome:
    """Outcome of a clean fleet run (values are checked inside the
    fleet: a wrong value fails its process and raises FleetError)."""
    requests = fingerprint["requests"]
    if requests != planned:
        problems.append(f"{requests} of {planned} requests completed")
    executed = sum(row["executed"] for row in measures["per_shard"])
    if executed != requests:
        problems.append(f"shards executed {executed} gets for "
                        f"{requests} requests")
    latencies = [lat for rig in scenario.rigs for lat in rig.latencies]
    pool = fingerprint["pool"]
    merged = {
        "sim.sharded.rounds": measures["rounds"],
        "sim.sharded.messages": measures["messages"],
        "net.conn.leases": pool["leases_granted"],
        "net.conn.recycles": pool["recycles"],
        "net.conn.peak_in_use": pool["peak_in_use"],
        "net.conn.exhausted_hits": pool["exhausted_hits"],
        "net.conn.stale_cqes": pool["stale_cqes"],
    }
    merged.update(counts or {})
    failed = planned - requests if requests < planned else 0
    return Outcome(planned, failed, latencies, fingerprint["frontier_ns"],
                   sims, problems, merged)


# -- offload_gets ---------------------------------------------------------

_KEY_LIMIT = 1 << 40
_NUM_BUCKETS = 1024
_VALUE_SIZE = 64
#: Share of the key set pinned to the second cuckoo bucket.
_SECOND_BUCKET_SHARE = 0.25


def _value_for(key: int) -> bytes:
    return key.to_bytes(8, "little") * (_VALUE_SIZE // 8)


def offload_inputs(seed: int, keys: int, calls: int):
    """The seeded inputs: ``[(key, bucket)]`` and the call key stream.

    No two keys share a candidate bucket, so pinning a key to one of
    its buckets evicts nothing; a quarter of the keys live in their
    second bucket.
    """
    rng = random.Random(seed)
    placed, taken = [], set()
    second = int(keys * _SECOND_BUCKET_SHARE)
    while len(placed) < keys:
        key = rng.randrange(1, _KEY_LIMIT)
        buckets = {hash_key(key, which) % _NUM_BUCKETS for which in (0, 1)}
        if len(buckets) < 2 or buckets & taken:
            continue
        taken |= buckets
        placed.append((key, 1 if len(placed) < second else 0))
    stream = [rng.choice(placed)[0] for _ in range(calls)]
    return placed, stream


class OffloadGets:
    """Fig 9 hash-get offload: post one instance, then call, per get."""

    name = "offload_gets"
    seed_applies = True

    def __init__(self, seed: int, size: str = "full", spans: Spans = None):
        self.sizing = SIZES[self.name][size]
        self.spans = spans = spans or Spans()
        placed, self.stream = offload_inputs(seed, self.sizing["keys"],
                                             self.sizing["calls"])
        with spans.span("setup.testbed"):
            self.bed = Testbed(num_clients=1, server_memory=16 << 20,
                               client_memory=16 << 20)
        with spans.span("setup.load"):
            self.store = MemcachedServer(
                self.bed.server, num_buckets=_NUM_BUCKETS,
                slab_size=1 << 20, name="kv")
            self.expected: Dict[int, bytes] = {}
            for key, bucket in placed:
                self.store.set(key, _value_for(key), force_bucket=bucket)
                self.expected[key] = _value_for(key)
        with spans.span("setup.program"):
            self.offload, conn = self.store.attach_get_offload(
                self.bed.clients[0].nic, self.bed.client_pd(0),
                max_instances=16)
            self.client = OffloadClient(conn, self.bed.client_verbs(0))

    def run(self) -> Outcome:
        sim = self.bed.sim
        spans, offload, client = self.spans, self.offload, self.client
        latencies: List[int] = []
        problems = _obs_off_problems("before")

        def driver():
            for op, key in enumerate(self.stream):
                with spans.span("post_instances", op):
                    offload.post_instances(1)
                with spans.span("call", op):
                    result = yield from client.call(
                        offload.payload_for(key), timeout_ns=2_000_000)
                latencies.append(result.latency_ns)
                if not result.ok:
                    problems.append(f"get {op} key {key:#x}: offload miss "
                                    "or timeout")
                elif result.data != self.expected[key]:
                    problems.append(f"get {op} key {key:#x}: wrong value")
                else:
                    done[0] += 1
            # Not the drained-heap clock: each call leaves its timeout
            # event behind, which would stretch the simulated span.
            return sim.now

        done = [0]
        start = sim.now
        with spans.span("scenario.run"):
            proc = sim.process(driver(), name="offload-driver")
            sim.run()
        problems += _obs_off_problems("after")
        end = sim.now
        if not proc.triggered or proc in sim.failed_processes:
            problems.append("the offload driver did not finish")
        else:
            end = proc.value
        attempted = len(self.stream)
        return Outcome(attempted, attempted - done[0], latencies,
                       end - start, [sim], problems)


# -- verb_flood -----------------------------------------------------------

_WAVES = {"W": "W" * 16, "C": "C" * 4, "M": "WWCWWWWCWW"}
#: Wave-type multiset per QP, in quarters: the seed only orders it.
_WAVE_MIX = ("W", "W", "C", "M")
_SLOT = 4096


def flood_inputs(seed: int, qps: int, waves_per_qp: int) -> List[List[str]]:
    """Per-QP seeded permutation of a fixed multiset of wave types."""
    rng = random.Random(seed)
    orders = []
    for _ in range(qps):
        order = [_WAVE_MIX[i % len(_WAVE_MIX)] for i in range(waves_per_qp)]
        rng.shuffle(order)
        orders.append(order)
    return orders


class VerbFlood:
    """Table-3-shaped flood of WRITE and CAS waves over 8 QPs."""

    name = "verb_flood"
    seed_applies = True

    def __init__(self, seed: int, size: str = "full", spans: Spans = None):
        self.sizing = SIZES[self.name][size]
        self.spans = spans = spans or Spans()
        qps = self.sizing["qps"]
        self.orders = flood_inputs(seed, qps, self.sizing["waves_per_qp"])
        with spans.span("setup.testbed"):
            self.bed = bed = Testbed(num_clients=1)
        with spans.span("setup.load"):
            proc = bed.server.spawn_process("sink")
            pd = proc.create_pd()
            self.sink = proc.alloc(_SLOT * qps, label="sink")
            self.sink_mr = pd.register(self.sink)
            self.src = bed.clients[0].memory.alloc(
                _VALUE_SIZE * qps, owner="client", label="flood-src")
            self.qps = []
            for index in range(qps):
                server_qp = proc.create_qp(pd, name=f"vf-s{index}")
                client_qp = bed.clients[0].nic.create_qp(
                    bed.client_pd(0), send_slots=512, name=f"vf-c{index}")
                server_qp.connect(client_qp)
                self.qps.append(client_qp)
                bed.clients[0].memory.write(self.src.addr + index * 64,
                                            self.pattern(index))

    @staticmethod
    def pattern(index: int) -> bytes:
        return bytes((index * 37 + i) & 0xFF for i in range(_VALUE_SIZE))

    def _flood(self, index: int, latencies: List[int], problems: List[str]):
        sim, qp = self.bed.sim, self.qps[index]
        cq = qp.send_wq.cq
        src = self.src.addr + index * 64
        slot = self.sink.addr + index * _SLOT
        rkey = self.sink_mr.rkey
        cas_done = writes = failed = 0
        for wave_id, kind in enumerate(self.orders[index]):
            shape = _WAVES[kind]
            start = sim.now
            for position, verb in enumerate(shape):
                signaled = position == len(shape) - 1
                if verb == "C":
                    wqe = wr_cas(slot, rkey, cas_done, cas_done + 1,
                                 wr_id=wave_id, signaled=signaled)
                    cas_done += 1
                else:
                    target = slot + 64 + (writes % 8) * 64
                    wqe = wr_write(src, _VALUE_SIZE, target, rkey,
                                   wr_id=wave_id, signaled=signaled)
                    writes += 1
                qp.post_send(wqe)
            cqe = cq.poll()
            while cqe is None:
                yield cq.wait_for_event()
                cqe = cq.poll()
            latencies.append(sim.now - start)
            if not cqe.ok or cqe.wr_id != wave_id:
                failed += 1
                problems.append(f"qp {index} wave {wave_id}: bad CQE")
        return failed, cas_done, writes

    def run(self) -> Outcome:
        sim, memory = self.bed.sim, self.bed.server.memory
        latencies: List[int] = []
        problems = _obs_off_problems("before")
        start = sim.now
        with self.spans.span("scenario.run"):
            procs = [sim.process(self._flood(i, latencies, problems),
                                 name=f"flood{i}")
                     for i in range(len(self.qps))]
            sim.run()
        problems += _obs_off_problems("after")
        attempted = sum(len(order) for order in self.orders)
        failed = 0
        for index, proc in enumerate(procs):
            waves = len(self.orders[index])
            if not proc.triggered or proc in sim.failed_processes:
                problems.append(f"flood {index} did not finish")
                failed += waves
                continue
            lost, cas_done, writes = proc.value
            failed += lost
            slot = self.sink.addr + index * _SLOT
            # In-order CAS n: n -> n+1 leaves the count iff all applied.
            counter = int.from_bytes(memory.read(slot, 8), "big")
            written = memory.read(slot + 64, 64 * min(writes, 8))
            if counter != cas_done \
                    or written != self.pattern(index) * min(writes, 8):
                problems.append(f"qp {index}: sink memory is wrong "
                                f"(CAS count {counter} != {cas_done})")
                failed += waves - lost
        return Outcome(attempted, min(failed, attempted), latencies,
                       sim.now - start, [sim], problems)


# -- triage_storm ---------------------------------------------------------


class TriageStorm:
    """``run_triage("storm")``, built and run as two separate phases."""

    name = "triage_storm"
    seed_applies = False
    window_ns = 20_000
    exemplars = 4

    def __init__(self, seed: int, size: str = "full", spans: Spans = None):
        self.sizing = SIZES[self.name][size]
        self.spans = spans = spans or Spans()
        with spans.span("setup.testbed"):
            self.scenario = build_fleet(**self.sizing, pool_qps=8,
                                        telemetry_path="", exemplars=0)
        with spans.span("setup.program"):
            telemetry = self.scenario.attach_telemetry(
                window_ns=self.window_ns, exemplars=self.exemplars)
            self.fault = inject_storm(self.scenario)
            rig = self.scenario.rigs[self.fault.shard]
            self.recorder = FlightRecorder(
                rig.sim, name=f"{rig.shard.name}-triage",
                capacity=1 << 15, monitor=False)
            self.sentry = FleetSentry(
                self.window_ns, recorders={self.fault.shard: self.recorder},
                skew_min_total=3 * self.sizing["num_shards"]
            ).subscribe(telemetry)

    @property
    def planned(self) -> int:
        return _planned(self.sizing)

    def run(self) -> Outcome:
        scenario = self.scenario
        sims = [rig.sim for rig in scenario.rigs]
        try:
            with self.spans.span("scenario.run"):
                fingerprint, measures = scenario.run()
                self.recorder.close()
                self.report = self.sentry.report(
                    faults=[self.fault.to_dict()],
                    context={"scenario": "storm", "pool_qps": 8,
                             "exemplars": self.exemplars, **self.sizing})
                verdict = triage_verdict(self.report)
        except FleetError as error:
            self.recorder.close()
            failed = _fleet_error_ops(error, self.sizing)
            return Outcome(self.planned, failed, [], 0, sims,
                           [f"FleetError: {error}"])
        problems = []
        if len(verdict["explained"]) != 1 or verdict["missed"] \
                or verdict["false_positives"]:
            problems.append(
                f"storm verdict: {len(verdict['explained'])} explained, "
                f"{len(verdict['missed'])} missed, "
                f"{len(verdict['false_positives'])} false positives")
        detect = [row["detection_latency_ns"]
                  for row in verdict["explained"]]
        counts = {"triage_detect_us": detect[0] / 1000 if detect else 0.0}
        outcome = _fleet_outcome(scenario, fingerprint, measures,
                                 self.planned, sims, problems, counts)
        if problems and not outcome.failed:
            # A wrong verdict is a wrong output of the whole run.
            outcome.failed = outcome.attempted
        return outcome


WORKLOADS = {cls.name: cls for cls in
             (KvFleet, OffloadGets, VerbFlood, TriageStorm)}
