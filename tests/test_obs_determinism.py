"""Tracing determinism: byte-identical traces, schedule-neutral tracer.

Two guarantees hold the observability layer to the simulator's
determinism discipline:

* the same scenario traced twice produces **byte-identical** Chrome
  trace JSON (every name in the trace is derived from explicit names,
  never from process-global ids);
* attaching a tracer never changes what the simulation computes — the
  run fingerprint (final simulated time, kernel progress counters, NIC
  opcode counts, payload bytes) is bit-identical with tracing on, off,
  or toggled between runs.

The flight recorder (``repro.obs.recorder``) is held to the same bar:
off / traced / recorded runs must agree bit-for-bit, and two recorded
runs must dump byte-identical journals.

Sinks are isolated from each other: each sink's output is byte-identical
whether it runs alone or beside the other two, in every attach order,
and its sha256 is pinned, so a refactor of the instrumentation seam
cannot silently change any artifact.
"""

import hashlib
import itertools
import json

import pytest

from repro.ibv import VerbsContext, wr_fetch_add, wr_noop, wr_write
from repro.memory import HostMemory, ProtectionDomain
from repro.nic import RNIC
from repro.obs import (
    FleetTelemetry,
    FlightRecorder,
    Tracer,
    chrome_events,
    load_journal,
)
from repro.redn import ProgramBuilder, RecycledLoop, RednContext
from repro.sim import Simulator


def build_rig():
    """A LoopbackRig equivalent with every name pinned explicitly, so
    repeated builds inside one process are name-identical."""
    sim = Simulator()
    memory = HostMemory(name="mem")
    nic = RNIC(sim, memory, name="nic")
    pd = ProtectionDomain(memory, name="pd")
    qp_a, qp_b = nic.create_loopback_pair(pd, name="lo")
    verbs = VerbsContext(sim, name="lo-verbs")
    return sim, memory, nic, pd, qp_a, qp_b, verbs


SINKS = ("tracer", "recorder", "telemetry")


def run_scenario(trace: bool, record: bool = False,
                 telemetry: bool = False, order=SINKS,
                 tracer_journal: bool = False):
    """A mixed workload: recycled self-modifying loop + WRITE chain.

    Returns (outputs, fingerprint): ``outputs`` maps each attached sink
    kind to its output — the tracer's Chrome JSON, the recorder's
    journal JSONL, the telemetry window JSONL (plus, with
    ``tracer_journal``, the tracer's own journal JSONL). The selected
    sinks are attached in ``order``.
    """
    sim, memory, nic, pd, qp_a, qp_b, verbs = build_rig()
    tracer = None
    recorder = None
    fleet = None
    wanted = {"tracer": trace, "recorder": record, "telemetry": telemetry}
    for kind in order:
        if not wanted[kind]:
            continue
        if kind == "tracer":
            tracer = Tracer(sim, name="det")
            tracer.attach_nic(nic)
        elif kind == "recorder":
            recorder = FlightRecorder(sim, name="det",
                                      checkpoint_interval=16)
            recorder.attach_nic(nic)
        else:
            fleet = FleetTelemetry(window_ns=10_000)
            fleet.attach(sim, bed="det")

    ctx = RednContext(nic, pd, owner="det", name="detctx")
    builder = ProgramBuilder(ctx, name="det-loop")
    counter, counter_mr = ctx.alloc_registered(8, label="ctr")
    loop = RecycledLoop(builder, qp_a.send_wq.cq, trigger_delta=1,
                        name="ticker")
    loop.body(wr_fetch_add(counter.addr, counter_mr.rkey, 1,
                           signaled=True), tag="while.body")
    loop.build()
    loop.start()

    src = memory.alloc(64, label="src")
    dst = memory.alloc(64, label="dst")
    dst_mr = pd.register(dst)
    memory.write(src.addr, bytes(range(64)))

    def run():
        for _ in range(3):
            yield from verbs.execute_sync_checked(
                qp_a, wr_noop(signaled=True))
            yield sim.timeout(30_000)
        for _ in range(4):
            yield from verbs.execute_sync_checked(
                qp_b, wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                               signaled=True))
        return memory.read_u64(counter.addr)

    laps = sim.run_process(run())
    fingerprint = (
        laps,
        sim.now,
        dict(sim.stats),
        tuple(sorted(nic.stats.items())),
        memory.read(dst.addr, 64),
    )
    outputs = {}
    if tracer is not None:
        outputs["tracer"] = tracer.to_json()
        if tracer_journal:
            outputs["tracer_journal"] = tracer.to_jsonl()
        tracer.close()
    if recorder is not None:
        outputs["recorder"] = recorder.to_jsonl()
        assert recorder.violations == []
        recorder.close()
    if fleet is not None:
        fleet.finalize()
        outputs["telemetry"] = fleet.to_jsonl()
        fleet.close()
    return outputs, fingerprint


def test_double_run_traces_byte_identical():
    first, fp_first = run_scenario(trace=True)
    second, fp_second = run_scenario(trace=True)
    assert fp_first == fp_second
    assert first == second


def test_tracing_off_leaves_fingerprint_bit_identical():
    _, untraced = run_scenario(trace=False)
    _, traced = run_scenario(trace=True)
    _, untraced_again = run_scenario(trace=False)
    assert untraced == traced
    assert untraced == untraced_again


def test_recorder_off_traced_recorded_triple_identical():
    """The zero-cost flag audit: off / traced / recorded runs agree."""
    _, off = run_scenario(trace=False)
    _, traced = run_scenario(trace=True)
    _, recorded = run_scenario(trace=False, record=True)
    _, both = run_scenario(trace=True, record=True)
    _, off_again = run_scenario(trace=False)
    assert off == traced == recorded == both == off_again


def test_telemetry_off_traced_telemetry_triple_identical():
    """Same audit for the telemetry plane: the off/traced/telemetry
    fingerprint triple stays bit-identical, and two telemetry runs
    dump byte-identical window streams."""
    _, off = run_scenario(trace=False)
    first, with_telemetry = run_scenario(trace=False, telemetry=True)
    _, traced = run_scenario(trace=True)
    second, again = run_scenario(trace=False, telemetry=True)
    _, all_three = run_scenario(trace=True, record=True, telemetry=True)
    assert off == traced == with_telemetry == again == all_three
    assert first == second
    assert first["telemetry"]  # the stream actually carries records


def test_double_run_journals_byte_identical():
    first, fp_first = run_scenario(trace=False, record=True)
    second, fp_second = run_scenario(trace=False, record=True)
    assert fp_first == fp_second
    assert first == second


def test_trace_records_expected_race_count():
    outputs, _ = run_scenario(trace=True)
    text = outputs["tracer"]
    # 3 loop laps -> 3 wqe_count self-modifications, embedded in the
    # serialized trace itself (the double-run test compares bytes, so
    # pin down that the bytes carry the interesting content too).
    assert text.count('"self_mod"') == 3
    assert text.count('"stale_wqe"') == 0


#: sha256 of each sink's output for this scenario. Any change to these
#: is a change to a user-visible artifact and must say why.
PINNED_SHA256 = {
    "tracer":
        "e5aba80a3911995626f3251991398c95440fcc6d6d330e9152c21ceaab62e474",
    "recorder":
        "98d6487f115ad9c71c8c352bdd143de95e2dd9832804286672356afb6d485fe1",
    "telemetry":
        "57ac8f71bbdbb54f0cd528e92cea6ed579b56a48536ff991d5f44ff80d5fd416",
}


@pytest.fixture(scope="module")
def alone():
    """Each sink's output from a run where it is the only sink."""
    outputs = {}
    for kind in SINKS:
        flags = {"trace": kind == "tracer", "record": kind == "recorder",
                 "telemetry": kind == "telemetry"}
        run_outputs, _ = run_scenario(**flags)
        assert list(run_outputs) == [kind]
        outputs.update(run_outputs)
    return outputs


@pytest.mark.parametrize("order", list(itertools.permutations(SINKS)),
                         ids="-".join)
def test_sink_output_independent_of_other_sinks(alone, order):
    together, _ = run_scenario(trace=True, record=True, telemetry=True,
                               order=order)
    assert together == alone


def test_sink_outputs_match_pinned_digests(alone):
    digests = {kind: hashlib.sha256(text.encode()).hexdigest()
               for kind, text in alone.items()}
    assert digests == PINNED_SHA256


def test_tracer_journal_rerenders_trace_byte_identical():
    """A traced run's journal is the whole trace: rendering the dumped
    journal offline reproduces the live Chrome JSON byte for byte."""
    outputs, _ = run_scenario(trace=True, tracer_journal=True)
    records = load_journal(outputs["tracer_journal"]).records
    offline = json.dumps({"traceEvents": chrome_events(records),
                          "displayTimeUnit": "ns"},
                         sort_keys=True, separators=(",", ":"))
    assert offline == outputs["tracer"]
    assert hashlib.sha256(offline.encode()).hexdigest() == \
        PINNED_SHA256["tracer"]
