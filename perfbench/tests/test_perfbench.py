"""Tests for the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def untraced():
    return {name: bench.measure(name, 1, 0, "tiny") for name in NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: bench.measure(name, 1, 0, "tiny", trace=True)
            for name in NAMES}


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(NAMES) == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        [name for name, _ in bench.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [name for name, _ in bench.PER_LAYER]


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in untraced.items():
        result = bench.result_of(m)
        assert result["correct"], (name, m.problems[:3])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, m in traced.items():
        result = bench.result_of(m)
        assert result["correct"], (name, m.problems[:3])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_sim_metrics_repeat_exactly(untraced):
    for name in ("offload_gets", "verb_flood"):
        again = bench.measure(name, 1, 0, "tiny")
        assert again.reference["sim"] == untraced[name].reference["sim"]
        assert again.reference["counts"] == \
            untraced[name].reference["counts"]


def test_seed_changes_only_the_seeded_inputs():
    assert workloads.offload_inputs(1, 8, 40) == \
        workloads.offload_inputs(1, 8, 40)
    assert workloads.offload_inputs(1, 8, 40) != \
        workloads.offload_inputs(2, 8, 40)
    first, second = (workloads.flood_inputs(s, 2, 8) for s in (1, 2))
    assert first != second
    assert [sorted(order) for order in first] == \
        [sorted(order) for order in second]


def test_traced_self_times_fit_in_the_traced_total(traced):
    for name, m in traced.items():
        layers = sum(m.metrics[f"{layer}.self_s"]
                     for layer in bench._SELF_LAYERS if layer != "obs")
        assert 0 < layers <= m.metrics["traced_total_s"], name
        assert m.metrics["trace_overhead"] > 0


def test_cross_layer_call_counts_repeat_exactly(traced):
    again = bench.measure("offload_gets", 1, 0, "tiny", trace=True)
    for name in ("memory.calls", "nic.calls", "redn.calls",
                 "nic.doorbell_rings"):
        assert again.metrics[name] == traced["offload_gets"].metrics[name]


def test_work_lands_where_each_workload_says(traced):
    for name, m in traced.items():
        fleet = name in ("kv_fleet", "triage_storm")
        assert (m.metrics["obs.self_s"] > 0) == (name == "triage_storm")
        assert (m.metrics["sim.sharded.rounds"] > 0) == fleet
    assert traced["verb_flood"].metrics["redn.self_s"] == 0
    shares = {name: m.metrics["redn.self_share"] for name, m in traced.items()}
    assert max(shares, key=shares.get) == "offload_gets"
    assert traced["offload_gets"].metrics["redn.post_instance_us"] > 0
    assert traced["triage_storm"].metrics["triage_detect_us"] > 0
    assert not obs.enabled


def test_triage_workload_is_the_public_storm_triage():
    from repro.bench.faults import run_triage
    workload = workloads.TriageStorm(1)
    assert workload.run().failed == 0
    report = json.dumps(workload.report, sort_keys=True, indent=2) + "\n"
    assert report == run_triage("storm").report_json


def test_output_check_rejects_a_wrong_value():
    workload = workloads.OffloadGets(1, "tiny")
    key = workload.stream[0]
    workload.store.set(key, b"\xee" * 64)
    outcome = workload.run()
    wrong = workload.stream.count(key)
    assert outcome.failed == wrong
    assert any("wrong value" in line for line in outcome.problems)


def test_flood_check_rejects_wrong_memory():
    workload = workloads.VerbFlood(1, "tiny")
    outcome = workload.run()
    assert outcome.failed == 0
    workload = workloads.VerbFlood(1, "tiny")
    # A counter no compare value matches makes every CAS miss, so the
    # sink never reaches the posted CAS count.
    workload.bed.server.memory.write(workload.sink.addr, b"\xff" * 8)
    outcome = workload.run()
    assert outcome.failed > 0
    assert any("sink memory" in line for line in outcome.problems)


def test_fleet_error_fails_the_named_processes_ops():
    sizing = workloads.SIZES["kv_fleet"]["tiny"]
    error = workloads.FleetError("boom", ["shard1"],
                                 ["shard1-client0", "shard1-client3"])
    assert workloads._fleet_error_ops(error, sizing) == \
        2 * sizing["requests_per_client"]
    error = workloads.FleetError("boom", ["shard1"], ["shard1-gw0"])
    assert workloads._fleet_error_ops(error, sizing) == \
        sizing["clients_per_shard"] * sizing["requests_per_client"]


def test_drift_is_reported_by_name(untraced):
    m = untraced["kv_fleet"]
    m.size = "full"
    recorded = {"default_seed": 1, "workloads": {"kv_fleet": {
        "seed_applies": False,
        "values": {**m.reference["sim"], **m.reference["counts"]}}}}
    assert bench.drift(m, recorded) == []
    recorded["workloads"]["kv_fleet"]["values"]["sim.events"] += 1
    assert [line.split(":")[0] for line in bench.drift(m, recorded)] == \
        ["sim.events"]
    m.size = "tiny"


def test_cli_prints_one_json_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "verb_flood", "--seed", "3", "--seconds", "0", "--trace", "0",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
