"""The speed gate's verdicts: simulated drift vs host-cost moves."""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from perf_smoke import compare_fingerprint, split_fingerprint  # noqa: E402

BASE = {
    "events": 46799,
    "fingerprint": {"frontier_ns": 265185, "latency_sum_ns": 2894720,
                    "per_bed_events": [2924, 2925], "requests": 640},
}


def _with(**changes):
    result = copy.deepcopy(BASE)
    for key, value in changes.items():
        if key == "events":
            result["events"] = value
        else:
            result["fingerprint"][key] = value
    return result


def test_split_separates_event_counts():
    simulated, host_cost = split_fingerprint(BASE)
    assert simulated == {"frontier_ns": 265185, "latency_sum_ns": 2894720,
                         "requests": 640}
    assert host_cost == {"per_bed_events": [2924, 2925], "events": 46799}


def test_identical_passes(capsys):
    assert compare_fingerprint("w", _with(), BASE) == 0
    assert capsys.readouterr().out == ""


def test_event_counts_alone_exit_1(capsys):
    assert compare_fingerprint("w", _with(events=46000), BASE) == 1
    assert compare_fingerprint(
        "w", _with(per_bed_events=[2000, 2925]), BASE) == 1
    assert "EVENT COUNTS CHANGED" in capsys.readouterr().out


def test_simulated_drift_exit_2_whatever_the_events(capsys):
    drifted = _with(latency_sum_ns=2894721, events=46000)
    assert compare_fingerprint("w", drifted, BASE) == 2
    assert "DETERMINISM DRIFT" in capsys.readouterr().out
