"""Per-layer host cost from one cProfile run, measured from outside.

Self time is summed per ``repro.<layer>`` module. Functions outside the
package (builtins and the standard library) are charged to the layer
that called them, split over their callers by the callers' share of
their self time. The benchmark's own functions are the ``harness``
layer. ``obs.metrics`` is the always-on counter registry behind
``sim.metrics``; every other ``repro.obs`` module is an obs sink.

A call counts toward ``<package>.calls`` only when it enters that
package from a different one.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Tuple

__all__ = ["LAYERS", "PACKAGE_CALLS", "attribute"]

# Module (path under ``repro/``) -> layer; the first matching prefix wins.
_MODULE_LAYERS = (
    ("sim/sharded.py", "sim.sharded"),
    ("sim/", "sim.core"),
    ("memory/", "memory"),
    ("nic/wqe.py", "nic.wqe"),
    ("nic/queue.py", "nic.queue"),
    ("nic/processing.py", "nic.processing"),
    ("nic/verbs.py", "nic.verbs"),
    ("nic/", "nic.other"),
    ("redn/", "redn"),
    ("offloads/", "offloads"),
    ("ibv/", "ibv"),
    ("net/conn.py", "net.conn"),
    ("net/", "net.other"),
    ("obs/telemetry.py", "obs.telemetry"),
    ("obs/blame.py", "obs.blame"),
    ("obs/critpath.py", "obs.blame"),
    ("obs/sentry.py", "obs.sentry"),
    ("obs/recorder.py", "obs.recorder"),
    ("obs/metrics.py", "obs.metrics"),
    ("obs/", "obs.other"),
    ("apps/", "apps"),
    ("datastructs/", "datastructs"),
    ("bench/", "bench"),
    ("", "repro"),
)

#: Every layer a self time is reported for, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in _MODULE_LAYERS)) \
    + ("harness",)

#: Packages whose cross-package entries are counted.
PACKAGE_CALLS = ("sim", "memory", "nic", "redn", "offloads", "ibv", "net",
                 "obs")

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
_MARK = os.sep + "repro" + os.sep

Func = Tuple[str, int, str]

# Columns of a pstats caller row: (calls, primitive calls, tt, ct).
_NC, _TT = 0, 2


def _own_layer(func: Func):
    """The layer of a profiled function, or None if it is charged to
    its callers (builtins and the standard library)."""
    filename = func[0]
    index = filename.rfind(_MARK)
    if index >= 0:
        module = filename[index + len(_MARK):].replace(os.sep, "/")
        for prefix, layer in _MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    if filename.startswith(_HARNESS_DIR):
        return "harness"
    return None


def attribute(stats: dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds per layer, cross-package calls per package)``
    from a ``pstats.Stats(...).stats`` mapping."""
    memos: Dict[int, Dict[Func, Dict[str, float]]] = {_TT: {}, _NC: {}}

    def shares(func: Func, weight: int,
               visiting: frozenset = frozenset()) -> Dict[str, float]:
        """Fraction of ``func`` owed by each layer, splitting a charged
        function over its callers by their ``weight`` column."""
        layer = _own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        memo = memos[weight]
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: row[weight] for caller, row in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        result: Dict[str, float] = defaultdict(float)
        if total <= 0:
            result["harness"] = 1.0
        else:
            for caller, part in weights.items():
                for owner, share in shares(caller, weight,
                                           visiting | {func}).items():
                    result[owner] += share * part / total
        memo[func] = dict(result)
        return memo[func]

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {package: 0 for package in PACKAGE_CALLS}
    for func, (_, _, tt, _, callers) in stats.items():
        for owner, share in shares(func, _TT).items():
            self_s[owner] += tt * share
        layer = _own_layer(func)
        if layer is None or layer.split(".")[0] not in calls:
            continue
        package = layer.split(".")[0]
        for caller, row in callers.items():
            # Call counts, not times, pick a charged caller's home, so
            # the count repeats exactly from run to run.
            owners = shares(caller, _NC)
            if max(owners, key=owners.get).split(".")[0] != package:
                calls[package] += row[_NC]
    return self_s, calls
