"""How fast this host runs Python right now, from a fixed work loop.

The benchmark shares its machine, and the speed the machine gives one
process drifts by 20-70% over seconds to minutes. A timed run rescaled
by the time of this loop, run right beside it, cancels much of that
drift. The loop is the benchmark's own pure-Python code and never calls
into the program, so a change to the program cannot move it. It mimics
the simulator's hot path (a heap of small event objects resuming
generators, method calls, dict updates, bytearray slices) but shares
no code with it. Changing the loop or ``REFERENCE_S`` rescales every
``host_ops_per_s`` figure, so compare only runs made with the same loop.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "loop_seconds", "to_reference"]

#: CPU seconds of one loop on the reference host. Host times are
#: reported as if measured there.
REFERENCE_S = 0.1

_STEPS = 40_000
_NODES = 64


class _Event:
    __slots__ = ("when", "seq", "target", "value", "callbacks")

    def __init__(self, when: int, seq: int, target: int):
        self.when, self.seq, self.target = when, seq, target
        self.value = None
        self.callbacks: list = []

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class _Node:
    def __init__(self, index: int, memory: bytearray):
        self.index = index
        self.memory = memory
        self.count = 0
        self.log: dict = {}

    def handle(self, event: _Event) -> int:
        self.count += 1
        key = (event.target, event.when & 63)
        self.log[key] = self.log.get(key, 0) + 1
        at = (self.index * 128 + event.when) & 0xFF80
        chunk = bytes(self.memory[at:at + 32])
        self.memory[at:at + 8] = (self.count + len(chunk)).to_bytes(
            8, "little")
        return self.count


def _loop() -> None:
    memory = bytearray(1 << 16)
    heap: list = []

    def serve(node: _Node):
        while True:
            event = yield
            event.value = node.handle(event)
            event.callbacks.append(event.value)

    procs = [serve(_Node(index, memory)) for index in range(_NODES)]
    for proc in procs:
        next(proc)
    for step in range(_STEPS):
        heapq.heappush(heap, _Event((step * 7919) % 4096, step,
                                    step % _NODES))
        if len(heap) > 256:
            event = heapq.heappop(heap)
            procs[event.target].send(event)


def loop_seconds() -> float:
    """CPU seconds this process takes for one loop, now."""
    start = time.process_time()
    _loop()
    return time.process_time() - start


def to_reference(seconds: float, loop_s: float) -> float:
    """A host time measured beside loops of ``loop_s`` CPU seconds,
    rescaled to the reference host."""
    return seconds * REFERENCE_S / loop_s
