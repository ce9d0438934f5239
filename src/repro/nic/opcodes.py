"""RDMA verb opcodes and work-request flags.

Opcode numbering is project-internal (the simulator defines its own
"wire format"), but the *set* of verbs mirrors what the paper uses on
ConnectX NICs:

* data movement — SEND/RECV (two-sided), WRITE/WRITE_IMM/READ (one-sided),
* atomics — CAS (compare-and-swap) and FETCH_ADD ("ADD" in the paper),
* vendor calc verbs — MAX/MIN (§3.5: inequality predicates),
* cross-channel ordering — WAIT and ENABLE (§3.1),
* NOOP — the placeholder that self-modifying CAS verbs rewrite into real
  verbs (Fig 4). NOOP is deliberately opcode 0 so that zero-filled queue
  memory decodes as a harmless no-op.
"""

from __future__ import annotations

__all__ = ["Opcode", "WrFlags", "OPCODE_NAMES", "op_name", "is_copy_verb",
           "is_atomic_verb", "is_ordering_verb"]


class Opcode:
    """Verb opcodes as they appear in the 16-bit ctrl-word field."""

    NOOP = 0x0000
    SEND = 0x0001
    RECV = 0x0002
    WRITE = 0x0003
    WRITE_IMM = 0x0004
    READ = 0x0005
    CAS = 0x0006
    FETCH_ADD = 0x0007
    MAX = 0x0008
    MIN = 0x0009
    WAIT = 0x000A
    ENABLE = 0x000B


OPCODE_NAMES = {
    Opcode.NOOP: "NOOP",
    Opcode.SEND: "SEND",
    Opcode.RECV: "RECV",
    Opcode.WRITE: "WRITE",
    Opcode.WRITE_IMM: "WRITE_IMM",
    Opcode.READ: "READ",
    Opcode.CAS: "CAS",
    Opcode.FETCH_ADD: "FETCH_ADD",
    Opcode.MAX: "MAX",
    Opcode.MIN: "MIN",
    Opcode.WAIT: "WAIT",
    Opcode.ENABLE: "ENABLE",
}


def op_name(opcode: int) -> str:
    """Display name of an opcode; unknown values render as ``OP0x..``."""
    return OPCODE_NAMES.get(opcode, f"OP{opcode:#x}")


_COPY_VERBS = {Opcode.SEND, Opcode.RECV, Opcode.WRITE, Opcode.WRITE_IMM,
               Opcode.READ}
_ATOMIC_VERBS = {Opcode.CAS, Opcode.FETCH_ADD, Opcode.MAX, Opcode.MIN}
_ORDERING_VERBS = {Opcode.WAIT, Opcode.ENABLE}


def is_copy_verb(opcode: int) -> bool:
    """Copy verbs: the "C" category in the paper's Table 2."""
    return opcode in _COPY_VERBS


def is_atomic_verb(opcode: int) -> bool:
    """Atomic/calc verbs: the "A" category in the paper's Table 2."""
    return opcode in _ATOMIC_VERBS


def is_ordering_verb(opcode: int) -> bool:
    """WAIT/ENABLE: the "E" category in the paper's Table 2."""
    return opcode in _ORDERING_VERBS


class WrFlags:
    """Work-request flag bits (the ``flags`` WQE field).

    SIGNALED
        Generate a CQE on completion. RedN's ``break`` works by a
        self-modifying WRITE *clearing* this bit on the last WR of a
        loop iteration, so the next iteration's WAIT never fires (§3.4).
    FENCE
        Do not start this WR until all previous WRs on the queue have
        completed (data barrier).
    ENABLE_RELATIVE
        For ENABLE only: interpret ``wqe_count`` as an increment to the
        target queue's enabled counter instead of an absolute index.
        Absolute WAIT counters are the reason WQ recycling needs ADD
        verbs (§3.4); relative ENABLEs are what lets a recycled ring
        re-arm itself with a single tail verb.
    """

    NONE = 0x0
    SIGNALED = 0x1
    FENCE = 0x2
    ENABLE_RELATIVE = 0x4
