"""Compile-once chain images: link one instance, post relocated copies.

The paper pre-posts its offload chains at setup time and, per request,
only the operands change (§3.5 "Offload setup", Fig 9). An offload
that posts many identical request instances links the first one
through the IR (builder -> IR -> :func:`~repro.redn.linker.link_op`)
and captures it here as a :class:`ChainImage`: the encoded bytes of
every WR it posted, in post order, plus a relocation table. Every
later instance is those bytes with a few fields patched, posted
through :meth:`repro.nic.queue.WorkQueue.post_bytes` — the same
producer path :meth:`~repro.nic.queue.WorkQueue.post` uses, so ring
bytes, slot generations, obs hooks and doorbell timing are identical
to linking the instance through the IR.

Relocations are derived from the IR ops' symbols, never from fixed
per-instance strides. Each reads *live* queue state at post time —
the per-queue bases ``(slot cursor, posted count, signaled count)``
— plus a delta fixed at capture:

* ``slot``      — a :class:`~repro.redn.ir.FieldRef` at a WR of the
  image (a CAS ``raddr`` aimed at a response ctrl word, a READ
  ``laddr`` aimed at a response id, a trigger RECV's scatter target):
  the target's ring-wrapped slot address plus the field offset;
* ``posted``    — an ENABLE through a WR of the image: its absolute
  ``wr_index + 1``;
* ``signaled``  — a :class:`~repro.redn.ir.SignaledCount` WAIT
  threshold;
* ``ordinal``   — an :class:`~repro.redn.ir.InstanceOrdinal` literal
  (a trigger WAIT's ``instance + 1``, a WRITE_IMM immediate).

Reading live counters keeps the image correct however the rings wrap
and whatever else was posted on a queue between instances. A posted
instance is recorded on the program as (image, instance, bases);
:meth:`ChainImage.expand` turns that back into relocated op views when
a verifier, cost pass or lint reads ``program.ops``.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from ..nic.queue import QueueError, WorkQueue
from ..nic.wqe import WQE_SLOT_SIZE, Wqe, field_location
from .ir import (
    AimEdge,
    ArmCasOp,
    ArmWord,
    ChainOp,
    ChainProgram,
    EnableOp,
    FieldRef,
    InjectReadOp,
    InstanceOrdinal,
    SignaledCount,
    TemplateOp,
    WaitOp,
    op_of,
)
from .program import ChainQueue, ProgramError, WrRef

__all__ = ["ChainImage"]

# Relocation kinds. POSTED and SIGNALED double as indexes into a
# queue's bases tuple (slot cursor, posted count, signaled count).
_SLOT, _POSTED, _SIGNALED, _ORDINAL = 0, 1, 2, 3

# Header fields an InstanceOrdinal may occupy: (field, Wqe attribute).
_ORDINAL_FIELDS = (("id", "wr_id"), ("laddr", "laddr"),
                   ("length", "length"), ("raddr", "raddr"),
                   ("operand0", "operand0"), ("operand1", "operand1"),
                   ("wqe_count", "wqe_count"))

_LADDR = field_location("laddr")[0]
_RADDR = field_location("raddr")[0]
_WQE_COUNT = field_location("wqe_count")[0]


class ChainImage:
    """One linked request instance as bytes plus a relocation table.

    ``program.ir_ops[first_op:]`` and ``program.ir_edges[first_edge:]``
    are the instance just linked through the IR; ``trigger`` is the
    ``(recv_wq, recv_wqe, targets)`` RECV posted after them, whose
    scatter entry ``i`` lands on ``targets[i]``; ``doorbells`` are
    queues rung once after everything is posted. Tags of the instance
    start with ``f"{tag_stem}{instance}"``.
    """

    def __init__(self, program: ChainProgram, first_op: int,
                 first_edge: int, instance: int, tag_stem: str,
                 trigger: Tuple[WorkQueue, Wqe, Sequence[FieldRef]],
                 doorbells: Sequence[WorkQueue]):
        self.program = program
        self.instance = instance
        self.tag_stem = tag_stem
        self.protos: List[ChainOp] = program.ir_ops[first_op:]
        self.proto_edges: List[AimEdge] = program.ir_edges[first_edge:]
        self.doorbells = list(doorbells)
        #: Per queue the instance touches: (work queue, chain queue or
        #: None for the trigger's receive queue).
        self.queues: List[Tuple[WorkQueue, Optional[ChainQueue]]] = []
        self._queue_index: Dict[int, int] = {}
        self._proto_index = {id(op): k for k, op in enumerate(self.protos)}

        posted = []          # (queue index, wqe, signaled) in post order
        for op in self.protos:
            self._check_supported(op)
            chain = op.queue
            posted.append((self._queue(chain.wq, chain), op.ref.wqe,
                           op.ref.wqe.signaled))
            if isinstance(op, WaitOp) and isinstance(op.threshold,
                                                     SignaledCount):
                counted = op.threshold.queue
                self._queue(counted.wq, counted)
        recv_wq, recv_wqe, targets = trigger
        posted.append((self._queue(recv_wq, None), recv_wqe, False))
        for edge in self.proto_edges:
            if edge.src_field is not None or edge.src_sge is not None:
                raise ProgramError(
                    f"cannot image {edge!r}: setup-time pokes are not "
                    "relocated")

        # Capture-time bases: live state minus what this instance added.
        totals = [[0, 0, 0] for _ in self.queues]
        for q, wqe, signaled in posted:
            totals[q][0] += wqe.num_slots
            totals[q][1] += 1
            totals[q][2] += signaled
        #: Ring slots one instance needs on each queue.
        self.demand = [total[0] for total in totals]
        bases = tuple(
            (slot - total[0], count - total[1], signals - total[2])
            for (slot, count, signals), total
            in zip(self._live_state(), totals))

        #: Per WR: (queue index, slot delta, wr delta, signal delta).
        self.layout: List[Tuple[int, int, int, int]] = []
        cursor = [list(base) for base in bases]
        for q, wqe, signaled in posted:
            slot, count, signals = cursor[q]
            signals += signaled
            self.layout.append((q, slot - bases[q][0], count - bases[q][1],
                                signals - bases[q][2]))
            cursor[q] = [slot + wqe.num_slots, count + 1, signals]
        self.signals = [(q, total[2]) for q, total in enumerate(totals)
                        if total[2]]
        #: The work queue of each WR, in post order.
        self.post_order = [self.queues[q][0] for q, *_ in self.layout]

        #: Per WR: (encoded bytes, relocations). A relocation is
        #: (byte offset, width, kind, queue-or-WR index, delta).
        self.wrs: List[Tuple[bytes, Tuple[tuple, ...]]] = []
        for op in self.protos:
            self.wrs.append((bytes(op.ref.wqe.encode()),
                             tuple(self._relocations(op, bases))))
        relocs = tuple((WQE_SLOT_SIZE + 16 * index, 8, _SLOT,
                        self._wr_of(target), target.offset)
                       for index, target in enumerate(targets))
        self.wrs.append((bytes(recv_wqe.encode()), relocs))
        if self.render(instance, bases) != [data for data, _ in self.wrs]:
            raise ProgramError(
                "chain image does not reproduce the linked instance")

    # -- capture ------------------------------------------------------------

    @staticmethod
    def _check_supported(op: ChainOp) -> None:
        if not isinstance(op, (TemplateOp, WaitOp, EnableOp, ArmCasOp,
                               InjectReadOp)):
            raise ProgramError(f"cannot image {op!r}: no relocation rule")
        if getattr(op, "break_targets", None) is not None:
            raise ProgramError(f"cannot image break template {op!r}")

    def _queue(self, wq: WorkQueue, chain: Optional[ChainQueue]) -> int:
        q = self._queue_index.get(id(wq))
        if q is None:
            q = self._queue_index[id(wq)] = len(self.queues)
            self.queues.append((wq, chain))
        return q

    def _wr_of(self, target: FieldRef) -> int:
        k = self._proto_index.get(id(op_of(target.target)))
        if k is None:
            raise ProgramError(
                f"cannot image {target!r}: target outside the instance")
        return k

    def _relocations(self, op: ChainOp, bases) -> List[tuple]:
        wqe = op.ref.wqe
        relocs = []
        for field, attr in _ORDINAL_FIELDS:
            value = getattr(wqe, attr)
            if isinstance(value, InstanceOrdinal):
                offset, width = field_location(field)
                relocs.append((offset, width, _ORDINAL, 0,
                               value - self.instance))
        if isinstance(op, WaitOp) and isinstance(op.threshold,
                                                 SignaledCount):
            q = self._queue_index[id(op.threshold.queue.wq)]
            relocs.append((_WQE_COUNT, 4, _SIGNALED, q,
                           op.resolved_threshold - bases[q][_SIGNALED]))
        elif isinstance(op, EnableOp) and op.count is None:
            k = self._proto_index.get(id(op_of(op.target)))
            if k is not None:
                q = self.layout[k][0]
                relocs.append((_WQE_COUNT, 4, _POSTED, q,
                               self.layout[k][2] + 1))
        elif isinstance(op, (ArmCasOp, InjectReadOp)) \
                and id(op_of(op.target.target)) in self._proto_index:
            offset = _LADDR if isinstance(op, InjectReadOp) else _RADDR
            relocs.append((offset, 8, _SLOT, self._wr_of(op.target),
                           op.target.offset))
        return relocs

    # -- posting ------------------------------------------------------------

    def _live_state(self) -> List[Tuple[int, int, int]]:
        return [(wq._post_slot_cursor, wq.posted_count,
                 chain.signaled_posted if chain is not None else 0)
                for wq, chain in self.queues]

    def bases(self) -> Tuple[Tuple[int, int, int], ...]:
        """Live per-queue bases; raises :class:`QueueError` unless every
        ring the instance touches has room for all of it."""
        for (wq, _chain), need in zip(self.queues, self.demand):
            if wq.destroyed:
                raise QueueError(f"post to destroyed {wq!r}")
            if need > wq.free_slots:
                raise QueueError(
                    f"{wq!r} overflow: image instance needs {need} slots "
                    f"but only {wq.free_slots} are free")
        return tuple(self._live_state())

    def render(self, instance: int, bases) -> List[bytearray]:
        """The WR bytes of ``instance`` posted at ``bases``."""
        queues, layout = self.queues, self.layout
        out = []
        for data, relocs in self.wrs:
            buf = bytearray(data)
            for offset, width, kind, index, delta in relocs:
                if kind == _SLOT:
                    q, slot_delta = layout[index][0], layout[index][1]
                    wq = queues[q][0]
                    value = (wq.ring.addr
                             + (bases[q][0] + slot_delta) % wq.num_slots
                             * WQE_SLOT_SIZE + delta)
                elif kind == _ORDINAL:
                    value = instance + delta
                else:
                    value = bases[index][kind] + delta
                buf[offset:offset + width] = value.to_bytes(width, "big")
            out.append(buf)
        return out

    def post(self, instance: int) -> None:
        """Post ``instance``: every WR, then the trailing doorbells.

        Fails closed: room on every ring is checked before any byte is
        written, so a :class:`QueueError` leaves rings and counters
        untouched.
        """
        bases = self.bases()
        for wq, buf in zip(self.post_order, self.render(instance, bases)):
            wq.post_bytes(buf)
        for q, count in self.signals:
            self.queues[q][1].signaled_posted += count
        for wq in self.doorbells:
            wq.doorbell()
        self.program.record_image(self, instance, bases)

    # -- program views ------------------------------------------------------

    def expand(self, instance: int, bases) -> Tuple[List[ChainOp],
                                                    List[AimEdge]]:
        """Relocated op and edge views of one posted instance."""
        buffers = self.render(instance, bases)
        prefix = f"{self.tag_stem}{self.instance}"
        retagged = f"{self.tag_stem}{instance}"
        views: List[ChainOp] = []
        for k, proto in enumerate(self.protos):
            q, slot_delta, wr_delta, signal_delta = self.layout[k]
            wqe = Wqe.decode(buffers[k])
            view = copy.copy(proto)
            if proto.tag.startswith(prefix):
                view.tag = retagged + proto.tag[len(prefix):]
            ref = WrRef(proto.queue, bases[q][1] + wr_delta,
                        bases[q][0] + slot_delta, wqe, tag=view.tag)
            ref.ir_op = view
            view.ref = ref
            view.signal_seq = bases[q][2] + signal_delta
            if isinstance(view, TemplateOp):
                ref.intended_opcode = view.intended
                view.live = Wqe.decode(buffers[k])
                view.live.opcode = view.intended
            elif isinstance(view, WaitOp):
                view.threshold = view.resolved_threshold = wqe.wqe_count
            views.append(view)

        def remap(target):
            k = self._proto_index.get(id(op_of(target)))
            return target if k is None else views[k]

        def remap_field(ref: FieldRef) -> FieldRef:
            return FieldRef(remap(ref.target), ref.field)

        for view in views:
            target = getattr(view, "target", None)
            if isinstance(target, FieldRef):
                view.target = remap_field(target)
            elif target is not None:
                view.target = remap(target)
            if isinstance(view, ArmCasOp) and isinstance(view.swap,
                                                         ArmWord):
                view.swap = ArmWord(remap(view.swap.target),
                                    view.swap.wr_id)
        edges = [AimEdge(src=None if edge.src is None else remap(edge.src),
                         dst=remap_field(edge.dst), length=edge.length,
                         kind=edge.kind)
                 for edge in self.proto_edges]
        return views, edges
