"""Executable semantics of RDMA verbs.

:class:`VerbExecutor` implements the *data path* of each verb: payload
gather/scatter DMAs, wire traversal, responder-side processing, and the
memory effect itself. Timing follows the decomposition documented in
:mod:`repro.nic.timing`; the memory effects are ordinary byte reads and
writes on simulated host DRAM — which is precisely why aiming a CAS or
READ at work-queue memory rewrites the program the NIC will execute.

Conventions:

* A verb runs on an RC QP; ``qp.peer`` is the responder end. Loopback
  QPs (both ends on one NIC) skip the wire and RX processing but pay
  all PCIe costs — the cost profile of RedN's self-modifying chains.
* Remote access is validated against the *responder's* protection
  domain using the WQE's rkey. Two-sided SEND/RECV needs no rkey,
  which is the paper's security argument for RedN triggers (§3.5).
* Atomics serialize on the responder port's atomic unit (Table 3's
  8.4 M CAS/s); Mellanox calc verbs (MAX/MIN) do not (63 M/s).
* READ responses scatter to an SGE list when present — the mechanism
  Fig 12's list traversal uses to steer one READ's bytes into several
  later WQEs.
"""

from __future__ import annotations

from typing import Generator, List, Optional, TYPE_CHECKING

from .. import obs as _obs
from ..memory.region import AccessFlags, ProtectionError
from .opcodes import Opcode
from .qp import QueuePair
from .queue import Cqe, QueueError
from .wqe import Sge, Wqe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rnic import RNIC

__all__ = ["VerbExecutor"]

# Approximate wire size of a request/ack header, for serialization cost.
_HEADER_BYTES = 32


class VerbExecutor:
    """Data-path implementations for every verb opcode."""

    def __init__(self, nic: "RNIC"):
        self.nic = nic

    # -- dispatch -----------------------------------------------------------

    def perform(self, qp: Optional[QueuePair],
                wqe: Wqe) -> Generator:
        """The verb's data-path generator; it returns (byte_len, immediate).

        The caller drives the verb's own generator with ``yield from``
        (no wrapping layer on every resume). A QP or opcode that cannot
        run raises :class:`QueueError` here, at call time.
        """
        opcode = wqe.opcode
        if opcode == Opcode.NOOP:
            return self._noop(qp, wqe)
        if qp is None or not qp.connected:
            raise QueueError(f"{wqe!r} needs a connected QP")
        if opcode in (Opcode.WRITE, Opcode.WRITE_IMM):
            return self._write(qp, wqe)
        if opcode == Opcode.READ:
            return self._read(qp, wqe)
        if opcode == Opcode.SEND:
            return self._send(qp, wqe)
        if opcode in (Opcode.CAS, Opcode.FETCH_ADD):
            return self._atomic(qp, wqe)
        if opcode in (Opcode.MAX, Opcode.MIN):
            return self._calc(qp, wqe)
        raise QueueError(f"opcode {opcode:#x} is not executable here")

    # -- helpers --------------------------------------------------------------
    #
    # Each hop of a verb is a plain function that reserves its lane and
    # returns the sleep to take; the verb yields that sleep itself and
    # then fires the hop's obs hooks through the ``*_span`` helpers. No
    # hop creates a generator, so no resume passes through a hop frame.

    @staticmethod
    def _traverse(src_qp: QueuePair, nbytes: int, rx_ns: int = 0) -> int:
        """Reserve the wire for a message from ``src_qp`` to its peer.

        Returns the one sleep that covers the wire hold, the link
        latency and ``rx_ns`` of responder-side inbound processing:
        nothing between them is observable, so the wire span's end is
        computed, not slept to (see :meth:`_wire_span`). Loopback QPs
        have no wire hop and no RX processing: the sleep is 0.
        """
        nic = src_qp.nic
        dst_nic = src_qp.peer.nic
        if dst_nic is nic:
            return 0
        start = nic.sim.now
        serialization = nic.timing.payload_wire_ns(nbytes + _HEADER_BYTES)
        wire_end = (nic.ports[src_qp.port_index].wire.reserve(serialization)
                    if serialization > 0 else start)
        return wire_end + nic.link_latency_to(dst_nic) + rx_ns - start

    @staticmethod
    def _wire_span(src_qp: QueuePair, nbytes: int, start: int,
                   rx_ns: int = 0) -> None:
        """Fire the wire hooks of a hop that started at ``start``.

        Called after the hop's sleep, so the message arrived at the peer
        NIC ``rx_ns`` ago. Loopback hops have no wire span.
        """
        if src_qp.is_loopback:
            return
        nic = src_qp.nic
        arrival = nic.sim.now - rx_ns
        for hook in nic.sim.hooks.wire:
            hook(nic, src_qp.peer.nic, nbytes, start, arrival)

    @staticmethod
    def _dma_in(nic: "RNIC", nbytes: int) -> int:
        """Reserve PCIe for a payload DMA (gather or scatter).

        Returns the sleep to the end of the transfer, or 0 when there
        are no bytes to move (and then there is no dma span either).
        """
        cost = nic.timing.payload_pcie_ns(nbytes)
        if cost > 0:
            return nic.pcie.reserve(cost) - nic.sim.now
        return 0

    @staticmethod
    def _dma_span(nic: "RNIC", nbytes: int, start: int) -> None:
        """Fire the dma hooks of a payload DMA that started at ``start``."""
        for hook in nic.sim.hooks.dma:
            hook(nic, nbytes, start)

    @staticmethod
    def _txn_span(nic: "RNIC", kind: str, start: int) -> None:
        """Fire the dma_txn hooks of a DMA transaction latency (posted,
        non-posted, atomic or calc) that started at ``start``."""
        for hook in nic.sim.hooks.dma_txn:
            hook(nic, kind, start)

    def _scatter_bytes(self, nic: "RNIC", data: bytes,
                       sges: List[Sge], laddr: int, length: int) -> int:
        """Write ``data`` into an SGE list (or the single laddr sink)."""
        if not sges:
            if length and len(data) > length:
                raise QueueError(
                    f"{len(data)}-byte message exceeds {length}-byte sink")
            if laddr:
                nic.memory.write(laddr, data)
            return len(data)
        written = 0
        total = len(data)
        view = memoryview(data)
        for sge in sges:
            if written >= total:
                break
            # Slice the view, not the bytes: each chunk is zero-copy
            # until the bytearray slice-assign inside memory.write.
            chunk = view[written:written + sge.length]
            nic.memory.write(sge.addr, chunk)
            written += len(chunk)
        if written < total:
            raise QueueError(
                f"scatter list too small: {len(data)} bytes into "
                f"{sum(s.length for s in sges)}")
        return written

    # -- verb implementations ----------------------------------------------------

    def _noop(self, qp: Optional[QueuePair], wqe: Wqe) -> Generator:
        """NOOP: no memory effect; remote QPs still pay a wire round trip
        (the paper's remote-vs-loopback NOOP difference, Fig 7)."""
        if qp is not None and qp.connected and not qp.is_loopback:
            sim = qp.nic.sim
            for src_qp in (qp, qp.peer):
                start = sim.now
                delay = self._traverse(src_qp, 0)
                if delay > 0:
                    yield delay
                if _obs.enabled:
                    self._wire_span(src_qp, 0, start)
        return (0, 0)

    def _write(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        sim = nic.sim
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        length = wqe.length
        # Gather payload from initiator memory.
        start = sim.now
        delay = self._dma_in(nic, length)
        if delay > 0:
            yield delay
            if _obs.enabled:
                self._dma_span(nic, length, start)
        data = nic.memory.read(wqe.laddr, length) if length else b""
        start = sim.now
        rx_ns = timing.rx_process_ns
        delay = self._traverse(qp, length, rx_ns)
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(qp, length, start, rx_ns)
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, max(1, length),
                                AccessFlags.REMOTE_WRITE)
        # Posted DMA write of the payload into responder memory.
        delay = timing.dma_posted_ns
        if delay > 0:
            start = sim.now
            yield delay
            if _obs.enabled:
                self._txn_span(rnic, "posted", start)
        start = sim.now
        delay = self._dma_in(rnic, length)
        if delay > 0:
            yield delay
            if _obs.enabled:
                self._dma_span(rnic, length, start)
        if length:
            rnic.memory.write(wqe.raddr, data)
        immediate = 0
        if wqe.opcode == Opcode.WRITE_IMM:
            immediate = wqe.operand0
            yield from self._consume_recv(peer, payload=None,
                                          byte_len=length,
                                          immediate=immediate)
        start = sim.now
        delay = self._traverse(peer, 0)  # ack
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(peer, 0, start)
        return (length, immediate)

    def _read(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        sim = nic.sim
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        length = wqe.length
        start = sim.now
        rx_ns = timing.rx_process_ns
        delay = self._traverse(qp, 0, rx_ns)  # request
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(qp, 0, start, rx_ns)
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, max(1, length),
                                AccessFlags.REMOTE_READ)
        # Non-posted DMA read on the responder.
        delay = timing.dma_nonposted_ns
        if delay > 0:
            start = sim.now
            yield delay
            if _obs.enabled:
                self._txn_span(rnic, "nonposted", start)
        start = sim.now
        delay = self._dma_in(rnic, length)
        if delay > 0:
            yield delay
            if _obs.enabled:
                self._dma_span(rnic, length, start)
        data = rnic.memory.read(wqe.raddr, length) if length else b""
        start = sim.now
        delay = self._traverse(peer, length)  # response
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(peer, length, start)
        # Scatter into initiator memory (possibly across several WQEs).
        # The scatter is a posted write whose latency overlaps with CQE
        # delivery, so only its PCIe bandwidth share is charged here.
        start = sim.now
        delay = self._dma_in(nic, length)
        if delay > 0:
            yield delay
            if _obs.enabled:
                self._dma_span(nic, length, start)
        written = self._scatter_bytes(nic, data, wqe.sges, wqe.laddr,
                                      length)
        return (written, 0)

    def _send(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        sim = nic.sim
        peer = qp.peer
        length = wqe.length
        start = sim.now
        delay = self._dma_in(nic, length)
        if delay > 0:
            yield delay
            if _obs.enabled:
                self._dma_span(nic, length, start)
        data = nic.memory.read(wqe.laddr, length) if length else b""
        start = sim.now
        rx_ns = peer.nic.timing.rx_process_ns
        delay = self._traverse(qp, length, rx_ns)
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(qp, length, start, rx_ns)
        byte_len = yield from self._consume_recv(
            peer, payload=data, byte_len=len(data), immediate=0)
        start = sim.now
        delay = self._traverse(peer, 0)  # ack
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(peer, 0, start)
        return (byte_len, 0)

    def _consume_recv(self, peer: QueuePair, payload: Optional[bytes],
                      byte_len: int, immediate: int) -> Generator:
        """Consume the next RECV WQE at the responder.

        For SEND the payload is scattered into the RECV's SGE list —
        when those SGEs aim into work-queue memory, this is the
        argument-injection step of a RedN trigger (Fig 3/Fig 9). For
        WRITE_IMM the RECV is consumed for notification only.

        Blocks (like an RNR-retried requester) until a consumable RECV
        exists, which a managed+recycled recv ring can provide forever
        without CPU help.
        """
        rnic = peer.nic
        timing = rnic.timing
        recv_wq = peer.recv_wq
        grant = yield recv_wq.consume_lock.acquire()
        try:
            while recv_wq.consumable_recvs == 0 and not recv_wq.destroyed:
                yield recv_wq.recv_available()
            if recv_wq.destroyed:
                raise QueueError(f"{recv_wq!r} destroyed mid-receive")
            engine = rnic.ports[peer.port_index].fetch_engine
            fetch_grant = yield engine.acquire()
            yield timing.wqe_fetch_ns
            recv_wqe, slots = recv_wq.read_wqe_at_cursor()
            recv_wq.advance_fetch(slots)
            engine.release(fetch_grant)
            if _obs.enabled:
                for hook in rnic.sim.hooks.recv_fetch:
                    hook(recv_wq, 1)
        finally:
            recv_wq.consume_lock.release(grant)
        written = byte_len
        if payload is not None:
            sim = rnic.sim
            delay = timing.dma_posted_ns
            if delay > 0:
                start = sim.now
                yield delay
                if _obs.enabled:
                    self._txn_span(rnic, "posted", start)
            start = sim.now
            delay = self._dma_in(rnic, len(payload))
            if delay > 0:
                yield delay
                if _obs.enabled:
                    self._dma_span(rnic, len(payload), start)
            written = self._scatter_bytes(
                rnic, payload, recv_wqe.sges, recv_wqe.laddr,
                recv_wqe.length)
        cqe = Cqe(wr_id=recv_wqe.wr_id, opcode=Opcode.RECV, status="OK",
                  wq_num=recv_wq.wq_num, byte_len=written,
                  immediate=immediate, timestamp=rnic.sim.now)
        recv_wq.cq.post_completion(cqe, host_delay_ns=timing.cqe_dma_ns)
        return written

    def _atomic(self, qp: QueuePair, wqe: Wqe) -> Generator:
        nic = qp.nic
        sim = nic.sim
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        # Operands travel in the request.
        start = sim.now
        rx_ns = timing.rx_process_ns
        delay = self._traverse(qp, 16, rx_ns)
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(qp, 16, start, rx_ns)
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, 8,
                                AccessFlags.REMOTE_ATOMIC)
        port = rnic.ports[peer.port_index]
        unit_end = port.atomic_unit.reserve(timing.atomic_unit_ns)
        txn_start = unit_end - timing.atomic_unit_ns
        yield unit_end - sim.now
        if wqe.opcode == Opcode.CAS:
            original = rnic.memory.compare_and_swap_u64(
                wqe.raddr, wqe.operand0, wqe.operand1)
        else:
            original = rnic.memory.fetch_add_u64(wqe.raddr, wqe.operand0)
        if _obs.enabled:
            for hook in sim.hooks.atomic:
                hook(rnic, qp.send_wq, wqe, original)
        # Remaining PCIe-atomic transaction latency happens off-unit.
        remaining = timing.atomic_pcie_ns - timing.atomic_unit_ns
        if remaining > 0:
            yield remaining
        if _obs.enabled:
            self._txn_span(rnic, "atomic", txn_start)
        start = sim.now
        delay = self._traverse(peer, 8)  # original value returns
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(peer, 8, start)
        if wqe.laddr:
            nic.memory.write_u64(wqe.laddr, original)
        return (8, 0)

    def _calc(self, qp: QueuePair, wqe: Wqe) -> Generator:
        """Mellanox vendor calc verbs (MAX/MIN, §3.5 inequality support)."""
        nic = qp.nic
        sim = nic.sim
        peer = qp.peer
        rnic = peer.nic
        timing = rnic.timing
        if not rnic.model.supports_calc_verbs:
            raise QueueError(
                f"{rnic.model.name} does not support calc verbs")
        start = sim.now
        rx_ns = timing.rx_process_ns
        delay = self._traverse(qp, 16, rx_ns)
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(qp, 16, start, rx_ns)
        peer.pd.validate_remote(wqe.rkey, wqe.raddr, 8,
                                AccessFlags.REMOTE_WRITE
                                | AccessFlags.REMOTE_READ)
        delay = timing.dma_nonposted_ns + timing.calc_alu_ns
        if delay > 0:
            start = sim.now
            yield delay
            if _obs.enabled:
                self._txn_span(rnic, "calc", start)
        original = rnic.memory.read_u64(wqe.raddr)
        if wqe.opcode == Opcode.MAX:
            result = max(original, wqe.operand0)
        else:
            result = min(original, wqe.operand0)
        rnic.memory.write_u64(wqe.raddr, result)
        start = sim.now
        delay = self._traverse(peer, 8)
        if delay > 0:
            yield delay
        if _obs.enabled:
            self._wire_span(peer, 8, start)
        if wqe.laddr:
            nic.memory.write_u64(wqe.laddr, original)
        return (8, 0)
