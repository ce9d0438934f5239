"""Simulated host DRAM.

A :class:`HostMemory` is a flat byte-addressable space backed by a
private anonymous mapping, with a bump allocator for carving out buffers
(work queues, hash tables, slabs). Addresses start at a non-zero base so
that address 0 can serve as a null pointer for linked data structures.

The OS commits the mapping lazily: every byte reads as zero until
written, and a page costs resident memory only once something is
stored into it. A bed sized like the paper's testbed therefore pays for
the few megabytes its queues and tables touch, not for the whole
simulated DRAM. The mapping is ``MAP_PRIVATE``: like heap memory, its
stores stay private to this process and are copy-on-write across a
fork.

Ownership: every allocation is tagged with an *owner* string (process
name). When a process crashes, the OS reclaims its allocations — unless
they were transferred to a "hull parent" (see :mod:`repro.net.failures`
and paper §5.6). Reclaimed ranges are poisoned with 0xDE bytes so that
use-after-free by a still-running RNIC program is loudly wrong rather
than silently stale, mirroring what happens on real hardware when the
OS frees pinned pages.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from typing import List

from .layout import pack_uint

__all__ = ["HostMemory", "Allocation", "GenerationRange", "MemoryError_",
           "NULL_ADDR"]

NULL_ADDR = 0

_POISON = 0xDE


class MemoryError_(Exception):
    """Access outside an allocation or other memory misuse."""


class Allocation:
    """A live allocation: [addr, addr+size), tagged with its owner."""

    __slots__ = ("addr", "size", "owner", "label", "freed")

    def __init__(self, addr: int, size: int, owner: str, label: str):
        self.addr = addr
        self.size = size
        self.owner = owner
        self.label = label
        self.freed = False

    def __repr__(self) -> str:
        return (f"<Allocation {self.label} [{self.addr:#x},"
                f"{self.addr + self.size:#x}) owner={self.owner}>")

    @property
    def end(self) -> int:
        return self.addr + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.addr <= addr and addr + length <= self.end


class GenerationRange:
    """Per-chunk write generation counters over one address range.

    Consumers that cache decoded views of memory (the WQE decode cache
    in :class:`repro.nic.queue.WorkQueue`) register their range here;
    every write that overlaps a chunk bumps that chunk's counter, so a
    cached decode is valid exactly when its generation snapshot still
    matches. This is the software analogue of the NIC watching its own
    DMA engine: any store into queue memory invalidates the fetched
    snapshot, no matter which verb or host path issued it.
    """

    __slots__ = ("start", "end", "granularity", "gens")

    def __init__(self, start: int, length: int, granularity: int = 64):
        self.start = start
        self.end = start + length
        self.granularity = granularity
        self.gens: List[int] = [0] * (
            (length + granularity - 1) // granularity)

    def __repr__(self) -> str:
        return (f"<GenerationRange [{self.start:#x},{self.end:#x}) "
                f"/{self.granularity}>")


class HostMemory:
    """Byte-addressable simulated DRAM with owner-tagged allocations."""

    BASE_ADDR = 0x1000

    def __init__(self, size: int = 64 * 1024 * 1024, name: str = "dram"):
        if not isinstance(size, int) or size <= self.BASE_ADDR:
            raise MemoryError_(
                f"DRAM size {size!r} must be an int above {self.BASE_ADDR:#x}")
        self.name = name
        self.size = size
        self._bytes = mmap.mmap(-1, size,
                                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self._view = memoryview(self._bytes)
        self._next = self.BASE_ADDR
        self._allocations: List[Allocation] = []
        # Registered generation ranges, sorted by start (disjoint: they
        # come from disjoint allocations).
        self._gen_starts: List[int] = []
        self._gen_ranges: List[GenerationRange] = []
        #: Store observers installed by attached repro.obs consumers
        #: (tracer, flight recorder): each is called as hook(addr,
        #: length) after generations are bumped. ``_trace_hook`` is the
        #: fused dispatch target the write paths check — None (one
        #: pointer check per tracked write) with no observer, the bare
        #: hook with one, a dispatcher with several. Manage it through
        #: :meth:`add_store_hook` / :meth:`remove_store_hook`.
        self._store_hooks: List = []
        self._trace_hook = None

    def add_store_hook(self, hook) -> None:
        """Register a store observer: ``hook(addr, length)`` per write."""
        self._store_hooks.append(hook)
        self._refresh_store_dispatch()

    def remove_store_hook(self, hook) -> None:
        """Unregister a store observer installed by :meth:`add_store_hook`."""
        if hook in self._store_hooks:
            self._store_hooks.remove(hook)
        self._refresh_store_dispatch()

    def _refresh_store_dispatch(self) -> None:
        hooks = self._store_hooks
        if not hooks:
            self._trace_hook = None
        elif len(hooks) == 1:
            self._trace_hook = hooks[0]
        else:
            frozen = tuple(hooks)

            def dispatch(addr: int, length: int,
                         _hooks=frozen) -> None:
                for hook in _hooks:
                    hook(addr, length)

            self._trace_hook = dispatch

    def __repr__(self) -> str:
        return (f"<HostMemory {self.name} used="
                f"{self._next - self.BASE_ADDR}/{self.size}>")

    # -- allocation ------------------------------------------------------

    def alloc(self, size: int, owner: str = "kernel", label: str = "",
              align: int = 8) -> Allocation:
        """Allocate ``size`` bytes, ``align``-aligned, owned by ``owner``."""
        if size <= 0:
            raise MemoryError_(f"bad allocation size {size}")
        if align & (align - 1):
            raise MemoryError_(f"alignment {align} is not a power of two")
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + size > self.size:
            raise MemoryError_(
                f"out of simulated DRAM: need {size} at {addr:#x}")
        self._next = addr + size
        allocation = Allocation(addr, size, owner, label or f"alloc{addr:#x}")
        self._allocations.append(allocation)
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release and poison an allocation (bump allocator: no reuse)."""
        if allocation.freed:
            raise MemoryError_(f"double free of {allocation!r}")
        allocation.freed = True
        self._bytes[allocation.addr:allocation.end] = bytes(
            [_POISON]) * allocation.size
        if self._gen_starts:
            self._bump_gens(allocation.addr, allocation.end)
            if self._trace_hook is not None:
                self._trace_hook(allocation.addr, allocation.size)

    def allocations_owned_by(self, owner: str) -> List[Allocation]:
        return [a for a in self._allocations
                if a.owner == owner and not a.freed]

    def transfer_ownership(self, allocation: Allocation,
                           new_owner: str) -> None:
        """Re-tag an allocation (the 'empty hull parent' trick, §5.6)."""
        allocation.owner = new_owner

    def reclaim_owner(self, owner: str) -> List[Allocation]:
        """Free everything owned by ``owner`` (OS cleanup after a crash)."""
        reclaimed = self.allocations_owned_by(owner)
        for allocation in reclaimed:
            self.free(allocation)
        return reclaimed

    # -- write-generation tracking ---------------------------------------

    def register_generation_range(self, addr: int, length: int,
                                  granularity: int = 64) -> GenerationRange:
        """Track write generations over [addr, addr+length).

        Every mutation of bytes in the range (write, fill, atomics, free
        poisoning) bumps the generation of each ``granularity``-sized
        chunk it touches. Callers snapshot generations to key caches of
        decoded memory contents.
        """
        self._check(addr, length)
        gen_range = GenerationRange(addr, length, granularity)
        index = bisect_right(self._gen_starts, addr)
        self._gen_starts.insert(index, addr)
        self._gen_ranges.insert(index, gen_range)
        return gen_range

    def _bump_gens(self, lo: int, hi: int) -> None:
        """Bump generations of registered chunks overlapping [lo, hi)."""
        starts = self._gen_starts
        index = bisect_right(starts, lo)
        # The range starting at or before lo may contain it.
        if index and self._gen_ranges[index - 1].end > lo:
            index -= 1
        ranges = self._gen_ranges
        count = len(ranges)
        while index < count:
            gen_range = ranges[index]
            start = gen_range.start
            if start >= hi:
                break
            # Single-chunk writes (one WQE slot) are the overwhelmingly
            # common case on the post path.
            granularity = gen_range.granularity
            first = (max(lo, start) - start) // granularity
            last = (min(hi, gen_range.end) - 1 - start) // granularity
            gens = gen_range.gens
            if first == last:
                gens[first] += 1
            else:
                for chunk in range(first, last + 1):
                    gens[chunk] += 1
            index += 1

    # -- raw access ------------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryError_(f"negative access length {length}")
        if addr < self.BASE_ADDR or addr + length > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + length:#x}) outside DRAM")

    def read(self, addr: int, length: int) -> bytes:
        # The checks of _check, inlined: slicing the mapping clamps out
        # of range bounds silently, so they must run first.
        end = addr + length
        if length < 0 or addr < self.BASE_ADDR or end > self.size:
            self._check(addr, length)
        return self._bytes[addr:end]

    def view(self, addr: int, length: int) -> memoryview:
        """Zero-copy read-only window into DRAM.

        Read-only on purpose: all mutations must flow through the write
        APIs so generation counters (and therefore WQE decode caches)
        stay coherent.
        """
        self._check(addr, length)
        return self._view[addr:addr + length].toreadonly()

    def write(self, addr: int, data: bytes) -> None:
        length = len(data)
        if addr < self.BASE_ADDR or addr + length > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + length:#x}) outside DRAM")
        self._bytes[addr:addr + length] = data
        if self._gen_starts:
            self._bump_gens(addr, addr + length)
            if self._trace_hook is not None:
                self._trace_hook(addr, length)

    def read_uint(self, addr: int, width: int) -> int:
        end = addr + width
        if width < 0 or addr < self.BASE_ADDR or end > self.size:
            self._check(addr, width)
        return int.from_bytes(self._bytes[addr:end], "big")

    def write_uint(self, addr: int, value: int, width: int) -> None:
        self.write(addr, pack_uint(value, width))

    def read_u64(self, addr: int) -> int:
        if addr < self.BASE_ADDR or addr + 8 > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + 8:#x}) outside DRAM")
        return int.from_bytes(self._bytes[addr:addr + 8], "big")

    def write_u64(self, addr: int, value: int) -> None:
        if addr < self.BASE_ADDR or addr + 8 > self.size:
            raise MemoryError_(
                f"access [{addr:#x},{addr + 8:#x}) outside DRAM")
        try:
            self._bytes[addr:addr + 8] = value.to_bytes(8, "big")
        except OverflowError:
            raise ValueError(
                f"value {value:#x} does not fit in 8 bytes") from None
        if self._gen_starts:
            self._bump_gens(addr, addr + 8)
            if self._trace_hook is not None:
                self._trace_hook(addr, 8)

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        self._check(addr, length)
        self._bytes[addr:addr + length] = bytes([byte]) * length
        if self._gen_starts:
            self._bump_gens(addr, addr + length)
            if self._trace_hook is not None:
                self._trace_hook(addr, length)

    def compare_and_swap_u64(self, addr: int, expected: int,
                             desired: int) -> int:
        """Atomic 64-bit CAS; returns the *original* value (RDMA CAS
        semantics: the original value is returned to the initiator)."""
        original = self.read_u64(addr)
        if original == expected:
            self.write_u64(addr, desired)
        return original

    def fetch_add_u64(self, addr: int, delta: int) -> int:
        """Atomic 64-bit fetch-and-add (wraps modulo 2^64)."""
        original = self.read_u64(addr)
        self.write_u64(addr, (original + delta) & ((1 << 64) - 1))
        return original
