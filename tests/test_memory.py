"""Unit tests for simulated DRAM, layouts, and registration."""

import os

import pytest

from repro.bench.testbed import Testbed
from repro.memory import (
    AccessFlags,
    HostMemory,
    MemoryError_,
    ProtectionDomain,
    ProtectionError,
    Struct,
    mask,
    pack_uint,
    unpack_uint,
)


class TestLayoutPrimitives:
    def test_pack_unpack_roundtrip(self):
        for width in (1, 2, 4, 6, 8):
            value = (1 << (8 * width)) - 1
            assert unpack_uint(pack_uint(value, width)) == value

    def test_pack_is_big_endian(self):
        assert pack_uint(0x0102, 2) == b"\x01\x02"

    def test_pack_range_check(self):
        with pytest.raises(ValueError):
            pack_uint(256, 1)
        with pytest.raises(ValueError):
            pack_uint(-1, 4)

    def test_mask(self):
        assert mask(48) == 0xFFFFFFFFFFFF


class TestStruct:
    def test_pack_and_unpack(self):
        record = Struct("r", 16, [("a", 0, 4), ("b", 4, 8), ("c", 12, 2)])
        buf = record.pack(a=1, b=0xDEADBEEF, c=7)
        assert record.unpack(buf) == {"a": 1, "b": 0xDEADBEEF, "c": 7}

    def test_gaps_are_zero(self):
        record = Struct("r", 8, [("a", 0, 2)])
        buf = record.pack(a=0xFFFF)
        assert bytes(buf[2:]) == bytes(6)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 8, [("a", 0, 4), ("b", 2, 4)])

    def test_field_past_end_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 4, [("a", 0, 8)])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 8, [("a", 0, 2), ("a", 2, 2)])

    def test_field_offset_lookup(self):
        record = Struct("r", 8, [("a", 0, 2), ("b", 4, 4)])
        assert record.field_offset("b") == 4
        assert record.field_width("b") == 4

    def test_pack_into_existing_buffer(self):
        record = Struct("r", 8, [("x", 0, 4)])
        buf = bytearray(16)
        record.pack_into(buf, 8, "x", 0xAABBCCDD)
        assert buf[8:12] == b"\xaa\xbb\xcc\xdd"


class TestHostMemory:
    def test_alloc_read_write(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        memory.write(allocation.addr, b"abc")
        assert memory.read(allocation.addr, 3) == b"abc"

    def test_alloc_alignment(self):
        memory = HostMemory(size=1 << 20)
        memory.alloc(3)
        aligned = memory.alloc(64, align=64)
        assert aligned.addr % 64 == 0

    def test_null_region_is_protected(self):
        memory = HostMemory(size=1 << 20)
        with pytest.raises(MemoryError_):
            memory.read(0, 8)

    def test_out_of_memory(self):
        memory = HostMemory(size=8192)
        with pytest.raises(MemoryError_):
            memory.alloc(1 << 20)

    def test_negative_length_rejected(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        with pytest.raises(MemoryError_, match="negative access length"):
            memory.read(allocation.addr, -1)
        with pytest.raises(MemoryError_, match="negative access length"):
            memory.view(allocation.addr, -8)

    def test_zero_copy_view_aliases_dram(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        memory.write(allocation.addr, b"redn")
        view = memory.view(allocation.addr, 4)
        assert bytes(view) == b"redn"
        # The view aliases the backing store: later writes show through.
        memory.write(allocation.addr, b"RDMA")
        assert bytes(view) == b"RDMA"

    def test_generation_range_tracks_writes(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(256)
        gen_range = memory.register_generation_range(
            allocation.addr, 256, granularity=64)
        assert gen_range.gens == [0, 0, 0, 0]

        # A one-slot write bumps exactly the chunk it touches.
        memory.write(allocation.addr + 64, b"\xff" * 64)
        assert gen_range.gens == [0, 1, 0, 0]

        # write_u64 straddling a chunk boundary bumps both neighbours.
        memory.write_u64(allocation.addr + 124, 7)
        assert gen_range.gens == [0, 2, 1, 0]

        # fill() bumps every chunk it overlaps.
        memory.fill(allocation.addr, 256)
        assert gen_range.gens == [1, 3, 2, 1]

        # Writes outside the registered range leave it untouched.
        other = memory.alloc(64)
        memory.write(other.addr, b"x")
        assert gen_range.gens == [1, 3, 2, 1]

    def test_u64_roundtrip_big_endian(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, 0x0102030405060708)
        assert memory.read(allocation.addr, 8) == bytes(range(1, 9))
        assert memory.read_u64(allocation.addr) == 0x0102030405060708

    def test_cas_success_and_failure(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, 10)
        assert memory.compare_and_swap_u64(allocation.addr, 10, 99) == 10
        assert memory.read_u64(allocation.addr) == 99
        assert memory.compare_and_swap_u64(allocation.addr, 10, 7) == 99
        assert memory.read_u64(allocation.addr) == 99  # unchanged

    def test_fetch_add_wraps(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, (1 << 64) - 1)
        assert memory.fetch_add_u64(allocation.addr, 2) == (1 << 64) - 1
        assert memory.read_u64(allocation.addr) == 1

    def test_free_poisons(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16)
        memory.write(allocation.addr, b"\x00" * 16)
        memory.free(allocation)
        assert memory.read(allocation.addr, 16) == b"\xde" * 16

    def test_double_free_rejected(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16)
        memory.free(allocation)
        with pytest.raises(MemoryError_):
            memory.free(allocation)

    def test_owner_reclaim(self):
        memory = HostMemory(size=1 << 20)
        a1 = memory.alloc(16, owner="proc1")
        a2 = memory.alloc(16, owner="proc2")
        reclaimed = memory.reclaim_owner("proc1")
        assert reclaimed == [a1]
        assert a1.freed and not a2.freed

    def test_ownership_transfer_shields_from_reclaim(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16, owner="child")
        memory.transfer_ownership(allocation, "hull-parent")
        assert memory.reclaim_owner("child") == []
        assert not allocation.freed


def _resident_bytes() -> int:
    """This process's resident set size, from ``/proc/self/statm``."""
    try:
        with open("/proc/self/statm") as statm:
            resident_pages = int(statm.read().split()[1])
    except OSError:
        pytest.skip("/proc/self/statm is not available")
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


class TestLazyDram:
    """DRAM is committed on first write, and reads as zeros until then."""

    MB = 1 << 20

    @pytest.mark.parametrize("size", [0, -4096, HostMemory.BASE_ADDR,
                                      float(1 << 20), "1048576"])
    def test_degenerate_size_rejected(self, size):
        with pytest.raises(MemoryError_, match="DRAM size"):
            HostMemory(size=size)

    def test_fresh_dram_is_not_resident(self):
        before = _resident_bytes()
        memory = HostMemory(size=256 * self.MB)
        assert _resident_bytes() - before < 32 * self.MB
        assert memory.size == 256 * self.MB

    def test_default_testbed_is_not_resident(self):
        before = _resident_bytes()
        bed = Testbed()
        assert _resident_bytes() - before < 32 * self.MB
        assert bed.server.memory.size == 256 * self.MB

    def test_never_written_memory_reads_zero(self):
        memory = HostMemory(size=64 * self.MB)
        last = memory.size - 8
        for addr in (memory.BASE_ADDR, 32 * self.MB + 3, last):
            assert memory.read(addr, 8) == bytes(8)
            assert memory.read_u64(addr) == 0
            assert bytes(memory.view(addr, 8)) == bytes(8)

    def test_view_is_read_only(self):
        memory = HostMemory(size=self.MB)
        allocation = memory.alloc(64)
        view = memory.view(allocation.addr, 64)
        with pytest.raises(TypeError):
            view[0] = 1
        with pytest.raises(TypeError):
            view[0:4] = b"redn"
        assert memory.read(allocation.addr, 64) == bytes(64)

    def test_mutations_bump_generations_and_call_store_hooks(self):
        memory = HostMemory(size=self.MB)
        allocation = memory.alloc(256)
        addr = allocation.addr
        gen_range = memory.register_generation_range(addr, 256,
                                                     granularity=64)
        stores = []
        memory.add_store_hook(lambda at, length: stores.append((at, length)))

        memory.write(addr + 64, b"\xff" * 8)
        assert gen_range.gens == [0, 1, 0, 0]
        memory.fill(addr + 124, 8, 0xAA)
        assert gen_range.gens == [0, 2, 1, 0]
        assert memory.compare_and_swap_u64(addr + 136, 0, 5) == 0
        assert gen_range.gens == [0, 2, 2, 0]
        # A failed CAS stores nothing, so it bumps and reports nothing.
        assert memory.compare_and_swap_u64(addr + 136, 0, 6) == 5
        assert gen_range.gens == [0, 2, 2, 0]
        assert memory.fetch_add_u64(addr + 192, 3) == 0
        assert gen_range.gens == [0, 2, 2, 1]
        memory.free(allocation)
        assert gen_range.gens == [1, 3, 3, 2]
        assert memory.read(addr, 256) == b"\xde" * 256
        assert stores == [(addr + 64, 8), (addr + 124, 8), (addr + 136, 8),
                          (addr + 192, 8), (addr, 256)]

    def test_out_of_bounds_access_rejected(self):
        memory = HostMemory(size=self.MB)
        end = memory.size
        for access in (lambda: memory.read(end - 4, 8),
                       lambda: memory.view(end, 1),
                       lambda: memory.write(end - 1, b"ab"),
                       lambda: memory.read_u64(end - 7),
                       lambda: memory.write_u64(end, 1),
                       lambda: memory.fill(end - 2, 4),
                       lambda: memory.read(memory.BASE_ADDR - 8, 8),
                       lambda: memory.write(0, b"x")):
            with pytest.raises(MemoryError_):
                access()

    def test_sliced_reads_check_bounds_and_length(self):
        """read/read_uint/read_u64 slice the mapping, which would clamp
        a bad range silently: each must still raise instead."""
        memory = HostMemory(size=self.MB)
        end = memory.size
        base = memory.BASE_ADDR
        memory.write(end - 8, b"tail-end")
        assert memory.read(end - 8, 8) == b"tail-end"
        assert type(memory.read(base, 4)) is bytes
        assert memory.read(base, 0) == b""
        assert memory.read_uint(end - 4, 4) == int.from_bytes(b"-end", "big")
        assert memory.read_u64(end - 8) == int.from_bytes(b"tail-end", "big")
        for access in (lambda: memory.read(end - 7, 8),
                       lambda: memory.read(end + 1, 0),
                       lambda: memory.read(base - 1, 1),
                       lambda: memory.read_uint(end - 3, 4),
                       lambda: memory.read_uint(base - 4, 4),
                       lambda: memory.read_u64(base - 8),
                       lambda: memory.read_u64(end - 4)):
            with pytest.raises(MemoryError_, match="outside DRAM"):
                access()
        for access in (lambda: memory.read(base + 64, -1),
                       lambda: memory.read_uint(base + 64, -8)):
            with pytest.raises(MemoryError_, match="negative access length"):
                access()


class TestProtection:
    def _pd(self):
        memory = HostMemory(size=1 << 20)
        return memory, ProtectionDomain(memory)

    def test_register_and_validate(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        found = pd.validate_remote(region.rkey, allocation.addr, 64,
                                   AccessFlags.REMOTE_WRITE)
        assert found is region

    def test_unknown_rkey_rejected(self):
        memory, pd = self._pd()
        with pytest.raises(ProtectionError):
            pd.lookup_rkey(0xBAD)

    def test_out_of_bounds_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr + 32, 64,
                               AccessFlags.REMOTE_READ)

    def test_missing_permission_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation, access=AccessFlags.REMOTE_READ)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr, 8,
                               AccessFlags.REMOTE_WRITE)

    def test_deregistered_region_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        pd.deregister(region)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr, 8,
                               AccessFlags.REMOTE_READ)

    def test_freed_allocation_invalidates_region(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        memory.free(allocation)
        with pytest.raises(ProtectionError):
            region.check(allocation.addr, 8, AccessFlags.REMOTE_READ)

    def test_invalidate_all(self):
        memory, pd = self._pd()
        regions = [pd.register(memory.alloc(32)) for _ in range(3)]
        pd.invalidate_all()
        for region in regions:
            assert region.invalidated
