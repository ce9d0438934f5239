"""Ordering and self-modification semantics (paper §3.1–§3.4).

These tests pin down the device behaviours that make RedN possible:
prefetch incoherence on normal queues, managed-mode fetch gating with
ENABLE, completion gating with WAIT, monotonic counters, and WQ
recycling.
"""

import pytest

from repro.ibv import (
    wr_cas,
    wr_enable,
    wr_noop,
    wr_read,
    wr_send,
    wr_recv,
    wr_wait,
    wr_write,
)
from repro.nic import Opcode, WQE_HEADER, Wqe, WrFlags, ctrl_word
from repro.nic.queue import CompletionQueue, Cqe
from repro.obs import Tracer
from repro.sim import Interrupt


def make_write_template(src_addr, length, dst_addr, rkey, signaled=True):
    """A NOOP carrying full WRITE attributes: the Fig 4 branch target."""
    wqe = wr_write(src_addr, length, dst_addr, rkey, signaled=signaled)
    wqe.opcode = Opcode.NOOP
    return wqe


class TestPrefetchIncoherence:
    def test_modification_after_prefetch_is_ignored(self, lo):
        """Normal queues prefetch snapshots: late edits don't execute."""
        src, _ = lo.buffer(16)
        dst, dst_mr = lo.buffer(16)
        lo.memory.write(src.addr, b"X" * 16)

        qp = lo.qp_a
        # Post a NOOP template followed by a signaled NOOP; both get
        # prefetched in one batch.
        template = make_write_template(src.addr, 16, dst.addr, dst_mr.rkey,
                                       signaled=False)
        qp.post_send(template)
        qp.post_send(wr_noop(signaled=True))

        def meddle():
            # After the fetch (350 ns post-doorbell) but before the
            # second WQE would retire, rewrite WQE 0 into a WRITE.
            yield lo.sim.timeout(700)
            base = qp.send_wq.slot_addr(0)
            lo.memory.write_u64(base, ctrl_word(Opcode.WRITE, 0))

        def check():
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 16)

        lo.sim.process(meddle())
        result = lo.run(check())
        # The stale (NOOP) snapshot executed: no bytes moved.
        assert result == bytes(16)

    def test_modification_before_doorbell_takes_effect(self, lo):
        """Managed queues fetch on ENABLE/doorbell: edits are honoured."""
        src, _ = lo.buffer(16)
        dst, dst_mr = lo.buffer(16)
        lo.memory.write(src.addr, b"Y" * 16)

        pd = lo.pd
        qp = lo.nic.create_qp(pd, managed_send=True, name="managed")
        qp.connect(lo.nic.create_qp(pd, name="managed-peer"))

        template = make_write_template(src.addr, 16, dst.addr, dst_mr.rkey)
        qp.post_send(template)  # managed: no doorbell

        def run():
            yield lo.sim.timeout(2_000)
            base = qp.send_wq.slot_addr(0)
            lo.memory.write_u64(base, ctrl_word(Opcode.WRITE, 0))
            qp.send_wq.doorbell()
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 16)

        assert lo.run(run()) == b"Y" * 16


class TestWait:
    def test_wait_blocks_until_completion_count(self, lo):
        """WAIT(cq, n) releases only at the n-th completion (Fig 2a)."""
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"A" * 8)

        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")
        trigger_qp = lo.qp_a

        # Chain: WAIT for 1 completion on the trigger QP's send CQ,
        # then WRITE.
        trigger_cq = trigger_qp.send_wq.cq
        chain_qp.post_send(wr_wait(trigger_cq.cq_num, 1))
        chain_qp.post_send(
            wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            yield lo.sim.timeout(20_000)
            before = lo.memory.read(dst.addr, 8)
            # Now complete a signaled NOOP on the trigger QP.
            yield from lo.verbs.execute_sync_checked(
                trigger_qp, wr_noop(signaled=True))
            yield lo.sim.timeout(20_000)
            after = lo.memory.read(dst.addr, 8)
            return before, after

        before, after = lo.run(run())
        assert before == bytes(8)
        assert after == b"A" * 8

    def test_wait_count_already_met_passes_through(self, lo):
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"B" * 8)
        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")

        def run():
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            # Completion already happened; WAIT(…, 1) must not block.
            chain_qp.post_send(wr_wait(lo.qp_a.send_wq.cq.cq_num, 1))
            chain_qp.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))
            yield lo.sim.timeout(20_000)
            return lo.memory.read(dst.addr, 8)

        assert lo.run(run()) == b"B" * 8

    def test_unsignaled_wr_does_not_satisfy_wait(self, lo):
        """Clearing SIGNALED starves the next WAIT — the break trick."""
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"C" * 8)
        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")

        chain_qp.post_send(wr_wait(lo.qp_a.send_wq.cq.cq_num, 1))
        chain_qp.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            # Unsignaled NOOP completes without a CQE.
            yield from lo.verbs.post_send(lo.qp_a, wr_noop(signaled=False))
            yield lo.sim.timeout(50_000)
            return lo.memory.read(dst.addr, 8)

        assert lo.run(run()) == bytes(8)


class TestEnable:
    def _managed_chain(self, lo):
        qp = lo.nic.create_qp(lo.pd, managed_send=True, name="m")
        peer = lo.nic.create_qp(lo.pd, name="m-peer")
        qp.connect(peer)
        return qp

    def test_enable_releases_managed_wrs(self, lo):
        dst, dst_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"D" * 8)
        managed = self._managed_chain(lo)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        managed.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))

        def run():
            yield lo.sim.timeout(10_000)
            stalled = lo.memory.read(dst.addr, 8)
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1))
            yield lo.sim.timeout(20_000)
            released = lo.memory.read(dst.addr, 8)
            return stalled, released

        stalled, released = lo.run(run())
        assert stalled == bytes(8)
        assert released == b"D" * 8

    def test_enable_relative_advances_by_delta(self, lo):
        dst, dst_mr = lo.buffer(16)
        src, _ = lo.buffer(16)
        lo.memory.write(src.addr, b"E" * 16)
        managed = self._managed_chain(lo)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        managed.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey))
        managed.post_send(
            wr_write(src.addr, 8, dst.addr + 8, dst_mr.rkey))

        def run():
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1, relative=True))
            yield lo.sim.timeout(20_000)
            first_only = lo.memory.read(dst.addr, 16)
            control.post_send(
                wr_enable(managed.send_wq.wq_num, 1, relative=True))
            yield lo.sim.timeout(20_000)
            both = lo.memory.read(dst.addr, 16)
            return first_only, both

        first_only, both = lo.run(run())
        assert first_only == b"E" * 8 + bytes(8)
        assert both == b"E" * 16

    def test_enable_is_monotonic(self, lo):
        """A lower absolute ENABLE never rolls the limit back."""
        managed = self._managed_chain(lo)
        wq = managed.send_wq
        wq.enable(5)
        wq.enable(3)
        assert wq.enabled_count == 5


class TestRecycling:
    def test_ring_re_executes_without_reposting(self, lo):
        """WQ recycling (§3.4): ENABLE past posted_count wraps the ring.

        A 1-WQE ring holding a signaled WRITE is enabled 3 times: the
        NIC executes the same bytes 3 times with no CPU re-post.
        """
        counter, counter_mr = lo.buffer(8)
        src, _ = lo.buffer(8)
        lo.memory.write(src.addr, b"\x01" + bytes(7))

        qp = lo.nic.create_qp(lo.pd, managed_send=True, send_slots=1,
                              name="rec")
        peer = lo.nic.create_qp(lo.pd, name="rec-peer")
        qp.connect(peer)
        control, _ = lo.nic.create_loopback_pair(lo.pd, name="ctl")

        # Each pass overwrites one successive byte of the counter buf.
        qp.post_send(wr_write(src.addr, 1, counter.addr, counter_mr.rkey))

        def run():
            for index in range(3):
                control.post_send(
                    wr_enable(qp.send_wq.wq_num, 1, relative=True))
                yield lo.sim.timeout(20_000)
            return (qp.send_wq.executed_count if False else
                    qp.send_wq.fetched_count,
                    qp.send_wq.posted_count,
                    qp.send_wq.cq.count)

        fetched, posted, completions = lo.run(run())
        assert posted == 1
        assert fetched == 3
        assert completions == 3

    def test_monotonic_wait_counts_force_adds(self, lo):
        """CQ counts never reset: a WAIT re-armed for a second loop pass
        must target a *higher* absolute count (why recycling needs ADD
        verbs on wqe_count, §3.4)."""
        cq = lo.qp_a.send_wq.cq

        def run():
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            yield from lo.verbs.execute_sync_checked(
                lo.qp_a, wr_noop(signaled=True))
            return cq.count

        assert lo.run(run()) == 2
        # And a watcher for the old threshold fires immediately.
        event = cq.wait_for_count(1)
        assert event.triggered


class TestSelfModifyingCas:
    def test_cas_conditionally_flips_opcode(self, lo):
        """The Fig 4 conditional, raw: CAS on a WQE ctrl word converts a
        NOOP template into a live WRITE only when operands match."""
        src, _ = lo.buffer(8)
        dst, dst_mr = lo.buffer(8)
        lo.memory.write(src.addr, b"T" * 8)

        pd = lo.pd
        # Managed target queue holding the NOOP template (id = x).
        target_qp = lo.nic.create_qp(pd, managed_send=True, name="tgt")
        target_qp.connect(lo.nic.create_qp(pd, name="tgt-peer"))
        code_mr = pd.register(target_qp.send_wq.ring)

        x = 0x1234
        cas_qp, _ = lo.nic.create_loopback_pair(pd, name="cas")

        def attempt(y):
            # Each attempt posts a fresh NOOP template (new ring slot),
            # CASes it against y, then releases it with a doorbell.
            template = make_write_template(src.addr, 8, dst.addr,
                                           dst_mr.rkey)
            template.wr_id = x
            lo.memory.fill(dst.addr, 8, 0)
            wr_index = target_qp.post_send(template)
            ctrl_addr = target_qp.send_wq.slot_addr(wr_index)

            def run():
                yield from lo.verbs.execute_sync_checked(
                    cas_qp, wr_cas(
                        ctrl_addr, code_mr.rkey,
                        compare=ctrl_word(Opcode.NOOP, y),
                        swap=ctrl_word(Opcode.WRITE, y)))
                target_qp.send_wq.doorbell()
                yield lo.sim.timeout(20_000)
                return lo.memory.read(dst.addr, 8)
            return lo.run(run())

        # x != y: CAS fails, template stays NOOP, nothing written.
        assert attempt(0x9999) == bytes(8)
        # x == y: CAS succeeds, NOOP becomes WRITE, bytes move.
        assert attempt(x) == b"T" * 8


class TestCompletionOrdering:
    def test_cqes_delivered_in_wr_order(self, rig):
        src, _ = rig.buffer("a", 8)
        dst, dst_mr = rig.buffer("b", 64)

        def run():
            for index in range(4):
                yield from rig.verbs.post_send(
                    rig.qp_a,
                    wr_write(src.addr, 8, dst.addr + 8 * index,
                             dst_mr.rkey, wr_id=index, signaled=True))
            ids = []
            for _ in range(4):
                cqe = yield from rig.verbs.poll(rig.qp_a.send_wq.cq)
                ids.append(cqe.wr_id)
            return ids

        assert rig.run(run()) == [0, 1, 2, 3]


class TestInOrderRetirement:
    """WQ-ordered data paths overlap, but WRs retire in WR order."""

    @staticmethod
    def _drain(rig):
        rig.sim.run()
        cqes = []
        cqe = rig.qp_a.send_wq.cq.poll()
        while cqe is not None:
            cqes.append(cqe)
            cqe = rig.qp_a.send_wq.cq.poll()
        return cqes

    def _read_then_writes(self, rig, fence=False):
        """A 64 KB READ, then three 8-byte signaled WRITEs."""
        big, big_mr = rig.buffer("b", 1 << 16)
        sink, _ = rig.buffer("a", 1 << 16)
        src, _ = rig.buffer("a", 8)
        dst, dst_mr = rig.buffer("b", 64)
        rig.mem_a.write(src.addr, b"W" * 8)
        rig.qp_a.post_send(wr_read(sink.addr, 1 << 16, big.addr,
                                   big_mr.rkey, wr_id=0, signaled=True))
        for index in range(1, 4):
            wqe = wr_write(src.addr, 8, dst.addr + 8 * index, dst_mr.rkey,
                           wr_id=index, signaled=True)
            if fence and index == 1:
                wqe.flags |= WrFlags.FENCE
            rig.qp_a.post_send(wqe)
        return dst

    def test_short_writes_behind_long_read_complete_in_wr_order(self, rig):
        dst = self._read_then_writes(rig)
        cqes = self._drain(rig)
        assert [c.wr_id for c in cqes] == [0, 1, 2, 3]
        assert all(c.ok for c in cqes)
        # The WRITEs' data paths finished first and waited: all three
        # retire in the same instant as the READ they queued behind.
        assert {c.timestamp for c in cqes} == {cqes[0].timestamp}
        assert rig.mem_b.read(dst.addr + 8, 24) == b"W" * 24

    def test_fenced_write_waits_for_in_flight_read(self, rig):
        dst = self._read_then_writes(rig, fence=True)
        read_done = []

        def watch():
            # The fenced WRITE must not touch memory before the READ
            # retires: sample the sink just before the READ's CQE.
            cq = rig.qp_a.send_wq.cq
            yield cq.wait_for_count(1, 0)
            read_done.append((rig.sim.now,
                              rig.mem_b.read(dst.addr + 8, 8)))

        rig.sim.process(watch())
        cqes = self._drain(rig)
        assert [c.wr_id for c in cqes] == [0, 1, 2, 3]
        read_ns = cqes[0].timestamp
        assert read_done[0][1] == bytes(8)
        # The fenced WRITE ran its whole data path after the READ.
        assert all(c.timestamp > read_ns for c in cqes[1:])
        assert rig.mem_b.read(dst.addr + 8, 8) == b"W" * 8

    def test_crashed_data_path_is_reported_under_its_queue(self, rig,
                                                          monkeypatch):
        """A non-verb error in a data path fails its op process, named
        after the queue and WR index (FleetError reports that name)."""
        src, _ = rig.buffer("a", 8)
        dst, dst_mr = rig.buffer("b", 8)
        executor = rig.nic_a.executor

        def broken_write(qp, wqe):
            yield 10
            raise RuntimeError("model bug")

        monkeypatch.setattr(executor, "_write", broken_write)
        rig.qp_a.post_send(wr_write(src.addr, 8, dst.addr, dst_mr.rkey,
                                    signaled=True))
        rig.sim.run()
        [failed] = rig.sim.failed_processes
        assert failed.name == f"op:{rig.qp_a.send_wq.name}:0"
        assert isinstance(failed.exception, RuntimeError)
        assert rig.qp_a.send_wq.cq.poll() is None

    @pytest.mark.parametrize("fence_at, events, processes, cqe_ns", [
        (None, 88, 12, 2823),
        (0, 89, 12, 2823),      # FENCE with nothing in flight
        (6, 88, 12, 3730),      # FENCE behind six in-flight WRs
    ])
    def test_write_cas_burst_kernel_cost_is_pinned(self, rig, fence_at,
                                                   events, processes,
                                                   cqe_ns):
        """Kernel events and process spawns of a fixed 12-WR burst: a
        host-only refactor of the WR lifecycle must not move them. One
        op process per WR; a FENCE that finds the queue idle still
        costs its one immediate slot."""
        src, _ = rig.buffer("a", 64)
        dst, dst_mr = rig.buffer("b", 128)
        rig.sim.run()
        before = rig.sim.stats
        start = rig.sim.now
        for index in range(12):
            if index % 3 == 2:
                wqe = wr_cas(dst.addr, dst_mr.rkey, index // 3,
                             index // 3 + 1, signaled=index == 11)
            else:
                wqe = wr_write(src.addr, 64, dst.addr + 64, dst_mr.rkey,
                               signaled=index == 11)
            if index == fence_at:
                wqe.flags |= WrFlags.FENCE
            rig.qp_a.post_send(wqe)
        cqes = self._drain(rig)
        assert [(c.status, c.timestamp - start) for c in cqes] == [
            ("OK", cqe_ns)]
        assert rig.mem_b.read_u64(dst.addr) == 4
        after = rig.sim.stats
        assert (after["events_executed"] - before["events_executed"],
                after["processes_started"]
                - before["processes_started"]) == (events, processes)


class TestRateLimiter:
    def test_wq_rate_limit_paces_execution(self, lo):
        """§3.5 isolation: a rate-limited WQ cannot exceed its budget."""
        qp = lo.qp_a
        qp.send_wq.set_rate_limit(ops_per_sec=100_000, burst=1)

        def run():
            times = []
            for _ in range(3):
                yield from lo.verbs.execute_sync_checked(
                    qp, wr_noop(signaled=True))
                times.append(lo.sim.now)
            return times

        times = lo.run(run())
        # 100 K ops/s -> >= ~10 us between ops after the burst.
        assert times[1] - times[0] >= 9_000
        assert times[2] - times[1] >= 9_000


def _ok_cqe(wr_id=0):
    return Cqe(wr_id=wr_id, opcode=Opcode.NOOP, status="OK", wq_num=1)


class TestWaitFold:
    """A WAIT resumes ``wait_check_ns`` after its count, as one event."""

    def test_met_threshold_resumes_after_delay(self, sim):
        cq = CompletionQueue(sim, 1)
        cq.post_completion(_ok_cqe())

        def waiter():
            count = yield cq.wait_for_count(1, 20)
            return sim.now, count

        assert sim.run_process(waiter()) == (20, 1)

    def test_unmet_threshold_resumes_delay_after_count(self, sim):
        cq = CompletionQueue(sim, 1)
        woke = []

        def waiter():
            count = yield cq.wait_for_count(2, 20)
            woke.append((sim.now, count))

        def completer():
            yield 100
            cq.post_completion(_ok_cqe(1))
            yield 50
            cq.post_completion(_ok_cqe(2))

        sim.process(waiter())
        sim.process(completer())
        sim.run()
        assert woke == [(170, 2)]
        # Two process starts, the completer's two sleeps, and one
        # wake-up: reaching the count and the check are one event.
        assert sim.stats["events_executed"] == 5

    def test_interrupt_while_waiting_leaves_no_stale_resume(self, sim):
        cq = CompletionQueue(sim, 1)
        event = cq.wait_for_count(1, 20)
        resumed = []

        def waiter():
            try:
                yield event
            except Interrupt:
                pass
            yield 1_000
            resumed.append(sim.now)

        def driver(target):
            yield 50
            target.interrupt()
            yield 50
            cq.post_completion(_ok_cqe())

        proc = sim.process(waiter())
        sim.process(driver(proc))
        sim.run()
        # The count was reached at 100 and the folded check fired at
        # 120, but the interrupted waiter was already sleeping to 1050.
        assert resumed == [1_050]
        assert event.triggered and event._callbacks is None

    def _traced_wait(self, lo, post_wait_first):
        """Trigger NOOP + chained WAIT; returns (wait span, trigger CQE)."""
        chain_qp, _ = lo.nic.create_loopback_pair(lo.pd, name="chain")
        trigger_cq = lo.qp_a.send_wq.cq
        tracer = Tracer(lo.sim, name="wait")
        try:
            if post_wait_first:
                chain_qp.post_send(wr_wait(trigger_cq.cq_num, 1))

            def run():
                cqe = yield from lo.verbs.execute_sync_checked(
                    lo.qp_a, wr_noop(signaled=True))
                if not post_wait_first:
                    chain_qp.post_send(wr_wait(trigger_cq.cq_num, 1))
                yield 20_000
                return cqe

            trigger = lo.run(run())
        finally:
            tracer.close()
        (span,) = [event for event in tracer.chrome_events()
                   if event["name"] == "WAIT"]
        return span, trigger

    def test_wait_verb_met_threshold_costs_wait_check(self, lo):
        span, _trigger = self._traced_wait(lo, post_wait_first=False)
        assert round(span["dur"] * 1000) == lo.nic.timing.wait_check_ns

    def test_wait_verb_resumes_wait_check_after_count(self, lo):
        span, trigger = self._traced_wait(lo, post_wait_first=True)
        # The trigger CQE's timestamp is when the counter bumped.
        wake = round(span["ts"] * 1000) + round(span["dur"] * 1000)
        assert wake == trigger.timestamp + lo.nic.timing.wait_check_ns


class TestDoorbellCoalescing:
    """Same-instant doorbells of one queue share one scheduled raise."""

    def test_same_instant_posts_share_one_raise(self, lo):
        qp, wq = lo.qp_a, lo.qp_a.send_wq
        before = lo.sim.last_seq
        for index in range(5):
            qp.post_send(wr_noop(wr_id=index, signaled=True))
        assert lo.sim.last_seq == before + 1
        lo.sim.run(until=wq.doorbell_delay_ns - 1)
        assert wq.enabled_count == 0
        lo.sim.run(until=wq.doorbell_delay_ns)
        assert wq.enabled_count == 5
        lo.sim.run()
        ids = []
        while (cqe := wq.cq.poll()) is not None:
            ids.append(cqe.wr_id)
        assert ids == [0, 1, 2, 3, 4]

    def test_push_from_another_queue_keeps_raises_separate(self, lo):
        before = lo.sim.last_seq
        lo.qp_a.post_send(wr_noop(wr_id=1, signaled=True))
        lo.qp_b.post_send(wr_noop(wr_id=2, signaled=True))
        lo.qp_a.post_send(wr_noop(wr_id=3, signaled=True))
        assert lo.sim.last_seq == before + 3
        lo.sim.run()
        assert lo.qp_a.send_wq.cq.count == 2
        assert lo.qp_b.send_wq.cq.count == 1

    def test_later_instant_keeps_raises_separate(self, lo):
        qp, wq = lo.qp_a, lo.qp_a.send_wq
        delay = wq.doorbell_delay_ns

        def host():
            qp.post_send(wr_noop(signaled=True))
            qp.post_send(wr_noop(signaled=True))
            yield 10
            qp.post_send(wr_noop(signaled=True))

        lo.sim.process(host())
        lo.sim.run(until=delay)
        assert wq.enabled_count == 2
        lo.sim.run(until=delay + 9)
        assert wq.enabled_count == 2
        lo.sim.run(until=delay + 10)
        assert wq.enabled_count == 3
        lo.sim.run()
        assert wq.cq.count == 3


class TestRemoteVerbCost:
    """Simulated times and kernel cost of one uncontended remote verb."""

    @staticmethod
    def _one(rig, make_wqe):
        src, _ = rig.buffer("a", 64)
        dst, dst_mr = rig.buffer("b", 64)
        rig.sim.run()
        events = rig.sim.stats["events_executed"]
        start = rig.sim.now
        rig.qp_a.post_send(make_wqe(src, dst, dst_mr))
        rig.sim.run()
        cqe = rig.qp_a.send_wq.cq.poll()
        return (cqe.status, cqe.timestamp - start,
                rig.sim.stats["events_executed"] - events)

    @pytest.mark.parametrize("opcode, cqe_ns, events", [
        ("WRITE", 1287, 12),
        ("READ", 1513, 12),
        ("CAS", 1507, 11),
    ])
    def test_exact_event_count(self, rig, opcode, cqe_ns, events):
        """Six events reach the data path: the doorbell raise, the
        driver's wake-up, the prefetch's two sleeps, the PU hold and
        the op process start. Then one sleep per stage — WRITE: gather
        DMA, request (wire, link and RX folded), posted DMA, payload
        DMA, ack; READ: request, non-posted DMA, payload DMA, response,
        scatter DMA; CAS: request, atomic unit, PCIe-atomic remainder,
        response — and last the CQE's host delivery."""
        make = {
            "WRITE": lambda src, dst, mr: wr_write(
                src.addr, 64, dst.addr, mr.rkey, signaled=True),
            "READ": lambda src, dst, mr: wr_read(
                src.addr, 64, dst.addr, mr.rkey, signaled=True),
            "CAS": lambda src, dst, mr: wr_cas(
                dst.addr, mr.rkey, 0, 1, signaled=True),
        }[opcode]
        assert self._one(rig, make) == ("OK", cqe_ns, events)

    @pytest.mark.parametrize("revoke_at, status, cqe_ns", [
        (632, "PROTECTION_ERROR", 955),   # request enters the wire
        (954, "PROTECTION_ERROR", 955),   # during responder RX processing
        (955, "PROTECTION_ERROR", 955),   # same instant as the check
        (956, "OK", 1287),                # after the check passed
    ])
    def test_rkey_revoked_mid_write(self, rig, revoke_at, status, cqe_ns):
        """Revoking the rkey while the request is on the wire still
        fails the WRITE at the responder's check, at the same time."""
        src, _ = rig.buffer("a", 64)
        dst, dst_mr = rig.buffer("b", 64)
        rig.mem_a.write(src.addr, b"Z" * 64)
        rig.qp_a.post_send(wr_write(src.addr, 64, dst.addr, dst_mr.rkey,
                                    signaled=True))

        def revoker():
            yield revoke_at
            rig.pd_b.deregister(dst_mr)

        rig.sim.process(revoker())
        rig.sim.run()
        cqe = rig.qp_a.send_wq.cq.poll()
        assert (cqe.status, cqe.timestamp) == (status, cqe_ns)
        written = rig.mem_b.read(dst.addr, 64)
        assert written == (b"Z" * 64 if status == "OK" else bytes(64))
