"""Tests for the LLC slice pipeline (Fig 4): hits, misses, merges, stalls, fills."""

from __future__ import annotations

import pytest

from repro.arbiter.fcfs import FcfsArbiter
from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest
from repro.config.system import L2Config, ReqRespArbitration
from repro.llc.slice import LLCSlice


class SliceHarness:
    """Drives a single slice with scripted requests and a perfect DRAM stub."""

    def __init__(self, l2: L2Config | None = None, dram_latency: int = 40,
                 dram_always_accepts: bool = True):
        self.config = l2 if l2 is not None else L2Config(
            size_bytes=64 * 1024, num_slices=1, mshr_num_entries=2, mshr_num_targets=4,
        )
        self.responses = []
        self.dram_queue: list[tuple[int, int, bool]] = []   # (ready_cycle, line, is_write)
        self.dram_latency = dram_latency
        self.dram_always_accepts = dram_always_accepts
        self.dram_rejects = 0
        amap = AddressMap(line_size=self.config.line_size, num_slices=self.config.num_slices)
        self.arbiter = FcfsArbiter(num_cores=4)
        self.slice = LLCSlice(
            slice_id=0,
            config=self.config,
            address_map=amap,
            arbiter=self.arbiter,
            response_sink=lambda resp, cycle, delay: self.responses.append((cycle + delay, resp)),
            dram_sink=self._dram_sink,
        )
        self.cycle = 0

    def _dram_sink(self, line_addr: int, is_write: bool, slice_id: int, cycle: int) -> bool:
        if not self.dram_always_accepts:
            self.dram_rejects += 1
            return False
        self.dram_queue.append((cycle + self.dram_latency, line_addr, is_write))
        return True

    def push(self, addr: int, rw=AccessType.READ, core=0) -> bool:
        return self.slice.accept_request(
            MemRequest(addr=addr, rw=rw, core_id=core), self.cycle
        )

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            # Deliver due DRAM fills (reads only).
            due = [d for d in self.dram_queue if d[0] <= self.cycle and not d[2]]
            for ready, line, is_write in due:
                self.dram_queue.remove((ready, line, is_write))
                self.slice.on_dram_fill(line, self.cycle)
            self.slice.tick(self.cycle)
            self.cycle += 1


class TestHitAndMissPaths:
    def test_miss_goes_to_dram_and_returns(self):
        h = SliceHarness()
        h.push(0x1000)
        h.run(100)
        assert h.slice.misses == 1
        assert h.slice.hits == 0
        assert h.slice.dram_reads_issued == 1
        assert len(h.responses) == 1
        assert h.responses[0][1].served_by == "dram"

    def test_hit_after_fill_served_from_cache(self):
        h = SliceHarness()
        h.push(0x1000)
        h.run(100)                      # line now resident (fill path)
        h.push(0x1000, core=1)
        h.run(50)
        assert h.slice.hits == 1
        assert any(r.served_by == "l2" for _, r in h.responses)

    def test_hit_latency_is_hit_plus_data_latency(self):
        h = SliceHarness()
        h.push(0x1000)
        h.run(100)
        h.responses.clear()
        start = h.cycle
        h.push(0x1000)
        h.run(40)
        ready_cycle, resp = h.responses[0]
        expected = h.config.hit_latency + h.config.data_latency
        # One cycle of queueing (request accepted on cycle N, selected on N+1 at the earliest).
        assert ready_cycle - start >= expected
        assert ready_cycle - start <= expected + 4

    def test_concurrent_same_line_misses_merge(self):
        h = SliceHarness()
        h.push(0x2000, core=0)
        h.push(0x2000, core=1)
        h.push(0x2000, core=1)
        h.run(120)
        assert h.slice.mshr_allocations == 1
        assert h.slice.mshr_merges == 2
        assert h.slice.dram_reads_issued == 1      # merged requests share one fetch
        assert len(h.responses) == 3
        assert h.slice.mshr_hit_rate() == pytest.approx(2 / 3)

    def test_write_miss_allocates_and_marks_dirty(self):
        h = SliceHarness()
        h.push(0x3000, rw=AccessType.WRITE)
        h.run(120)
        assert h.slice.misses == 1
        assert h.slice.storage.is_dirty(0x3000)

    def test_write_hit_marks_dirty(self):
        h = SliceHarness()
        h.push(0x3000)
        h.run(100)
        h.push(0x3000, rw=AccessType.WRITE)
        h.run(40)
        assert h.slice.storage.is_dirty(0x3000)


class TestStalls:
    def test_mshr_entry_exhaustion_stalls_pipeline(self):
        """With 2 entries, a third distinct miss must stall until a fill returns."""

        h = SliceHarness(dram_latency=200)
        for i in range(3):
            h.push(0x1000 + i * 64, core=i)
        h.run(100)   # not enough time for DRAM to return
        assert h.slice.stalled
        assert h.slice.stall_cycles > 0
        assert h.slice.mshr_allocations == 2
        h.run(600)   # fills arrive, stall clears, third miss proceeds and returns
        assert not h.slice.stalled
        assert h.slice.mshr_allocations == 3
        assert len(h.responses) == 3

    def test_stall_blocks_even_hits(self):
        """While the MSHR stage is stalled, a would-be hit behind it is not served."""

        h = SliceHarness(dram_latency=500)
        h.push(0x1000, core=0)
        h.run(560)                      # wait for the fill: 0x1000 is now resident
        hits_before = h.slice.hits
        # Fill the MSHR (2 entries) and one more distinct miss to stall the pipeline.
        h.push(0x8000, core=1)
        h.push(0x8040, core=2)
        h.push(0x8080, core=3)
        h.run(30)                       # the third miss is now stalled in the MSHR stage
        assert h.slice.stalled
        h.push(0x1000, core=0)          # a would-be hit stuck behind the stall
        h.run(60)
        assert h.slice.stalled
        assert h.slice.hits == hits_before

    def test_dram_backlog_drains_when_channel_frees(self):
        h = SliceHarness(dram_always_accepts=False)
        h.push(0x4000)
        h.run(30)
        assert h.dram_rejects > 0
        h.dram_always_accepts = True
        h.run(100)
        assert h.slice.dram_reads_issued == 1


class TestFillsAndWritebacks:
    def test_fill_installs_line(self):
        h = SliceHarness()
        h.push(0x5000)
        h.run(120)
        assert h.slice.storage.contains(0x5000)
        assert h.slice.fills_written == 1

    def test_dirty_eviction_issues_writeback(self):
        """A tiny 1-set cache forces dirty lines out, producing DRAM writes."""

        cfg = L2Config(
            size_bytes=1024, num_slices=1, associativity=2,
            mshr_num_entries=4, mshr_num_targets=4,
        )
        # 1 KiB / 64 B / 2-way = 8 sets; use addresses in the same set.
        h = SliceHarness(l2=cfg)
        set_stride = 8 * 64
        for i in range(4):
            h.push(0x10000 + i * set_stride, rw=AccessType.WRITE, core=i % 4)
            h.run(200)
        assert h.slice.writebacks > 0
        assert h.slice.dram_writes_issued == h.slice.writebacks


class TestReqRespArbitration:
    def test_response_first_policy_prefers_fills(self):
        h = SliceHarness()
        assert h.config.req_resp_arbitration == ReqRespArbitration.RESPONSE_FIRST
        h.push(0x6000)
        h.run(120)
        # After the run the response queue must be drained (fills always get the port).
        assert len(h.slice.response_queue) == 0

    def test_request_queue_rejects_when_full(self):
        h = SliceHarness()
        accepted = sum(h.push(0x7000 + i * 64) for i in range(h.config.req_q_size + 4))
        assert accepted == h.config.req_q_size
        assert h.slice.requests_rejected == 4

    def test_request_is_stamped_by_the_call_that_accepts_it(self):
        """Every rejected attempt counts; only the accepting call stamps the request."""

        h = SliceHarness()
        for i in range(h.config.req_q_size):
            assert h.push(0x7000 + i * 64)
        late = MemRequest(addr=0x9010, rw=AccessType.READ, core_id=1)
        for attempt in range(1, 4):
            assert not h.slice.accept_request(late, h.cycle + attempt)
            assert h.slice.requests_rejected == attempt
        assert late.arrive_cycle == 0 and late.line_addr == -1
        h.run(1)                        # one lookup frees a queue slot
        accepted_at = h.cycle + 3
        assert h.slice.accept_request(late, accepted_at)
        assert h.slice.requests_rejected == 3
        assert h.slice.requests_accepted == h.config.req_q_size + 1
        assert late.arrive_cycle == accepted_at
        assert late.line_addr == 0x9000
