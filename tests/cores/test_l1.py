"""Tests for the private streaming L1."""

from repro.common.rng import make_rng
from repro.common.types import AccessType, MemResponse, TraceEntry
from repro.config.system import CoreConfig, L1Config
from repro.cores.core import VectorCore
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.trace.threadblock import ThreadBlock, Trace


class TestL1Reads:
    def test_cold_read_misses(self):
        l1 = L1Cache(L1Config())
        assert not l1.access_read(0x1000)
        assert l1.read_misses == 1

    def test_hit_after_fill(self):
        l1 = L1Cache(L1Config())
        l1.access_read(0x1000)
        l1.fill(l1.line_addr(0x1000))
        assert l1.access_read(0x1010)       # same line, different offset
        assert l1.read_hits == 1

    def test_no_allocation_on_miss(self):
        """Allocate-on-fill: a miss alone does not install the line."""

        l1 = L1Cache(L1Config())
        l1.access_read(0x1000)
        assert not l1.access_read(0x1000)
        assert l1.read_misses == 2

    def test_hit_rate(self):
        l1 = L1Cache(L1Config())
        l1.access_read(0x0)
        l1.fill(0x0)
        l1.access_read(0x0)
        assert l1.hit_rate == 0.5


class TestL1Writes:
    def test_writes_never_allocate(self):
        l1 = L1Cache(L1Config())
        l1.access_write(0x2000)
        assert l1.writes == 1
        assert not l1.access_read(0x2000)

    def test_write_to_present_line_keeps_it_resident(self):
        l1 = L1Cache(L1Config())
        l1.fill(0x2000)
        l1.access_write(0x2000)
        assert l1.access_read(0x2000)


class TestCapacity:
    def test_streaming_evicts_old_lines(self):
        cfg = L1Config(size_bytes=4096)      # 64 lines, 8 sets
        l1 = L1Cache(cfg)
        lines = [i * 64 for i in range(256)]
        for line in lines:
            l1.fill(line)
        # Early lines must have been evicted.
        assert not l1.access_read(lines[0])
        # The most recent line is still resident.
        assert l1.access_read(lines[-1])

    def test_line_addr_alignment(self):
        l1 = L1Cache(L1Config())
        assert l1.line_addr(0x1234) == 0x1200


class TestCoreInlinePath:
    def test_core_probe_and_fill_match_the_l1_methods(self):
        """``VectorCore`` probes and fills its L1 inline; the ``L1Cache``
        methods are the reference, replayed on the same accesses and fills."""

        rng = make_rng(11)
        config = L1Config(size_bytes=1024, associativity=2)  # 8 sets of 2 ways
        entries = [
            TraceEntry(
                compute_cycles=int(rng.choice((0, 0, 0, 2))),
                addr=int(rng.integers(48)) * 64 + int(rng.integers(64)),
                rw=AccessType.WRITE if rng.random() < 0.25 else AccessType.READ,
            )
            for _ in range(400)
        ]
        trace = Trace(blocks=[ThreadBlock(tb_id=0, h=0, g=0, tile_index=0, entries=entries)])
        in_flight = []  # (deliver cycle, request)

        def sink(req, cycle):
            in_flight.append((cycle + int(rng.integers(1, 12)), req))
            return True

        core = VectorCore(0, CoreConfig(num_cores=1, num_inst_windows=1, inst_window_depth=4),
                          L1Cache(config), sink, ThreadBlockScheduler(trace))
        reference = L1Cache(config)
        window = core.windows[0]
        cycle = 0
        while core.stat_completed_blocks == 0:
            for item in [item for item in in_flight if item[0] <= cycle]:
                in_flight.remove(item)
                req = item[1]
                line = reference.line_addr(req.addr)
                core.receive(MemResponse(req.req_id, 0, 0, line, req.rw, cycle), cycle)
                if req.rw == AccessType.READ:
                    reference.fill(line)
            cursor, sent = window.cursor, len(in_flight)
            core.tick(cycle)
            if window.tb is not None and window.cursor == cursor + 1:
                entry = entries[cursor]
                if entry.rw == AccessType.READ:
                    hit = reference.access_read(entry.addr)
                else:
                    reference.access_write(entry.addr)
                    hit = False
                assert len(in_flight) == sent + (not hit)
            cycle += 1
            assert cycle < 10_000

        got, want = core.l1, reference
        assert [list(s.items()) for s in got.storage.sets] == [
            list(s.items()) for s in want.storage.sets
        ]
        assert (got.read_hits, got.read_misses, got.writes) == (
            want.read_hits, want.read_misses, want.writes
        )
        assert (got.storage.fills, got.storage.evictions) == (
            want.storage.fills, want.storage.evictions
        )
        # The corpus exercises hits, misses, writes and evictions.
        assert min(want.read_hits, want.read_misses, want.writes, want.storage.evictions) > 0
