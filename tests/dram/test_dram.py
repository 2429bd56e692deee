"""Tests for the DDR5 timing model: latency, bandwidth, row-buffer behaviour."""

import pytest

from repro.common.rng import make_rng
from repro.config.system import DramConfig, SystemConfig
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming


def make_dram(**overrides):
    cfg = DramConfig(**overrides) if overrides else DramConfig()
    return DramSystem(cfg, core_frequency_ghz=1.96)


def drain(dram, until_cycle, start=0):
    """Tick the DRAM until `until_cycle`, returning (payload, cycle) completions."""

    completions = []
    for cycle in range(start, until_cycle):
        for payload, line, is_write in dram.tick(cycle):
            completions.append((payload, line, is_write, cycle))
    return completions


class TestTiming:
    def test_conversion_to_core_cycles(self):
        timing = DramTiming.from_config(DramConfig(), 1.96)
        # 1.96 GHz core vs 1.6 GHz DRAM clock: every parameter gets larger.
        assert timing.tCL >= 26
        assert timing.tRCD >= 26
        assert timing.core_cycles_per_dram_cycle == pytest.approx(1.225, rel=0.01)

    def test_latency_ordering(self):
        timing = DramTiming.from_config(DramConfig(), 1.96)
        assert timing.row_closed_latency < timing.row_conflict_latency

    def test_burst_length_positive(self):
        timing = DramTiming.from_config(DramConfig(), 1.96)
        assert timing.tBURST >= 1


class TestSingleAccess:
    def test_read_completes_with_closed_row_latency(self):
        dram = make_dram()
        dram.enqueue(0x1000, is_write=False, payload="p", cycle=0)
        completions = drain(dram, 200)
        assert len(completions) == 1
        payload, line, is_write, cycle = completions[0]
        assert payload == "p" and line == 0x1000 and not is_write
        timing = dram.timing
        assert cycle >= timing.row_closed_latency
        assert cycle <= timing.row_conflict_latency + 10

    def test_row_hit_is_faster_than_row_conflict(self):
        dram = make_dram()
        # Two lines in the same row (consecutive lines on the same channel are 4 lines apart).
        line_a = 0x0
        line_b = 0x0 + 64 * dram.config.num_channels
        dram.enqueue(line_a, False, "a", 0)
        first = drain(dram, 300)[-1][3]
        dram.enqueue(line_b, False, "b", first + 1)
        second = drain(dram, first + 300, start=first + 1)[-1][3]
        hit_latency = second - (first + 1)
        # A fresh conflict access to a different row in the same bank:
        far_line = line_a + dram.config.row_bytes * dram.config.num_channels
        dram.enqueue(far_line, False, "c", second + 1)
        third = drain(dram, second + 400, start=second + 1)[-1][3]
        conflict_latency = third - (second + 1)
        assert hit_latency < conflict_latency

    def test_write_completes_without_response_requirement(self):
        dram = make_dram()
        assert dram.enqueue(0x2000, is_write=True, payload=None, cycle=0)
        completions = drain(dram, 300)
        assert len(completions) == 1
        assert completions[0][2] is True


class TestQueueing:
    def test_queue_capacity_respected(self):
        dram = make_dram(queue_depth=4)
        accepted = sum(
            dram.enqueue(i * 64 * 4, False, i, 0) for i in range(10)  # all channel 0
        )
        assert accepted == 4
        assert not dram.can_accept(0x0)

    def test_channel_interleaving_spreads_load(self):
        dram = make_dram(queue_depth=2)
        # Consecutive lines go to different channels, so 8 accepts succeed.
        accepted = sum(dram.enqueue(i * 64, False, i, 0) for i in range(8))
        assert accepted == 8


class TestBandwidthAndStats:
    def test_streaming_reads_approach_peak_bandwidth(self):
        """A long stream of sequential lines must achieve a large fraction of peak BW."""

        dram = make_dram()
        num_lines = 512
        issued = 0
        completed = 0
        cycle = 0
        while completed < num_lines and cycle < 100_000:
            while issued < num_lines and dram.can_accept(issued * 64) and dram.enqueue(
                issued * 64, False, issued, cycle
            ):
                issued += 1
            completed += len(dram.tick(cycle))
            cycle += 1
        assert completed == num_lines
        stats = dram.stats()
        achieved = stats.bandwidth_gbps(cycle, 1.96)
        assert achieved > 0.5 * dram.config.peak_bandwidth_gbps
        assert stats.row_hit_rate > 0.7

    def test_stats_accumulate(self):
        dram = make_dram()
        dram.enqueue(0x0, False, None, 0)
        dram.enqueue(0x40, True, None, 0)
        drain(dram, 300)
        stats = dram.stats()
        assert stats.reads == 1
        assert stats.writes == 1
        assert stats.accesses == 2
        assert stats.bytes_transferred == 128

    def test_random_accesses_hit_rows_less_often(self):
        dram = make_dram()
        rng = make_rng(7)
        lines = [int(rng.integers(0, 1 << 30)) // 64 * 64 for _ in range(256)]
        cycle = 0
        pending = list(lines)
        completed = 0
        while completed < len(lines) and cycle < 200_000:
            while pending and dram.can_accept(pending[0]) and dram.enqueue(
                pending[0], False, None, cycle
            ):
                pending.pop(0)
            completed += len(dram.tick(cycle))
            cycle += 1
        stats = dram.stats()
        assert stats.row_hit_rate < 0.5


class TestSystemIntegration:
    def test_timing_uses_system_frequency(self):
        system = SystemConfig()
        dram = DramSystem(system.dram, system.frequency_ghz)
        assert dram.timing.core_cycles_per_dram_cycle == pytest.approx(
            1 / system.dram_cycles_per_core_cycle, rel=1e-6
        )

    def test_has_work(self):
        dram = make_dram()
        assert not dram.has_work()
        dram.enqueue(0x1000, False, None, 0)
        assert dram.has_work()
