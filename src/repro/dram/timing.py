"""DRAM timing parameters converted from DRAM-clock cycles to core cycles."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.config.system import DramConfig


@dataclass(frozen=True, slots=True)
class DramTiming:
    """All DRAM timings in *core* cycles (integers, rounded up).

    The conversion factor is ``core_freq / dram_io_freq``; rounding up keeps the
    model conservative (never faster than the real device).
    """

    tCL: int
    tRCD: int
    tRP: int
    tRAS: int
    tRC: int
    tCCD: int
    tRRD: int
    tWR: int
    tBURST: int            # data-bus occupancy of one 64-byte transfer
    tOVERHEAD: int         # controller + PHY latency per access (no bus occupancy)
    core_cycles_per_dram_cycle: float

    @classmethod
    def from_config(cls, dram: DramConfig, core_frequency_ghz: float) -> "DramTiming":
        if core_frequency_ghz <= 0:
            raise ConfigError("core frequency must be positive")
        dram.validate()
        ratio = (core_frequency_ghz * 1e9) / (dram.io_freq_mhz * 1e6)

        def cvt(dram_cycles: int) -> int:
            return max(1, math.ceil(dram_cycles * ratio))

        # One 64-byte line needs line_bytes / (channel_width/8) beats; DDR transfers
        # two beats per clock.
        beats = 64 // (dram.channel_width_bits // 8)
        burst_clocks = max(1, beats // 2)
        overhead_cycles = math.ceil(dram.controller_overhead_ns * core_frequency_ghz)
        return cls(
            tCL=cvt(dram.tCL),
            tRCD=cvt(dram.tRCD),
            tRP=cvt(dram.tRP),
            tRAS=cvt(dram.tRAS),
            tRC=cvt(dram.tRC),
            tCCD=cvt(dram.tCCD),
            tRRD=cvt(dram.tRRD),
            tWR=cvt(dram.tWR),
            tBURST=cvt(burst_clocks),
            tOVERHEAD=overhead_cycles,
            core_cycles_per_dram_cycle=ratio,
        )

    @property
    def row_closed_latency(self) -> int:
        return self.tOVERHEAD + self.tRCD + self.tCL + self.tBURST

    @property
    def row_conflict_latency(self) -> int:
        return self.tOVERHEAD + self.tRP + self.tRCD + self.tCL + self.tBURST
