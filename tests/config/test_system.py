"""Tests for the hardware configuration layer (Table 5)."""

from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.config.system import (
    CoreConfig,
    DramConfig,
    L1Config,
    L2Config,
    MIB,
    NoCConfig,
    SystemConfig,
)


class TestTable5Defaults:
    """The defaults must match Table 5 of the paper verbatim."""

    def test_basics(self):
        cfg = SystemConfig()
        assert cfg.frequency_ghz == pytest.approx(1.96)
        assert cfg.core.num_cores == 16
        assert cfg.l2.size_bytes == 16 * MIB
        assert cfg.l2.num_slices == 8

    def test_core_row(self):
        core = CoreConfig()
        assert core.inst_window_depth == 128
        assert core.num_inst_windows == 4
        assert core.vector_bytes == 128

    def test_l1_row(self):
        l1 = L1Config()
        assert l1.line_size == 64
        assert l1.associativity == 8
        assert l1.size_bytes == 64 * 1024
        assert l1.latency == 1

    def test_l2_row(self):
        l2 = L2Config()
        assert l2.associativity == 8
        assert l2.hit_latency == 3
        assert l2.data_latency == 25
        assert l2.mshr_num_entries == 6
        assert l2.mshr_num_targets == 8
        assert l2.mshr_latency == 5
        assert l2.req_q_size == 12
        assert l2.resp_q_size == 64

    def test_dram_row(self):
        dram = DramConfig()
        assert dram.num_channels == 4
        assert dram.num_ranks == 4
        assert dram.standard.startswith("DDR5")

    def test_validate_passes_for_defaults(self):
        SystemConfig().validate()


class TestDerivedQuantities:
    def test_l2_slice_geometry(self):
        l2 = L2Config()
        assert l2.slice_size_bytes == 2 * MIB
        assert l2.sets_per_slice == 2 * MIB // (64 * 8)

    def test_l1_num_sets(self):
        assert L1Config().num_sets == 64 * 1024 // (64 * 8)

    def test_dram_peak_bandwidth_matches_ddr5_3200(self):
        dram = DramConfig()
        # 3200 MT/s * 4 B/channel * 4 channels = 51.2 GB/s
        assert dram.peak_bandwidth_gbps == pytest.approx(51.2, rel=0.01)

    def test_dram_cycles_per_core_cycle(self):
        cfg = SystemConfig()
        assert cfg.dram_cycles_per_core_cycle == pytest.approx(1.6 / 1.96, rel=1e-6)


class TestValidation:
    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigError):
            SystemConfig(frequency_ghz=0).validate()

    def test_rejects_mismatched_line_sizes(self):
        cfg = SystemConfig(l1=replace(L1Config(), line_size=128, size_bytes=128 * 1024))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_non_power_of_two_slices(self):
        with pytest.raises(ConfigError):
            replace(L2Config(), num_slices=6).validate()

    def test_rejects_zero_mshr(self):
        with pytest.raises(ConfigError):
            replace(L2Config(), mshr_num_entries=0).validate()

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            replace(L2Config(), hit_latency=-1).validate()

    def test_rejects_bad_core_counts(self):
        with pytest.raises(ConfigError):
            replace(CoreConfig(), num_cores=0).validate()

    def test_rejects_bad_noc(self):
        with pytest.raises(ConfigError):
            NoCConfig(slice_port_width=0).validate()

    def test_rejects_bad_dram_timing(self):
        with pytest.raises(ConfigError):
            replace(DramConfig(), tCL=0).validate()


class TestModifiers:
    def test_with_l2_size(self):
        cfg = SystemConfig().with_l2_size(32 * MIB)
        assert cfg.l2.size_bytes == 32 * MIB
        # The original is unchanged (frozen dataclasses).
        assert SystemConfig().l2.size_bytes == 16 * MIB

    def test_with_l2_size_rejects_invalid(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_l2_size(100)  # not divisible into slices/sets
