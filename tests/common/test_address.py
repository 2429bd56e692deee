"""Unit tests for address interleaving (LLC slices and DRAM geometry)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.address import AddressMap, DramAddressMap, is_power_of_two, log2_int
from repro.common.errors import ConfigError


class TestPowerOfTwoHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(65)
        assert not is_power_of_two(-4)

    def test_log2_int(self):
        assert log2_int(1) == 0
        assert log2_int(64) == 6
        with pytest.raises(ConfigError):
            log2_int(63)


class TestAddressMap:
    def setup_method(self):
        self.amap = AddressMap(line_size=64, num_slices=8)

    def test_line_alignment(self):
        assert self.amap.line_addr(0x1234) == 0x1200
        assert self.amap.line_addr(0x1200) == 0x1200

    def test_consecutive_lines_round_robin_across_slices(self):
        slices = [self.amap.slice_of(i * 64) for i in range(16)]
        assert slices == [i % 8 for i in range(16)]

    def test_same_line_same_slice(self):
        assert self.amap.slice_of(0x1000) == self.amap.slice_of(0x103F)

    def test_set_index_within_range(self):
        for addr in range(0, 1 << 20, 4096):
            assert 0 <= self.amap.set_index(addr, 512) < 512

    def test_set_index_fn_matches_method(self):
        fn = self.amap.set_index_fn(512)
        for addr in (0, 64, 0x1234, 0xDEADBEEF, 1 << 33):
            assert fn(addr) == self.amap.set_index(addr, 512)

    def test_lines_in_same_set_keep_distinct_line_addresses(self):
        sets = 512
        a = 0x100000
        b = a + 64 * 8 * sets  # same slice, same set, different line
        assert self.amap.slice_of(a) == self.amap.slice_of(b)
        assert self.amap.set_index(a, sets) == self.amap.set_index(b, sets)
        assert self.amap.line_addr(a) != self.amap.line_addr(b)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            AddressMap(line_size=60, num_slices=8)
        with pytest.raises(ConfigError):
            AddressMap(line_size=64, num_slices=6)
        with pytest.raises(ConfigError):
            self.amap.set_index(0, 500)


class TestDramAddressMap:
    def setup_method(self):
        self.dmap = DramAddressMap(
            line_size=64, num_channels=4, num_ranks=4, num_banks=16, row_bytes=2048
        )

    def test_consecutive_lines_interleave_channels(self):
        channels = [self.dmap.channel_of(i * 64) for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_decompose_ranges(self):
        for addr in range(0, 1 << 22, 8192):
            channel, rank, bank, row = self.dmap.decompose(addr)
            assert 0 <= channel < 4
            assert 0 <= rank < 4
            assert 0 <= bank < 16
            assert row >= 0

    def test_streaming_addresses_share_rows(self):
        """Consecutive lines on the same channel should mostly hit the same row."""

        rows = []
        for i in range(0, 128, 4):  # stay on channel 0
            _, _, _, row = self.dmap.decompose(i * 64)
            rows.append(row)
        assert len(set(rows)) <= 2

    def test_channel_of_matches_decompose(self):
        for addr in (0, 64, 4096, 123456, 1 << 30):
            assert self.dmap.channel_of(addr) == self.dmap.decompose(addr)[0]

    def test_rejects_small_rows(self):
        with pytest.raises(ConfigError):
            DramAddressMap(line_size=64, num_channels=2, num_ranks=1, num_banks=4, row_bytes=32)


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_property_slice_stable_within_line(addr):
    amap = AddressMap(line_size=64, num_slices=8)
    line_start = amap.line_addr(addr)
    assert amap.slice_of(addr) == amap.slice_of(line_start)
    assert amap.slice_of(addr) == amap.slice_of(line_start + 63)


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_property_dram_decompose_is_deterministic_and_injective_per_line(addr):
    dmap = DramAddressMap(
        line_size=64, num_channels=4, num_ranks=4, num_banks=16, row_bytes=2048
    )
    line = addr // 64 * 64
    first = dmap.decompose(line)
    assert dmap.decompose(line) == first
    # A different line in the next row of the same bank must differ somewhere.
    other = dmap.decompose(line + 2048 * 4)
    assert other != first or line != line + 2048 * 4
