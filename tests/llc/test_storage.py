"""Tests for the set-associative cache storage (LRU, dirtiness, evictions)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.llc.storage import CacheStorage


def make_storage(num_sets=4, assoc=2):
    # Direct modulo indexing keeps the expected set for a line obvious in tests.
    return CacheStorage(num_sets, assoc, index_fn=lambda line: (line // 64) % num_sets)


class TestLookupAndFill:
    def test_miss_then_hit_after_fill(self):
        storage = make_storage()
        assert not storage.lookup(0x1000)
        storage.fill(0x1000)
        assert storage.lookup(0x1000)

    def test_fill_returns_victim_when_set_full(self):
        storage = make_storage(num_sets=1, assoc=2)
        storage.fill(0x000)
        storage.fill(0x040)
        victim = storage.fill(0x080)
        assert victim is not None
        assert victim.line_addr == 0x000
        assert storage.evictions == 1

    def test_lru_order_respects_recency(self):
        storage = make_storage(num_sets=1, assoc=2)
        storage.fill(0x000)
        storage.fill(0x040)
        storage.lookup(0x000)          # refresh line 0 -> line 0x040 becomes LRU
        victim = storage.fill(0x080)
        assert victim.line_addr == 0x040

    def test_lookup_without_lru_update_keeps_order(self):
        storage = make_storage(num_sets=1, assoc=2)
        storage.fill(0x000)
        storage.fill(0x040)
        storage.lookup(0x000, update_lru=False)
        victim = storage.fill(0x080)
        assert victim.line_addr == 0x000

    def test_refill_of_present_line_evicts_nothing(self):
        storage = make_storage(num_sets=1, assoc=2)
        storage.fill(0x000)
        assert storage.fill(0x000) is None
        assert storage.occupancy == 1


class TestDirtiness:
    def test_mark_dirty_and_dirty_eviction(self):
        storage = make_storage(num_sets=1, assoc=1)
        storage.fill(0x000)
        assert storage.mark_dirty(0x000)
        victim = storage.fill(0x040)
        assert victim.dirty
        assert storage.dirty_evictions == 1

    def test_mark_dirty_absent_line_returns_false(self):
        storage = make_storage()
        assert not storage.mark_dirty(0x123000)

    def test_fill_dirty_flag_merges(self):
        storage = make_storage(num_sets=1, assoc=2)
        storage.fill(0x000, dirty=False)
        storage.fill(0x000, dirty=True)
        assert storage.is_dirty(0x000)

    def test_clean_eviction_not_counted_dirty(self):
        storage = make_storage(num_sets=1, assoc=1)
        storage.fill(0x000)
        storage.fill(0x040)
        assert storage.dirty_evictions == 0


class TestInspection:
    def test_capacity_and_occupancy(self):
        storage = make_storage(num_sets=4, assoc=2)
        assert storage.capacity_lines == 8
        storage.fill(0x000)
        storage.fill(0x040)
        assert storage.occupancy == 2
        assert sorted(storage.resident_lines()) == [0x000, 0x040]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            CacheStorage(0, 4, index_fn=lambda a: 0)

    def test_index_fn_out_of_range_detected(self):
        storage = CacheStorage(2, 2, index_fn=lambda a: 5)
        with pytest.raises(ConfigError):
            storage.lookup(0x40)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_property_occupancy_never_exceeds_capacity(line_indices):
    """Whatever the access pattern, occupancy stays within num_sets * assoc."""

    storage = CacheStorage(4, 2, index_fn=lambda line: (line // 64) % 4)
    for idx in line_indices:
        addr = idx * 64
        if not storage.lookup(addr):
            storage.fill(addr)
        assert storage.occupancy <= storage.capacity_lines
    # Everything resident must still be findable.
    for line in storage.resident_lines():
        assert storage.contains(line)
