"""Tests for the MSHR file: merging, stalls in both dimensions, occupancy accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.types import AccessType, MemRequest
from repro.llc.mshr import MshrFile


def req(addr, core=0):
    return MemRequest(addr=addr, rw=AccessType.READ, core_id=core).aligned(64)


class TestReservation:
    def test_first_miss_allocates(self):
        mshr = MshrFile(num_entries=2, num_targets=2)
        assert mshr.reserve(req(0x100), cycle=0) == "allocated"
        assert mshr.occupancy == 1
        assert mshr.allocations == 1

    def test_same_line_merges(self):
        mshr = MshrFile(2, 4)
        mshr.reserve(req(0x100), 0)
        assert mshr.reserve(req(0x100, core=1), 1) == "merged"
        assert mshr.occupancy == 1
        assert mshr.merges == 1

    def test_entry_exhaustion_stalls(self):
        mshr = MshrFile(num_entries=1, num_targets=8)
        mshr.reserve(req(0x100), 0)
        assert mshr.reserve(req(0x200), 1) == "stall"
        assert mshr.alloc_failures_full_entries == 1

    def test_target_exhaustion_stalls(self):
        mshr = MshrFile(num_entries=4, num_targets=2)
        mshr.reserve(req(0x100), 0)
        mshr.reserve(req(0x100), 1)
        assert mshr.reserve(req(0x100), 2) == "stall"
        assert mshr.merge_failures_full_targets == 1

    def test_free_returns_all_targets(self):
        mshr = MshrFile(2, 4)
        r1, r2, r3 = req(0x100, 0), req(0x100, 1), req(0x100, 2)
        mshr.reserve(r1, 0)
        mshr.reserve(r2, 1)
        mshr.reserve(r3, 2)
        entry = mshr.free(0x100, 10)
        assert [t.core_id for t in entry.targets] == [0, 1, 2]
        assert mshr.occupancy == 0

    def test_free_absent_line_raises(self):
        mshr = MshrFile(2, 4)
        with pytest.raises(SimulationError):
            mshr.free(0x500, 0)

    def test_reserve_after_free_allocates_again(self):
        mshr = MshrFile(1, 2)
        mshr.reserve(req(0x100), 0)
        mshr.free(0x100, 5)
        assert mshr.reserve(req(0x200), 6) == "allocated"


class TestSnapshot:
    def test_pending_lines_reflect_open_entries(self):
        mshr = MshrFile(4, 2)
        mshr.reserve(req(0x100), 0)
        mshr.reserve(req(0x240), 0)
        assert mshr.pending_lines() == {0x100, 0x240}

    def test_snapshot_is_replaced_only_on_allocate_and_free(self):
        mshr = MshrFile(num_entries=2, num_targets=2)
        empty = mshr.pending_lines()
        assert empty == frozenset()
        mshr.reserve(req(0x100), 0)
        allocated = mshr.pending_lines()
        assert allocated == {0x100} and empty == frozenset()
        mshr.reserve(req(0x100), 1)                        # merge
        mshr.reserve(req(0x200), 2)                        # allocate
        two = mshr.pending_lines()
        assert two is not allocated and two == {0x100, 0x200}
        assert mshr.reserve(req(0x100), 3) == "stall"      # targets full
        assert mshr.reserve(req(0x300), 3) == "stall"      # entries full
        assert mshr.pending_lines() is two
        mshr.free(0x100, 4)
        assert mshr.pending_lines() == {0x200}
        assert two == {0x100, 0x200}                       # an old snapshot stays as taken

    def test_merge_keeps_the_snapshot(self):
        mshr = MshrFile(num_entries=2, num_targets=4)
        mshr.reserve(req(0x100), 0)
        snapshot = mshr.pending_lines()
        assert mshr.reserve(req(0x100, core=1), 1) == "merged"
        assert mshr.pending_lines() is snapshot
        assert isinstance(snapshot, frozenset)


class TestOccupancyAccounting:
    def test_average_occupancy_simple(self):
        mshr = MshrFile(2, 2)
        mshr.reserve(req(0x100), 0)      # occupied 1 from cycle 0
        mshr.free(0x100, 50)             # ... until 50
        assert mshr.average_occupancy(100) == pytest.approx(0.5)
        assert mshr.utilization(100) == pytest.approx(0.25)

    def test_peak_occupancy(self):
        mshr = MshrFile(3, 1)
        mshr.reserve(req(0x100), 0)
        mshr.reserve(req(0x200), 0)
        mshr.free(0x100, 10)
        assert mshr.peak_occupancy == 2

    def test_time_must_be_monotonic(self):
        mshr = MshrFile(2, 2)
        mshr.reserve(req(0x100), 10)
        with pytest.raises(SimulationError):
            mshr.free(0x100, 5)

    def test_zero_final_cycle(self):
        assert MshrFile(2, 2).average_occupancy(0) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_property_mshr_never_exceeds_dimensions(line_ids, num_entries, num_targets):
    """Reservations never overflow either MSHR dimension, whatever the pattern."""

    mshr = MshrFile(num_entries, num_targets)
    cycle = 0
    for line_id in line_ids:
        cycle += 1
        outcome = mshr.reserve(req(line_id * 64), cycle)
        assert outcome in ("allocated", "merged", "stall")
        assert mshr.occupancy <= num_entries
        entry = mshr.lookup(line_id * 64)
        if entry is not None:
            assert entry.num_targets <= num_targets
        # Randomly free a line occasionally to keep the file moving.
        if outcome == "stall" and mshr.occupancy:
            some_line = next(iter(mshr.pending_lines()))
            mshr.free(some_line, cycle)
