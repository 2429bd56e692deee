"""Tests for the hit_buffer and sent_reqs speculation structures (§4.3.1)."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.arbiter.speculation import HitBuffer, SentReqs


class TestHitBuffer:
    def test_contains_after_record(self):
        buf = HitBuffer(4)
        buf.record_hit(0x100)
        assert buf.contains(0x100)
        assert not buf.contains(0x200)

    def test_fifo_eviction_when_full(self):
        buf = HitBuffer(2)
        buf.record_hit(0x100)
        buf.record_hit(0x140)
        buf.record_hit(0x180)
        assert not buf.contains(0x100)
        assert buf.contains(0x140)
        assert buf.contains(0x180)
        assert len(buf) == 2

    def test_duplicate_entries_counted(self):
        buf = HitBuffer(3)
        buf.record_hit(0x100)
        buf.record_hit(0x100)
        buf.record_hit(0x140)
        buf.record_hit(0x180)     # evicts the oldest 0x100, the second copy remains
        assert buf.contains(0x100)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HitBuffer(0)

    def test_insertions_counter(self):
        buf = HitBuffer(2)
        for _ in range(5):
            buf.record_hit(0x40)
        assert buf.insertions == 5


def pending_at(sent: SentReqs, cycle: int) -> set[int]:
    sent.expire(cycle)
    return set(sent.pending)


class TestSentReqs:
    def test_pending_lines_until_expiry(self):
        sent = SentReqs(capacity=4, lifetime=8)
        sent.record(0x100, speculated_hit=False, cycle=0)
        assert pending_at(sent, cycle=4) == {0x100}
        assert pending_at(sent, cycle=8) == set()

    def test_speculated_hits_are_masked_out(self):
        """Entries marked as speculated cache hits never count towards MSHR view."""

        sent = SentReqs(capacity=4, lifetime=8)
        sent.record(0x100, speculated_hit=True, cycle=0)
        sent.record(0x140, speculated_hit=False, cycle=0)
        assert pending_at(sent, cycle=2) == {0x140}

    def test_capacity_drops_oldest(self):
        sent = SentReqs(capacity=2, lifetime=100)
        sent.record(0x100, False, 0)
        sent.record(0x140, False, 1)
        sent.record(0x180, False, 2)
        assert pending_at(sent, 3) == {0x140, 0x180}

    def test_expire_is_idempotent(self):
        sent = SentReqs(capacity=4, lifetime=5)
        sent.record(0x100, False, 0)
        sent.expire(10)
        sent.expire(10)
        assert len(sent) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SentReqs(0, 5)
        with pytest.raises(ValueError):
            SentReqs(4, 0)


#: (cycle advance, line id, speculated hit, expire before recording)
_SENT_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
        st.booleans(),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_SENT_OPS,
    capacity=st.integers(min_value=1, max_value=6),
    lifetime=st.integers(min_value=1, max_value=10),
)
def test_property_sent_reqs_pending_matches_its_fifo(ops, capacity, lifetime):
    """``pending`` counts exactly the FIFO entries without the speculated-hit bit.

    Few distinct lines give duplicates, a small capacity forces evictions of
    live entries (records without a prior expire), and cycles that stand
    still or jump past ``lifetime`` mix both kinds of removal.
    """

    sent = SentReqs(capacity, lifetime)
    cycle = 0
    for advance, line_id, speculated_hit, expire_first in ops:
        cycle += advance
        if expire_first:
            sent.expire(cycle)
        sent.record(line_id * 64, speculated_hit, cycle)
        fifo = list(sent._fifo)
        assert len(fifo) <= capacity
        expected = dict(Counter(e.line_addr for e in fifo if not e.speculated_hit))
        assert sent.pending == expected
    sent.expire(cycle + lifetime)
    assert len(sent) == 0 and sent.pending == {}


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=5), max_size=80),
    capacity=st.integers(min_value=1, max_value=6),
)
def test_property_hit_buffer_counts_match_its_fifo(lines, capacity):
    buf = HitBuffer(capacity)
    for line_id in lines:
        buf.record_hit(line_id * 64)
        assert buf.counts == dict(Counter(buf._fifo))
