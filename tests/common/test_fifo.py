"""Unit tests for the bounded FIFO used by every hardware queue."""

import pytest
from hypothesis import given, strategies as st

from repro.common.fifo import BoundedFifo


def filled(capacity, items):
    fifo = BoundedFifo(capacity)
    for item in items:
        assert fifo.push(item)
    return fifo


class TestBasicOperations:
    def test_new_fifo_is_empty(self):
        fifo = BoundedFifo(4)
        assert len(fifo) == 0
        assert not fifo

    def test_push_and_pop_preserve_fifo_order(self):
        fifo = BoundedFifo(8)
        for i in range(5):
            assert fifo.push(i)
        assert [fifo.pop_index(0) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_push_beyond_capacity_is_rejected(self):
        fifo = BoundedFifo(2)
        assert fifo.push("a")
        assert fifo.push("b")
        assert not fifo.push("c")
        assert len(fifo) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedFifo(0)
        with pytest.raises(ValueError):
            BoundedFifo(-3)

    def test_peek_does_not_remove(self):
        fifo = BoundedFifo(4)
        fifo.push(10)
        fifo.push(20)
        assert fifo.peek() == 10
        assert fifo.peek(1) == 20
        assert len(fifo) == 2


class TestPopIndex:
    def test_pop_index_zero_takes_the_oldest(self):
        fifo = filled(4, [1, 2, 3])
        assert fifo.pop_index(0) == 1
        assert list(fifo) == [2, 3]

    def test_pop_middle_preserves_relative_order(self):
        fifo = filled(8, range(6))
        assert fifo.pop_index(3) == 3
        assert list(fifo) == [0, 1, 2, 4, 5]

    def test_pop_last(self):
        fifo = filled(8, [7, 8, 9])
        assert fifo.pop_index(2) == 9
        assert list(fifo) == [7, 8]

    def test_pop_index_out_of_range(self):
        fifo = BoundedFifo(4)
        fifo.push(1)
        with pytest.raises(IndexError):
            fifo.pop_index(1)
        with pytest.raises(IndexError):
            fifo.pop_index(-1)


@given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=16))
def test_property_fifo_order_and_capacity(items, capacity):
    """Whatever is accepted comes out in insertion order, never above capacity."""

    fifo = BoundedFifo(capacity)
    accepted = []
    for item in items:
        if fifo.push(item):
            accepted.append(item)
        assert len(fifo) <= capacity
    popped = [fifo.pop_index(0) for _ in range(len(fifo))]
    assert popped == accepted[: len(popped)]
    assert len(accepted) == min(len(items), capacity)


@given(
    st.lists(st.integers(), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=19),
)
def test_property_pop_index_removes_exactly_one(items, index):
    fifo = filled(32, items)
    if index >= len(items):
        with pytest.raises(IndexError):
            fifo.pop_index(index)
        return
    value = fifo.pop_index(index)
    assert value == items[index]
    assert list(fifo) == items[:index] + items[index + 1:]
