"""A bounded FIFO used for every hardware queue in the model.

The request queue, response queue, ``hit_buffer`` and ``sent_reqs`` structures
of the paper are all bounded FIFOs; modelling them with one class keeps
capacity accounting uniform.  The FIFO keeps no occupancy statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class BoundedFifo(Generic[T]):
    """A FIFO with a fixed capacity.

    ``push`` returns ``False`` instead of raising when the queue is full so
    hardware back-pressure can be modelled without exceptions in the hot path.
    The per-cycle LLC pipeline works on :attr:`items` directly and checks
    :attr:`capacity` itself before appending.
    """

    __slots__ = ("_capacity", "items")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"FIFO capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        #: The queued elements, oldest first.
        self.items: deque[T] = deque()

    # -- capacity -----------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    # -- mutation -----------------------------------------------------------------
    def push(self, item: T) -> bool:
        """Append ``item``; returns ``False`` (and drops nothing) when full."""

        items = self.items
        if len(items) >= self._capacity:
            return False
        items.append(item)
        return True

    def pop_index(self, index: int) -> T:
        """Remove and return the element at ``index`` (0 = oldest).

        Arbiters that reorder requests (balanced / MSHR-aware policies) select
        an arbitrary queue element; a ``deque`` rotation keeps this O(n) with a
        very small constant, which is fine for the 12-entry request queues of
        the paper's configuration.
        """

        items = self.items
        if index < 0 or index >= len(items):
            raise IndexError(f"pop_index({index}) on FIFO of length {len(items)}")
        if index == 0:
            return items.popleft()
        items.rotate(-index)
        item = items.popleft()
        items.rotate(index)
        return item

    def peek(self, index: int = 0) -> T:
        return self.items[index]

    # -- inspection ---------------------------------------------------------------
    def __iter__(self) -> Iterator[T]:
        return iter(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedFifo({list(self.items)!r}, capacity={self._capacity})"
