"""Speculation hardware of the MSHR-aware arbiter (§4.3.1).

Two small structures let the arbiter *predict* the fate of a queued request
before the actual cache / MSHR lookup:

* :class:`HitBuffer` -- a FIFO of recently determined cache hits.  A queued
  request whose line appears here is speculated to be a cache hit.
* :class:`SentReqs` -- a FIFO of requests recently sent into the slice
  pipeline.  A cache-missing request only becomes visible in the MSHR after
  ``hit_latency + mshr_latency`` cycles; until then the MSHR snapshot is stale,
  so sent_reqs supplies the missing information.  Each entry carries the
  speculated-hit bit of the request, which masks it out of the MSHR view
  (speculated hits never allocate MSHR entries).

Both keep a line -> count map of their FIFO next to it, updated on every
insertion and removal, so a membership test is one dict lookup.  A line is a
key exactly while at least one counted entry for it is in the FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


def _discount(counts: dict[int, int], line_addr: int) -> None:
    remaining = counts[line_addr] - 1
    if remaining:
        counts[line_addr] = remaining
    else:
        del counts[line_addr]


class HitBuffer:
    """FIFO of line addresses of recent cache hits, with O(1) membership."""

    __slots__ = ("capacity", "_fifo", "counts", "insertions")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("HitBuffer capacity must be positive")
        self.capacity = capacity
        self._fifo: deque[int] = deque()
        #: line -> copies in the FIFO; the arbiter reads it directly.
        self.counts: dict[int, int] = {}
        self.insertions = 0

    def record_hit(self, line_addr: int) -> None:
        """Record a newly determined cache hit, evicting the oldest if full."""

        fifo = self._fifo
        counts = self.counts
        if len(fifo) >= self.capacity:
            _discount(counts, fifo.popleft())
        fifo.append(line_addr)
        counts[line_addr] = counts.get(line_addr, 0) + 1
        self.insertions += 1

    def contains(self, line_addr: int) -> bool:
        return line_addr in self.counts

    def __len__(self) -> int:
        return len(self._fifo)


@dataclass(slots=True)
class _SentEntry:
    line_addr: int
    speculated_hit: bool
    expiry_cycle: int


class SentReqs:
    """FIFO of recently selected requests, visible until the MSHR catches up."""

    __slots__ = ("capacity", "lifetime", "_fifo", "pending")

    def __init__(self, capacity: int, lifetime: int) -> None:
        if capacity <= 0:
            raise ValueError("SentReqs capacity must be positive")
        if lifetime <= 0:
            raise ValueError("SentReqs lifetime must be positive")
        self.capacity = capacity
        self.lifetime = lifetime
        self._fifo: deque[_SentEntry] = deque()
        #: line -> entries without the speculated-hit bit, i.e. in-flight
        #: requests that will occupy an MSHR entry (step 1 of Fig 5: a cache
        #: hit never reaches the MSHR).  Current as of the last :meth:`expire`.
        self.pending: dict[int, int] = {}

    def record(self, line_addr: int, speculated_hit: bool, cycle: int) -> None:
        """Record a selected request; it stays visible for ``lifetime`` cycles.

        Call :meth:`expire` for ``cycle`` first, so a full FIFO drops an
        expired entry rather than a live one.
        """

        fifo = self._fifo
        if len(fifo) >= self.capacity:
            old = fifo.popleft()
            if not old.speculated_hit:
                _discount(self.pending, old.line_addr)
        fifo.append(_SentEntry(line_addr, speculated_hit, cycle + self.lifetime))
        if not speculated_hit:
            pending = self.pending
            pending[line_addr] = pending.get(line_addr, 0) + 1

    def expire(self, cycle: int) -> None:
        """Drop entries whose MSHR-visibility window has elapsed."""

        fifo = self._fifo
        while fifo and fifo[0].expiry_cycle <= cycle:
            old = fifo.popleft()
            if not old.speculated_hit:
                _discount(self.pending, old.line_addr)

    def __len__(self) -> int:
        return len(self._fifo)
