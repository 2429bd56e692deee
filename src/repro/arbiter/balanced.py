"""Balanced arbitration ("B", §4.1): serve the core with the smallest progress."""

from __future__ import annotations

from typing import AbstractSet

from repro.arbiter.base import BaseArbiter
from repro.common.fifo import BoundedFifo
from repro.common.types import MemRequest


class BalancedArbiter(BaseArbiter):
    """Pick the queued request whose requester has the smallest progress counter.

    Requests served earlier consume the limited MSHR / DRAM resources, so an
    FCFS arbiter lets fast cores starve slow ones.  The balanced policy equalises
    service across cores; ties are broken in FIFO order.
    """

    name = "balanced"

    def select(
        self, queue: BoundedFifo[MemRequest], mshr_lines: AbstractSet[int], cycle: int
    ) -> int:
        counters = self.progress_counters
        best_index = 0
        best_count = counters[queue.peek(0).core_id]
        for i, req in enumerate(queue):
            count = counters[req.core_id]
            if count < best_count:
                best_count = count
                best_index = i
        return best_index
