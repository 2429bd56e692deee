"""MSHR-aware arbitration ("MA") and its balanced variant ("BMA"), §4.3.

Priority rules (highest first):

1. requests speculated to be cache hits (their line is in the ``hit_buffer``);
2. requests speculated to be MSHR hits (their line appears in the combined
   MSHR snapshot + unexpired ``sent_reqs`` view);
3. everything else.

Ties are broken FIFO for MA and by the balanced progress counters for BMA.
Prioritising hits and MSHR hits lets more requests enter the cache before an
MSHR-reservation stall and turns would-be misses into merges whose latency
overlaps the DRAM access already in flight.

One lookup costs one pass over the request queue with at most three dict or
set membership tests per request: the hit buffer and ``sent_reqs`` keep
line -> count maps up to date as entries enter and leave them, and the MSHR
snapshot is rebuilt only on allocate and free.
"""

from __future__ import annotations

from typing import AbstractSet

from repro.arbiter.base import BaseArbiter
from repro.arbiter.speculation import HitBuffer, SentReqs
from repro.common.fifo import BoundedFifo
from repro.common.types import MemRequest
from repro.config.policies import MshrAwareParams


class MshrAwareArbiter(BaseArbiter):
    """"MA": speculative hit / MSHR-hit prioritisation with FIFO tie-breaking."""

    name = "ma"
    balanced_tiebreak = False

    def __init__(
        self,
        num_cores: int,
        params: MshrAwareParams,
        hit_latency: int,
        mshr_latency: int,
    ) -> None:
        super().__init__(num_cores)
        params.validate()
        self.params = params
        self.hit_buffer = HitBuffer(params.hit_buffer_size)
        self.sent_reqs = SentReqs(
            capacity=params.sent_reqs_size,
            lifetime=max(1, hit_latency + mshr_latency),
        )
        #: The request the last ``select`` chose and its speculation rank
        #: (0 hit, 1 MSHR hit, 2 other), consumed by ``notify_selected``.
        self.speculated_req: MemRequest | None = None
        self.speculated_rank = 2

    # -- selection -------------------------------------------------------------------
    def _speculate(self, line_addr: int, mshr_lines: AbstractSet[int]) -> int:
        """Speculation rank of a request for ``line_addr``: 0 hit, 1 MSHR hit, 2 other."""

        if line_addr in self.hit_buffer.counts:
            return 0
        if line_addr in mshr_lines or line_addr in self.sent_reqs.pending:
            return 1
        return 2

    def select(
        self, queue: BoundedFifo[MemRequest], mshr_lines: AbstractSet[int], cycle: int
    ) -> int:
        # Step 1 of Fig 5: combine the real-time MSHR snapshot with the
        # not-yet-visible sent requests (masked by their speculated-hit bits).
        self.sent_reqs.expire(cycle)
        if len(queue) == 1:
            req = queue.peek(0)
            self.speculated_req = req
            self.speculated_rank = self._speculate(req.line_addr, mshr_lines)
            return 0

        # The same tests as ``_speculate``, inlined: this loop is the hot path.
        hits = self.hit_buffer.counts
        pending = self.sent_reqs.pending
        balanced = self.balanced_tiebreak
        counters = self.progress_counters
        best_index = 0
        best_rank = 3
        best_counter = 0
        for i, req in enumerate(queue):
            line = req.line_addr
            if line in hits:
                rank = 0
            elif line in mshr_lines or line in pending:
                rank = 1
            else:
                rank = 2
            if rank < best_rank:
                best_rank = rank
                best_index = i
                if balanced:
                    best_counter = counters[req.core_id]
                elif rank == 0:
                    break  # FIFO tie-break: the first rank-0 request wins
            elif rank == best_rank and balanced:
                counter = counters[req.core_id]
                if counter < best_counter:
                    best_counter = counter
                    best_index = i
        self.speculated_req = queue.peek(best_index)
        self.speculated_rank = best_rank
        return best_index

    def notify_selected(self, req: MemRequest, cycle: int) -> None:
        self.progress_counters[req.core_id] += 1
        stats = self.stats
        stats.selections += 1
        if req is self.speculated_req:
            rank = self.speculated_rank
            self.speculated_req = None
        else:
            # Selected without a ``select`` ranking it (the slice always calls
            # ``select``; a driver of the bare arbiter may not): speculate
            # from the hit buffer and ``sent_reqs`` alone.
            self.sent_reqs.expire(cycle)
            rank = self._speculate(req.line_addr, frozenset())
        if rank == 0:
            stats.predicted_hits += 1
        elif rank == 1:
            stats.predicted_mshr_hits += 1
        # Step 4 of Fig 5: the chosen request enters sent_reqs with its
        # speculated-hit bit.
        self.sent_reqs.record(req.line_addr, rank == 0, cycle)

    # -- feedback ---------------------------------------------------------------------
    def notify_hit(self, line_addr: int, cycle: int) -> None:
        self.hit_buffer.record_hit(line_addr)


class BalancedMshrAwareArbiter(MshrAwareArbiter):
    """"BMA": MA with balanced-progress tie-breaking (the paper's final policy)."""

    name = "bma"
    balanced_tiebreak = True
