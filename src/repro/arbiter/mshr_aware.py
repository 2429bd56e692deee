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
"""

from __future__ import annotations

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
        self._last_speculation: dict[int, int] = {}

    # -- selection -------------------------------------------------------------------
    def _rank(self, req: MemRequest, mshr_view: set[int]) -> int:
        if self.hit_buffer.contains(req.line_addr):
            return 0
        if req.line_addr in mshr_view:
            return 1
        return 2

    def select(
        self, queue: BoundedFifo[MemRequest], mshr_lines: set[int], cycle: int
    ) -> int:
        # Step 1 of Fig 5: combine the real-time MSHR snapshot with the
        # not-yet-visible sent requests (masked by their speculated-hit bits).
        mshr_view = mshr_lines | self.sent_reqs.pending_mshr_lines(cycle)

        best_index = 0
        best_rank = 3
        best_counter = 0
        counters = self.progress_counters
        for i, req in enumerate(queue):
            rank = self._rank(req, mshr_view)
            if rank < best_rank:
                best_rank = rank
                best_index = i
                best_counter = counters[req.core_id]
                if rank == 0 and not self.balanced_tiebreak:
                    break  # FIFO tie-break: the first rank-0 request wins
            elif rank == best_rank and self.balanced_tiebreak:
                counter = counters[req.core_id]
                if counter < best_counter:
                    best_counter = counter
                    best_index = i
        chosen = queue.peek(best_index)
        self._last_speculation[chosen.req_id] = best_rank
        return best_index

    def notify_selected(self, req: MemRequest, cycle: int) -> None:
        super().notify_selected(req, cycle)
        rank = self._last_speculation.pop(req.req_id, None)
        if rank is None:
            # The request was selected without a prior ``select`` call (e.g. the
            # queue had a single element); recompute the speculation.
            rank = self._rank(req, self.sent_reqs.pending_mshr_lines(cycle))
        speculated_hit = rank == 0
        if speculated_hit:
            self.stats.predicted_hits += 1
        elif rank == 1:
            self.stats.predicted_mshr_hits += 1
        # Step 4 of Fig 5: the chosen request enters sent_reqs with its
        # speculated-hit bit.
        self.sent_reqs.record(req.line_addr, speculated_hit, cycle)

    # -- feedback ---------------------------------------------------------------------
    def notify_hit(self, line_addr: int, cycle: int) -> None:
        self.hit_buffer.record_hit(line_addr)

    def notify_outcome(self, req: MemRequest, was_hit: bool, was_mshr_hit: bool) -> None:
        # Outcome accounting is best-effort: speculation entries are popped on
        # selection, so only track aggregate accuracy via hit buffer contents.
        predicted_hit = self.hit_buffer.contains(req.line_addr)
        if predicted_hit == was_hit:
            self.stats.prediction_correct += 1
        else:
            self.stats.prediction_wrong += 1


class BalancedMshrAwareArbiter(MshrAwareArbiter):
    """"BMA": MA with balanced-progress tie-breaking (the paper's final policy)."""

    name = "bma"
    balanced_tiebreak = True
