"""Arbiter interface shared by all request-selection policies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.common.fifo import BoundedFifo
from repro.common.types import MemRequest


@dataclass(slots=True)
class ArbiterStats:
    """Bookkeeping common to all arbiters."""

    selections: int = 0
    predicted_hits: int = 0
    predicted_mshr_hits: int = 0


class BaseArbiter:
    """Base class: FCFS behaviour plus the progress counters of §4.1.

    The progress counters ("cnt0..cnt3" in Fig 4) count requests served per
    requesting core; they are read both by the balanced arbitration policy and
    by the global multi-gear throttling controller (to find the fastest cores).
    """

    #: Paper-facing policy name (overridden by subclasses).
    name = "fcfs"

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.progress_counters: list[int] = [0] * num_cores
        self.stats = ArbiterStats()
        # -- storage-port arbitration grant counters (kept on the base class so
        # conservation -- grants summing to calls -- holds for every policy).
        self.response_priority_grants = 0
        self.request_priority_grants = 0
        self.default_priority_grants = 0
        self.arbitration_calls = 0

    # -- request selection -----------------------------------------------------------
    def select(
        self, queue: BoundedFifo[MemRequest], mshr_lines: AbstractSet[int], cycle: int
    ) -> int:
        """Return the index (0 = oldest) of the request to serve this cycle.

        ``queue`` is guaranteed non-empty by the caller.  ``mshr_lines`` is the
        real-time MSHR snapshot (line addresses with an open entry), an
        immutable set shared with the slice.  Neither may be mutated, and
        neither may be kept past the call: the queue changes on the next pop,
        and the snapshot is replaced on the next MSHR allocation or free.
        """

        return 0

    def notify_selected(self, req: MemRequest, cycle: int) -> None:
        """Called after a request was popped and sent into the slice pipeline."""

        self.progress_counters[req.core_id] += 1
        self.stats.selections += 1

    # -- feedback from the slice pipeline ------------------------------------------------
    def notify_hit(self, line_addr: int, cycle: int) -> None:
        """A cache hit was determined for ``line_addr`` (updates hit history)."""

    # -- request-vs-response arbitration hook ----------------------------------------------
    def wants_response_priority(
        self, resp_queue_len: int, resp_queue_capacity: int, req_queue_len: int
    ) -> bool | None:
        """Override the slice's request/response arbitration.

        Return ``True`` to force serving a response this cycle, ``False`` to
        force serving a request, or ``None`` to use the slice's configured
        default (response-queue-first in the paper's experiments).

        Liveness contract (pinned by the arbiter conformance suite): an
        implementation must never return ``False`` while ``req_queue_len`` is
        zero and ``resp_queue_len`` is positive -- forcing request priority
        with nothing to serve starves the response queue and livelocks the
        uncore drain once the request stream dries up.
        """

        return None

    def arbitrate_port(
        self, resp_queue_len: int, resp_queue_capacity: int, req_queue_len: int
    ) -> bool | None:
        """Storage-port arbitration entry point used by the LLC slice.

        Delegates the decision to :meth:`wants_response_priority` and keeps the
        grant accounting in one place so every policy satisfies
        ``response + request + default grants == arbitration calls``.
        """

        decision = self.wants_response_priority(
            resp_queue_len, resp_queue_capacity, req_queue_len
        )
        self.arbitration_calls += 1
        if decision is True:
            self.response_priority_grants += 1
        elif decision is False:
            self.request_priority_grants += 1
        else:
            self.default_priority_grants += 1
        return decision

    # -- control ------------------------------------------------------------------------------
    def reset_progress(self) -> None:
        """Reset the progress counters (done at the start of each operator)."""

        for i in range(self.num_cores):
            self.progress_counters[i] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_cores={self.num_cores})"
