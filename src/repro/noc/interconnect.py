"""Fixed-latency crossbar between cores and LLC slices.

The interconnect models (1) a fixed request latency from any core to any LLC
slice, (2) a per-slice injection port of limited width with a small staging
queue in front of the slice's request queue (the source of back-pressure that
stalls cores), and (3) the response path back to the cores.  Responses are
delivered with a fixed latency and are never back-pressured, matching the
paper's assumption that DRAM returns are forwarded straight to the requesting
cores (Fig 4, step 4').

A slice's load only drops when :meth:`Interconnect.tick` moves one of its
staged requests into the slice, so a core rejected by that slice cannot
succeed before then: the interconnect remembers the rejected cores per slice
and nudges them at that moment (see ``VectorCore.nudge``).  A nudge is not a
wake: a lower-id core can refill the slice before a nudged core's turn in the
same cycle, so the system loop asks :meth:`Interconnect.admits_any` at that
turn and ticks the core only if a nudging slice still has room.

Every request takes the same latency and the clock never goes back, so
requests reach their staging queues in the order they were sent: a plain FIFO
carries them, and :meth:`Interconnect.send_request` raises
:class:`~repro.common.errors.SimulationError` for a cycle earlier than the
last accepted send.  Responses can carry an extra delay, so they travel in a
heap ordered by (delivery cycle, send order).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from repro.common.address import AddressMap
from repro.common.errors import SimulationError
from repro.common.types import MemRequest, MemResponse
from repro.config.system import NoCConfig

#: Depth of the per-slice staging queue between the crossbar and the slice's
#: request queue.  Small by design: once the slice queue and this staging queue
#: are full, cores see back-pressure.
STAGING_DEPTH = 4


class Interconnect:
    """Crossbar connecting ``num_cores`` cores to ``num_slices`` LLC slices."""

    def __init__(
        self,
        config: NoCConfig,
        address_map: AddressMap,
        num_cores: int,
        num_slices: int,
    ) -> None:
        config.validate()
        self.config = config
        self.num_cores = num_cores
        self.num_slices = num_slices

        self._req_in_flight: deque[tuple[int, int, MemRequest]] = deque()  # (cycle, slice, req)
        self._resp_in_flight: list[tuple[int, int, MemResponse]] = []     # (cycle, seq, resp)
        # The slice of an address (``AddressMap.slice_of``), computed inline.
        self._line_shift = (address_map.line_size - 1).bit_length()
        self._slice_mask = address_map.num_slices - 1
        self._request_latency = config.request_latency
        self._port_width = config.slice_port_width
        #: Cycle of the last accepted request; requests must not go back in time.
        self._last_send_cycle = 0
        self._staging: list[deque[MemRequest]] = [deque() for _ in range(num_slices)]
        # Requests in transit or staged per slice, used for O(1) back-pressure checks.
        self._slice_load: list[int] = [0] * num_slices
        self._slice_load_limit = STAGING_DEPTH + config.request_latency
        # Ids of the cores rejected per slice since its load last dropped.
        self._rejected: list[list[int]] = [[] for _ in range(num_slices)]
        self._seq = 0

        # statistics
        self.requests_sent = 0
        self.responses_sent = 0
        #: Rejected ``send_request`` *attempts*.  Parked cores make no attempts,
        #: so this is not a count of back-pressured cycles (nor part of ``SimResult``).
        self.backpressure_rejects = 0

    # -- request path ------------------------------------------------------------------
    def send_request(self, req: MemRequest, cycle: int) -> bool:
        """Inject a request; returns False under back-pressure."""

        if cycle < self._last_send_cycle:
            raise SimulationError(
                f"request sent at cycle {cycle}, after one at cycle {self._last_send_cycle}"
            )
        slice_id = (req.addr >> self._line_shift) & self._slice_mask
        if not self.has_room(slice_id):
            self.backpressure_rejects += 1
            self._reject(slice_id, req.core_id)
            return False
        self._last_send_cycle = cycle
        self._req_in_flight.append((cycle + self._request_latency, slice_id, req))
        self._slice_load[slice_id] += 1
        self.requests_sent += 1
        return True

    def has_room(self, slice_id: int) -> bool:
        """The load predicate of injection: :meth:`send_request` succeeds iff true."""

        return self._slice_load[slice_id] < self._slice_load_limit

    def admits_any(self, core_id: int, slice_ids: list[int]) -> bool:
        """True if one of ``slice_ids`` has room for a request now.

        Otherwise ``core_id`` is registered again as rejected by each of them,
        exactly as failed :meth:`send_request` calls would register it, so the
        next drain of any of them nudges it again.
        """

        for slice_id in slice_ids:
            if self.has_room(slice_id):
                return True
        for slice_id in slice_ids:
            self._reject(slice_id, core_id)
        return False

    def _reject(self, slice_id: int, core_id: int) -> None:
        rejected = self._rejected[slice_id]
        if core_id not in rejected:
            rejected.append(core_id)

    # -- response path ------------------------------------------------------------------
    def send_response(self, resp: MemResponse, cycle: int, extra_delay: int = 0) -> None:
        """Send a response back to its core after the NoC response latency."""

        deliver = cycle + self.config.response_latency + extra_delay
        heapq.heappush(self._resp_in_flight, (deliver, self._seq, resp))
        self._seq += 1
        self.responses_sent += 1

    # -- per-cycle advance ----------------------------------------------------------------
    def tick(
        self,
        cycle: int,
        slice_sinks: list[Callable[[MemRequest, int], bool]],
        core_sinks: list[Callable[[MemResponse, int], None]],
        core_nudges: list[Callable[[int], None]],
    ) -> None:
        """Deliver due requests into slices and due responses into cores.

        ``slice_sinks[i]`` pushes a request into slice ``i``'s request queue and
        returns False when that queue is full (the request then waits in the
        staging queue); ``core_sinks[i]`` delivers a response to core ``i``;
        ``core_nudges[i](j)`` tells core ``i`` that slice ``j``, which rejected
        it, has freed injection space.
        """

        # Requests whose transit delay elapsed move into the staging queues.
        in_flight = self._req_in_flight
        all_staging = self._staging
        while in_flight and in_flight[0][0] <= cycle:
            _, slice_id, req = in_flight.popleft()
            all_staging[slice_id].append(req)

        # Each slice port accepts a limited number of staged requests per cycle.
        port_width = self._port_width
        for slice_id, staging in enumerate(all_staging):
            if not staging:
                continue
            accepted = 0
            sink = slice_sinks[slice_id]
            while staging and accepted < port_width:
                req = staging[0]
                if not sink(req, cycle):
                    break
                staging.popleft()
                self._slice_load[slice_id] -= 1
                accepted += 1
            rejected = self._rejected[slice_id]
            if accepted and rejected:
                for core_id in rejected:
                    core_nudges[core_id](slice_id)
                rejected.clear()

        # Responses are never back-pressured.
        while self._resp_in_flight and self._resp_in_flight[0][0] <= cycle:
            _, _, resp = heapq.heappop(self._resp_in_flight)
            core_sinks[resp.core_id](resp, cycle)

    # -- engine support ----------------------------------------------------------------------
    @property
    def in_flight_requests(self) -> int:
        return len(self._req_in_flight)

    @property
    def in_flight_responses(self) -> int:
        return len(self._resp_in_flight)

    @property
    def staged_requests(self) -> int:
        return sum(len(staging) for staging in self._staging)

    def has_work(self) -> bool:
        return bool(self._req_in_flight or self._resp_in_flight) or any(self._staging)
