"""One LLC slice: the pipeline of Fig 4.

Per cycle the slice performs

* at most one *request lookup* (steps 1-2): the arbiter selects a request from
  the request queue, the tag array is probed and the request either completes
  as a hit or proceeds towards the MSHR;
* at most one *MSHR action* (step 3): a previously looked-up miss reserves an
  MSHR entry (merge or allocate).  A failed reservation stalls the whole
  request path -- even hits can no longer be processed -- until a resource
  frees, and every such cycle is counted as a cache-stall cycle (the t_cs
  signal of Table 3);
* at most one *response dequeue* (step 5): a fill from the response queue is
  written into the cache storage.  The request lookup and the response dequeue
  contend for the same storage port, resolved by the request-response
  arbitration policy of §3.3 (or by COBRRA's override).

DRAM returns (step 4/4') are pushed in by the simulator via
:meth:`LLCSlice.on_dram_fill`: the MSHR entry is freed, every merged requester
receives its data directly (it does not wait behind the response queue), and a
copy enters the response queue for the later storage fill.

A stalled slice with nothing else to do *parks* (see :attr:`LLCSlice.parked`):
only a DRAM fill can change the MSHR state its reservation waits on.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.arbiter.base import BaseArbiter
from repro.common.address import AddressMap
from repro.common.fifo import BoundedFifo
from repro.common.types import AccessType, MemRequest, MemResponse
from repro.config.system import L2Config, ReqRespArbitration
from repro.llc.mshr import MshrFile
from repro.llc.storage import CacheStorage

#: Maximum lookups in flight between tag probe and MSHR action; this bounds how
#: far the request path can run ahead of a stalled MSHR stage.
_PIPELINE_DEPTH_SLACK = 2

#: Module-level copy: cheaper to read than the enum class attribute.
_WRITE = AccessType.WRITE

ResponseSink = Callable[[MemResponse, int, int], None]
#: ``(line_addr, is_write, payload, cycle) -> accepted``; the slice passes its id
#: as the payload, which DRAM hands back with the completion.
DramSink = Callable[[int, bool, int, int], bool]


class LLCSlice:
    """One slice of the shared L2 (Fig 4)."""

    def __init__(
        self,
        slice_id: int,
        config: L2Config,
        address_map: AddressMap,
        arbiter: BaseArbiter,
        response_sink: ResponseSink,
        dram_sink: DramSink,
    ) -> None:
        config.validate()
        self.slice_id = slice_id
        self.config = config
        self.address_map = address_map
        self.arbiter = arbiter
        self.response_sink = response_sink
        self.dram_sink = dram_sink

        sets = config.sets_per_slice
        self.storage = CacheStorage(
            num_sets=sets,
            associativity=config.associativity,
            index_fn=address_map.set_index_fn(sets),
        )
        self.mshr = MshrFile(config.mshr_num_entries, config.mshr_num_targets)
        self.request_queue: BoundedFifo[MemRequest] = BoundedFifo(config.req_q_size)
        self.response_queue: BoundedFifo[tuple[int, bool]] = BoundedFifo(config.resp_q_size)

        self._mshr_stage: deque[tuple[int, MemRequest]] = deque()
        self._pending_fills: deque[tuple[int, bool]] = deque()
        self._dram_backlog: deque[tuple[int, bool]] = deque()   # (line_addr, is_write)
        self._request_capacity = self.request_queue.capacity
        self._response_capacity = self.response_queue.capacity
        self._line_size = config.line_size
        self._response_first = (
            config.req_resp_arbitration == ReqRespArbitration.RESPONSE_FIRST
        )
        self._hit_response_latency = config.hit_latency + config.data_latency
        self._miss_pipeline_latency = config.hit_latency + config.mshr_latency
        self._mshr_pipeline_limit = self._miss_pipeline_latency + _PIPELINE_DEPTH_SLACK
        self.stalled = False
        #: Set after a tick whose only effect was a failed MSHR reservation with
        #: no response, pending fill or DRAM backlog to serve: until
        #: :meth:`on_dram_fill` frees MSHR state the next tick would do the
        #: same, so :class:`~repro.llc.llc.SlicedLLC` charges ``busy_cycles`` and
        #: ``stall_cycles`` in its place.
        self.parked = False

        # -- statistics ---------------------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_allocations = 0
        self.stall_cycles = 0
        self.requests_accepted = 0
        self.requests_rejected = 0
        self.dram_reads_issued = 0
        self.dram_writes_issued = 0
        self.fills_written = 0
        self.writebacks = 0
        self.busy_cycles = 0
        self.last_activity_cycle = 0

    # ------------------------------------------------------------------------------
    # external interfaces
    # ------------------------------------------------------------------------------
    def accept_request(self, req: MemRequest, cycle: int) -> bool:
        """NoC sink: push a request into the request queue (False when full).

        A rejected request stays staged in the NoC untouched; ``line_addr``
        and ``arrive_cycle`` are stamped by the call that accepts it.
        """

        requests = self.request_queue.items
        if len(requests) >= self._request_capacity:
            self.requests_rejected += 1
            return False
        addr = req.addr
        req.line_addr = addr - addr % self._line_size
        req.arrive_cycle = cycle
        requests.append(req)
        self.requests_accepted += 1
        return True

    def on_dram_fill(self, line_addr: int, cycle: int) -> None:
        """A DRAM read for ``line_addr`` returned (Fig 4, steps 4 and 4')."""

        self.parked = False
        entry = self.mshr.free(line_addr, cycle)
        dirty = False
        for target in entry.targets:
            if target.rw == _WRITE:
                dirty = True
            self.response_sink(
                MemResponse(
                    req_id=target.req_id,
                    core_id=target.core_id,
                    tb_id=target.tb_id,
                    line_addr=line_addr,
                    rw=target.rw,
                    complete_cycle=cycle,
                    served_by="dram",
                ),
                cycle,
                0,
            )
        fill = (line_addr, dirty)
        if not self.response_queue.push(fill):
            self._pending_fills.append(fill)
        self.last_activity_cycle = cycle

    # ------------------------------------------------------------------------------
    # per-cycle pipeline
    # ------------------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """One cycle of Fig 4: DRAM backlog and pending fills, the MSHR action,
        then the storage port's fill or request lookup.

        This runs for every slice on every cycle, so the numbered stages are
        written out over local variables rather than split into helpers.
        """

        request_queue = self.request_queue
        requests = request_queue.items
        responses = self.response_queue.items
        mshr_stage = self._mshr_stage
        pending_fills = self._pending_fills
        backlog = self._dram_backlog
        stalled = self.stalled
        if not (requests or responses or mshr_stage or pending_fills or backlog or stalled):
            return
        self.busy_cycles += 1

        # 1. DRAM backlog and pending fills.
        while backlog:
            line_addr, is_write = backlog[0]
            if not self.dram_sink(line_addr, is_write, self.slice_id, cycle):
                break
            backlog.popleft()
            if is_write:
                self.dram_writes_issued += 1
            else:
                self.dram_reads_issued += 1
        response_capacity = self._response_capacity
        while pending_fills and len(responses) < response_capacity:
            responses.append(pending_fills.popleft())

        # 2. MSHR action.
        if mshr_stage:
            due, req = mshr_stage[0]
            if due <= cycle or stalled:
                outcome = self.mshr.reserve(req, cycle)
                if outcome == "stall":
                    stalled = True
                    self.stall_cycles += 1
                else:
                    mshr_stage.popleft()
                    stalled = False
                    self.last_activity_cycle = cycle
                    if outcome == "merged":
                        self.mshr_merges += 1
                    else:
                        self.mshr_allocations += 1
                        self._send_dram(req.line_addr, False, cycle)
        else:
            stalled = False
        self.stalled = stalled

        # 3. Storage-port arbitration: a response fill or a request lookup.
        serve_response = False
        if responses:
            override = self.arbiter.arbitrate_port(
                len(responses), response_capacity, len(requests)
            )
            if override is not None:
                serve_response = override
            elif self._response_first:
                serve_response = True
            else:
                # REQUEST_FIRST: responses only get the port when the response
                # queue is full or there is no request to serve.
                serve_response = len(responses) >= response_capacity or not requests or stalled

        # 4. The port's winner.
        if serve_response:
            line_addr, dirty = responses.popleft()
            self.fills_written += 1
            self.last_activity_cycle = cycle
            victim = self.storage.fill(line_addr, dirty)
            if victim is not None and victim.dirty:
                self.writebacks += 1
                self._send_dram(victim.line_addr, True, cycle)
        elif stalled:
            if not (responses or pending_fills or backlog):
                self.parked = True
        elif requests and len(mshr_stage) < self._mshr_pipeline_limit:
            # A lookup, unless the miss pipeline is backed up.
            arbiter = self.arbiter
            index = arbiter.select(request_queue, self.mshr.pending_lines(), cycle)
            req = requests.popleft() if index == 0 else request_queue.pop_index(index)
            arbiter.notify_selected(req, cycle)
            self.last_activity_cycle = cycle
            line_addr = req.line_addr
            if self.storage.lookup(line_addr):
                self.hits += 1
                arbiter.notify_hit(line_addr, cycle)
                if req.rw == _WRITE:
                    self.storage.mark_dirty(line_addr)
                latency = self._hit_response_latency
                self.response_sink(
                    MemResponse(
                        req.req_id, req.core_id, req.tb_id, line_addr, req.rw,
                        cycle + latency, "l2",
                    ),
                    cycle,
                    latency,
                )
            else:
                self.misses += 1
                mshr_stage.append((cycle + self._miss_pipeline_latency, req))

    # -- DRAM traffic -------------------------------------------------------------------------
    def _send_dram(self, line_addr: int, is_write: bool, cycle: int) -> None:
        """Issue a DRAM access, or queue it behind the backlog (kept in order)."""

        if self._dram_backlog or not self.dram_sink(line_addr, is_write, self.slice_id, cycle):
            self._dram_backlog.append((line_addr, is_write))
        elif is_write:
            self.dram_writes_issued += 1
        else:
            self.dram_reads_issued += 1

    # ------------------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return self.hits + self.misses

    @property
    def outstanding_work(self) -> bool:
        """True while any request is somewhere inside the slice or its MSHR."""

        return bool(
            self.request_queue
            or self.response_queue
            or self._mshr_stage
            or self._pending_fills
            or self._dram_backlog
            or self.mshr.occupancy
            or self.stalled
        )

    def hit_rate(self) -> float:
        total = self.total_requests
        return self.hits / total if total else 0.0

    def mshr_hit_rate(self) -> float:
        """Requests merged into an existing entry, per cache miss (§6.3.3)."""

        resolved_misses = self.mshr_merges + self.mshr_allocations
        return self.mshr_merges / resolved_misses if resolved_misses else 0.0
