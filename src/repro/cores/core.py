"""The vector core model (§3.1 and the extended SimpleO3 front-end of §5).

Each core is a 128-element vector unit with a private streaming L1 and
``num_inst_windows`` instruction windows.  A thread block is assigned to a
window; when the window cannot issue (its next entry is still computing, its
data has not returned, or the interconnect back-pressures), the core switches
to another window -- the runtime scheduling mechanism the paper models.

Throttling controllers limit ``max_running_blocks``: windows beyond that count
keep their in-flight requests but may not issue new work, which shrinks the
core's active working set and its memory-request rate.

A core whose tick changed nothing but a stall counter *parks*: its next tick
would reach the same outcome, so the system loop charges that counter directly
instead of ticking it (see :attr:`VectorCore.parked`).  A core parked on
compute knows when that outcome changes -- its earliest
``compute_ready_cycle`` -- and is ticked again from that cycle on
(:attr:`VectorCore.wake_cycle`).  A response wakes a parked core only when it
frees window depth or drains a block, and a slice draining only *nudges* the
cores it rejected (:meth:`VectorCore.nudge`): the system loop ticks such a
core only if that slice still has room at the core's turn.

Within a tick, the scan that retires drained blocks, refills a window and
lists the running windows runs only after an event that can change its
outcome (see :attr:`VectorCore.rescan`); otherwise the last list is reused.
"""

from __future__ import annotations

from typing import Callable

from repro.common.types import AccessType, MemRequest, MemResponse, next_request_id
from repro.config.system import CoreConfig
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.cores.window import InstructionWindow

RequestSink = Callable[[MemRequest, int], bool]

# Module-level copies: reading a member off the enum class costs far more than
# a global lookup, and these compares run on every issue and response.
_READ = AccessType.READ
_WRITE = AccessType.WRITE


class VectorCore:
    """One vector core with instruction windows and a private L1."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        l1: L1Cache,
        request_sink: RequestSink,
        scheduler: ThreadBlockScheduler,
    ) -> None:
        config.validate()
        self.core_id = core_id
        self.config = config
        self.l1 = l1
        self.request_sink = request_sink
        self.scheduler = scheduler
        self._issue_width = config.issue_width
        # The L1's geometry, for the probe in ``tick`` and the fill in ``receive``.
        self._l1_shift = l1.line_shift
        self._l1_mask = l1.set_mask
        self._l1_num_sets = l1.storage.num_sets
        self._l1_ways = l1.storage.associativity
        self._l1_sets = l1.storage.sets

        self.windows = [
            InstructionWindow(window_id=i, depth=config.inst_window_depth)
            for i in range(config.num_inst_windows)
        ]
        #: Maximum number of windows allowed to issue (set by throttling).
        self.max_running_blocks = config.num_inst_windows
        #: Set by the global multi-gear controller; read by the in-core controller.
        self.throttled = False
        self._rr_pointer = 0
        self._req_window: dict[int, int] = {}
        #: The block scan (retire, refill, running list) runs only while this
        #: is set.  Raised at construction, by a refill, by a change of
        #: ``max_running_blocks``, by a response that drains a block and by an
        #: issue that drains one locally (the last entry an L1 hit or a compute
        #: bubble, nothing outstanding); a scan that changes nothing lowers it.
        self.rescan = True
        #: The running windows the last block scan listed.
        self._running: list[InstructionWindow] = []
        #: Set after a tick that only charged ``stat_mem_stall_cycles`` (or
        #: ``stat_idle_cycles`` when ``parked_idle``, or ``stat_compute_cycles``
        #: when ``wake_cycle`` is set): until a wake event the next tick would do
        #: the same, so the system loop charges the counter in its place.  Every
        #: running window of a parked core is then computing, depth-full,
        #: draining or back-pressured, and none of those probes the L1.  Cleared
        #: by :meth:`wake`, which :meth:`receive` calls only for a response
        #: that frees window depth or drains a block, and
        #: :meth:`set_max_running_blocks` only when the limit changes.
        self.parked = False
        self.parked_idle = False
        #: Compute park only: the earliest ``compute_ready_cycle`` of the
        #: windows that returned "compute", from which the system loop ticks the
        #: core again; 0 when the core is not parked on compute.
        self.wake_cycle = 0
        #: Parked core only: the slices that rejected it and have since freed
        #: injection space (see :meth:`nudge`).  The system loop checks at this
        #: core's turn whether one of them still has room.
        self.nudges: list[int] = []

        # -- statistics (cumulative; controllers take period deltas) --------------------
        self.stat_issued_requests = 0
        self.stat_l1_hits = 0
        self.stat_mem_stall_cycles = 0     # C_mem: all running blocks wait on memory
        self.stat_compute_cycles = 0       # cycles blocked only by compute
        self.stat_idle_cycles = 0          # C_idle: no thread block available to run
        self.stat_active_cycles = 0        # cycles with at least one issue
        self.stat_completed_blocks = 0
        #: Back-pressured injection *attempts*; a parked core makes none, so this
        #: is not a count of stalled cycles (and is not part of ``SimResult``).
        self.stat_backpressure_stalls = 0

    # ------------------------------------------------------------------------------
    # throttling interface
    # ------------------------------------------------------------------------------
    def set_max_running_blocks(self, value: int) -> None:
        limit = max(1, min(self.config.num_inst_windows, value))
        if limit != self.max_running_blocks:
            self.max_running_blocks = limit
            # The running list and the refill bound both follow the limit.
            self.rescan = True
            self.wake()

    def adjust_max_running_blocks(self, delta: int) -> None:
        self.set_max_running_blocks(self.max_running_blocks + delta)

    # ------------------------------------------------------------------------------
    # interconnect interface: response delivery and back-pressure wake-ups
    # ------------------------------------------------------------------------------
    def receive(self, resp: MemResponse, cycle: int) -> None:
        window_id = self._req_window.pop(resp.req_id, None)
        if window_id is not None:
            window = self.windows[window_id]
            outstanding = window.outstanding
            if outstanding > 0:
                # Only a freed depth slot or a drained block can change the next
                # tick; any other response leaves a parked core parked.
                tb = window.tb
                if outstanding == 1 and tb is not None and window.cursor >= len(tb.entries):
                    self.rescan = True  # the block drained: the next tick retires it
                    self.wake()
                elif outstanding >= window.depth:
                    self.wake()
                window.outstanding = outstanding - 1
        if resp.rw == _READ:
            # Allocate-on-fill into the L1 (``L1Cache.fill``, written out).
            shift = self._l1_shift
            line = resp.line_addr >> shift
            index = line & self._l1_mask
            if index >= self._l1_num_sets:
                raise self.l1.storage.range_error(index)
            l1_set = self._l1_sets[index]
            line <<= shift
            if line in l1_set:
                l1_set.move_to_end(line)
            else:
                storage = self.l1.storage
                if len(l1_set) >= self._l1_ways:
                    l1_set.popitem(last=False)
                    storage.evictions += 1
                l1_set[line] = False
                storage.fills += 1

    def wake(self) -> None:
        """Unpark: an event may have changed the outcome of the next tick."""

        self.parked = False
        self.wake_cycle = 0
        self.nudges.clear()

    def nudge(self, slice_id: int) -> None:
        """Slice ``slice_id``, which rejected this core, freed injection space.

        A parked core's next tick only retries its back-pressured requests,
        and a slice that has not freed space since rejecting one of them still
        rejects it; so only the nudging slices can let the tick change.
        """

        if self.parked:
            self.nudges.append(slice_id)

    # ------------------------------------------------------------------------------
    # per-cycle execution
    # ------------------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Retire and refill blocks, then issue from the running windows.

        This is the hottest method of the whole simulator, so the block scan,
        the per-window issue attempt and the L1 probe are written out over
        local variables rather than split into helpers.
        """

        # 1. Retire drained thread blocks (all entries issued, all data back)
        #    and refill at most one window, then list the running windows: the
        #    first ``max_running_blocks`` windows that hold a block.  Only the
        #    events that raise ``rescan`` can change any of it.
        changed = False
        if self.rescan:
            windows = self.windows
            limit = self.max_running_blocks
            busy = 0
            free_window: InstructionWindow | None = None
            for window in windows:
                tb = window.tb
                if tb is None:
                    if free_window is None:
                        free_window = window
                elif window.outstanding == 0 and window.cursor >= len(tb.entries):
                    self.stat_completed_blocks += 1
                    self.scheduler.notify_complete(window.release())
                    changed = True
                    if free_window is None:
                        free_window = window
                else:
                    busy += 1
            # The global scheduler hands out one thread block per core per
            # cycle, striping consecutive blocks across cores the way a GPU CTA
            # dispatcher does.  Once it runs dry it stays dry.
            if free_window is not None and busy < limit:
                block = self.scheduler.next_block(self.core_id)
                if block is not None:
                    free_window.assign(block, cycle)
                    changed = True
            running: list[InstructionWindow] = []
            for window in windows:
                if window.tb is not None:
                    running.append(window)
                    if len(running) >= limit:
                        break
            self._running = running
            # A retire or a refill may enable another one next cycle.
            self.rescan = changed
        else:
            running = self._running
        if not running:
            self.stat_idle_cycles += 1
            if not changed:
                self.parked = True
                self.parked_idle = True
            return

        # 2. Round-robin issue over the running windows.
        issued = 0
        ready = 0  # earliest compute_ready_cycle of the compute-blocked windows
        n = len(running)
        rr = self._rr_pointer
        for k in range(n):
            index = (rr + k) % n
            window = running[index]
            if window.compute_charged:
                window_ready = window.compute_ready_cycle
                if window_ready > cycle:  # still computing
                    if not ready or window_ready < ready:
                        ready = window_ready
                    continue
            tb = window.tb
            cursor = window.cursor
            if tb is None or cursor >= len(tb.entries):
                continue  # draining: waiting for outstanding responses
            # A request rejected by interconnect back-pressure on an earlier
            # cycle is retried as-is (its L1 probe and trace-entry bookkeeping
            # already happened).
            req = window.pending_request
            if req is None:
                entry = tb.entries[cursor]
                if not window.compute_charged and entry.compute_cycles > 0:
                    # Charge the entry's compute once, before its access issues.
                    window_ready = window.compute_ready_cycle = cycle + entry.compute_cycles
                    window.compute_charged = True
                    if not ready or window_ready < ready:
                        ready = window_ready
                    continue
                addr = entry.addr
                if addr >= 0:  # else a pure-compute bubble, which completes here
                    if window.outstanding >= window.depth:
                        continue  # depth-full: waiting for a response
                    # The L1 probe (``L1Cache.access_read``/``access_write``,
                    # written out).  Writes are forwarded, refreshing a
                    # present line; a read hit completes locally within the
                    # cycle (latency 1 absorbed).
                    shift = self._l1_shift
                    line = addr >> shift
                    set_index = line & self._l1_mask
                    if set_index >= self._l1_num_sets:
                        raise self.l1.storage.range_error(set_index)
                    l1_set = self._l1_sets[set_index]
                    line <<= shift
                    rw = entry.rw
                    if rw == _READ and line in l1_set:
                        l1_set.move_to_end(line)
                        self.l1.read_hits += 1
                        self.stat_l1_hits += 1
                    else:
                        if rw == _READ:
                            self.l1.read_misses += 1
                        else:
                            self.l1.writes += 1
                            if line in l1_set:
                                l1_set.move_to_end(line)
                        # Positional: addr, rw, core_id, tb_id, kind, size,
                        # req_id, issue_cycle.
                        req = MemRequest(
                            addr, rw, self.core_id, tb.tb_id, entry.kind,
                            entry.size, next_request_id(), cycle,
                        )
            if req is not None:
                if not self.request_sink(req, cycle):
                    self.stat_backpressure_stalls += 1
                    window.pending_request = req
                    continue
                window.pending_request = None
                self._req_window[req.req_id] = window.window_id
                window.outstanding += 1
            elif window.outstanding == 0 and cursor + 1 >= len(tb.entries):
                # A local completion issued the block's last entry with nothing
                # outstanding: the block drained, so the next tick retires it.
                self.rescan = True
            window.cursor = cursor + 1
            window.compute_charged = False
            issued += 1
            self._rr_pointer = index
            if issued >= self._issue_width:
                break

        if issued:
            self.stat_active_cycles += 1
            self.stat_issued_requests += issued
        elif ready:
            self.stat_compute_cycles += 1
            if not changed:
                # Every running window was tried: each waits on compute until
                # its ready cycle, or on memory until a wake event.
                self.parked = True
                self.parked_idle = False
                self.wake_cycle = ready
        else:
            self.stat_mem_stall_cycles += 1
            if not changed:
                # Only a response, a slice draining or a throttle change can
                # alter the next tick: park until one of them happens.
                self.parked = True
                self.parked_idle = False

    # ------------------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------------------
    @property
    def outstanding_requests(self) -> int:
        return sum(w.outstanding for w in self.windows)

    @property
    def busy(self) -> bool:
        return any(w.busy for w in self.windows)

    def counters(self) -> dict[str, int]:
        """Cumulative counters used by the throttling controllers."""

        return {
            "mem_stall": self.stat_mem_stall_cycles,
            "idle": self.stat_idle_cycles,
            "active": self.stat_active_cycles,
            "compute": self.stat_compute_cycles,
            "issued": self.stat_issued_requests,
            "completed_blocks": self.stat_completed_blocks,
        }
