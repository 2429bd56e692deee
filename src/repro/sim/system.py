"""Assembly of the full simulated system from configuration objects."""

from __future__ import annotations

from repro.common.address import AddressMap
from repro.config.policies import PolicyConfig
from repro.config.system import SystemConfig
from repro.cores.core import VectorCore
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.dram.system import DramSystem
from repro.llc.llc import SlicedLLC
from repro.noc.interconnect import Interconnect
from repro.throttle.factory import make_throttle_controller
from repro.trace.threadblock import Trace


class SimulatedSystem:
    """All hardware components of one simulation, wired together.

    The wiring follows Fig 3/4: cores issue through their private L1 into the
    interconnect; the interconnect feeds the per-slice request queues; slices
    talk to DRAM; DRAM fills free MSHR entries and fan out responses straight
    back to the requesting cores through the interconnect.
    """

    def __init__(
        self,
        system: SystemConfig,
        policy: PolicyConfig,
        trace: Trace,
    ) -> None:
        system.validate()
        policy.validate()
        self.config = system
        self.policy = policy
        self.trace = trace

        self.dram = DramSystem(
            system.dram, system.frequency_ghz, line_size=system.l2.line_size
        )
        # The NoC is built first so that the slices hold its response path and
        # the DRAM's enqueue themselves.
        self.noc = Interconnect(
            config=system.noc,
            address_map=AddressMap(
                line_size=system.l2.line_size, num_slices=system.l2.num_slices
            ),
            num_cores=system.core.num_cores,
            num_slices=system.l2.num_slices,
        )
        self.llc = SlicedLLC(
            config=system.l2,
            policy=policy,
            num_cores=system.core.num_cores,
            response_sink=self.noc.send_response,
            dram_sink=self.dram.enqueue,
        )
        self.scheduler = ThreadBlockScheduler(trace)
        self.cores = [
            VectorCore(
                core_id=i,
                config=system.core,
                l1=L1Cache(system.l1, core_id=i),
                request_sink=self.noc.send_request,
                scheduler=self.scheduler,
            )
            for i in range(system.core.num_cores)
        ]
        self.throttle = make_throttle_controller(policy)
        self.throttle.attach(self.cores, self.llc)

        self._slice_sinks = self.llc.slice_sinks()
        self._core_sinks = [core.receive for core in self.cores]
        self._core_nudges = [core.nudge for core in self.cores]

    # -- per-cycle advance ---------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance every component by one cycle."""

        # DRAM completions free MSHR entries and fan responses out to the cores.
        # A cycle on which no channel can act leaves the DRAM as it is.
        dram = self.dram
        if cycle >= dram.next_active_cycle:
            for payload, line_addr, is_write in dram.tick(cycle):
                if not is_write:
                    self.llc.on_dram_fill(payload, line_addr, cycle)

        self.llc.tick(cycle)
        self.noc.tick(cycle, self._slice_sinks, self._core_sinks, self._core_nudges)
        tick_cores(self.cores, self.noc, cycle)
        self.throttle.tick(cycle)

    # -- completion -----------------------------------------------------------------------------
    def finished(self) -> bool:
        """True when every thread block completed and all traffic drained."""

        if not self.scheduler.all_complete:
            return False
        if any(core.outstanding_requests for core in self.cores):
            return False
        if self.noc.has_work():
            return False
        if self.llc.outstanding_work():
            return False
        if self.dram.has_work():
            return False
        return True


def tick_cores(cores: list[VectorCore], noc: Interconnect, cycle: int) -> None:
    """Tick every core that is not parked, in core-id order.

    A parked core's tick would only charge the same stall counter again, so
    the counter is charged in its place; a compute-parked one is ticked again
    from its wake cycle on.  A nudged core is checked at its own turn,
    because a lower-id core may have refilled the drained slice earlier in
    this cycle: it ticks only if a slice that nudged it still has room.
    """

    for core in cores:
        if not core.parked:
            core.tick(cycle)
            continue
        nudges = core.nudges
        if nudges:
            if noc.admits_any(core.core_id, nudges):
                core.wake()
                core.tick(cycle)
                continue
            nudges.clear()
        if core.wake_cycle:
            if cycle < core.wake_cycle:
                core.stat_compute_cycles += 1
            else:
                core.wake()
                core.tick(cycle)
        elif core.parked_idle:
            core.stat_idle_cycles += 1
        else:
            core.stat_mem_stall_cycles += 1
