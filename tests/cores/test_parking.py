"""Core parking: a core whose tick only charged a stall counter is not ticked
again until a wake event (or, parked on compute, its wake cycle), while its
counters stay exact on every cycle."""

from __future__ import annotations

from dataclasses import replace

from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest, MemResponse, TraceEntry
from repro.config.policies import PolicyConfig
from repro.config.system import CoreConfig, L1Config, NoCConfig
from repro.cores.core import VectorCore
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.noc.interconnect import Interconnect
from repro.sim.system import SimulatedSystem
from repro.trace.synthetic import make_stream_trace
from repro.trace.threadblock import ThreadBlock, Trace


class ParkingHarness:
    """One core behind a one-slice interconnect, stepped the way
    ``SimulatedSystem.step`` steps its cores.

    The slice answers every request it accepts after ``response_latency``
    cycles and refuses everything while ``accept`` is False.  With
    ``parking=False`` the parked flag is cleared before every cycle, which is
    the reference behaviour: the core ticks on every cycle.
    """

    def __init__(self, num_blocks=2, lines_per_block=4, num_windows=2,
                 response_latency=20, parking=True):
        self.noc = Interconnect(
            NoCConfig(request_latency=1, response_latency=1),
            AddressMap(line_size=64, num_slices=1),
            num_cores=1,
            num_slices=1,
        )
        trace = make_stream_trace(num_blocks=num_blocks, lines_per_block=lines_per_block)
        self.scheduler = ThreadBlockScheduler(trace)
        self.core = VectorCore(
            core_id=0,
            config=CoreConfig(num_cores=1, num_inst_windows=num_windows),
            l1=L1Cache(L1Config()),
            request_sink=self.noc.send_request,
            scheduler=self.scheduler,
        )
        self.accept = True
        self.parking = parking
        self.response_latency = response_latency
        self.cycle = 0
        self.tick_cycles: list[int] = []
        self.receive_cycles: list[int] = []

    def _slice_sink(self, req: MemRequest, cycle: int) -> bool:
        if not self.accept:
            return False
        resp = MemResponse(
            req_id=req.req_id, core_id=0, tb_id=req.tb_id, line_addr=req.line_addr,
            rw=req.rw, complete_cycle=cycle,
        )
        self.noc.send_response(resp, cycle, extra_delay=self.response_latency)
        return True

    def _core_sink(self, resp: MemResponse, cycle: int) -> None:
        self.receive_cycles.append(cycle)
        self.core.receive(resp, cycle)

    def run(self, cycles: int) -> None:
        core = self.core
        for _ in range(cycles):
            if not self.parking:
                core.parked = False
            self.noc.tick(self.cycle, [self._slice_sink], [self._core_sink], [core.wake])
            if not core.parked:
                self.tick_cycles.append(self.cycle)
                core.tick(self.cycle)
            elif core.parked_idle:
                core.stat_idle_cycles += 1
            else:
                core.stat_mem_stall_cycles += 1
            self.cycle += 1

    def ticks_between(self, start: int, end: int) -> list[int]:
        return [c for c in self.tick_cycles if start <= c < end]


def run_script(h: ParkingHarness) -> list[tuple]:
    """Back-pressure, a throttle change and a drain; counters after every cycle."""

    history = []
    for cycle in range(400):
        h.accept = not 10 <= cycle < 60
        if cycle == 5:
            h.core.set_max_running_blocks(1)
        if cycle == 90:
            h.core.set_max_running_blocks(2)
        h.run(1)
        history.append((tuple(sorted(h.core.counters().items())), h.noc.requests_sent))
    return history


class TestParking:
    def test_parked_core_matches_the_every_cycle_reference(self):
        parked = ParkingHarness(num_blocks=6, lines_per_block=8, num_windows=4)
        reference = ParkingHarness(num_blocks=6, lines_per_block=8, num_windows=4,
                                   parking=False)
        assert run_script(parked) == run_script(reference)
        assert parked.core.stat_completed_blocks == 6
        assert len(parked.tick_cycles) < len(reference.tick_cycles) // 2
        # Attempt counters count the retries actually made, not stalled cycles.
        assert parked.core.stat_backpressure_stalls < reference.core.stat_backpressure_stalls

    def test_parks_under_backpressure_and_retries_the_cycle_its_slice_drains(self):
        h = ParkingHarness()
        h.accept = False
        h.run(30)
        assert h.core.parked and not h.core.parked_idle
        assert h.ticks_between(15, 30) == []
        stalls = h.core.stat_mem_stall_cycles
        sent = h.noc.requests_sent
        h.accept = True
        h.run(1)                                   # cycle 30: the staged request drains
        assert h.tick_cycles[-1] == 30
        assert h.noc.requests_sent == sent + 1     # the pending request got in
        assert h.core.stat_mem_stall_cycles == stalls

    def test_parked_cycles_are_charged_as_memory_stalls(self):
        h = ParkingHarness()
        h.accept = False
        h.run(30)
        before = h.core.stat_mem_stall_cycles
        h.run(25)
        assert h.ticks_between(30, 55) == []
        assert h.core.stat_mem_stall_cycles == before + 25

    def test_wakes_on_receive(self):
        h = ParkingHarness(num_blocks=1, lines_per_block=4, num_windows=1,
                           response_latency=50)
        h.run(40)
        assert h.core.parked                       # every request is in flight
        h.run(40)
        assert h.receive_cycles
        assert set(h.receive_cycles) <= set(h.tick_cycles)
        assert h.core.stat_completed_blocks == 1

    def test_wakes_on_throttle_limit_change(self):
        h = ParkingHarness(num_blocks=2, lines_per_block=4, num_windows=2,
                           response_latency=200)
        h.core.set_max_running_blocks(1)
        h.run(40)
        assert h.core.parked
        assert h.scheduler.pending == 1            # the free window is throttled
        h.core.set_max_running_blocks(2)
        assert not h.core.parked
        h.run(1)
        assert h.tick_cycles[-1] == 40
        assert h.scheduler.pending == 0

    def test_idle_core_with_exhausted_scheduler_stays_parked(self):
        h = ParkingHarness(num_blocks=1, lines_per_block=4, num_windows=2)
        h.run(100)
        assert h.scheduler.all_complete
        assert h.core.parked and h.core.parked_idle
        ticks = len(h.tick_cycles)
        idle = h.core.stat_idle_cycles
        h.run(100)
        assert len(h.tick_cycles) == ticks
        assert h.core.stat_idle_cycles == idle + 100


COMPUTE_CYCLES = 40


class ComputeParkHarness:
    """One single-window core of the tiny system running one thread block: a
    pure-compute bubble (issued on cycle 0 with its refill), then a read that
    waits ``COMPUTE_CYCLES`` cycles of compute, charged on cycle 1."""

    charge_cycle = 1

    def __init__(self, tiny_system):
        system_cfg = replace(
            tiny_system, core=replace(tiny_system.core, num_cores=1, num_inst_windows=1)
        )
        entries = [
            TraceEntry(compute_cycles=0, addr=-1),
            TraceEntry(compute_cycles=COMPUTE_CYCLES, addr=0x1000),
        ]
        trace = Trace(blocks=[ThreadBlock(tb_id=0, h=0, g=0, tile_index=0, entries=entries)])
        self.system = SimulatedSystem(system_cfg, PolicyConfig().validate(), trace.validate())
        self.core = self.system.cores[0]
        self.cycle = 0

    def step(self) -> None:
        self.system.step(self.cycle)
        self.cycle += 1

    def park(self) -> None:
        """Step through the charging tick; the core must park on compute."""

        while self.cycle <= self.charge_cycle:
            self.step()
        assert self.core.parked and not self.core.parked_idle
        assert self.core.wake_cycle == self.charge_cycle + COMPUTE_CYCLES


class TestComputePark:
    def test_charging_tick_parks_until_the_compute_ready_cycle(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        assert h.core.windows[0].compute_ready_cycle == h.core.wake_cycle

    def test_receive_clears_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        h.core.receive(
            MemResponse(req_id=-1, core_id=0, tb_id=0, line_addr=0, rw=AccessType.WRITE,
                        complete_cycle=h.cycle),
            h.cycle,
        )
        assert not h.core.parked and h.core.wake_cycle == 0
        h.step()                                   # the woken tick parks again
        assert h.core.wake_cycle == h.charge_cycle + COMPUTE_CYCLES

    def test_wake_clears_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        h.core.wake()
        assert not h.core.parked and h.core.wake_cycle == 0

    def test_throttle_limit_change_clears_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        h.core.set_max_running_blocks(1)
        assert not h.core.parked and h.core.wake_cycle == 0

    def test_system_step_charges_exactly_the_compute_cycles(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        noc = h.system.noc
        ticks = []
        original = h.core.tick

        def counted(cycle):
            ticks.append(cycle)
            original(cycle)

        h.core.tick = counted
        while noc.requests_sent == 0:
            h.step()
        issue_cycle = h.cycle - 1
        assert issue_cycle == h.charge_cycle + COMPUTE_CYCLES
        assert ticks == [issue_cycle]              # parked until the wake cycle
        assert h.core.stat_compute_cycles == COMPUTE_CYCLES
        assert not h.core.parked and h.core.wake_cycle == 0
