"""Core parking: a core whose tick only charged a stall counter is not ticked
again until a wake event (or, parked on compute, its wake cycle), while its
counters stay exact on every cycle."""

from __future__ import annotations

from dataclasses import replace

from repro.common.address import AddressMap
from repro.common.types import MemRequest, MemResponse, TraceEntry
from repro.config.policies import PolicyConfig
from repro.config.system import CoreConfig, L1Config, NoCConfig
from repro.cores.core import VectorCore
from repro.cores.l1 import L1Cache
from repro.cores.scheduler import ThreadBlockScheduler
from repro.noc.interconnect import Interconnect
from repro.sim.system import SimulatedSystem, tick_cores
from repro.trace.synthetic import make_stream_trace
from repro.trace.threadblock import ThreadBlock, Trace


class ParkingHarness:
    """``num_cores`` cores behind a one-slice interconnect, stepped by
    ``tick_cores`` exactly as ``SimulatedSystem.step`` steps its cores.

    The slice answers every request it accepts after ``response_latency``
    cycles.  It refuses everything while ``accept`` is False and, while
    ``credits`` is not None, accepts only that many more requests.  With
    ``parking=False`` every core is woken before every cycle, which is the
    reference behaviour: each core ticks on every cycle.
    """

    def __init__(self, num_blocks=2, lines_per_block=4, num_windows=2,
                 response_latency=20, parking=True, num_cores=1, depth=128, trace=None):
        self.noc = Interconnect(
            NoCConfig(request_latency=1, response_latency=1),
            AddressMap(line_size=64, num_slices=1),
            num_cores=num_cores,
            num_slices=1,
        )
        if trace is None:
            trace = make_stream_trace(num_blocks=num_blocks, lines_per_block=lines_per_block)
        self.scheduler = ThreadBlockScheduler(trace)
        config = CoreConfig(num_cores=num_cores, num_inst_windows=num_windows,
                            inst_window_depth=depth)
        self.cores = [
            VectorCore(
                core_id=i,
                config=config,
                l1=L1Cache(L1Config()),
                request_sink=self.noc.send_request,
                scheduler=self.scheduler,
            )
            for i in range(num_cores)
        ]
        self.core = self.cores[0]
        self.accept = True
        self.credits: int | None = None
        self.parking = parking
        self.response_latency = response_latency
        self.cycle = 0
        #: Cycles on which each core ticked.
        self.ticks: list[list[int]] = [[] for _ in self.cores]
        self.tick_cycles = self.ticks[0]
        self.receive_cycles: list[int] = []
        for core, ticks in zip(self.cores, self.ticks):
            def recorded(cycle, _tick=core.tick, _ticks=ticks):
                _ticks.append(cycle)
                _tick(cycle)

            core.tick = recorded

    def _slice_sink(self, req: MemRequest, cycle: int) -> bool:
        if not self.accept or self.credits == 0:
            return False
        if self.credits is not None:
            self.credits -= 1
        resp = MemResponse(
            req_id=req.req_id, core_id=req.core_id, tb_id=req.tb_id,
            line_addr=req.line_addr, rw=req.rw, complete_cycle=cycle,
        )
        self.noc.send_response(resp, cycle, extra_delay=self.response_latency)
        return True

    def _core_sink(self, resp: MemResponse, cycle: int) -> None:
        self.receive_cycles.append(cycle)
        self.cores[resp.core_id].receive(resp, cycle)

    def run(self, cycles: int) -> None:
        sinks = [self._core_sink] * len(self.cores)
        nudges = [core.nudge for core in self.cores]
        for _ in range(cycles):
            if not self.parking:
                for core in self.cores:
                    core.wake()
            self.noc.tick(self.cycle, [self._slice_sink], sinks, nudges)
            tick_cores(self.cores, self.noc, self.cycle)
            self.cycle += 1

    def ticks_between(self, start: int, end: int, core_id: int = 0) -> list[int]:
        return [c for c in self.ticks[core_id] if start <= c < end]

    def counters(self) -> tuple:
        return (
            tuple(tuple(sorted(core.counters().items())) for core in self.cores),
            self.noc.requests_sent,
        )


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
        history.append(h.counters())
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

    def test_only_the_last_response_of_a_drained_block_wakes(self):
        h = ParkingHarness(num_blocks=1, lines_per_block=4, num_windows=1,
                           response_latency=50)
        h.run(40)
        assert h.core.parked                       # every request is in flight
        h.run(40)
        *mid_block, last = h.receive_cycles
        assert len(mid_block) == 3
        # The first three responses leave the draining block parked; the last
        # one drains it, and the woken tick retires it.
        assert h.ticks_between(40, last) == []
        assert h.ticks_between(last, last + 1) == [last]
        assert h.core.stat_completed_blocks == 1

    def test_response_that_frees_depth_wakes(self):
        h = ParkingHarness(num_blocks=1, lines_per_block=8, num_windows=1,
                           response_latency=50, depth=2)
        h.run(40)
        assert h.core.parked
        assert h.core.windows[0].outstanding == 2  # the window is depth-full
        sent = h.noc.requests_sent
        while not h.receive_cycles:
            h.run(1)
        first = h.receive_cycles[0]
        assert h.ticks_between(40, first) == []
        assert h.tick_cycles[-1] == first          # the freed slot is used at once
        assert h.noc.requests_sent == sent + 1

    def test_depth_bound_core_matches_the_every_cycle_reference(self):
        def history(parking):
            h = ParkingHarness(num_blocks=3, lines_per_block=12, num_windows=2,
                               response_latency=30, depth=3, parking=parking)
            return h, [h.run(1) or h.counters() for _ in range(300)]

        parked, parked_history = history(True)
        reference, reference_history = history(False)
        assert parked_history == reference_history
        assert parked.scheduler.all_complete
        assert len(parked.tick_cycles) < len(reference.tick_cycles) // 2

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


def reads_trace(*lines_per_block: int) -> Trace:
    """One streaming block per entry of ``lines_per_block``, on disjoint lines."""

    blocks = []
    addr = 0x2000_0000
    for tb_id, lines in enumerate(lines_per_block):
        entries = [TraceEntry(compute_cycles=0, addr=addr + 64 * i) for i in range(lines)]
        blocks.append(ThreadBlock(tb_id=tb_id, h=0, g=0, tile_index=tb_id, entries=entries))
        addr += 64 * lines
    return Trace(blocks=blocks).validate()


class TestBackpressureNudge:
    """Two cores rejected by one slice; ``credits`` frees one slot at a time.

    With one window each, core 0 runs a 4-line block and core 1 a 16-line one:
    the slice fills on cycle 2, when core 0 has one request left to send.
    """

    def blocked_pair(self, parking=True):
        h = ParkingHarness(num_cores=2, num_windows=1, response_latency=200,
                           parking=parking, trace=reads_trace(4, 16))
        h.accept = False
        h.run(30)
        return h

    def test_both_cores_park_rejected_by_the_slice(self):
        h = self.blocked_pair()
        assert all(core.parked and not core.nudges for core in h.cores)
        assert all(core.windows[0].pending_request for core in h.cores)
        assert h.ticks_between(20, 30, 0) == h.ticks_between(20, 30, 1) == []

    def test_lower_id_takes_the_freed_slot_and_the_other_stays_parked(self):
        h = self.blocked_pair()
        sent = h.noc.requests_sent
        stalls = h.cores[1].stat_mem_stall_cycles
        h.accept, h.credits = True, 1
        h.run(1)                                   # cycle 30: one staged request drains
        assert h.ticks_between(30, 31, 0) == [30]  # core 0 retries and gets in
        assert h.noc.requests_sent == sent + 1
        assert h.ticks_between(30, 31, 1) == []    # the slot is gone by core 1's turn
        assert h.cores[1].parked and not h.cores[1].nudges
        assert h.cores[1].stat_mem_stall_cycles == stalls + 1

    def test_nudged_core_left_parked_is_woken_by_the_next_drain(self):
        h = self.blocked_pair()
        h.accept, h.credits = True, 1
        h.run(1)                                   # cycle 30: core 0 takes the slot
        assert h.cores[0].windows[0].pending_request is None  # ... its last one
        h.run(5)                                   # no credit: nothing drains
        assert h.ticks_between(30, 36, 1) == []
        sent = h.noc.requests_sent
        h.credits = 1
        h.run(1)                                   # cycle 36: one staged request drains
        assert h.ticks_between(36, 37, 1) == [36]  # core 1 was registered again
        assert h.noc.requests_sent == sent + 1

    def test_counters_match_the_every_cycle_reference(self):
        def history(parking):
            h = ParkingHarness(num_cores=2, num_blocks=4, lines_per_block=16,
                               num_windows=2, response_latency=200, parking=parking)
            h.accept = False
            h.run(30)
            rows = []
            for cycle in range(30, 400):
                h.accept = True
                h.credits = 1 if cycle < 200 and cycle % 3 else None
                h.run(1)
                rows.append(h.counters())
            return h, rows

        parked, parked_history = history(True)
        reference, reference_history = history(False)
        assert parked_history == reference_history
        assert sum(map(len, parked.ticks)) < sum(map(len, reference.ticks)) // 2
        # A nudged core that finds no room makes no injection attempt.
        assert parked.noc.backpressure_rejects < reference.noc.backpressure_rejects


COMPUTE_CYCLES = 40


class ComputeParkHarness:
    """One core of the tiny system running one thread block: a first entry
    issued on cycle 0 with its refill (a pure-compute bubble unless
    ``first_addr`` makes it a read), then a read that waits ``compute_cycles``
    cycles of compute, charged on cycle 1."""

    charge_cycle = 1

    def __init__(self, tiny_system, first_addr=-1, compute_cycles=COMPUTE_CYCLES,
                 num_windows=1):
        system_cfg = replace(
            tiny_system,
            core=replace(tiny_system.core, num_cores=1, num_inst_windows=num_windows),
        )
        entries = [
            TraceEntry(compute_cycles=0, addr=first_addr),
            TraceEntry(compute_cycles=compute_cycles, addr=0x1000),
        ]
        trace = Trace(blocks=[ThreadBlock(tb_id=0, h=0, g=0, tile_index=0, entries=entries)])
        self.system = SimulatedSystem(system_cfg, PolicyConfig().validate(), trace.validate())
        self.core = self.system.cores[0]
        self.compute_cycles = compute_cycles
        self.cycle = 0
        self.ticks: list[int] = []
        original = self.core.tick

        def counted(cycle):
            self.ticks.append(cycle)
            original(cycle)

        self.core.tick = counted

    def step(self) -> None:
        self.system.step(self.cycle)
        self.cycle += 1

    def park(self) -> None:
        """Step through the charging tick; the core must park on compute."""

        while self.cycle <= self.charge_cycle:
            self.step()
        assert self.core.parked and not self.core.parked_idle
        assert self.core.wake_cycle == self.charge_cycle + self.compute_cycles


class TestComputePark:
    def test_charging_tick_parks_until_the_compute_ready_cycle(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        assert h.core.windows[0].compute_ready_cycle == h.core.wake_cycle

    def test_mid_block_response_keeps_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system, first_addr=0x2000, compute_cycles=400)
        h.park()
        wake_cycle = h.core.wake_cycle
        window = h.core.windows[0]
        assert window.outstanding == 1
        while window.outstanding:
            h.step()
        # The block's first read returned while its second still computes:
        # the L1 is filled, but the core stays parked on the same wake cycle.
        assert h.cycle < wake_cycle
        assert h.core.l1.storage.contains(0x2000)
        assert h.core.parked and h.core.wake_cycle == wake_cycle
        assert h.ticks == [0, 1]
        while h.system.noc.requests_sent < 2:
            h.step()
        assert h.ticks == [0, 1, wake_cycle]
        assert h.core.stat_compute_cycles == 400

    def test_wake_clears_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        h.core.wake()
        assert not h.core.parked and h.core.wake_cycle == 0

    def test_throttle_limit_change_clears_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system, num_windows=2)
        h.park()
        h.core.set_max_running_blocks(1)
        assert not h.core.parked and h.core.wake_cycle == 0

    def test_unchanged_throttle_limit_keeps_the_park(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        wake_cycle = h.core.wake_cycle
        h.core.set_max_running_blocks(1)
        h.core.adjust_max_running_blocks(+1)       # clamped to the one window
        assert h.core.parked and h.core.wake_cycle == wake_cycle

    def test_system_step_charges_exactly_the_compute_cycles(self, tiny_system):
        h = ComputeParkHarness(tiny_system)
        h.park()
        noc = h.system.noc
        h.ticks.clear()
        while noc.requests_sent == 0:
            h.step()
        issue_cycle = h.cycle - 1
        assert issue_cycle == h.charge_cycle + COMPUTE_CYCLES
        assert h.ticks == [issue_cycle]            # parked until the wake cycle
        assert h.core.stat_compute_cycles == COMPUTE_CYCLES
        assert not h.core.parked and h.core.wake_cycle == 0
