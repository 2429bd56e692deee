"""Slice parking: a slice stalled on a full MSHR is not ticked again until a
DRAM fill frees MSHR state, while its counters stay exact on every cycle."""

from __future__ import annotations

from repro.common.types import AccessType, MemRequest
from repro.config.policies import PolicyConfig
from repro.config.system import L2Config
from repro.llc.llc import SlicedLLC


class LLCHarness:
    """A one-slice ``SlicedLLC`` with 2 MSHR entries and a fixed-latency DRAM.

    With ``parking=False`` the parked flag is cleared before every cycle,
    which is the reference behaviour: the slice ticks on every cycle.
    """

    def __init__(self, dram_latency=200, parking=True):
        config = L2Config(
            size_bytes=64 * 1024, num_slices=1, mshr_num_entries=2, mshr_num_targets=4,
        )
        self.llc = SlicedLLC(
            config=config,
            policy=PolicyConfig().validate(),
            num_cores=4,
            response_sink=lambda resp, cycle, delay: self.responses.append(cycle + delay),
            dram_sink=self._dram_sink,
        )
        self.slice = self.llc.slices[0]
        self.dram_latency = dram_latency
        self.parking = parking
        self.dram: list[tuple[int, int]] = []   # (ready cycle, line)
        self.responses: list[int] = []
        self.tick_cycles: list[int] = []
        self.cycle = 0

    def _dram_sink(self, line_addr: int, is_write: bool, slice_id: int, cycle: int) -> bool:
        if not is_write:
            self.dram.append((cycle + self.dram_latency, line_addr))
        return True

    def push(self, addr: int, core: int = 0) -> None:
        req = MemRequest(addr=addr, rw=AccessType.READ, core_id=core)
        assert self.slice.accept_request(req, self.cycle)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            if not self.parking:
                self.slice.parked = False
            for ready, line in [d for d in self.dram if d[0] <= self.cycle]:
                self.dram.remove((ready, line))
                self.llc.on_dram_fill(0, line, self.cycle)
            if not self.slice.parked:
                self.tick_cycles.append(self.cycle)
            self.llc.tick(self.cycle)
            self.cycle += 1

    def stall_three_misses(self) -> None:
        """Two misses fill the MSHR; the third distinct miss stalls the slice."""

        for i in range(3):
            self.push(0x1000 + i * 64, core=i)
        self.run(100)


class TestSliceParking:
    def test_parks_on_a_full_mshr(self):
        h = LLCHarness()
        h.stall_three_misses()
        assert h.slice.stalled and h.slice.parked
        busy, stalls = h.slice.busy_cycles, h.slice.stall_cycles
        failures = h.slice.mshr.alloc_failures_full_entries
        h.run(50)
        assert [c for c in h.tick_cycles if c >= 100] == []
        assert h.slice.busy_cycles == busy + 50
        assert h.slice.stall_cycles == stalls + 50
        # A failure counter counts reservation attempts, not stalled cycles.
        assert h.slice.mshr.alloc_failures_full_entries == failures

    def test_wakes_on_dram_fill(self):
        h = LLCHarness()
        h.stall_three_misses()
        first_fill = min(ready for ready, _ in h.dram)
        h.run(first_fill - h.cycle + 1)
        assert first_fill in h.tick_cycles
        assert h.slice.mshr_allocations == 3       # the stalled miss got its entry
        assert not h.slice.stalled

    def test_requests_arriving_while_parked_do_not_wake(self):
        h = LLCHarness()
        h.stall_three_misses()
        h.push(0x1000, core=3)                     # would merge, but waits behind the stall
        h.run(20)
        assert h.slice.parked
        assert [c for c in h.tick_cycles if c >= 100] == []

    def test_parked_slice_matches_the_every_cycle_reference(self):
        def script(h):
            history = []
            h.stall_three_misses()
            for cycle in range(600):
                if cycle in (50, 51, 300):
                    h.push(0x4000 + cycle * 64, core=cycle % 4)
                h.run(1)
                history.append((h.slice.busy_cycles, h.slice.stall_cycles,
                                h.slice.mshr_allocations, h.slice.fills_written,
                                len(h.responses)))
            return history

        parked, reference = LLCHarness(), LLCHarness(parking=False)
        assert script(parked) == script(reference)
        assert parked.responses == reference.responses
        assert len(parked.tick_cycles) < len(reference.tick_cycles)
