"""Differential test: FIFO request transit against a ``(deliver, seq)`` heap.

The interconnect carries in-flight requests in a plain FIFO.  That is only
right because every request takes the same latency and sends never go back in
time, so the FIFO order equals the order of a heap keyed by delivery cycle and
send sequence.  :class:`HeapTransit` keeps the heap algorithm as the oracle;
seeded random send sequences must reach every slice in the same order, on the
same cycles, through both.
"""

from __future__ import annotations

import heapq
from collections import deque

import pytest

from repro.common.address import AddressMap
from repro.common.errors import SimulationError
from repro.common.rng import derive_seed, make_rng
from repro.common.types import AccessType, MemRequest
from repro.config.system import NoCConfig
from repro.noc.interconnect import STAGING_DEPTH, Interconnect


class HeapTransit:
    """The request path of the interconnect with in-flight requests in a heap."""

    def __init__(self, config: NoCConfig, address_map: AddressMap, num_slices: int) -> None:
        self.config = config
        self.address_map = address_map
        self.in_flight: list[tuple[int, int, int, MemRequest]] = []
        self.staging = [deque() for _ in range(num_slices)]
        self.load = [0] * num_slices
        self.load_limit = STAGING_DEPTH + config.request_latency
        self.seq = 0

    def send_request(self, req: MemRequest, cycle: int) -> bool:
        slice_id = self.address_map.slice_of(req.addr)
        if self.load[slice_id] >= self.load_limit:
            return False
        deliver = cycle + self.config.request_latency
        heapq.heappush(self.in_flight, (deliver, self.seq, slice_id, req))
        self.load[slice_id] += 1
        self.seq += 1
        return True

    def tick(self, cycle: int, slice_sinks, core_sinks, core_nudges) -> None:
        while self.in_flight and self.in_flight[0][0] <= cycle:
            _, _, slice_id, req = heapq.heappop(self.in_flight)
            self.staging[slice_id].append(req)
        for slice_id, staging in enumerate(self.staging):
            accepted = 0
            while staging and accepted < self.config.slice_port_width:
                if not slice_sinks[slice_id](staging[0], cycle):
                    break
                staging.popleft()
                self.load[slice_id] -= 1
                accepted += 1


def _sinks(num_slices: int, seed: int, arrivals: list[list[tuple[int, int]]]):
    """Sinks that reject on a fixed pseudo-random subset of (slice, cycle, request).

    The decision depends only on its arguments, so both transports see the
    same sink behaviour for the same request on the same cycle.
    """

    def make(slice_id):
        def sink(req: MemRequest, cycle: int) -> bool:
            if derive_seed(seed, slice_id, cycle, req.req_id) % 10 < 3:
                return False
            arrivals[slice_id].append((cycle, req.req_id))
            return True
        return sink

    return [make(i) for i in range(num_slices)]


def _drive(transport, num_slices: int, seed: int, sends: list[list[tuple[int, int, int]]]):
    """Run ``sends`` (per cycle: (addr, core, req_id)) and return what reached each slice."""

    arrivals: list[list[tuple[int, int]]] = [[] for _ in range(num_slices)]
    sinks = _sinks(num_slices, seed, arrivals)
    accepted: list[bool] = []
    cycles = len(sends) + 64  # enough to drain every staged request
    nudges = [lambda slice_id: None] * 4
    for cycle in range(cycles):
        transport.tick(cycle, sinks, [], nudges)
        for addr, core, req_id in sends[cycle] if cycle < len(sends) else ():
            req = MemRequest(addr, AccessType.READ, core, req_id=req_id)
            accepted.append(transport.send_request(req, cycle))
    return arrivals, accepted


def _random_sends(rng, cycles: int, num_slices: int):
    sends = []
    req_id = 0
    for _ in range(cycles):
        # Bursts and quiet stretches; addresses over every slice.
        burst = int(rng.choice((0, 0, 1, 2, 4, 8)))
        cycle_sends = []
        for _ in range(burst):
            line = int(rng.integers(num_slices * 16))
            cycle_sends.append((line * 64, int(rng.integers(4)), req_id))
            req_id += 1
        sends.append(cycle_sends)
    return sends


@pytest.mark.parametrize("port_width", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_fifo_transit_matches_heap_reference(seed, port_width):
    rng = make_rng(seed)
    num_slices = int(rng.choice((2, 4)))
    config = NoCConfig(
        request_latency=int(rng.choice((0, 1, 3, 8))), response_latency=2,
        slice_port_width=port_width,
    )
    address_map = AddressMap(line_size=64, num_slices=num_slices)
    sends = _random_sends(rng, 200, num_slices)

    noc = Interconnect(config, address_map, num_cores=4, num_slices=num_slices)
    got, got_accepted = _drive(noc, num_slices, seed, sends)
    reference = HeapTransit(config, address_map, num_slices)
    want, want_accepted = _drive(reference, num_slices, seed, sends)

    assert got_accepted == want_accepted
    assert got == want
    # The corpus exercises back-pressure, rejecting sinks and every slice.
    assert not all(want_accepted) and sum(want_accepted) > 100
    assert all(want)
    assert not noc.has_work()


def test_send_at_an_earlier_cycle_raises():
    noc = Interconnect(
        NoCConfig(request_latency=4, response_latency=4),
        AddressMap(line_size=64, num_slices=2),
        num_cores=2,
        num_slices=2,
    )
    assert noc.send_request(MemRequest(0x0, AccessType.READ, 0), 10)
    assert noc.send_request(MemRequest(0x40, AccessType.READ, 1), 10)
    with pytest.raises(SimulationError, match="cycle 9"):
        noc.send_request(MemRequest(0x80, AccessType.READ, 0), 9)
