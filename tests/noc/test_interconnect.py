"""Tests for the core <-> LLC interconnect."""

from repro.common.address import AddressMap
from repro.common.types import AccessType, MemRequest, MemResponse
from repro.config.system import NoCConfig
from repro.noc.interconnect import Interconnect, STAGING_DEPTH


class Harness:
    def __init__(self, num_slices=2, latency=4, accept=True):
        self.noc = Interconnect(
            NoCConfig(request_latency=latency, response_latency=latency),
            AddressMap(line_size=64, num_slices=num_slices),
            num_cores=2,
            num_slices=num_slices,
        )
        self.accept = accept
        self.refusing: set[int] = set()             # slices that refuse regardless
        self.delivered: list[list[MemRequest]] = [[] for _ in range(num_slices)]
        self.responses: list[list[MemResponse]] = [[], []]
        self.nudges: list[tuple[int, int, int]] = []  # (cycle, core, slice)
        self.cycle = 0

    def slice_sinks(self):
        def make(i):
            def sink(req, cycle):
                if not self.accept or i in self.refusing:
                    return False
                self.delivered[i].append(req)
                return True
            return sink
        return [make(i) for i in range(len(self.delivered))]

    def core_sinks(self):
        return [lambda r, c, i=i: self.responses[i].append(r) for i in range(2)]

    def core_nudges(self):
        return [lambda slice_id, i=i: self.nudges.append((self.cycle, i, slice_id))
                for i in range(2)]

    def run(self, cycles, start=0):
        for cycle in range(start, start + cycles):
            self.cycle = cycle
            self.noc.tick(cycle, self.slice_sinks(), self.core_sinks(), self.core_nudges())


def req(addr, core=0):
    return MemRequest(addr=addr, rw=AccessType.READ, core_id=core)


def resp(core=0):
    return MemResponse(
        req_id=1, core_id=core, tb_id=0, line_addr=0x40, rw=AccessType.READ, complete_cycle=0
    )


class TestRequestPath:
    def test_request_delivered_after_latency(self):
        h = Harness(latency=4)
        assert h.noc.send_request(req(0x0), cycle=0)
        h.run(3)
        assert not h.delivered[0]
        h.run(3, start=3)
        assert len(h.delivered[0]) == 1

    def test_routing_by_line_interleaving(self):
        h = Harness(num_slices=2)
        h.noc.send_request(req(0x0), 0)     # line 0 -> slice 0
        h.noc.send_request(req(0x40), 0)    # line 1 -> slice 1
        h.run(10)
        assert len(h.delivered[0]) == 1
        assert len(h.delivered[1]) == 1

    def test_backpressure_when_slice_rejects(self):
        h = Harness(latency=1, accept=False)
        limit = STAGING_DEPTH + 1
        sent = 0
        for i in range(limit + 8):
            if h.noc.send_request(req(0x0), 0):
                sent += 1
            h.run(1, start=i)
        assert sent <= limit
        assert h.noc.backpressure_rejects > 0

    def test_backpressure_releases_when_slice_accepts_again(self):
        h = Harness(latency=1, accept=False)
        for i in range(10):
            h.noc.send_request(req(0x0), i)
            h.run(1, start=i)
        assert not h.noc.send_request(req(0x0), 10)
        h.accept = True
        h.run(10, start=10)
        assert h.noc.send_request(req(0x0), 20)
        assert len(h.delivered[0]) > 0

    def test_rejected_query_is_counted_once_per_attempt(self):
        h = Harness(latency=1, accept=False)
        while h.noc.send_request(req(0x0), 0):
            pass
        assert h.noc.backpressure_rejects == 1
        assert not h.noc.send_request(req(0x0), 0)
        assert h.noc.backpressure_rejects == 2


class TestBackpressureNudges:
    """A slice's load only drops in ``tick``; its rejected cores are nudged then."""

    def fill_slice0(self, h):
        while h.noc.send_request(req(0x0), 0):
            pass

    def test_rejected_core_nudged_when_its_slice_drains(self):
        h = Harness(latency=1, accept=False)
        self.fill_slice0(h)                            # core 0 is the rejecter
        h.run(5)
        assert h.nudges == []                          # slice 0 still refuses
        h.accept = True
        h.run(1, start=5)
        assert h.nudges == [(5, 0, 0)]
        assert h.noc.send_request(req(0x0), 6)

    def test_each_rejecter_nudged_once(self):
        h = Harness(latency=1, accept=False)
        self.fill_slice0(h)
        for core in (1, 1, 0):
            assert not h.noc.send_request(req(0x0, core=core), 0)
        h.accept = True
        h.run(3)
        assert sorted(core for _, core, _ in h.nudges) == [0, 1]

    def test_other_slice_draining_nudges_nobody(self):
        h = Harness(latency=1, accept=False)
        self.fill_slice0(h)
        h.accept = True
        h.refusing = {0}
        assert h.noc.send_request(req(0x40, core=1), 0)
        h.run(5)
        assert len(h.delivered[1]) == 1                # slice 1 drained ...
        assert h.nudges == []                          # ... but core 0 waits on slice 0
        h.refusing = set()
        h.run(1, start=5)
        assert h.nudges == [(5, 0, 0)]

    def test_room_check_registers_the_core_again_when_full(self):
        h = Harness(latency=1, accept=False)
        self.fill_slice0(h)
        h.accept = True
        h.run(1, start=1)                              # slice 0 drains
        assert h.nudges == [(1, 0, 0)]
        assert h.noc.has_room(0)
        while h.noc.send_request(req(0x0, core=1), 1):  # another core refills it
            pass
        rejects = h.noc.backpressure_rejects
        assert not h.noc.admits_any(0, [0])
        assert h.noc.backpressure_rejects == rejects   # a check is not an attempt
        h.run(1, start=2)                              # the next drain nudges again
        assert (2, 0, 0) in h.nudges

    def test_room_check_finds_any_slice_with_room(self):
        h = Harness(latency=1, accept=False)
        self.fill_slice0(h)
        assert not h.noc.has_room(0) and h.noc.has_room(1)
        assert h.noc.admits_any(0, [0, 1])


class TestResponsePath:
    def test_response_delivered_to_right_core(self):
        h = Harness(latency=3)
        h.noc.send_response(resp(core=1), cycle=0)
        h.run(10)
        assert len(h.responses[1]) == 1
        assert not h.responses[0]

    def test_extra_delay_applied(self):
        h = Harness(latency=3)
        h.noc.send_response(resp(core=0), cycle=0, extra_delay=5)
        h.run(7)
        assert not h.responses[0]
        h.run(3, start=7)
        assert len(h.responses[0]) == 1

    def test_responses_never_backpressured(self):
        h = Harness()
        for i in range(100):
            h.noc.send_response(resp(core=0), cycle=0)
        h.run(10)
        assert len(h.responses[0]) == 100


class TestEngineSupport:
    def test_has_work_and_stats(self):
        h = Harness()
        assert not h.noc.has_work()
        h.noc.send_request(req(0x0), 0)
        assert h.noc.has_work()
        h.run(10)
        assert not h.noc.has_work()
        assert h.noc.requests_sent == 1
