"""Tests for the request-selection policies: FCFS, B, MA, BMA, COBRRA."""

import pytest

from repro.arbiter.balanced import BalancedArbiter
from repro.arbiter.cobrra import CobrraArbiter
from repro.arbiter.factory import make_arbiter
from repro.arbiter.fcfs import FcfsArbiter
from repro.arbiter.mshr_aware import BalancedMshrAwareArbiter, MshrAwareArbiter
from repro.common.fifo import BoundedFifo
from repro.common.types import AccessType, MemRequest
from repro.config.policies import (
    ArbitrationKind,
    CobrraParams,
    MshrAwareParams,
    PolicyConfig,
)
from repro.config.system import L2Config


def req(addr, core=0):
    return MemRequest(addr=addr, rw=AccessType.READ, core_id=core).aligned(64)


def queue_of(*requests):
    q = BoundedFifo(16)
    for r in requests:
        q.push(r)
    return q


def make_ma(balanced=False, num_cores=4):
    cls = BalancedMshrAwareArbiter if balanced else MshrAwareArbiter
    return cls(num_cores, MshrAwareParams(), hit_latency=3, mshr_latency=5)


class TestFcfs:
    def test_always_selects_head(self):
        arb = FcfsArbiter(4)
        q = queue_of(req(0x100, 1), req(0x200, 0))
        assert arb.select(q, set(), 0) == 0

    def test_progress_counters_track_served_cores(self):
        arb = FcfsArbiter(4)
        arb.notify_selected(req(0x100, 2), 0)
        arb.notify_selected(req(0x140, 2), 1)
        arb.notify_selected(req(0x180, 0), 2)
        assert arb.progress_counters == [1, 0, 2, 0]
        arb.reset_progress()
        assert arb.progress_counters == [0, 0, 0, 0]


class TestBalanced:
    def test_selects_least_served_core(self):
        arb = BalancedArbiter(4)
        # Core 0 already served 5 times, core 1 twice.
        for _ in range(5):
            arb.notify_selected(req(0x100, 0), 0)
        for _ in range(2):
            arb.notify_selected(req(0x100, 1), 0)
        q = queue_of(req(0x200, 0), req(0x240, 1), req(0x280, 3))
        # Core 3 has never been served -> its request wins despite being last.
        assert arb.select(q, set(), 0) == 2

    def test_fifo_tiebreak(self):
        arb = BalancedArbiter(4)
        q = queue_of(req(0x200, 1), req(0x240, 2))
        assert arb.select(q, set(), 0) == 0


class TestMshrAware:
    def test_prioritises_speculated_cache_hit(self):
        arb = make_ma()
        arb.notify_hit(0x340, cycle=0)                 # 0x340 recently hit
        q = queue_of(req(0x100, 0), req(0x340, 1), req(0x200, 2))
        assert arb.select(q, set(), 1) == 1

    def test_prioritises_mshr_hit_over_plain_miss(self):
        arb = make_ma()
        q = queue_of(req(0x100, 0), req(0x500, 1))
        assert arb.select(q, {0x500}, 0) == 1

    def test_cache_hit_beats_mshr_hit(self):
        arb = make_ma()
        arb.notify_hit(0x340, cycle=0)
        q = queue_of(req(0x500, 0), req(0x340, 1))
        assert arb.select(q, {0x500}, 1) == 1

    def test_sent_reqs_extends_mshr_view(self):
        """A just-selected miss is treated as an MSHR hit before the MSHR updates."""

        arb = make_ma()
        first = req(0x700, 0)
        q1 = queue_of(first)
        arb.select(q1, set(), 0)
        arb.notify_selected(first, 0)
        # 0x700 is not yet in the MSHR snapshot but lives in sent_reqs.
        q2 = queue_of(req(0x900, 1), req(0x700, 2))
        assert arb.select(q2, set(), 2) == 1

    def test_sent_reqs_expires_after_lookup_latency(self):
        arb = make_ma()
        first = req(0x700, 0)
        arb.select(queue_of(first), set(), 0)
        arb.notify_selected(first, 0)
        q = queue_of(req(0x900, 1), req(0x700, 2))
        # After hit_latency + mshr_latency = 8 cycles the entry is gone.
        assert arb.select(q, set(), 20) == 0

    def test_speculated_hits_do_not_pollute_mshr_view(self):
        arb = make_ma()
        arb.notify_hit(0x340, cycle=0)
        chosen = req(0x340, 0)
        arb.select(queue_of(chosen), set(), 1)
        arb.notify_selected(chosen, 1)
        # 0x340 was a speculated hit, so it must NOT appear as a pending MSHR line.
        q = queue_of(req(0x900, 1), req(0x340, 2))
        index = arb.select(q, set(), 2)
        assert index == 1   # still prioritised, but as a cache hit (rank 0), fine
        # Verify through the sent_reqs view directly:
        assert 0x340 not in arb.sent_reqs.pending

    def test_fifo_tiebreak_for_ma(self):
        arb = make_ma(balanced=False)
        q = queue_of(req(0x100, 3), req(0x140, 0))
        assert arb.select(q, set(), 0) == 0

    def test_balanced_tiebreak_for_bma(self):
        arb = make_ma(balanced=True)
        for _ in range(3):
            arb.notify_selected(req(0x100, 3), 0)
        q = queue_of(req(0x200, 3), req(0x240, 1))
        assert arb.select(q, set(), 0) == 1

    def test_stats_track_predictions(self):
        arb = make_ma()
        arb.notify_hit(0x340, 0)
        chosen = req(0x340, 0)
        arb.select(queue_of(chosen), set(), 1)
        arb.notify_selected(chosen, 1)
        assert arb.stats.predicted_hits == 1

    def test_notify_selected_without_select_speculates_from_its_own_state(self):
        # With no ``select`` ranking the request there is no MSHR snapshot:
        # only the hit buffer and sent_reqs speculate.
        arb = make_ma()
        arb.notify_hit(0x340, 0)
        arb.notify_selected(req(0x340, 0), 1)   # in the hit buffer: a hit
        arb.notify_selected(req(0x500, 1), 2)   # nowhere: neither
        arb.notify_selected(req(0x500, 2), 3)   # in sent_reqs: an MSHR hit
        assert (arb.stats.predicted_hits, arb.stats.predicted_mshr_hits) == (1, 1)
        assert [e.speculated_hit for e in arb.sent_reqs._fifo] == [True, False, False]
        assert arb.sent_reqs.pending == {0x500: 2}

    def test_notify_selected_reranks_a_request_select_did_not_choose(self):
        arb = make_ma()
        chosen, other = req(0x500, 0), req(0x600, 1)
        assert arb.select(queue_of(chosen, other), frozenset({0x500}), 0) == 0
        arb.notify_selected(other, 0)           # not the chosen one: re-ranked
        assert arb.stats.predicted_mshr_hits == 0
        arb.notify_selected(chosen, 0)          # the chosen one: select's rank
        assert arb.stats.predicted_mshr_hits == 1


class TestCobrra:
    def test_request_selection_is_fcfs(self):
        arb = CobrraArbiter(4, CobrraParams())
        q = queue_of(req(0x100, 1), req(0x200, 0))
        assert arb.select(q, set(), 0) == 0

    def test_requests_prioritised_until_resp_queue_fills(self):
        arb = CobrraArbiter(4, CobrraParams(resp_priority_threshold=0.5))
        assert arb.wants_response_priority(0, 64, req_queue_len=8) is False
        assert arb.wants_response_priority(10, 64, req_queue_len=8) is False

    def test_alternates_when_resp_queue_saturated(self):
        arb = CobrraArbiter(4, CobrraParams(resp_priority_threshold=0.5))
        decisions = [arb.wants_response_priority(40, 64, req_queue_len=8) for _ in range(4)]
        assert decisions == [True, False, True, False]

    def test_responses_drain_when_request_queue_empty(self):
        # Regression for the uncore livelock: below-threshold responses must
        # still win the storage port once the request stream dries up.
        arb = CobrraArbiter(4, CobrraParams(resp_priority_threshold=0.5))
        assert arb.wants_response_priority(1, 64, req_queue_len=0) is True
        assert arb.wants_response_priority(31, 64, req_queue_len=0) is True

    def test_grant_counters_centralised_on_base(self):
        arb = CobrraArbiter(4, CobrraParams(resp_priority_threshold=0.5))
        decisions = [
            arb.arbitrate_port(0, 64, 8),
            arb.arbitrate_port(10, 64, 8),
            arb.arbitrate_port(40, 64, 8),
            arb.arbitrate_port(5, 64, 0),
        ]
        assert decisions == [False, False, True, True]
        assert arb.arbitration_calls == 4
        assert arb.request_priority_grants == 2
        assert arb.response_priority_grants == 2
        assert arb.default_priority_grants == 0


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (ArbitrationKind.FCFS, FcfsArbiter),
            (ArbitrationKind.BALANCED, BalancedArbiter),
            (ArbitrationKind.MSHR_AWARE, MshrAwareArbiter),
            (ArbitrationKind.BALANCED_MSHR_AWARE, BalancedMshrAwareArbiter),
            (ArbitrationKind.COBRRA, CobrraArbiter),
        ],
    )
    def test_builds_requested_arbiter(self, kind, cls):
        policy = PolicyConfig(arbitration=kind)
        arbiter = make_arbiter(policy, L2Config(), num_cores=16)
        assert type(arbiter) is cls
        assert arbiter.num_cores == 16

    def test_default_base_arbiter_no_response_override(self):
        arbiter = make_arbiter(PolicyConfig(), L2Config(), 4)
        assert arbiter.wants_response_priority(10, 64, req_queue_len=8) is None
