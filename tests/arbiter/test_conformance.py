"""Arbiter conformance suite: invariants every registered policy must hold.

One parametrized module, run against every entry of the ARBITERS registry
(plugins included: whatever is registered when the tests collect, runs) --
mirroring the scheduler conformance pattern of
``tests/serve/test_conformance.py``.  The shared invariants:

* drain guarantee -- an arbiter never forces request priority while the
  request queue is empty and responses are pending, so the response queue
  always drains once the request stream dries up (the cobrra livelock
  regression of PR 9);
* no phantom response grants -- response priority is never forced while the
  response queue is empty;
* grant-count conservation -- the response/request/default grant counters on
  :class:`BaseArbiter` sum exactly to the number of arbitration calls;
* request selection -- given the slice's immutable MSHR snapshot (a
  ``frozenset``), ``select`` returns an index into the queue and leaves both
  the queue and the snapshot as they were.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arbiter.base import BaseArbiter
from repro.common.fifo import BoundedFifo
from repro.common.types import AccessType, MemRequest
from repro.config.policies import ArbitrationKind, PolicyConfig
from repro.config.system import L2Config
from repro.registry import ARBITERS, resolve_arbiter

RESP_CAPACITY = 64


def arbiter_names() -> list[str]:
    return [entry.name for entry in ARBITERS.entries()]


def build(name: str, num_cores: int = 4) -> BaseArbiter:
    policy = PolicyConfig(arbitration=ArbitrationKind(name))
    return resolve_arbiter(name)(policy, L2Config(), num_cores)


@pytest.mark.parametrize("name", arbiter_names())
class TestArbiterConformance:
    def test_drain_guarantee_with_empty_request_queue(self, name):
        # With no request competing for the storage port, a pending response
        # must never be denied it -- at any occupancy, however long it lasts.
        arb = build(name)
        for resp_len in range(1, RESP_CAPACITY + 1):
            for _ in range(8):
                decision = arb.arbitrate_port(resp_len, RESP_CAPACITY, 0)
                assert decision is not False, (
                    f"{name} forced request priority with an empty request "
                    f"queue and {resp_len} responses pending"
                )

    def test_no_response_priority_with_empty_response_queue(self, name):
        arb = build(name)
        for req_len in range(0, 16):
            assert arb.arbitrate_port(0, RESP_CAPACITY, req_len) is not True

    def test_grant_count_conservation(self, name):
        arb = build(name)
        calls = 0
        for resp_len in range(0, RESP_CAPACITY + 1, 7):
            for req_len in (0, 1, 8, 64):
                arb.arbitrate_port(resp_len, RESP_CAPACITY, req_len)
                calls += 1
        assert arb.arbitration_calls == calls
        assert (
            arb.response_priority_grants
            + arb.request_priority_grants
            + arb.default_priority_grants
            == calls
        )

    @given(
        sequence=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=RESP_CAPACITY),
                st.integers(min_value=0, max_value=64),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_sequence_property(self, name, sequence):
        # Whatever occupancy trajectory the slice presents, every decision is
        # well-formed, the drain guarantee holds and the grant counters stay
        # conserved after every call.
        arb = build(name)
        for step, (resp_len, req_len) in enumerate(sequence, start=1):
            decision = arb.arbitrate_port(resp_len, RESP_CAPACITY, req_len)
            assert decision in (True, False, None)
            if req_len == 0 and resp_len > 0:
                assert decision is not False
            if resp_len == 0:
                assert decision is not True
            assert arb.arbitration_calls == step
            assert (
                arb.response_priority_grants
                + arb.request_priority_grants
                + arb.default_priority_grants
                == step
            )

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12),
        snapshot=st.frozensets(st.integers(min_value=0, max_value=7), max_size=6),
        history=st.lists(st.integers(min_value=0, max_value=7), max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_select_returns_an_index_and_mutates_nothing(self, name, lines, snapshot, history):
        arb = build(name)
        cycle = 0
        for line_id in history:
            # Feed the hit history and progress counters a slice would.
            cycle += 1
            arb.notify_hit(line_id * 64, cycle)
            served = MemRequest(line_id * 64, AccessType.READ, line_id % 4).aligned(64)
            arb.notify_selected(served, cycle)
        queue: BoundedFifo[MemRequest] = BoundedFifo(12)
        for i, line_id in enumerate(lines):
            queue.push(MemRequest(line_id * 64, AccessType.READ, i % 4).aligned(64))
        before = list(queue)
        # A frozenset raises on any attempt to mutate it.
        index = arb.select(queue, frozenset(line_id * 64 for line_id in snapshot), cycle + 1)
        assert 0 <= index < len(before)
        assert list(queue) == before


def test_cobrra_grants_partition_all_calls():
    # COBRRA always decides (never defers to the slice default), so its
    # response + request grants alone account for every arbitration call.
    arb = build("cobrra")
    for resp_len in (0, 1, 10, 31, 40, 64):
        for req_len in (0, 3, 17):
            arb.arbitrate_port(resp_len, RESP_CAPACITY, req_len)
    assert arb.default_priority_grants == 0
    assert (
        arb.response_priority_grants + arb.request_priority_grants
        == arb.arbitration_calls
    )


def test_registry_covers_every_arbitration_kind():
    assert {kind.value for kind in ArbitrationKind} <= set(
        entry.name for entry in ARBITERS.entries()
    )
