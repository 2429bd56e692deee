"""Lockstep differential oracle for MSHR-aware selection (MA and BMA).

``MshrAwareArbiter.select`` ranks the queue in one pass against incremental
state: the hit buffer's and ``sent_reqs``' line -> count maps and the MSHR
file's cached snapshot.  :func:`reranking_select` is the slow path it
replaced.  It re-ranks every queued request against sets rebuilt from scratch
at each lookup: the hit buffer FIFO itself, the unexpired ``sent_reqs``
entries without the speculated-hit bit, and the MSHR entry table.

:func:`run_checked` runs a whole simulation with every slice's arbiter
wrapped so that each lookup first asks the oracle, then the fast path, and
asserts the same chosen index and speculation rank.  Each ``notify_selected``
must then count the oracle's rank and record its speculated-hit bit.

Run as a module, it checks the MA policies at ci tier on both perfbench
kernel shapes (CI runs this; tier-1 keeps the smaller points below)::

    PYTHONPATH=src python -m tests.arbiter.test_mshr_aware_oracle
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.api import Scenario
from repro.arbiter.mshr_aware import MshrAwareArbiter
from repro.config.policies import ArbitrationKind, MshrAwareParams, PolicyConfig
from repro.config.system import SystemConfig
from repro.config.workload import OperatorKind
from repro.llc.mshr import MshrFile
from repro.registry import resolve_policy
from repro.sim.runner import generate_trace
from repro.sim.simulator import Simulator
from repro.trace.threadblock import Trace
from tests.sim.test_parking_lockstep import FIG7_POLICIES, SMALL_SEQ_LEN, small_workload

#: Policies whose slices run an MSHR-aware arbiter, with and without throttling.
MSHR_AWARE_POLICIES = ("MA", "BMA", "dynmg+MA", "dynmg+BMA")

#: The perfbench kernel shapes (llama3-70b Logit and AttScore@V at L=2048).
KERNEL_SHAPES = ("llama3-70b", "llama3-70b-attend")

_MSHR_AWARE_KINDS = (ArbitrationKind.MSHR_AWARE, ArbitrationKind.BALANCED_MSHR_AWARE)


def reranking_select(
    arbiter: MshrAwareArbiter, queue, mshr: MshrFile, cycle: int
) -> tuple[int, int]:
    """The re-ranking ``select``: return the chosen index and its rank."""

    hit_lines = set(arbiter.hit_buffer._fifo)
    mshr_view = {
        entry.line_addr
        for entry in arbiter.sent_reqs._fifo
        if entry.expiry_cycle > cycle and not entry.speculated_hit
    }

    def rank(req) -> int:
        if req.line_addr in hit_lines:
            return 0
        if mshr.lookup(req.line_addr) is not None or req.line_addr in mshr_view:
            return 1
        return 2

    best_index = 0
    best_rank = 3
    best_counter = 0
    counters = arbiter.progress_counters
    for i, req in enumerate(queue):
        req_rank = rank(req)
        if req_rank < best_rank:
            best_rank = req_rank
            best_index = i
            best_counter = counters[req.core_id]
            if req_rank == 0 and not arbiter.balanced_tiebreak:
                break
        elif req_rank == best_rank and arbiter.balanced_tiebreak:
            counter = counters[req.core_id]
            if counter < best_counter:
                best_counter = counter
                best_index = i
    return best_index, best_rank


def _check(llc_slice, seen: Counter) -> None:
    """Wrap one slice's arbiter so every lookup is checked against the oracle."""

    arbiter = llc_slice.arbiter
    fast_select = arbiter.select
    fast_notify = arbiter.notify_selected
    expected: dict[str, object] = {}

    def select(queue, mshr_lines, cycle):
        items = list(queue)
        index, rank = reranking_select(arbiter, queue, llc_slice.mshr, cycle)
        got = fast_select(queue, mshr_lines, cycle)
        assert (got, arbiter.speculated_rank) == (index, rank), (
            f"slice {llc_slice.slice_id} cycle {cycle}: fast select chose "
            f"{got} at rank {arbiter.speculated_rank}, the oracle {index} at rank {rank}"
        )
        assert arbiter.speculated_req is items[index]
        assert list(queue) == items
        expected.update(req=items[index], rank=rank)
        seen["lookups"] += 1
        seen[f"rank{rank}"] += 1
        if len(items) > 1:
            seen["multi"] += 1
        return got

    def notify_selected(req, cycle):
        assert req is expected.get("req")
        rank = expected.pop("rank")
        stats = arbiter.stats
        before = (stats.predicted_hits, stats.predicted_mshr_hits)
        if len(arbiter.sent_reqs) == arbiter.sent_reqs.capacity:
            seen["sent_reqs_full"] += 1
        fast_notify(req, cycle)
        after = (stats.predicted_hits, stats.predicted_mshr_hits)
        assert after == (before[0] + (rank == 0), before[1] + (rank == 1))
        assert arbiter.sent_reqs._fifo[-1].speculated_hit == (rank == 0)

    arbiter.select = select
    arbiter.notify_selected = notify_selected


def run_checked(system_cfg: SystemConfig, policy: PolicyConfig, trace: Trace) -> Counter:
    """Run one simulation, checking every MSHR-aware lookup; return counts."""

    assert policy.arbitration in _MSHR_AWARE_KINDS
    simulator = Simulator(system_cfg, policy, trace)
    seen: Counter = Counter()
    for llc_slice in simulator.system.llc.slices:
        _check(llc_slice, seen)
    result = simulator.run()
    assert result.status == "completed"
    assert seen["lookups"] == result.llc.accesses
    # Every rank occurs, and a quarter of the lookups or more choose among
    # several requests.
    assert seen["rank0"] and seen["rank1"] and seen["rank2"]
    assert seen["multi"] > seen["lookups"] // 4
    return seen


def test_every_mshr_aware_fig7_policy_is_covered():
    fig7 = {label for label in FIG7_POLICIES
            if resolve_policy(label).arbitration in _MSHR_AWARE_KINDS}
    assert fig7 and fig7 <= set(MSHR_AWARE_POLICIES)


@pytest.mark.parametrize("operator", [OperatorKind.LOGIT, OperatorKind.ATTEND])
@pytest.mark.parametrize("label", MSHR_AWARE_POLICIES)
def test_tiny_system_points_match_the_oracle(tiny_system, operator, label):
    trace = generate_trace(small_workload(operator, SMALL_SEQ_LEN[operator]), tiny_system)
    run_checked(tiny_system, resolve_policy(label), trace)


@pytest.mark.parametrize("label", ["MA", "BMA"])
def test_full_sent_reqs_point_matches_the_oracle(tiny_system, label):
    """``sent_reqs`` smaller than its lifetime: records evict live entries."""

    policy = resolve_policy(f"dynmg+{label}")
    policy = replace(policy, mshr_aware=MshrAwareParams(hit_buffer_size=4, sent_reqs_size=3))
    trace = generate_trace(small_workload(OperatorKind.LOGIT, 128), tiny_system)
    seen = run_checked(tiny_system, policy, trace)
    assert seen["sent_reqs_full"] > 0


def check_kernel_point(model: str, label: str) -> Counter:
    scenario = Scenario.create(model, label, seq_len=2048)
    system_cfg, workload, policy = scenario.resolve()
    return run_checked(system_cfg, policy, generate_trace(workload, system_cfg))


def test_ci_tier_logit_point_matches_the_oracle():
    check_kernel_point("llama3-70b", "dynmg+BMA")


if __name__ == "__main__":
    for model in KERNEL_SHAPES:
        for label in MSHR_AWARE_POLICIES:
            counts = check_kernel_point(model, label)
            print(f"{model} {label}: {counts['lookups']} lookups match the oracle "
                  f"(ranks {counts['rank0']}/{counts['rank1']}/{counts['rank2']})")
