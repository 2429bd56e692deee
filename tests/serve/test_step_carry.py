"""Oracle test for the carried decode plan.

:class:`ReplicaSim` reuses its last decode-only plan, without asking the
policy again, for as long as the batch is unchanged.  The slow path stays
the oracle: on every launched step an observer re-plans the running batch
with the replica's policy and re-prices the plan with :func:`plan_cycles`, and
both must equal what the replica launched.  The corpus covers the golden
serve and cluster scenarios, smoke-tier runs of every step-planning policy
under both preemption policies, a disaggregated fleet and free-prefill runs
under chunked and prefill-first.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.obs.observer import Observer
from repro.registry import resolve_router
from repro.serve.arrival import poisson_arrivals
from repro.serve.kvcache import KVCacheConfig
from repro.serve.request import RequestSampler
from repro.serve.schedpolicy import ChunkedPrefillPolicy, PrefillFirstPolicy
from repro.serve.scheduler import BatchConfig
from repro.serve.simulator import ServingSimulator, plan_cycles
from repro.serve.stepcost import LinearStepCostModel

from tests.golden.scenarios import (
    golden_cluster_disaggregated_scenario,
    golden_cluster_scenario,
    golden_serve_chunked_scenario,
    golden_serve_decode_only_scenario,
    golden_serve_kv_scenario,
    golden_serve_scenario,
)


class PlanOracle(Observer):
    """Checks every launched step against a fresh plan and a fresh price."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, replica, start_s, end_s, plan, cycles) -> None:
        fresh = replica.policy.plan(replica.scheduler.running)
        assert fresh == plan, f"replica {replica.replica_id} step at {start_s}"
        model = replica.cost_model
        # Re-pricing must not count as a table lookup of the run.
        hits = getattr(model, "hits", None)
        try:
            assert plan_cycles(model, fresh, replica.scheduler.config.seq_bucket_floor) == cycles
        finally:
            if hits is not None:
                model.hits = hits
        self.steps += 1


def _kv_smoke(scheduler: str, preemption: str):
    return replace(golden_serve_kv_scenario(preemption), scheduler=scheduler).validate()


def _sampler(seed: int) -> RequestSampler:
    return RequestSampler(seed=seed, prompt_tokens=(32, 64), output_tokens=(2, 24))


def _disaggregated_fleet(seed: int):
    """A 2p2d linear-cost fleet with KV pressure on the decode replicas."""

    model = LinearStepCostModel()
    kv = KVCacheConfig(budget_tokens=256, block_tokens=16, preemption="swap", swap_ms=0.001)
    replicas = [
        ReplicaSim(
            replica_id=i,
            cost_model=model,
            frequency_ghz=2.0,
            batch=BatchConfig(max_batch=4, prefill=True, kv=kv),
            role=role,
        )
        for i, role in enumerate(("prefill", "prefill", "decode", "decode"))
    ]
    return ClusterSimulator(
        arrival=poisson_arrivals(_sampler(seed), rate=2e4, num_requests=48),
        router=resolve_router("round-robin")(2),
        replicas=replicas,
        kv_transfer_s=1e-5,
        decode_router=resolve_router("join-shortest-queue")(2),
    )


def _free_prefill(seed: int, policy=None):
    """Prefill priced at 0 cycles: a prefill-only plan applies instantly.

    Under prefill-first such a plan also comes while requests are decoding,
    so the zero-cost path runs right after a re-plan that dropped a carry.
    """

    return ServingSimulator(
        arrival=poisson_arrivals(_sampler(seed), rate=1e5, num_requests=32),
        cost_model=LinearStepCostModel(
            base_cycles=0, cycles_per_token=0, cycles_per_prefill_token=0
        ),
        frequency_ghz=2.0,
        batch=BatchConfig(max_batch=4, prefill=True),
        policy=policy or ChunkedPrefillPolicy(16),
    )


#: run name -> zero-argument callable returning an object with ``run(observers)``.
CORPUS = {
    "golden-serve": golden_serve_scenario,
    "golden-serve-chunked": golden_serve_chunked_scenario,
    "golden-serve-decode-only": golden_serve_decode_only_scenario,
    "golden-cluster": golden_cluster_scenario,
    "golden-cluster-disaggregated": golden_cluster_disaggregated_scenario,
    **{
        f"smoke-{scheduler}-{preemption}": (
            lambda s=scheduler, p=preemption: _kv_smoke(s, p)
        )
        for scheduler in ("decode-first", "prefill-first", "chunked")
        for preemption in ("recompute", "swap")
    },
    **{f"disaggregated-seed{seed}": (lambda s=seed: _disaggregated_fleet(s)) for seed in range(2)},
    **{f"free-prefill-seed{seed}": (lambda s=seed: _free_prefill(s)) for seed in range(2)},
    **{
        f"free-prefill-first-seed{seed}": (lambda s=seed: _free_prefill(s, PrefillFirstPolicy()))
        for seed in range(2)
    },
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_carried_plan_matches_a_fresh_plan_and_price(name):
    oracle = PlanOracle()
    CORPUS[name]().run(observers=[oracle])
    assert oracle.steps > 0


def test_free_prefill_run_applies_prefill_between_steps():
    metrics = _free_prefill(0).run()
    assert len(metrics.requests) == 32
    # Prompt chunks that ran without a decode beside them cost no step.
    assert metrics.meta["prefill_tokens"] < sum(r.prompt_tokens for r in metrics.requests)


def test_carry_engages(monkeypatch):
    """On the chunked KV smoke run some steps reuse the carried plan."""

    calls = []
    original = ChunkedPrefillPolicy.plan

    def counting_plan(self, running):
        calls.append(len(running))
        return original(self, running)

    monkeypatch.setattr(ChunkedPrefillPolicy, "plan", counting_plan)
    metrics = _kv_smoke("chunked", "recompute").run()
    assert 0 < len(calls) < metrics.steps

