"""Differential test: the single-accelerator loop is a one-replica fleet.

:class:`ServingSimulator` and a one-replica round-robin
:class:`ClusterSimulator` share one serving step, so on the same seeded
stream and cost model they must agree on every completed request, the step
and cycle counts, the makespan and the preemption count.  The corpus crosses
the step-planning variants (decode-only, chunked, prefill-first and both KV
preemption policies) with three arrival shapes over several seeds.
"""

from __future__ import annotations

import pytest

from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.registry import resolve_router
from repro.serve.arrival import bursty_arrivals, closed_loop_arrivals, poisson_arrivals
from repro.serve.kvcache import KVCacheConfig
from repro.serve.request import RequestSampler
from repro.serve.schedpolicy import (
    ChunkedPrefillPolicy,
    DecodeFirstPolicy,
    PrefillFirstPolicy,
)
from repro.serve.scheduler import BatchConfig
from repro.serve.simulator import ServingSimulator
from repro.serve.stepcost import LinearStepCostModel

FREQUENCY_GHZ = 2.0
NUM_REQUESTS = 16


def _kv(preemption: str) -> KVCacheConfig:
    # Tight enough to force evictions at max_batch=4, roomy enough for any
    # single request of the sampler below (at most 70 tokens of context).
    return KVCacheConfig(
        budget_tokens=128, block_tokens=16, preemption=preemption, swap_ms=0.001
    )


#: variant -> (batch config, policy factory).
VARIANTS = {
    "decode-only": (BatchConfig(max_batch=4), DecodeFirstPolicy),
    "chunked": (BatchConfig(max_batch=4, prefill=True), lambda: ChunkedPrefillPolicy(48)),
    "prefill-first": (BatchConfig(max_batch=4, prefill=True), PrefillFirstPolicy),
    "kv-recompute": (
        BatchConfig(max_batch=4, prefill=True, kv=_kv("recompute")),
        DecodeFirstPolicy,
    ),
    "kv-swap": (BatchConfig(max_batch=4, prefill=True, kv=_kv("swap")), DecodeFirstPolicy),
}

#: arrival -> builder of a fresh (stateful for closed-loop) process per run.
ARRIVALS = {
    "poisson": lambda s: poisson_arrivals(s, rate=1e6, num_requests=NUM_REQUESTS),
    "closed-loop": lambda s: closed_loop_arrivals(s, rate=4, num_requests=NUM_REQUESTS),
    "bursty": lambda s: bursty_arrivals(s, rate=1e6, num_requests=NUM_REQUESTS),
}

SEEDS = range(4)


def _sampler(seed: int) -> RequestSampler:
    return RequestSampler(seed=seed, prompt_tokens=(32, 64), output_tokens=(2, 6))


def run_pair(variant: str, arrival: str, seed: int):
    batch, policy = VARIANTS[variant]
    model = LinearStepCostModel()
    single = ServingSimulator(
        arrival=ARRIVALS[arrival](_sampler(seed)),
        cost_model=model,
        frequency_ghz=FREQUENCY_GHZ,
        batch=batch,
        policy=policy(),
    ).run()
    fleet = ClusterSimulator(
        arrival=ARRIVALS[arrival](_sampler(seed)),
        router=resolve_router("round-robin")(1),
        replicas=[
            ReplicaSim(
                replica_id=0,
                cost_model=model,
                frequency_ghz=FREQUENCY_GHZ,
                batch=batch,
                policy=policy(),
            )
        ],
    ).run()
    return single, fleet


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_single_accelerator_equals_one_replica_fleet(variant, arrival, seed):
    single, fleet = run_pair(variant, arrival, seed)
    (replica,) = fleet.replicas
    assert single.requests == replica.requests
    assert single.steps == replica.steps
    assert single.total_cycles == replica.total_cycles
    assert single.duration_s == fleet.duration_s
    if VARIANTS[variant][0].kv.enabled:
        assert single.meta["preemptions"] == fleet.meta["preemptions"][0]


def test_corpus_exercises_kv_preemption():
    # The KV variants must actually preempt somewhere in the corpus, or the
    # differential above would not cover the eviction paths.
    for variant in ("kv-recompute", "kv-swap"):
        total = sum(
            run_pair(variant, arrival, seed)[0].meta["preemptions"]
            for arrival in ARRIVALS
            for seed in SEEDS
        )
        assert total > 0, variant
