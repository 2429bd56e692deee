"""Differential test: the single accelerator is a one-replica fleet.

:class:`ServingSimulator` and a one-replica round-robin
:class:`ClusterSimulator` share one serving step and one loop, so on the same
seeded stream and cost model they must agree on every completed request, the
step and cycle counts, the makespan, the preemption count, the telemetry
series, the per-step probe digests and every request aggregate their metrics
share.  The corpus crosses the step-planning variants (decode-only, chunked,
prefill-first and both KV preemption policies) with three arrival shapes over
several seeds.
"""

from __future__ import annotations

import pytest

from repro.analysis import StepProbe
from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.registry import resolve_router
from repro.serve.arrival import bursty_arrivals, closed_loop_arrivals, poisson_arrivals
from repro.serve.kvcache import KVCacheConfig
from repro.serve.metrics import REPORTED_PERCENTILES, ServeSLO
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


def run_pair(variant: str, arrival: str, seed: int, observers=((), ()), **knobs):
    """Run the single accelerator and the one-replica fleet on one stream.

    ``observers`` are installed on the two runs in order; ``knobs`` (``slo``,
    ``telemetry_ms``) go to both simulators.
    """

    batch, policy = VARIANTS[variant]
    model = LinearStepCostModel()
    single = ServingSimulator(
        arrival=ARRIVALS[arrival](_sampler(seed)),
        cost_model=model,
        frequency_ghz=FREQUENCY_GHZ,
        batch=batch,
        policy=policy(),
        **knobs,
    ).run(observers=observers[0])
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
        **knobs,
    ).run(observers=observers[1])
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_telemetry_and_probe_digests_agree(variant, arrival, seed):
    probes = (StepProbe(), StepProbe())
    single, fleet = run_pair(
        variant, arrival, seed, ([probes[0]], [probes[1]]), telemetry_ms=0.002
    )
    assert single.telemetry is not None
    assert single.telemetry == fleet.telemetry
    assert probes[0].digests
    assert [d.digest for d in probes[0].digests] == [d.digest for d in probes[1].digests]


#: Splits the corpus: some requests meet it, some do not.
SLO = ServeSLO(ttft_ms=0.005, latency_ms=0.01)


def shared_aggregates(metrics) -> dict:
    """Every request aggregate ServeMetrics and ClusterMetrics both answer."""

    out = {
        name: getattr(metrics, name)
        for name in (
            "num_requests", "total_output_tokens", "has_prefill_phase", "mean_tpot_ms",
            "tokens_per_s", "requests_per_s", "slo_attainment",
        )
    }
    spans = ["latency", "ttft", "decode"]
    if metrics.has_prefill_phase:
        spans.append("prefill")
    for span in spans:
        out[span] = metrics.percentiles_ms(span, REPORTED_PERCENTILES)
    return out


@pytest.mark.parametrize("sketch", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_shared_aggregates_agree(variant, arrival, seed, sketch):
    single, fleet = run_pair(variant, arrival, seed, slo=SLO)
    single, fleet = single.with_sketch(sketch), fleet.with_sketch(sketch)
    assert shared_aggregates(single) == shared_aggregates(fleet)


def test_slo_splits_the_corpus():
    # Otherwise the slo_attainment comparison above would be 1.0 == 1.0.
    attainments = [
        run_pair(variant, arrival, seed, slo=SLO)[0].slo_attainment
        for variant in VARIANTS
        for arrival in ARRIVALS
        for seed in SEEDS
    ]
    assert any(0.0 < value < 1.0 for value in attainments), attainments


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
