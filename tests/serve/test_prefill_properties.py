"""Seeded property-based fuzz tests for the prefill-phase accounting.

Hypothesis drives randomized traffic through the (linear-cost) serving
simulator under every registered scheduler and asserts the invariants the new
phase accounting must satisfy regardless of configuration:

* chunk conservation -- the prefill chunk sizes a request is scheduled in sum
  to exactly its prompt length, never over- or under-prefilling;
* decode neutrality -- modeling prefill changes *when* tokens are generated,
  never *how many*: per-request output-token counts match the decode-only
  scheduler's exactly;
* per-phase percentile monotonicity -- p50 <= p95 <= p99 for the new prefill
  and decode span series, and every span is non-negative.

``derandomize=True`` makes every run draw the same example sequence: the fuzz
corpus is part of the pinned behaviour, like the golden fixtures, so CI never
flakes on a novel example.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="property tests need hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.registry import SCHEDULERS, resolve_scheduler  # noqa: E402
from repro.serve.arrival import poisson_arrivals  # noqa: E402
from repro.serve.request import RequestSampler  # noqa: E402
from repro.serve.scheduler import BatchConfig, ContinuousBatchScheduler  # noqa: E402
from repro.serve.simulator import ServingSimulator, complete_step  # noqa: E402
from repro.serve.stepcost import LinearStepCostModel  # noqa: E402

settings.register_profile("repro-seeded", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("repro-seeded")

SCHEDULER_NAMES = ("decode-first", "prefill-first", "chunked")


def sampler(seed: int) -> RequestSampler:
    return RequestSampler(seed=seed, prompt_tokens=(16, 512), output_tokens=(1, 8))


def serve_run(seed, rate, num_requests, max_batch, scheduler, chunk, prefill=True):
    return ServingSimulator(
        arrival=poisson_arrivals(sampler(seed), rate=rate, num_requests=num_requests),
        cost_model=LinearStepCostModel(),
        frequency_ghz=2.0,
        batch=BatchConfig(max_batch=max_batch, prefill=prefill),
        policy=resolve_scheduler(scheduler)(prefill_chunk=chunk),
    ).run()


prefill_configs = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),       # seed
    st.floats(min_value=10.0, max_value=1e6),            # rate
    st.integers(min_value=1, max_value=24),              # num_requests
    st.integers(min_value=1, max_value=6),               # max_batch
    st.sampled_from(SCHEDULER_NAMES),
    st.integers(min_value=1, max_value=600),             # prefill_chunk
)


class TestChunkConservation:
    @given(config=prefill_configs)
    def test_chunk_sizes_sum_to_prompt_tokens(self, config):
        seed, _, num_requests, max_batch, scheduler, chunk = config
        # Drive the scheduler directly (all requests present at t=0) and
        # record every planned chunk; the simulator's loop reuses exactly
        # these plan/complete primitives.
        scheduler_obj = ContinuousBatchScheduler(
            config=BatchConfig(max_batch=max_batch, prefill=True)
        )
        size_sampler = sampler(seed)
        requests = [size_sampler.sample(0.0) for _ in range(num_requests)]
        for request in requests:
            scheduler_obj.enqueue(request)
        policy = resolve_scheduler(scheduler)(prefill_chunk=chunk)
        chunks: dict[int, list[int]] = {r.request_id: [] for r in requests}
        step = 0
        while scheduler_obj.has_work:
            step += 1
            assert step < 100_000, "scheduler failed to drain"
            scheduler_obj.admit(float(step))
            plan = policy.plan(scheduler_obj.running).validate()
            for active, size in plan.prefill:
                chunks[active.request.request_id].append(size)
            complete_step(scheduler_obj, plan, float(step))
        for request in requests:
            assert sum(chunks[request.request_id]) == request.prompt_tokens
            assert all(size > 0 for size in chunks[request.request_id])

    @given(config=prefill_configs)
    def test_chunked_never_exceeds_budget(self, config):
        seed, _, num_requests, max_batch, _, chunk = config
        scheduler_obj = ContinuousBatchScheduler(
            config=BatchConfig(max_batch=max_batch, prefill=True)
        )
        size_sampler = sampler(seed)
        for request in [size_sampler.sample(0.0) for _ in range(num_requests)]:
            scheduler_obj.enqueue(request)
        policy = resolve_scheduler("chunked")(prefill_chunk=chunk)
        step = 0
        while scheduler_obj.has_work:
            step += 1
            assert step < 100_000, "scheduler failed to drain"
            scheduler_obj.admit(float(step))
            plan = policy.plan(scheduler_obj.running).validate()
            assert plan.prefill_tokens <= chunk
            complete_step(scheduler_obj, plan, float(step))


class TestDecodeNeutrality:
    @given(config=prefill_configs)
    def test_decode_token_counts_match_decode_only_scheduler(self, config):
        seed, rate, num_requests, max_batch, scheduler, chunk = config
        with_prefill = serve_run(seed, rate, num_requests, max_batch, scheduler, chunk)
        decode_only = serve_run(
            seed, rate, num_requests, max_batch, "decode-first", chunk, prefill=False
        )
        assert with_prefill.num_requests == decode_only.num_requests == num_requests
        tokens = {r.request_id: r.output_tokens for r in with_prefill.requests}
        baseline = {r.request_id: r.output_tokens for r in decode_only.requests}
        assert tokens == baseline
        assert with_prefill.total_output_tokens == decode_only.total_output_tokens


class TestPerPhasePercentiles:
    @given(config=prefill_configs)
    def test_prefill_and_decode_percentiles_monotone(self, config):
        metrics = serve_run(*config)
        assert metrics.has_prefill_phase
        assert len(metrics.prefills_s) == metrics.num_requests
        assert all(span >= 0 for span in metrics.prefills_s)
        assert (
            metrics.prefill_percentile_ms(50)
            <= metrics.prefill_percentile_ms(95)
            <= metrics.prefill_percentile_ms(99)
        )
        assert (
            metrics.decode_percentile_ms(50)
            <= metrics.decode_percentile_ms(95)
            <= metrics.decode_percentile_ms(99)
        )

    @given(config=prefill_configs)
    def test_phase_spans_tile_the_request_lifetime(self, config):
        metrics = serve_run(*config)
        for r in metrics.requests:
            assert r.arrival_s <= r.admitted_s <= r.prefill_end_s
            assert r.prefill_end_s <= r.first_token_s <= r.finish_s
            assert r.queue_s + r.prefill_s <= r.ttft_s + 1e-12


def test_every_registered_scheduler_is_covered():
    # The sampled_from corpus must track the registry: a newly registered
    # scheduler should extend SCHEDULER_NAMES (or register its own suite).
    registered = {entry.name for entry in SCHEDULERS.entries()}
    assert set(SCHEDULER_NAMES) <= registered
