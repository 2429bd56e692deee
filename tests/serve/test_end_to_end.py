"""End-to-end serving runs: determinism, cycle-engine step costs, sweeps."""

import pytest

from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier
from repro.registry import SYSTEMS, WORKLOADS, register_system, register_workload
from repro.serve import (
    BatchConfig,
    LinearStepCostModel,
    RequestSampler,
    ServeScenario,
    ServingSimulator,
    SimStepCostModel,
)
from repro.serve.arrival import closed_loop_arrivals, poisson_arrivals
from repro.sim.runner import cached_trace, clear_trace_cache, trace_cache_size
from repro.sweep.executor import run_sweep
from repro.sweep.spec import Grid
from repro.sweep.store import ResultStore


@pytest.fixture()
def tiny_serve_names(tiny_system, tiny_workload):
    """Register the tiny system/workload under serve-test names (and clean up)."""

    register_system("serve-tiny-sys")(lambda: tiny_system)
    register_workload("serve-tiny")(lambda seq_len=64: tiny_workload.with_seq_len(seq_len))
    yield {"system": "serve-tiny-sys", "workload": "serve-tiny"}
    SYSTEMS.unregister("serve-tiny-sys")
    WORKLOADS.unregister("serve-tiny")


def tiny_scenario(names, **overrides) -> ServeScenario:
    defaults = dict(
        workload=names["workload"],
        system=names["system"],
        arrival="poisson",
        rate=50_000.0,
        num_requests=6,
        max_batch=2,
        seed=0,
        tier=ScaleTier.FULL,
        prompt_tokens=(32, 64),
        output_tokens=(2, 4),
    )
    defaults.update(overrides)
    return ServeScenario(**defaults).validate()


class TestServingSimulatorWithLinearCosts:
    """Fast checks of the serving loop itself, cycle engine stubbed out."""

    def run_once(self, seed: int = 0, **kwargs):
        simulator = ServingSimulator(
            arrival=poisson_arrivals(
                RequestSampler(seed=seed, output_tokens=(2, 6)),
                rate=1000.0,
                num_requests=12,
            ),
            cost_model=LinearStepCostModel(),
            frequency_ghz=2.0,
            batch=BatchConfig(max_batch=3),
            **kwargs,
        )
        return simulator.run()

    def test_all_requests_complete_with_ordered_timestamps(self):
        metrics = self.run_once()
        assert metrics.num_requests == 12
        for r in metrics.requests:
            assert r.arrival_s <= r.admitted_s <= r.first_token_s <= r.finish_s

    def test_deterministic_across_runs(self):
        assert self.run_once().to_dict() == self.run_once().to_dict()

    def test_seed_changes_the_run(self):
        assert self.run_once(seed=0).to_dict() != self.run_once(seed=1).to_dict()

    def test_steps_bounded_by_total_output_tokens(self):
        metrics = self.run_once()
        # Each step decodes >= 1 token, so steps never exceed total tokens.
        assert 0 < metrics.steps <= metrics.total_output_tokens

    def test_closed_loop_completes_budget(self):
        simulator = ServingSimulator(
            arrival=closed_loop_arrivals(
                RequestSampler(seed=2, output_tokens=(2, 4)),
                rate=3,
                num_requests=9,
            ),
            cost_model=LinearStepCostModel(),
            frequency_ghz=2.0,
            batch=BatchConfig(max_batch=4),
        )
        assert simulator.run().num_requests == 9


class TestSimStepCostModel:
    def test_memoizes_repeated_shapes(self, tiny_system, tiny_workload, unopt_policy):
        model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy)
        first = model.step_cycles(1, 64)
        assert model.simulations == 1
        assert model.step_cycles(1, 64) == first
        assert model.simulations == 1            # memo hit, no new simulation
        # Contexts within one bucket share the entry too.
        assert model.step_cycles(1, 33) == first
        assert model.simulations == 1

    def test_batch_grows_the_workload(self, tiny_system, tiny_workload, unopt_policy):
        model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy)
        batched = model.batched_workload(3, 100)
        assert batched.shape.num_kv_heads == tiny_workload.shape.num_kv_heads * 3
        assert batched.shape.seq_len == 128      # 100 -> next power of two
        # The batch lives in the head dimension only, so the byte accessors
        # count the batched KV footprint exactly once (3x a single request).
        assert batched.batch_size == 1
        assert batched.kv_tensor_bytes == 3 * tiny_workload.with_seq_len(128).kv_tensor_bytes
        single = model.step_cycles(1, 64)
        double = model.step_cycles(2, 64)
        assert model.simulations == 2
        assert double > single                   # more requests, more work

    def test_tier_scales_the_context(self, tiny_system, tiny_workload, unopt_policy):
        model = SimStepCostModel(
            tiny_system, tiny_workload, unopt_policy, tier=ScaleTier.CI
        )
        # 4096 tokens / 32 = 128: the CI tier simulates the scaled bucket.
        assert model.batched_workload(1, 4096).shape.seq_len == 128

    def test_rejects_degenerate_shapes(self, tiny_system, tiny_workload, unopt_policy):
        model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy)
        with pytest.raises(ConfigError):
            model.step_cycles(0, 64)


class TestServeScenario:
    def test_run_is_reproducible(self, tiny_serve_names):
        a = tiny_scenario(tiny_serve_names).run()
        b = tiny_scenario(tiny_serve_names).run()
        assert a.to_dict() == b.to_dict()
        assert a.num_requests == 6
        assert a.latency_percentile_ms(50) <= a.latency_percentile_ms(95)
        assert a.latency_percentile_ms(95) <= a.latency_percentile_ms(99)
        assert a.tokens_per_s > 0
        assert a.meta["step_simulations"] >= 1

    def test_run_clears_the_trace_cache(self, tiny_serve_names, tiny_system, tiny_workload):
        clear_trace_cache()
        cached_trace(tiny_workload.with_seq_len(128), tiny_system)  # foreign entry
        assert trace_cache_size() == 1
        tiny_scenario(tiny_serve_names).run()
        # Serve runs clear the module-level cache on exit, so neither the
        # foreign trace nor the serve steps' own traces linger into whatever
        # the long-lived process runs next.
        assert trace_cache_size() == 0

    def test_label_excluded_from_key(self, tiny_serve_names):
        base = tiny_scenario(tiny_serve_names)
        labelled = tiny_scenario(tiny_serve_names, label="pretty name")
        assert base.key() == labelled.key()
        assert base.key() != tiny_scenario(tiny_serve_names, rate=60_000.0).key()
        assert base.key() != tiny_scenario(tiny_serve_names, seed=1).key()

    def test_round_trip(self, tiny_serve_names):
        scenario = tiny_scenario(
            tiny_serve_names,
            arrival="bursty",
            arrival_params=(("burst_size", 2),),
            slo_latency_ms=5.0,
        )
        rebuilt = ServeScenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.key() == scenario.key()

    def test_validate_rejects_unknown_names(self, tiny_serve_names):
        with pytest.raises(ConfigError):
            tiny_scenario(tiny_serve_names, arrival="tsunami")
        with pytest.raises(ConfigError):
            tiny_scenario(tiny_serve_names, workload="gpt-7")
        with pytest.raises(ConfigError):
            tiny_scenario(tiny_serve_names, rate=-1.0)

    def test_slo_attainment_reported(self, tiny_serve_names):
        metrics = tiny_scenario(tiny_serve_names, slo_latency_ms=1e9).run()
        assert metrics.slo_attainment == 1.0


class TestServeSweep:
    def test_grid_runs_and_resumes_through_the_store(self, tiny_serve_names, tmp_path):
        grid = Grid(
            ServeScenario(
                workload=tiny_serve_names["workload"],
                num_requests=4,
                max_batch=2,
                system=tiny_serve_names["system"],
                tier=ScaleTier.FULL,
                prompt_tokens=(32, 64),
                output_tokens=(2, 4),
            ),
            (("rate", (40_000.0, 80_000.0)),),
        ).validate()
        points = grid.expand()
        store = ResultStore(tmp_path / "serve.jsonl")
        report = run_sweep(points, jobs=1, store=store)
        assert report.num_ok == 2 and report.num_simulated == 2
        metrics = report.result_for(points[0])
        assert metrics.num_requests == 4
        assert {r.kind for r in store.records()} == {"serve"}

        # Second run resumes entirely from disk, bit-identical.
        resumed = run_sweep(points, jobs=1, store=ResultStore(store.path))
        assert resumed.num_cached == 2
        assert resumed.result_for(points[0]).to_dict() == metrics.to_dict()

    def test_grid_validation(self):
        base = ServeScenario(workload="llama3-70b")
        grid = Grid(
            base,
            (
                ("rate", (1000.0, 2000.0, 4000.0)),
                ("arrival", ("poisson", "bursty")),
                ("policy", ("unopt", "dynmg")),
            ),
        )
        assert grid.validate().num_points == 12
        assert len(grid.expand()) == 12
        with pytest.raises(ConfigError):
            Grid(base, (("rate", ()),)).validate()
        with pytest.raises(ConfigError):
            Grid(base, (("workload", ("gpt-7",)), ("rate", (1.0,)))).expand()
        with pytest.raises(ConfigError, match="not a field of ServeScenario"):
            Grid(base, (("replicas", (2,)),)).validate()

    def test_labels_describe_and_kind(self):
        point = Grid(ServeScenario(workload="llama3-70b"), (("rate", (1000.0,)),)).expand()[0]
        assert point.label == "unopt@poisson@1000"
        assert point.scenario.rate == 1000.0
        assert point.scenario.workload == "llama3-70b"
        assert point.describe() == (
            "unopt@poisson@1000: serve llama3-70b poisson@1000 decode-first "
            "n=32 b<=4 seed=0"
        )
        assert point.config_dict()["kind"] == "serve"
        assert point.key() == point.scenario.key()
