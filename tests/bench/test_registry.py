"""The BENCHES registry, BenchOutput contract, and the warmup/repeat runner."""

import pytest

from repro.bench.registry import (
    BENCHES,
    BenchOutput,
    BenchValue,
    bench_names,
    register_bench,
    resolve_bench,
)
from repro.bench.runner import run_bench, run_benches
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier

#: Every registered benchmark: one per paper artifact or serving scenario.
EXPECTED_BENCHES = {
    "serve_throughput",
    "cluster_throughput",
    "prefill_schedulers",
    "fig7_throttling",
    "fig7_arbitration",
    "fig7_cumulative",
    "fig8_mechanism",
    "fig9_cache_sweep",
    "table2_throttle_sweep",
    "table3_contention_sweep",
    "table4_incore_sweep",
    "table5_config",
    "hwcost_area",
    "kv_preemption",
}


@pytest.fixture()
def counting_bench():
    """A registered bench that counts its executions (and cleans up)."""

    calls = []

    def bench(tier: ScaleTier) -> BenchOutput:
        calls.append(tier)
        return BenchOutput(
            bench="counting",
            config={"tier": tier.value},
            values=(BenchValue("calls", float(len(calls)), ""),),
        )

    register_bench("counting")(bench)
    yield calls
    BENCHES.unregister("counting")


class TestRegistry:
    def test_all_fourteen_benches_registered(self):
        assert EXPECTED_BENCHES <= set(bench_names())

    def test_resolve_returns_the_callable(self, counting_bench):
        fn = resolve_bench("counting")
        fn(ScaleTier.SMOKE)
        assert counting_bench == [ScaleTier.SMOKE]

    def test_unknown_bench_rejected(self):
        with pytest.raises(ConfigError):
            resolve_bench("warp-drive")


class TestRunner:
    def test_warmup_runs_are_untimed_but_executed(self, counting_bench):
        run = run_bench("counting", warmup=2, repeat=3)
        assert len(counting_bench) == 5
        assert (run.warmup, run.repeat) == (2, 3)
        assert run.wall_s >= 0.0
        # The reported output is from a timed run, after the warmups.
        (calls,) = run.output.values
        assert calls.value >= 3.0

    def test_records_carry_one_row_per_value(self, counting_bench):
        run = run_bench("counting", repeat=1)
        (row,) = run.records()
        assert row.bench == "counting"
        assert row.metric == "calls"
        assert row.wall_s == round(run.wall_s, 3)

    def test_render_mentions_bench_and_values(self, counting_bench):
        text = run_bench("counting").render()
        assert "bench counting" in text
        assert "calls" in text

    def test_invalid_repeat_and_warmup_rejected(self):
        with pytest.raises(ConfigError):
            run_bench("counting", repeat=0)
        with pytest.raises(ConfigError):
            run_bench("counting", warmup=-1)

    def test_run_benches_preserves_order(self, counting_bench):
        runs = run_benches(["counting", "counting"])
        assert [r.output.bench for r in runs] == ["counting", "counting"]

    def test_registered_bench_is_deterministic(self):
        # table5_config is the fast analytical bench: two runs, same values.
        first = run_bench("table5_config", tier=ScaleTier.SMOKE)
        second = run_bench("table5_config", tier=ScaleTier.SMOKE)
        assert first.output.values == second.output.values
        assert first.output.config == second.output.config
