"""Smoke tests for the figure/table harnesses on very small configurations.

These use custom (tiny) sequence lengths so the whole module stays fast; the
full paper-shaped sweeps run as the registered benches of
:mod:`repro.bench.suite`.
"""

from __future__ import annotations

import pytest

from repro.config.policies import PolicyConfig, ThrottleKind
from repro.config.scale import ScaleTier
from repro.experiments.fig7 import run_fig7_throttling
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.tables import run_table2_sampling_sweep
from repro.sim.runner import clear_trace_cache

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_trace_cache()
    yield


class TestFig7Harness:
    def test_throttling_panel_structure(self):
        result = run_fig7_throttling(
            tier=ScaleTier.CI, models=("llama3-70b",), seq_lens=(2048,)
        )
        assert set(result.speedups) == {"llama3-70b"}
        series = result.speedups["llama3-70b"]
        assert set(series) == {"dyncta", "lcs", "dynmg"}
        for values in series.values():
            assert len(values) == 1
            assert 0.5 < values[0] < 2.5
        assert "Fig 7" in result.render()

    def test_geomean_accessor(self):
        result = run_fig7_throttling(
            tier=ScaleTier.CI, models=("llama3-70b",), seq_lens=(2048,)
        )
        assert result.geomean("llama3-70b", "dynmg") == pytest.approx(
            result.speedups["llama3-70b"]["dynmg"][0]
        )


class TestFig8Harness:
    def test_rows_have_all_metrics(self):
        policies = {
            "unoptimized": PolicyConfig(),
            "dynmg": PolicyConfig(throttle=ThrottleKind.DYNMG),
        }
        result = run_fig8(tier=ScaleTier.CI, seq_len=2048, policies=policies)
        assert [row["policy"] for row in result.rows] == ["unoptimized", "dynmg"]
        for row in result.rows:
            assert 0 <= row["l2_hit_rate"] <= 1
            assert 0 <= row["mshr_hit_rate"] <= 1
            assert row["dram_bw_gbps"] > 0
        assert result.rows[0]["performance"] == pytest.approx(1.0)
        assert "Fig 8" in result.render()


class TestFig9Harness:
    def test_normalisation_against_32mb_reference(self):
        policies = {"unoptimized": PolicyConfig()}
        result = run_fig9(
            tier=ScaleTier.CI,
            models=("llama3-70b",),
            seq_len=4096,
            l2_sizes_mib=(16, 32),
            policies=policies,
        )
        series = result.speedups["llama3-70b"]["unoptimized"]
        assert len(series) == 2
        # At the reference size the unoptimized speedup is exactly 1 by construction.
        assert series[1] == pytest.approx(1.0)
        # A smaller cache can never be faster for the unoptimized configuration.
        assert series[0] <= 1.05


class TestParallelHarness:
    def test_fig9_parallel_matches_serial(self):
        """`jobs=2` must reproduce the serial Fig 9 sweep exactly."""

        kwargs = dict(
            tier=ScaleTier.CI,
            models=("llama3-70b",),
            seq_len=2048,
            l2_sizes_mib=(16, 32),
            policies={
                "unoptimized": PolicyConfig(),
                "dynmg": PolicyConfig(throttle=ThrottleKind.DYNMG),
            },
        )
        serial = run_fig9(jobs=1, **kwargs)
        parallel = run_fig9(jobs=2, **kwargs)
        assert parallel.speedups == serial.speedups
        assert {k: v.cycles for k, v in parallel.raw.items()} == {
            k: v.cycles for k, v in serial.raw.items()
        }


class TestTableSweeps:
    def test_sampling_period_sweep_rows(self):
        rows = run_table2_sampling_sweep(
            tier=ScaleTier.CI, seq_len=2048, sampling_periods=(1000, 2000)
        )
        assert len(rows) == 2
        for row in rows:
            assert row["cycles"] > 0
            assert row["speedup"] > 0.5
