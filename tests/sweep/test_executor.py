"""Tests for the parallel sweep executor: correctness vs the serial path,
store-backed resume, dedup and per-point failure capture."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.config.policies import PolicyConfig, ThrottleKind
from repro.config.presets import llama3_70b_logit, table5_system
from repro.config.scale import ScaleTier, scale_experiment
from repro.sim.runner import run_policy
from repro.sweep import executor as executor_module
from repro.sweep.executor import run_sweep
from repro.sweep.spec import Grid, SweepPoint
from repro.sweep.store import ResultStore

CI_POLICIES = {
    "unopt": PolicyConfig(),
    "dynmg": PolicyConfig(throttle=ThrottleKind.DYNMG),
}


class TestSerialEquivalence:
    def test_matches_run_policy_on_ci_tier_grid(self):
        """The executor must reproduce the serial path cycle-for-cycle."""

        seq_len = 2048
        system, workload = scale_experiment(
            table5_system(), llama3_70b_logit(seq_len), ScaleTier.CI
        )
        serial = {
            name: run_policy(system, workload, policy, label=name)
            for name, policy in CI_POLICIES.items()
        }

        grid = Grid(
            Scenario(workload="llama3-70b", seq_len=seq_len, tier=ScaleTier.CI),
            (("policy", tuple(CI_POLICIES)),),
        )
        points = grid.expand()
        # run_sweep expands a Grid itself, in the same order.
        report = run_sweep(grid, jobs=1).raise_on_failure()
        assert [o.point for o in report.outcomes] == list(points)
        for point in points:
            name = point.coord("policy")
            assert report.result_for(point).cycles == serial[name].cycles


class TestParallelEquivalence:
    def test_parallel_results_identical_to_serial(self, tiny_points):
        serial = run_sweep(tiny_points, jobs=1).raise_on_failure()
        parallel = run_sweep(tiny_points, jobs=2).raise_on_failure()
        for point in tiny_points:
            assert parallel.result_for(point) == serial.result_for(point)

    def test_outcomes_align_with_submission_order(self, tiny_points):
        report = run_sweep(tiny_points, jobs=2).raise_on_failure()
        assert [o.point for o in report.outcomes] == tiny_points

    def test_invalid_jobs_rejected(self, tiny_points):
        with pytest.raises(ValueError):
            run_sweep(tiny_points[:1], jobs=0)


class TestDedup:
    def test_identical_configs_simulate_once(self, tiny_points, monkeypatch):
        point = tiny_points[0]
        twin = SweepPoint(
            label="twin",
            system=point.system,
            workload=point.workload,
            policy=point.policy,
        )
        calls = []
        original = executor_module._execute_point

        def counting(p):
            calls.append(p.label)
            return original(p)

        monkeypatch.setattr(executor_module, "_execute_point", counting)
        report = run_sweep([point, twin], jobs=1).raise_on_failure()
        assert len(calls) == 1
        # Both points are answered, each under its own label.
        assert report.outcomes[0].result.label == point.label
        assert report.outcomes[1].result.label == "twin"
        assert report.outcomes[0].result.cycles == report.outcomes[1].result.cycles


class TestStoreResume:
    def test_second_invocation_is_fully_cached(self, tmp_path, tiny_points):
        path = tmp_path / "results.jsonl"
        first = run_sweep(tiny_points, jobs=1, store=ResultStore(path)).raise_on_failure()
        assert first.num_simulated == len(tiny_points)

        second = run_sweep(tiny_points, jobs=1, store=ResultStore(path)).raise_on_failure()
        assert second.num_cached == len(tiny_points)
        assert second.num_simulated == 0
        for point in tiny_points:
            assert second.result_for(point) == first.result_for(point)

    def test_cached_points_never_reach_the_worker(self, tmp_path, tiny_points, monkeypatch):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_points, jobs=1, store=ResultStore(path)).raise_on_failure()

        def explode(point):
            raise AssertionError(f"re-simulated a stored point: {point.describe()}")

        monkeypatch.setattr(executor_module, "_execute_point", explode)
        report = run_sweep(tiny_points, jobs=1, store=ResultStore(path))
        assert report.num_cached == len(tiny_points)

    def test_killed_halfway_resumes_only_missing_points(self, tmp_path, tiny_points):
        """Simulate a sweep killed after half its points were persisted."""

        path = tmp_path / "results.jsonl"
        half = len(tiny_points) // 2
        run_sweep(tiny_points[:half], jobs=1, store=ResultStore(path)).raise_on_failure()

        report = run_sweep(tiny_points, jobs=1, store=ResultStore(path)).raise_on_failure()
        assert report.num_cached == half
        assert report.num_simulated == len(tiny_points) - half
        cached_keys = {o.point.key() for o in report.outcomes if o.cached}
        assert cached_keys == {p.key() for p in tiny_points[:half]}

    def test_force_resimulates_stored_points(self, tmp_path, tiny_points):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_points[:1], jobs=1, store=ResultStore(path)).raise_on_failure()
        report = run_sweep(
            tiny_points[:1], jobs=1, store=ResultStore(path), force=True
        ).raise_on_failure()
        assert report.num_simulated == 1
        assert report.num_cached == 0


class TestFailureCapture:
    @pytest.fixture()
    def doomed_point(self, tiny_points) -> SweepPoint:
        # max_cycles far below completion: the engine raises SimulationError.
        point = tiny_points[0]
        return SweepPoint(
            label="doomed",
            system=point.system,
            workload=point.workload,
            policy=point.policy,
            max_cycles=50,
        )

    def test_failure_is_captured_not_raised(self, tiny_points, doomed_point):
        report = run_sweep([doomed_point, tiny_points[1]], jobs=1)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.point.label == "doomed"
        assert "SimulationError" in failure.error
        # The healthy point still completed.
        assert report.result_for(tiny_points[1]).cycles > 0

    def test_raise_on_failure_raises_with_context(self, doomed_point):
        report = run_sweep([doomed_point], jobs=1)
        with pytest.raises(RuntimeError, match="1/1 sweep points failed"):
            report.raise_on_failure()

    def test_failed_points_are_retried_on_resume(self, tmp_path, tiny_points, doomed_point):
        path = tmp_path / "results.jsonl"
        run_sweep([doomed_point], jobs=1, store=ResultStore(path))
        report = run_sweep([doomed_point], jobs=1, store=ResultStore(path))
        assert report.num_cached == 0
        assert len(report.failures) == 1


class TestProgressCallback:
    def test_progress_fires_once_per_point(self, tiny_points):
        seen = []
        run_sweep(
            tiny_points,
            jobs=1,
            progress=lambda done, total, outcome: seen.append((done, total, outcome.ok)),
        )
        assert [s[0] for s in seen] == list(range(1, len(tiny_points) + 1))
        assert all(total == len(tiny_points) for _, total, _ in seen)
        assert all(ok for _, _, ok in seen)
