"""Tests for the unified scenario API (repro.api)."""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import ClassVar

import pytest

from repro.api import Scenario
from repro.common.errors import ConfigError, SimulationError
from repro.config.policies import MultiGearParams, PolicyConfig, ThrottleKind
from repro.config.presets import llama3_70b_logit, table5_system_with_l2
from repro.config.scale import ScaleTier, scale_experiment
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.sweep.spec import Grid


class TestScenarioResolution:
    def test_resolves_same_configs_as_presets(self):
        scenario = Scenario(
            workload="llama3-70b", policy="dynmg+BMA", seq_len=4096,
            l2_mib=32, tier=ScaleTier.CI,
        )
        resolved = scenario.resolve()
        system, workload = scale_experiment(
            table5_system_with_l2(32), llama3_70b_logit(4096), ScaleTier.CI
        )
        assert resolved.system == system
        assert resolved.workload == workload
        assert resolved.policy.throttle == ThrottleKind.DYNMG

    def test_policy_config_escape_hatch_wins(self):
        custom = PolicyConfig(
            throttle=ThrottleKind.DYNMG,
            multigear=MultiGearParams(sampling_period=777),
        )
        scenario = Scenario.create("llama3-70b", custom, seq_len=64, tier=ScaleTier.SMOKE)
        assert scenario.policy == "dynmg"
        assert scenario.resolve().policy.multigear.sampling_period == 777

    def test_unknown_names_raise_config_error(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            Scenario(workload="gpt-7").validate()
        with pytest.raises(ConfigError, match="unknown system"):
            Scenario(workload="llama3-70b", system="cray-1").validate()
        with pytest.raises(ConfigError, match="unknown policy"):
            Scenario(workload="llama3-70b", policy="warpdrive").validate()

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ConfigError, match="seq_len"):
            Scenario(workload="llama3-70b", seq_len=0).validate()
        with pytest.raises(ConfigError, match="l2_mib"):
            Scenario(workload="llama3-70b", l2_mib=-1).validate()

    def test_string_ordering_rejected_with_config_error(self):
        with pytest.raises(ConfigError, match="ordering"):
            Scenario(workload="llama3-70b", ordering="sequential").validate()

    def test_from_dict_parses_ordering_names(self):
        scenario = Scenario.from_dict({"workload": "llama3-70b", "ordering": "sequential"})
        assert scenario.ordering is ThreadBlockOrdering.SEQUENTIAL
        with pytest.raises(ConfigError, match="unknown thread-block ordering"):
            Scenario.from_dict({"workload": "llama3-70b", "ordering": "bogus"})

    def test_seq_len_coord_uses_builder_default(self):
        assert Scenario(workload="llama3-70b").to_point().coord("seq_len") == 8192
        assert Scenario(workload="llama3-70b", seq_len=128).to_point().coord("seq_len") == 128


class TestScenarioRoundTrip:
    CASES: ClassVar[list[Scenario]] = [
        Scenario(workload="llama3-70b"),
        Scenario(
            workload="llama3-405b-attend",
            policy="dynmg+BMA",
            system="table5-32core",
            seq_len=2048,
            l2_mib=64,
            tier=ScaleTier.SMOKE,
            ordering=ThreadBlockOrdering.SEQUENTIAL,
            constraints=DataflowConstraints(output_lines_per_block=2),
            max_cycles=123_456,
            label="fancy",
        ),
        Scenario.create(
            "llama3-70b",
            PolicyConfig(
                throttle=ThrottleKind.DYNMG,
                multigear=MultiGearParams(sampling_period=777),
            ),
            tier=ScaleTier.CI,
        ),
    ]

    #: The exact ``to_dict()`` of the kitchen-sink and policy-config cases:
    #: stored scenarios and their content keys depend on every key and value.
    ENCODED: ClassVar[list[dict]] = [
        {
            "workload": "llama3-405b-attend",
            "policy": "dynmg+BMA",
            "system": "table5-32core",
            "seq_len": 2048,
            "l2_mib": 64,
            "tier": "SMOKE",
            "ordering": "sequential",
            "constraints": {
                "vector_axis": "d",
                "min_inner_bytes": 64,
                "output_lines_per_block": 2,
                "line_size": 64,
            },
            "max_cycles": 123456,
            "label": "fancy",
            "policy_config": None,
        },
        {
            "workload": "llama3-70b",
            "policy": "dynmg",
            "system": "table5",
            "seq_len": None,
            "l2_mib": None,
            "tier": "CI",
            "ordering": "gqa-shared",
            "constraints": None,
            "max_cycles": None,
            "label": None,
            "policy_config": {
                "arbitration": "fcfs",
                "throttle": "dynmg",
                "multigear": {
                    "sampling_period": 777,
                    "max_gear": 4,
                    "gear_fractions": [0.0, 0.125, 0.25, 0.5, 0.75],
                    "thresholds": {"low_upper": 0.1, "normal_upper": 0.2, "high_upper": 0.375},
                },
                "incore": {
                    "sub_period": 400,
                    "c_idle_upper": 4,
                    "c_mem_upper": 250,
                    "c_mem_lower": 180,
                    "min_thread_blocks": 1,
                },
                "dyncta": {
                    "sampling_period": 2048,
                    "c_idle_threshold": 16,
                    "c_mem_high": 1228,
                    "c_mem_low": 409,
                    "min_thread_blocks": 1,
                },
                "lcs": {"observation_blocks": 1, "target_latency_factor": 2.0},
                "mshr_aware": {"hit_buffer_size": 16, "sent_reqs_size": 16},
                "cobrra": {"resp_priority_threshold": 0.5, "predictor_entries": 64},
            },
        },
    ]

    @pytest.mark.parametrize("scenario", CASES, ids=["defaults", "kitchen-sink", "policy-config"])
    def test_from_dict_to_dict_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("index", [1, 2], ids=["kitchen-sink", "policy-config"])
    def test_to_dict_is_pinned(self, index):
        encoded = self.CASES[index].to_dict()
        assert encoded == self.ENCODED[index - 1]
        assert list(encoded) == list(self.ENCODED[index - 1])  # key order too

    def test_to_dict_is_json_ready(self):
        import json

        for scenario in self.CASES:
            json.dumps(scenario.to_dict(), sort_keys=True)


class TestScenarioKey:
    def test_key_agrees_with_sweep_point(self):
        scenario = Scenario(
            workload="llama3-70b", policy="dynmg", seq_len=2048,
            l2_mib=16, tier=ScaleTier.CI,
        )
        point = Scenario.create(
            "llama3-70b", "dynmg", seq_len=2048, l2_mib=16, tier=ScaleTier.CI
        ).to_point()
        assert scenario.key() == point.key()
        assert scenario.to_point() == point

    def test_key_ignores_display_label(self):
        a = Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE)
        b = Scenario(
            workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE, label="other"
        )
        assert a.key() == b.key()

    def test_key_changes_with_constraints(self):
        base = Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE)
        constrained = Scenario(
            workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE,
            constraints=DataflowConstraints(output_lines_per_block=2),
        )
        assert base.key() != constrained.key()


class TestScenarioRun:
    def test_run_matches_run_policy_on_resolved_inputs(self):
        from repro.sim.runner import run_policy

        scenario = Scenario(
            workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE, policy="dynmg",
            ordering=ThreadBlockOrdering.SEQUENTIAL,
        )
        resolved = scenario.resolve()
        direct = run_policy(
            resolved.system, resolved.workload, resolved.policy,
            label=scenario.display_label, ordering=ThreadBlockOrdering.SEQUENTIAL,
        )
        assert scenario.run().to_dict() == direct.to_dict()

    def test_speedup_from_two_runs(self):
        """The README's comparison: two runs and a cycle ratio."""

        base = Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE)
        baseline = base.run()
        result = replace(base, policy="dynmg").run()
        assert baseline.label == "unopt" and result.label == "dynmg"
        assert baseline.speedup_over(baseline) == pytest.approx(1.0)
        assert result.speedup_over(baseline) == pytest.approx(baseline.cycles / result.cycles)

    def test_cycle_cap_error_carries_a_stall_report(self):
        scenario = Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE, max_cycles=1)
        with pytest.raises(SimulationError, match="did not complete within 1 cycles") as excinfo:
            scenario.run()
        report = excinfo.value.report
        assert report is not None and report.cycle == 0
        assert report.blocks_completed < report.blocks_total


class TestOneKernelRunPath:
    def test_every_front_door_calls_run_policy_once(
        self, monkeypatch, tiny_system, tiny_workload, unopt_policy
    ):
        """Scenario.run, a sweep point and a step-cost table miss each reach the
        engine through one run_policy call that forwards ordering, constraints
        and the cycle cap."""

        from repro.serve import stepcost as stepcost_module
        from repro.serve.stepcost import SimStepCostModel
        from repro.sim import runner as runner_module
        from repro.sweep.executor import run_sweep

        real_run_policy = runner_module.run_policy
        signature = inspect.signature(real_run_policy)
        calls = []

        def recording_run_policy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return real_run_policy(*args, **kwargs)

        # Each caller looks the name up in its own module namespace.
        monkeypatch.setattr(runner_module, "run_policy", recording_run_policy)
        monkeypatch.setattr(stepcost_module, "run_policy", recording_run_policy)
        constraints = DataflowConstraints(output_lines_per_block=2)
        knobs = dict(
            ordering=ThreadBlockOrdering.SEQUENTIAL, constraints=constraints, max_cycles=10**6
        )
        scenario = Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE, **knobs)

        result = scenario.run()
        assert len(calls) == 1
        run_sweep([scenario.to_point()], jobs=1).raise_on_failure()
        assert len(calls) == 2
        model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy, **knobs)
        model.step_cycles(1, 64)
        assert len(calls) == 3 and model.simulations == 1

        assert result.cycles > 0
        for call in calls:
            assert call["ordering"] is ThreadBlockOrdering.SEQUENTIAL
            assert call["constraints"] == constraints
            assert call["max_cycles"] == 10**6


class TestGridOverPolicyConfig:
    def test_policy_axis_over_a_policy_config_base_is_rejected(self):
        """A policy axis must not silently run the base's config in every cell."""

        base = Scenario.create(
            "llama3-70b", PolicyConfig(throttle=ThrottleKind.DYNMG), tier=ScaleTier.SMOKE
        )
        grid = Grid(base, (("policy", ("unopt", "lcs")),))
        with pytest.raises(ConfigError, match="policy_config"):
            grid.scenarios()
