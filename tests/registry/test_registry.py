"""Tests for the scenario-component registry subsystem."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.config.policies import ArbitrationKind, PolicyConfig, ThrottleKind
from repro.config.presets import llama3_70b_logit
from repro.registry import (
    POLICIES,
    SCHEDULERS,
    SYSTEMS,
    THROTTLES,
    WORKLOADS,
    Registry,
    register_workload,
    resolve_policy,
    resolve_scheduler,
    resolve_system,
    resolve_workload,
)


class TestGenericRegistry:
    def test_register_and_get(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1, description="first")
        assert reg.get("a")() == 1
        assert reg.entry("a").description == "first"
        assert "a" in reg
        assert len(reg) == 1

    def test_decorator_returns_target_unchanged(self):
        reg: Registry = Registry("widget")

        @reg.register("fn")
        def fn():
            """Docstring becomes the description."""
            return 42

        assert fn() == 42
        assert reg.get("fn") is fn
        assert reg.entry("fn").description == "Docstring becomes the description."

    def test_duplicate_name_rejected(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ConfigError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_duplicate_allowed_with_replace(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1)
        reg.register("a", lambda: 2, replace=True)
        assert reg.get("a")() == 2

    def test_replace_over_alias_evicts_stale_mapping(self):
        reg: Registry = Registry("widget")
        reg.register("canonical", lambda: 1, aliases=("other",))
        reg.register("other", lambda: 2, replace=True)
        # The override is reachable, not shadowed by the stale alias...
        assert reg.get("other")() == 2
        # ...and the original entry still answers under its own name, with the
        # surrendered alias stripped from its listing metadata.
        assert reg.get("canonical")() == 1
        assert reg.names() == ["canonical", "other"]
        assert reg.entry("canonical").aliases == ()

    def test_replace_entry_evicts_its_aliases(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1, aliases=("b",))
        reg.register("a", lambda: 2, replace=True)
        assert reg.get("a")() == 2
        assert "b" not in reg

    def test_unknown_name_lists_known_names(self):
        reg: Registry = Registry("widget")
        reg.register("alpha", object())
        reg.register("beta", object())
        with pytest.raises(ConfigError, match=r"unknown widget 'gamma'.*alpha.*beta"):
            reg.get("gamma")

    def test_aliases_resolve_to_canonical_entry(self):
        reg: Registry = Registry("widget")
        reg.register("canonical", lambda: 1, aliases=("other", "alt"))
        assert reg.get("other")() == 1
        assert reg.get("alt")() == 1
        assert reg.names() == ["canonical"]

    def test_alias_collision_rejected(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1, aliases=("b",))
        with pytest.raises(ConfigError, match="already registered"):
            reg.register("b", lambda: 2)

    def test_unregister_removes_entry_and_aliases(self):
        reg: Registry = Registry("widget")
        reg.register("a", lambda: 1, aliases=("b",))
        reg.unregister("a")
        assert "a" not in reg
        assert "b" not in reg
        with pytest.raises(ConfigError):
            reg.unregister("a")

    def test_normalize_makes_lookup_case_insensitive(self):
        reg: Registry = Registry("widget", normalize=str.lower)
        reg.register("MiXeD", lambda: 1)
        assert reg.get("mixed")() == 1
        assert reg.get("MIXED")() == 1


class TestBuiltinRegistries:
    def test_builtin_workloads_registered(self):
        assert {"llama3-70b", "llama3-405b", "llama3-70b-attend", "llama3-405b-attend"} <= set(
            WORKLOADS.names()
        )

    def test_builtin_systems_registered(self):
        assert {"table5", "table5-32core"} <= set(SYSTEMS.names())

    def test_builtin_throttles_cover_every_kind(self):
        for kind in ThrottleKind:
            assert kind.value in THROTTLES

    def test_builtin_schedulers_registered(self):
        assert {"decode-first", "prefill-first", "chunked"} <= set(SCHEDULERS.names())
        # Aliases resolve, and builders honour the uniform prefill_chunk knob.
        assert resolve_scheduler("chunked-prefill") is resolve_scheduler("chunked")
        assert resolve_scheduler("chunked")(prefill_chunk=128).prefill_chunk == 128
        with pytest.raises(ConfigError):
            resolve_scheduler("clairvoyant")

    def test_resolve_workload_matches_preset(self):
        assert resolve_workload("llama3-70b", 1024) == llama3_70b_logit(1024)

    def test_resolve_workload_default_seq_len(self):
        assert resolve_workload("llama3-70b").shape.seq_len == 8192

    def test_resolve_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload 'gpt-7'"):
            resolve_workload("gpt-7", 64)

    def test_new_scenario_variants(self):
        attend = resolve_workload("llama3-405b-attend", 2048)
        assert attend.operator.value == "attend"
        assert attend.shape.group_size == 16
        system = resolve_system("table5-32core")
        assert system.core.num_cores == 32
        assert system.l2.num_slices == 16
        # Per-slice geometry matches the paper's system.
        assert system.l2.slice_size_bytes == resolve_system("table5").l2.slice_size_bytes

    def test_policy_label_resolution_is_case_insensitive(self):
        assert resolve_policy("DYNMG+bma") == resolve_policy("dynmg+BMA")

    def test_policy_alias(self):
        assert resolve_policy("unoptimized") == resolve_policy("unopt")

    def test_compositional_fallback(self):
        policy = resolve_policy("lcs+MA")
        assert policy.throttle == ThrottleKind.LCS
        assert policy.arbitration == ArbitrationKind.MSHR_AWARE
        assert "lcs+MA".lower() not in [n.lower() for n in POLICIES.names()]

    def test_unknown_policy_component(self):
        with pytest.raises(ConfigError, match="unknown policy 'dynmg\\+warp'"):
            resolve_policy("dynmg+warp")


class TestThrottleFactoryRegistry:
    def test_factory_builds_registered_controller(self):
        from repro.throttle.dynmg import DynMgController
        from repro.throttle.factory import make_throttle_controller

        controller = make_throttle_controller(PolicyConfig(throttle=ThrottleKind.DYNMG))
        assert isinstance(controller, DynMgController)


class TestExtensibility:
    """A workload registered via the decorator is usable everywhere at once."""

    def test_registered_workload_reaches_every_layer(self, capsys):
        from repro.api import Scenario
        from repro.cli import main
        from repro.sweep.spec import Grid

        @register_workload("test-tiny", description="throwaway test workload")
        def tiny_builder(seq_len: int = 64):
            return llama3_70b_logit(seq_len).with_seq_len(seq_len)

        try:
            # Declarative sweep grids validate and expand it...
            grid = Grid(
                Scenario(workload="llama3-70b", seq_len=64),
                (("workload", ("test-tiny",)), ("policy", ("unopt",))),
            ).validate()
            (point,) = grid.expand()
            assert point.workload.shape.seq_len == 64
            # ...a Scenario resolves it...
            scenario = Scenario(workload="test-tiny", seq_len=64).validate()
            assert scenario.resolve().workload.shape.seq_len == 64
            # ...and the CLI lists it, with zero edits anywhere.
            assert main(["list", "workloads"]) == 0
            assert "test-tiny" in capsys.readouterr().out
        finally:
            WORKLOADS.unregister("test-tiny")
        assert "test-tiny" not in WORKLOADS
