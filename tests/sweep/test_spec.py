"""Tests for sweep grids: expansion, validation and content hashing."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig, ThrottleKind
from repro.config.scale import ScaleTier
from repro.sweep.spec import Grid, SweepPoint


def kernel_point(model: str, seq_len: int, policy: str, label: str | None = None, **kwargs):
    """One kernel sweep point, resolved through its Scenario."""

    return Scenario.create(model, policy, seq_len=seq_len, **kwargs).to_point(label=label)


def kernel_grid(tier=ScaleTier.SMOKE, **axes) -> Grid:
    """A kernel grid over ``axes`` (field -> values), in the given order."""

    return Grid(Scenario(workload="llama3-70b", tier=tier), tuple(axes.items()))


class TestGridExpansion:
    def test_point_count_is_cartesian_product(self):
        grid = kernel_grid(
            workload=("llama3-70b", "llama3-405b"),
            l2_mib=(16, 32),
            seq_len=(1024, 2048, 4096),
            policy=("unopt", "dynmg"),
        )
        assert grid.num_points == 2 * 3 * 2 * 2
        assert len(grid.expand()) == grid.num_points

    def test_expansion_is_deterministic(self):
        grid = kernel_grid(seq_len=(1024, 2048), policy=("unopt", "dynmg+BMA"))
        first, second = grid.expand(), grid.expand()
        assert first == second
        assert [p.key() for p in first] == [p.key() for p in second]

    def test_first_axis_is_outermost(self):
        grid = kernel_grid(l2_mib=(16, 32), policy=("unopt", "dynmg"))
        cells = [(s.l2_mib, s.policy) for s in grid.scenarios()]
        assert cells == [(16, "unopt"), (16, "dynmg"), (32, "unopt"), (32, "dynmg")]
        swapped = kernel_grid(policy=("unopt", "dynmg"), l2_mib=(16, 32))
        cells = [(s.l2_mib, s.policy) for s in swapped.scenarios()]
        assert cells == [(16, "unopt"), (32, "unopt"), (16, "dynmg"), (32, "dynmg")]

    def test_all_keys_distinct_across_grid(self):
        # Seq lens chosen to stay distinct after SMOKE scaling (/64, floor 64).
        grid = kernel_grid(
            l2_mib=(16, 32), seq_len=(4096, 8192), policy=("unopt", "dynmg")
        )
        points = grid.expand()
        assert len({p.key() for p in points}) == len(points)

    def test_points_carry_scaled_configs(self):
        grid = kernel_grid(tier=ScaleTier.CI, l2_mib=(32,), seq_len=(4096,))
        (point,) = grid.expand()
        # CI tier divides both axes by 32.
        assert point.workload.shape.seq_len == 4096 // 32
        assert point.system.l2.size_bytes == 32 * 2**20 // 32

    def test_no_axes_is_the_base_point(self):
        grid = kernel_grid()
        assert grid.num_points == 1
        assert grid.scenarios() == (grid.base,)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="must be non-empty"):
            kernel_grid(workload=(), policy=("unopt",)).validate()

    def test_axis_naming_a_missing_field_rejected(self):
        with pytest.raises(ConfigError, match="'l2_size' is not a field of Scenario"):
            kernel_grid(l2_size=(16,)).validate()

    def test_repeated_axis_rejected(self):
        grid = Grid(kernel_grid().base, (("l2_mib", (16,)), ("l2_mib", (32,))))
        with pytest.raises(ConfigError, match="appears twice"):
            grid.validate()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            kernel_grid(workload=("gpt-7",), seq_len=(64,)).expand()

    def test_malformed_policy_label_rejected(self):
        with pytest.raises(ConfigError):
            kernel_grid(seq_len=(64,), policy=("warpdrive",)).expand()

    def test_invalid_cell_value_rejected(self):
        with pytest.raises(ConfigError, match="seq_len must be positive"):
            kernel_grid(seq_len=(1024, 0)).scenarios()


class TestContentHash:
    def test_key_ignores_label_and_coords(self):
        a = kernel_point("llama3-70b", 2048, "unopt", tier=ScaleTier.CI, label="reference")
        b = kernel_point("llama3-70b", 2048, "unopt", tier=ScaleTier.CI, label="unoptimized")
        assert a.label != b.label
        assert a.key() == b.key()

    def test_key_changes_with_policy(self):
        a = kernel_point("llama3-70b", 2048, "unopt", tier=ScaleTier.CI)
        b = kernel_point("llama3-70b", 2048, "dynmg", tier=ScaleTier.CI)
        assert a.key() != b.key()

    def test_key_changes_with_l2_capacity(self):
        a = kernel_point("llama3-70b", 2048, "unopt", l2_mib=16, tier=ScaleTier.SMOKE)
        b = kernel_point("llama3-70b", 2048, "unopt", l2_mib=32, tier=ScaleTier.SMOKE)
        assert a.key() != b.key()

    def test_key_changes_with_max_cycles(self):
        a = kernel_point("llama3-70b", 2048, "unopt", tier=ScaleTier.CI)
        b = kernel_point("llama3-70b", 2048, "unopt", tier=ScaleTier.CI, max_cycles=10_000)
        assert a.key() != b.key()

    def test_key_stable_for_equal_points(self, tiny_system, tiny_workload):
        kwargs = dict(
            label="x",
            system=tiny_system,
            workload=tiny_workload,
            policy=PolicyConfig(throttle=ThrottleKind.DYNMG),
        )
        assert SweepPoint(**kwargs).key() == SweepPoint(**kwargs).key()

    def test_config_dict_is_json_ready(self, tiny_points):
        import json

        for point in tiny_points:
            text = json.dumps(point.config_dict(), sort_keys=True)
            assert "policy" in text


class TestPointHelpers:
    def test_coord_lookup(self):
        point = kernel_point("llama3-70b", 2048, "dynmg", l2_mib=16, tier=ScaleTier.CI)
        assert point.coord("model") == "llama3-70b"
        assert point.coord("l2_mib") == 16
        assert point.coord("missing", "fallback") == "fallback"

    def test_describe_mentions_workload_and_policy(self):
        point = kernel_point("llama3-70b", 2048, "dynmg+BMA", tier=ScaleTier.CI)
        text = point.describe()
        assert "llama3-70b" in text
        assert "dynmg+BMA" in text
