"""The scenario-knob declarations: one per field, and the range checks they drive."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import pytest

from repro.api import Scenario
from repro.cluster.scenario import ClusterScenario
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier
from repro.serve.kvcache import KVCacheConfig
from repro.serve.metrics import ServeSLO
from repro.serve.scenario import ServeScenario, ServingScenario

SCENARIOS = (ServeScenario, ClusterScenario)


def _base(cls):
    return cls(workload="llama3-70b", tier=ScaleTier.SMOKE)


@pytest.mark.parametrize("cls", (*SCENARIOS, Scenario), ids=lambda c: c.__name__)
def test_every_field_is_declared_exactly_once(cls):
    for f in fields(cls):
        assert "knob" in f.metadata, f"{cls.__name__}.{f.name} has no knob() declaration"
        owners = [c.__name__ for c in cls.__mro__ if f.name in vars(c).get("__annotations__", {})]
        assert len(owners) == 1, f"{f.name} is declared in {owners}"


def test_scenarios_add_only_their_own_fields():
    shared = {f.name for f in fields(ServingScenario)}
    assert {f.name for f in fields(ServeScenario)} - shared == {"system"}
    assert {f.name for f in fields(ClusterScenario)} - shared == {
        "replicas", "router", "disaggregated", "kv_transfer_ms", "systems", "router_params",
    }


FLOAT_FIELDS = [
    (cls, f.name) for cls in SCENARIOS for f in fields(cls) if "float" in str(f.type)
]


def test_float_fields_cover_every_documented_knob():
    names = {name for _, name in FLOAT_FIELDS}
    assert names == {
        "rate", "slo_ttft_ms", "slo_latency_ms", "telemetry_ms", "kv_swap_ms", "kv_transfer_ms",
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    ("cls", "name"), FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
)
def test_non_finite_float_rejected_naming_the_field(cls, name, value):
    scenario = replace(_base(cls), **{name: value})
    with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
        scenario.validate()


@pytest.mark.parametrize(
    ("cls", "name", "value", "match"),
    [
        (ServeScenario, "rate", 0.0, "rate must be positive"),
        (ServeScenario, "num_requests", 0, "num_requests must be positive"),
        (ServeScenario, "prefill_chunk", -1, "prefill_chunk must be positive"),
        (ServeScenario, "telemetry_ms", 0.0, "telemetry_ms must be positive"),
        (ClusterScenario, "replicas", 0, "replicas must be positive"),
        (ClusterScenario, "kv_transfer_ms", -0.5, "kv_transfer_ms must be non-negative"),
        (Scenario, "seq_len", 0, "seq_len must be positive, got 0"),
        (Scenario, "l2_mib", -1, "l2_mib must be positive, got -1"),
        (Scenario, "max_cycles", 0, "max_cycles must be positive, got 0"),
        (ServeScenario, "max_cycles", 0, "max_cycles must be positive, got 0"),
        (ClusterScenario, "max_cycles", 0, "max_cycles must be positive, got 0"),
    ],
)
def test_declared_ranges_are_checked(cls, name, value, match):
    with pytest.raises(ConfigError, match=match):
        replace(_base(cls), **{name: value}).validate()


@pytest.mark.parametrize("cls", SCENARIOS, ids=lambda c: c.__name__)
def test_zero_non_negative_and_none_optional_values_pass(cls):
    knobs = {"kv_swap_ms": 0.0, "slo_ttft_ms": None, "telemetry_ms": None}
    replace(_base(cls), **knobs).validate()


def test_kernel_none_optional_values_pass():
    replace(_base(Scenario), seq_len=None, l2_mib=None, max_cycles=None).validate()


@pytest.mark.parametrize("name", ["ttft_ms", "latency_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_slo_rejects_non_finite_objectives(name, value):
    with pytest.raises(ConfigError, match=f"ServeSLO.{name}"):
        ServeSLO(**{name: value}).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kv_config_rejects_non_finite_swap_latency(value):
    with pytest.raises(ConfigError, match="swap_ms must be finite"):
        KVCacheConfig(swap_ms=value).validate()
