"""A warm step-cost model prices a serving run exactly like a cold one.

Each scenario runs once on a fresh :class:`SimStepCostModel`; then a freshly
built simulator gets that same model through its public ``cost_model``
attribute and runs again.  The second run must reproduce the first byte for
byte without a single new cycle-engine run.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.scenario import ClusterScenario
from repro.config.scale import ScaleTier
from repro.registry import SYSTEMS, WORKLOADS, register_system, register_workload
from repro.serve.scenario import ServeScenario
from repro.sim.runner import clear_trace_cache

#: KV on, chunked prefill: every step kind (decode, prefill chunk, mixed) and
#: recompute preemption reach the cost model.
KNOBS = dict(
    workload="warm-tiny",
    tier=ScaleTier.FULL,
    rate=50_000.0,
    num_requests=12,
    max_batch=3,
    scheduler="chunked",
    prefill_chunk=48,
    prompt_tokens=(32, 96),
    output_tokens=(2, 8),
    kv_budget=256,
    kv_block=16,
)


@pytest.fixture()
def warm_tiny_names(tiny_system, tiny_workload):
    register_system("warm-tiny-sys")(lambda: tiny_system)
    register_workload("warm-tiny")(lambda seq_len=64: tiny_workload.with_seq_len(seq_len))
    yield
    SYSTEMS.unregister("warm-tiny-sys")
    WORKLOADS.unregister("warm-tiny")
    clear_trace_cache()


def cost_models(simulator) -> list:
    replicas = getattr(simulator, "replicas", None)
    if replicas is None:
        return [simulator.cost_model]
    return list({id(r.cost_model): r.cost_model for r in replicas}.values())


def install(simulator, model) -> None:
    for replica in getattr(simulator, "replicas", [simulator]):
        replica.cost_model = model


@pytest.mark.parametrize(
    "scenario",
    [
        ServeScenario(system="warm-tiny-sys", **KNOBS),
        ClusterScenario(
            systems=("warm-tiny-sys",), replicas=2, router="join-shortest-queue", **KNOBS
        ),
    ],
    ids=["serve", "cluster"],
)
def test_warm_run_is_byte_identical_and_simulates_nothing(warm_tiny_names, scenario):
    scenario = scenario.validate()
    cold_simulator = scenario.build_simulator()
    cold = json.dumps(cold_simulator.run().to_dict(), sort_keys=True)
    (model,) = cost_models(cold_simulator)
    simulations, hits = model.simulations, model.hits
    assert simulations >= 1

    warm_simulator = scenario.build_simulator()
    install(warm_simulator, model)
    warm = json.dumps(warm_simulator.run().to_dict(), sort_keys=True)

    assert warm == cold
    assert model.simulations == simulations
    assert model.hits > hits
