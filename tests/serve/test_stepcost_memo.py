"""Differential test: the memoized step pricer against the un-memoized path.

:class:`SimStepCostModel` answers a repeated ``(batch, context)`` from an
exact memo and a repeated ``(batch, seq_bucket)`` from its table.  The oracle
here does neither: it builds each step's workload with
:meth:`~SimStepCostModel.batched_workload` and runs a fresh
:class:`~repro.sim.simulator.Simulator` on a trace generated from scratch (no
trace cache) per distinct shape.  A seeded corpus of decode and prefill lookups must
price identically, and the model's counters must show exactly one engine run
per distinct shape.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.config.scale import ScaleTier
from repro.serve.stepcost import PREFILL_MAX_BLOCKS, SimStepCostModel
from repro.sim.simulator import Simulator
from repro.trace.generator import generate_trace

#: tier -> largest decode context drawn; both reach the 64 and 128 buckets
#: (a CI-tier context is divided by 32 before bucketing).
MAX_CONTEXT = {ScaleTier.FULL: 128, ScaleTier.CI: 4096}


def corpus(tier: ScaleTier, seed: int = 0) -> list[tuple[str, int, int]]:
    """Seeded ``(kind, n, context)`` lookups; ``n`` is a batch or a chunk width."""

    rng = make_rng(seed)
    top = MAX_CONTEXT[tier]
    lookups = [
        # Contexts that share a bucket, then the bucket edge and one past it.
        ("decode", 1, 1),
        ("decode", 1, top // 4),
        ("decode", 1, top // 2),
        ("decode", 1, top // 2 + 1),
        # A prefill chunk wider than PREFILL_MAX_BLOCKS query blocks.
        ("prefill", 64 * PREFILL_MAX_BLOCKS * 4, top),
    ]
    for _ in range(40):
        context = int(rng.integers(1, top, endpoint=True))
        if rng.random() < 0.6:
            lookups.append(("decode", int(rng.integers(1, 3, endpoint=True)), context))
        else:
            lookups.append(("prefill", int(rng.integers(1, 1024, endpoint=True)), context))
    # Replay a slice so exact repeats hit the memo, not just the table.
    return lookups + lookups[:10]


def price(model: SimStepCostModel, kind: str, n: int, context: int) -> int:
    if kind == "decode":
        return model.step_cycles(n, context)
    return model.prefill_cycles(n, context)


class Oracle:
    """Un-memoized pricing: a fresh trace and simulation per distinct shape."""

    def __init__(self, model: SimStepCostModel) -> None:
        self.model = model
        self.shapes: dict[tuple[int, int], int] = {}

    def step(self, batch: int, context: int) -> int:
        workload = self.model.batched_workload(batch, context)
        shape = (batch, workload.shape.seq_len)
        if shape not in self.shapes:
            system = self.model.system
            trace = generate_trace(workload, system)
            self.shapes[shape] = Simulator(system, self.model.policy, trace).run().cycles
        return self.shapes[shape]

    def price(self, kind: str, n: int, context: int) -> int:
        if kind == "decode":
            return self.step(n, context)
        blocks = self.model.prefill_chunk_blocks(n)
        sim_blocks = min(blocks, PREFILL_MAX_BLOCKS)
        return (blocks // sim_blocks) * self.step(sim_blocks, context)


@pytest.mark.parametrize("tier", [ScaleTier.FULL, ScaleTier.CI], ids=lambda t: t.name)
def test_memo_matches_the_unmemoized_path(tier, tiny_system, tiny_workload, unopt_policy):
    model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy, tier=tier)
    oracle = Oracle(SimStepCostModel(tiny_system, tiny_workload, unopt_policy, tier=tier))
    lookups = corpus(tier)
    assert any(kind == "prefill" and n > 64 * PREFILL_MAX_BLOCKS for kind, n, _ in lookups)

    for kind, n, context in lookups:
        assert price(model, kind, n, context) == oracle.price(kind, n, context), (
            kind,
            n,
            context,
        )

    # Both buckets were visited, and several contexts shared each one.
    assert {bucket for _, bucket in oracle.shapes} == {64, 128}
    decode_keys = {(n, context) for kind, n, context in lookups if kind == "decode"}
    assert len(decode_keys) > len(oracle.shapes)
    assert model.simulations == len(oracle.shapes)
    assert model.table_size == len(oracle.shapes)
    assert model.hits + model.simulations == len(lookups)


def test_invalid_shapes_raise_on_a_warm_memo(tiny_system, tiny_workload, unopt_policy):
    model = SimStepCostModel(tiny_system, tiny_workload, unopt_policy)
    model.step_cycles(1, 64)
    model.prefill_cycles(64, 64)
    assert model.step_cycles(1, 64) == model.step_cycles(1, 64)
    with pytest.raises(ConfigError):
        model.step_cycles(0, 64)
    with pytest.raises(ConfigError):
        model.step_cycles(1, 0)
    with pytest.raises(ConfigError):
        model.prefill_cycles(0, 64)
    # Rejected shapes are not cached: they raise again.
    with pytest.raises(ConfigError):
        model.step_cycles(0, 64)
    assert model.simulations == 1
