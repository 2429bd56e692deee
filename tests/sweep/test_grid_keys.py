"""Grid identity is pinned: labels, content keys, describe() text, kind tags.

``tests/golden/sweep_grid_keys.json`` was generated from the per-kind sweep
spec classes that :class:`~repro.sweep.spec.Grid` replaced, so result stores
written before the change keep resolving to the same keys.  Never regenerate
it: a mismatch here means stored sweeps would re-simulate on resume.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ClusterScenario, Scenario, ServeScenario
from repro.config.presets import FIG9_L2_MIB, FIG9_SEQ_LEN
from repro.config.scale import ScaleTier
from repro.sweep.spec import FIG9_POLICY_LABELS, Grid

FIXTURE = Path(__file__).parents[1] / "golden" / "sweep_grid_keys.json"

SMOKE = ScaleTier.SMOKE


def _serve(**knobs) -> ServeScenario:
    return ServeScenario(workload="llama3-70b", tier=SMOKE, num_requests=8, **knobs)


def _cluster(**knobs) -> ClusterScenario:
    return ClusterScenario(workload="llama3-70b", tier=SMOKE, num_requests=8, **knobs)


GRIDS = {
    # CI's `sweep --serve` rate, KV-axis and scheduler-axis smoke steps.
    "serve_rates": lambda: Grid(_serve(max_batch=2), (("rate", (1000.0, 2000.0, 4000.0)),)),
    "serve_kv": lambda: Grid(
        _serve(rate=4000.0, max_batch=4, kv_budget=1024, kv_block=32),
        (("preemption", ("recompute", "swap")),),
    ),
    "serve_schedulers": lambda: Grid(
        _serve(rate=2000.0, max_batch=2),
        (("scheduler", ("decode-first", "prefill-first", "chunked")),),
    ),
    # CI's `sweep --cluster` replicas x routers smoke step.
    "cluster_fleet": lambda: Grid(
        _cluster(rate=2000.0, max_batch=2),
        (("replicas", (2, 4)), ("router", ("round-robin", "join-shortest-queue"))),
    ),
    # CI's kernel `sweep` smoke step.
    "kernel": lambda: Grid(
        Scenario(workload="llama3-70b", seq_len=2048, tier=ScaleTier.CI),
        (("l2_mib", (16, 32)), ("policy", ("unopt", "dynmg+BMA"))),
    ),
    # Fig 9's cache-size sweep: both models x the L2 sizes x the policy legend.
    "fig9_ci": lambda: Grid(
        Scenario(workload="llama3-70b", seq_len=FIG9_SEQ_LEN, tier=ScaleTier.CI),
        (
            ("workload", ("llama3-70b", "llama3-405b")),
            ("l2_mib", FIG9_L2_MIB),
            ("policy", FIG9_POLICY_LABELS),
        ),
    ),
    "serve_mixed": lambda: Grid(
        _serve(rate=1500.0, max_batch=2, telemetry_ms=2.0),
        (
            ("arrival", ("poisson", "bursty")),
            ("scheduler", ("decode-first", "chunked")),
            ("prefill_chunk", (64, 256)),
            ("kv_budget", (None, 2048, "system")),
        ),
    ),
    "cluster_mixed": lambda: Grid(
        _cluster(arrival="closed-loop", rate=4.0, max_batch=2, seed=3),
        (
            ("router", ("rr", "weighted")),
            ("kv_budget", (None, 1024)),
            ("kv_block", (1, 16)),
            ("preemption", ("recompute", "swap")),
        ),
    ),
}


def _entry(point) -> dict:
    return {
        "label": point.label,
        "key": point.key(),
        "describe": point.describe(),
        "kind": point.config_dict().get("kind"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_exactly_these_grids(golden):
    assert sorted(golden) == sorted(GRIDS)
    assert sum(len(points) for points in golden.values()) < 150


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_expansion_matches_golden_keys(name, golden):
    grid = GRIDS[name]()
    points = grid.expand()
    assert len(points) == grid.num_points
    assert [_entry(p) for p in points] == golden[name]
