"""The scenarios whose metrics are pinned by golden fixtures.

These are exactly the configurations the CLI smoke presets run
(``llamcat serve --smoke --seed 0`` and ``llamcat cluster --smoke --seed 0``),
so the fixtures pin the same numbers CI's smoke steps print.  Any engine
change that shifts a cycle count, a timestamp or a derived aggregate fails the
golden comparison loudly; when the shift is intentional, regenerate with::

    PYTHONPATH=src python tests/golden/regen.py

and commit the updated fixtures together with the change that moved them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.analysis.runtime import StepProbe
from repro.api import ClusterScenario, ServeScenario
from repro.config.scale import ScaleTier
from repro.obs import ChromeTracer, Profiler

GOLDEN_DIR = Path(__file__).parent

#: fixture file name -> zero-argument callable producing the metrics object.
GOLDEN_SCENARIOS = {
    "serve_smoke.json": lambda: golden_serve_scenario().run(),
    "serve_chunked_smoke.json": lambda: golden_serve_chunked_scenario().run(),
    "serve_decode_only_smoke.json": lambda: golden_serve_decode_only_scenario().run(),
    "serve_kv_recompute_smoke.json": lambda: golden_serve_kv_scenario("recompute").run(),
    "serve_kv_swap_smoke.json": lambda: golden_serve_kv_scenario("swap").run(),
    "cluster_smoke.json": lambda: golden_cluster_scenario().run(),
    "cluster_disaggregated_smoke.json": (
        lambda: golden_cluster_disaggregated_scenario().run()
    ),
}

#: fixture file name -> zero-argument callable producing the observer outputs
#: (see :func:`observer_outputs`) of one smoke run.
OBSERVER_SCENARIOS = {
    "observers_serve_smoke.json": lambda: observer_outputs(golden_serve_scenario()),
    "observers_cluster_smoke.json": lambda: observer_outputs(golden_cluster_scenario()),
    "observers_cluster_disaggregated_smoke.json": (
        lambda: observer_outputs(golden_cluster_disaggregated_scenario())
    ),
}


def golden_serve_scenario() -> ServeScenario:
    """The configuration behind ``llamcat serve --smoke --seed 0``."""

    return ServeScenario(
        workload="llama3-70b",
        arrival="poisson",
        rate=2000.0,
        num_requests=8,
        max_batch=2,
        seed=0,
        policy="unopt",
        system="table5",
        tier=ScaleTier.SMOKE,
    ).validate()


def golden_serve_chunked_scenario() -> ServeScenario:
    """``llamcat serve --smoke --scheduler chunked --seed 0``."""

    return replace(golden_serve_scenario(), scheduler="chunked").validate()


def golden_serve_decode_only_scenario() -> ServeScenario:
    """Decode-first with prefill cost disabled: the legacy decode-only loop.

    Its fixture (``serve_decode_only_smoke.json``) is a frozen copy of the
    pre-prefill ``serve_smoke.json``, so this scenario pins the guarantee
    that free prefill under the decode-first scheduler reproduces the old
    scheduler's metrics bit-for-bit.  It must only ever regenerate as
    "unchanged".
    """

    return replace(
        golden_serve_scenario(), scheduler="decode-first", prefill_cost=False
    ).validate()


def golden_serve_kv_scenario(preemption: str) -> ServeScenario:
    """CI's KV smoke: ``llamcat serve --tier smoke --seed 0 --rate 4000
    --num-requests 8 --max-batch 4 --kv-budget 1024 --kv-block 32
    --preemption <preemption>``.

    Pins the KV-on meta (``kv_memory_bound_s``, ``preemption_rate``, peak
    utilization and fragmentation) of both preemption policies.
    """

    return replace(
        golden_serve_scenario(),
        rate=4000.0,
        max_batch=4,
        kv_budget=1024,
        kv_block=32,
        preemption=preemption,
    ).validate()


def golden_cluster_scenario() -> ClusterScenario:
    """The configuration behind ``llamcat cluster --smoke --seed 0``."""

    return ClusterScenario(
        workload="llama3-70b",
        arrival="poisson",
        rate=2000.0,
        num_requests=8,
        replicas=2,
        router="round-robin",
        max_batch=2,
        seed=0,
        policy="unopt",
        systems=("table5",),
        tier=ScaleTier.SMOKE,
    ).validate()


def golden_cluster_disaggregated_scenario() -> ClusterScenario:
    """``llamcat cluster --smoke --disaggregated --seed 0`` (a 1p1d split)."""

    return replace(golden_cluster_scenario(), disaggregated="1p1d").validate()


def observer_outputs(scenario) -> dict:
    """Run ``scenario`` at ``telemetry_ms=1`` with every observer installed.

    Returns what each observer recorded, reduced to deterministic data: the
    sha256 of the canonical Chrome trace JSON, the determinism probe's step
    digests, the telemetry series and the profiler's section call counts
    (wall time is left out; it differs on every run).
    """

    tracer, probe, profiler = ChromeTracer(), StepProbe(), Profiler(scope=scenario.kind)
    metrics = replace(scenario, telemetry_ms=1.0).validate().run(
        observers=[tracer, probe, profiler]
    )
    return {
        "trace_sha256": hashlib.sha256(tracer.to_json().encode()).hexdigest(),
        "probe": [digest.to_dict() for digest in probe.digests],
        "telemetry": metrics.telemetry.to_dict(),
        "profile_calls": {
            name: entry["calls"] for name, entry in profiler.as_dict().items()
        },
    }


def canonical(metrics_dict: dict) -> dict:
    """Normalize a metrics dict through JSON (tuples -> lists, float repr)."""

    return json.loads(json.dumps(metrics_dict))


def fixture_path(name: str) -> Path:
    return GOLDEN_DIR / name
