"""End-to-end observability: tracing and telemetry through real simulations.

These tests pin the contracts the observability layer lives by: with
tracing/telemetry *off*, runs are bit-identical to pre-observability runs
(covered by the golden-fixture suite); with them *on*, the emitted trace is
deterministic, the sampled telemetry integrates to the same busy time the
headline aggregates report, and observers compose -- installing all of them
at once changes neither the metrics nor what any one of them records.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.runtime import StepProbe
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.scenario import ClusterScenario
from repro.config.scale import ScaleTier
from repro.obs import ChromeTracer, Profiler, validate_trace
from repro.registry import SYSTEMS, WORKLOADS, register_system, register_workload
from repro.serve.metrics import ServeMetrics
from repro.serve.scenario import ServeScenario


def serve_scenario(**overrides) -> ServeScenario:
    defaults = dict(
        workload="llama3-70b",
        arrival="poisson",
        rate=2000.0,
        num_requests=8,
        max_batch=2,
        seed=0,
        tier=ScaleTier.SMOKE,
    )
    defaults.update(overrides)
    return ServeScenario(**defaults).validate()


def cluster_scenario(**overrides) -> ClusterScenario:
    defaults = dict(
        workload="llama3-70b",
        arrival="poisson",
        rate=2000.0,
        num_requests=8,
        replicas=2,
        max_batch=2,
        seed=0,
        tier=ScaleTier.SMOKE,
    )
    defaults.update(overrides)
    return ClusterScenario(**defaults).validate()


class TestServeTracing:
    def test_trace_is_valid_and_byte_identical_across_runs(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            tracer = ChromeTracer()
            serve_scenario().run(observers=[tracer])
            path = tmp_path / name
            tracer.write(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        data = json.loads(paths[0].read_text())
        assert validate_trace(data) == len(data["traceEvents"])

    def test_trace_carries_request_and_scheduler_tracks(self):
        tracer = ChromeTracer()
        metrics = serve_scenario().run(observers=[tracer])
        events = tracer.trace_dict()["traceEvents"]
        names = {e["name"] for e in events}
        assert {"queued", "prefill", "decode", "complete", "step"} <= names
        # One decode span and one complete instant per request.
        decodes = [e for e in events if e["name"] == "decode"]
        assert len(decodes) == metrics.num_requests
        steps = [e for e in events if e["name"] == "step"]
        assert len(steps) == metrics.steps
        # Step spans carry the plan composition and cycle cost.
        assert all("cycles" in e["args"] for e in steps)
        assert {e["args"].get("decode") for e in steps} != {None}

    def test_tracing_does_not_change_metrics(self):
        baseline = serve_scenario().run()
        traced = serve_scenario().run(observers=[ChromeTracer()])
        assert traced == baseline

    def test_profiler_collects_step_cost_sections(self):
        profiler = Profiler(scope="serve")
        serve_scenario().run(observers=[profiler])
        data = profiler.as_dict()
        assert data["serve.step_cost_build"]["calls"] > 0
        assert data["serve.step_cost_build"]["wall_s"] > 0.0
        assert data["serve.step_cost_hit"]["calls"] > 0


class TestServeTelemetry:
    def test_telemetry_off_leaves_metrics_dict_unchanged(self):
        metrics = serve_scenario().run()
        assert metrics.telemetry is None
        assert "telemetry" not in metrics.to_dict()

    def test_telemetry_round_trips_through_metrics_dict(self):
        metrics = serve_scenario(telemetry_ms=2.0).run()
        assert metrics.telemetry is not None
        restored = ServeMetrics.from_dict(metrics.to_dict())
        assert restored == metrics
        assert restored.telemetry == metrics.telemetry

    def test_sampled_utilization_integrates_to_aggregate(self):
        """The telemetry invariant: sampled busy time must sum to the same
        busy seconds the end-of-run aggregate reports."""

        metrics = serve_scenario(telemetry_ms=1.0).run()
        series = metrics.telemetry
        busy_from_cycles = metrics.total_cycles / (metrics.frequency_ghz * 1e9)
        assert sum(series.busy_totals()) == pytest.approx(busy_from_cycles, rel=1e-9)
        # Mean utilization over the sampled span likewise matches the
        # aggregate utilization over the run's duration.
        sampled_util = sum(series.busy_totals()) / series.duration_s
        aggregate_util = busy_from_cycles / metrics.duration_s
        assert sampled_util == pytest.approx(aggregate_util, rel=0.05)

    def test_telemetry_ms_changes_content_hash_only_when_set(self):
        base = serve_scenario()
        assert "telemetry_ms" not in base.to_dict()
        assert base.key() == serve_scenario().key()
        sampled = serve_scenario(telemetry_ms=1.0)
        assert sampled.to_dict()["telemetry_ms"] == 1.0
        assert sampled.key() != base.key()


class TestClusterTracing:
    def test_cluster_trace_valid_and_deterministic(self, tmp_path):
        blobs = []
        for _ in range(2):
            tracer = ChromeTracer()
            cluster_scenario().run(observers=[tracer])
            blobs.append(tracer.to_json())
        assert blobs[0] == blobs[1]
        assert validate_trace(json.loads(blobs[0])) > 0

    def test_replica_tracks_are_named(self):
        tracer = ChromeTracer()
        cluster_scenario().run(observers=[tracer])
        names = [
            e["args"]["name"]
            for e in tracer.trace_dict()["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert names == ["replica 0 [mixed]", "replica 1 [mixed]", "requests"]

    def test_disaggregated_trace_emits_handoffs(self):
        tracer = ChromeTracer()
        metrics = cluster_scenario(
            replicas=2, disaggregated="1p1d", kv_transfer_ms=0.05
        ).run(observers=[tracer])
        events = tracer.trace_dict()["traceEvents"]
        transfers = [e for e in events if e["name"] == "kv-transfer"]
        handoffs = [e for e in events if e["name"] == "handoff"]
        assert len(transfers) == metrics.meta["handoffs"]
        assert len(handoffs) == metrics.meta["handoffs"]
        assert all(e["args"]["from_replica"] == 0 for e in transfers)
        assert all(e["args"]["to_replica"] == 1 for e in handoffs)


class TestClusterTelemetry:
    def test_telemetry_off_leaves_metrics_dict_unchanged(self):
        metrics = cluster_scenario().run()
        assert metrics.telemetry is None
        assert "telemetry" not in metrics.to_dict()

    def test_telemetry_round_trips_through_metrics_dict(self):
        metrics = cluster_scenario(telemetry_ms=2.0).run()
        assert metrics.telemetry is not None
        assert metrics.telemetry.num_replicas == 2
        restored = ClusterMetrics.from_dict(metrics.to_dict())
        assert restored == metrics

    def test_sampled_busy_matches_replica_aggregates(self):
        metrics = cluster_scenario(telemetry_ms=1.0).run()
        totals = metrics.telemetry.busy_totals()
        for replica in metrics.replicas:
            assert totals[replica.replica_id] == pytest.approx(
                replica.busy_s, rel=1e-9, abs=1e-12
            )

    def test_tracing_does_not_change_metrics(self):
        baseline = cluster_scenario().run()
        traced = cluster_scenario().run(observers=[ChromeTracer()])
        assert traced == baseline


@pytest.fixture()
def tiny_names(tiny_system, tiny_workload):
    """Register the tiny system/workload so full-engine runs take milliseconds."""

    register_system("obs-tiny-sys")(lambda: tiny_system)
    register_workload("obs-tiny")(lambda seq_len=64: tiny_workload.with_seq_len(seq_len))
    yield
    SYSTEMS.unregister("obs-tiny-sys")
    WORKLOADS.unregister("obs-tiny")


TINY = dict(
    workload="obs-tiny",
    arrival="poisson",
    rate=50_000.0,
    num_requests=6,
    max_batch=2,
    seed=0,
    tier=ScaleTier.FULL,
    prompt_tokens=(32, 64),
    output_tokens=(2, 4),
    telemetry_ms=0.01,
)

#: One tiny scenario per fleet shape the serving loop drives.
COMPOSED = {
    "serve": lambda: ServeScenario(system="obs-tiny-sys", **TINY),
    "cluster": lambda: ClusterScenario(systems=("obs-tiny-sys",), replicas=2, **TINY),
    "disaggregated": lambda: ClusterScenario(
        systems=("obs-tiny-sys",), replicas=2, disaggregated="1p1d", **TINY
    ),
}


def profile_calls(profiler: Profiler) -> dict:
    return {name: entry["calls"] for name, entry in profiler.as_dict().items()}


@pytest.mark.usefixtures("tiny_names")
@pytest.mark.parametrize("kind", sorted(COMPOSED))
def test_observers_compose(kind):
    """All four sinks at once equal a bare run, and each equals itself alone."""

    scenario = COMPOSED[kind]().validate()
    untimed = replace(scenario, telemetry_ms=None)
    tracer, probe, profiler = ChromeTracer(), StepProbe(), Profiler(scope=scenario.kind)
    composed = scenario.run(observers=[tracer, probe, profiler])
    # The bare run is also the telemetry recorder installed alone.
    bare = scenario.run()
    assert composed.to_dict() == bare.to_dict()
    assert composed.telemetry == bare.telemetry
    assert composed.telemetry is not None

    alone_tracer, alone_probe = ChromeTracer(), StepProbe()
    alone_profiler = Profiler(scope=scenario.kind)
    untimed_bare = untimed.run().to_dict()
    for observer in (alone_tracer, alone_probe, alone_profiler):
        assert untimed.run(observers=[observer]).to_dict() == untimed_bare
    assert tracer.to_json() == alone_tracer.to_json()
    assert len(tracer) > 0
    assert [d.digest for d in probe.digests] == [d.digest for d in alone_probe.digests]
    assert len(probe.digests) == sum(r.steps for r in getattr(bare, "replicas", [bare]))
    assert profile_calls(profiler) == profile_calls(alone_profiler)
    assert profile_calls(profiler)[f"{scenario.kind}.step_cost_build"] > 0
