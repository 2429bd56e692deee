"""Tests for the persistent JSON-lines result store."""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.results import SimResult
from repro.sim.runner import run_policy
from repro.sweep.store import ResultStore, StoreRecord


@pytest.fixture()
def sim_result(tiny_system, unopt_policy, tiny_workload) -> SimResult:
    return run_policy(tiny_system, tiny_workload, unopt_policy, label="unopt")


class TestPutGet:
    def test_round_trip_in_memory(self, tmp_path, tiny_points, sim_result):
        store = ResultStore(tmp_path / "results.jsonl")
        point = tiny_points[0]
        store.put(point, result=sim_result, elapsed_s=1.5)
        assert point.key() in store
        assert store.result_for(point) == sim_result
        record = store.get(point.key())
        assert record is not None and record.ok
        assert record.elapsed_s == 1.5
        assert record.config == point.config_dict()

    def test_round_trip_through_disk(self, tmp_path, tiny_points, sim_result):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(tiny_points[0], result=sim_result)
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        restored = reloaded.result_for(tiny_points[0])
        assert restored == sim_result
        assert restored.cycles == sim_result.cycles
        assert restored.llc == sim_result.llc

    def test_requires_exactly_one_of_result_or_error(self, tmp_path, tiny_points, sim_result):
        store = ResultStore(tmp_path / "results.jsonl")
        with pytest.raises(ValueError):
            store.put(tiny_points[0])
        with pytest.raises(ValueError):
            store.put(tiny_points[0], result=sim_result, error="boom")

    def test_miss_returns_none(self, tmp_path, tiny_points):
        store = ResultStore(tmp_path / "results.jsonl")
        assert store.result_for(tiny_points[0]) is None
        assert store.get("no-such-key") is None


class TestFailureRecords:
    def test_error_record_is_not_a_cache_hit(self, tmp_path, tiny_points):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        point = tiny_points[0]
        store.put(point, error="SimulationError: exceeded max_cycles")
        assert point.key() not in store
        assert store.result_for(point) is None
        # ...but the record survives for post-mortems.
        record = ResultStore(path).get(point.key())
        assert record is not None
        assert record.status == "error"
        assert "SimulationError" in record.error


class TestCrashTolerance:
    def test_truncated_trailing_line_is_skipped(self, tmp_path, tiny_points, sim_result):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put(tiny_points[0], result=sim_result)
        store.put(tiny_points[1], result=sim_result)
        # Simulate a run killed mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.result_for(tiny_points[0]) is not None
        assert reloaded.result_for(tiny_points[1]) is None

    def test_garbage_lines_are_skipped(self, tmp_path, tiny_points, sim_result):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(tiny_points[0], result=sim_result)
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"wrong": "schema"}) + "\n")
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 2
        assert len(reloaded) == 1

    def test_missing_file_is_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nope" / "results.jsonl")
        assert len(store) == 0


class TestRecordSerialization:
    def test_json_line_round_trip(self, tiny_points, sim_result):
        record = StoreRecord(
            key=tiny_points[0].key(),
            label="unopt",
            status="ok",
            result=sim_result,
            error=None,
            elapsed_s=0.25,
            config=tiny_points[0].config_dict(),
        )
        assert StoreRecord.from_json_line(record.to_json_line()) == record


class TestMixedKinds:
    """One JSONL store holding sim + serve + cluster records side by side."""

    @pytest.fixture()
    def serve_point(self):
        from repro.serve.scenario import ServeScenario

        return ServeScenario(
            workload="llama3-70b", rate=100.0, num_requests=2, label="serve-pt"
        ).to_point()

    @pytest.fixture()
    def serve_metrics(self):
        from repro.serve.metrics import ServeMetrics

        return ServeMetrics(
            label="serve-pt", workload="llama3-70b", frequency_ghz=2.0,
            duration_s=1.0, steps=4, total_cycles=400,
        )

    @pytest.fixture()
    def cluster_point(self):
        from repro.cluster.scenario import ClusterScenario

        return ClusterScenario(
            workload="llama3-70b", rate=100.0, num_requests=2, label="cluster-pt"
        ).to_point()

    @pytest.fixture()
    def cluster_metrics(self):
        from repro.cluster.metrics import ClusterMetrics, ReplicaMetrics

        return ClusterMetrics(
            label="cluster-pt", workload="llama3-70b", router="round-robin",
            duration_s=1.0,
            replicas=(
                ReplicaMetrics(
                    replica_id=0, system="table5", frequency_ghz=2.0,
                    steps=4, total_cycles=400, busy_s=0.5, routed=0,
                ),
            ),
        )

    def test_mixed_store_round_trips_every_kind(
        self, tmp_path, tiny_points, sim_result,
        serve_point, serve_metrics, cluster_point, cluster_metrics,
    ):
        from repro.cluster.metrics import ClusterMetrics
        from repro.serve.metrics import ServeMetrics

        path = tmp_path / "mixed.jsonl"
        store = ResultStore(path)
        store.put(tiny_points[0], result=sim_result)
        store.put(serve_point, result=serve_metrics)
        store.put(cluster_point, result=cluster_metrics)

        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert {r.kind for r in reloaded.records()} == {"sim", "serve", "cluster"}
        assert isinstance(reloaded.result_for(tiny_points[0]), SimResult)
        assert isinstance(reloaded.result_for(serve_point), ServeMetrics)
        assert isinstance(reloaded.result_for(cluster_point), ClusterMetrics)
        assert reloaded.result_for(serve_point) == serve_metrics
        assert reloaded.result_for(cluster_point) == cluster_metrics

    def test_pre_kind_tag_store_still_resumes(self, tmp_path, tiny_points, sim_result):
        # Stores written before the "kind" tag existed have no such field;
        # they must keep loading (and resuming) as kernel-level records.
        path = tmp_path / "legacy.jsonl"
        ResultStore(path).put(tiny_points[0], result=sim_result)
        lines = []
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            del payload["kind"]
            lines.append(json.dumps(payload))
        path.write_text("\n".join(lines) + "\n")

        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 0
        restored = reloaded.result_for(tiny_points[0])
        assert isinstance(restored, SimResult)
        assert restored == sim_result

    def test_pre_telemetry_serve_record_still_loads(
        self, tmp_path, serve_point, serve_metrics
    ):
        # Serve/cluster records written before the optional "telemetry" field
        # existed simply lack the key; they must load with telemetry None.
        from repro.serve.metrics import ServeMetrics

        path = tmp_path / "pre_telemetry.jsonl"
        ResultStore(path).put(serve_point, result=serve_metrics)
        payload = json.loads(path.read_text().splitlines()[0])
        assert "telemetry" not in payload["result"]

        restored = ResultStore(path).result_for(serve_point)
        assert isinstance(restored, ServeMetrics)
        assert restored.telemetry is None
        assert restored == serve_metrics

    def test_telemetry_bearing_serve_record_round_trips(
        self, tmp_path, serve_point, serve_metrics
    ):
        from dataclasses import replace

        from repro.obs.telemetry import TelemetrySample, TelemetrySeries

        series = TelemetrySeries(
            interval_s=0.5,
            t0_s=0.0,
            num_replicas=1,
            samples=(TelemetrySample(0.5, 0.5, 2, 1, 8, (0.25,)),),
        )
        sampled = replace(serve_metrics, telemetry=series)
        path = tmp_path / "telemetry.jsonl"
        ResultStore(path).put(serve_point, result=sampled)

        restored = ResultStore(path).result_for(serve_point)
        assert restored.telemetry == series
        assert restored == sampled

    def test_unknown_kind_line_is_skipped(self, tmp_path, tiny_points, sim_result):
        path = tmp_path / "future.jsonl"
        store = ResultStore(path)
        store.put(tiny_points[0], result=sim_result)
        record = json.loads(path.read_text().splitlines()[0])
        record["kind"] = "hologram"
        record["key"] = "future-key"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")

        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1             # the unknown kind
        assert reloaded.result_for(tiny_points[0]) is not None


class TestFind:
    """Git-style abbreviated lookup for ``llamcat timeline``."""

    @pytest.fixture()
    def store(self, tmp_path, tiny_points, sim_result) -> ResultStore:
        store = ResultStore(tmp_path / "results.jsonl")
        store.put(tiny_points[0], result=sim_result, elapsed_s=0.1)
        store.put(tiny_points[1], result=sim_result, elapsed_s=0.2)
        return store

    def test_exact_key_wins(self, store, tiny_points):
        key = tiny_points[0].key()
        assert store.find(key).key == key

    def test_unique_prefix_resolves(self, store, tiny_points):
        key = tiny_points[0].key()
        for n in range(4, 12):
            prefix = key[:n]
            others = [p.key() for p in tiny_points[1:2]]
            if any(o.startswith(prefix) for o in others):
                continue
            assert store.find(prefix).key == key
            break
        else:
            pytest.skip("tiny points share an improbably long key prefix")

    def test_label_resolves(self, store, tiny_points):
        record = store.find(tiny_points[0].label)
        assert record.label == tiny_points[0].label

    def test_empty_prefix_rejected(self, store):
        with pytest.raises(KeyError):
            store.find("")

    def test_missing_prefix_rejected(self, store):
        with pytest.raises(KeyError, match="no stored result"):
            store.find("zzzz-no-such-key")

    def test_ambiguous_prefix_rejected(self, tmp_path, tiny_points, sim_result):
        store = ResultStore(tmp_path / "results.jsonl")
        store.put(tiny_points[0], result=sim_result)
        store.put(tiny_points[1], result=sim_result)
        keys = [p.key() for p in tiny_points[:2]]
        common = os.path.commonprefix(keys)
        if common:
            with pytest.raises(KeyError, match="ambiguous"):
                store.find(common)

    def test_ambiguous_label_rejected(self, tmp_path, tiny_points, sim_result):
        # tiny_points[0] and [2] share the label but differ in seq_len (and
        # therefore in key), so a label lookup cannot pick one.
        store = ResultStore(tmp_path / "results.jsonl")
        assert tiny_points[0].label == tiny_points[2].label
        store.put(tiny_points[0], result=sim_result)
        store.put(tiny_points[2], result=sim_result)
        with pytest.raises(KeyError, match="ambiguous"):
            store.find(tiny_points[0].label)

    def test_missing_prefix_suggests_available_records(self, store, tiny_points):
        with pytest.raises(KeyError) as excinfo:
            store.find("zzzz-no-such-key")
        message = excinfo.value.args[0]
        assert "available:" in message
        for point in tiny_points[:2]:
            assert point.key()[:12] in message
            assert point.label in message

    def test_missing_prefix_on_empty_store_has_no_suggestions(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        with pytest.raises(KeyError) as excinfo:
            store.find("anything")
        message = excinfo.value.args[0]
        assert "0 records" in message
        assert "available:" not in message

    def test_ambiguous_error_lists_every_match(self, tmp_path, tiny_points, sim_result):
        store = ResultStore(tmp_path / "results.jsonl")
        store.put(tiny_points[0], result=sim_result)
        store.put(tiny_points[2], result=sim_result)
        with pytest.raises(KeyError) as excinfo:
            store.find(tiny_points[0].label)
        message = excinfo.value.args[0]
        assert "ambiguous" in message
        for point in (tiny_points[0], tiny_points[2]):
            assert point.key()[:12] in message
