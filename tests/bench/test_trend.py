"""Trend files: schema, append semantics, regression gating."""

import json

import pytest

from repro.bench.trend import (
    TrendRecord,
    append_trend,
    compare_records,
    compare_trends,
    discover_trends,
    load_trend,
    load_trends,
    metric_direction,
    trend_path,
    validate_trends,
    write_trend,
)
from repro.common.errors import ConfigError


def record(
    bench: str = "demo",
    metric: str = "tokens_per_s",
    value: float = 100.0,
    unit: str = "tokens/s",
    wall_s: float = 1.0,
    config: dict | None = None,
) -> TrendRecord:
    return TrendRecord(
        bench=bench,
        config=config if config is not None else {"tier": "ci"},
        metric=metric,
        value=value,
        unit=unit,
        wall_s=wall_s,
    ).validate()


class TestTrendRecord:
    def test_round_trip(self):
        r = record()
        assert TrendRecord.from_dict(r.to_dict()) == r

    def test_missing_key_rejected(self):
        data = record().to_dict()
        del data["unit"]
        with pytest.raises(ConfigError, match="missing keys"):
            TrendRecord.from_dict(data)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigError):
            record(bench="")
        with pytest.raises(ConfigError):
            record(metric="")
        with pytest.raises(ConfigError):
            record(wall_s=-0.1)
        with pytest.raises(ConfigError):
            TrendRecord(
                bench="b", config="nope", metric="m", value=1.0, unit="", wall_s=0.0
            ).validate()
        with pytest.raises(ConfigError):
            TrendRecord(
                bench="b", config={}, metric="m", value="fast", unit="", wall_s=0.0
            ).validate()


class TestLoadAndWrite:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_trend(tmp_path / "BENCH_nope.json") == []

    def test_append_then_load_preserves_order(self, tmp_path):
        path = trend_path(tmp_path, "demo")
        append_trend(path, [record(value=1.0)])
        append_trend(path, [record(value=2.0)])
        values = [r.value for r in load_trend(path)]
        assert values == [1.0, 2.0]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_trend(path)

    def test_unknown_dict_shape_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        # Any single object is rejected, including the retired
        # {bench, config, tokens_per_s, wall_s} shape.
        for payload in ({"bench": "bad"}, {"bench": "bad", "tokens_per_s": 5.0, "wall_s": 1.0}):
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigError, match="must hold a JSON list"):
                load_trend(path)

    def test_write_is_stable_text(self, tmp_path):
        path = write_trend(trend_path(tmp_path, "demo"), [record()])
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(
            [record().to_dict()], indent=2, sort_keys=True
        ) + "\n"


class TestDiscovery:
    def test_discovers_by_prefix(self, tmp_path):
        write_trend(trend_path(tmp_path, "a"), [record(bench="a")])
        write_trend(trend_path(tmp_path, "b"), [record(bench="b")])
        (tmp_path / "not_a_trend.json").write_text("[]")
        assert sorted(discover_trends(tmp_path)) == ["a", "b"]

    def test_single_file_root(self, tmp_path):
        path = write_trend(trend_path(tmp_path, "a"), [record(bench="a")])
        assert discover_trends(path) == {"a": path}
        other = tmp_path / "results.json"
        other.write_text("[]")
        with pytest.raises(ConfigError):
            discover_trends(other)

    def test_load_trends_maps_bench_to_records(self, tmp_path):
        write_trend(trend_path(tmp_path, "a"), [record(bench="a", value=3.0)])
        trends = load_trends(tmp_path)
        assert [r.value for r in trends["a"]] == [3.0]


class TestDirections:
    def test_throughput_units_are_higher_is_better(self):
        assert metric_direction("tokens_per_s", "tokens/s") == 1
        assert metric_direction("speedup", "x") == 1

    def test_latency_units_are_lower_is_better(self):
        assert metric_direction("latency_p99_ms", "ms") == -1
        assert metric_direction("stall_free", "cycles") == -1
        assert metric_direction("wall_s", "") == -1

    def test_unknown_units_are_informational(self):
        assert metric_direction("mshr_hit_rate", "") == 0


class TestCompare:
    def test_within_threshold_is_ok(self):
        deltas = compare_records(
            "demo", [record(value=100.0)], [record(value=105.0)], threshold_pct=10.0
        )
        by_metric = {d.metric: d for d in deltas}
        assert by_metric["tokens_per_s"].status == "ok"
        assert by_metric["wall_s"].status == "ok"

    def test_throughput_drop_beyond_threshold_regresses(self):
        deltas = compare_records(
            "demo", [record(value=100.0)], [record(value=80.0)], threshold_pct=10.0
        )
        delta = next(d for d in deltas if d.metric == "tokens_per_s")
        assert delta.status == "regressed"
        assert delta.gating
        assert delta.delta_pct == pytest.approx(-20.0)

    def test_latency_rise_beyond_threshold_regresses(self):
        deltas = compare_records(
            "demo",
            [record(metric="latency_p99_ms", unit="ms", value=10.0)],
            [record(metric="latency_p99_ms", unit="ms", value=13.0)],
            threshold_pct=10.0,
        )
        assert next(d for d in deltas if d.metric == "latency_p99_ms").status == "regressed"

    def test_improvement_is_not_gating(self):
        deltas = compare_records(
            "demo", [record(value=100.0)], [record(value=150.0)], threshold_pct=10.0
        )
        delta = next(d for d in deltas if d.metric == "tokens_per_s")
        assert delta.status == "improved"
        assert not delta.gating

    def test_unknown_unit_never_gates(self):
        deltas = compare_records(
            "demo",
            [record(metric="mshr_hit_rate", unit="", value=0.5)],
            [record(metric="mshr_hit_rate", unit="", value=0.9)],
            threshold_pct=10.0,
        )
        assert next(d for d in deltas if d.metric == "mshr_hit_rate").status == "changed"

    def test_config_change_suppresses_gating(self):
        deltas = compare_records(
            "demo",
            [record(value=100.0, config={"tier": "ci"})],
            [record(value=50.0, config={"tier": "smoke"})],
            threshold_pct=10.0,
        )
        delta = next(d for d in deltas if d.metric == "tokens_per_s")
        assert delta.status == "config-changed"
        assert not delta.gating

    def test_new_and_gone_metrics_reported(self):
        deltas = compare_records(
            "demo",
            [record(metric="old_ms", unit="ms")],
            [record(metric="new_ms", unit="ms")],
            threshold_pct=10.0,
        )
        statuses = {d.metric: d.status for d in deltas}
        assert statuses["old_ms"] == "gone"
        assert statuses["new_ms"] == "new"

    def test_wall_clock_gates_only_when_asked(self):
        base = [record(wall_s=1.0)]
        slow = [record(wall_s=10.0)]
        ungated = compare_records("demo", base, slow, threshold_pct=10.0)
        assert next(d for d in ungated if d.metric == "wall_s").status == "ok"
        gated = compare_records(
            "demo", base, slow, threshold_pct=10.0, wall_threshold_pct=100.0
        )
        assert next(d for d in gated if d.metric == "wall_s").status == "regressed"

    def test_latest_record_per_metric_wins(self):
        baseline = [record(value=100.0), record(value=200.0)]
        deltas = compare_records("demo", baseline, [record(value=205.0)], 10.0)
        assert next(d for d in deltas if d.metric == "tokens_per_s").baseline == 200.0


class TestCompareTrends:
    def test_two_roots(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_trend(trend_path(base, "demo"), [record(value=100.0)])
        write_trend(trend_path(cur, "demo"), [record(value=50.0)])
        comparison = compare_trends(cur, base, threshold_pct=10.0)
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == ["tokens_per_s"]
        assert "REGRESSED" in comparison.render()

    def test_self_compare_uses_previous_record(self, tmp_path):
        path = trend_path(tmp_path, "demo")
        append_trend(path, [record(value=100.0)])
        append_trend(path, [record(value=99.0)])
        comparison = compare_trends(tmp_path, tmp_path, threshold_pct=10.0)
        assert comparison.self_compare
        assert comparison.ok
        delta = next(d for d in comparison.deltas if d.metric == "tokens_per_s")
        assert (delta.baseline, delta.current) == (100.0, 99.0)

    def test_self_compare_with_single_run_has_no_deltas(self, tmp_path):
        append_trend(trend_path(tmp_path, "demo"), [record(value=100.0)])
        comparison = compare_trends(tmp_path, tmp_path, threshold_pct=10.0)
        assert comparison.deltas == ()
        assert comparison.ok

    def test_bench_filter(self, tmp_path):
        for bench in ("a", "b"):
            path = trend_path(tmp_path, bench)
            append_trend(path, [record(bench=bench, value=100.0)])
            append_trend(path, [record(bench=bench, value=100.0)])
        comparison = compare_trends(tmp_path, tmp_path, 10.0, benches=("a",))
        assert {d.bench for d in comparison.deltas} == {"a"}

    def test_disjoint_roots_have_no_deltas(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_trend(trend_path(base, "a"), [record(bench="a")])
        write_trend(trend_path(cur, "b"), [record(bench="b")])
        comparison = compare_trends(cur, base, 10.0)
        assert comparison.deltas == ()
        assert "no overlapping" in comparison.render()


class TestValidate:
    def test_clean_root_is_ok(self, tmp_path):
        write_trend(trend_path(tmp_path, "demo"), [record()])
        validation = validate_trends(tmp_path)
        assert validation.ok
        assert (validation.files, validation.records) == (1, 1)
        assert "OK" in validation.render()

    def test_bench_name_mismatch_is_an_error(self, tmp_path):
        write_trend(trend_path(tmp_path, "other"), [record(bench="demo")])
        validation = validate_trends(tmp_path)
        assert not validation.ok
        assert "does not match" in validation.errors[0]

    def test_broken_json_is_an_error(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("[")
        validation = validate_trends(tmp_path)
        assert not validation.ok
        assert "invalid trend file" in validation.render()
