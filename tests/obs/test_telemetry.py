"""Tests for the time-series telemetry recorder and series."""

from __future__ import annotations

import pytest

from repro.cluster.scenario import ClusterScenario
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier
from repro.obs.telemetry import (
    MAX_TELEMETRY_SAMPLES,
    TelemetryRecorder,
    TelemetrySample,
    TelemetrySeries,
)
from repro.serve.scenario import ServeScenario


class TestTelemetrySample:
    def test_validate_rejects_non_positive_dt(self):
        with pytest.raises(ConfigError):
            TelemetrySample(t_s=1.0, dt_s=0.0, queue_depth=0, running=0, tokens=0).validate()

    def test_validate_rejects_negative_busy(self):
        with pytest.raises(ConfigError):
            TelemetrySample(
                t_s=1.0, dt_s=1.0, queue_depth=0, running=0, tokens=0, busy_s=(-0.1,)
            ).validate()

    def test_utilization_clamped_to_one(self):
        sample = TelemetrySample(
            t_s=1.0, dt_s=1.0, queue_depth=0, running=0, tokens=0, busy_s=(1.5, 0.5)
        )
        assert sample.utilizations == (1.0, 0.5)
        assert sample.utilization == pytest.approx(0.75)

    def test_tokens_per_s(self):
        sample = TelemetrySample(t_s=1.0, dt_s=0.5, queue_depth=0, running=0, tokens=10)
        assert sample.tokens_per_s == pytest.approx(20.0)

    def test_round_trip(self):
        sample = TelemetrySample(
            t_s=2.0, dt_s=1.0, queue_depth=3, running=2, tokens=7, busy_s=(0.25, 0.75)
        )
        assert TelemetrySample.from_dict(sample.to_dict()) == sample


class TestTelemetrySeries:
    def _series(self, **overrides) -> TelemetrySeries:
        defaults = dict(
            interval_s=1.0,
            t0_s=0.0,
            num_replicas=2,
            samples=(
                TelemetrySample(1.0, 1.0, 4, 2, 10, (0.5, 0.25)),
                TelemetrySample(2.0, 1.0, 2, 1, 20, (1.0, 0.5)),
            ),
        )
        defaults.update(overrides)
        return TelemetrySeries(**defaults)

    def test_validate_rejects_busy_arity_mismatch(self):
        with pytest.raises(ConfigError):
            self._series(num_replicas=3).validate()

    def test_busy_totals_and_mean_utilizations(self):
        series = self._series()
        assert series.busy_totals() == (1.5, 0.75)
        assert series.mean_utilizations() == (pytest.approx(0.75), pytest.approx(0.375))

    def test_named_series(self):
        series = self._series()
        assert series.series("queue_depth") == [4, 2]
        assert series.series("running") == [2, 1]
        assert series.series("tokens_per_s") == [pytest.approx(10.0), pytest.approx(20.0)]
        assert series.series("utilization") == [pytest.approx(0.375), pytest.approx(0.75)]
        assert series.series("util:1") == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="unknown telemetry metric"):
            self._series().series("temperature")
        with pytest.raises(ConfigError, match="out of range"):
            self._series().series("util:5")

    def test_round_trip(self):
        series = self._series()
        assert TelemetrySeries.from_dict(series.to_dict()) == series


class TestRecorderBuild:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ConfigError):
            TelemetryRecorder(interval_s=0.0)
        with pytest.raises(ConfigError):
            TelemetryRecorder(interval_s=1.0, num_replicas=0)

    def test_empty_recorder_builds_one_empty_sample(self):
        series = TelemetryRecorder(interval_s=1.0).build(0.0)
        assert series.num_samples == 1
        assert series.busy_totals() == (0.0,)

    def test_busy_time_split_across_buckets(self):
        recorder = TelemetryRecorder(interval_s=1.0)
        # A step spanning [0.5, 2.5] overlaps three one-second buckets.
        recorder.on_step(0, 0.5, 2.5, queue_depth=1, running=1, tokens=6)
        series = recorder.build(0.0, end_s=3.0)
        assert [s.busy_s[0] for s in series.samples] == [
            pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.5)
        ]
        # Tokens land in the bucket the step finished in.
        assert [s.tokens for s in series.samples] == [0, 0, 6]

    def test_busy_totals_match_step_durations_exactly(self):
        recorder = TelemetryRecorder(interval_s=0.3, num_replicas=2)
        spans = [(0, 0.0, 0.7), (1, 0.2, 1.1), (0, 0.9, 1.0)]
        for replica, start, end in spans:
            recorder.on_step(replica, start, end, 0, 1, 1)
        series = recorder.build(0.0)
        expected = [0.0, 0.0]
        for replica, start, end in spans:
            expected[replica] += end - start
        assert series.busy_totals() == (
            pytest.approx(expected[0]), pytest.approx(expected[1])
        )

    def test_tail_past_nominal_end_folds_into_final_bucket(self):
        recorder = TelemetryRecorder(interval_s=1.0)
        recorder.on_step(0, 0.5, 2.5, 0, 1, 0)
        # end_s clips the bucket grid at 2.0; the step's tail must not vanish.
        series = recorder.build(0.0, end_s=2.0)
        assert series.num_samples == 2
        assert sum(series.busy_totals()) == pytest.approx(2.0)

    def test_queue_is_last_observation_per_replica_summed(self):
        recorder = TelemetryRecorder(interval_s=1.0, num_replicas=2)
        recorder.observe(0, 0.1, queue_depth=5, running=2)
        recorder.observe(1, 0.2, queue_depth=3, running=1)
        recorder.observe(0, 1.5, queue_depth=1, running=0)
        series = recorder.build(0.0, end_s=2.0)
        assert series.series("queue_depth") == [8, 4]   # 5+3 then 1+3
        assert series.series("running") == [3, 1]

    def test_observe_adds_no_busy_time(self):
        recorder = TelemetryRecorder(interval_s=1.0)
        recorder.observe(0, 0.5, queue_depth=9, running=0)
        series = recorder.build(0.0, end_s=1.0)
        assert series.busy_totals() == (0.0,)
        assert series.samples[0].queue_depth == 9

    def test_sample_cap_enforced(self):
        recorder = TelemetryRecorder(interval_s=1e-6)
        recorder.on_step(0, 0.0, 1.0, 0, 1, 1)
        with pytest.raises(ConfigError, match="raise the sampling interval"):
            recorder.build(0.0)
        assert MAX_TELEMETRY_SAMPLES == 16_384

    def test_final_sample_clamped_to_end(self):
        recorder = TelemetryRecorder(interval_s=1.0)
        recorder.on_step(0, 0.0, 1.5, 0, 1, 2)
        series = recorder.build(0.0, end_s=1.5)
        assert series.num_samples == 2
        assert series.samples[-1].t_s == pytest.approx(1.5)
        assert series.samples[-1].dt_s == pytest.approx(0.5)
        assert series.duration_s == pytest.approx(1.5)


class TestQueueDepthCountsArrivedRequests:
    """A request is queued only once it has arrived, on one accelerator too."""

    KNOBS = dict(
        workload="llama3-70b",
        rate=200.0,
        num_requests=8,
        seed=0,
        telemetry_ms=5.0,
        tier=ScaleTier.SMOKE,
    )

    def test_single_accelerator_samples_equal_one_replica_fleet(self):
        single = ServeScenario(**self.KNOBS).validate().run()
        fleet = ClusterScenario(replicas=1, **self.KNOBS).validate().run()
        assert single.requests == fleet.requests
        assert single.telemetry == fleet.telemetry
        arrivals = [r.arrival_s for r in single.requests]
        for sample in single.telemetry.samples:
            arrived = sum(1 for arrival_s in arrivals if arrival_s <= sample.t_s)
            assert sample.queue_depth <= arrived, sample
