"""Tests for the Chrome trace_event tracer and the observer base it extends."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runtime import StepProbe
from repro.common.errors import ConfigError
from repro.obs.observer import Observer
from repro.obs.profile import Profiler
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.tracer import (
    CAT_REQUEST,
    CAT_STEP,
    ChromeTracer,
    validate_trace,
)


class TestObserverBase:
    def test_every_hook_is_a_noop(self):
        observer = Observer()
        assert observer.on_start(None, []) is None
        assert observer.on_step(None, 0.0, 1.0, None, 10) is None
        assert observer.on_idle(None, 1.0) is None
        assert observer.on_transfer(None, None, 1.0, 2.0) is None
        assert observer.on_handoff(None, None, 2.0) is None
        assert observer.on_finish([]) is None
        # The base holds no state a hook could have written to.
        assert not hasattr(observer, "__dict__")

    def test_every_sink_is_an_observer(self):
        sinks = (ChromeTracer(), TelemetryRecorder(interval_s=1.0), StepProbe(), Profiler())
        assert all(isinstance(sink, Observer) for sink in sinks)

    def test_chrome_tracer_records_nothing_until_told(self):
        tracer = ChromeTracer()
        tracer.on_idle(None, 1.0)
        assert len(tracer) == 0
        assert tracer.trace_dict()["traceEvents"] == []


class TestChromeTracer:
    def test_complete_event_shape(self):
        tracer = ChromeTracer()
        tracer.complete("step", CAT_STEP, 0, 0, 0.001, 0.003, args={"cycles": 42})
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1000.0)    # seconds -> microseconds
        assert event["dur"] == pytest.approx(2000.0)
        assert event["args"] == {"cycles": 42}

    def test_instant_event_shape(self):
        tracer = ChromeTracer()
        tracer.instant("complete", CAT_REQUEST, 1, 7, 0.5)
        (event,) = tracer.events
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["tid"] == 7

    def test_backwards_span_rejected(self):
        with pytest.raises(ConfigError):
            ChromeTracer().complete("bad", CAT_STEP, 0, 0, 2.0, 1.0)

    def test_zero_width_span_allowed(self):
        tracer = ChromeTracer()
        tracer.complete("empty", CAT_STEP, 0, 0, 1.0, 1.0)
        assert tracer.events[0]["dur"] == 0.0

    def test_len_counts_events_not_metadata(self):
        tracer = ChromeTracer()
        tracer.name_process(0, "accel")
        tracer.complete("step", CAT_STEP, 0, 0, 0.0, 1.0)
        assert len(tracer) == 1

    def test_metadata_events_lead_the_trace(self):
        tracer = ChromeTracer()
        tracer.complete("step", CAT_STEP, 1, 0, 0.0, 1.0)
        tracer.name_process(1, "requests")
        tracer.name_process(0, "accel")
        tracer.name_thread(0, 0, "scheduler")
        events = tracer.trace_dict()["traceEvents"]
        assert [e["ph"] for e in events] == ["M", "M", "M", "X"]
        # Process names sorted by pid, then thread names by (pid, tid).
        assert events[0]["args"]["name"] == "accel"
        assert events[1]["args"]["name"] == "requests"
        assert events[2]["name"] == "thread_name"

    def test_write_is_canonical_and_deterministic(self, tmp_path):
        def build() -> ChromeTracer:
            tracer = ChromeTracer()
            tracer.name_process(0, "accel")
            tracer.complete("step", CAT_STEP, 0, 0, 0.0, 0.25, args={"decode": 2})
            return tracer

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        build().write(a)
        build().write(b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
        data = json.loads(a.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert validate_trace(data) == 2


class _Record:
    """A RequestMetrics stand-in with just the lifecycle fields."""

    def __init__(self, prefill_end_s):
        self.request_id = 3
        self.arrival_s = 0.0
        self.admitted_s = 0.1
        self.prefill_end_s = prefill_end_s
        self.finish_s = 0.5
        self.prompt_tokens = 128
        self.output_tokens = 32


class TestTraceRequest:
    def test_full_lifecycle_spans(self):
        tracer = ChromeTracer()
        tracer.trace_request(_Record(prefill_end_s=0.2), pid=1)
        names = [e["name"] for e in tracer.events]
        assert names == ["queued", "prefill", "decode", "complete"]
        assert all(e["pid"] == 1 and e["tid"] == 3 for e in tracer.events)
        prefill = tracer.events[1]
        assert prefill["args"] == {"prompt_tokens": 128}
        complete = tracer.events[-1]
        assert complete["args"]["latency_ms"] == pytest.approx(500.0)

    def test_decode_only_record_skips_prefill_span(self):
        tracer = ChromeTracer()
        tracer.trace_request(_Record(prefill_end_s=None), pid=1)
        names = [e["name"] for e in tracer.events]
        assert names == ["queued", "decode", "complete"]


class TestValidateTrace:
    def _trace(self, *events):
        return {"displayTimeUnit": "ms", "traceEvents": list(events)}

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            validate_trace([1, 2, 3])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ConfigError):
            validate_trace({"displayTimeUnit": "ms"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ConfigError, match="missing"):
            validate_trace(self._trace({"name": "x", "ph": "X", "ts": 0}))

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}
        with pytest.raises(ConfigError, match="phase"):
            validate_trace(self._trace(event))

    def test_rejects_complete_event_without_dur(self):
        event = {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
        with pytest.raises(ConfigError, match="dur"):
            validate_trace(self._trace(event))

    def test_rejects_negative_duration(self):
        event = {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}
        with pytest.raises(ConfigError, match="negative"):
            validate_trace(self._trace(event))

    def test_accepts_emitted_trace(self):
        tracer = ChromeTracer()
        tracer.name_process(0, "accel")
        tracer.complete("step", CAT_STEP, 0, 0, 0.0, 1.0)
        tracer.instant("done", CAT_STEP, 0, 0, 1.0)
        assert validate_trace(tracer.trace_dict()) == 3
