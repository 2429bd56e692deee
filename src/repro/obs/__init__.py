"""Observability for the serving stack: tracing, telemetry, and profiling.

The serving loop reports its events to :class:`~repro.obs.observer.Observer`
sinks (:mod:`repro.obs.observer`); a run with none installed pays only for
iterating an empty tuple.  The sinks here:

* :mod:`repro.obs.tracer` -- per-request lifecycle spans and per-iteration
  scheduler decisions as Chrome ``trace_event`` JSON (Perfetto-loadable).
* :mod:`repro.obs.telemetry` -- fixed-cadence time series (queue depth, batch
  occupancy, per-replica utilization, tokens/s) stored next to metrics.
* :mod:`repro.obs.profile` -- wall-clock profiling of the simulator's own hot
  paths (step-cost builds, sweep points), kept out of deterministic outputs.

:class:`repro.analysis.runtime.StepProbe` (per-step determinism digests) is
the fourth.  Alongside them:

* :mod:`repro.obs.metrics` -- mergeable metric primitives: log-bucketed
  quantile histograms with a guaranteed error bound, counters and gauges
  (the fixed-memory alternative to exact per-request percentile lists).

:mod:`repro.obs.timeline` renders stored telemetry as ASCII sparklines for
``llamcat timeline``.
"""

from repro.obs.metrics import DEFAULT_GROWTH, Counter, Gauge, Histogram
from repro.obs.observer import Observer
from repro.obs.profile import Profiler
from repro.obs.telemetry import (
    MAX_TELEMETRY_SAMPLES,
    StepEvent,
    TelemetryRecorder,
    TelemetrySample,
    TelemetrySeries,
)
from repro.obs.timeline import BLOCKS, render_timeline, resample, sparkline
from repro.obs.tracer import (
    CAT_HANDOFF,
    CAT_REQUEST,
    CAT_STEP,
    ChromeTracer,
    validate_trace,
)

__all__ = [
    "BLOCKS",
    "CAT_HANDOFF",
    "CAT_REQUEST",
    "CAT_STEP",
    "ChromeTracer",
    "Counter",
    "DEFAULT_GROWTH",
    "Gauge",
    "Histogram",
    "MAX_TELEMETRY_SAMPLES",
    "Observer",
    "Profiler",
    "StepEvent",
    "TelemetryRecorder",
    "TelemetrySample",
    "TelemetrySeries",
    "render_timeline",
    "resample",
    "sparkline",
    "validate_trace",
]
