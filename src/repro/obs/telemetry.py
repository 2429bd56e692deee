"""Time-series telemetry: queue depth, batch occupancy, utilization, tokens/s.

End-of-run aggregates say *how well* a run did; telemetry says *when*.  A
:class:`TelemetryRecorder`, an :class:`~repro.obs.observer.Observer` of the
serving loop, collects one raw observation per scheduler iteration (replica,
step span, queue depth, batch size, tokens produced) while a simulation runs,
then :meth:`TelemetryRecorder.build` folds the raw stream into a
fixed-cadence :class:`TelemetrySeries` -- one :class:`TelemetrySample`
per interval, with per-replica busy time split exactly across interval
boundaries.  The series rides inside the run's metrics object, so it
round-trips through the JSONL result store and renders via ``llamcat
timeline`` (:mod:`repro.obs.timeline`).

Everything here is driven by *simulated* time, so a seeded run produces an
identical series every time; the sampled busy time sums exactly to the
replicas' end-of-run busy aggregates (pinned by a tolerance test), which is
what keeps the time series honest against the headline numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.mathutils import safe_div
from repro.obs.observer import Observer

#: Hard cap on samples per series -- protects the JSONL store from a cadence
#: far finer than the run (raise the interval instead of storing megabytes).
MAX_TELEMETRY_SAMPLES = 16_384


@dataclass(frozen=True, slots=True)
class StepEvent:
    """One raw observation: a replica's step span and the load it saw.

    ``queue_depth``/``running`` are sampled at the step's start (after
    admission); ``tokens`` counts the output tokens the step completed.  Idle
    observations are zero-width spans (``start_s == end_s``) that contribute
    load samples but no busy time.
    """

    replica: int
    start_s: float
    end_s: float
    queue_depth: int
    running: int
    tokens: int


@dataclass(frozen=True, slots=True)
class TelemetrySample:
    """Aggregated telemetry of one sampling interval.

    ``t_s`` is the interval's *end* time, ``dt_s`` its width (the final
    interval of a run may be shorter).  ``queue_depth`` and ``running`` are
    the last observed values at or before ``t_s``, summed across replicas;
    ``busy_s`` holds each replica's busy seconds within the interval.
    """

    t_s: float
    dt_s: float
    queue_depth: int
    running: int
    tokens: int
    busy_s: tuple[float, ...] = ()

    def validate(self) -> "TelemetrySample":
        if self.dt_s <= 0:
            raise ConfigError(f"sample dt_s must be positive, got {self.dt_s}")
        if any(b < 0 for b in self.busy_s):
            raise ConfigError(f"sample busy_s must be >= 0, got {self.busy_s}")
        return self

    @property
    def utilizations(self) -> tuple[float, ...]:
        """Per-replica busy fraction of this interval."""

        return tuple(min(1.0, b / self.dt_s) for b in self.busy_s)

    @property
    def utilization(self) -> float:
        """Mean busy fraction across replicas."""

        if not self.busy_s:
            return 0.0
        return sum(self.utilizations) / len(self.busy_s)

    @property
    def tokens_per_s(self) -> float:
        return safe_div(self.tokens, self.dt_s)

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "dt_s": self.dt_s,
            "queue_depth": self.queue_depth,
            "running": self.running,
            "tokens": self.tokens,
            "busy_s": list(self.busy_s),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySample":
        return cls(
            t_s=data["t_s"],
            dt_s=data["dt_s"],
            queue_depth=data["queue_depth"],
            running=data["running"],
            tokens=data["tokens"],
            busy_s=tuple(data.get("busy_s", ())),
        ).validate()


@dataclass(frozen=True, slots=True)
class TelemetrySeries:
    """A run's complete telemetry: fixed-cadence samples from ``t0_s`` on."""

    interval_s: float
    t0_s: float
    num_replicas: int
    samples: tuple[TelemetrySample, ...] = ()

    def validate(self) -> "TelemetrySeries":
        if self.interval_s <= 0:
            raise ConfigError(
                f"telemetry interval must be positive, got {self.interval_s}"
            )
        if self.num_replicas <= 0:
            raise ConfigError(
                f"telemetry num_replicas must be positive, got {self.num_replicas}"
            )
        for sample in self.samples:
            if len(sample.busy_s) != self.num_replicas:
                raise ConfigError(
                    f"sample at t={sample.t_s} carries {len(sample.busy_s)} "
                    f"busy entries for a {self.num_replicas}-replica series"
                )
        return self

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        """Span covered by the samples (0.0 for an empty series)."""

        return sum(s.dt_s for s in self.samples)

    def busy_totals(self) -> tuple[float, ...]:
        """Per-replica busy seconds summed over every sample.

        Equals each replica's end-of-run ``busy_s`` aggregate exactly (up to
        float addition order) -- the invariant that keeps the sampled series
        consistent with the headline utilization numbers.
        """

        totals = [0.0] * self.num_replicas
        for sample in self.samples:
            for i, b in enumerate(sample.busy_s):
                totals[i] += b
        return tuple(totals)

    def mean_utilizations(self) -> tuple[float, ...]:
        """Per-replica busy fraction of the whole sampled span."""

        span = self.duration_s
        return tuple(safe_div(total, span) for total in self.busy_totals())

    def series(self, metric: str) -> list[float]:
        """One named metric as a list: utilization / queue_depth / running /
        tokens_per_s, or ``util:<replica>`` for a single replica's busy
        fraction."""

        if metric.startswith("util:"):
            replica = int(metric.split(":", 1)[1])
            if not 0 <= replica < self.num_replicas:
                raise ConfigError(
                    f"replica {replica} out of range for a "
                    f"{self.num_replicas}-replica series"
                )
            return [s.utilizations[replica] for s in self.samples]
        try:
            return [getattr(s, metric) for s in self.samples]
        except AttributeError:
            raise ConfigError(
                f"unknown telemetry metric {metric!r} (try utilization, "
                f"queue_depth, running, tokens_per_s, or util:<replica>)"
            ) from None

    def to_dict(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "t0_s": self.t0_s,
            "num_replicas": self.num_replicas,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySeries":
        return cls(
            interval_s=data["interval_s"],
            t0_s=data["t0_s"],
            num_replicas=data["num_replicas"],
            samples=tuple(TelemetrySample.from_dict(s) for s in data["samples"]),
        ).validate()


@dataclass(slots=True)
class TelemetryRecorder(Observer):
    """Collect raw step observations during a run; bucket them afterwards.

    As an observer, it records one :class:`StepEvent` per costed iteration
    (:meth:`on_step`) and a zero-width one whenever a replica is left with an
    empty batch (:meth:`on_idle`); recording is append-only and
    allocation-light.  The serving drivers install one when a run asks for
    ``telemetry_ms`` and :meth:`build` the series after the loop drains.
    """

    interval_s: float
    num_replicas: int = 1
    events: list[StepEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The one check of the sampling cadence: NaN or inf would simulate the
        # whole run and only then fail (or store an Infinity interval).
        if not (math.isfinite(self.interval_s) and self.interval_s > 0):
            raise ConfigError(
                f"telemetry interval must be positive and finite, got {self.interval_s}"
            )
        if self.num_replicas <= 0:
            raise ConfigError(
                f"telemetry num_replicas must be positive, got {self.num_replicas}"
            )

    def on_step(self, replica, start_s, end_s, plan, cycles) -> None:
        """Record one costed iteration; its decode tokens are its output."""

        scheduler = replica.scheduler
        self.events.append(
            StepEvent(
                replica.replica_id, start_s, end_s, len(scheduler.waiting),
                len(scheduler.running), len(plan.decode),
            )
        )

    def on_idle(self, replica, now_s) -> None:
        """Record the load of an empty batch (no busy time)."""

        self.events.append(
            StepEvent(replica.replica_id, now_s, now_s, len(replica.scheduler.waiting), 0, 0)
        )

    def build(self, t0_s: float, end_s: float | None = None) -> TelemetrySeries:
        """Fold the raw events into a fixed-cadence series over [t0_s, end_s].

        ``end_s`` defaults to the latest event end.  Busy time is split
        exactly across interval boundaries; tokens land in the interval their
        step finished in; queue/batch samples are the last observation per
        replica at or before each interval's end, summed across replicas.
        """

        events = sorted(self.events, key=lambda e: (e.start_s, e.replica))
        if end_s is None:
            end_s = max((e.end_s for e in events), default=t0_s)
        span = max(0.0, end_s - t0_s)
        buckets = max(1, math.ceil(span / self.interval_s - 1e-9))
        if buckets > MAX_TELEMETRY_SAMPLES:
            raise ConfigError(
                f"telemetry would produce {buckets} samples (cap "
                f"{MAX_TELEMETRY_SAMPLES}); raise the sampling interval"
            )

        busy = [[0.0] * self.num_replicas for _ in range(buckets)]
        tokens = [0] * buckets
        queue = [0] * buckets
        running = [0] * buckets

        def bucket_of(t_s: float) -> int:
            return min(buckets - 1, max(0, int((t_s - t0_s) / self.interval_s)))

        for event in events:
            if event.end_s > event.start_s:
                # Split the busy span across every interval it overlaps.
                k = bucket_of(event.start_s)
                remaining_start = event.start_s
                while remaining_start < event.end_s and k < buckets:
                    bucket_end = t0_s + (k + 1) * self.interval_s
                    chunk_end = min(event.end_s, bucket_end)
                    busy[k][event.replica] += chunk_end - remaining_start
                    remaining_start = chunk_end
                    k += 1
                if remaining_start < event.end_s:
                    # Span ran past the nominal end (clock jitter): fold the
                    # tail into the final interval so busy totals stay exact.
                    busy[buckets - 1][event.replica] += event.end_s - remaining_start
            if event.tokens:
                tokens[bucket_of(event.end_s)] += event.tokens

        # Load levels: last observation per replica at or before bucket end.
        last_queue = [0] * self.num_replicas
        last_running = [0] * self.num_replicas
        pointer = 0
        for k in range(buckets):
            bucket_end = t0_s + (k + 1) * self.interval_s
            while pointer < len(events) and events[pointer].start_s <= bucket_end:
                event = events[pointer]
                last_queue[event.replica] = event.queue_depth
                last_running[event.replica] = event.running
                pointer += 1
            queue[k] = sum(last_queue)
            running[k] = sum(last_running)

        samples = []
        for k in range(buckets):
            start = t0_s + k * self.interval_s
            t = min(end_s, start + self.interval_s)
            dt = t - start
            if dt <= 0:
                dt = self.interval_s
                t = start + dt
            samples.append(
                TelemetrySample(
                    t_s=t,
                    dt_s=dt,
                    queue_depth=queue[k],
                    running=running[k],
                    tokens=tokens[k],
                    busy_s=tuple(busy[k]),
                ).validate()
            )
        return TelemetrySeries(
            interval_s=self.interval_s,
            t0_s=t0_s,
            num_replicas=self.num_replicas,
            samples=tuple(samples),
        ).validate()
