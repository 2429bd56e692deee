"""Serving metrics: per-request latency breakdowns and fleet-level aggregates.

The raw, authoritative data is one :class:`RequestMetrics` per completed
request (arrival / admission / first-token / finish timestamps plus token
budgets); everything the evaluation reports -- p50/p95/p99 latency,
time-to-first-token, time-per-output-token, throughput and SLO attainment --
is derived from it on demand through :mod:`repro.common.mathutils`.  Like
:class:`~repro.sim.results.SimResult`, :class:`ServeMetrics` serializes with
``to_dict``/``from_dict`` (raw records round-trip; derived metrics ride along
for human consumers) so serving points flow through the sweep result store
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from repro.common.errors import ConfigError
from repro.common.mathutils import percentile, safe_div, weighted_mean
from repro.obs.metrics import Histogram
from repro.obs.telemetry import TelemetrySeries

#: The percentile points every summary reports.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True, slots=True)
class RequestMetrics:
    """Lifecycle timestamps and token budgets of one completed request.

    ``prefill_end_s`` is when the last prompt token was processed; it is None
    for decode-only runs that never model the prefill phase, and such records
    serialize without the field so decode-only metrics dicts stay bit-for-bit
    identical to the pre-prefill format (old stores load unchanged).
    """

    request_id: int
    arrival_s: float
    admitted_s: float
    first_token_s: float
    finish_s: float
    prompt_tokens: int
    output_tokens: int
    prefill_end_s: float | None = None

    def validate(self) -> "RequestMetrics":
        if not self.arrival_s <= self.admitted_s <= self.first_token_s <= self.finish_s:
            raise ConfigError(
                f"request {self.request_id} timestamps must be ordered "
                f"arrival <= admitted <= first_token <= finish, got "
                f"{self.arrival_s} / {self.admitted_s} / {self.first_token_s} / {self.finish_s}"
            )
        if self.prefill_end_s is not None and not (
            self.admitted_s <= self.prefill_end_s <= self.first_token_s
        ):
            raise ConfigError(
                f"request {self.request_id} prefill_end_s must satisfy "
                f"admitted <= prefill_end <= first_token, got "
                f"{self.admitted_s} / {self.prefill_end_s} / {self.first_token_s}"
            )
        if self.output_tokens <= 0:
            raise ConfigError(f"output_tokens must be positive, got {self.output_tokens}")
        return self

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to last generated token."""

        return self.finish_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting for a batch slot."""

        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, measured from arrival."""

        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for single-token outputs)."""

        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.output_tokens - 1)

    @property
    def prefill_s(self) -> float | None:
        """Admission-to-last-prompt-token span (None when prefill unmodeled)."""

        if self.prefill_end_s is None:
            return None
        return self.prefill_end_s - self.admitted_s

    @property
    def decode_s(self) -> float:
        """First-to-last output token span: the pure decode phase."""

        return self.finish_s - self.first_token_s

    def to_dict(self) -> dict:
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "prefill_end_s"
        }
        if self.prefill_end_s is not None:
            data["prefill_end_s"] = self.prefill_end_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RequestMetrics":
        kwargs = {
            f.name: data[f.name] for f in fields(cls) if f.name != "prefill_end_s"
        }
        return cls(**kwargs, prefill_end_s=data.get("prefill_end_s")).validate()


@dataclass(frozen=True, slots=True)
class ServeSLO:
    """Latency objectives a request must meet to count as SLO-attained."""

    ttft_ms: float | None = None
    latency_ms: float | None = None

    def validate(self) -> "ServeSLO":
        for name in ("ttft_ms", "latency_ms"):
            value = getattr(self, name)
            if value is not None and not (0 < value < math.inf):
                raise ConfigError(f"ServeSLO.{name} must be positive and finite, got {value}")
        return self

    @property
    def is_trivial(self) -> bool:
        return self.ttft_ms is None and self.latency_ms is None

    def attained(self, request: RequestMetrics) -> bool:
        """Whether ``request`` met every configured objective."""

        if self.ttft_ms is not None and request.ttft_s * 1e3 > self.ttft_ms:
            return False
        if self.latency_ms is not None and request.latency_s * 1e3 > self.latency_ms:
            return False
        return True

    def to_dict(self) -> dict:
        return {"ttft_ms": self.ttft_ms, "latency_ms": self.latency_ms}

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSLO":
        return cls(
            ttft_ms=data.get("ttft_ms"), latency_ms=data.get("latency_ms")
        ).validate()


@dataclass(frozen=True, slots=True)
class ServeMetrics:
    """Complete result of one serving simulation."""

    #: Result-kind tag used by the sweep store to pick the right deserializer.
    result_kind: ClassVar[str] = "serve"

    label: str
    workload: str
    frequency_ghz: float
    #: Wall-clock span of the run: first arrival to last finish, seconds.
    duration_s: float
    #: Scheduler iterations executed (each decodes one token per batched request).
    steps: int
    #: Total simulated cycles across all iterations.
    total_cycles: int
    requests: tuple[RequestMetrics, ...] = ()
    slo: ServeSLO = field(default_factory=ServeSLO)
    meta: dict = field(default_factory=dict)
    #: Optional fixed-cadence time series; None unless the run sampled
    #: telemetry, and omitted from serialization when None so pre-telemetry
    #: metrics dicts (and golden fixtures) stay bit-for-bit identical.
    telemetry: TelemetrySeries | None = None
    #: Opt-in sketch mode (``--metrics-sketch``): percentiles are answered by
    #: a log-bucketed :class:`~repro.obs.metrics.Histogram` within its
    #: documented relative error bound instead of the exact per-request list.
    #: Off by default (and omitted from serialization when off) so golden
    #: fixtures stay bit-for-bit identical.
    sketch: bool = False

    # -- per-request series ------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def latencies_s(self) -> list[float]:
        return [r.latency_s for r in self.requests]

    @property
    def ttfts_s(self) -> list[float]:
        return [r.ttft_s for r in self.requests]

    @property
    def prefills_s(self) -> list[float]:
        """Per-request prefill spans, for requests whose prefill was modeled."""

        return [r.prefill_s for r in self.requests if r.prefill_s is not None]

    @property
    def decodes_s(self) -> list[float]:
        return [r.decode_s for r in self.requests]

    @property
    def has_prefill_phase(self) -> bool:
        """Whether any completed request carries prefill-phase accounting."""

        return any(r.prefill_end_s is not None for r in self.requests)

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.requests)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.requests)

    # -- headline aggregates -----------------------------------------------------------
    def _percentile_s(self, values: list[float], point: float) -> float:
        """Exact-list percentile, or the histogram sketch when opted in."""

        if self.sketch:
            return Histogram.of(values).quantile(point)
        return percentile(values, point)

    def latency_percentile_ms(self, point: float) -> float:
        return self._percentile_s(self.latencies_s, point) * 1e3

    def ttft_percentile_ms(self, point: float) -> float:
        return self._percentile_s(self.ttfts_s, point) * 1e3

    def prefill_percentile_ms(self, point: float) -> float:
        """Prefill-span percentile over the prefill-phase requests (ms)."""

        return self._percentile_s(self.prefills_s, point) * 1e3

    def decode_percentile_ms(self, point: float) -> float:
        return self._percentile_s(self.decodes_s, point) * 1e3

    @property
    def mean_tpot_ms(self) -> float:
        """Per-token decode pace, weighted by each request's decoded tokens."""

        weights = [max(0, r.output_tokens - 1) for r in self.requests]
        if not self.requests or sum(weights) == 0:
            return 0.0
        return weighted_mean([r.tpot_s for r in self.requests], weights) * 1e3

    @property
    def tokens_per_s(self) -> float:
        return safe_div(self.total_output_tokens, self.duration_s)

    @property
    def requests_per_s(self) -> float:
        return safe_div(self.num_requests, self.duration_s)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests meeting every configured objective (1.0 if none)."""

        if not self.requests or self.slo.is_trivial:
            return 1.0
        return sum(1 for r in self.requests if self.slo.attained(r)) / len(self.requests)

    # -- formatting --------------------------------------------------------------------
    def headline_metrics(self) -> dict:
        out = {
            "label": self.label,
            "workload": self.workload,
            "num_requests": self.num_requests,
            "duration_s": self.duration_s,
            "steps": self.steps,
            "total_cycles": self.total_cycles,
            "tokens_per_s": self.tokens_per_s,
            "requests_per_s": self.requests_per_s,
            "mean_tpot_ms": self.mean_tpot_ms,
            "slo_attainment": self.slo_attainment,
        }
        if self.requests:
            for point in REPORTED_PERCENTILES:
                out[f"latency_p{point:g}_ms"] = self.latency_percentile_ms(point)
                out[f"ttft_p{point:g}_ms"] = self.ttft_percentile_ms(point)
        # Per-phase aggregates exist only when the run modeled prefill, so
        # decode-only runs keep the exact legacy headline (golden compat).
        if self.has_prefill_phase:
            for point in REPORTED_PERCENTILES:
                out[f"prefill_p{point:g}_ms"] = self.prefill_percentile_ms(point)
                out[f"decode_p{point:g}_ms"] = self.decode_percentile_ms(point)
        # KV-memory aggregates exist only when the run carried a KV budget, so
        # unbounded-memory runs keep the exact legacy headline (golden compat).
        if "preemptions" in self.meta:
            for key in (
                "preemptions",
                "preemption_rate",
                "kv_peak_utilization",
                "kv_memory_bound_frac",
            ):
                if key in self.meta:
                    out[key] = self.meta[key]
        return out

    def summary(self) -> str:
        if not self.requests:
            return f"[{self.label}] {self.workload}: no completed requests"
        p50, p95, p99 = (self.latency_percentile_ms(p) for p in REPORTED_PERCENTILES)
        prefill = (
            f"prefill p95 {self.prefill_percentile_ms(95):.3f} ms, "
            if self.has_prefill_phase
            else ""
        )
        kv = (
            f"KV peak {self.meta['kv_peak_utilization']:.0%} "
            f"({self.meta['preemptions']} preemptions), "
            if "kv_peak_utilization" in self.meta
            else ""
        )
        return (
            f"[{self.label}] {self.workload}: {self.num_requests} requests in "
            f"{self.duration_s * 1e3:.2f} ms ({self.steps} steps), "
            f"latency p50/p95/p99 = {p50:.3f}/{p95:.3f}/{p99:.3f} ms, "
            f"TTFT p95 {self.ttft_percentile_ms(95):.3f} ms, {prefill}{kv}"
            f"TPOT {self.mean_tpot_ms:.4f} ms, "
            f"{self.tokens_per_s:.0f} tokens/s, {self.requests_per_s:.0f} req/s, "
            f"SLO {self.slo_attainment:.1%}"
        )

    # -- serialization (sweep result store) --------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips via :meth:`from_dict`.

        The per-request records are authoritative; the derived aggregates ride
        along under ``"metrics"`` and are recomputed on demand after a reload.
        """

        data = {
            "label": self.label,
            "workload": self.workload,
            "frequency_ghz": self.frequency_ghz,
            "duration_s": self.duration_s,
            "steps": self.steps,
            "total_cycles": self.total_cycles,
            "requests": [r.to_dict() for r in self.requests],
            "slo": self.slo.to_dict(),
            "meta": dict(self.meta),
            # Derived ride-along block for humans/dashboards; recomputed from
            # the request records on load, so from_dict never reads it.
            "metrics": self.headline_metrics(),  # repro: noqa[SER001]
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.to_dict()
        if self.sketch:
            data["sketch"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServeMetrics":
        return cls(
            label=data["label"],
            workload=data["workload"],
            frequency_ghz=data["frequency_ghz"],
            duration_s=data["duration_s"],
            steps=data["steps"],
            total_cycles=data["total_cycles"],
            requests=tuple(RequestMetrics.from_dict(r) for r in data["requests"]),
            slo=ServeSLO.from_dict(data.get("slo", {})),
            meta=dict(data.get("meta", {})),
            telemetry=(
                TelemetrySeries.from_dict(data["telemetry"])
                if data.get("telemetry") is not None
                else None
            ),
            sketch=bool(data.get("sketch", False)),
        )

    def with_label(self, label: str) -> "ServeMetrics":
        return self if label == self.label else replace(self, label=label)

    def with_sketch(self, sketch: bool = True) -> "ServeMetrics":
        """A copy answering percentiles via the histogram sketch path."""

        return self if sketch == self.sketch else replace(self, sketch=sketch)
