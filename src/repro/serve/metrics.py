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
from typing import TYPE_CHECKING, ClassVar, Self, Sequence

from repro.common.errors import ConfigError
from repro.common.mathutils import percentiles, safe_div, weighted_mean
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


def _spans_s(requests: Sequence[RequestMetrics], span: str) -> list[float]:
    """One lifecycle span per request: latency, ttft, prefill or decode.

    Prefill spans cover only the requests whose prefill was modeled.
    """

    if span == "latency":
        return [r.latency_s for r in requests]
    if span == "ttft":
        return [r.ttft_s for r in requests]
    if span == "prefill":
        return [r.prefill_s for r in requests if r.prefill_s is not None]
    if span == "decode":
        return [r.decode_s for r in requests]
    raise ConfigError(f"unknown request span {span!r}")


class RequestAggregates:
    """The request-level aggregates of :class:`ServeMetrics` and ClusterMetrics.

    A subclass is a frozen dataclass with ``label``, ``duration_s``, ``slo``,
    ``telemetry`` and ``sketch`` fields and an id-sorted ``requests``
    sequence, and it names its request groups: one on a single accelerator,
    one per replica in a fleet.  Exact percentiles run over every request;
    the opt-in sketch merges one log-bucketed histogram per group, which is
    exact bucket addition, so a single accelerator and its one-replica fleet
    agree in both modes.
    """

    __slots__ = ()

    if TYPE_CHECKING:
        label: str
        duration_s: float
        slo: ServeSLO
        telemetry: TelemetrySeries | None
        sketch: bool
        __dataclass_fields__: ClassVar[dict]

        @property
        def requests(self) -> tuple[RequestMetrics, ...]: ...

    def request_groups(self) -> Sequence[Sequence[RequestMetrics]]:
        raise NotImplementedError

    @property
    def num_requests(self) -> int:
        return sum(len(group) for group in self.request_groups())

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_tokens for group in self.request_groups() for r in group)

    @property
    def has_prefill_phase(self) -> bool:
        """Whether any completed request carries prefill-phase accounting."""

        return any(
            r.prefill_end_s is not None for group in self.request_groups() for r in group
        )

    # -- span percentiles --------------------------------------------------------------
    def merged_histogram(self, span: str) -> Histogram:
        """One histogram per request group, merged -- the fixed-memory path.

        Each group's spans are bucketed independently and the histograms are
        merged (exact bucket-count addition, deterministic group order), which
        is how fleet percentiles scale to runs too large to concatenate
        per-request lists for.
        """

        merged = Histogram()
        for group in self.request_groups():
            merged.merge(Histogram.of(_spans_s(group, span)))
        return merged

    def percentiles_ms(self, span: str, points: Sequence[float]) -> list[float]:
        """``span`` percentiles (ms): the exact list, or the sketch when opted in."""

        if self.sketch:
            values = self.merged_histogram(span).quantiles(points)
        else:
            groups = self.request_groups()
            values = percentiles([v for group in groups for v in _spans_s(group, span)], points)
        return [value * 1e3 for value in values]

    def latency_percentile_ms(self, point: float) -> float:
        return self.percentiles_ms("latency", (point,))[0]

    def ttft_percentile_ms(self, point: float) -> float:
        return self.percentiles_ms("ttft", (point,))[0]

    def prefill_percentile_ms(self, point: float) -> float:
        """Prefill-span percentile over the prefill-phase requests (ms)."""

        return self.percentiles_ms("prefill", (point,))[0]

    def decode_percentile_ms(self, point: float) -> float:
        return self.percentiles_ms("decode", (point,))[0]

    def _add_percentiles(self, out: dict, spans: Sequence[str]) -> None:
        """Add ``<span>_p<point>_ms`` for every reported point, point-major."""

        table = [self.percentiles_ms(span, REPORTED_PERCENTILES) for span in spans]
        for i, point in enumerate(REPORTED_PERCENTILES):
            for span, values in zip(spans, table, strict=True):
                out[f"{span}_p{point:g}_ms"] = values[i]

    # -- headline aggregates -----------------------------------------------------------
    @property
    def mean_tpot_ms(self) -> float:
        """Per-token decode pace, weighted by each request's decoded tokens."""

        requests = self.requests
        weights = [max(0, r.output_tokens - 1) for r in requests]
        if not requests or sum(weights) == 0:
            return 0.0
        return weighted_mean([r.tpot_s for r in requests], weights) * 1e3

    @property
    def tokens_per_s(self) -> float:
        """Completed output tokens over the run's makespan."""

        return safe_div(self.total_output_tokens, self.duration_s)

    @property
    def requests_per_s(self) -> float:
        return safe_div(self.num_requests, self.duration_s)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests meeting every configured objective (1.0 if none)."""

        requests = self.requests
        if not requests or self.slo.is_trivial:
            return 1.0
        return sum(1 for r in requests if self.slo.attained(r)) / len(requests)

    # -- copies and serialization ------------------------------------------------------
    def with_label(self, label: str) -> Self:
        return self if label == self.label else replace(self, label=label)

    def with_sketch(self, sketch: bool = True) -> Self:
        """A copy answering percentiles via the merged histogram sketch."""

        return self if sketch == self.sketch else replace(self, sketch=sketch)

    def _optional_to_dict(self, data: dict) -> dict:
        """``data`` plus ``telemetry`` and ``sketch``, each only when set, so
        pre-telemetry dicts (and golden fixtures) stay bit-for-bit identical."""

        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.to_dict()
        if self.sketch:
            data["sketch"] = True
        return data

    @staticmethod
    def _optional_from_dict(data: dict) -> dict:
        """The ``telemetry``/``sketch`` constructor arguments of ``data``."""

        telemetry = data.get("telemetry")
        return {
            "telemetry": None if telemetry is None else TelemetrySeries.from_dict(telemetry),
            "sketch": bool(data.get("sketch", False)),
        }


@dataclass(frozen=True, slots=True)
class ServeMetrics(RequestAggregates):
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

    def request_groups(self) -> tuple[tuple[RequestMetrics, ...]]:
        return (self.requests,)

    @property
    def prefills_s(self) -> list[float]:
        """Per-request prefill spans, for requests whose prefill was modeled."""

        return _spans_s(self.requests, "prefill")

    @property
    def decodes_s(self) -> list[float]:
        return _spans_s(self.requests, "decode")

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.requests)

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
            self._add_percentiles(out, ("latency", "ttft"))
        # Per-phase aggregates exist only when the run modeled prefill, so
        # decode-only runs keep the exact legacy headline (golden compat).
        if self.has_prefill_phase:
            self._add_percentiles(out, ("prefill", "decode"))
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

        return self._optional_to_dict({
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
        })

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
            **cls._optional_from_dict(data),
        )
