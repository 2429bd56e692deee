"""Cluster metrics: per-replica accounting merged into fleet-level aggregates.

The authoritative data is one :class:`ReplicaMetrics` per replica, each holding
the :class:`~repro.serve.metrics.RequestMetrics` records of the requests that
replica completed plus its own step/cycle/busy-time counters.  Everything the
evaluation reports at fleet level -- merged p50/p95/p99 latency and TTFT,
fleet tokens/s and requests/s, per-replica utilization and the load-imbalance
factor -- is derived on demand; the request-level aggregates come from the
:class:`~repro.serve.metrics.RequestAggregates` base that
:class:`~repro.serve.metrics.ServeMetrics` shares, with one request group per
replica.

:class:`ClusterMetrics` serializes with ``to_dict``/``from_dict`` and carries
``result_kind = "cluster"``, so cluster points flow through the sweep result
store next to kernel (``"sim"``) and single-accelerator (``"serve"``) records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.common.errors import ConfigError
from repro.common.mathutils import mean, safe_div
from repro.obs.telemetry import TelemetrySeries
from repro.serve.metrics import (
    REPORTED_PERCENTILES,
    RequestAggregates,
    RequestMetrics,
    ServeSLO,
)


@dataclass(frozen=True, slots=True)
class ReplicaMetrics:
    """One replica's share of a cluster run.

    ``role`` is "mixed" for colocated fleets; disaggregated fleets split into
    "prefill" replicas (which complete no requests -- they hand each one off
    once its prompt is processed, counted in ``handoffs``) and "decode"
    replicas (whose ``routed`` counts delivered handoffs).
    """

    replica_id: int
    system: str
    frequency_ghz: float
    #: Scheduler iterations this replica executed.
    steps: int
    #: Total simulated cycles across this replica's iterations.
    total_cycles: int
    #: Wall-clock seconds the replica spent mid-step (vs. idle).
    busy_s: float
    #: Requests the router sent here (>= len(requests) only transiently;
    #: equal once the run drains, except on prefill replicas).
    routed: int
    requests: tuple[RequestMetrics, ...] = ()
    role: str = "mixed"
    #: Requests handed off to a decode replica (prefill replicas only).
    handoffs: int = 0

    def validate(self) -> "ReplicaMetrics":
        if self.replica_id < 0:
            raise ConfigError(f"replica_id must be >= 0, got {self.replica_id}")
        if self.frequency_ghz <= 0:
            raise ConfigError(f"frequency_ghz must be positive, got {self.frequency_ghz}")
        if self.busy_s < 0:
            raise ConfigError(f"busy_s must be >= 0, got {self.busy_s}")
        if self.handoffs < 0:
            raise ConfigError(f"handoffs must be >= 0, got {self.handoffs}")
        if self.routed < len(self.requests):
            raise ConfigError(
                f"replica {self.replica_id} completed {len(self.requests)} requests "
                f"but was routed only {self.routed}"
            )
        return self

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def output_tokens(self) -> int:
        return sum(r.output_tokens for r in self.requests)

    def utilization(self, duration_s: float) -> float:
        """Fraction of ``duration_s`` this replica spent executing steps."""

        return min(1.0, safe_div(self.busy_s, duration_s))

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "system": self.system,
            "frequency_ghz": self.frequency_ghz,
            "steps": self.steps,
            "total_cycles": self.total_cycles,
            "busy_s": self.busy_s,
            "routed": self.routed,
            "role": self.role,
            "handoffs": self.handoffs,
            "requests": [r.to_dict() for r in self.requests],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicaMetrics":
        return cls(
            replica_id=data["replica_id"],
            system=data["system"],
            frequency_ghz=data["frequency_ghz"],
            steps=data["steps"],
            total_cycles=data["total_cycles"],
            busy_s=data["busy_s"],
            routed=data["routed"],
            # Stores written before disaggregation carry neither key.
            role=data.get("role", "mixed"),
            handoffs=data.get("handoffs", 0),
            requests=tuple(RequestMetrics.from_dict(r) for r in data["requests"]),
        ).validate()


@dataclass(frozen=True, slots=True)
class ClusterMetrics(RequestAggregates):
    """Complete result of one multi-replica serving simulation."""

    #: Result-kind tag used by the sweep store to pick the right deserializer.
    result_kind: ClassVar[str] = "cluster"

    label: str
    workload: str
    router: str
    #: Wall-clock span of the run: first arrival to last finish, seconds.
    duration_s: float
    replicas: tuple[ReplicaMetrics, ...] = ()
    slo: ServeSLO = field(default_factory=ServeSLO)
    meta: dict = field(default_factory=dict)
    #: Optional fixed-cadence time series; None unless the run sampled
    #: telemetry, and omitted from serialization when None so pre-telemetry
    #: metrics dicts (and golden fixtures) stay bit-for-bit identical.
    telemetry: TelemetrySeries | None = None
    #: Opt-in sketch mode (``--metrics-sketch``): fleet percentiles are
    #: answered by merging one log-bucketed histogram per replica (see
    #: :meth:`~repro.serve.metrics.RequestAggregates.merged_histogram`) within
    #: the documented relative error bound, instead of concatenating every
    #: replica's per-request list.  Off by default (and omitted from
    #: serialization when off) so golden fixtures stay bit-for-bit identical.
    sketch: bool = False

    # -- fleet-level series ------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def requests(self) -> tuple[RequestMetrics, ...]:
        """Every completed request in the fleet, merged and id-sorted."""

        merged = [r for replica in self.replicas for r in replica.requests]
        return tuple(sorted(merged, key=lambda r: r.request_id))

    def request_groups(self) -> tuple[tuple[RequestMetrics, ...], ...]:
        return tuple(replica.requests for replica in self.replicas)

    @property
    def steps(self) -> int:
        return sum(replica.steps for replica in self.replicas)

    @property
    def total_cycles(self) -> int:
        return sum(replica.total_cycles for replica in self.replicas)

    # -- headline aggregates -----------------------------------------------------------
    @property
    def utilizations(self) -> list[float]:
        """Per-replica busy fraction of the fleet makespan, replica order."""

        return [replica.utilization(self.duration_s) for replica in self.replicas]

    # -- disaggregation (per-phase) aggregates -----------------------------------------
    @property
    def is_disaggregated(self) -> bool:
        """Whether the fleet split replicas into prefill and decode roles."""

        return any(replica.role == "prefill" for replica in self.replicas)

    @property
    def handoffs(self) -> int:
        """Prefill-to-decode handoffs across the fleet (0 when colocated)."""

        return sum(replica.handoffs for replica in self.replicas)

    def role_utilization(self, role: str) -> float:
        """Mean busy fraction of the replicas tagged ``role`` (0.0 if none)."""

        members = [r for r in self.replicas if r.role == role]
        if not members:
            return 0.0
        return mean([r.utilization(self.duration_s) for r in members])

    @property
    def prefill_utilization(self) -> float:
        return self.role_utilization("prefill")

    @property
    def decode_utilization(self) -> float:
        return self.role_utilization("decode")

    @property
    def load_imbalance(self) -> float:
        """Max/mean completed output tokens across replicas (1.0 = balanced).

        The classic imbalance factor: how much hotter the hottest replica ran
        than the fleet average.  0.0 when the fleet completed nothing.
        """

        tokens = [replica.output_tokens for replica in self.replicas]
        if not tokens or sum(tokens) == 0:
            return 0.0
        return max(tokens) / mean(tokens)

    # -- formatting --------------------------------------------------------------------
    def headline_metrics(self) -> dict:
        num_requests = self.num_requests
        out = {
            "label": self.label,
            "workload": self.workload,
            "router": self.router,
            "num_replicas": self.num_replicas,
            "num_requests": num_requests,
            "duration_s": self.duration_s,
            "steps": self.steps,
            "total_cycles": self.total_cycles,
            "tokens_per_s": self.tokens_per_s,
            "requests_per_s": self.requests_per_s,
            "mean_tpot_ms": self.mean_tpot_ms,
            "load_imbalance": self.load_imbalance,
            "slo_attainment": self.slo_attainment,
            "utilizations": self.utilizations,
        }
        if num_requests:
            self._add_percentiles(out, ("latency", "ttft"))
        if self.has_prefill_phase:
            self._add_percentiles(out, ("prefill",))
        if self.is_disaggregated:
            out["handoffs"] = self.handoffs
            out["prefill_utilization"] = self.prefill_utilization
            out["decode_utilization"] = self.decode_utilization
        return out

    def summary(self) -> str:
        if not self.num_requests:
            return f"[{self.label}] {self.workload}: no completed requests"
        p50, p95, p99 = (self.latency_percentile_ms(p) for p in REPORTED_PERCENTILES)
        disagg = (
            f"{self.handoffs} handoffs, prefill/decode util "
            f"{self.prefill_utilization:.1%}/{self.decode_utilization:.1%}, "
            if self.is_disaggregated
            else ""
        )
        return (
            f"[{self.label}] {self.workload} x{self.num_replicas} via {self.router}: "
            f"{self.num_requests} requests in {self.duration_s * 1e3:.2f} ms "
            f"({self.steps} fleet steps), "
            f"latency p50/p95/p99 = {p50:.3f}/{p95:.3f}/{p99:.3f} ms, "
            f"TTFT p95 {self.ttft_percentile_ms(95):.3f} ms, "
            f"{self.tokens_per_s:.0f} tokens/s, {self.requests_per_s:.0f} req/s, "
            f"{disagg}imbalance {self.load_imbalance:.2f}, SLO {self.slo_attainment:.1%}"
        )

    # -- serialization (sweep result store) --------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping that round-trips via :meth:`from_dict`.

        The per-replica records are authoritative; the derived fleet
        aggregates ride along under ``"metrics"`` for human consumers and are
        recomputed on demand after a reload.
        """

        return self._optional_to_dict({
            "label": self.label,
            "workload": self.workload,
            "router": self.router,
            "duration_s": self.duration_s,
            "replicas": [replica.to_dict() for replica in self.replicas],
            "slo": self.slo.to_dict(),
            "meta": dict(self.meta),
            # Derived ride-along block for humans/dashboards; recomputed from
            # the replica records on load, so from_dict never reads it.
            "metrics": self.headline_metrics(),  # repro: noqa[SER001]
        })

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterMetrics":
        return cls(
            label=data["label"],
            workload=data["workload"],
            router=data["router"],
            duration_s=data["duration_s"],
            replicas=tuple(ReplicaMetrics.from_dict(r) for r in data["replicas"]),
            slo=ServeSLO.from_dict(data.get("slo", {})),
            meta=dict(data.get("meta", {})),
            **cls._optional_from_dict(data),
        )
