"""The multi-replica serving simulator.

:class:`ClusterSimulator` runs N accelerator replicas against one shared
arrival stream.  Each replica is a :class:`~repro.serve.simulator.ReplicaSim`,
the one implementation of a serving step, and the fleet is driven by
:func:`~repro.serve.simulator.run_loop`, the one serving loop (the
single-accelerator :class:`~repro.serve.simulator.ServingSimulator` drives a
one-replica fleet through it too).  This module adds only what a fleet needs
on top of them: validation of the fleet shape, a pluggable
:class:`~repro.cluster.router.Router` that picks, at each request's arrival
instant, which replica receives it, and the fleet's
:class:`~repro.cluster.metrics.ClusterMetrics`.

Colocated fleets tag every replica ``"mixed"``; disaggregated fleets split
them into ``"prefill"`` replicas (running
:class:`~repro.serve.schedpolicy.PrefillOnlyPolicy`, fed by the arrival
router) and ``"decode"`` replicas (fed exclusively by handoffs, which a
``decode_router`` spreads over them once each request's KV cache has been
transferred, ``kv_transfer_s`` after its prompt finished).

Homogeneous replicas share one memoized step-cost model (the cluster scenario
builds one per *distinct* system preset), so a 16-replica fleet pays for the
distinct ``(batch, seq-bucket)`` shapes it visits, not for 16 copies of them.

``ReplicaSim``, ``plan_cycles`` and ``complete_step`` are re-exported here.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.metrics import ClusterMetrics, ReplicaMetrics
from repro.cluster.router import Router
from repro.common.errors import ConfigError
from repro.obs.observer import Observer
from repro.obs.telemetry import TelemetryRecorder
from repro.serve.arrival import ArrivalProcess
from repro.serve.metrics import ServeSLO
from repro.serve.simulator import ReplicaSim, complete_step, plan_cycles, run_loop

__all__ = [
    "ClusterSimulator",
    "ReplicaSim",
    "complete_step",
    "plan_cycles",
]


class ClusterSimulator:
    """Simulate serving one request stream on a fleet of replicas.

    ``router`` spreads arrivals over the arrival-eligible replicas (the whole
    fleet when colocated, the prefill replicas when disaggregated);
    ``decode_router`` -- required exactly when the fleet is disaggregated --
    spreads prefill-complete handoffs over the decode replicas, each arriving
    ``kv_transfer_s`` after its prompt finished.
    """

    def __init__(
        self,
        arrival: ArrivalProcess,
        router: Router,
        replicas: Sequence[ReplicaSim],
        slo: ServeSLO | None = None,
        label: str = "cluster",
        workload_name: str = "workload",
        router_name: str | None = None,
        kv_transfer_s: float = 0.0,
        decode_router: Router | None = None,
        telemetry_ms: float | None = None,
    ) -> None:
        if not replicas:
            raise ConfigError("a cluster needs at least one replica")
        if kv_transfer_s < 0:
            raise ConfigError(f"kv_transfer_s must be >= 0, got {kv_transfer_s}")
        self.replicas = list(replicas)
        prefill = [r for r in self.replicas if r.role == "prefill"]
        decode = [r for r in self.replicas if r.role == "decode"]
        self.disaggregated = bool(prefill or decode)
        if self.disaggregated:
            if any(r.role == "mixed" for r in self.replicas):
                raise ConfigError(
                    "a disaggregated fleet must tag every replica prefill or decode"
                )
            if not prefill or not decode:
                raise ConfigError(
                    "a disaggregated fleet needs at least one prefill and one "
                    "decode replica"
                )
            if decode_router is None:
                raise ConfigError("a disaggregated fleet needs a decode_router")
            if decode_router.num_replicas != len(decode):
                raise ConfigError(
                    f"decode router expects {decode_router.num_replicas} replicas, "
                    f"fleet has {len(decode)} decode replicas"
                )
        elif decode_router is not None:
            raise ConfigError("decode_router is only meaningful for disaggregated fleets")
        entry = prefill if self.disaggregated else self.replicas
        if router.num_replicas != len(entry):
            raise ConfigError(
                f"router expects {router.num_replicas} replicas, fleet has "
                f"{len(entry)} arrival-eligible replicas"
            )
        self.arrival = arrival
        self.router = router
        self.decode_router = decode_router
        self.kv_transfer_s = kv_transfer_s
        self.slo = (slo if slo is not None else ServeSLO()).validate()
        self.label = label
        self.workload_name = workload_name
        self.router_name = router_name if router_name is not None else router.name
        self.telemetry_ms = telemetry_ms

    def run(self, observers: Sequence[Observer] = ()) -> ClusterMetrics:
        recorder = (
            None if self.telemetry_ms is None
            else TelemetryRecorder(self.telemetry_ms * 1e-3, num_replicas=len(self.replicas))
        )
        run = run_loop(
            self.arrival, self.replicas, self.router,
            observers if recorder is None else (*observers, recorder),
            decode_router=self.decode_router, kv_transfer_s=self.kv_transfer_s,
        )
        replicas = tuple(
            ReplicaMetrics(
                replica_id=r.replica_id,
                system=r.system_name,
                frequency_ghz=r.frequency_ghz,
                steps=r.steps,
                total_cycles=r.total_cycles,
                busy_s=r.busy_s,
                routed=r.routed,
                handoffs=r.handoffs,
                role=r.role,
                requests=tuple(r.completed),
            ).validate()
            for r in self.replicas
        )
        last_finish_s = max(
            (r.finish_s for replica in replicas for r in replica.requests),
            default=run.first_arrival_s,
        )
        meta = {
            "arrival": self.arrival.name,
            "router": self.router_name,
            "num_replicas": len(self.replicas),
            "routed": [replica.routed for replica in self.replicas],
        }
        if self.disaggregated:
            meta["roles"] = [replica.role for replica in self.replicas]
            meta["handoffs"] = sum(replica.handoffs for replica in self.replicas)
            meta["kv_transfer_s"] = self.kv_transfer_s
        kv_managers = [m for r in self.replicas if (m := r.scheduler.kv) is not None]
        if len(kv_managers) == len(self.replicas):
            # Emitted only when the KV memory model is on fleet-wide, keeping
            # legacy (unbounded-memory) cluster meta byte-identical.
            kv_cfg = self.replicas[0].scheduler.config.kv
            completed_total = sum(len(r.completed) for r in self.replicas)
            preemptions_total = sum(r.scheduler.preemptions for r in self.replicas)
            meta["kv_budget_tokens"] = [
                r.scheduler.config.kv.budget_tokens for r in self.replicas
            ]
            meta["kv_block_tokens"] = kv_cfg.block_tokens
            meta["preemption"] = kv_cfg.preemption
            meta["preemptions"] = [r.scheduler.preemptions for r in self.replicas]
            meta["preemption_rate"] = preemptions_total / max(1, completed_total)
            meta["kv_peak_utilization"] = [m.peak_utilization for m in kv_managers]
            meta["kv_memory_bound_s"] = [r.mem_bound_s for r in self.replicas]
        meta.update(run.cost_meta)
        return ClusterMetrics(
            label=self.label,
            workload=self.workload_name,
            router=self.router_name,
            duration_s=max(0.0, last_finish_s - run.first_arrival_s),
            replicas=replicas,
            slo=self.slo,
            meta=meta,
            telemetry=None if recorder is None else recorder.build(run.first_arrival_s),
        )
