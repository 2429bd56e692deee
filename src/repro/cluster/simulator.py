"""The multi-replica serving simulator.

:class:`ClusterSimulator` runs N accelerator replicas against one shared
arrival stream.  Each replica is a :class:`~repro.serve.simulator.ReplicaSim`,
the one implementation of a serving step (the single-accelerator
:class:`~repro.serve.simulator.ServingSimulator` drives one too); this module
adds only what a fleet needs on top of it: a pluggable
:class:`~repro.cluster.router.Router` that picks, at each request's arrival
instant, which replica receives it, prefill/decode handoffs, and one clock
over all replicas.

The event loop interleaves three event kinds on one clock:

1. **arrival** -- the next request of the shared stream is routed (the router
   observes replica queues exactly as they stand at that instant) and
   enqueued on the chosen replica;
2. **step end** -- a replica finishes its in-flight step
   (:meth:`~repro.serve.simulator.ReplicaSim.finish_step`), completions are
   reported to the arrival process (closing the loop for closed-loop
   traffic), and the replica immediately starts its next step;
3. **handoff** -- in a *disaggregated* fleet, a request whose prompt finished
   on a prefill replica becomes admissible on a decode replica once its KV
   cache has been transferred (``kv_transfer_s`` later); the decode router
   picks the receiving replica at that instant.

Colocated fleets tag every replica ``"mixed"``; disaggregated fleets split
them into ``"prefill"`` replicas (running
:class:`~repro.serve.schedpolicy.PrefillOnlyPolicy`, fed by the arrival
router) and ``"decode"`` replicas (fed exclusively by handoffs).

Replicas advance independently between events -- a busy replica never blocks
an idle one.  Determinism is preserved end to end: replicas are visited in
index order, event ties resolve step-ends before same-instant arrivals, and
both the arrival and handoff heaps order equal timestamps by request id, so a
seeded run reproduces every routing decision and timestamp bit-for-bit.

Homogeneous replicas share one memoized step-cost model (the cluster scenario
builds one per *distinct* system preset), so a 16-replica fleet pays for the
distinct ``(batch, seq-bucket)`` shapes it visits, not for 16 copies of them.

``ReplicaSim``, ``plan_cycles`` and ``complete_step`` are re-exported here.
"""

from __future__ import annotations

import heapq
import logging
from typing import NoReturn, Sequence

from repro.cluster.metrics import ClusterMetrics, ReplicaMetrics
from repro.cluster.router import Router
from repro.common.errors import ConfigError, LivelockError
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.tracer import CAT_HANDOFF, NULL_TRACER, Tracer, trace_request
from repro.serve.arrival import ArrivalProcess
from repro.serve.metrics import ServeSLO
from repro.serve.scheduler import ActiveRequest, HandoffRequest
from repro.serve.simulator import (
    MAX_STEPS,
    ReplicaSim,
    build_serve_stall_report,
    complete_step,
    plan_cycles,
)

__all__ = [
    "ClusterSimulator",
    "ReplicaSim",
    "complete_step",
    "plan_cycles",
]

logger = logging.getLogger(__name__)


def _replica_metrics(replica: ReplicaSim) -> ReplicaMetrics:
    """The :class:`ReplicaMetrics` of one replica after a fleet run."""

    return ReplicaMetrics(
        replica_id=replica.replica_id,
        system=replica.system_name,
        frequency_ghz=replica.frequency_ghz,
        steps=replica.steps,
        total_cycles=replica.total_cycles,
        busy_s=replica.busy_s,
        routed=replica.routed,
        handoffs=replica.handoffs,
        role=replica.role,
        requests=tuple(sorted(replica.completed, key=lambda r: r.request_id)),
    ).validate()


def _stall(replicas: Sequence[ReplicaSim], reason: str, now_s: float) -> NoReturn:
    """Raise a LivelockError carrying one stall report per listed replica."""

    reports = [
        build_serve_stall_report(
            r.scheduler, reason, now_s, r.steps, len(r.completed), replica_id=r.replica_id
        )
        for r in replicas
    ]
    raise LivelockError("\n".join(report.render() for report in reports), report=reports[0])


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
        if telemetry_ms is not None and telemetry_ms <= 0:
            raise ConfigError(f"telemetry_ms must be positive, got {telemetry_ms}")
        self.replicas = list(replicas)
        self.prefill_replicas = [r for r in self.replicas if r.role == "prefill"]
        self.decode_replicas = [r for r in self.replicas if r.role == "decode"]
        self.disaggregated = bool(self.prefill_replicas or self.decode_replicas)
        if self.disaggregated:
            if any(r.role == "mixed" for r in self.replicas):
                raise ConfigError(
                    "a disaggregated fleet must tag every replica prefill or decode"
                )
            if not self.prefill_replicas or not self.decode_replicas:
                raise ConfigError(
                    "a disaggregated fleet needs at least one prefill and one "
                    "decode replica"
                )
            if decode_router is None:
                raise ConfigError("a disaggregated fleet needs a decode_router")
            if decode_router.num_replicas != len(self.decode_replicas):
                raise ConfigError(
                    f"decode router expects {decode_router.num_replicas} replicas, "
                    f"fleet has {len(self.decode_replicas)} decode replicas"
                )
        elif decode_router is not None:
            raise ConfigError("decode_router is only meaningful for disaggregated fleets")
        self.entry_replicas = (
            self.prefill_replicas if self.disaggregated else self.replicas
        )
        if router.num_replicas != len(self.entry_replicas):
            raise ConfigError(
                f"router expects {router.num_replicas} replicas, fleet has "
                f"{len(self.entry_replicas)} arrival-eligible replicas"
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
        #: Wall-clock profile of the fleet's step-cost tables; populated by
        #: :meth:`run`, never serialized into metrics.
        self.profile: dict = {}

    def _select(self, router: Router, group: list[ReplicaSim], request, now_s: float):
        chosen = router.select(request, group, now_s)
        if not 0 <= chosen < len(group):
            raise ConfigError(
                f"router {self.router_name!r} chose replica {chosen} "
                f"of a {len(group)}-replica group"
            )
        return group[chosen]

    def run(self, tracer: Tracer | None = None, probe=None) -> ClusterMetrics:
        tracer = NULL_TRACER if tracer is None else tracer
        if probe is not None:
            # The determinism probe (repro.analysis.runtime.StepProbe) digests
            # per-replica scheduler state; like the tracer and recorder it is
            # installed on every replica and reads the arrival's RNG position
            # through this attribute.
            probe.arrival = self.arrival
        recorder = (
            TelemetryRecorder(
                interval_s=self.telemetry_ms * 1e-3,
                num_replicas=len(self.replicas),
            )
            if self.telemetry_ms is not None
            else None
        )
        # Replica pids are their ids; the per-request swimlanes live one past.
        requests_pid = len(self.replicas)
        if tracer.enabled:
            for replica in self.replicas:
                tracer.name_process(
                    replica.replica_id,
                    f"replica {replica.replica_id} [{replica.role}]",
                )
                tracer.name_thread(replica.replica_id, 0, "scheduler")
            tracer.name_process(requests_pid, "requests")
        for replica in self.replicas:
            replica.tracer = tracer
            replica.recorder = recorder
            replica.probe = probe

        # The pending heap orders un-routed requests by (arrival, id); ids are
        # unique, so heap order -- and thus every routing decision -- is total.
        # The handoff heap is keyed the same way on KV-transfer completion.
        pending: list[tuple[float, int, object]] = []
        handoffs: list[tuple[float, int, ActiveRequest]] = []
        handoff_count = 0
        for request in self.arrival.initial():
            request = request.validate()
            heapq.heappush(pending, (request.arrival_s, request.request_id, request))
        if not pending:
            raise ConfigError(
                f"arrival process {self.arrival.name!r} produced no requests"
            )
        first_arrival_s = pending[0][0]

        def collect_handoffs(now_s: float) -> None:
            nonlocal handoff_count
            for replica in self.prefill_replicas:
                for active in replica.take_handoffs():
                    handoff_count += 1
                    if tracer.enabled:
                        tracer.complete(
                            "kv-transfer",
                            CAT_HANDOFF,
                            requests_pid,
                            active.request.request_id,
                            now_s,
                            now_s + self.kv_transfer_s,
                            args={"from_replica": replica.replica_id},
                        )
                    heapq.heappush(
                        handoffs,
                        (
                            now_s + self.kv_transfer_s,
                            active.request.request_id,
                            active,
                        ),
                    )

        now_s = 0.0
        while True:
            # Route everything that has arrived by now: the router sees queue
            # depths as they stand after earlier same-instant completions.
            while pending and pending[0][0] <= now_s:
                _, _, request = heapq.heappop(pending)
                self._select(self.router, self.entry_replicas, request, now_s).enqueue(
                    request
                )

            # Deliver KV transfers that completed by now to decode replicas.
            while handoffs and handoffs[0][0] <= now_s:
                ready_s, _, active = heapq.heappop(handoffs)
                assert self.decode_router is not None
                replica = self._select(
                    self.decode_router, self.decode_replicas, active.request, now_s
                )
                if tracer.enabled:
                    tracer.instant(
                        "handoff",
                        CAT_HANDOFF,
                        requests_pid,
                        active.request.request_id,
                        ready_s,
                        args={"to_replica": replica.replica_id},
                    )
                replica.enqueue(HandoffRequest(active=active, arrival_s=ready_s))

            # Launch steps on every idle replica with admissible work (free
            # prefill may complete instantly and surface handoffs here).
            for replica in self.replicas:
                replica.maybe_start_step(now_s)
            collect_handoffs(now_s)

            # Advance the clock to the next event (step end, arrival, handoff,
            # or an idle replica's future re-admission -- a swap-preempted
            # request waiting out its transfer is an event source too).
            event_times = [r.step_end_s for r in self.replicas if r.step_end_s is not None]
            if pending:
                event_times.append(pending[0][0])
            if handoffs:
                event_times.append(handoffs[0][0])
            for replica in self.replicas:
                if replica.step_end_s is None:
                    next_arrival = replica.scheduler.next_arrival_s()
                    if next_arrival is not None and next_arrival > now_s:
                        event_times.append(next_arrival)
            if not event_times:
                stuck = [r for r in self.replicas if r.has_work]
                if stuck:
                    # Work remains but no event can ever fire: every stuck
                    # replica refused admission into an empty batch (a full-KV
                    # stall).  Raise a structured report instead of silently
                    # dropping the queued requests.
                    _stall(stuck, "admission blocked with an empty batch", now_s)
                break  # fleet drained and the stream is exhausted

            # Runaway guard, checked only while work remains so a run that
            # drains in exactly the budget still returns.  Each replica gets
            # the single-accelerator step budget (the fleet cap scales with
            # its size, matching ServingSimulator per replica).
            fleet_steps = sum(replica.steps for replica in self.replicas)
            budget = MAX_STEPS * len(self.replicas)
            if fleet_steps >= budget:
                _stall(self.replicas, f"fleet exceeded {budget} steps without draining", now_s)
            now_s = min(event_times)

            # Step-ends resolve before same-instant arrivals, so a request
            # arriving exactly as a batch slot frees observes the freed slot.
            for replica in self.replicas:
                if replica.step_end_s is not None and replica.step_end_s <= now_s:
                    for active, _ in replica.finish_step():
                        follow_up = self.arrival.on_complete(active.request, now_s)
                        if follow_up is not None:
                            follow_up = follow_up.validate()
                            heapq.heappush(
                                pending,
                                (follow_up.arrival_s, follow_up.request_id, follow_up),
                            )
            collect_handoffs(now_s)

        replicas = tuple(_replica_metrics(replica) for replica in self.replicas)
        if tracer.enabled:
            # Lifecycle spans per completed request, in (replica, id) order --
            # trace viewers sort by timestamp, so emission order only needs to
            # be deterministic, not chronological.
            for replica in replicas:
                for record in replica.requests:
                    trace_request(tracer, record, requests_pid)
        last_finish_s = max(
            (r.finish_s for replica in replicas for r in replica.requests),
            default=first_arrival_s,
        )
        meta = {
            "arrival": self.arrival.name,
            "router": self.router_name,
            "num_replicas": len(self.replicas),
            "routed": [replica.routed for replica in self.replicas],
        }
        if self.disaggregated:
            meta["roles"] = [replica.role for replica in self.replicas]
            meta["handoffs"] = handoff_count
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
        # Homogeneous fleets share cost models; report the distinct tables.
        tables = {id(r.cost_model): r.cost_model for r in self.replicas}
        sizes = [getattr(m, "table_size", None) for m in tables.values()]
        if all(size is not None for size in sizes):
            meta["step_cost_entries"] = sum(sizes)
            meta["step_simulations"] = sum(
                getattr(m, "simulations", getattr(m, "table_size", 0))
                for m in tables.values()
            )
        self.profile = {
            "step_cost": [
                m.profile() for m in tables.values() if m.profile()
            ]
        }
        logger.debug(
            "cluster run [%s]: %d replicas, %d requests, step_cost=%s",
            self.label,
            len(self.replicas),
            sum(len(r.requests) for r in replicas),
            self.profile["step_cost"],
        )
        telemetry = (
            recorder.build(first_arrival_s) if recorder is not None else None
        )
        return ClusterMetrics(
            label=self.label,
            workload=self.workload_name,
            router=self.router_name,
            duration_s=max(0.0, last_finish_s - first_arrival_s),
            replicas=replicas,
            slo=self.slo,
            meta=meta,
            telemetry=telemetry,
        )

