"""The request-level serving simulator: one serving step, two drivers.

:class:`ReplicaSim` is the one implementation of a serving step.  It owns a
continuous-batching scheduler, a step-planning policy and a step-cost model,
and each step is one cycle-engine evaluation:

1. :meth:`ReplicaSim.maybe_start_step` admits arrived requests into free batch
   slots (FCFS), funds decode growth under the KV budget (preempting if it
   must), asks the policy for this iteration's mix of prefill chunks and
   decode tokens, prices it with :func:`plan_cycles` and records the step
   with every installed observer (determinism probe, tracer, telemetry);
2. :meth:`ReplicaSim.finish_step` applies the plan through
   :func:`complete_step` -- prompt chunks shrink ``prefill_remaining``,
   decodes credit one output token -- and evicts the finished requests.

A plan whose total cost is zero cycles (a prefill-free configuration) is
applied instantly without consuming a step, which is what makes
``decode-first`` with prefill cost disabled bit-for-bit identical to the
legacy decode-only scheduler.

:class:`ServingSimulator` drives a single replica over one accelerator: it
enqueues the whole stream, alternates step starts and ends, jumps the clock
to the next arrival when the batch is empty (so idle gaps cost nothing to
simulate), feeds closed-loop follow-ups back into the scheduler and guards
against runs that cannot drain.
:class:`~repro.cluster.simulator.ClusterSimulator` drives N replicas with
routers over the same step.  Both loops are fully deterministic: a seeded
arrival stream plus a deterministic cost model reproduces every timestamp
bit-for-bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NoReturn

from repro.common.errors import ConfigError, LivelockError
from repro.obs.telemetry import TelemetryRecorder
from repro.obs.tracer import CAT_STEP, NULL_TRACER, Tracer, trace_request
from repro.serve.arrival import ArrivalProcess
from repro.serve.metrics import RequestMetrics, ServeMetrics, ServeSLO
from repro.serve.schedpolicy import (
    DecodeFirstPolicy,
    PrefillOnlyPolicy,
    SchedulerPolicy,
    StepPlan,
)
from repro.serve.scheduler import (
    SEQ_BUCKET_FLOOR,
    ActiveRequest,
    BatchConfig,
    ContinuousBatchScheduler,
    bucket_context,
)
from repro.serve.stepcost import StepCostModel

#: Hard cap on scheduler iterations -- a guard against a stream that can never
#: drain (e.g. a zero-cost model paired with an infinite closed loop).
MAX_STEPS = 10_000_000

#: Trace pid of the per-request swimlanes (the accelerator itself is pid 0).
REQUESTS_PID = 1

#: The replica roles a fleet may mix: every colocated replica is "mixed";
#: a disaggregated fleet is partitioned into "prefill" and "decode".
REPLICA_ROLES = ("mixed", "prefill", "decode")

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ServeStallReport:
    """Scheduler-occupancy snapshot attached to a serve-loop LivelockError.

    The serve-layer counterpart of :class:`repro.sim.liveness.StallReport`:
    when the loop trips the :data:`MAX_STEPS` guard or detects a no-progress
    state (admission blocked on KV memory with an empty batch), the error
    carries queue, batch and KV occupancy so the stall is diagnosable from
    the exception alone.
    """

    reason: str
    now_s: float
    steps: int
    completed: int
    running: int
    waiting: int
    next_arrival_s: float | None
    kv_blocked: bool = False
    preemptions: int = 0
    kv_used_blocks: int | None = None
    kv_capacity_blocks: int | None = None
    replica_id: int | None = None

    def render(self) -> str:
        where = "serve loop" if self.replica_id is None else f"replica {self.replica_id}"
        lines = [
            f"{where} stalled ({self.reason}) at t={self.now_s:.6f}s after "
            f"{self.steps} steps:",
            f"  completed={self.completed} running={self.running} "
            f"waiting={self.waiting} next_arrival_s={self.next_arrival_s}",
        ]
        if self.kv_capacity_blocks is not None:
            lines.append(
                f"  kv: {self.kv_used_blocks}/{self.kv_capacity_blocks} blocks "
                f"used, admission_blocked={self.kv_blocked}, "
                f"preemptions={self.preemptions}"
            )
        return "\n".join(lines)


def build_serve_stall_report(
    scheduler: ContinuousBatchScheduler,
    reason: str,
    now_s: float,
    steps: int,
    completed: int,
    replica_id: int | None = None,
) -> ServeStallReport:
    """Snapshot a scheduler's occupancy for a structured stall error."""

    return ServeStallReport(
        reason=reason,
        now_s=now_s,
        steps=steps,
        completed=completed,
        running=len(scheduler.running),
        waiting=len(scheduler.waiting),
        next_arrival_s=scheduler.next_arrival_s(),
        kv_blocked=scheduler.kv_blocked,
        preemptions=scheduler.preemptions,
        kv_used_blocks=scheduler.kv.used_blocks if scheduler.kv is not None else None,
        kv_capacity_blocks=(
            scheduler.kv.capacity_blocks if scheduler.kv is not None else None
        ),
        replica_id=replica_id,
    )


def plan_cycles(
    cost_model: StepCostModel, plan: StepPlan, seq_bucket_floor: int = SEQ_BUCKET_FLOOR
) -> int:
    """Total cycles of one planned iteration: decode shape + prefill chunks.

    The decode half is priced at the batch's effective ``(batch, context)``
    shape -- the context bucketed exactly as :meth:`ContinuousBatchScheduler.
    batch_shape` always bucketed it, so a decode-only plan costs bit-for-bit
    what the legacy loop charged; the prefill half at the chunk-bucketed
    ``(tokens, context)`` shape.  A mixed iteration pays for both serially --
    the accelerator is one device; interleaving buys schedule freedom, not
    free compute.
    """

    cycles = 0
    if plan.decode:
        cycles += cost_model.step_cycles(
            len(plan.decode), bucket_context(plan.decode_context(), seq_bucket_floor)
        )
    if plan.prefill:
        cycles += cost_model.prefill_cycles(
            plan.prefill_tokens,
            bucket_context(plan.prefill_context(), seq_bucket_floor),
        )
    return cycles


def complete_step(
    scheduler: ContinuousBatchScheduler, plan: StepPlan, end_s: float
) -> list[tuple[ActiveRequest, RequestMetrics]]:
    """Finish one planned iteration ending at ``end_s``.

    Applies the plan's prompt chunks (stamping ``prefill_end_s`` on the
    requests whose prompt completes), credits one output token to every
    planned decode, stamps first-token times, evicts the requests whose output
    budget is exhausted and returns them paired with their finished
    :class:`RequestMetrics` record.  The one definition of step-completion
    semantics: :meth:`ReplicaSim.finish_step` applies every timed step
    through it and :meth:`ReplicaSim.maybe_start_step` every free one.
    """

    for active, chunk in plan.prefill:
        # Clamp overshooting chunks: a chunk larger than the remaining prompt
        # (validated plans never carry one, but defend the shared primitive)
        # must finish the prefill, not drive the counter negative and leave
        # the request stuck in_prefill forever.
        active.prefill_remaining = max(0, active.prefill_remaining - chunk)
        if active.prefill_remaining <= 0 and active.prefill_end_s is None:
            # Stamp only the first completion: a recompute-preempted request
            # re-prefills later, but prefill_end_s keeps describing when the
            # prompt was first fully processed (metrics validation orders it
            # before first_token_s).
            active.prefill_end_s = end_s
    for active in plan.decode:
        active.generated += 1
        if scheduler.kv is not None:
            scheduler.kv.grow(active.request.request_id, active.context_tokens)
        if active.first_token_s is None:
            active.first_token_s = end_s
    finished = []
    for active in scheduler.evict_finished(end_s):
        assert active.first_token_s is not None and active.finish_s is not None
        finished.append(
            (
                active,
                RequestMetrics(
                    request_id=active.request.request_id,
                    arrival_s=active.request.arrival_s,
                    admitted_s=active.admitted_s,
                    first_token_s=active.first_token_s,
                    finish_s=active.finish_s,
                    prompt_tokens=active.request.prompt_tokens,
                    output_tokens=active.request.output_tokens,
                    prefill_end_s=active.prefill_end_s,
                ).validate(),
            )
        )
    return finished


class ReplicaSim:
    """One accelerator replica: a scheduler, a step planner, a cost model, a clock.

    The one implementation of a serving step (see the module docstring),
    driven by :class:`ServingSimulator` on a single accelerator and by
    :class:`~repro.cluster.simulator.ClusterSimulator` across a fleet.
    Exposes the two load signals routers read (``queue_depth``,
    ``outstanding``) and accumulates the counters that become a run's
    metrics.  ``role`` tags the replica's place in a disaggregated fleet; a
    ``"prefill"`` replica evicts each request the moment its prompt completes
    and surfaces it through :meth:`take_handoffs` for the cluster loop to
    transfer.
    """

    def __init__(
        self,
        replica_id: int,
        cost_model: StepCostModel,
        frequency_ghz: float,
        batch: BatchConfig | None = None,
        system_name: str = "system",
        role: str = "mixed",
        policy: SchedulerPolicy | None = None,
    ) -> None:
        if frequency_ghz <= 0:
            raise ConfigError(f"frequency_ghz must be positive, got {frequency_ghz}")
        if role not in REPLICA_ROLES:
            raise ConfigError(
                f"replica role must be one of {REPLICA_ROLES}, got {role!r}"
            )
        self.replica_id = replica_id
        self.cost_model = cost_model
        self.frequency_ghz = frequency_ghz
        self._cycles_per_s = frequency_ghz * 1e9
        self.system_name = system_name
        self.role = role
        if policy is not None:
            self.policy = policy
        else:
            self.policy = PrefillOnlyPolicy() if role == "prefill" else DecodeFirstPolicy()
        self.scheduler = ContinuousBatchScheduler(
            config=(batch if batch is not None else BatchConfig()).validate()
        )
        #: End time of the in-flight step; None while idle.
        self.step_end_s: float | None = None
        #: The in-flight step's plan (set exactly while ``step_end_s`` is).
        self._plan: StepPlan | None = None
        #: Whether the last launched step was memory-bound: admission stalled
        #: on KV memory, or decode growth had to be funded by preemption.
        self.step_mem_bound = False
        #: Prefill-complete requests awaiting pickup by the cluster loop.
        self._ready_handoffs: list[ActiveRequest] = []
        self.steps = 0
        self.total_cycles = 0
        self.prefill_steps = 0
        self.prefill_tokens = 0
        self.busy_s = 0.0
        #: Busy time of the memory-bound steps -- the memory-bound signal.
        self.mem_bound_s = 0.0
        self.routed = 0
        self.handoffs = 0
        self.completed: list[RequestMetrics] = []
        #: Observability sinks, installed by the driving loop (the null
        #: defaults keep standalone replicas zero-overhead).
        self.tracer: Tracer = NULL_TRACER
        self.recorder: TelemetryRecorder | None = None
        self.probe = None

    # -- load signals (read by routers) ------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests routed here but not yet admitted into the batch."""

        return len(self.scheduler.waiting)

    @property
    def outstanding(self) -> int:
        """Queued plus running requests (issued minus completed)."""

        return len(self.scheduler.waiting) + len(self.scheduler.running)

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    # -- event-loop hooks --------------------------------------------------------------
    def enqueue(self, request) -> None:
        self.routed += 1
        self.scheduler.enqueue(request)

    def _harvest_handoffs(self) -> None:
        """Evict prefill-complete requests (called on prefill replicas only)."""

        done = [a for a in self.scheduler.running if not a.in_prefill]
        if done:
            self.scheduler.running = [a for a in self.scheduler.running if a.in_prefill]
            for active in done:
                # The KV pages travel with the request; this replica's copy is
                # freed the moment the transfer is initiated.
                self.scheduler.release_kv(active)
            self.handoffs += len(done)
            self._ready_handoffs.extend(done)

    def take_handoffs(self) -> list[ActiveRequest]:
        """Drain the requests whose prompt completed since the last call."""

        out, self._ready_handoffs = self._ready_handoffs, []
        return out

    def maybe_start_step(self, now_s: float) -> bool:
        """Admit waiting requests and launch one planned iteration.

        Returns whether a step is now in flight (False: busy already, or the
        batch is empty).  Zero-cost plans (free prefill) are applied instantly
        without consuming a step; the replica then re-plans against the
        updated batch.
        """

        if self.step_end_s is not None:
            return False
        scheduler = self.scheduler
        while True:
            scheduler.admit(now_s)
            if not scheduler.running:
                if self.recorder is not None:
                    self.recorder.observe(self.replica_id, now_s, len(scheduler.waiting), 0)
                return False
            preempted = scheduler.ensure_kv_growth(now_s)
            plan = self.policy.plan(scheduler.running)
            cycles = plan_cycles(self.cost_model, plan, scheduler.config.seq_bucket_floor)
            if cycles < 0:
                raise ConfigError(f"step cost model returned {cycles} cycles")
            if cycles == 0:
                if plan.decode:
                    raise ConfigError("step cost model priced a decode step at 0 cycles")
                # Free prefill completes instantly: apply the chunks without
                # advancing the clock or consuming an iteration (the legacy
                # decode-only timeline).  Progress is guaranteed -- validated
                # plans only carry positive chunks -- so this cannot spin.
                complete_step(scheduler, plan, now_s)
                if self.role == "prefill":
                    self._harvest_handoffs()
                continue
            self.steps += 1
            self.total_cycles += cycles
            if plan.prefill:
                self.prefill_steps += 1
                self.prefill_tokens += plan.prefill_tokens
            if self.probe is not None:
                self.probe.record_step(
                    replica_id=self.replica_id,
                    step=self.steps,
                    start_s=now_s,
                    scheduler=scheduler,
                    plan=plan,
                    cycles=cycles,
                )
            duration_s = cycles / self._cycles_per_s
            self.busy_s += duration_s
            if scheduler.kv_blocked or preempted:
                self.step_mem_bound = True
                self.mem_bound_s += duration_s
            else:
                self.step_mem_bound = False
            end_s = self.step_end_s = now_s + duration_s
            self._plan = plan
            # The step's span is fully known at launch, so both sinks record
            # here; completion only applies the plan.
            if self.tracer.enabled:
                args = plan.trace_args()
                args["cycles"] = cycles
                if plan.decode:
                    args["seq_bucket"] = bucket_context(
                        plan.decode_context(), scheduler.config.seq_bucket_floor
                    )
                self.tracer.complete(
                    "step", CAT_STEP, self.replica_id, 0, now_s, end_s, args=args
                )
            if self.recorder is not None:
                self.recorder.on_step(
                    self.replica_id,
                    now_s,
                    end_s,
                    len(scheduler.waiting),
                    len(scheduler.running),
                    len(plan.decode),
                )
            return True

    def finish_step(self) -> list[tuple[ActiveRequest, RequestMetrics]]:
        """Complete the in-flight iteration via :func:`complete_step`.

        Returns the evicted (decode-finished) requests paired with their
        records, so the driving loop can feed completions back into the
        arrival process; prefill completions are harvested separately through
        :meth:`take_handoffs`.
        """

        assert self.step_end_s is not None and self._plan is not None
        finished = complete_step(self.scheduler, self._plan, self.step_end_s)
        self.step_end_s = None
        self._plan = None
        for _, record in finished:
            self.completed.append(record)
        if self.role == "prefill":
            self._harvest_handoffs()
        return finished


class ServingSimulator:
    """Simulate serving one request stream on one accelerator.

    A driver over a single :class:`ReplicaSim`; everything a step does lives
    there.
    """

    def __init__(
        self,
        arrival: ArrivalProcess,
        cost_model: StepCostModel,
        frequency_ghz: float,
        batch: BatchConfig | None = None,
        policy: SchedulerPolicy | None = None,
        slo: ServeSLO | None = None,
        label: str = "serve",
        workload_name: str = "workload",
        telemetry_ms: float | None = None,
    ) -> None:
        if frequency_ghz <= 0:
            raise ConfigError(f"frequency_ghz must be positive, got {frequency_ghz}")
        if telemetry_ms is not None and telemetry_ms <= 0:
            raise ConfigError(f"telemetry_ms must be positive, got {telemetry_ms}")
        self.arrival = arrival
        self.cost_model = cost_model
        self.frequency_ghz = frequency_ghz
        self.batch_config = (batch if batch is not None else BatchConfig()).validate()
        self.policy = policy if policy is not None else DecodeFirstPolicy()
        self.slo = (slo if slo is not None else ServeSLO()).validate()
        self.label = label
        self.workload_name = workload_name
        self.telemetry_ms = telemetry_ms
        #: Wall-clock profile of the run's hot paths (step-cost table builds);
        #: populated by :meth:`run`, never serialized into metrics.
        self.profile: dict = {}

    def run(self, tracer: Tracer | None = None, probe=None) -> ServeMetrics:
        replica = ReplicaSim(
            0, self.cost_model, self.frequency_ghz, batch=self.batch_config,
            policy=self.policy,
        )
        scheduler = replica.scheduler
        if tracer is not None:
            replica.tracer = tracer
        if probe is not None:
            # The determinism probe (repro.analysis.runtime.StepProbe) digests
            # scheduler state per step; it reads the arrival's RNG position
            # through this attribute rather than per-call plumbing.
            probe.arrival = self.arrival
            replica.probe = probe
        if self.telemetry_ms is not None:
            replica.recorder = TelemetryRecorder(
                interval_s=self.telemetry_ms * 1e-3, num_replicas=1
            )
        tracer = replica.tracer
        if tracer.enabled:
            tracer.name_process(0, f"accelerator [{self.label}]")
            tracer.name_thread(0, 0, "scheduler")
            tracer.name_process(REQUESTS_PID, "requests")
        for request in self.arrival.initial():
            scheduler.enqueue(request.validate())
        if not scheduler.has_work:
            raise ConfigError(
                f"arrival process {self.arrival.name!r} produced no requests"
            )

        now_s = 0.0
        kv_memory_bound_s = 0.0
        first_arrival_s = min(r.arrival_s for r in scheduler.waiting)
        while scheduler.has_work:
            if replica.steps >= MAX_STEPS:
                self._stall(replica, f"exceeded {MAX_STEPS} steps without draining", now_s)
            if not replica.maybe_start_step(now_s):
                # Idle: jump straight to the next arrival.
                next_arrival = scheduler.next_arrival_s()
                assert next_arrival is not None  # has_work and nothing running
                if next_arrival <= now_s:
                    # An already-arrived request was refused admission into an
                    # empty batch; jumping to "the next arrival" would never
                    # advance the clock again.  Raise instead of spinning.
                    self._stall(replica, "admission blocked with an empty batch", now_s)
                now_s = next_arrival
                continue
            step_start_s, now_s = now_s, replica.step_end_s
            if replica.step_mem_bound:
                kv_memory_bound_s += now_s - step_start_s
            for active, record in replica.finish_step():
                if tracer.enabled:
                    trace_request(tracer, record, REQUESTS_PID)
                follow_up = self.arrival.on_complete(active.request, now_s)
                if follow_up is not None:
                    scheduler.enqueue(follow_up.validate())

        completed = sorted(replica.completed, key=lambda r: r.request_id)
        duration_s = max(0.0, now_s - first_arrival_s)
        meta = {
            "arrival": self.arrival.name,
            "max_batch": self.batch_config.max_batch,
            "seq_bucket_floor": self.batch_config.seq_bucket_floor,
        }
        if self.batch_config.prefill:
            # Emitted only when the prefill phase is modeled, so decode-only
            # runs keep the exact legacy meta (golden fixture compatibility).
            meta["scheduler"] = self.policy.name
            meta.update(self.policy.meta())
            meta["prefill_steps"] = replica.prefill_steps
            meta["prefill_tokens"] = replica.prefill_tokens
        if self.batch_config.kv.enabled:
            # Emitted only when the KV memory model is on, keeping the meta of
            # every legacy (unbounded-memory) run byte-identical.
            assert scheduler.kv is not None
            meta["kv_budget_tokens"] = self.batch_config.kv.budget_tokens
            meta["kv_block_tokens"] = self.batch_config.kv.block_tokens
            meta["preemption"] = self.batch_config.kv.preemption
            meta["preemptions"] = scheduler.preemptions
            meta["preemption_rate"] = scheduler.preemptions / max(1, len(completed))
            meta["kv_peak_utilization"] = scheduler.kv.peak_utilization
            meta["kv_peak_fragmentation_tokens"] = (
                scheduler.kv.peak_fragmentation_tokens
            )
            # Summed as step end minus step start, which can differ from the
            # replica's summed durations (mem_bound_s) in the last bit.
            meta["kv_memory_bound_s"] = kv_memory_bound_s
            meta["kv_memory_bound_frac"] = (
                kv_memory_bound_s / duration_s if duration_s > 0 else 0.0
            )
        table_size = getattr(self.cost_model, "table_size", None)
        if table_size is not None:
            meta["step_cost_entries"] = table_size
            meta["step_simulations"] = getattr(self.cost_model, "simulations", table_size)
        self.profile = {"step_cost": self.cost_model.profile()}
        logger.debug(
            "serve run [%s]: %d steps, %d requests, step_cost=%s",
            self.label, replica.steps, len(completed), self.profile["step_cost"],
        )
        telemetry = (
            replica.recorder.build(first_arrival_s, now_s)
            if replica.recorder is not None
            else None
        )
        return ServeMetrics(
            label=self.label,
            workload=self.workload_name,
            frequency_ghz=self.frequency_ghz,
            duration_s=duration_s,
            steps=replica.steps,
            total_cycles=replica.total_cycles,
            requests=tuple(completed),
            slo=self.slo,
            meta=meta,
            telemetry=telemetry,
        )

    @staticmethod
    def _stall(replica: ReplicaSim, reason: str, now_s: float) -> NoReturn:
        report = build_serve_stall_report(
            replica.scheduler, reason, now_s, replica.steps, len(replica.completed)
        )
        raise LivelockError(report.render(), report=report)
