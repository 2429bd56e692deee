"""The request-level serving simulator: one serving step, one loop, two drivers.

:class:`ReplicaSim` is the one implementation of a serving step.  It owns a
continuous-batching scheduler, a step-planning policy and a step-cost model,
and each step is one cycle-engine evaluation:

1. :meth:`ReplicaSim.maybe_start_step` admits arrived requests into free batch
   slots (FCFS), funds decode growth under the KV budget (preempting if it
   must), asks the policy for this iteration's mix of prefill chunks and
   decode tokens, prices it with :func:`plan_cycles` and reports the step to
   every installed :class:`~repro.obs.observer.Observer`.  While the batch is
   unchanged since a decode-only step, it skips the policy and reuses that
   step's plan, priced at the context one token longer;
2. :meth:`ReplicaSim.finish_step` applies the plan through
   :func:`complete_step` -- prompt chunks shrink ``prefill_remaining``,
   decodes credit one output token -- and evicts the finished requests.

A plan whose total cost is zero cycles (a prefill-free configuration) is
applied instantly without consuming a step, which is what makes
``decode-first`` with prefill cost disabled bit-for-bit identical to the
legacy decode-only scheduler.

:func:`run_loop` is the one clock-advancing serving loop.  It routes each
request of the arrival stream to a replica at its arrival instant, starts and
ends steps, delivers prefill-to-decode handoffs, jumps the clock to the next
event (so idle gaps cost nothing to simulate), feeds closed-loop follow-ups
back into the stream, reports each event to the installed observers and
raises a structured stall report for a run that cannot drain.  Two drivers
build their metrics from the drained replicas: :class:`ServingSimulator` runs
one accelerator as a one-replica round-robin fleet and assembles
:class:`~repro.serve.metrics.ServeMetrics`;
:class:`~repro.cluster.simulator.ClusterSimulator` runs N replicas behind its
routers and assembles :class:`~repro.cluster.metrics.ClusterMetrics`.  The loop
is fully deterministic: a seeded arrival stream plus a deterministic cost model
reproduces every timestamp bit-for-bit.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn, Sequence

from repro.common.errors import ConfigError, LivelockError
from repro.obs.observer import Observer
from repro.obs.telemetry import TelemetryRecorder
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
    HandoffRequest,
    bucket_context,
)
from repro.serve.stepcost import StepCostModel

if TYPE_CHECKING:
    from repro.cluster.router import Router

#: Hard cap on scheduler iterations per replica -- a guard against a stream
#: that can never drain (e.g. a zero-cost model paired with an infinite closed
#: loop).  :func:`run_loop` reads it at call time.
MAX_STEPS = 10_000_000

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

    The decode half is priced at the plan's effective ``(batch, context)``
    shape: the number of decoding requests at their longest context, rounded
    up by :func:`bucket_context`.  The prefill half is priced at the
    chunk-bucketed ``(tokens, context)`` shape.  A mixed iteration pays for
    both serially -- the accelerator is one device; interleaving buys
    schedule freedom, not free compute.
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
    kv = scheduler.kv
    for active in plan.decode:
        generated = active.generated = active.generated + 1
        if kv is not None:
            request = active.request
            kv.grow(request.request_id, request.prompt_tokens + generated)
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
    driven by :func:`run_loop`.  Exposes the two load signals routers read
    (``queue_depth``, ``outstanding``) and accumulates the counters that
    become a run's metrics.  ``role`` tags the replica's place in a
    disaggregated fleet; a ``"prefill"`` replica evicts each request the
    moment its prompt completes and surfaces it through :meth:`take_handoffs`
    for the loop to transfer.
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
        #: The last decode-only plan, carried into the next step while its
        #: batch is unchanged (see :meth:`maybe_start_step`); None when the
        #: next step must re-plan.
        self._carry: StepPlan | None = None
        #: Prefill-complete requests awaiting pickup by the loop.
        self._ready_handoffs: list[ActiveRequest] = []
        self.steps = 0
        self.total_cycles = 0
        self.prefill_steps = 0
        self.prefill_tokens = 0
        self.busy_s = 0.0
        #: Busy time of the memory-bound steps (admission stalled on KV
        #: memory, or decode growth funded by preemption), summed two ways
        #: that can differ in the last bits: ``mem_bound_s`` adds durations
        #: (the cluster ``kv_memory_bound_s`` meta, pinned by the
        #: ``serve_fleet`` perfbench digest), ``mem_bound_span_s`` adds step
        #: end minus step start (the serve meta, pinned by the KV goldens).
        self.mem_bound_s = 0.0
        self.mem_bound_span_s = 0.0
        self.routed = 0
        self.handoffs = 0
        self.completed: list[RequestMetrics] = []
        #: Installed by :func:`run_loop`; told of every step and idle batch.
        self.observers: Sequence[Observer] = ()

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

        A decode-only step that evicted nothing leaves the batch as it was,
        except that every decoder grew by one token.  Unless admission or KV
        growth changes the batch, the next step reuses its plan (a plan is a
        pure function of the batch; see :meth:`SchedulerPolicy.plan`) and
        prices it with :func:`plan_cycles` at the grown context.
        """

        if self.step_end_s is not None:
            return False
        scheduler = self.scheduler
        while True:
            admitted = scheduler.admit(now_s)
            if not scheduler.running:
                for observer in self.observers:
                    observer.on_idle(self, now_s)
                return False
            preempted = scheduler.ensure_kv_growth(now_s)
            plan = self._carry
            if plan is None or admitted or preempted:
                self._carry = None
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
            duration_s = cycles / self._cycles_per_s
            self.busy_s += duration_s
            end_s = self.step_end_s = now_s + duration_s
            if scheduler.kv_blocked or preempted:
                self.mem_bound_s += duration_s
                self.mem_bound_span_s += end_s - now_s
            self._plan = plan
            # The step's span is fully known at launch, so observers see it
            # here; completion only applies the plan.
            for observer in self.observers:
                observer.on_step(self, now_s, end_s, plan, cycles)
            return True

    def finish_step(self) -> list[tuple[ActiveRequest, RequestMetrics]]:
        """Complete the in-flight iteration via :func:`complete_step`.

        Returns the evicted (decode-finished) requests paired with their
        records, so the loop can feed completions back into the arrival
        process; prefill completions are harvested separately through
        :meth:`take_handoffs`.
        """

        plan = self._plan
        assert self.step_end_s is not None and plan is not None
        finished = complete_step(self.scheduler, plan, self.step_end_s)
        self.step_end_s = None
        self._plan = None
        # Carry the plan unless the batch it was planned from changed.
        self._carry = None if plan.prefill or finished or self.role == "prefill" else plan
        for _, record in finished:
            self.completed.append(record)
        if self.role == "prefill":
            self._harvest_handoffs()
        return finished


@dataclass(frozen=True, slots=True)
class LoopRun:
    """What :func:`run_loop` leaves behind besides its drained replicas."""

    first_arrival_s: float
    #: The clock when the last event fired.
    end_s: float
    #: ``step_cost_entries``/``step_simulations`` summed over the distinct
    #: step-cost tables; empty when a table does not report its size.
    cost_meta: dict


def _select(router: Router, group: Sequence[ReplicaSim], request, now_s: float) -> ReplicaSim:
    chosen = router.select(request, group, now_s)
    if not 0 <= chosen < len(group):
        raise ConfigError(
            f"router {router.name!r} chose replica {chosen} of a {len(group)}-replica group"
        )
    return group[chosen]


def run_loop(
    arrival: ArrivalProcess,
    replicas: Sequence[ReplicaSim],
    router: Router,
    observers: Sequence[Observer] = (),
    decode_router: Router | None = None,
    kv_transfer_s: float = 0.0,
    fleet: bool = True,
) -> LoopRun:
    """Serve ``arrival`` on ``replicas`` until the stream and every replica drain.

    ``router`` spreads arrivals over the arrival-eligible replicas: every
    replica, or only the ``"prefill"`` ones when ``decode_router`` is given,
    in which case ``decode_router`` spreads each prefill-complete request over
    the ``"decode"`` replicas ``kv_transfer_s`` after its prompt finished.
    Three event kinds share one clock: an arrival is routed at its arrival
    instant (the router sees queues exactly as they stand then), a step end
    completes the replica's step and reports completions to the arrival
    process (closing the loop for closed-loop traffic), and a handoff
    delivers a transferred request to a decode replica.  Replicas are visited
    in index order, step ends resolve before same-instant arrivals, and both
    heaps order equal timestamps by request id, so a seeded run reproduces
    every routing decision and timestamp bit-for-bit.

    Installs ``observers`` on every replica, reports the run's events to them
    (see :class:`~repro.obs.observer.Observer`) and id-sorts each replica's
    completed records once the run drains.  A run that cannot drain -- it
    outgrows a budget of :data:`MAX_STEPS` steps per replica, or work remains
    with no event left to fire -- raises a
    :class:`~repro.common.errors.LivelockError`; with ``fleet=False`` (the
    single accelerator) the stall report says "serve loop" instead of naming
    the replica.
    """

    observers = tuple(observers)
    for observer in observers:
        observer.on_start(arrival, replicas)
    for replica in replicas:
        replica.observers = observers
    disaggregated = decode_router is not None
    prefill_replicas = [r for r in replicas if r.role == "prefill"]
    decode_replicas = [r for r in replicas if r.role == "decode"]
    entry_replicas = prefill_replicas if disaggregated else replicas

    def stall(stuck: Sequence[ReplicaSim], reason: str, now_s: float) -> NoReturn:
        reports = [
            build_serve_stall_report(
                r.scheduler, reason, now_s, r.steps, len(r.completed),
                replica_id=r.replica_id if fleet else None,
            )
            for r in stuck
        ]
        raise LivelockError("\n".join(report.render() for report in reports), report=reports[0])

    # The pending heap orders un-routed requests by (arrival, id); ids are
    # unique, so heap order -- and thus every routing decision -- is total.
    # The handoff heap is keyed the same way on KV-transfer completion.
    pending: list[tuple[float, int, object]] = []
    handoffs: list[tuple[float, int, ActiveRequest]] = []
    for request in arrival.initial():
        request = request.validate()
        heapq.heappush(pending, (request.arrival_s, request.request_id, request))
    if not pending:
        raise ConfigError(f"arrival process {arrival.name!r} produced no requests")
    first_arrival_s = pending[0][0]

    def collect_handoffs(now_s: float) -> None:
        for replica in prefill_replicas:
            for active in replica.take_handoffs():
                for observer in observers:
                    observer.on_transfer(replica, active, now_s, now_s + kv_transfer_s)
                heapq.heappush(
                    handoffs, (now_s + kv_transfer_s, active.request.request_id, active)
                )

    # Runaway guard: each replica gets MAX_STEPS (read at call time, so tests
    # may patch it).  It trips only once the budget is overrun while work
    # remains, so a run that drains in exactly the budget still returns.
    budget = MAX_STEPS * len(replicas)
    exceeded = f"{'fleet ' if fleet else ''}exceeded {budget} steps without draining"
    launched = 0
    now_s = 0.0
    while True:
        # Route everything that has arrived by now: the router sees queue
        # depths as they stand after earlier same-instant completions.
        while pending and pending[0][0] <= now_s:
            request = heapq.heappop(pending)[2]
            _select(router, entry_replicas, request, now_s).enqueue(request)

        # Deliver KV transfers that completed by now to decode replicas.
        while handoffs and handoffs[0][0] <= now_s:
            ready_s, _, active = heapq.heappop(handoffs)
            assert decode_router is not None
            replica = _select(decode_router, decode_replicas, active.request, now_s)
            for observer in observers:
                observer.on_handoff(replica, active, ready_s)
            replica.enqueue(HandoffRequest(active=active, arrival_s=ready_s))

        # Launch steps on every idle replica with admissible work, and find
        # the next event in the same pass: a step end, or an idle replica's
        # future re-admission (a swap-preempted request waiting out its
        # transfer is an event source too).  A busy replica's next event is
        # its step end, so only idle replicas are asked to start a step.
        next_s = math.inf
        for replica in replicas:
            event_s = replica.step_end_s
            if event_s is None:
                if replica.maybe_start_step(now_s):
                    launched += 1
                event_s = replica.step_end_s
                if event_s is None:
                    event_s = replica.scheduler.next_arrival_s()
                    if event_s is None or event_s <= now_s:
                        continue
            if event_s < next_s:
                next_s = event_s
        if disaggregated:
            # Free prefill may complete instantly and surface handoffs here.
            collect_handoffs(now_s)
            if handoffs and handoffs[0][0] < next_s:
                next_s = handoffs[0][0]
        if pending and pending[0][0] < next_s:
            next_s = pending[0][0]
        if next_s == math.inf:
            stuck = [r for r in replicas if r.has_work]
            if stuck:
                # Work remains but no event can ever fire: every stuck replica
                # refused admission into an empty batch (a full-KV stall).
                # Raise a structured report instead of silently dropping the
                # queued requests.
                stall(stuck, "admission blocked with an empty batch", now_s)
            break  # every replica drained and the stream is exhausted
        if launched > budget:
            stall(replicas, exceeded, now_s)
        now_s = next_s

        # Step ends resolve before same-instant arrivals, so a request
        # arriving exactly as a batch slot frees observes the freed slot.
        for replica in replicas:
            if replica.step_end_s is not None and replica.step_end_s <= now_s:
                for active, _ in replica.finish_step():
                    follow_up = arrival.on_complete(active.request, now_s)
                    if follow_up is not None:
                        follow_up = follow_up.validate()
                        heapq.heappush(
                            pending, (follow_up.arrival_s, follow_up.request_id, follow_up)
                        )
        if disaggregated:
            collect_handoffs(now_s)

    for replica in replicas:
        replica.completed.sort(key=lambda r: r.request_id)
    for observer in observers:
        observer.on_finish(replicas)
    # Homogeneous fleets share cost models; report the distinct tables.
    tables = list({id(r.cost_model): r.cost_model for r in replicas}.values())
    sizes = [getattr(m, "table_size", None) for m in tables]
    cost_meta = {}
    if None not in sizes:
        cost_meta["step_cost_entries"] = sum(sizes)
        cost_meta["step_simulations"] = sum(
            getattr(m, "simulations", size) for m, size in zip(tables, sizes, strict=True)
        )
    logger.debug(
        "serving loop: %d replicas, %d steps, %d requests",
        len(replicas), launched, sum(len(r.completed) for r in replicas),
    )
    return LoopRun(first_arrival_s=first_arrival_s, end_s=now_s, cost_meta=cost_meta)


class ServingSimulator:
    """Simulate serving one request stream on one accelerator.

    The accelerator is a one-replica round-robin fleet under :func:`run_loop`;
    this driver only builds its :class:`ReplicaSim` and assembles
    :class:`ServeMetrics` from it.
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
        self.arrival = arrival
        self.cost_model = cost_model
        self.frequency_ghz = frequency_ghz
        self.batch_config = (batch if batch is not None else BatchConfig()).validate()
        self.policy = policy if policy is not None else DecodeFirstPolicy()
        self.slo = (slo if slo is not None else ServeSLO()).validate()
        self.label = label
        self.workload_name = workload_name
        self.telemetry_ms = telemetry_ms

    def run(self, observers: Sequence[Observer] = ()) -> ServeMetrics:
        # Imported here: repro.cluster imports this module.
        from repro.cluster.router import RoundRobinRouter

        replica = ReplicaSim(
            0, self.cost_model, self.frequency_ghz, batch=self.batch_config,
            policy=self.policy,
        )
        recorder = (
            None if self.telemetry_ms is None else TelemetryRecorder(self.telemetry_ms * 1e-3)
        )
        run = run_loop(
            self.arrival, [replica], RoundRobinRouter(1),
            observers if recorder is None else (*observers, recorder), fleet=False,
        )
        scheduler = replica.scheduler
        completed = replica.completed
        duration_s = max(0.0, run.end_s - run.first_arrival_s)
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
        if scheduler.kv is not None:
            # Emitted only when the KV memory model is on, keeping the meta of
            # every legacy (unbounded-memory) run byte-identical.
            meta["kv_budget_tokens"] = self.batch_config.kv.budget_tokens
            meta["kv_block_tokens"] = self.batch_config.kv.block_tokens
            meta["preemption"] = self.batch_config.kv.preemption
            meta["preemptions"] = scheduler.preemptions
            meta["preemption_rate"] = scheduler.preemptions / max(1, len(completed))
            meta["kv_peak_utilization"] = scheduler.kv.peak_utilization
            meta["kv_peak_fragmentation_tokens"] = (
                scheduler.kv.peak_fragmentation_tokens
            )
            meta["kv_memory_bound_s"] = replica.mem_bound_span_s
            meta["kv_memory_bound_frac"] = (
                replica.mem_bound_span_s / duration_s if duration_s > 0 else 0.0
            )
        meta.update(run.cost_meta)
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
            telemetry=None if recorder is None else recorder.build(run.first_arrival_s),
        )
