"""Continuous batching: admit, grow, shrink -- one iteration at a time.

The scheduler keeps a *running batch* of at most ``max_batch`` requests.  At
every iteration boundary it admits waiting requests (FCFS by arrival time) into
free batch slots and evicts requests whose output budget is exhausted -- the
"continuous" in continuous batching: the batch is re-formed every step rather
than waiting for the whole batch to drain.

When :attr:`BatchConfig.prefill` is on, an admitted request first passes
through a *prefill phase*: its prompt must be processed (``prefill_remaining``
counts down the unprocessed prompt tokens) before it may decode.  What mix of
prefill and decode work one iteration performs is the step-planning policy's
decision (:mod:`repro.serve.schedpolicy`, registered under
:data:`repro.registry.SCHEDULERS`) -- the scheduler itself only owns admission
and eviction.

The batch's *effective decode shape* for a step is ``(batch, context)``:
``batch`` requests, each contributing its own KV cache, at the longest context
currently in the batch (shorter requests ride along, exactly like padded
batched decode on real accelerators).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, fields

from repro.common.errors import ConfigError, SimulationError
from repro.registry import resolve_preemption
from repro.serve.kvcache import KVCacheConfig, KVCacheManager, PreemptionPolicy
from repro.serve.request import Request

#: Contexts are never simulated below this many tokens (matches the scale-tier
#: floor in :mod:`repro.config.scale`, so tiered serve runs stay consistent).
SEQ_BUCKET_FLOOR = 64


def bucket_context(context_tokens: int, floor: int = SEQ_BUCKET_FLOOR) -> int:
    """Round a context length up to the next power of two, at least ``floor``.

    Bucketing is what makes the memoized step-cost table small: a request's
    context grows by one token per step, but its bucket changes only O(log L)
    times over its lifetime.
    """

    if floor <= 0:
        raise ConfigError(f"bucket floor must be positive, got {floor}")
    size = int(context_tokens)
    if size <= floor:
        return floor
    # floor * 2**k for the least k with floor * 2**k >= size.
    return floor << (-(-size // floor) - 1).bit_length()


@dataclass(slots=True)
class ActiveRequest:
    """Mutable progress of one admitted request.

    ``prefill_remaining`` is the number of prompt tokens still to be processed
    before the first decode step; it is 0 for the whole lifetime of a request
    when the scheduler does not model prefill (:attr:`BatchConfig.prefill`
    off), which is exactly the legacy decode-only behaviour.
    """

    request: Request
    admitted_s: float
    generated: int = 0
    #: Prompt tokens not yet prefilled; decode may not start until this is 0.
    prefill_remaining: int = 0
    #: When the last prompt token was processed (None while prefilling, and
    #: for decode-only runs that never model the prefill phase).
    prefill_end_s: float | None = None
    first_token_s: float | None = None
    finish_s: float | None = None

    @property
    def in_prefill(self) -> bool:
        """Whether this request still has unprocessed prompt tokens."""

        return self.prefill_remaining > 0

    @property
    def prefill_processed(self) -> int:
        """Context tokens already prefilled (the KV cache length mid-prefill).

        Measured against the full context rather than the prompt alone: a
        recompute-preempted request re-prefills prompt *plus* already-generated
        tokens, so its remaining count may exceed ``prompt_tokens``.  For the
        ordinary first prefill (``generated == 0``) this is exactly the number
        of prompt tokens processed so far.
        """

        return self.request.prompt_tokens + self.generated - self.prefill_remaining

    @property
    def context_tokens(self) -> int:
        """KV-cache length: the prompt plus every output token generated."""

        return self.request.prompt_tokens + self.generated


@dataclass(slots=True)
class HandoffRequest:
    """A prefilled request in transit between replicas (disaggregated fleets).

    Wraps the :class:`ActiveRequest` evicted from a prefill replica so the
    decode replica resumes the *same* progress record (admission timestamp and
    prefill accounting survive the handoff); ``arrival_s`` is when the KV
    transfer completes, i.e. when the request becomes admissible again.  The
    duck-typed ``(arrival_s, request_id)`` pair lets handoffs share the
    scheduler's FCFS admission queue with plain requests.
    """

    active: ActiveRequest
    arrival_s: float

    @property
    def request_id(self) -> int:
        return self.active.request.request_id


@dataclass(frozen=True, slots=True)
class BatchConfig:
    """Knobs of the continuous-batching scheduler.

    ``prefill`` switches the prefill phase on: admitted requests then carry
    ``prefill_remaining = prompt_tokens`` and must be prefilled before they
    decode.  Off (the default) reproduces the legacy decode-only scheduler
    bit-for-bit.
    """

    max_batch: int = 4
    seq_bucket_floor: int = SEQ_BUCKET_FLOOR
    prefill: bool = False
    #: KV-memory model; the default (budget ``None``) keeps accounting off and
    #: the scheduler byte-identical to the legacy unbounded-memory behaviour.
    kv: KVCacheConfig = field(default_factory=KVCacheConfig)

    def validate(self) -> "BatchConfig":
        if self.max_batch <= 0:
            raise ConfigError(f"max_batch must be positive, got {self.max_batch}")
        if self.seq_bucket_floor <= 0:
            raise ConfigError(
                f"seq_bucket_floor must be positive, got {self.seq_bucket_floor}"
            )
        self.kv.validate()
        if self.kv.enabled and not self.prefill:
            raise ConfigError(
                "KV accounting needs the prefill phase modeled (prefill=True): "
                "recompute preemption re-prefills evicted context"
            )
        return self

    def to_dict(self) -> dict:
        # The "kv" key appears only when the memory model is on, so legacy
        # serialized configs (and their hashes) are untouched by the KV axis.
        base = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "kv"
        }
        return base | ({"kv": self.kv.to_dict()} if self.kv.enabled else {})

    @classmethod
    def from_dict(cls, data: dict) -> "BatchConfig":
        kwargs = {
            f.name: data[f.name]
            for f in fields(cls)
            if f.name in data and f.name != "kv"
        }
        if "kv" in data:
            kwargs["kv"] = KVCacheConfig.from_dict(data["kv"])
        return cls(**kwargs).validate()


@dataclass(slots=True)
class ContinuousBatchScheduler:
    """FCFS admission into a bounded, per-iteration re-formed batch.

    When the config carries a finite KV budget the scheduler also owns the
    memory side of admission: a request is admitted only if its current KV
    footprint fits the free blocks (``kv_blocked`` flags the head-of-line
    request that arrived in time but found no memory), every decode step's
    context growth is pre-funded by :meth:`ensure_kv_growth` -- which preempts
    the *last-admitted* running request (LIFO, so the oldest never starve)
    under the configured PREEMPTIONS policy until the batch fits -- and blocks
    are released on finish, handoff and preemption.
    """

    config: BatchConfig = field(default_factory=BatchConfig)
    #: Requests that have arrived but not yet been admitted, FCFS order.
    waiting: list = field(default_factory=list)
    #: The running batch (at most ``config.max_batch`` entries).
    running: list = field(default_factory=list)
    #: KV block allocator (None whenever accounting is off).
    kv: KVCacheManager | None = field(default=None, init=False)
    #: Eviction policy under KV pressure (None whenever accounting is off).
    preemption: PreemptionPolicy | None = field(default=None, init=False)
    #: Requests preempted so far (re-admissions do not reset it).
    preemptions: int = field(default=0, init=False)
    #: Whether the last :meth:`admit` left an arrived request waiting on
    #: memory rather than on a batch slot -- the "memory-bound" signal.
    kv_blocked: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.config.validate()
        if self.config.kv.enabled:
            self.kv = KVCacheManager(self.config.kv)
            self.preemption = resolve_preemption(self.config.kv.preemption)(
                self.config.kv
            )

    def enqueue(self, request) -> None:
        """Add an arrived request to the admission queue (kept FCFS-sorted).

        Accepts plain :class:`~repro.serve.request.Request` objects and
        :class:`HandoffRequest` wrappers (prefilled requests arriving from a
        prefill replica, or preempted requests awaiting re-admission) -- both
        expose ``(arrival_s, request_id)``.
        """

        insort(self.waiting, request, key=lambda r: (r.arrival_s, r.request_id))

    def admit(self, now_s: float) -> list[ActiveRequest]:
        """Admit waiting requests with ``arrival_s <= now_s`` into free slots.

        With KV accounting on, admission additionally requires the head
        request's current footprint to fit the free blocks; a head that
        arrived in time but does not fit sets :attr:`kv_blocked` and stalls
        the queue (admission stays strictly FCFS -- no skip-ahead).
        """

        admitted: list[ActiveRequest] = []
        self.kv_blocked = False
        waiting, running, kv = self.waiting, self.running, self.kv
        max_batch = self.config.max_batch
        while waiting and len(running) < max_batch:
            entry = waiting[0]
            if entry.arrival_s > now_s:
                break
            if kv is not None:
                # The entry's KV footprint now and at its last output token.
                if isinstance(entry, HandoffRequest):
                    request = entry.active.request
                    tokens_now = entry.active.context_tokens
                else:
                    request = entry
                    tokens_now = entry.prompt_tokens
                peak_blocks = kv.blocks_for(request.prompt_tokens + request.output_tokens)
                if peak_blocks > kv.capacity_blocks:
                    raise ConfigError(
                        f"request {entry.request_id} needs {peak_blocks} KV "
                        f"blocks at peak but the device budget is "
                        f"{kv.capacity_blocks} blocks "
                        f"({self.config.kv.budget_tokens} tokens)"
                    )
                if not kv.fits(tokens_now):
                    self.kv_blocked = True
                    break
            del waiting[0]
            if isinstance(entry, HandoffRequest):
                # Resume the prior progress record: admission and prefill
                # timestamps describe the request's first admission.
                active = entry.active
            else:
                active = ActiveRequest(
                    request=entry,
                    admitted_s=now_s,
                    prefill_remaining=entry.prompt_tokens if self.config.prefill else 0,
                )
            if kv is not None:
                kv.reserve(active.request.request_id, active.context_tokens)
            running.append(active)
            admitted.append(active)
        return admitted

    def ensure_kv_growth(self, now_s: float) -> list[ActiveRequest]:
        """Preempt until every decode-ready request can grow by one token.

        Called between admission and step planning: decode grows each
        non-prefilling request's context by one token, and that growth may
        need fresh blocks.  While the batch's aggregate growth demand exceeds
        the free blocks, the last-admitted running request is preempted --
        its blocks released, its progress record mutated by the PREEMPTIONS
        policy, and the request re-queued as a :class:`HandoffRequest` at the
        policy's re-admission time.  Returns the victims (newest first).
        """

        kv = self.kv
        if kv is None:
            return []
        preempted: list[ActiveRequest] = []
        running = self.running
        block_tokens, blocks = kv.block_tokens, kv.blocks
        while True:
            # Blocks the decode-ready requests need to grow by one token.
            needed = 0
            for a in running:
                if a.prefill_remaining <= 0:
                    request = a.request
                    grow = -(-(request.prompt_tokens + a.generated + 1) // block_tokens)
                    grow -= blocks.get(request.request_id, 0)
                    if grow > 0:
                        needed += grow
            if needed <= kv.capacity_blocks - kv.used_blocks:
                return preempted
            if len(running) <= 1:
                # Unreachable given the admission-time peak-footprint guard:
                # a lone request's one-block growth always fits.
                raise SimulationError(
                    "sole running request cannot grow within the KV budget"
                )
            victim = running.pop()
            kv.release(victim.request.request_id)
            self.preemptions += 1
            assert self.preemption is not None
            readmit_s = self.preemption.preempt(victim, now_s)
            self.enqueue(HandoffRequest(active=victim, arrival_s=readmit_s))
            preempted.append(victim)

    def release_kv(self, active: ActiveRequest) -> None:
        """Free an evicted request's KV blocks (finish or replica handoff)."""

        if self.kv is not None:
            self.kv.release(active.request.request_id)

    def evict_finished(self, now_s: float) -> list[ActiveRequest]:
        """Remove requests whose output budget is exhausted; stamp finish time."""

        running = self.running
        finished = [a for a in running if a.generated >= a.request.output_tokens]
        if finished:
            for active in finished:
                active.finish_s = now_s
                self.release_kv(active)
            self.running = [a for a in running if a.generated < a.request.output_tokens]
        return finished

    def batch_shape(self) -> tuple[int, int]:
        """The effective ``(batch, context_bucket)`` of the next iteration."""

        if not self.running:
            raise ConfigError("batch_shape() on an empty batch")
        context = max(a.context_tokens for a in self.running)
        return len(self.running), bucket_context(context, self.config.seq_bucket_floor)

    @property
    def has_work(self) -> bool:
        return bool(self.running or self.waiting)

    def next_arrival_s(self) -> float | None:
        """Arrival time of the earliest waiting request (None when idle)."""

        return self.waiting[0].arrival_s if self.waiting else None
