"""Step-planning policies: what mix of prefill and decode one iteration runs.

A :class:`SchedulerPolicy` looks at the running batch and produces a
:class:`StepPlan` -- which requests decode one token this iteration and which
process a chunk of their prompt.  The continuous-batching scheduler keeps
owning admission and eviction; the policy only decides the *composition* of
each iteration, which is exactly the axis real serving engines differ on:

* ``decode-first``  -- in-flight decodes are never stalled by new prompts;
  prefill runs only on iterations with nothing to decode.  With prefill cost
  disabled this is bit-for-bit the legacy decode-only scheduler.
* ``prefill-first`` -- pending prompts always preempt decode (the classic
  vLLM default): each such iteration prefills every pending prompt in full.
* ``chunked``       -- token-budgeted prefill chunks ride along with the
  decode batch every iteration (the vLLM ``--enable-chunked-prefill`` knob):
  decodes keep streaming while at most ``prefill_chunk`` prompt tokens are
  processed per step, FCFS across pending prompts.

Builders are registered under :data:`repro.registry.SCHEDULERS` via
``@register_scheduler`` with the uniform signature
``(prefill_chunk, **params) -> SchedulerPolicy``, which makes a new admission
discipline immediately addressable from ``llamcat serve --scheduler <name>``,
:class:`~repro.serve.scenario.ServeScenario` and serve/cluster sweep grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ConfigError
from repro.registry import register_scheduler
from repro.serve.scheduler import ActiveRequest, bucket_context

#: Default token budget of one chunked-prefill iteration.
DEFAULT_PREFILL_CHUNK = 256


@dataclass(frozen=True, slots=True)
class StepPlan:
    """The composition of one scheduler iteration.

    ``decode`` lists the requests generating one output token this step;
    ``prefill`` pairs each prefilling request with the number of prompt tokens
    it processes this step.  A request never appears in both lists: decode
    strictly follows prefill completion.
    """

    decode: tuple[ActiveRequest, ...] = ()
    prefill: tuple[tuple[ActiveRequest, int], ...] = ()

    def validate(self) -> "StepPlan":
        if not self.decode and not self.prefill:
            raise ConfigError("a step plan must schedule some work")
        for active in self.decode:
            if active.prefill_remaining > 0:
                raise ConfigError(
                    f"request {active.request.request_id} planned for decode "
                    f"with {active.prefill_remaining} prompt tokens unprefilled"
                )
        for active, chunk in self.prefill:
            if chunk <= 0 or chunk > active.prefill_remaining:
                raise ConfigError(
                    f"request {active.request.request_id} planned a prefill "
                    f"chunk of {chunk} with {active.prefill_remaining} remaining"
                )
        return self

    @property
    def prefill_tokens(self) -> int:
        """Prompt tokens processed by this step across all chunks."""

        return sum(chunk for _, chunk in self.prefill)

    def prefill_context(self) -> int:
        """The largest attention context any prefill chunk reaches this step."""

        return max(active.prefill_processed + chunk for active, chunk in self.prefill)

    def decode_context(self) -> int:
        """The longest decode context in the planned batch."""

        longest = 0
        for active in self.decode:
            context = active.request.prompt_tokens + active.generated
            if context > longest:
                longest = context
        return longest

    def trace_args(self, seq_bucket_floor: int) -> dict:
        """The plan's composition as trace-event args (for step spans).

        ``seq_bucket`` is the decode context bucket the step was priced at.
        """

        args: dict = {"decode": len(self.decode)}
        if self.decode:
            args["decode_context"] = self.decode_context()
            args["seq_bucket"] = bucket_context(args["decode_context"], seq_bucket_floor)
        if self.prefill:
            args["prefill_reqs"] = len(self.prefill)
            args["prefill_tokens"] = self.prefill_tokens
            args["prefill_context"] = self.prefill_context()
        return args


class SchedulerPolicy:
    """Base class: plan one iteration over the running batch."""

    name = "scheduler"

    def plan(self, running: Sequence[ActiveRequest]) -> StepPlan:
        """The work of the next iteration (``running`` is in admission order).

        The plan may depend only on the order of ``running`` and on each
        request's ``prefill_remaining``: never on generated tokens, the clock
        or state of the policy's own.  :class:`~repro.serve.simulator.
        ReplicaSim` relies on it to reuse a decode-only plan without asking
        the policy again for as long as no request joins, leaves or changes
        phase.
        """

        raise NotImplementedError

    def meta(self) -> dict:
        """Policy knobs worth reporting in the run's metrics meta."""

        return {}


def _split_phases(
    running: Sequence[ActiveRequest],
) -> tuple[list[ActiveRequest], list[ActiveRequest]]:
    decode_ready: list[ActiveRequest] = []
    prefilling: list[ActiveRequest] = []
    for active in running:
        (prefilling if active.prefill_remaining > 0 else decode_ready).append(active)
    return decode_ready, prefilling


class DecodeFirstPolicy(SchedulerPolicy):
    """Decode whenever anything can decode; prefill only on idle-decode steps.

    In-flight requests keep their per-token pace no matter how many prompts
    queue up behind them; a prompt waits until an iteration has no decode-ready
    request, then the whole backlog prefills in one step.
    """

    name = "decode-first"

    def plan(self, running: Sequence[ActiveRequest]) -> StepPlan:
        decode_ready, prefilling = _split_phases(running)
        if decode_ready:
            return StepPlan(decode=tuple(decode_ready)).validate()
        return StepPlan(
            prefill=tuple((a, a.prefill_remaining) for a in prefilling)
        ).validate()


class PrefillFirstPolicy(SchedulerPolicy):
    """Pending prompts always preempt decode; each prefills in full.

    The classic continuous-batching default: new requests reach their first
    token as fast as the accelerator allows, at the price of stalling every
    in-flight decode for whole prompts at a time (TPOT jitter).
    """

    name = "prefill-first"

    def plan(self, running: Sequence[ActiveRequest]) -> StepPlan:
        decode_ready, prefilling = _split_phases(running)
        if prefilling:
            return StepPlan(
                prefill=tuple((a, a.prefill_remaining) for a in prefilling)
            ).validate()
        return StepPlan(decode=tuple(decode_ready)).validate()


class ChunkedPrefillPolicy(SchedulerPolicy):
    """Mixed batches: decode everything, plus <= ``prefill_chunk`` prompt tokens.

    Every iteration decodes the decode-ready requests *and* spends a bounded
    token budget on the oldest pending prompts (FCFS), so prompts never stall
    decode and decode never starves prompts -- the chunked-prefill trade-off.
    """

    name = "chunked"

    def __init__(self, prefill_chunk: int = DEFAULT_PREFILL_CHUNK) -> None:
        if prefill_chunk <= 0:
            raise ConfigError(f"prefill_chunk must be positive, got {prefill_chunk}")
        self.prefill_chunk = int(prefill_chunk)

    def plan(self, running: Sequence[ActiveRequest]) -> StepPlan:
        # One pass splits the phases and spends the budget FCFS, since
        # ``running`` is in admission order.
        decode_ready: list[ActiveRequest] = []
        chunks: list[tuple[ActiveRequest, int]] = []
        budget = self.prefill_chunk
        for active in running:
            remaining = active.prefill_remaining
            if remaining <= 0:
                decode_ready.append(active)
            elif budget > 0:
                chunk = min(remaining, budget)
                chunks.append((active, chunk))
                budget -= chunk
        return StepPlan(decode=tuple(decode_ready), prefill=tuple(chunks)).validate()

    def meta(self) -> dict:
        return {"prefill_chunk": self.prefill_chunk}


class PrefillOnlyPolicy(SchedulerPolicy):
    """Prefill every pending prompt in full; never decode.

    The step planner of a *prefill replica* in a disaggregated fleet: requests
    leave the replica as soon as their prompt is processed (the serving loop
    evicts and hands them off), so a decode phase never exists here.  Not
    registered -- a colocated serving loop running this policy would never
    finish a request.
    """

    name = "prefill-only"

    def plan(self, running: Sequence[ActiveRequest]) -> StepPlan:
        _, prefilling = _split_phases(running)
        if not prefilling:
            raise ConfigError(
                "prefill-only replica has nothing to prefill (decode-phase "
                "requests must never be routed here)"
            )
        return StepPlan(
            prefill=tuple((a, a.prefill_remaining) for a in prefilling)
        ).validate()


@register_scheduler(
    "decode-first",
    aliases=("decode",),
    description="Decode-ready requests never stall; prefill runs on decode-idle steps",
)
def decode_first_scheduler(prefill_chunk: int = DEFAULT_PREFILL_CHUNK) -> SchedulerPolicy:
    return DecodeFirstPolicy()


@register_scheduler(
    "prefill-first",
    aliases=("prefill",),
    description="Pending prompts preempt decode and prefill in full (vLLM default)",
)
def prefill_first_scheduler(prefill_chunk: int = DEFAULT_PREFILL_CHUNK) -> SchedulerPolicy:
    return PrefillFirstPolicy()


@register_scheduler(
    "chunked",
    aliases=("chunked-prefill",),
    description="Token-budgeted prefill chunks interleaved with decode (`prefill_chunk=`)",
)
def chunked_scheduler(prefill_chunk: int = DEFAULT_PREFILL_CHUNK) -> SchedulerPolicy:
    return ChunkedPrefillPolicy(prefill_chunk=prefill_chunk)
