"""KV-cache memory accounting: budgets, paged blocks, preemption policies.

Real serving is capped by KV-cache HBM, not by a batch-slot count: every
admitted request pins ``prompt_tokens + generated`` tokens of KV state
(:attr:`~repro.serve.scheduler.ActiveRequest.context_tokens`), and the batch
may only grow while that footprint fits the device budget.  This module owns
the three pieces of that model:

* :class:`KVCacheConfig` -- the knobs (token budget, paged block size,
  preemption policy, swap transfer cost).  ``budget_tokens=None`` disables KV
  accounting entirely, which is the legacy unbounded-memory behaviour and the
  mode every golden fixture is recorded in.
* :class:`KVCacheManager` -- per-request block allocation against the budget,
  in the vLLM paged-attention style: capacity is ``budget_tokens //
  block_tokens`` fixed-size blocks, a request holding ``t`` tokens pins
  ``ceil(t / block_tokens)`` blocks, and the tokens rounded up to the block
  boundary are *internal fragmentation* the manager tracks.  ``block_tokens=1``
  is exact token-granular accounting (no fragmentation).  The serving loop
  reads its totals every step, so they are kept as fields, not recomputed:
  ``used_blocks`` and ``pinned_tokens`` (the sums over ``blocks`` and
  ``tokens``) and the two peaks are brought up to date by :meth:`reserve`,
  :meth:`grow` and :meth:`release`, and nothing else writes them.
* :data:`PREEMPTIONS` registry entries -- what to do with a victim when the
  running batch needs KV blocks the device no longer has.  ``recompute`` drops
  the victim's KV and re-prefills its whole context on re-admission (cheap
  eviction, expensive return); ``swap`` preserves the KV off-device and pays a
  configurable transfer latency each way (expensive eviction, cheap return).

The scheduler (:class:`~repro.serve.scheduler.ContinuousBatchScheduler`) calls
into the manager at admission, growth and eviction; policies only mutate the
victim's progress record and price its return -- victim *selection* (LIFO,
last-admitted first, so the oldest requests never starve) stays with the
scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError, SimulationError
from repro.registry import PREEMPTIONS, register_preemption

if TYPE_CHECKING:  # scheduler imports us; annotate without the cycle
    from repro.serve.scheduler import ActiveRequest

#: Default one-way KV swap transfer latency (milliseconds).
DEFAULT_SWAP_MS = 0.1


@dataclass(frozen=True, slots=True)
class KVCacheConfig:
    """KV-memory model knobs; ``budget_tokens=None`` disables the model.

    With accounting disabled the scheduler never touches a
    :class:`KVCacheManager` and reproduces the legacy unbounded-memory
    timeline bit-for-bit -- golden fixtures are all recorded in this mode.
    """

    #: Device KV capacity in tokens, or None for unbounded (accounting off).
    budget_tokens: int | None = None
    #: Paged-KV block size in tokens; 1 means exact token-granular accounting.
    block_tokens: int = 1
    #: PREEMPTIONS registry name deciding what eviction under pressure costs.
    preemption: str = "recompute"
    #: One-way swap transfer latency in milliseconds (``swap`` policy only).
    swap_ms: float = DEFAULT_SWAP_MS

    @property
    def enabled(self) -> bool:
        return self.budget_tokens is not None

    @property
    def capacity_blocks(self) -> int:
        """Whole blocks that fit the budget (0 when accounting is off)."""

        if self.budget_tokens is None:
            return 0
        return self.budget_tokens // self.block_tokens

    def validate(self) -> "KVCacheConfig":
        if self.block_tokens <= 0:
            raise ConfigError(f"kv block_tokens must be positive, got {self.block_tokens}")
        if not math.isfinite(self.swap_ms):
            raise ConfigError(f"kv swap_ms must be finite, got {self.swap_ms}")
        if self.swap_ms < 0:
            raise ConfigError(f"kv swap_ms must be non-negative, got {self.swap_ms}")
        PREEMPTIONS.get(self.preemption)  # unknown names raise ConfigError
        if self.budget_tokens is not None:
            if self.budget_tokens <= 0:
                raise ConfigError(
                    f"kv budget_tokens must be positive, got {self.budget_tokens}"
                )
            if self.capacity_blocks < 1:
                raise ConfigError(
                    f"kv budget of {self.budget_tokens} tokens fits no "
                    f"{self.block_tokens}-token block"
                )
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "KVCacheConfig":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data}).validate()


@dataclass(slots=True)
class KVCacheManager:
    """Paged per-request KV block allocation against a fixed device budget.

    ``used_blocks`` and ``pinned_tokens`` are the running sums of ``blocks``
    and ``tokens``, and the two peaks are checked against them whenever an
    operation could raise one.  Only :meth:`reserve`, :meth:`grow` and
    :meth:`release` write these fields.
    """

    config: KVCacheConfig
    #: Tokens of KV state currently pinned, per admitted request id.
    tokens: dict = field(default_factory=dict, init=False)
    #: Blocks backing those tokens, per admitted request id.
    blocks: dict = field(default_factory=dict, init=False)
    used_blocks: int = field(default=0, init=False)
    #: Sum of ``tokens``: the KV state pinned across every admitted request.
    pinned_tokens: int = field(default=0, init=False)
    #: High-water marks over the run (utilization is a block fraction;
    #: fragmentation is block-padding waste as a fraction of the budget).
    peak_used_blocks: int = field(default=0, init=False)
    peak_fragmentation_tokens: int = field(default=0, init=False)
    #: The config's block size and whole-block capacity, fixed at creation.
    block_tokens: int = field(default=0, init=False)
    capacity_blocks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.config.enabled:
            raise ConfigError("KVCacheManager needs a finite budget_tokens")
        self.config.validate()
        self.block_tokens = self.config.block_tokens
        self.capacity_blocks = self.config.capacity_blocks

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - self.used_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` of KV state (ceiling division)."""

        return -(-tokens // self.block_tokens)

    def fits(self, tokens: int) -> bool:
        """Whether a new request pinning ``tokens`` fits the free blocks."""

        return -(-tokens // self.block_tokens) <= self.capacity_blocks - self.used_blocks

    def reserve(self, request_id: int, tokens: int) -> None:
        """Pin ``tokens`` of KV for a newly admitted request."""

        if request_id in self.tokens:
            raise SimulationError(f"request {request_id} already holds KV blocks")
        need = -(-tokens // self.block_tokens)
        free = self.capacity_blocks - self.used_blocks
        if need > free:
            raise SimulationError(
                f"KV reservation of {need} blocks for request {request_id} "
                f"exceeds the {free} free (admission must gate on fits())"
            )
        self.tokens[request_id] = tokens
        self.blocks[request_id] = need
        self.used_blocks += need
        self.pinned_tokens += tokens
        self._observe()

    def grow(self, request_id: int, tokens: int) -> None:
        """Grow an admitted request's pinned KV to ``tokens`` (decode growth)."""

        held = self.tokens.get(request_id)
        if held is None:
            raise SimulationError(f"request {request_id} holds no KV to grow")
        blocks = self.blocks
        delta = -(-tokens // self.block_tokens) - blocks[request_id]
        if delta > self.capacity_blocks - self.used_blocks:
            raise SimulationError(
                f"KV growth of {delta} blocks for request {request_id} exceeds "
                f"the {self.free_blocks} free (the scheduler must preempt first)"
            )
        self.tokens[request_id] = tokens
        self.pinned_tokens += tokens - held
        if delta:
            blocks[request_id] += delta
            self.used_blocks += delta
            self._observe()
        elif tokens < held:
            # Same blocks, fewer tokens: only the padding waste can rise.
            self._observe()

    def release(self, request_id: int) -> None:
        """Free every block a request holds (finish, handoff or preemption)."""

        if request_id not in self.tokens:
            raise SimulationError(f"request {request_id} holds no KV to release")
        self.used_blocks -= self.blocks.pop(request_id)
        self.pinned_tokens -= self.tokens.pop(request_id)

    def _observe(self) -> None:
        used = self.used_blocks
        if used > self.peak_used_blocks:
            self.peak_used_blocks = used
        waste = used * self.block_tokens - self.pinned_tokens
        if waste > self.peak_fragmentation_tokens:
            self.peak_fragmentation_tokens = waste

    @property
    def peak_utilization(self) -> float:
        """Peak fraction of the block budget ever pinned at once."""

        return self.peak_used_blocks / self.capacity_blocks


class PreemptionPolicy:
    """What evicting a running request under KV pressure does and costs.

    Subclasses mutate the victim's progress record as the eviction demands and
    return the time at which the victim becomes admissible again; the
    scheduler handles victim selection, block release and re-queueing.
    """

    name = "preemption"

    def preempt(self, active: "ActiveRequest", now_s: float) -> float:
        """Evict ``active`` at ``now_s``; return its re-admission time."""

        raise NotImplementedError


class RecomputePreemption(PreemptionPolicy):
    """Drop the victim's KV; re-prefill its whole context on return.

    Eviction is free (the blocks are simply reused) but re-admission must
    re-run prefill over everything the request had accumulated -- prompt plus
    already-generated tokens -- so ``prefill_remaining`` is restored to the
    full ``context_tokens``.  The victim is admissible again immediately.
    """

    name = "recompute"

    def preempt(self, active: "ActiveRequest", now_s: float) -> float:
        active.prefill_remaining = active.context_tokens
        return now_s


class SwapPreemption(PreemptionPolicy):
    """Swap the victim's KV off-device; pay a transfer latency each way.

    Progress is preserved -- no re-prefill -- but the request only becomes
    admissible after the swap-out plus swap-in transfers complete, priced at
    ``swap_ms`` one way.
    """

    name = "swap"

    def __init__(self, swap_ms: float = DEFAULT_SWAP_MS) -> None:
        self.swap_s = swap_ms * 1e-3

    def preempt(self, active: "ActiveRequest", now_s: float) -> float:
        return now_s + 2.0 * self.swap_s


@register_preemption(
    "recompute", description="drop KV on eviction, re-prefill the context on return"
)
def recompute_preemption(kv: KVCacheConfig) -> PreemptionPolicy:
    return RecomputePreemption()


@register_preemption(
    "swap", description="preserve KV off-device, pay a transfer latency each way"
)
def swap_preemption(kv: KVCacheConfig) -> PreemptionPolicy:
    return SwapPreemption(swap_ms=kv.swap_ms)
