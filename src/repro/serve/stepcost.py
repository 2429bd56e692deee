"""Per-iteration step costs: the bridge from serving steps to the cycle engine.

One serving iteration decodes one token for every request in the batch.  Its
cost is obtained by simulating the decode operator at the batch's effective
shape: ``batch`` requests each contribute their own KV heads (a batch of B
requests times H KV head groups is exactly B*H independent thread-block groups
streaming disjoint KV caches), at the bucketed maximum context in the batch.
Prefill chunks reuse the same machinery: a chunk of T prompt tokens maps onto
``ceil(T / 64)`` query blocks standing in for the batch axis, so prefill and
decode costs share one memoized shape table.

Simulating every step would be ruinously slow -- a serving run takes thousands
of steps but only ever visits a handful of distinct ``(batch, seq-bucket)``
shapes.  :class:`SimStepCostModel` therefore prices a step in two layers: an
exact memo keyed by the ``(batch, context)`` the serving loop passes in, and
under it a table keyed by ``(batch, seq_bucket)`` that records each shape the
cycle engine simulated.  Everything else that identifies a step's workload --
system, policy, ordering, constraints, cycle cap -- is fixed per model, so it
stays out of both keys.  A repeated lookup costs one dictionary probe; a
table miss runs the engine through :func:`~repro.sim.runner.run_policy`, so
the underlying trace is additionally shared through its trace cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig
from repro.config.scale import ScaleTier, scale_seq_len
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.serve.scheduler import bucket_context
from repro.sim.runner import run_policy


#: Query tile width of the prefill cost mapping: a prefill chunk of T tokens
#: is costed as ``ceil(T / 64)`` query blocks, each shaped like one decode
#: step (64 matches the sequence-bucket floor, so chunk buckets and context
#: buckets share one grid).
PREFILL_QUERY_BLOCK = 64

#: Largest query-block count handed to the cycle engine in one simulation;
#: wider chunks are priced as whole multiples of this shape (the engine's
#: cost is linear in independent head groups anyway, and the cap keeps the
#: biggest prefill trace within a few times the biggest decode trace).
PREFILL_MAX_BLOCKS = 4


class StepCostModel:
    """Interface: per-iteration serving costs.

    ``step_cycles`` prices decoding one token for each of ``batch`` requests;
    ``prefill_cycles`` prices processing a prompt chunk of ``tokens`` new
    tokens whose attention context ends at ``context_tokens``.
    """

    def step_cycles(self, batch: int, context_tokens: int) -> int:
        raise NotImplementedError

    def prefill_cycles(self, tokens: int, context_tokens: int) -> int:
        raise NotImplementedError

    def profile(self) -> dict:
        """Wall-clock/hit-rate introspection; analytical models have none."""

        return {}


@dataclass(frozen=True, slots=True)
class LinearStepCostModel(StepCostModel):
    """An analytical stand-in: ``base + batch * (request + token * context)``.

    Used by unit tests and quick what-if studies where the cycle engine's
    fidelity is not needed; the serving loop is oblivious to which model backs
    it.  Prefill is the matching analog: a per-prompt-token term plus the
    attention term over the chunk's context, tiled by
    :data:`PREFILL_QUERY_BLOCK` (prefill queries amortize the KV stream a
    whole tile at a time, which is why prefill is compute- rather than
    bandwidth-bound).
    """

    base_cycles: int = 1000
    cycles_per_request: int = 100
    cycles_per_token: int = 1
    #: Cost of processing one prompt token during prefill.
    cycles_per_prefill_token: int = 8

    def step_cycles(self, batch: int, context_tokens: int) -> int:
        if batch <= 0 or context_tokens <= 0:
            raise ConfigError(
                f"step shape must be positive, got batch={batch} context={context_tokens}"
            )
        return self.base_cycles + batch * (
            self.cycles_per_request + self.cycles_per_token * context_tokens
        )

    def prefill_cycles(self, tokens: int, context_tokens: int) -> int:
        if tokens <= 0 or context_tokens <= 0:
            raise ConfigError(
                f"prefill shape must be positive, got tokens={tokens} "
                f"context={context_tokens}"
            )
        attend = (
            tokens * self.cycles_per_token * context_tokens
        ) // PREFILL_QUERY_BLOCK
        return self.base_cycles + tokens * self.cycles_per_prefill_token + attend


class SimStepCostModel(StepCostModel):
    """Cycle-engine-backed step costs, memoized per loop shape and per bucket.

    ``system`` must already be tier-scaled (the serve scenario scales it once);
    per-step contexts are scaled here with the same tier so the working-set :
    capacity ratio the tiers preserve also holds inside a serving run.  All
    constructor inputs are fixed for the model's lifetime: the memo and the
    table key only on the step shape, so changing them afterwards would serve
    stale cycles.
    """

    def __init__(
        self,
        system: SystemConfig,
        workload: WorkloadConfig,
        policy: PolicyConfig,
        tier: ScaleTier = ScaleTier.FULL,
        ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED,
        constraints: DataflowConstraints | None = None,
        max_cycles: int | None = None,
        seq_bucket_floor: int = 64,
    ) -> None:
        self.system = system
        self.workload = workload
        self.policy = policy
        self.tier = tier
        self.ordering = ordering
        self.constraints = constraints
        self.max_cycles = max_cycles
        self.seq_bucket_floor = seq_bucket_floor
        #: Exact cycles per ``(batch, context_tokens)`` as passed in; only
        #: valid shapes are ever stored, so invalid ones always reach the
        #: validation in :meth:`batched_workload`.
        self._memo: dict[tuple[int, int], int] = {}
        #: Simulated cycles per ``(batch, seq_bucket)``: one entry per
        #: distinct shape the cycle engine ran.
        self._table: dict[tuple[int, int], int] = {}
        #: Cycle-engine runs actually performed (table misses); fidelity /
        #: performance introspection for tests and the CLI.
        self.simulations = 0
        #: Lookups answered without a cycle-engine run (memo or table hits).
        self.hits = 0
        #: Wall-clock seconds spent inside the cycle engine filling the table.
        self.build_wall_s = 0.0

    def batched_workload(self, batch: int, context_tokens: int) -> WorkloadConfig:
        """The effective workload of one step: B*H KV heads at the seq bucket.

        The batch is encoded *only* through the head dimension (B requests x H
        KV heads = B*H independent head groups over disjoint KV caches);
        ``batch_size`` stays 1 so the workload's byte/FLOP accessors count the
        batched footprint exactly once.
        """

        if batch <= 0 or context_tokens <= 0:
            raise ConfigError(
                f"step shape must be positive, got batch={batch} context={context_tokens}"
            )
        bucket = bucket_context(
            scale_seq_len(context_tokens, self.tier), self.seq_bucket_floor
        )
        shape = self.workload.shape
        return replace(
            self.workload,
            shape=replace(shape, num_kv_heads=shape.num_kv_heads * batch, seq_len=bucket),
        ).validate()

    def step_cycles(self, batch: int, context_tokens: int) -> int:
        cycles = self._memo.get((batch, context_tokens))
        if cycles is None:
            cycles = self._memo[batch, context_tokens] = self._table_cycles(
                batch, context_tokens
            )
        else:
            self.hits += 1
        return cycles

    def _table_cycles(self, batch: int, context_tokens: int) -> int:
        """Cycles of a memo miss: the bucket's table entry, simulated once."""

        step_workload = self.batched_workload(batch, context_tokens)
        key = (batch, step_workload.shape.seq_len)
        cycles = self._table.get(key)
        if cycles is not None:
            self.hits += 1
            return cycles
        # Wall-clock profiling of table builds only; build_wall_s feeds
        # the debug-log profile and is never serialized into metrics.
        build_start = time.perf_counter()  # repro: noqa[DET002]
        result = run_policy(
            self.system,
            step_workload,
            self.policy,
            label=f"serve-step[b={batch}]",
            max_cycles=self.max_cycles,
            ordering=self.ordering,
            constraints=self.constraints,
        )
        cycles = self._table[key] = result.cycles
        self.simulations += 1
        self.build_wall_s += time.perf_counter() - build_start  # repro: noqa[DET002]
        return cycles

    def prefill_chunk_blocks(self, tokens: int) -> int:
        """Query blocks of a prefill chunk: the chunk-bucketed shape axis.

        The chunk is rounded up to a power of two (so a request's chunk sizes
        visit O(log L) distinct shapes) and tiled into
        :data:`PREFILL_QUERY_BLOCK`-query blocks.  Deliberately *not*
        tier-scaled: tier scaling preserves the working-set : capacity ratio
        by shrinking contexts, but prefill work is compute proportional to the
        actual prompt tokens -- scaling it would price a whole prompt like one
        chunk and erase the trade-off the schedulers exist to explore.
        """

        if tokens <= 0:
            raise ConfigError(f"prefill tokens must be positive, got {tokens}")
        bucket = bucket_context(tokens, floor=PREFILL_QUERY_BLOCK)
        return bucket // PREFILL_QUERY_BLOCK

    def prefill_cycles(self, tokens: int, context_tokens: int) -> int:
        """Cycle-engine cost of one prefill chunk, via the memoized table.

        A chunk of T prompt tokens at attention context C is costed as the
        decode-step shape with ``ceil(T / 64)`` query blocks standing in for
        the batch axis: each tile of prefill queries occupies the accelerator
        like one decode request's KV-head groups at context C.  (Tiles of one
        prompt share a KV cache where batched decodes stream disjoint ones, so
        this slightly overprices prefill DRAM traffic -- acceptable, and it
        keeps prefill and decode in one ``(batch, seq-bucket)`` table.)
        Chunks wider than :data:`PREFILL_MAX_BLOCKS` blocks are priced as
        whole multiples of the capped shape, so arbitrarily long prompts cost
        proportionally more without ever growing the simulated trace.
        """

        blocks = self.prefill_chunk_blocks(tokens)
        sim_blocks = min(blocks, PREFILL_MAX_BLOCKS)
        # Block counts are powers of two (bucketed), so this divides exactly.
        repeats = -(-blocks // sim_blocks)
        return repeats * self.step_cycles(sim_blocks, context_tokens)

    @property
    def table_size(self) -> int:
        """Distinct (batch, seq-bucket) shapes simulated so far."""

        return len(self._table)

    def profile(self) -> dict:
        """Where the model's wall clock went: table builds vs. lookups.

        ``misses`` equals :attr:`simulations`; ``build_wall_s`` is the real
        time spent inside the cycle engine.  Wall-clock figures never enter
        metrics objects -- the :class:`~repro.obs.profile.Profiler` observer
        and debug logging surface them.
        """

        return {
            "entries": self.table_size,
            "hits": self.hits,
            "misses": self.simulations,
            "build_wall_s": self.build_wall_s,
        }
