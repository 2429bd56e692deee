"""ServeScenario: one serving simulation point, named by registry strings.

The serving counterpart of :class:`repro.api.Scenario`: a frozen, serializable
description of a serving run -- workload / system / policy / arrival-process /
scheduler names plus the traffic knobs (rate, request count, batch bound,
prefill chunk budget, seed, SLOs).  Everything resolves through
:mod:`repro.registry`, so a workload, arrival process or scheduler policy
registered anywhere is immediately servable from the Python API, the
``llamcat serve`` subcommand and serve sweep grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig
from repro.config.scale import ScaleTier, parse_tier, scale_system
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.registry import (
    resolve_arrival,
    resolve_policy,
    resolve_scheduler,
    resolve_system,
    resolve_workload,
)
from repro.serve.kvcache import DEFAULT_SWAP_MS, KVCacheConfig
from repro.serve.metrics import ServeMetrics, ServeSLO
from repro.serve.request import (
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PROMPT_TOKENS,
    RequestSampler,
)
from repro.serve.schedpolicy import DEFAULT_PREFILL_CHUNK
from repro.serve.scheduler import SEQ_BUCKET_FLOOR, BatchConfig
from repro.serve.simulator import ServingSimulator
from repro.serve.stepcost import SimStepCostModel
from repro.sim.runner import clear_trace_cache
from repro.sweep.spec import ScenarioPoint

#: The system name a ServeScenario uses when none is given (matches
#: :data:`repro.api.DEFAULT_SYSTEM`).
DEFAULT_SERVE_SYSTEM = "table5"

#: The step-planning policy a ServeScenario uses when none is given.
DEFAULT_SCHEDULER = "decode-first"


class ResolvedServeScenario(NamedTuple):
    """Concrete, tier-scaled configuration objects behind a ServeScenario."""

    system: SystemConfig
    workload: WorkloadConfig
    policy: PolicyConfig


@dataclass(frozen=True, slots=True)
class ServeScenario:
    """One serving simulation point over a stream of decode requests."""

    #: Store kind tag of this scenario's points and results.
    kind: ClassVar[str] = "serve"

    workload: str
    arrival: str = "poisson"
    #: Requests/s for open-loop processes; user population for closed-loop.
    rate: float = 2000.0
    num_requests: int = 32
    max_batch: int = 4
    seed: int = 0
    policy: str = "unopt"
    #: Step-planning policy (SCHEDULERS registry name): decode-first /
    #: prefill-first / chunked.
    scheduler: str = DEFAULT_SCHEDULER
    #: Token budget of one chunked-prefill iteration (chunked scheduler only).
    prefill_chunk: int = DEFAULT_PREFILL_CHUNK
    #: Model the prefill phase; off, prompts are free and the run reproduces
    #: the legacy decode-only scheduler bit-for-bit.
    prefill_cost: bool = True
    system: str = DEFAULT_SERVE_SYSTEM
    tier: ScaleTier = ScaleTier.CI
    prompt_tokens: tuple[int, int] = DEFAULT_PROMPT_TOKENS
    output_tokens: tuple[int, int] = DEFAULT_OUTPUT_TOKENS
    #: Extra keyword parameters for the arrival builder, as sorted pairs
    #: (e.g. ``(("burst_size", 4),)`` for bursty traffic).
    arrival_params: tuple[tuple[str, object], ...] = ()
    slo_ttft_ms: float | None = None
    slo_latency_ms: float | None = None
    max_cycles: int | None = None
    #: Telemetry sampling cadence in simulated milliseconds; None disables
    #: sampling.  Serialized only when set, so pre-telemetry scenario hashes
    #: (and store resume) stay valid.
    telemetry_ms: float | None = None
    #: KV-cache budget in tokens, ``"system"`` for the system preset's
    #: :attr:`~repro.config.system.SystemConfig.kv_budget_tokens`, or None to
    #: keep KV accounting off (the legacy unbounded-memory default).  The KV
    #: knobs are serialized only when a budget is set, so pre-KV scenario
    #: hashes (and store resume) stay valid.
    kv_budget: int | str | None = None
    #: Paged-KV block size in tokens (1 = exact token-granular accounting).
    kv_block: int = 1
    #: PREEMPTIONS registry name: what eviction under KV pressure costs.
    preemption: str = "recompute"
    #: One-way KV swap transfer latency in milliseconds (swap policy only).
    kv_swap_ms: float = DEFAULT_SWAP_MS
    #: Display label (defaults to "<policy>@<arrival>"); never part of the key.
    label: str | None = None

    # -- validation / resolution -------------------------------------------------------
    def validate(self) -> "ServeScenario":
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {self.num_requests}")
        if self.max_batch <= 0:
            raise ConfigError(f"max_batch must be positive, got {self.max_batch}")
        if self.prefill_chunk <= 0:
            raise ConfigError(f"prefill_chunk must be positive, got {self.prefill_chunk}")
        if self.telemetry_ms is not None and self.telemetry_ms <= 0:
            raise ConfigError(f"telemetry_ms must be positive, got {self.telemetry_ms}")
        if not isinstance(self.tier, ScaleTier):
            raise ConfigError(f"tier must be a ScaleTier, got {self.tier!r}")
        self.slo().validate()
        resolve_arrival(self.arrival)  # raises ConfigError on unknown names
        resolve_scheduler(self.scheduler)
        # The KV knobs must be valid even with accounting off, so a sweep
        # axis never carries a bad block size or preemption name silently.
        KVCacheConfig(
            block_tokens=self.kv_block, preemption=self.preemption, swap_ms=self.kv_swap_ms
        ).validate()
        resolved = self.resolve()
        if self.kv_budget is not None:
            if not self.prefill_cost:
                raise ConfigError(
                    "kv_budget needs prefill_cost=True: recompute preemption "
                    "re-prefills evicted context"
                )
            self.kv_config(resolved.system).validate()
        return self

    def resolve(self) -> ResolvedServeScenario:
        """Resolve names through the registries and tier-scale the system.

        The workload keeps its builder-default sequence length: per-step
        contexts come from the request stream, so only the shape family
        (heads, head_dim, operator) matters here.
        """

        system = scale_system(resolve_system(self.system), self.tier)
        workload = resolve_workload(self.workload)
        policy = resolve_policy(self.policy)
        return ResolvedServeScenario(system=system, workload=workload, policy=policy)

    def slo(self) -> ServeSLO:
        return ServeSLO(ttft_ms=self.slo_ttft_ms, latency_ms=self.slo_latency_ms)

    def kv_config(self, system: SystemConfig | None = None) -> KVCacheConfig:
        """The KV memory model of this point (accounting off when no budget).

        ``kv_budget="system"`` resolves to the (tier-scaled) system preset's
        :attr:`~repro.config.system.SystemConfig.kv_budget_tokens`; pass the
        already-resolved system to skip a second registry resolution.
        """

        if self.kv_budget is None:
            return KVCacheConfig()
        if self.kv_budget == "system":
            if system is None:
                system = self.resolve().system
            budget = system.kv_budget_tokens
        elif isinstance(self.kv_budget, int):
            budget = self.kv_budget
        else:
            raise ConfigError(
                f'kv_budget must be a token count, "system" or None, '
                f"got {self.kv_budget!r}"
            )
        return KVCacheConfig(
            budget_tokens=budget,
            block_tokens=self.kv_block,
            preemption=self.preemption,
            swap_ms=self.kv_swap_ms,
        )

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else f"{self.policy}@{self.arrival}"

    def describe(self) -> str:
        return (
            f"serve {self.workload} {self.arrival}@{self.rate:g} {self.scheduler} "
            f"n={self.num_requests} b<={self.max_batch} seed={self.seed}"
        )

    def to_point(self) -> ScenarioPoint:
        """This scenario as a sweep job labelled ``"<display label>@<rate>"``."""

        return ScenarioPoint(f"{self.display_label}@{self.rate:g}", self)

    # -- identity ----------------------------------------------------------------------
    def config_dict(self) -> dict:
        """The outcome-determining configuration as JSON-able data.

        Display labels are excluded, mirroring :meth:`SweepPoint.key`: two
        serving points that differ only in labelling share one simulation.
        """

        data = self.to_dict()
        data.pop("label")
        return data

    def key(self) -> str:
        """Content hash identifying this serving simulation (store/dedup key)."""

        canonical = json.dumps(self.config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- (de)serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "arrival": self.arrival,
            "rate": self.rate,
            "num_requests": self.num_requests,
            "max_batch": self.max_batch,
            "seed": self.seed,
            "policy": self.policy,
            "scheduler": self.scheduler,
            "prefill_chunk": self.prefill_chunk,
            "prefill_cost": self.prefill_cost,
            "system": self.system,
            "tier": self.tier.name,
            "prompt_tokens": list(self.prompt_tokens),
            "output_tokens": list(self.output_tokens),
            "arrival_params": [[k, v] for k, v in self.arrival_params],
            "slo_ttft_ms": self.slo_ttft_ms,
            "slo_latency_ms": self.slo_latency_ms,
            "max_cycles": self.max_cycles,
            "label": self.label,
        } | ({} if self.telemetry_ms is None else {"telemetry_ms": self.telemetry_ms}) | (
            {}
            if self.kv_budget is None
            else {
                "kv_budget": self.kv_budget,
                "kv_block": self.kv_block,
                "preemption": self.preemption,
                "kv_swap_ms": self.kv_swap_ms,
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ServeScenario":
        defaults = {f.name: f.default for f in fields(cls)}
        return cls(
            workload=data["workload"],
            arrival=data.get("arrival", "poisson"),
            rate=data.get("rate", defaults["rate"]),
            num_requests=data.get("num_requests", defaults["num_requests"]),
            max_batch=data.get("max_batch", defaults["max_batch"]),
            seed=data.get("seed", 0),
            policy=data.get("policy", "unopt"),
            scheduler=data.get("scheduler", DEFAULT_SCHEDULER),
            prefill_chunk=data.get("prefill_chunk", DEFAULT_PREFILL_CHUNK),
            prefill_cost=data.get("prefill_cost", True),
            system=data.get("system", DEFAULT_SERVE_SYSTEM),
            tier=parse_tier(data.get("tier", ScaleTier.CI.name)),
            prompt_tokens=tuple(data.get("prompt_tokens", DEFAULT_PROMPT_TOKENS)),
            output_tokens=tuple(data.get("output_tokens", DEFAULT_OUTPUT_TOKENS)),
            arrival_params=tuple(
                (k, v) for k, v in data.get("arrival_params", ())
            ),
            slo_ttft_ms=data.get("slo_ttft_ms"),
            slo_latency_ms=data.get("slo_latency_ms"),
            max_cycles=data.get("max_cycles"),
            telemetry_ms=data.get("telemetry_ms"),
            kv_budget=data.get("kv_budget"),
            kv_block=data.get("kv_block", 1),
            preemption=data.get("preemption", "recompute"),
            kv_swap_ms=data.get("kv_swap_ms", DEFAULT_SWAP_MS),
            label=data.get("label"),
        )

    # -- execution ---------------------------------------------------------------------
    def build_simulator(self) -> ServingSimulator:
        """Assemble the arrival process, cost model and scheduler for this point."""

        resolved = self.resolve()
        sampler = RequestSampler(
            seed=self.seed,
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
        )
        arrival = resolve_arrival(self.arrival)(
            sampler, self.rate, self.num_requests, **dict(self.arrival_params)
        )
        cost_model = SimStepCostModel(
            system=resolved.system,
            workload=resolved.workload,
            policy=resolved.policy,
            tier=self.tier,
            max_cycles=self.max_cycles,
            seq_bucket_floor=SEQ_BUCKET_FLOOR,
        )
        return ServingSimulator(
            arrival=arrival,
            cost_model=cost_model,
            frequency_ghz=resolved.system.frequency_ghz,
            batch=BatchConfig(
                max_batch=self.max_batch,
                prefill=self.prefill_cost,
                kv=self.kv_config(resolved.system),
            ),
            policy=resolve_scheduler(self.scheduler)(prefill_chunk=self.prefill_chunk),
            slo=self.slo(),
            label=self.display_label,
            workload_name=self.workload,
            telemetry_ms=self.telemetry_ms,
        )

    def run(self, tracer=None, profiler=None, probe=None) -> ServeMetrics:
        """Simulate this serving point and return its metrics.

        Long-lived processes run many scenarios back to back, so each run ends
        by clearing the module-level trace cache: a serving run generates up to
        ``max_batch x seq-buckets`` distinct step traces (large at high batch),
        which would otherwise linger into -- and LRU-evict the traces of --
        whatever runs next.  Within the run itself, traces are still shared
        through :func:`~repro.sim.runner.cached_trace` and the memoized step
        table.

        ``tracer`` receives the run's event timeline (None keeps the
        zero-overhead null tracer); ``profiler`` (a
        :class:`~repro.obs.profile.Profiler`) accumulates the run's wall-clock
        profile; ``probe`` (a :class:`~repro.analysis.runtime.StepProbe`)
        collects per-step determinism digests -- all side channels that never
        influence the metrics.
        """

        simulator = self.build_simulator()
        try:
            metrics = simulator.run(tracer=tracer, probe=probe)
        finally:
            clear_trace_cache()
        if profiler is not None:
            step_cost = simulator.profile.get("step_cost", {})
            if step_cost:
                profiler.add(
                    "serve.step_cost_build",
                    step_cost.get("build_wall_s", 0.0),
                    calls=step_cost.get("misses", 0),
                )
                profiler.count("serve.step_cost_hit", step_cost.get("hits", 0))
        return metrics


def run_serve_scenario(scenario: ServeScenario) -> ServeMetrics:
    """Module-level convenience: resolve and simulate one serving scenario."""

    return scenario.run()
