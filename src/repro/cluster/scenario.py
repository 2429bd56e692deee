"""ClusterScenario: one multi-replica serving point, named by registry strings.

The cluster counterpart of :class:`~repro.serve.scenario.ServeScenario`: a
frozen, content-hashed description of a fleet run -- workload / policy /
arrival / router / scheduler names, the per-replica system presets (the
heterogeneous-fleet axis), the ``"<P>p<D>d"`` prefill/decode disaggregation
split with its KV-transfer latency, and the traffic knobs.  Everything
resolves through :mod:`repro.registry`, so a router, scheduler or system
preset registered anywhere is immediately servable from the Python API,
``llamcat cluster`` and cluster sweep grids.

Replicas that share a system preset also share one memoized
:class:`~repro.serve.stepcost.SimStepCostModel`: a 16-replica homogeneous
fleet simulates each distinct ``(batch, seq-bucket)`` shape once, not 16
times.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields
from typing import ClassVar

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier, parse_tier, scale_system
from repro.registry import (
    resolve_arrival,
    resolve_policy,
    resolve_router,
    resolve_scheduler,
    resolve_system,
    resolve_workload,
)
from repro.serve.kvcache import DEFAULT_SWAP_MS, KVCacheConfig
from repro.serve.metrics import ServeSLO
from repro.serve.request import (
    DEFAULT_OUTPUT_TOKENS,
    DEFAULT_PROMPT_TOKENS,
    RequestSampler,
)
from repro.serve.scenario import DEFAULT_SCHEDULER, DEFAULT_SERVE_SYSTEM
from repro.serve.schedpolicy import DEFAULT_PREFILL_CHUNK, PrefillOnlyPolicy
from repro.serve.scheduler import SEQ_BUCKET_FLOOR, BatchConfig
from repro.serve.stepcost import SimStepCostModel
from repro.sim.runner import clear_trace_cache
from repro.sweep.spec import ScenarioPoint

#: The router a ClusterScenario uses when none is given.
DEFAULT_ROUTER = "round-robin"

_DISAGG_RE = re.compile(r"^(\d+)p(\d+)d$")


def parse_disaggregated(spec: str) -> tuple[int, int]:
    """Parse a ``"<P>p<D>d"`` fleet split into (prefill, decode) counts.

    ``"2p2d"`` is two prefill replicas feeding two decode replicas; both
    counts must be at least one.
    """

    match = _DISAGG_RE.match(spec.strip().lower())
    if match is None:
        raise ConfigError(
            f"disaggregated spec must look like '2p2d' "
            f"(<prefill>p<decode>d), got {spec!r}"
        )
    prefill, decode = int(match.group(1)), int(match.group(2))
    if prefill < 1 or decode < 1:
        raise ConfigError(
            f"a disaggregated fleet needs at least one prefill and one decode "
            f"replica, got {spec!r}"
        )
    return prefill, decode


@dataclass(frozen=True, slots=True)
class ClusterScenario:
    """One fleet-level serving simulation point.

    ``systems`` is the heterogeneous-fleet axis: a single preset name is
    replicated across all ``replicas``; a tuple of exactly ``replicas`` names
    gives each replica its own (tier-scaled) accelerator.

    ``disaggregated`` switches the fleet from colocated prefill+decode
    replicas to a ``"<P>p<D>d"`` split: the first P replicas only prefill
    (fed by ``router``), the remaining D only decode (fed by prefill-complete
    handoffs, each delayed by the ``kv_transfer_ms`` KV-cache transfer and
    dispatched by a second instance of the same router discipline).
    ``replicas`` must equal P + D.
    """

    #: Store kind tag of this scenario's points and results.
    kind: ClassVar[str] = "cluster"

    workload: str
    arrival: str = "poisson"
    #: Requests/s for open-loop processes; user population for closed-loop.
    rate: float = 2000.0
    num_requests: int = 32
    replicas: int = 2
    router: str = DEFAULT_ROUTER
    #: Per-replica maximum batch (each replica batches independently).
    max_batch: int = 4
    seed: int = 0
    policy: str = "unopt"
    #: Step-planning policy on mixed/decode replicas (SCHEDULERS registry name).
    scheduler: str = DEFAULT_SCHEDULER
    #: Token budget of one chunked-prefill iteration (chunked scheduler only).
    prefill_chunk: int = DEFAULT_PREFILL_CHUNK
    #: Model the prefill phase; off, prompts are free and the run reproduces
    #: the legacy decode-only fleet bit-for-bit (colocated fleets only).
    prefill_cost: bool = True
    #: "<P>p<D>d" prefill/decode split, or None for a colocated fleet.
    disaggregated: str | None = None
    #: KV-cache transfer latency of one prefill-to-decode handoff.
    kv_transfer_ms: float = 0.0
    #: One system preset per replica; a single name is broadcast to the fleet.
    systems: tuple[str, ...] = (DEFAULT_SERVE_SYSTEM,)
    tier: ScaleTier = ScaleTier.CI
    prompt_tokens: tuple[int, int] = DEFAULT_PROMPT_TOKENS
    output_tokens: tuple[int, int] = DEFAULT_OUTPUT_TOKENS
    #: Extra keyword parameters for the arrival builder, as sorted pairs.
    arrival_params: tuple[tuple[str, object], ...] = ()
    #: Extra keyword parameters for the router builder (e.g. ``weights``).
    router_params: tuple[tuple[str, object], ...] = ()
    slo_ttft_ms: float | None = None
    slo_latency_ms: float | None = None
    max_cycles: int | None = None
    #: Telemetry sampling cadence in simulated milliseconds; None disables
    #: sampling.  Serialized only when set, so pre-telemetry scenario hashes
    #: (and store resume) stay valid.
    telemetry_ms: float | None = None
    #: Per-replica KV-cache budget in tokens, ``"system"`` for each replica's
    #: preset :attr:`~repro.config.system.SystemConfig.kv_budget_tokens`, or
    #: None to keep KV accounting off fleet-wide.  The KV knobs are serialized
    #: only when a budget is set, so pre-KV scenario hashes stay valid.
    kv_budget: int | str | None = None
    #: Paged-KV block size in tokens (1 = exact token-granular accounting).
    kv_block: int = 1
    #: PREEMPTIONS registry name: what eviction under KV pressure costs.
    preemption: str = "recompute"
    #: One-way KV swap transfer latency in milliseconds (swap policy only).
    kv_swap_ms: float = DEFAULT_SWAP_MS
    #: Display label (defaults to "<router>x<replicas>@<arrival>"); never hashed.
    label: str | None = None

    # -- validation / resolution -------------------------------------------------------
    def validate(self) -> "ClusterScenario":
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {self.num_requests}")
        if self.replicas <= 0:
            raise ConfigError(f"replicas must be positive, got {self.replicas}")
        if self.max_batch <= 0:
            raise ConfigError(f"max_batch must be positive, got {self.max_batch}")
        if self.prefill_chunk <= 0:
            raise ConfigError(f"prefill_chunk must be positive, got {self.prefill_chunk}")
        if self.kv_transfer_ms < 0:
            raise ConfigError(
                f"kv_transfer_ms must be >= 0, got {self.kv_transfer_ms}"
            )
        if self.telemetry_ms is not None and self.telemetry_ms <= 0:
            raise ConfigError(f"telemetry_ms must be positive, got {self.telemetry_ms}")
        if self.disaggregated is not None:
            prefill, decode = parse_disaggregated(self.disaggregated)
            if prefill + decode != self.replicas:
                raise ConfigError(
                    f"disaggregated spec {self.disaggregated!r} names "
                    f"{prefill + decode} replicas but the fleet has {self.replicas}"
                )
            if not self.prefill_cost:
                raise ConfigError(
                    "a disaggregated fleet needs prefill_cost=True (free "
                    "prefill leaves the prefill replicas nothing to do)"
                )
        if not isinstance(self.tier, ScaleTier):
            raise ConfigError(f"tier must be a ScaleTier, got {self.tier!r}")
        if not self.systems:
            raise ConfigError("ClusterScenario.systems must be non-empty")
        if len(self.systems) not in (1, self.replicas):
            raise ConfigError(
                f"systems must name 1 preset (homogeneous fleet) or exactly "
                f"{self.replicas} (one per replica), got {len(self.systems)}"
            )
        self.slo().validate()
        resolve_arrival(self.arrival)   # raises ConfigError on unknown names
        resolve_router(self.router)
        resolve_scheduler(self.scheduler)
        resolve_workload(self.workload)
        resolve_policy(self.policy)
        for system in self.systems:
            resolve_system(system)
        # The KV knobs must be valid even with accounting off, so a sweep
        # axis never carries a bad block size or preemption name silently.
        KVCacheConfig(
            block_tokens=self.kv_block, preemption=self.preemption, swap_ms=self.kv_swap_ms
        ).validate()
        if self.kv_budget is not None:
            if not self.prefill_cost:
                raise ConfigError(
                    "kv_budget needs prefill_cost=True: recompute preemption "
                    "re-prefills evicted context"
                )
            for name in dict.fromkeys(self.replica_systems()):
                self.kv_config(scale_system(resolve_system(name), self.tier)).validate()
        return self

    def replica_systems(self) -> tuple[str, ...]:
        """The fleet's system preset names, one entry per replica."""

        if len(self.systems) == 1:
            return self.systems * self.replicas
        return self.systems

    def replica_roles(self) -> tuple[str, ...]:
        """Role tags, one per replica: mixed, or the P prefill then D decode."""

        if self.disaggregated is None:
            return ("mixed",) * self.replicas
        prefill, decode = parse_disaggregated(self.disaggregated)
        return ("prefill",) * prefill + ("decode",) * decode

    def canonical_disaggregated(self) -> str | None:
        """The fleet split in canonical ``"<P>p<D>d"`` spelling (None when
        colocated).

        :func:`parse_disaggregated` accepts case/whitespace variants
        (``" 2P2D "``), so hashes and labels must go through this
        normalization -- otherwise equivalent scenarios would occupy distinct
        result-store keys and re-simulate on resume.
        """

        if self.disaggregated is None:
            return None
        prefill, decode = parse_disaggregated(self.disaggregated)
        return f"{prefill}p{decode}d"

    def slo(self) -> ServeSLO:
        return ServeSLO(ttft_ms=self.slo_ttft_ms, latency_ms=self.slo_latency_ms)

    def kv_config(self, system) -> KVCacheConfig:
        """The KV memory model of one replica (accounting off when no budget).

        ``kv_budget="system"`` resolves against the replica's own tier-scaled
        :class:`~repro.config.system.SystemConfig`, so a heterogeneous fleet
        gives each replica its preset's budget.
        """

        if self.kv_budget is None:
            return KVCacheConfig()
        if self.kv_budget == "system":
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

    def fleet(self) -> str | int:
        """The fleet shape: the canonical ``"<P>p<D>d"`` split, else the size."""

        split = self.canonical_disaggregated()
        return self.replicas if split is None else split

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        return f"{self.router}x{self.fleet()}@{self.arrival}"

    def describe(self) -> str:
        return (
            f"cluster {self.workload} x{self.fleet()} {self.router} {self.scheduler} "
            f"{self.arrival}@{self.rate:g} n={self.num_requests} "
            f"b<={self.max_batch} seed={self.seed}"
        )

    def to_point(self) -> ScenarioPoint:
        """This scenario as a sweep job labelled ``"<display label>@<rate>"``."""

        return ScenarioPoint(f"{self.display_label}@{self.rate:g}", self)

    # -- identity ----------------------------------------------------------------------
    def config_dict(self) -> dict:
        """The outcome-determining configuration as JSON-able data.

        Display labels are excluded, mirroring :meth:`ServeScenario.config_dict`:
        two cluster points that differ only in labelling share one simulation.
        """

        data = self.to_dict()
        data.pop("label")
        return data

    def key(self) -> str:
        """Content hash identifying this cluster simulation (store/dedup key)."""

        canonical = json.dumps(self.config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- (de)serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "arrival": self.arrival,
            "rate": self.rate,
            "num_requests": self.num_requests,
            "replicas": self.replicas,
            "router": self.router,
            "max_batch": self.max_batch,
            "seed": self.seed,
            "policy": self.policy,
            "scheduler": self.scheduler,
            "prefill_chunk": self.prefill_chunk,
            "prefill_cost": self.prefill_cost,
            "disaggregated": self.canonical_disaggregated(),
            "kv_transfer_ms": self.kv_transfer_ms,
            "systems": list(self.systems),
            "tier": self.tier.name,
            "prompt_tokens": list(self.prompt_tokens),
            "output_tokens": list(self.output_tokens),
            "arrival_params": [[k, v] for k, v in self.arrival_params],
            "router_params": [[k, v] for k, v in self.router_params],
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
    def from_dict(cls, data: dict) -> "ClusterScenario":
        defaults = {f.name: f.default for f in fields(cls)}
        return cls(
            workload=data["workload"],
            arrival=data.get("arrival", "poisson"),
            rate=data.get("rate", defaults["rate"]),
            num_requests=data.get("num_requests", defaults["num_requests"]),
            replicas=data.get("replicas", defaults["replicas"]),
            router=data.get("router", DEFAULT_ROUTER),
            max_batch=data.get("max_batch", defaults["max_batch"]),
            seed=data.get("seed", 0),
            policy=data.get("policy", "unopt"),
            scheduler=data.get("scheduler", DEFAULT_SCHEDULER),
            prefill_chunk=data.get("prefill_chunk", DEFAULT_PREFILL_CHUNK),
            prefill_cost=data.get("prefill_cost", True),
            disaggregated=data.get("disaggregated"),
            kv_transfer_ms=data.get("kv_transfer_ms", 0.0),
            systems=tuple(data.get("systems", (DEFAULT_SERVE_SYSTEM,))),
            tier=parse_tier(data.get("tier", ScaleTier.CI.name)),
            prompt_tokens=tuple(data.get("prompt_tokens", DEFAULT_PROMPT_TOKENS)),
            output_tokens=tuple(data.get("output_tokens", DEFAULT_OUTPUT_TOKENS)),
            arrival_params=tuple((k, v) for k, v in data.get("arrival_params", ())),
            router_params=tuple((k, v) for k, v in data.get("router_params", ())),
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
    def build_simulator(self) -> ClusterSimulator:
        """Assemble the arrival stream, router and replica fleet for this point."""

        self.validate()
        workload = resolve_workload(self.workload)
        policy = resolve_policy(self.policy)
        sampler = RequestSampler(
            seed=self.seed,
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
        )
        arrival = resolve_arrival(self.arrival)(
            sampler, self.rate, self.num_requests, **dict(self.arrival_params)
        )
        roles = self.replica_roles()
        router_builder = resolve_router(self.router)
        router_params = dict(self.router_params)
        # Arrivals are spread over the arrival-eligible replicas: the whole
        # fleet when colocated, the prefill replicas when disaggregated (the
        # decode side then gets its own instance of the same discipline).
        entry_count = roles.count("prefill") if self.disaggregated else self.replicas
        router = router_builder(entry_count, **router_params)
        decode_router = (
            router_builder(roles.count("decode"), **router_params)
            if self.disaggregated
            else None
        )
        scheduler_builder = resolve_scheduler(self.scheduler)
        # One cost model (and thus one memo table) per distinct system preset:
        # homogeneous fleets simulate each step shape exactly once.
        cost_models: dict[str, SimStepCostModel] = {}
        frequencies: dict[str, float] = {}
        kv_configs: dict[str, KVCacheConfig] = {}
        for name in dict.fromkeys(self.replica_systems()):
            system = scale_system(resolve_system(name), self.tier)
            frequencies[name] = system.frequency_ghz
            kv_configs[name] = self.kv_config(system)
            cost_models[name] = SimStepCostModel(
                system=system,
                workload=workload,
                policy=policy,
                tier=self.tier,
                max_cycles=self.max_cycles,
                seq_bucket_floor=SEQ_BUCKET_FLOOR,
            )
        fleet = [
            ReplicaSim(
                replica_id=i,
                cost_model=cost_models[name],
                frequency_ghz=frequencies[name],
                batch=BatchConfig(
                    max_batch=self.max_batch,
                    prefill=self.prefill_cost,
                    kv=kv_configs[name],
                ),
                system_name=name,
                role=role,
                policy=(
                    PrefillOnlyPolicy()
                    if role == "prefill"
                    else scheduler_builder(prefill_chunk=self.prefill_chunk)
                ),
            )
            for i, (name, role) in enumerate(zip(self.replica_systems(), roles, strict=True))
        ]
        return ClusterSimulator(
            arrival=arrival,
            router=router,
            replicas=fleet,
            slo=self.slo(),
            label=self.display_label,
            workload_name=self.workload,
            router_name=self.router,
            kv_transfer_s=self.kv_transfer_ms / 1e3,
            decode_router=decode_router,
            telemetry_ms=self.telemetry_ms,
        )

    def run(self, tracer=None, profiler=None, probe=None) -> ClusterMetrics:
        """Simulate this cluster point and return its fleet metrics.

        Like :meth:`ServeScenario.run`, the module-level trace cache is
        cleared afterwards: a fleet visits up to ``max_batch x seq-buckets``
        distinct step shapes per distinct system preset, which would otherwise
        linger into whatever a long-lived process runs next.

        ``tracer`` receives the fleet's event timeline (None keeps the
        zero-overhead null tracer); ``profiler`` (a
        :class:`~repro.obs.profile.Profiler`) accumulates the fleet's
        wall-clock profile; ``probe`` (a
        :class:`~repro.analysis.runtime.StepProbe`) collects per-step
        determinism digests -- all side channels that never influence the
        metrics.
        """

        simulator = self.build_simulator()
        try:
            metrics = simulator.run(tracer=tracer, probe=probe)
        finally:
            clear_trace_cache()
        if profiler is not None:
            for step_cost in simulator.profile.get("step_cost", ()):
                profiler.add(
                    "cluster.step_cost_build",
                    step_cost.get("build_wall_s", 0.0),
                    calls=step_cost.get("misses", 0),
                )
                profiler.count("cluster.step_cost_hit", step_cost.get("hits", 0))
        return metrics


def run_cluster_scenario(scenario: ClusterScenario) -> ClusterMetrics:
    """Module-level convenience: resolve and simulate one cluster scenario."""

    return scenario.run()
