"""ServeScenario: one serving simulation point, named by registry strings.

The serving counterpart of :class:`repro.api.Scenario`: a frozen, serializable
description of a serving run -- workload / system / policy / arrival-process /
scheduler names plus the traffic knobs (rate, request count, batch bound,
prefill chunk budget, seed, SLOs).  Everything resolves through
:mod:`repro.registry`, so a workload, arrival process or scheduler policy
registered anywhere is immediately servable from the Python API, the
``llamcat serve`` subcommand and serve sweep grids.

:class:`ServingScenario` holds the knobs serve and cluster scenarios share.
Each knob is declared once (:func:`repro.serve.knobs.knob`); serialization,
range checks, CLI flags and sweep axes derive from the declarations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Self, Sequence

from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier, scale_system
from repro.config.system import SystemConfig
from repro.obs.observer import Observer
from repro.registry import (
    resolve_arrival,
    resolve_policy,
    resolve_scheduler,
    resolve_system,
    resolve_workload,
)
from repro.serve.knobs import (
    NON_NEGATIVE,
    PAIRS,
    POSITIVE,
    TIER,
    TUPLE,
    check_ranges,
    decode,
    encode,
    knob,
)
from repro.serve.kvcache import DEFAULT_SWAP_MS, KVCacheConfig
from repro.serve.metrics import ServeSLO
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

#: The workload the command line serves when none is given.
DEFAULT_WORKLOAD = "llama3-70b"

#: Defaults of the serving sweep's traffic axis (requests/s).
SERVE_SWEEP_RATES = (1000.0, 2000.0, 4000.0)


def parse_kv_budget(text: str) -> int | str:
    """Parse a ``--kv-budget`` value: a token count or the literal "system"."""

    if text == "system":
        return text
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected a token count or "system", got {text!r}'
        ) from None
    if budget <= 0:
        raise argparse.ArgumentTypeError("KV budget must be a positive token count")
    return budget


@dataclass(frozen=True, slots=True)
class ServingScenario:
    """The knobs, identity and run loop shared by serve and cluster scenarios.

    Subclasses add their own fields (:class:`ServeScenario` the system,
    ``ClusterScenario`` the fleet) and implement ``scaled_systems``,
    ``display_label``, ``describe`` and ``build_simulator``.  ``validate``
    runs their ``cross_check`` after the declared range checks.
    """

    #: Store kind tag of this scenario's points and results.
    kind: ClassVar[str]

    workload: str = field(metadata=knob(
        help="registered workload name (e.g. llama3-70b-decode)", flags=("--workload", "--model"),
        flag_default=DEFAULT_WORKLOAD, axis=0,
    ))
    arrival: str = field(default="poisson", metadata=knob(
        help='registered arrival process, e.g. "poisson", "bursty", "closed-loop"',
        flags=("--arrival",), axis=1,
    ))
    rate: float = field(default=2000.0, metadata=knob(
        help="requests/s (open-loop) or user population (closed-loop)", bound=POSITIVE,
        flags=("--rate",), axis=2, axis_values=SERVE_SWEEP_RATES,
    ))
    num_requests: int = field(default=32, metadata=knob(
        help="requests per point", bound=POSITIVE, flags=("--num-requests",), sweep=True,
    ))
    max_batch: int = field(default=4, metadata=knob(
        help="continuous-batching bound (per replica in a fleet)", bound=POSITIVE,
        flags=("--max-batch",), sweep=True,
    ))
    seed: int = field(default=0, metadata=knob(
        help="arrival-stream seed", flags=("--seed",), sweep=True,
    ))
    policy: str = field(default="unopt", metadata=knob(
        help='cache policy label, e.g. "unopt", "dynmg+BMA"', flags=("--policy",), axis=7,
    ))
    #: SCHEDULERS registry name; in a fleet, the mixed/decode replicas' policy.
    scheduler: str = field(default=DEFAULT_SCHEDULER, metadata=knob(
        help='registered step-planning policy, e.g. "decode-first", "prefill-first", "chunked"',
        flags=("--scheduler",), axis=5,
    ))
    prefill_chunk: int = field(default=DEFAULT_PREFILL_CHUNK, metadata=knob(
        help="token budget of one chunked-prefill iteration (chunked scheduler only)",
        bound=POSITIVE, flags=("--prefill-chunk",), axis=6,
    ))
    #: Model the prefill phase; off, prompts are free and the run reproduces
    #: the legacy decode-only scheduler bit-for-bit.
    prefill_cost: bool = field(default=True, metadata=knob(
        help="treat prompts as free (the legacy decode-only timeline)",
        flags=("--no-prefill-cost",),
    ))
    tier: ScaleTier = field(default=ScaleTier.CI, metadata=knob(
        help="scale tier, e.g. smoke, ci, full", codec=TIER, flags=("--tier",), flag_default="ci",
        sweep=True,
    ))
    prompt_tokens: tuple[int, int] = field(default=DEFAULT_PROMPT_TOKENS, metadata=knob(
        codec=TUPLE,
    ))
    output_tokens: tuple[int, int] = field(default=DEFAULT_OUTPUT_TOKENS, metadata=knob(
        codec=TUPLE,
    ))
    #: Extra keyword parameters for the arrival builder, as sorted pairs
    #: (e.g. ``(("burst_size", 4),)`` for bursty traffic).
    arrival_params: tuple[tuple[str, object], ...] = field(default=(), metadata=knob(codec=PAIRS))
    slo_ttft_ms: float | None = field(default=None, metadata=knob(
        help="time-to-first-token objective (ms)", bound=POSITIVE, flags=("--slo-ttft-ms",),
        parse=float,
    ))
    slo_latency_ms: float | None = field(default=None, metadata=knob(
        help="end-to-end latency objective (ms)", bound=POSITIVE, flags=("--slo-latency-ms",),
        parse=float,
    ))
    max_cycles: int | None = field(default=None, metadata=knob(bound=POSITIVE, sweep=True))
    #: Telemetry sampling cadence; serialized only when set, so pre-telemetry
    #: scenario hashes (and store resume) stay valid.
    telemetry_ms: float | None = field(default=None, metadata=knob(
        help="telemetry sampling interval in simulated ms: queue depth, batch size and "
             "utilization (an ASCII timeline; sweeps store it for `llamcat timeline`)",
        bound=POSITIVE, omit_unless="telemetry_ms", flags=("--telemetry",), parse=float, sweep=True,
    ))
    #: KV budget in tokens (per replica in a fleet), ``"system"`` for the
    #: preset's :attr:`~repro.config.system.SystemConfig.kv_budget_tokens`, or
    #: None to keep KV accounting off (the legacy unbounded-memory default).
    #: The KV knobs are serialized only when a budget is set, so pre-KV
    #: scenario hashes (and store resume) stay valid.
    kv_budget: int | str | None = field(default=None, metadata=knob(
        help='KV-cache budget in tokens, or "system" for the preset\'s device budget; '
             "omit to keep KV accounting off",
        omit_unless="kv_budget", flags=("--kv-budget",), parse=parse_kv_budget, axis=8,
    ))
    kv_block: int = field(default=1, metadata=knob(
        help="paged-KV block size in tokens (1 = exact accounting)", omit_unless="kv_budget",
        flags=("--kv-block",), axis=9,
    ))
    preemption: str = field(default="recompute", metadata=knob(
        help='registered preemption policy for an exhausted KV budget, e.g. "recompute", "swap"',
        omit_unless="kv_budget", flags=("--preemption",), axis=10,
    ))
    kv_swap_ms: float = field(default=DEFAULT_SWAP_MS, metadata=knob(
        help="one-way KV transfer latency of the swap preemption policy (ms)", bound=NON_NEGATIVE,
        omit_unless="kv_budget", flags=("--kv-swap-ms",), sweep=True,
    ))
    #: Display label (defaults to a per-kind "<...>@<arrival>"); never hashed.
    label: str | None = field(default=None, metadata=knob())

    # -- validation --------------------------------------------------------------------
    def validate(self) -> Self:
        check_ranges(self)
        if not isinstance(self.tier, ScaleTier):
            raise ConfigError(f"tier must be a ScaleTier, got {self.tier!r}")
        self.cross_check()
        self.slo().validate()
        resolve_arrival(self.arrival)  # raises ConfigError on unknown names
        resolve_scheduler(self.scheduler)
        resolve_workload(self.workload)
        resolve_policy(self.policy)
        # The KV knobs must be valid even with accounting off, so a sweep
        # axis never carries a bad block size or preemption name silently.
        KVCacheConfig(
            block_tokens=self.kv_block, preemption=self.preemption, swap_ms=self.kv_swap_ms
        ).validate()
        systems = self.scaled_systems()
        if self.kv_budget is not None:
            if not self.prefill_cost:
                raise ConfigError(
                    "kv_budget needs prefill_cost=True: recompute preemption "
                    "re-prefills evicted context"
                )
            for system in systems:
                self.kv_config(system).validate()
        return self

    def cross_check(self) -> None:
        """Cross-field rules beyond the declared ranges (none by default)."""

    def scaled_systems(self) -> tuple[SystemConfig, ...]:
        """The distinct tier-scaled system presets this point runs on."""

        raise NotImplementedError

    def slo(self) -> ServeSLO:
        return ServeSLO(ttft_ms=self.slo_ttft_ms, latency_ms=self.slo_latency_ms)

    def kv_config(self, system: SystemConfig | None = None) -> KVCacheConfig:
        """The KV memory model of one accelerator (accounting off when no budget).

        ``kv_budget="system"`` resolves against ``system``'s (tier-scaled)
        :attr:`~repro.config.system.SystemConfig.kv_budget_tokens`, so a
        heterogeneous fleet gives each replica its preset's budget; without a
        ``system`` the point's first preset is resolved.
        """

        if self.kv_budget is None:
            return KVCacheConfig()
        if self.kv_budget == "system":
            budget = (system or self.scaled_systems()[0]).kv_budget_tokens
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
        raise NotImplementedError

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

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> Self:
        return decode(cls, data)

    # -- execution ---------------------------------------------------------------------
    def arrival_stream(self):
        """A fresh, seeded arrival process for this point's request stream."""

        sampler = RequestSampler(
            seed=self.seed, prompt_tokens=self.prompt_tokens, output_tokens=self.output_tokens
        )
        return resolve_arrival(self.arrival)(
            sampler, self.rate, self.num_requests, **dict(self.arrival_params)
        )

    def step_cost_model(self, system: SystemConfig) -> SimStepCostModel:
        """A fresh (cold) step-cost table for this point on one scaled system."""

        return SimStepCostModel(
            system=system,
            workload=resolve_workload(self.workload),
            policy=resolve_policy(self.policy),
            tier=self.tier,
            max_cycles=self.max_cycles,
            seq_bucket_floor=SEQ_BUCKET_FLOOR,
        )

    def build_simulator(self) -> Any:
        raise NotImplementedError

    def run(self, observers: Sequence[Observer] = ()) -> Any:
        """Simulate this point and return its metrics.

        The run ends by clearing the module-level trace cache: its up to
        ``max_batch x seq-buckets`` step traces per system preset would
        otherwise linger into (and LRU-evict the traces of) whatever a
        long-lived process runs next.  ``observers`` (see
        :class:`~repro.obs.observer.Observer`) see the run's events and never
        influence the metrics.
        """

        try:
            return self.build_simulator().run(observers)
        finally:
            clear_trace_cache()


@dataclass(frozen=True, slots=True)
class ServeScenario(ServingScenario):
    """One serving simulation point over a stream of decode requests."""

    kind: ClassVar[str] = "serve"

    system: str = field(default=DEFAULT_SERVE_SYSTEM, metadata=knob(
        help="registered system name", flags=("--system",),
    ))

    def scaled_systems(self) -> tuple[SystemConfig, ...]:
        return (scale_system(resolve_system(self.system), self.tier),)

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else f"{self.policy}@{self.arrival}"

    def describe(self) -> str:
        return (
            f"serve {self.workload} {self.arrival}@{self.rate:g} {self.scheduler} "
            f"n={self.num_requests} b<={self.max_batch} seed={self.seed}"
        )

    def build_simulator(self) -> ServingSimulator:
        """Assemble the arrival process, cost model and scheduler for this point."""

        (system,) = self.scaled_systems()
        return ServingSimulator(
            arrival=self.arrival_stream(),
            cost_model=self.step_cost_model(system),
            frequency_ghz=system.frequency_ghz,
            batch=BatchConfig(
                max_batch=self.max_batch,
                prefill=self.prefill_cost,
                kv=self.kv_config(system),
            ),
            policy=resolve_scheduler(self.scheduler)(prefill_chunk=self.prefill_chunk),
            slo=self.slo(),
            label=self.display_label,
            workload_name=self.workload,
            telemetry_ms=self.telemetry_ms,
        )
