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

import re
from dataclasses import dataclass, field
from typing import ClassVar

from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.common.errors import ConfigError
from repro.config.scale import scale_system
from repro.config.system import SystemConfig
from repro.registry import resolve_router, resolve_scheduler, resolve_system
from repro.serve.knobs import NON_NEGATIVE, PAIRS, POSITIVE, TUPLE, Codec, knob
from repro.serve.kvcache import KVCacheConfig
from repro.serve.scenario import DEFAULT_SERVE_SYSTEM, ServingScenario
from repro.serve.schedpolicy import PrefillOnlyPolicy
from repro.serve.scheduler import BatchConfig
from repro.serve.stepcost import SimStepCostModel

#: The router a ClusterScenario uses when none is given.
DEFAULT_ROUTER = "round-robin"

#: Defaults of the cluster sweep's fleet-size axis.
CLUSTER_SWEEP_REPLICAS = (2, 4)

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


#: A fleet split is written in canonical ``"<P>p<D>d"`` spelling:
#: :func:`parse_disaggregated` accepts case/whitespace variants (``" 2P2D "``),
#: and equivalent scenarios must share one result-store key.
SPLIT = Codec(
    lambda spec: None if spec is None else "{}p{}d".format(*parse_disaggregated(spec)),
    lambda spec: spec,
)


@dataclass(frozen=True, slots=True)
class ClusterScenario(ServingScenario):
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

    kind: ClassVar[str] = "cluster"

    replicas: int = field(default=2, metadata=knob(
        help="fleet size (accelerator replicas)", bound=POSITIVE, flags=("--replicas",), axis=3,
        axis_values=CLUSTER_SWEEP_REPLICAS,
    ))
    router: str = field(default=DEFAULT_ROUTER, metadata=knob(
        help='registered router, e.g. "round-robin", "least-outstanding", '
             '"join-shortest-queue", "weighted"',
        flags=("--router",), axis=4,
    ))
    #: "<P>p<D>d" prefill/decode split, or None for a colocated fleet.
    disaggregated: str | None = field(default=None, metadata=knob(
        help='split the fleet into prefill and decode replicas, e.g. "2p2d" '
             "(replica count follows the spec; bare flag means 1p1d)",
        codec=SPLIT, flags=("--disaggregated",), const="1p1d",
    ))
    kv_transfer_ms: float = field(default=0.0, metadata=knob(
        help="KV-cache transfer latency of one prefill-to-decode handoff (ms)", bound=NON_NEGATIVE,
        flags=("--kv-transfer-ms",),
    ))
    systems: tuple[str, ...] = field(default=(DEFAULT_SERVE_SYSTEM,), metadata=knob(
        help="repeatable system preset; one name is broadcast to every replica, "
             "N names give a heterogeneous fleet (default: table5)",
        codec=TUPLE, flags=("--system",),
    ))
    #: Extra keyword parameters for the router builder (e.g. ``weights``).
    router_params: tuple[tuple[str, object], ...] = field(default=(), metadata=knob(codec=PAIRS))

    def cross_check(self) -> None:
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
        if not self.systems:
            raise ConfigError("ClusterScenario.systems must be non-empty")
        if len(self.systems) not in (1, self.replicas):
            raise ConfigError(
                f"systems must name 1 preset (homogeneous fleet) or exactly "
                f"{self.replicas} (one per replica), got {len(self.systems)}"
            )
        resolve_router(self.router)

    def replica_systems(self) -> tuple[str, ...]:
        """The fleet's system preset names, one entry per replica."""

        if len(self.systems) == 1:
            return self.systems * self.replicas
        return self.systems

    def scaled_systems(self) -> tuple[SystemConfig, ...]:
        return tuple(
            scale_system(resolve_system(name), self.tier)
            for name in dict.fromkeys(self.replica_systems())
        )

    def replica_roles(self) -> tuple[str, ...]:
        """Role tags, one per replica: mixed, or the P prefill then D decode."""

        if self.disaggregated is None:
            return ("mixed",) * self.replicas
        prefill, decode = parse_disaggregated(self.disaggregated)
        return ("prefill",) * prefill + ("decode",) * decode

    def fleet(self) -> str | int:
        """The fleet shape: the canonical ``"<P>p<D>d"`` split, else the size."""

        split = SPLIT.encode(self.disaggregated)
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

    # -- execution ---------------------------------------------------------------------
    def build_simulator(self) -> ClusterSimulator:
        """Assemble the arrival stream, router and replica fleet for this point."""

        self.validate()
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
        presets = dict.fromkeys(self.replica_systems())
        for name, system in zip(presets, self.scaled_systems(), strict=True):
            frequencies[name] = system.frequency_ghz
            kv_configs[name] = self.kv_config(system)
            cost_models[name] = self.step_cost_model(system)
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
            arrival=self.arrival_stream(),
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
