"""The unified scenario API: the single entry point for naming and running
simulations.

A :class:`Scenario` names one simulation point entirely through registry
strings -- workload, system and policy names plus the scalar knobs (sequence
length, L2 capacity, scale tier, dispatch ordering, dataflow constraints).  It
is the common currency of the stack: the CLI, declarative sweep grids
(:mod:`repro.sweep.spec`) and the figure/table harnesses all resolve their
points through it, and its content key is exactly the
:meth:`~repro.sweep.spec.SweepPoint.key` hash, so results stored by any layer
are shared by all of them.

Quick start::

    from repro.api import Simulation

    result = (
        Simulation.builder()
        .system("table5")
        .workload("llama3-70b", seq_len=8192)
        .policy("dynmg+BMA")
        .tier("ci")
        .run()
    )
    print(result.summary())

Anything registered through :mod:`repro.registry` is immediately addressable
here, from ``llamcat`` and from sweep grids, with zero further edits.

The serving counterpart, :class:`~repro.serve.scenario.ServeScenario`, is
re-exported here: it names one request-stream serving run (workload, arrival
process, rate, SLOs) the same way a :class:`Scenario` names one kernel run.
So is the fleet counterpart, :class:`~repro.cluster.scenario.ClusterScenario`,
which adds the replica count, the router and the per-replica system presets
(heterogeneous fleets) on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from repro.cluster.scenario import ClusterScenario, run_cluster_scenario
from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig
from repro.config.scale import ScaleTier, parse_tier, scale_experiment
from repro.config.system import MIB, SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering, parse_ordering
from repro.registry import resolve_policy, resolve_system, resolve_workload
from repro.serve.scenario import ServeScenario, run_serve_scenario
from repro.sim.results import SimResult
from repro.sim.runner import PolicyComparison, compare_policies, run_policy
from repro.sweep.spec import SweepPoint, config_to_jsonable, resolved_point

#: The system name a Scenario uses when none is given.
DEFAULT_SYSTEM = "table5"




class ResolvedScenario(NamedTuple):
    """Concrete, tier-scaled configuration objects behind a Scenario."""

    system: SystemConfig
    workload: WorkloadConfig
    policy: PolicyConfig


@dataclass(frozen=True, slots=True)
class Scenario:
    """One simulation point, named by registry strings.

    ``workload``, ``system`` and ``policy`` are names resolved through
    :mod:`repro.registry`; everything else parameterises the resolved point.
    ``policy_config`` is the escape hatch for parameter sweeps (Tables 2-4
    vary throttling knobs that no label captures): when set, it is simulated
    verbatim and ``policy`` is just the display name.
    """

    workload: str
    policy: str = "unopt"
    system: str = DEFAULT_SYSTEM
    #: Requested (unscaled) sequence length; None keeps the builder's default.
    seq_len: int | None = None
    #: Total L2 capacity override in MiB; None keeps the system's capacity.
    l2_mib: int | None = None
    tier: ScaleTier = ScaleTier.CI
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED
    constraints: DataflowConstraints | None = None
    max_cycles: int | None = None
    #: Display label (defaults to the policy name); never part of the key.
    label: str | None = None
    policy_config: PolicyConfig | None = None

    @classmethod
    def create(
        cls, workload: str, policy: "str | PolicyConfig" = "unopt", **kwargs
    ) -> "Scenario":
        """Build a Scenario from a policy label *or* an explicit PolicyConfig.

        The single construction path used by sweep grids and the experiment
        harnesses: label strings resolve through the registry, explicit
        configs (parameter sweeps) ride along as ``policy_config``.
        """

        if isinstance(policy, PolicyConfig):
            return cls(workload=workload, policy=policy.label, policy_config=policy, **kwargs)
        return cls(workload=workload, policy=policy, **kwargs)

    # -- validation / resolution -------------------------------------------------------
    def validate(self) -> "Scenario":
        if self.seq_len is not None and self.seq_len <= 0:
            raise ConfigError(f"seq_len must be positive, got {self.seq_len}")
        if self.l2_mib is not None and self.l2_mib <= 0:
            raise ConfigError(f"l2_mib must be positive, got {self.l2_mib}")
        if not isinstance(self.tier, ScaleTier):
            raise ConfigError(f"tier must be a ScaleTier, got {self.tier!r}")
        if not isinstance(self.ordering, ThreadBlockOrdering):
            raise ConfigError(
                f"ordering must be a ThreadBlockOrdering, got {self.ordering!r} "
                f"(use repro.api.parse_ordering for names)"
            )
        self.resolve()  # raises ConfigError on unknown names
        return self

    def _resolve_unscaled(self) -> ResolvedScenario:
        """Registry resolution + overrides, before tier scaling."""

        system = resolve_system(self.system)
        if self.l2_mib is not None:
            system = system.with_l2_size(self.l2_mib * MIB)
        workload = resolve_workload(self.workload, self.seq_len)
        policy = (
            self.policy_config if self.policy_config is not None
            else resolve_policy(self.policy)
        )
        return ResolvedScenario(system=system, workload=workload, policy=policy)

    def resolve(self) -> ResolvedScenario:
        """Resolve names through the registries and apply overrides + scaling."""

        unscaled = self._resolve_unscaled()
        system, workload = scale_experiment(unscaled.system, unscaled.workload, self.tier)
        return ResolvedScenario(system=system, workload=workload, policy=unscaled.policy)

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.policy

    @property
    def requested_seq_len(self) -> int:
        """The unscaled sequence length (builder default when not overridden)."""

        if self.seq_len is not None:
            return self.seq_len
        return resolve_workload(self.workload).shape.seq_len

    # -- bridges to the sweep subsystem ------------------------------------------------
    def to_point(
        self,
        label: str | None = None,
        extra_coords: Iterable[tuple[str, object]] = (),
    ) -> SweepPoint:
        """Resolve into a fully scaled :class:`SweepPoint` job descriptor.

        The point's content hash is the scenario's identity: two scenarios
        that resolve to the same configuration share one key (and thus one
        simulation / one result-store record).
        """

        unscaled = self._resolve_unscaled()
        system, workload = scale_experiment(unscaled.system, unscaled.workload, self.tier)
        coords: dict[str, object] = {
            "model": self.workload,
            # The as-requested (unscaled) sequence length, matching user flags.
            "seq_len": unscaled.workload.shape.seq_len,
            "policy": self.policy,
            "l2_mib": self.l2_mib,
            "tier": self.tier.name,
        }
        if self.system != DEFAULT_SYSTEM:
            coords["system"] = self.system
        coords.update(dict(extra_coords))
        return resolved_point(
            system,
            workload,
            unscaled.policy,
            label if label is not None else self.display_label,
            coords,
            max_cycles=self.max_cycles,
            ordering=self.ordering,
            constraints=self.constraints,
        )

    def key(self) -> str:
        """Content hash shared with :meth:`SweepPoint.key` (store/dedup key)."""

        return self.to_point().key()

    # -- (de)serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "system": self.system,
            "seq_len": self.seq_len,
            "l2_mib": self.l2_mib,
            "tier": self.tier.name,
            "ordering": self.ordering.value,
            "constraints": config_to_jsonable(self.constraints),
            "max_cycles": self.max_cycles,
            "label": self.label,
            "policy_config": config_to_jsonable(self.policy_config),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        constraints = data.get("constraints")
        policy_config = data.get("policy_config")
        return cls(
            workload=data["workload"],
            policy=data.get("policy", "unopt"),
            system=data.get("system", DEFAULT_SYSTEM),
            seq_len=data.get("seq_len"),
            l2_mib=data.get("l2_mib"),
            tier=parse_tier(data.get("tier", ScaleTier.CI.name)),
            ordering=parse_ordering(
                data.get("ordering", ThreadBlockOrdering.GQA_SHARED.value)
            ),
            constraints=(
                DataflowConstraints(**constraints) if constraints is not None else None
            ),
            max_cycles=data.get("max_cycles"),
            label=data.get("label"),
            policy_config=(
                PolicyConfig.from_dict(policy_config) if policy_config is not None else None
            ),
        )

    # -- execution ---------------------------------------------------------------------
    def run(self) -> SimResult:
        """Simulate this scenario (reusing cached traces) and return the result."""

        resolved = self.resolve()
        return run_policy(
            resolved.system,
            resolved.workload,
            resolved.policy,
            label=self.display_label,
            max_cycles=self.max_cycles,
            ordering=self.ordering,
            constraints=self.constraints,
        )

    def describe(self) -> str:
        return self.to_point().describe()


class SimulationBuilder:
    """Fluent construction of a :class:`Scenario` / :class:`Simulation`."""

    def __init__(self) -> None:
        self._fields: dict[str, object] = {}

    def workload(self, name: str, seq_len: int | None = None) -> "SimulationBuilder":
        self._fields["workload"] = name
        if seq_len is not None:
            self._fields["seq_len"] = seq_len
        return self

    def seq_len(self, seq_len: int) -> "SimulationBuilder":
        self._fields["seq_len"] = seq_len
        return self

    def system(self, name: str) -> "SimulationBuilder":
        self._fields["system"] = name
        return self

    def policy(self, policy: str | PolicyConfig) -> "SimulationBuilder":
        if isinstance(policy, PolicyConfig):
            self._fields["policy"] = policy.label
            self._fields["policy_config"] = policy
        else:
            self._fields["policy"] = policy
            # A later label call overrides an earlier explicit config entirely.
            self._fields.pop("policy_config", None)
        return self

    def tier(self, tier: ScaleTier | str) -> "SimulationBuilder":
        self._fields["tier"] = parse_tier(tier)
        return self

    def l2_mib(self, l2_mib: int) -> "SimulationBuilder":
        self._fields["l2_mib"] = l2_mib
        return self

    def ordering(self, ordering: ThreadBlockOrdering | str) -> "SimulationBuilder":
        self._fields["ordering"] = parse_ordering(ordering)
        return self

    def constraints(self, constraints: DataflowConstraints) -> "SimulationBuilder":
        self._fields["constraints"] = constraints
        return self

    def max_cycles(self, max_cycles: int) -> "SimulationBuilder":
        self._fields["max_cycles"] = max_cycles
        return self

    def label(self, label: str) -> "SimulationBuilder":
        self._fields["label"] = label
        return self

    def build(self) -> Scenario:
        if "workload" not in self._fields:
            raise ConfigError("SimulationBuilder needs .workload(name) before .build()")
        return Scenario(**self._fields).validate()  # type: ignore[arg-type]

    def run(self) -> SimResult:
        return self.build().run()


class Simulation:
    """A runnable simulation bound to one :class:`Scenario`."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    @classmethod
    def builder(cls) -> SimulationBuilder:
        return SimulationBuilder()

    @classmethod
    def of(cls, workload: str, **kwargs) -> "Simulation":
        """Shorthand: ``Simulation.of("llama3-70b", policy="dynmg", tier=...)``."""

        if "tier" in kwargs:
            kwargs["tier"] = parse_tier(kwargs["tier"])
        if "ordering" in kwargs:
            kwargs["ordering"] = parse_ordering(kwargs["ordering"])
        return cls(Scenario(workload=workload, **kwargs).validate())

    def run(self) -> SimResult:
        return self.scenario.run()

    def compare(
        self, policies: Iterable[str], baseline: str = "unopt"
    ) -> PolicyComparison:
        """Run several policy labels on this scenario's workload and system.

        Every speedup is normalised against ``baseline`` (run additionally if
        it is not among ``policies``); ordering and constraints are honoured.
        """

        scenario = self.scenario
        resolved = scenario.resolve()
        labelled = {baseline: resolve_policy(baseline)}
        labelled.update({label: resolve_policy(label) for label in policies})
        return compare_policies(
            resolved.system,
            resolved.workload,
            labelled,
            baseline_label=baseline,
            max_cycles=scenario.max_cycles,
            ordering=scenario.ordering,
            constraints=scenario.constraints,
        )


def run_scenario(scenario: Scenario) -> SimResult:
    """Module-level convenience: resolve and simulate one scenario."""

    return scenario.run()


def scenario_matrix(
    workloads: Iterable[str],
    policies: Iterable[str],
    base: Scenario | None = None,
    **overrides,
) -> list[Scenario]:
    """Cartesian helper: one Scenario per (workload, policy) pair.

    ``base`` supplies the shared knobs (tier, seq_len, ...); ``overrides`` are
    applied on top.  Useful for ad-hoc grids without a full :class:`~repro.sweep.spec.Grid`.
    """

    template = base if base is not None else Scenario(workload="llama3-70b")
    if "tier" in overrides:
        overrides["tier"] = parse_tier(overrides["tier"])  # accept strings
    if "ordering" in overrides:
        overrides["ordering"] = parse_ordering(overrides["ordering"])
    # The cell's policy label must win outright: a policy_config or display
    # label inherited from `base` would silently override every cell's policy.
    cell_fields = {"policy_config": None, "label": None, **overrides}
    return [
        replace(template, workload=w, policy=p, **cell_fields)
        for w in workloads
        for p in policies
    ]


__all__ = [
    "ClusterScenario",
    "DEFAULT_SYSTEM",
    "ResolvedScenario",
    "Scenario",
    "ServeScenario",
    "Simulation",
    "SimulationBuilder",
    "parse_ordering",
    "run_cluster_scenario",
    "run_scenario",
    "run_serve_scenario",
    "scenario_matrix",
]
