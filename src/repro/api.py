"""The unified scenario API: the single entry point for naming and running
simulations.

A :class:`Scenario` names one simulation point entirely through registry
strings -- workload, system and policy names plus the scalar knobs (sequence
length, L2 capacity, scale tier, dispatch ordering, dataflow constraints).  It
is the common currency of the stack: the CLI, declarative sweep grids
(:mod:`repro.sweep.spec`) and the figure/table harnesses all resolve their
points through it, and its content key is exactly the
:meth:`~repro.sweep.spec.SweepPoint.key` hash, so results stored by any layer
are shared by all of them.  Each field is declared once
(:func:`repro.serve.knobs.knob`); serialization, range checks, the ``run`` /
``info`` / ``sweep`` flags and the kernel sweep's grid derive from the
declarations.

Quick start::

    from dataclasses import replace

    from repro.api import Scenario
    from repro.config.scale import ScaleTier

    scenario = Scenario(
        workload="llama3-70b", policy="dynmg+BMA", seq_len=8192, tier=ScaleTier.CI
    )
    result = scenario.run()
    print(result.summary())
    baseline = replace(scenario, policy="unopt").run()
    print(f"speedup over unopt: {baseline.cycles / result.cycles:.3f}x")

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

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, NamedTuple

from repro.cluster.scenario import ClusterScenario
from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig
from repro.config.presets import FIG9_L2_MIB, FIG9_SEQ_LEN
from repro.config.scale import ScaleTier, scale_experiment
from repro.config.system import MIB, SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering, parse_ordering
from repro.registry import resolve_policy, resolve_system, resolve_workload
from repro.serve.knobs import (
    POSITIVE,
    TIER,
    Codec,
    check_ranges,
    decode,
    encode,
    knob,
    optional_config,
)
from repro.serve.scenario import ServeScenario
from repro.sim.results import SimResult
from repro.sweep.spec import FIG9_POLICY_LABELS, SweepPoint, resolved_point

#: The system name a Scenario uses when none is given.
DEFAULT_SYSTEM = "table5"

#: A dispatch ordering is written by its name (e.g. ``"gqa-shared"``).
ORDERING = Codec(lambda ordering: ordering.value, parse_ordering)


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
    verbatim and ``policy`` must be its label.
    """

    #: The sweep mode of kernel scenarios (the default; ``--serve`` and
    #: ``--cluster`` select the serving kinds).
    kind: ClassVar[str] = "kernel"

    workload: str = field(metadata=knob(
        help="registered workload name (e.g. llama3-70b)", flags=("--model",),
        flag_default="llama3-70b", axis=0, axis_values=("llama3-70b", "llama3-405b"),
    ))
    policy: str = field(default="unopt", metadata=knob(
        help='cache policy label, e.g. "unopt", "dynmg", "dynmg+BMA" (a sweep\'s first '
             "label is its speedup baseline)",
        flags=("--policy",), flag_default="dynmg+BMA", axis=3, axis_values=FIG9_POLICY_LABELS,
    ))
    system: str = field(default=DEFAULT_SYSTEM, metadata=knob(
        help="registered system name", flags=("--system",),
    ))
    #: Requested (unscaled) sequence length; None keeps the workload's default.
    seq_len: int | None = field(default=None, metadata=knob(
        help="requested (unscaled) sequence length", bound=POSITIVE, flags=("--seq-len",),
        parse=int, flag_default=4096, axis=2, axis_values=(FIG9_SEQ_LEN,),
    ))
    #: Total L2 capacity override in MiB; None keeps the system's capacity.
    l2_mib: int | None = field(default=None, metadata=knob(
        help="total L2 capacity in MiB", bound=POSITIVE, flags=("--l2-mib",), parse=int,
        axis=1, axis_values=FIG9_L2_MIB,
    ))
    tier: ScaleTier = field(default=ScaleTier.CI, metadata=knob(
        help="scale tier, e.g. smoke, ci, full", codec=TIER, flags=("--tier",),
        flag_default="ci", sweep=True,
    ))
    ordering: ThreadBlockOrdering = field(
        default=ThreadBlockOrdering.GQA_SHARED, metadata=knob(codec=ORDERING)
    )
    constraints: DataflowConstraints | None = field(default=None, metadata=knob(
        codec=optional_config(lambda data: DataflowConstraints(**data)),
    ))
    max_cycles: int | None = field(default=None, metadata=knob(
        help="simulated-cycle cap of every point", flags=("--max-cycles",), parse=int,
        sweep=True,
    ))
    #: Display label (defaults to the policy name); never part of the key.
    label: str | None = field(default=None, metadata=knob())
    policy_config: PolicyConfig | None = field(default=None, metadata=knob(
        codec=optional_config(PolicyConfig.from_dict),
    ))

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
        check_ranges(self)
        if not isinstance(self.tier, ScaleTier):
            raise ConfigError(f"tier must be a ScaleTier, got {self.tier!r}")
        if not isinstance(self.ordering, ThreadBlockOrdering):
            raise ConfigError(
                f"ordering must be a ThreadBlockOrdering, got {self.ordering!r} "
                f"(use repro.api.parse_ordering for names)"
            )
        if self.policy_config is not None and self.policy_config.label != self.policy:
            # e.g. a Grid policy axis over a Scenario.create(..., PolicyConfig) base,
            # which would otherwise run the base config in every cell.
            raise ConfigError(
                f"policy {self.policy!r} is not the label of policy_config "
                f"({self.policy_config.label!r}); build it with Scenario.create"
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
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return decode(cls, data)

    # -- execution ---------------------------------------------------------------------
    def run(self) -> SimResult:
        """Simulate this scenario (reusing cached traces) and return the result."""

        return self.to_point().execute()

    def describe(self) -> str:
        return self.to_point().describe()


__all__ = [
    "ClusterScenario",
    "DEFAULT_SYSTEM",
    "ResolvedScenario",
    "Scenario",
    "ServeScenario",
    "parse_ordering",
]
