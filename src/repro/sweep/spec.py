"""Sweep grids and the job descriptors they expand into.

A :class:`Grid` is one base frozen scenario plus ordered ``(field, values)``
axes.  It expands via :func:`dataclasses.replace` into one validated scenario
per cell, and each scenario turns itself into a job with ``to_point()``:

* a kernel :class:`repro.api.Scenario` resolves into a :class:`SweepPoint`,
  which carries the *scaled* system, workload and policy configurations, so
  the executor can run it in any worker process without re-reading presets;
* a :class:`~repro.serve.scenario.ServeScenario` or
  :class:`~repro.cluster.scenario.ClusterScenario` becomes a
  :class:`ScenarioPoint`, which names its components through the registries.

Every point's content hash (``key()``) identifies the simulation
independently of display labels, which is what makes the result store
resumable and deduplicating.  Any scenario field is an axis, and anything
registered through :mod:`repro.registry` is immediately sweepable.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigError
from repro.config.policies import PolicyConfig
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering

if TYPE_CHECKING:  # deferred at runtime: keeps the spec module import-light
    from repro.cluster.metrics import ClusterMetrics
    from repro.cluster.scenario import ClusterScenario
    from repro.serve.metrics import ServeMetrics
    from repro.serve.scenario import ServeScenario
    from repro.sim.results import SimResult


def config_to_jsonable(obj: Any) -> Any:
    """Recursively convert nested (frozen) config dataclasses to JSON-able data."""

    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: config_to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [config_to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): config_to_jsonable(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One fully resolved simulation job.

    ``label`` and ``coords`` are display/grouping metadata only; the identity
    of the point is the content hash of everything that determines the
    simulation outcome (system, workload, policy, ordering, constraints,
    max_cycles).
    """

    label: str
    system: SystemConfig
    workload: WorkloadConfig
    policy: PolicyConfig
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED
    constraints: DataflowConstraints | None = None
    max_cycles: int | None = None
    #: Sorted (axis, value) pairs locating the point in its grid, e.g.
    #: (("l2_mib", 32), ("model", "llama3-70b"), ("policy", "dynmg")).
    coords: tuple[tuple[str, object], ...] = ()
    #: Lazily memoized content hash (hashing serializes the full config).
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def config_dict(self) -> dict:
        """The simulation-determining configuration as JSON-able data."""

        return {
            "system": config_to_jsonable(self.system),
            "workload": config_to_jsonable(self.workload),
            "policy": config_to_jsonable(self.policy),
            "ordering": self.ordering.value,
            "constraints": config_to_jsonable(self.constraints),
            "max_cycles": self.max_cycles,
        }

    def key(self) -> str:
        """Content hash identifying this simulation (stable across processes).

        Labels and grid coordinates are deliberately excluded: two grid cells
        that resolve to identical configurations (e.g. Fig 9's "reference" run
        and its unoptimized @ 32MB cell) share one key and one simulation.
        """

        if self._key is None:
            canonical = json.dumps(self.config_dict(), sort_keys=True, separators=(",", ":"))
            # Lazy memo of a derived field: _key is compare=False/init=False,
            # so the point's identity (the hashed config) never changes.
            object.__setattr__(self, "_key", hashlib.sha256(canonical.encode()).hexdigest())  # repro: noqa[API001]
        return self._key

    def coord(self, axis: str, default: Any = None) -> Any:
        for name, value in self.coords:
            if name == axis:
                return value
        return default

    def describe(self) -> str:
        shape = self.workload.shape
        l2_mib = self.system.l2.size_bytes / 2**20
        return (
            f"{self.label}: {self.workload.name} L={shape.seq_len} "
            f"L2={l2_mib:g}MiB policy={self.policy.label}"
        )

    def execute(self) -> "SimResult":
        """Simulate this point (the executor's uniform worker entry point).

        Every sweepable point type (this class and :class:`ScenarioPoint`) exposes
        ``execute() -> result`` where the result carries a ``label`` field and
        serializes via ``to_dict``/``from_dict``.
        """

        from repro.sim.runner import run_policy  # deferred: keeps spec import light

        return run_policy(
            self.system,
            self.workload,
            self.policy,
            label=self.label,
            max_cycles=self.max_cycles,
            ordering=self.ordering,
            constraints=self.constraints,
        )


def resolved_point(
    system: SystemConfig,
    workload: WorkloadConfig,
    policy: PolicyConfig,
    label: str,
    coords: dict,
    max_cycles: int | None = None,
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED,
    constraints: DataflowConstraints | None = None,
) -> SweepPoint:
    """Wrap an already-scaled (system, workload, policy) triple as a point.

    The low-level factory behind :meth:`repro.api.Scenario.to_point`;
    ``coords`` is the point's grid location (model / policy / seq_len / ...).
    """

    return SweepPoint(
        label=label,
        system=system,
        workload=workload,
        policy=policy,
        ordering=ordering,
        constraints=constraints,
        max_cycles=max_cycles,
        coords=tuple(sorted(coords.items(), key=lambda kv: kv[0])),
    )


@dataclass(frozen=True, slots=True)
class ScenarioPoint:
    """One serving or cluster job: a display label plus the scenario it runs.

    The scenario names its components through the registries, which every
    worker can resolve, so the point pickles small.  Its identity is the
    scenario's content hash; the ``kind`` tag in :meth:`config_dict` keeps
    serve and cluster records apart in a shared store.
    """

    label: str
    scenario: "ServeScenario | ClusterScenario"
    #: Lazily memoized content hash.
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def config_dict(self) -> dict:
        return {"kind": self.scenario.kind, "scenario": self.scenario.config_dict()}

    def key(self) -> str:
        """Content hash identifying this simulation (labels excluded)."""

        if self._key is None:
            # Lazy memo of a derived field (compare=False): identity unchanged.
            object.__setattr__(self, "_key", self.scenario.key())  # repro: noqa[API001]
        return self._key

    def describe(self) -> str:
        return f"{self.label}: {self.scenario.describe()}"

    def execute(self) -> "ServeMetrics | ClusterMetrics":
        """Run the simulation (the executor's worker entry point)."""

        return replace(self.scenario.run(), label=self.label)


#: Anything the executor and the result store accept as a job.
Point = SweepPoint | ScenarioPoint


@dataclass(frozen=True, slots=True)
class Grid:
    """A cartesian grid over the fields of one frozen scenario.

    ``base`` is any scenario dataclass with ``validate()`` and ``to_point()``
    (:class:`repro.api.Scenario`, :class:`~repro.serve.scenario.ServeScenario`,
    :class:`~repro.cluster.scenario.ClusterScenario`).  ``axes`` is an ordered
    tuple of ``(field, values)`` pairs; every cell replaces those fields of
    ``base``, and the first axis is the outermost loop.
    """

    base: Any
    axes: tuple[tuple[str, tuple[Any, ...]], ...]

    def validate(self) -> "Grid":
        names = [f.name for f in fields(self.base)]
        seen: set[str] = set()
        for name, values in self.axes:
            if name not in names:
                raise ConfigError(
                    f"grid axis {name!r} is not a field of "
                    f"{type(self.base).__name__} (fields: {', '.join(names)})"
                )
            if name in seen:
                raise ConfigError(f"grid axis {name!r} appears twice")
            if not values:
                raise ConfigError(f"grid axis {name!r} must be non-empty")
            seen.add(name)
        return self

    @property
    def num_points(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def scenarios(self) -> tuple[Any, ...]:
        """Every cell as a validated scenario, in expansion order."""

        self.validate()
        names = [name for name, _ in self.axes]
        return tuple(
            replace(self.base, **dict(zip(names, cell, strict=True))).validate()
            for cell in itertools.product(*(values for _, values in self.axes))
        )

    def expand(self) -> tuple[Point, ...]:
        """Every cell as an executable point, in expansion order."""

        return tuple(scenario.to_point() for scenario in self.scenarios())


#: Fig 9's policy legend, as labels understood by :func:`resolve_policy`.
FIG9_POLICY_LABELS = (
    "unopt",
    "dyncta",
    "lcs",
    "cobrra",
    "dynmg",
    "dynmg+cobrra",
    "dynmg+BMA",
)
