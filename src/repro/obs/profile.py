"""Wall-clock profiling of the simulator's real hot paths.

Trace and telemetry measure *simulated* time; :class:`Profiler` measures the
*wall clock* the simulator itself burns -- step-cost table builds, sweep point
execution, serialization -- so a slow sweep can be blamed on the right stage.
Sections nest freely and repeat; each named section accumulates total seconds
and a call count.

A profiler is also an :class:`~repro.obs.observer.Observer` of the serving
loop: when a run drains it folds each distinct step-cost table's
``profile()`` into ``<scope>.step_cost_build`` (table-build wall time, one
call per simulated shape) and ``<scope>.step_cost_hit`` (lookups served from
the table).

Wall-clock numbers are inherently non-deterministic, so they are kept out of
metrics objects and golden fixtures: the CLI prints them only at debug
verbosity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.observer import Observer


@dataclass(slots=True)
class Profiler(Observer):
    """Accumulate wall-clock seconds and call counts per named section."""

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    #: Prefix of the step-cost sections recorded by :meth:`on_finish` (the
    #: scenario kind: ``serve`` or ``cluster``).
    scope: str = ""

    def on_finish(self, replicas) -> None:
        """Fold the step-cost tables' build and hit counts into the profile."""

        # Homogeneous fleets share one table; count each table once.
        for table in {id(r.cost_model): r.cost_model for r in replicas}.values():
            profile = table.profile()
            if profile:
                self.add(
                    f"{self.scope}.step_cost_build", profile.get("build_wall_s", 0.0),
                    calls=profile.get("misses", 0),
                )
                self.count(f"{self.scope}.step_cost_hit", profile.get("hits", 0))

    @contextmanager
    def section(self, name: str):
        """Time the enclosed block under ``name`` (accumulates on re-entry)."""

        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, wall_s: float, calls: int = 1) -> None:
        """Accumulate ``wall_s`` seconds (and ``calls`` invocations) of ``name``."""

        self.seconds[name] = self.seconds.get(name, 0.0) + wall_s
        self.calls[name] = self.calls.get(name, 0) + calls

    def count(self, name: str, n: int = 1) -> None:
        """Count an occurrence of ``name`` without attributing wall time."""

        self.calls[name] = self.calls.get(name, 0) + n
        self.seconds.setdefault(name, 0.0)

    def merge(self, other: dict) -> None:
        """Fold another profile dict (as produced by :meth:`as_dict`) in."""

        for name, entry in other.items():
            self.add(name, entry.get("wall_s", 0.0), entry.get("calls", 0))

    def as_dict(self) -> dict:
        """The profile as ``{section: {"wall_s": ..., "calls": ...}}``."""

        return {
            name: {"wall_s": self.seconds[name], "calls": self.calls.get(name, 0)}
            for name in sorted(self.seconds)
        }

    def summary(self) -> str:
        """Human-readable one-line-per-section summary, slowest first."""

        if not self.seconds:
            return "profile: no sections recorded"
        width = max(len(name) for name in self.seconds)
        lines = ["profile (wall clock):"]
        for name in sorted(self.seconds, key=self.seconds.get, reverse=True):
            lines.append(
                f"  {name:<{width}}  {self.seconds[name] * 1e3:10.3f} ms"
                f"  x{self.calls.get(name, 0)}"
            )
        return "\n".join(lines)
