"""Cycle-level simulation engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.sim.liveness import (
    LivenessConfig,
    LivenessWatchdog,
    StallReport,
    TerminationStatus,
    build_stall_report,
)
from repro.sim.system import SimulatedSystem

#: Default safety bound; a decode-operator run at CI scale finishes in well under
#: a million cycles, so hitting this indicates a model deadlock, not a long run.
DEFAULT_MAX_CYCLES = 20_000_000

#: How often to re-evaluate the (comparatively expensive) completion predicate.
_FINISH_CHECK_INTERVAL = 64


@dataclass(slots=True)
class EngineReport:
    """Outcome of driving one system to completion."""

    cycles: int
    finished: bool
    finish_checks: int
    status: TerminationStatus = TerminationStatus.COMPLETED
    #: Component-level stall snapshot; set only when ``status`` is not
    #: ``completed`` and the engine ran with ``raise_on_stall=False`` (with
    #: ``True``, the raised error carries it as ``report``).
    stall_report: StallReport | None = None


class SimulationEngine:
    """Drives a :class:`SimulatedSystem` cycle by cycle until it drains.

    A :class:`~repro.sim.liveness.LivenessWatchdog` samples per-component
    forward-progress counters at the finish-check cadence and aborts the run
    with a :class:`~repro.common.errors.LivelockError` long before the cycle
    guard when nothing moves for ``liveness.patience`` cycles.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        liveness: LivenessConfig | None = None,
    ) -> None:
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
        self.system = system
        self.max_cycles = max_cycles
        self.liveness = (liveness if liveness is not None else LivenessConfig()).validate()

    def run(self, raise_on_stall: bool = True) -> EngineReport:
        """Run to completion; ``raise_on_stall=False`` returns a report with a
        ``livelock`` / ``max_cycles`` status instead of raising."""

        system = self.system
        watchdog = LivenessWatchdog(system, self.liveness)
        finish_checks = 0
        cycle = 0
        for cycle in range(self.max_cycles):
            system.step(cycle)
            # The completion predicate touches every component, so only evaluate
            # it periodically; the few extra idle cycles this costs are noise.
            if (cycle & (_FINISH_CHECK_INTERVAL - 1)) == 0:
                finish_checks += 1
                if system.finished():
                    return EngineReport(cycles=cycle + 1, finished=True, finish_checks=finish_checks)
                try:
                    watchdog.observe(cycle)
                except SimulationError as exc:
                    if raise_on_stall:
                        raise
                    return EngineReport(
                        cycles=cycle + 1,
                        finished=False,
                        finish_checks=finish_checks,
                        status=TerminationStatus.LIVELOCK,
                        stall_report=exc.report,
                    )
        if system.finished():
            return EngineReport(cycles=cycle + 1, finished=True, finish_checks=finish_checks)
        report = build_stall_report(
            system,
            cycle=cycle,
            first_stuck_cycle=watchdog.last_progress_cycle,
            patience=self.liveness.patience,
        )
        if raise_on_stall:
            raise SimulationError(
                f"simulation did not complete within {self.max_cycles} cycles: "
                f"{system.scheduler.completed}/{system.scheduler.total_blocks} thread blocks done, "
                f"{sum(c.outstanding_requests for c in system.cores)} requests outstanding",
                report=report,
            )
        return EngineReport(
            cycles=cycle + 1,
            finished=False,
            finish_checks=finish_checks,
            status=TerminationStatus.MAX_CYCLES,
            stall_report=report,
        )
