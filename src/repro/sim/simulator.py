"""One cycle-level run of a ready-made trace.

:class:`Simulator` builds the simulated system for a system, a policy and a
trace, runs the engine to completion and assembles a :class:`SimResult` with
every metric the paper reports.  Callers holding a workload rather than a
trace go through :func:`repro.sim.runner.run_policy`, which generates (or
reuses) the trace and is the one path from resolved inputs to a result.
"""

from __future__ import annotations

from repro.config.policies import PolicyConfig
from repro.config.system import SystemConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES, SimulationEngine
from repro.sim.liveness import LivenessConfig
from repro.sim.results import CoreResult, SimResult
from repro.sim.system import SimulatedSystem
from repro.trace.threadblock import Trace


class Simulator:
    """Object-oriented wrapper around one simulation run."""

    def __init__(
        self,
        system: SystemConfig,
        policy: PolicyConfig,
        trace: Trace,
        max_cycles: int | None = None,
        label: str | None = None,
        liveness: LivenessConfig | None = None,
    ) -> None:
        self.system_config = system
        self.policy = policy
        self.trace = trace
        #: ``None`` means the engine's default guard, DEFAULT_MAX_CYCLES.
        self.max_cycles = DEFAULT_MAX_CYCLES if max_cycles is None else max_cycles
        self.liveness = liveness
        self.label = label if label is not None else policy.label
        self.system = SimulatedSystem(system, policy, trace)

    def run(self, raise_on_stall: bool = True) -> SimResult:
        """Run to completion.

        With ``raise_on_stall=False`` a livelocked or guard-limited run
        returns a truncated :class:`SimResult` whose ``status`` records the
        termination kind instead of raising.
        """

        engine = SimulationEngine(
            self.system, max_cycles=self.max_cycles, liveness=self.liveness
        )
        report = engine.run(raise_on_stall=raise_on_stall)
        return self._collect(report.cycles, status=report.status.value)

    # -- result assembly ----------------------------------------------------------------------
    def _collect(self, cycles: int, status: str = "completed") -> SimResult:
        system = self.system
        cfg = self.system_config
        core_results = tuple(
            CoreResult(
                core_id=core.core_id,
                issued_requests=core.stat_issued_requests,
                l1_hits=core.stat_l1_hits,
                mem_stall_cycles=core.stat_mem_stall_cycles,
                idle_cycles=core.stat_idle_cycles,
                active_cycles=core.stat_active_cycles,
                completed_blocks=core.stat_completed_blocks,
                final_max_running_blocks=core.max_running_blocks,
            )
            for core in system.cores
        )
        return SimResult(
            label=self.label,
            workload=self.trace.name,
            cycles=cycles,
            frequency_ghz=cfg.frequency_ghz,
            llc=system.llc.stats(cycles),
            dram=system.dram.stats(),
            cores=core_results,
            thread_blocks=system.scheduler.total_blocks,
            total_requests_issued=sum(c.stat_issued_requests for c in system.cores),
            noc_requests=system.noc.requests_sent,
            noc_responses=system.noc.responses_sent,
            status=status,
            meta={
                "num_slices": cfg.l2.num_slices,
                "num_cores": cfg.core.num_cores,
                "l2_bytes": cfg.l2.size_bytes,
                "policy": self.policy.label,
                "throttle": self.policy.throttle.value,
                "arbitration": self.policy.arbitration.value,
            },
        )

