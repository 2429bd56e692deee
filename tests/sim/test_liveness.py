"""Engine liveness layer: watchdog, stall reports and termination statuses.

The scenario-level smoke lives in ``repro.analysis.liveness``; these tests
exercise the machinery underneath it -- ``progress_signature``,
``LivenessWatchdog``, ``build_stall_report`` and the engine's
``raise_on_stall`` plumbing -- against a tiny system with the starvation
injector swapped in (the exact regression class the watchdog exists for).
"""

from __future__ import annotations

import pytest

from repro.analysis.liveness import StarvationInjectedArbiter
from repro.common.errors import LivelockError, SimulationError
from repro.config.policies import ArbitrationKind, PolicyConfig
from repro.sim.engine import SimulationEngine, TerminationStatus
from repro.sim.liveness import (
    LivenessConfig,
    LivenessWatchdog,
    StallReport,
    build_stall_report,
    progress_signature,
)
from repro.sim.runner import generate_trace
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem

#: Small enough that the injected run fails fast, large enough to clear any
#: legitimate quiet stretch (DRAM round-trips are hundreds of cycles).
TEST_PATIENCE = 10_000


@pytest.fixture()
def cobrra_policy() -> PolicyConfig:
    return PolicyConfig(arbitration=ArbitrationKind.COBRRA).validate()


def build_starved_system(tiny_system, cobrra_policy, tiny_workload) -> SimulatedSystem:
    """A tiny system with the pre-fix (starving) arbiter in every slice."""

    trace = generate_trace(tiny_workload, tiny_system)
    system = SimulatedSystem(tiny_system, cobrra_policy, trace)
    for index, llc_slice in enumerate(system.llc.slices):
        starved = StarvationInjectedArbiter(
            tiny_system.core.num_cores, cobrra_policy.cobrra
        )
        system.llc.arbiters[index] = starved
        llc_slice.arbiter = starved
    return system


class TestProgressSignature:
    def test_signature_changes_while_system_progresses(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        before = progress_signature(system)
        for cycle in range(256):
            system.step(cycle)
        after = progress_signature(system)
        assert after != before

    def test_signature_is_stable_when_nothing_steps(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        assert progress_signature(system) == progress_signature(system)


class TestLivenessWatchdog:
    def test_fires_after_patience_without_progress(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        watchdog = LivenessWatchdog(system, LivenessConfig(patience=100))
        watchdog.observe(0)  # establishes the baseline signature
        watchdog.observe(50)  # within patience: no progress yet tolerated
        with pytest.raises(LivelockError) as excinfo:
            watchdog.observe(100)
        assert excinfo.value.report is not None
        assert excinfo.value.report.first_stuck_cycle == 0
        assert excinfo.value.report.cycle == 100

    def test_disabled_watchdog_never_fires(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        watchdog = LivenessWatchdog(system, LivenessConfig(patience=1, enabled=False))
        for cycle in (0, 10, 10_000, 10_000_000):
            watchdog.observe(cycle)

    def test_rejects_nonpositive_patience(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        with pytest.raises(SimulationError):
            LivenessWatchdog(system, LivenessConfig(patience=0))

    def test_livelock_error_is_a_simulation_error(self):
        assert issubclass(LivelockError, SimulationError)


class TestEngineLiveness:
    def test_injected_starvation_raises_structured_livelock(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        system = build_starved_system(tiny_system, cobrra_policy, tiny_workload)
        engine = SimulationEngine(
            system, liveness=LivenessConfig(patience=TEST_PATIENCE)
        )
        with pytest.raises(LivelockError) as excinfo:
            engine.run()
        report = excinfo.value.report
        assert isinstance(report, StallReport)
        assert report.patience == TEST_PATIENCE
        assert report.cycle - report.first_stuck_cycle >= TEST_PATIENCE
        # The smoking gun of the cobrra regression: every block complete, no
        # core requests outstanding, yet responses sit parked in some slice.
        assert report.blocks_completed == report.blocks_total
        assert report.core_outstanding == 0
        assert any(s.response_queue > 0 for s in report.slices)
        # ... and the stuck slices show request priority being granted with an
        # empty request queue (the starvation itself).
        stuck = [s for s in report.slices if s.response_queue > 0]
        assert all(s.request_queue == 0 for s in stuck)
        assert all(s.request_priority_grants > 0 for s in stuck)
        # The message embeds the rendered report, so sweep failure records
        # (which stringify errors) carry the stall state automatically.
        assert "no forward progress since cycle" in str(excinfo.value)

    def test_raise_on_stall_false_returns_livelock_status(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        system = build_starved_system(tiny_system, cobrra_policy, tiny_workload)
        engine = SimulationEngine(
            system, liveness=LivenessConfig(patience=TEST_PATIENCE)
        )
        report = engine.run(raise_on_stall=False)
        assert report.status is TerminationStatus.LIVELOCK
        assert not report.finished
        assert report.stall_report is not None
        assert report.cycles < SimulationEngine(system).max_cycles

    def test_cycle_cap_error_carries_the_max_cycles_stall_report(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        def capped_engine() -> SimulationEngine:
            trace = generate_trace(tiny_workload, tiny_system)
            system = SimulatedSystem(tiny_system, cobrra_policy, trace)
            return SimulationEngine(system, max_cycles=200)

        with pytest.raises(SimulationError, match="did not complete within 200 cycles") as excinfo:
            capped_engine().run()
        assert not isinstance(excinfo.value, LivelockError)
        report = capped_engine().run(raise_on_stall=False)
        assert report.status is TerminationStatus.MAX_CYCLES
        # The raised error carries the very snapshot the non-raising path returns.
        assert isinstance(excinfo.value.report, StallReport)
        assert excinfo.value.report == report.stall_report
        assert excinfo.value.report.cycle == 199

    def test_fixed_arbiter_completes_with_completed_status(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        engine = SimulationEngine(
            system, liveness=LivenessConfig(patience=TEST_PATIENCE)
        )
        report = engine.run()
        assert report.finished
        assert report.status is TerminationStatus.COMPLETED
        assert report.stall_report is None

    def test_simulator_surfaces_livelock_status_in_result(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        sim = Simulator(
            tiny_system,
            cobrra_policy,
            trace,
            liveness=LivenessConfig(patience=TEST_PATIENCE),
        )
        for index, llc_slice in enumerate(sim.system.llc.slices):
            starved = StarvationInjectedArbiter(
                tiny_system.core.num_cores, cobrra_policy.cobrra
            )
            sim.system.llc.arbiters[index] = starved
            llc_slice.arbiter = starved
        result = sim.run(raise_on_stall=False)
        assert result.status == "livelock"
        assert not result.completed

    def test_stall_report_snapshot_matches_live_system(
        self, tiny_system, cobrra_policy, tiny_workload
    ):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, cobrra_policy, trace)
        for cycle in range(128):
            system.step(cycle)
        report = build_stall_report(
            system, cycle=127, first_stuck_cycle=64, patience=TEST_PATIENCE
        )
        assert report.cycle == 127
        assert report.first_stuck_cycle == 64
        assert len(report.slices) == len(system.llc.slices)
        for snap, llc_slice in zip(report.slices, system.llc.slices):
            assert snap.slice_id == llc_slice.slice_id
            assert snap.response_queue == len(llc_slice.response_queue)
            assert snap.arbitration_calls == llc_slice.arbiter.arbitration_calls
        assert "thread blocks" in report.render()
