"""Lockstep differential oracle for core and slice parking.

Two systems built from the same inputs step side by side.  One runs as the
engine runs it; the other wakes every core and unparks every slice before
each step, raises every core's block-scan flag and clears the DRAM's
next-event cycle, so every component ticks on every cycle, every core scans
its windows on every tick and the DRAM ticks on every cycle -- the behaviour
before parking and event gating existed, where every response and every slice
drain woke its core and no room check ran.  After every cycle the progress signature and every stall
counter a throttle controller reads must agree, and at the end the serialized
results must be identical.  Compute-parked cores (a timed wake at
``wake_cycle``) are counted apart from memory and idle parks, and parked
cycles with a depth-full window apart again, so a test can assert that the
timed wake and the depth wake really happened.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.liveness import StarvationInjectedArbiter, livelock_scenario
from repro.api import Scenario
from repro.common.errors import LivelockError
from repro.config.workload import GQAShape, OperatorKind, WorkloadConfig
from repro.experiments.fig7 import (
    ARBITRATION_POLICIES,
    CUMULATIVE_POLICIES,
    THROTTLE_POLICIES,
)
from repro.registry import resolve_policy
from repro.sim.engine import SimulationEngine
from repro.sim.liveness import LivenessConfig, progress_signature
from repro.sim.runner import generate_trace
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem

#: Every policy label of Fig 7, plus the baseline every panel divides by.
FIG7_POLICIES = sorted(
    {"unopt", *THROTTLE_POLICIES.values(), *ARBITRATION_POLICIES.values(),
     *CUMULATIVE_POLICIES.values()}
)

#: The engine's completion-check cadence, so ``cycles`` matches an engine run.
_FINISH_CHECK_INTERVAL = 64


def unpark(system: SimulatedSystem) -> None:
    for core in system.cores:
        core.wake()
        core.rescan = True
    for llc_slice in system.llc.slices:
        llc_slice.parked = False
    system.dram.next_active_cycle = 0


class UnparkedSystem(SimulatedSystem):
    """The reference engine: every core and slice ticks on every cycle, every
    core scans its windows and the DRAM ticks on every cycle."""

    def step(self, cycle: int) -> None:
        unpark(self)
        super().step(cycle)


def observed(system: SimulatedSystem) -> tuple:
    """Everything a cycle can change that a controller or the watchdog reads."""

    return (
        progress_signature(system),
        tuple(
            (c.stat_mem_stall_cycles, c.stat_idle_cycles, c.stat_active_cycles,
             c.stat_compute_cycles, c.max_running_blocks)
            for c in system.cores
        ),
        tuple((s.stall_cycles, s.busy_cycles) for s in system.llc.slices),
    )


def lockstep(system_cfg, policy, trace, max_cycles=200_000) -> dict:
    """Step a parked and an unparked system together; return parking counts."""

    parked = Simulator(system_cfg, policy, trace)
    reference = Simulator(system_cfg, policy, trace)
    reference.system = UnparkedSystem(system_cfg, policy, trace)
    a, b = parked.system, reference.system
    parked_core_cycles = compute_parked_core_cycles = parked_slice_cycles = 0
    depth_full_cycles = 0
    for cycle in range(max_cycles):
        for core in a.cores:
            if core.parked:
                if core.wake_cycle:
                    compute_parked_core_cycles += 1
                else:
                    parked_core_cycles += 1
                if any(w.outstanding >= w.depth for w in core.windows):
                    depth_full_cycles += 1
        parked_slice_cycles += sum(s.parked for s in a.llc.slices)
        a.step(cycle)
        b.step(cycle)
        assert observed(a) == observed(b), f"parked run diverged at cycle {cycle}"
        if cycle % _FINISH_CHECK_INTERVAL == 0:
            done = a.finished()
            assert done == b.finished()
            if done:
                break
    else:
        pytest.fail(f"did not finish within {max_cycles} cycles")
    cycles = cycle + 1
    assert parked._collect(cycles).to_dict() == reference._collect(cycles).to_dict()
    return {"cores": parked_core_cycles, "compute": compute_parked_core_cycles,
            "slices": parked_slice_cycles, "depth_full": depth_full_cycles}


def small_workload(operator: OperatorKind, seq_len: int) -> WorkloadConfig:
    return WorkloadConfig(
        name=f"small-{operator.value}",
        shape=GQAShape(num_kv_heads=2, group_size=4, head_dim=128, seq_len=seq_len),
        operator=operator,
    ).validate()


#: The perfbench kernel shapes (ci tier, L=2048).
KERNEL_SHAPES = ("llama3-70b", "llama3-70b-attend")

#: Small Logit and AttScore@V traces for the tiny system (8k / 7-9k cycles).
SMALL_SEQ_LEN = {OperatorKind.LOGIT: 128, OperatorKind.ATTEND: 64}


@pytest.mark.parametrize("operator", [OperatorKind.LOGIT, OperatorKind.ATTEND])
@pytest.mark.parametrize("label", FIG7_POLICIES)
def test_fig7_policies_match_the_unparked_reference(tiny_system, operator, label):
    trace = generate_trace(small_workload(operator, SMALL_SEQ_LEN[operator]), tiny_system)
    parked = lockstep(tiny_system, resolve_policy(label), trace)
    assert parked["cores"] > 0
    if operator is OperatorKind.ATTEND:
        assert parked["compute"] > 0


def check_kernel_point(model: str, label: str) -> dict:
    """Lockstep one perfbench kernel shape (ci tier, L=2048) under ``label``."""

    scenario = Scenario.create(model, label, seq_len=2048)
    system_cfg, workload, policy = scenario.resolve()
    return lockstep(system_cfg, policy, generate_trace(workload, system_cfg))


@pytest.mark.parametrize("label", ["unopt", "dynmg+BMA"])
def test_ci_tier_logit_point_matches(label):
    """The Fig 7 regime: cores mostly back-pressured, woken by nudges."""

    parked = check_kernel_point("llama3-70b", label)
    assert parked["cores"] > 0


@pytest.mark.parametrize("operator", [OperatorKind.LOGIT, OperatorKind.ATTEND])
def test_shallow_window_point_matches(tiny_system, operator):
    """Depth-full windows on every core: only a response that frees a slot
    (or drains its block) may wake them."""

    system_cfg = replace(tiny_system, core=replace(tiny_system.core, inst_window_depth=4))
    trace = generate_trace(small_workload(operator, SMALL_SEQ_LEN[operator]), system_cfg)
    parked = lockstep(system_cfg, resolve_policy("dynmg+BMA"), trace)
    assert parked["depth_full"] > 0


def test_ci_tier_attend_point_matches():
    parked = check_kernel_point("llama3-70b-attend", "dynmg+BMA")
    assert parked["cores"] > 0
    assert parked["compute"] > 0


def test_previously_livelocked_cobrra_point_matches():
    system_cfg, workload, policy = livelock_scenario("cobrra").resolve()
    parked = lockstep(system_cfg, policy, generate_trace(workload, system_cfg))
    assert parked["cores"] > 0
    assert parked["depth_full"] > 0


def test_small_l2_mshr_bound_point_matches():
    scenario = Scenario.create("llama3-70b", "dynmg+BMA", seq_len=1024, l2_mib=1)
    system_cfg, workload, policy = scenario.resolve()
    parked = lockstep(system_cfg, policy, generate_trace(workload, system_cfg))
    assert parked["cores"] > 0
    assert parked["slices"] > 0


def test_injected_starvation_raises_at_the_same_cycle(tiny_system, tiny_workload):
    policy = resolve_policy("cobrra")
    trace = generate_trace(tiny_workload, tiny_system)

    def starved_run(system_type):
        system = system_type(tiny_system, policy, trace)
        for index, llc_slice in enumerate(system.llc.slices):
            starved = StarvationInjectedArbiter(tiny_system.core.num_cores, policy.cobrra)
            system.llc.arbiters[index] = starved
            llc_slice.arbiter = starved
        engine = SimulationEngine(system, liveness=LivenessConfig(patience=10_000))
        with pytest.raises(LivelockError) as excinfo:
            engine.run()
        return excinfo.value.report

    parked = starved_run(SimulatedSystem)
    reference = starved_run(UnparkedSystem)
    assert parked.cycle == reference.cycle
    assert parked == reference


def test_unparked_reference_really_ticks_every_component(tiny_system, tiny_workload):
    """Guard the oracle itself: the reference must never skip a tick, a block
    scan or a DRAM tick."""

    system = UnparkedSystem(tiny_system, resolve_policy("unopt"),
                            generate_trace(tiny_workload, tiny_system))
    ticks = {"cores": 0, "scans": 0, "dram": 0}
    for core in system.cores:
        original = core.tick

        def counted(cycle, _core=core, _tick=original):
            ticks["cores"] += 1
            ticks["scans"] += _core.rescan
            _tick(cycle)

        core.tick = counted
    dram_tick = system.dram.tick

    def counted_dram(cycle):
        ticks["dram"] += 1
        return dram_tick(cycle)

    system.dram.tick = counted_dram
    for cycle in range(500):
        system.step(cycle)
    assert ticks["cores"] == 500 * len(system.cores)
    assert ticks["scans"] == ticks["cores"]
    assert ticks["dram"] == 500



if __name__ == "__main__":
    for model in KERNEL_SHAPES:
        for label in FIG7_POLICIES:
            parked = check_kernel_point(model, label)
            print(f"{model} {label}: matches the unparked reference "
                  f"({parked['cores']} memory/idle-parked and {parked['compute']} "
                  f"compute-parked core-cycles, {parked['slices']} parked slice-cycles)")
