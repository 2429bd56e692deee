"""Simulation layer: system assembly, cycle engine, statistics and runners."""

from repro.sim.results import SimResult
from repro.sim.runner import clear_trace_cache, run_policy
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem

__all__ = [
    "SimResult",
    "SimulatedSystem",
    "Simulator",
    "clear_trace_cache",
    "run_policy",
]
