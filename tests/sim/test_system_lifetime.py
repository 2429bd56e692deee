"""A finished system is freed by reference counting, not by the cycle collector.

No component holds a reference back to :class:`SimulatedSystem`: the LLC
slices hold the NoC's ``send_response`` and the DRAM's ``enqueue`` themselves.
So dropping the last reference to a run frees every component at once, and a
process that runs many simulations does not grow until the next collection.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.registry import resolve_policy
from repro.sim.runner import generate_trace
from repro.sim.simulator import Simulator


@pytest.mark.parametrize("label", ["unopt", "dynmg+BMA", "dynmg+cobrra", "lcs"])
def test_finished_system_is_freed_by_refcounting(tiny_system, tiny_workload, label):
    trace = generate_trace(tiny_workload, tiny_system)
    policy = resolve_policy(label)
    gc.collect()
    gc.disable()
    try:
        sim = Simulator(tiny_system, policy, trace)
        assert sim.run().status == "completed"
        system = weakref.ref(sim.system)
        del sim
        assert system() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
