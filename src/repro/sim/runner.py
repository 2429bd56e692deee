"""Experiment runner: the trace cache and the one kernel-run entry point."""

from __future__ import annotations

from collections import OrderedDict

from repro.config.policies import PolicyConfig
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.trace.generator import generate_trace
from repro.trace.threadblock import Trace

# ---------------------------------------------------------------------------------
# trace cache: the trace depends only on the workload shape, the line size, the
# vector width, the per-MAC compute cost, the mapper constraints and the
# dispatch ordering, so it is shared across every policy / cache-size point of
# an experiment (regenerating it is the most expensive non-simulation step).
# Traces for long sequences are large, so the cache is a bounded LRU rather
# than an ever-growing dict.
# ---------------------------------------------------------------------------------

#: Most-recently-used traces kept alive; a full figure sweep touches well under
#: this many distinct (workload, ordering, constraints) combinations.
TRACE_CACHE_MAX_ENTRIES = 32

_TRACE_CACHE: OrderedDict[tuple, Trace] = OrderedDict()


def _trace_key(
    workload: WorkloadConfig,
    system: SystemConfig,
    ordering: ThreadBlockOrdering,
    constraints: DataflowConstraints | None,
) -> tuple:
    s = workload.shape
    return (
        workload.name,
        workload.operator.value,
        workload.element_bytes,
        s.num_kv_heads,
        s.group_size,
        s.head_dim,
        s.seq_len,
        system.l2.line_size,
        system.core.vector_lanes,
        system.core.compute_cycles_per_vector_mac,
        ordering.value,
        constraints,
    )


def cached_trace(
    workload: WorkloadConfig,
    system: SystemConfig,
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED,
    constraints: DataflowConstraints | None = None,
) -> Trace:
    """Generate (or reuse) the trace for a workload/system/constraints tuple."""

    key = _trace_key(workload, system, ordering, constraints)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = generate_trace(workload, system, constraints=constraints, ordering=ordering)
        _TRACE_CACHE[key] = trace
        while len(_TRACE_CACHE) > TRACE_CACHE_MAX_ENTRIES:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


def trace_cache_size() -> int:
    return len(_TRACE_CACHE)


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


# ---------------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------------


def run_policy(
    system: SystemConfig,
    workload: WorkloadConfig,
    policy: PolicyConfig,
    label: str | None = None,
    max_cycles: int | None = None,
    ordering: ThreadBlockOrdering = ThreadBlockOrdering.GQA_SHARED,
    constraints: DataflowConstraints | None = None,
) -> SimResult:
    """Simulate one (system, workload, policy) point, reusing cached traces.

    The one path from resolved inputs to a :class:`SimResult`: scenarios,
    sweep points and serving step-cost tables all run the engine through it.
    """

    trace = cached_trace(workload, system, ordering, constraints)
    return Simulator(system, policy, trace, max_cycles=max_cycles, label=label).run()
