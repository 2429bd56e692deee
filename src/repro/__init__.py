"""LLaMCAT reproduction: LLC cache arbitration and throttling for LLM decode.

The package reproduces Zhou, Lai & Zhang, *LLaMCAT: Optimizing Large Language
Model Inference with Cache Arbitration and Throttling* (ICPP 2025) as a pure
Python library:

* ``repro.config``    -- Table 5 system, workloads, policy parameters (Tables 1-4)
* ``repro.workloads`` -- GQA decode operators and tensor layouts
* ``repro.dataflow``  -- Timeloop-style constrained mapper + analytical model
* ``repro.trace``     -- mapping -> per-thread-block memory traces
* ``repro.cores`` / ``repro.noc`` / ``repro.llc`` / ``repro.dram`` -- the
  cycle-level substrate (vector cores, interconnect, sliced LLC with MSHR,
  DDR5 channels)
* ``repro.arbiter``   -- FCFS / B / MA / BMA / COBRRA request arbitration
* ``repro.throttle``  -- dynmg / DYNCTA / LCS throttling controllers
* ``repro.sim``       -- simulation engine, results, experiment runner
* ``repro.serve``     -- request-stream serving simulation (continuous batching,
  arrival processes, latency SLO metrics)
* ``repro.cluster``   -- multi-replica serving over ``repro.serve`` (pluggable
  routers, heterogeneous fleets, fleet-level metrics)
* ``repro.experiments`` -- one module per paper figure / table
* ``repro.hwcost``    -- §6.1 area model

Quick start (the unified scenario API)::

    from repro import Scenario, ScaleTier

    scenario = Scenario(
        workload="llama3-70b", policy="dynmg+BMA", seq_len=8192, tier=ScaleTier.CI
    )
    print(scenario.run().summary())

Scenario components (workloads, systems, policies, throttle controllers) are
named through the registries in :mod:`repro.registry`; anything registered
there is addressable from the CLI, sweep grids and :class:`repro.api.Scenario`
alike.
"""

from repro import config, registry
from repro.api import ClusterScenario, Scenario, ServeScenario
from repro.config import (
    PolicyConfig,
    ScaleTier,
    SystemConfig,
    WorkloadConfig,
    bma,
    dynmg,
    llama3_405b_logit,
    llama3_70b_logit,
    table5_system,
    unoptimized,
)
from repro.sim import SimResult, Simulator, run_policy

__version__ = "1.0.0"

__all__ = [
    "ClusterScenario",
    "PolicyConfig",
    "ScaleTier",
    "Scenario",
    "ServeScenario",
    "SimResult",
    "Simulator",
    "SystemConfig",
    "WorkloadConfig",
    "bma",
    "config",
    "dynmg",
    "llama3_405b_logit",
    "llama3_70b_logit",
    "registry",
    "run_policy",
    "table5_system",
    "unoptimized",
]
