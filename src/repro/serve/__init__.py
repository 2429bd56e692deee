"""Request-stream serving simulation with continuous batching and SLO metrics.

``repro.serve`` layers a request-level simulator on top of the cycle-accurate
engine: arrival processes (:mod:`repro.serve.arrival`, pluggable through
``@register_arrival``) generate a stream of prefill-then-decode requests, a
continuous-batching scheduler re-forms the running batch every iteration
under a step-planning policy (:mod:`repro.serve.schedpolicy`, pluggable
through ``@register_scheduler``: decode-first, prefill-first, chunked
prefill), and each iteration's cost comes from the existing trace-driven
simulator through a memoized step-cost table covering both decode and
chunk-bucketed prefill shapes.  The metrics layer reports per-request
latency, TTFT, TPOT, per-phase (prefill/decode) spans, p50/p95/p99
percentiles, throughput and SLO attainment.

Quick start::

    from repro.serve import ServeScenario

    metrics = ServeScenario(
        workload="llama3-70b", arrival="poisson", rate=2000, seed=0
    ).run()
    print(metrics.summary())

Serving points also sweep through the parallel executor: any scenario field
is a grid axis, and every cell becomes a point via ``to_point()``::

    from repro.serve import ServeScenario
    from repro.sweep import Grid, run_sweep

    grid = Grid(ServeScenario(workload="llama3-70b"), (("rate", (1000, 2000, 4000)),))
    report = run_sweep(grid, jobs=4)
"""

from repro.serve.arrival import ArrivalProcess, OpenLoopArrivals
from repro.serve.kvcache import (
    KVCacheConfig,
    KVCacheManager,
    PreemptionPolicy,
    RecomputePreemption,
    SwapPreemption,
)
from repro.serve.metrics import RequestMetrics, ServeMetrics, ServeSLO
from repro.serve.request import Request, RequestSampler
from repro.serve.scenario import ServeScenario
from repro.serve.schedpolicy import (
    ChunkedPrefillPolicy,
    DecodeFirstPolicy,
    PrefillFirstPolicy,
    PrefillOnlyPolicy,
    SchedulerPolicy,
    StepPlan,
)
from repro.serve.scheduler import (
    BatchConfig,
    ContinuousBatchScheduler,
    HandoffRequest,
    bucket_context,
)
from repro.serve.simulator import ServeStallReport, ServingSimulator
from repro.serve.stepcost import LinearStepCostModel, SimStepCostModel, StepCostModel

__all__ = [
    "ArrivalProcess",
    "BatchConfig",
    "ChunkedPrefillPolicy",
    "ContinuousBatchScheduler",
    "DecodeFirstPolicy",
    "HandoffRequest",
    "KVCacheConfig",
    "KVCacheManager",
    "LinearStepCostModel",
    "OpenLoopArrivals",
    "PreemptionPolicy",
    "PrefillFirstPolicy",
    "PrefillOnlyPolicy",
    "RecomputePreemption",
    "Request",
    "RequestMetrics",
    "RequestSampler",
    "SchedulerPolicy",
    "ServeMetrics",
    "ServeSLO",
    "ServeScenario",
    "ServeStallReport",
    "ServingSimulator",
    "SwapPreemption",
    "SimStepCostModel",
    "StepCostModel",
    "StepPlan",
    "bucket_context",
]
