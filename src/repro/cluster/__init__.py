"""Cluster-scale serving: a fleet of replicas behind a pluggable router.

``repro.cluster`` layers multi-replica serving on top of :mod:`repro.serve`:
N accelerator replicas -- homogeneous or mixed system presets -- each run
their own continuous-batching scheduler, step-planning policy and memoized
step-cost table, while a router registered under
:data:`repro.registry.ROUTERS` (round-robin, least-outstanding,
join-shortest-queue, weighted) spreads one shared arrival stream across the
fleet.  Fleets are colocated (every replica prefills and decodes) or
*disaggregated* (``disaggregated="2p2d"``: prefill replicas process prompts
and hand each request off to a decode replica after a configurable
KV-transfer latency).  :class:`ClusterMetrics` aggregates fleet throughput,
merged latency percentiles, per-replica and per-phase utilization, handoff
counts and the load-imbalance factor.

Quick start::

    from repro.cluster import ClusterScenario

    metrics = ClusterScenario(
        workload="llama3-70b", replicas=4, router="least-outstanding",
        arrival="poisson", rate=4000, seed=0,
    ).run()
    print(metrics.summary())

Cluster points also sweep through the parallel executor, with the fleet
shape as ordinary grid axes::

    from repro.cluster import ClusterScenario
    from repro.sweep import Grid, run_sweep

    grid = Grid(
        ClusterScenario(workload="llama3-70b"),
        (
            ("rate", (2000, 4000)),
            ("replicas", (2, 4)),
            ("router", ("round-robin", "join-shortest-queue")),
        ),
    )
    report = run_sweep(grid, jobs=4)
"""

from repro.cluster.metrics import ClusterMetrics, ReplicaMetrics
from repro.cluster.router import (
    JoinShortestQueueRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    WeightedRouter,
)
from repro.cluster.scenario import ClusterScenario, parse_disaggregated
from repro.cluster.simulator import ClusterSimulator, ReplicaSim

__all__ = [
    "ClusterMetrics",
    "ClusterScenario",
    "ClusterSimulator",
    "JoinShortestQueueRouter",
    "LeastOutstandingRouter",
    "ReplicaMetrics",
    "ReplicaSim",
    "RoundRobinRouter",
    "Router",
    "WeightedRouter",
    "parse_disaggregated",
]
