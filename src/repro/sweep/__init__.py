"""Parallel sweep orchestration: declarative grids, a process-pool executor and
a persistent, content-addressed result store.

Every experiment of the paper (Fig 7/8/9, Tables 2-4) is a grid of independent
``(system, workload, policy)`` simulation points, and every serving study is a
grid of serve or cluster scenarios.  This package writes each as one
:class:`Grid` -- a base scenario plus ``(field, values)`` axes -- turns the
cells into hashable job descriptors (:mod:`repro.sweep.spec`), runs them across
worker processes with per-worker trace caching (:mod:`repro.sweep.executor`)
and persists every finished point in a JSON-lines store keyed by a content hash
of its full configuration (:mod:`repro.sweep.store`), so re-running a sweep
only simulates what is missing.
"""

from repro.sweep.executor import PointOutcome, SweepReport, run_sweep
from repro.sweep.spec import Grid, ScenarioPoint, SweepPoint
from repro.sweep.store import ResultStore, StoreRecord

__all__ = [
    "Grid",
    "PointOutcome",
    "ResultStore",
    "ScenarioPoint",
    "StoreRecord",
    "SweepPoint",
    "SweepReport",
    "run_sweep",
]
