"""Parallel sweep executor.

Runs sweep-point jobs across a process pool.  A *point* is anything satisfying
the small job contract -- ``key()`` (content hash), ``label``, ``describe()``,
``config_dict()`` and ``execute() -> result`` -- which today means kernel-level
:class:`~repro.sweep.spec.SweepPoint` and serve/cluster
:class:`~repro.sweep.spec.ScenarioPoint` jobs; the kinds mix freely in one
submission and one result store.  Each worker process keeps its own
module-level trace cache (``repro.sim.runner``), so points that share a
workload reuse the generated trace for free; jobs are submitted in the
deterministic expansion order, which groups trace-sharing points together.
Failures are captured per point (with traceback) instead of aborting the
sweep, and points whose content hash is already present in the
:class:`~repro.sweep.store.ResultStore` are returned from disk without
re-simulation.
"""

from __future__ import annotations

import logging
import time
import traceback
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.sim.results import SimResult
from repro.sweep.spec import Grid, Point
from repro.sweep.store import ResultStore

if TYPE_CHECKING:
    from repro.cluster.metrics import ClusterMetrics
    from repro.serve.metrics import ServeMetrics

    #: What a point's ``execute()`` returns: a labelled, ``to_dict``-serializable
    #: result (``SimResult`` for kernel points, ``ServeMetrics`` or
    #: ``ClusterMetrics`` for serve and cluster points).
    PointResult = SimResult | ServeMetrics | ClusterMetrics

#: progress(done, total, outcome) -- invoked after every finished point.
ProgressCallback = Callable[[int, int, "PointOutcome"], None]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class PointOutcome:
    """What happened to one sweep point."""

    #: The submitted job as given, a :class:`~repro.sweep.spec.SweepPoint` or
    #: :class:`~repro.sweep.spec.ScenarioPoint`; callers read their own kind.
    point: Any
    result: "PointResult | None"
    error: str | None
    cached: bool
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(slots=True)
class SweepReport:
    """Outcome of a whole sweep, aligned with the submitted point order."""

    outcomes: list[PointOutcome]
    elapsed_s: float
    jobs: int

    @property
    def num_points(self) -> int:
        return len(self.outcomes)

    @property
    def num_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def num_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def num_simulated(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def failures(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def result_for(self, point: Point) -> PointResult:
        """The result of ``point``; raises KeyError if it failed or is absent.

        An exact point match wins (its result carries the point's own label);
        otherwise any successful outcome with the same content hash answers,
        since deduplicated points share one simulation.
        """

        key = point.key()
        fallback: PointResult | None = None
        for outcome in self.outcomes:
            if outcome.ok and outcome.point.key() == key:
                assert outcome.result is not None
                if outcome.point == point:
                    return outcome.result
                if fallback is None:
                    fallback = outcome.result
        if fallback is not None:
            return fallback
        raise KeyError(f"no successful result for point {point.describe()!r}")

    def raise_on_failure(self) -> "SweepReport":
        if self.failures:
            first = self.failures[0]
            raise RuntimeError(
                f"{len(self.failures)}/{self.num_points} sweep points failed; "
                f"first: {first.point.describe()}\n{first.error}"
            )
        return self

    def summary(self) -> str:
        return (
            f"{self.num_points} points: {self.num_simulated} simulated, "
            f"{self.num_cached} cached, {len(self.failures)} failed "
            f"in {self.elapsed_s:.1f}s (jobs={self.jobs})"
        )

    def profile(self) -> dict:
        """Where the sweep's wall clock went, as profile-dict sections.

        ``sweep.execute`` sums the per-point execution time (which exceeds
        ``sweep.total`` when points ran in parallel); ``sweep.cached`` counts
        the points answered from the store without simulation.
        """

        executed = [o for o in self.outcomes if not o.cached]
        return {
            "sweep.total": {"wall_s": self.elapsed_s, "calls": 1},
            "sweep.execute": {
                "wall_s": sum(o.elapsed_s for o in executed),
                "calls": len(executed),
            },
            "sweep.cached": {"wall_s": 0.0, "calls": self.num_cached},
        }


def _execute_point(point: Point) -> "tuple[PointResult | None, str | None, float]":
    """Worker entry point: run one point's ``execute()``, capturing any failure.

    The wall-clock reads time the *orchestration* (per-point elapsed seconds
    in progress reporting); simulation results themselves carry only
    simulated time, so the suppressed DET002 sites cannot leak into stored
    metrics.
    """

    start = time.perf_counter()  # repro: noqa[DET002]
    try:
        return point.execute(), None, time.perf_counter() - start  # repro: noqa[DET002]
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - start  # repro: noqa[DET002]


def _with_label(result: PointResult, label: str) -> PointResult:
    """Relabel a shared/stored result for the point it is answering."""

    return result if result.label == label else replace(result, label=label)


def run_sweep(
    points: Grid | Iterable[Point],
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: ProgressCallback | None = None,
    force: bool = False,
) -> SweepReport:
    """Run a grid of simulation points, in parallel when ``jobs > 1``.

    Points with identical content hashes are simulated once and the result is
    shared; points already present in ``store`` are returned from disk unless
    ``force`` is set.  ``jobs=1`` runs in-process (sharing this process's trace
    cache), which is also the fallback for tiny grids.
    """

    if isinstance(points, Grid):
        points = points.expand()
    point_list: Sequence[Point] = list(points)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # Orchestration timing only: elapsed_s reports sweep wall time, never
    # enters point results or the store.
    start = time.perf_counter()  # repro: noqa[DET002]
    total = len(point_list)
    outcomes: dict[int, PointOutcome] = {}
    done = 0

    def finish(
        indices: list[int],
        result: "PointResult | None",
        error: str | None,
        cached: bool,
        elapsed_s: float,
    ) -> None:
        nonlocal done
        for i in indices:
            point = point_list[i]
            labelled = _with_label(result, point.label) if result is not None else None
            outcome = PointOutcome(point, labelled, error, cached, elapsed_s)
            outcomes[i] = outcome
            done += 1
            status = "cached" if cached else ("ok" if outcome.ok else "failed")
            logger.debug(
                "[%d/%d] %s: %s (%.2fs)", done, total, status, point.label, elapsed_s
            )
            if progress is not None:
                progress(done, total, outcome)

    # Content-hash dedup: grid cells that resolve to identical configurations
    # (e.g. a baseline repeated per group) are simulated exactly once.
    by_key: dict[str, list[int]] = {}
    for i, point in enumerate(point_list):
        by_key.setdefault(point.key(), []).append(i)

    pending: list[tuple[Point, list[int]]] = []
    for key, indices in by_key.items():
        point = point_list[indices[0]]
        if store is not None and not force:
            stored = store.result_for(point)
            if stored is not None:
                finish(indices, stored, None, True, 0.0)
                continue
        pending.append((point, indices))

    def record(
        point: Point,
        indices: list[int],
        outcome: "tuple[PointResult | None, str | None, float]",
    ) -> None:
        result, error, elapsed_s = outcome
        if store is not None:
            store.put(point, result=result, error=error, elapsed_s=elapsed_s)
        finish(indices, result, error, False, elapsed_s)

    logger.info(
        "sweep: %d points (%d unique), %d pending after store reuse, jobs=%d",
        total,
        len(by_key),
        len(pending),
        jobs,
    )
    if jobs == 1 or len(pending) <= 1:
        for point, indices in pending:
            record(point, indices, _execute_point(point))
    else:
        # Imported here: the pool pulls in multiprocessing, pickle and socket,
        # which a serial sweep never needs.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_execute_point, point): (point, indices)
                for point, indices in pending
            }
            for future in as_completed(futures):
                point, indices = futures[future]
                record(point, indices, future.result())

    return SweepReport(
        outcomes=[outcomes[i] for i in range(total)],
        elapsed_s=time.perf_counter() - start,  # repro: noqa[DET002]
        jobs=jobs,
    )
