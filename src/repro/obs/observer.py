"""The one interface between the serving loop and its observability sinks.

:func:`repro.serve.simulator.run_loop` reports a run as six events, one
:class:`Observer` method each.  Every method is a no-op here, so a sink
overrides only the events it records.  The sinks are
:class:`~repro.obs.tracer.ChromeTracer` (event timeline),
:class:`~repro.obs.telemetry.TelemetryRecorder` (fixed-cadence time series),
:class:`~repro.analysis.runtime.StepProbe` (per-step determinism digests) and
:class:`~repro.obs.profile.Profiler` (wall clock of the step-cost tables).

Observers only read what they are handed, so installing any of them leaves a
run's metrics bit-for-bit unchanged; with none installed the loop's only cost
is iterating an empty tuple at each hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.serve.arrival import ArrivalProcess
    from repro.serve.schedpolicy import StepPlan
    from repro.serve.scheduler import ActiveRequest
    from repro.serve.simulator import ReplicaSim


class Observer:
    """Receive the serving loop's events; the base class ignores them all.

    ``replica`` is the :class:`~repro.serve.simulator.ReplicaSim` the event
    happened on (read its id, role, scheduler and counters; never mutate it)
    and all times are simulated seconds.
    """

    __slots__ = ()

    def on_start(self, arrival: ArrivalProcess, replicas: Sequence[ReplicaSim]) -> None:
        """The run begins: ``arrival`` feeds the fleet ``replicas``."""

    def on_step(
        self, replica: ReplicaSim, start_s: float, end_s: float, plan: StepPlan, cycles: int
    ) -> None:
        """``replica`` launched ``plan``, priced at ``cycles``, over ``[start_s, end_s]``.

        Called once the step is counted, so ``replica.steps`` is its number.
        """

    def on_idle(self, replica: ReplicaSim, now_s: float) -> None:
        """``replica`` admitted what it could at ``now_s`` and has an empty batch."""

    def on_transfer(
        self, replica: ReplicaSim, active: ActiveRequest, start_s: float, end_s: float
    ) -> None:
        """Prefill ``replica`` ships ``active``'s KV cache over ``[start_s, end_s]``."""

    def on_handoff(self, replica: ReplicaSim, active: ActiveRequest, ready_s: float) -> None:
        """Decode ``replica`` receives ``active``, whose transfer ended at ``ready_s``."""

    def on_finish(self, replicas: Sequence[ReplicaSim]) -> None:
        """The run drained; each replica's ``completed`` records are id-sorted."""
