"""Runtime divergence localization for the serving simulators.

Static rules catch nondeterminism *patterns*; this module catches
nondeterminism *behavior*.  A :class:`StepProbe` -- an
:class:`~repro.obs.observer.Observer` of the serving loop, installed like any
other sink -- records a :class:`StepDigest` for every costed scheduler
iteration: the waiting queue, the running batch's exact progress,
the step plan, its cycle cost and the arrival sampler's RNG stream position,
all folded into a sha256 over a canonical JSON payload.

:func:`check_determinism` runs a scenario twice and
:func:`localize_divergence` bisects the two digest sequences to the first
step where they disagree, turning "the hashes differ" into "step 17 on
replica 2: the waiting queue changed".  :class:`RngJitterArrival` is the
matching fault injector -- a deliberately *unseeded* arrival-jitter wrapper
used by tests and CI to prove the localizer actually localizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.obs.observer import Observer
from repro.serve.arrival import ArrivalProcess
from repro.serve.request import Request
from repro.sim.runner import clear_trace_cache

__all__ = [
    "DeterminismReport",
    "RngJitterArrival",
    "StepDigest",
    "StepProbe",
    "check_determinism",
    "collect_digests",
    "localize_divergence",
]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _rng_token(arrival: ArrivalProcess | None) -> dict | None:
    """The arrival sampler's RNG stream position, as JSON-able state.

    Open-loop processes draw their whole stream up front, so their position is
    frozen for the run; closed-loop processes keep sampling as requests
    complete, which is exactly when a stray draw elsewhere would shift the
    stream.  Arrival processes without a sampler (e.g. pre-materialized
    traces) digest as ``None``.
    """

    if arrival is None:
        return None
    sampler = getattr(arrival, "_sampler", None) or getattr(arrival, "sampler", None)
    rng = getattr(sampler, "_rng", None)
    if rng is None:
        return None
    state = rng.bit_generator.state
    return {
        "bit_generator": state.get("bit_generator"),
        "state": {k: int(v) for k, v in state.get("state", {}).items()},
    }


@dataclass(frozen=True, slots=True)
class StepDigest:
    """One costed scheduler iteration, reduced to a comparable fingerprint.

    ``payload`` is the canonical JSON the digest hashes -- kept alongside so a
    localized divergence can say *which* state component changed, not just
    that the hashes differ.
    """

    replica_id: int
    step: int
    start_s: float
    digest: str
    payload: str

    def state(self) -> dict:
        return json.loads(self.payload)

    def changed_keys(self, other: "StepDigest") -> tuple[str, ...]:
        """The top-level state components on which two digests disagree."""

        mine, theirs = self.state(), other.state()
        return tuple(
            sorted(
                key
                for key in set(mine) | set(theirs)
                if mine.get(key) != theirs.get(key)
            )
        )

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "step": self.step,
            "start_s": self.start_s,
            "digest": self.digest,
        }


class StepProbe(Observer):
    """Records a state digest at every step the serving loop launches.

    :meth:`on_start` keeps the run's arrival process so each digest can
    include the RNG stream position without threading it through every call.
    """

    def __init__(self) -> None:
        self.digests: list[StepDigest] = []
        self.arrival: ArrivalProcess | None = None

    def on_start(self, arrival, replicas) -> None:
        self.arrival = arrival

    def on_step(self, replica, start_s, end_s, plan, cycles) -> None:
        scheduler = replica.scheduler
        state = {
            "replica": replica.replica_id,
            "start_s": start_s,
            "waiting": [
                [r.request_id, r.arrival_s] for r in scheduler.waiting
            ],
            "running": [
                [
                    a.request.request_id,
                    a.generated,
                    a.prefill_remaining,
                ]
                for a in scheduler.running
            ],
            "decode": [a.request.request_id for a in plan.decode],
            "prefill": [[a.request.request_id, chunk] for a, chunk in plan.prefill],
            "cycles": cycles,
            "rng": _rng_token(self.arrival),
        }
        payload = _canonical(state)
        self.digests.append(
            StepDigest(
                replica_id=replica.replica_id,
                step=replica.steps,
                start_s=start_s,
                digest=hashlib.sha256(payload.encode()).hexdigest(),
                payload=payload,
            )
        )


class RngJitterArrival(ArrivalProcess):
    """Fault injector: perturb arrivals with a deliberately unseeded RNG.

    Wraps a real arrival process and adds sub-millisecond jitter to the
    arrival time of every request with ``request_id >= after_id`` -- exactly
    the bug class DET001 exists to prevent, reproduced on purpose so tests and
    the CI smoke can prove ``check_determinism`` localizes it (the first
    digest that sees a jittered request diverges; everything before it
    matches).
    """

    name = "rng-jitter"

    def __init__(
        self,
        inner: ArrivalProcess,
        after_id: int = 4,
        scale_s: float = 1e-4,
    ) -> None:
        import random  # repro: noqa[DET001] -- deliberate nondeterminism injector

        self.inner = inner
        self.after_id = after_id
        self.scale_s = scale_s
        self._rng = random.Random()  # unseeded: different every process/run

    def _perturb(self, request: Request | None) -> Request | None:
        if request is None or request.request_id < self.after_id:
            return request
        return replace(
            request, arrival_s=request.arrival_s + self._rng.random() * self.scale_s
        )

    def initial(self) -> tuple[Request, ...]:
        return tuple(self._perturb(r) for r in self.inner.initial())

    def on_complete(self, request: Request, now_s: float) -> Request | None:
        return self._perturb(self.inner.on_complete(request, now_s))


@dataclass(frozen=True, slots=True)
class DeterminismReport:
    """The verdict of running one scenario twice and comparing step digests."""

    label: str
    steps_first: int
    steps_second: int
    #: Index (into the digest sequences) of the first disagreement; None when
    #: the runs are step-for-step identical.
    divergent_step: int | None
    first: StepDigest | None
    second: StepDigest | None
    #: The state components that differ at the divergent step.
    changed: tuple[str, ...]

    @property
    def deterministic(self) -> bool:
        return self.divergent_step is None and self.steps_first == self.steps_second

    def render(self) -> str:
        if self.deterministic:
            return (
                f"determinism check [{self.label}]: OK -- "
                f"{self.steps_first} steps, digests identical"
            )
        lines = [f"determinism check [{self.label}]: DIVERGED"]
        if self.divergent_step is not None and self.first is not None:
            what = ", ".join(self.changed) if self.changed else "state"
            lines.append(
                f"  first divergent step: #{self.divergent_step} "
                f"(replica {self.first.replica_id}, step {self.first.step} "
                f"at t={self.first.start_s:.6f}s)"
            )
            lines.append(f"  changed: {what}")
            lines.append(f"  run 1 digest: {self.first.digest[:16]}")
            if self.second is not None:
                lines.append(f"  run 2 digest: {self.second.digest[:16]}")
        if self.steps_first != self.steps_second:
            lines.append(
                f"  step counts differ: {self.steps_first} vs {self.steps_second}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "deterministic": self.deterministic,
            "steps": [self.steps_first, self.steps_second],
            "divergent_step": self.divergent_step,
            "changed": list(self.changed),
            "first": None if self.first is None else self.first.to_dict(),
            "second": None if self.second is None else self.second.to_dict(),
        }


def collect_digests(
    scenario: Any,
    wrap_arrival: Callable[[ArrivalProcess], ArrivalProcess] | None = None,
) -> tuple[StepDigest, ...]:
    """Run ``scenario`` once with a probe installed and return its digests.

    ``scenario`` is anything with ``build_simulator()`` (serve or cluster);
    ``wrap_arrival`` optionally replaces the simulator's arrival process --
    the seam :class:`RngJitterArrival` injects through.  Mirrors
    ``scenario.run()`` in clearing the module-level trace cache afterwards.
    """

    simulator = scenario.build_simulator()
    if wrap_arrival is not None:
        simulator.arrival = wrap_arrival(simulator.arrival)
    probe = StepProbe()
    try:
        simulator.run(observers=[probe])
    finally:
        clear_trace_cache()
    return tuple(probe.digests)


def localize_divergence(
    first: Sequence[StepDigest],
    second: Sequence[StepDigest],
    label: str = "scenario",
) -> DeterminismReport:
    """Find the first step at which two digest sequences disagree."""

    for index, (a, b) in enumerate(zip(first, second, strict=False)):
        if a.digest != b.digest:
            return DeterminismReport(
                label=label,
                steps_first=len(first),
                steps_second=len(second),
                divergent_step=index,
                first=a,
                second=b,
                changed=a.changed_keys(b),
            )
    if len(first) != len(second):
        # One run kept stepping after the other stopped: the divergence is the
        # first unmatched step.
        index = min(len(first), len(second))
        longer = first if len(first) > len(second) else second
        return DeterminismReport(
            label=label,
            steps_first=len(first),
            steps_second=len(second),
            divergent_step=index,
            first=longer[index],
            second=None,
            changed=("steps",),
        )
    return DeterminismReport(
        label=label,
        steps_first=len(first),
        steps_second=len(second),
        divergent_step=None,
        first=None,
        second=None,
        changed=(),
    )


def check_determinism(
    scenario: Any,
    label: str | None = None,
    wrap_arrival: Callable[[ArrivalProcess], ArrivalProcess] | None = None,
) -> DeterminismReport:
    """Run ``scenario`` twice and localize the first divergent step, if any.

    A clean scenario reports zero divergent steps (both runs produce the same
    digest sequence); a scenario with injected nondeterminism -- or a real
    determinism bug -- is pinned to the exact step, replica and state
    component where the two executions first disagree.
    """

    name = label if label is not None else getattr(scenario, "display_label", "scenario")
    first = collect_digests(scenario, wrap_arrival=wrap_arrival)
    second = collect_digests(scenario, wrap_arrival=wrap_arrival)
    return localize_divergence(first, second, label=name)
