"""Liveness smoke check for the cycle engine (the kernel-sim counterpart of
:mod:`repro.analysis.runtime`).

:func:`check_liveness` drives the previously-livelocked cobrra drain point
(llama3-70b, L=128 / L2=0.5MiB at ci tier -- the exact configuration from the
PR 9 bug report) through the full ``Scenario`` path twice and verifies (1) it
terminates with ``completed`` status well under the cycle guard and (2) the
two runs serialize byte-identically (the determinism contract, extended to
kernel simulations).

:class:`StarvationInjectedArbiter` is the matching fault injector -- it
reinstates the pre-fix COBRRA behaviour (request priority whenever response
occupancy sits below the threshold, even with an empty request queue) so tests
and the CI smoke can prove the engine's liveness watchdog actually fires: the
injected run must end with ``livelock`` status, a structured stall report and
a nonzero ``llamcat check`` exit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.api import Scenario
from repro.arbiter.cobrra import CobrraArbiter
from repro.config.scale import ScaleTier
from repro.sim.engine import DEFAULT_MAX_CYCLES, SimulationEngine
from repro.sim.liveness import DEFAULT_PATIENCE_CYCLES, LivenessConfig, TerminationStatus
from repro.sim.runner import cached_trace, clear_trace_cache
from repro.sim.system import SimulatedSystem

__all__ = [
    "LivenessReport",
    "StarvationInjectedArbiter",
    "check_liveness",
    "livelock_scenario",
]


class StarvationInjectedArbiter(CobrraArbiter):
    """Fault injector: the pre-PR-9 COBRRA arbitration, starvation included.

    Forces request priority whenever response-queue occupancy sits below the
    threshold -- also when the request queue is empty -- which livelocks the
    uncore drain once every thread block has completed.  Used to prove the
    liveness watchdog catches exactly this regression class.
    """

    name = "cobrra-starved"

    def wants_response_priority(
        self, resp_queue_len: int, resp_queue_capacity: int, req_queue_len: int
    ) -> bool | None:
        if resp_queue_len == 0:
            return False
        occupancy = resp_queue_len / resp_queue_capacity if resp_queue_capacity else 0.0
        if occupancy < self.params.resp_priority_threshold:
            return False
        self._serve_response_next = not self._serve_response_next
        return self._serve_response_next


def livelock_scenario(
    policy: str = "cobrra", tier: ScaleTier = ScaleTier.CI
) -> Scenario:
    """The configuration that livelocked before the PR 9 drain fix.

    At ci tier the requested ``seq_len=4096`` scales to L=128 and the table5
    L2 to 0.5 MiB -- small enough that responses are still in flight when the
    request stream dries up.
    """

    return Scenario.create("llama3-70b", policy, seq_len=4096, tier=tier)


def _result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class LivenessReport:
    """Verdict of one liveness smoke run."""

    label: str
    status: str
    cycles: int
    injected: bool
    digest_first: str | None
    digest_second: str | None
    #: Rendered stall report; set only when the run did not complete.
    stall: str | None

    @property
    def identical(self) -> bool:
        return (
            self.digest_first is not None and self.digest_first == self.digest_second
        )

    @property
    def ok(self) -> bool:
        return self.status == TerminationStatus.COMPLETED.value and self.identical

    def render(self) -> str:
        if self.ok:
            return (
                f"liveness check [{self.label}]: OK -- completed in "
                f"{self.cycles} cycles, digests identical"
            )
        if self.status == TerminationStatus.COMPLETED.value:
            return (
                f"liveness check [{self.label}]: DIVERGED -- "
                f"run 1 {self.digest_first[:16] if self.digest_first else '?'} "
                f"vs run 2 {self.digest_second[:16] if self.digest_second else '?'}"
            )
        lines = [
            f"liveness check [{self.label}]: LIVELOCK"
            if self.status == TerminationStatus.LIVELOCK.value
            else f"liveness check [{self.label}]: {self.status.upper()}"
        ]
        if self.stall:
            lines.append(self.stall)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "cycles": self.cycles,
            "injected": self.injected,
            "ok": self.ok,
            "digests": [self.digest_first, self.digest_second],
            "stall": self.stall,
        }


def _run_injected(scenario: Scenario, patience: int) -> LivenessReport:
    """Run the scenario with the starvation injector swapped into every slice."""

    system_cfg, workload, policy = scenario.resolve()
    try:
        trace = cached_trace(
            workload, system_cfg, scenario.ordering, scenario.constraints
        )
        system = SimulatedSystem(system_cfg, policy, trace)
        for index, llc_slice in enumerate(system.llc.slices):
            starved = StarvationInjectedArbiter(
                system_cfg.core.num_cores, policy.cobrra
            )
            system.llc.arbiters[index] = starved
            llc_slice.arbiter = starved
        engine = SimulationEngine(
            system,
            max_cycles=DEFAULT_MAX_CYCLES if scenario.max_cycles is None else scenario.max_cycles,
            liveness=LivenessConfig(patience=patience),
        )
        report = engine.run(raise_on_stall=False)
    finally:
        clear_trace_cache()
    return LivenessReport(
        label=f"{scenario.display_label}+starvation-injected",
        status=report.status.value,
        cycles=report.cycles,
        injected=True,
        digest_first=None,
        digest_second=None,
        stall=None if report.stall_report is None else report.stall_report.render(),
    )


def check_liveness(
    scenario: Scenario | None = None,
    inject_starvation: bool = False,
    patience: int = DEFAULT_PATIENCE_CYCLES,
) -> LivenessReport:
    """Run the liveness smoke; see the module docstring for the contract.

    The clean mode runs ``scenario`` twice through the public path and demands
    ``completed`` status plus byte-identical serialized results; the injected
    mode proves the watchdog converts the starvation regression into a
    ``livelock`` verdict with a stall report instead of a 20M-cycle burn.
    """

    scenario = scenario if scenario is not None else livelock_scenario()
    if inject_starvation:
        return _run_injected(scenario, patience)
    first = scenario.run()
    second = scenario.run()
    return LivenessReport(
        label=scenario.display_label,
        status=first.status,
        cycles=first.cycles,
        injected=False,
        digest_first=_result_digest(first),
        digest_second=_result_digest(second),
        stall=None,
    )
