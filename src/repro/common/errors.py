"""Exception hierarchy used across the reproduction."""


class ReproError(Exception):
    """Base class for all library-specific exceptions."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class SimulationError(ReproError):
    """Raised when the simulator reaches an impossible state.

    Any occurrence of this exception indicates a bug in the model (for
    example, freeing an MSHR entry twice), never a property of the workload.
    ``report`` is the :class:`repro.sim.liveness.StallReport` snapshot of a
    run that stopped without draining (the cycle cap, or a livelock), and
    ``None`` otherwise.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class LivelockError(SimulationError):
    """Raised by the liveness watchdog when a run stops making progress.

    ``report`` is the snapshot taken at the moment the watchdog fired (``None``
    only when the error is constructed without one); the rendered report is
    also embedded in the message so any layer that merely stringifies the
    failure -- sweep failure records, CI logs -- still shows the
    component-level stall state.
    """


class TraceError(ReproError):
    """Raised when a memory trace is malformed or inconsistent."""
