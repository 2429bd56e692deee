"""Instruction windows: the per-core structures a thread block executes in."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.types import MemRequest
from repro.trace.threadblock import ThreadBlock


@dataclass(slots=True)
class InstructionWindow:
    """One instruction window holding (at most) one thread block.

    The window walks its thread block's trace entries in order.  Memory
    accesses may overlap -- up to ``depth`` requests can be outstanding, which
    models the latency-hiding capacity of the 128-entry window of Table 5 --
    but the compute attached to an entry must finish before that entry's access
    is issued.
    """

    window_id: int
    depth: int
    tb: ThreadBlock | None = None
    cursor: int = 0
    outstanding: int = 0
    compute_ready_cycle: int = 0
    compute_charged: bool = False
    #: A request already prepared (L1 probed, trace entry consumed) that could
    #: not be injected into the interconnect due to back-pressure; retried on
    #: later cycles without repeating the L1 probe.
    pending_request: MemRequest | None = None

    def assign(self, tb: ThreadBlock, cycle: int) -> None:
        self.tb = tb
        self.cursor = 0
        self.outstanding = 0
        self.compute_ready_cycle = cycle
        self.compute_charged = False
        self.pending_request = None

    @property
    def busy(self) -> bool:
        """True while a thread block is assigned (running or draining)."""

        return self.tb is not None

    def release(self) -> ThreadBlock:
        """Clear the window after its thread block drained."""

        assert self.tb is not None
        finished = self.tb
        self.tb = None
        self.cursor = 0
        self.outstanding = 0
        self.compute_charged = False
        self.pending_request = None
        return finished

