"""Core value types exchanged between cores, the NoC, the LLC and DRAM.

The simulator is organised around :class:`MemRequest` objects flowing from the
cores towards DRAM and :class:`MemResponse` objects flowing back.  Both are
plain mutable dataclasses with ``slots`` to keep per-request overhead low --
a single decode-operator simulation creates tens of thousands of them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class AccessType(enum.IntEnum):
    """Read/write direction of a memory access."""

    READ = 0
    WRITE = 1


class RequestKind(enum.IntEnum):
    """Which tensor a request belongs to (used for statistics only)."""

    KV = 0          # KV-cache (the dominant traffic in decode)
    ACTIVATION = 1  # queries / attention scores
    OUTPUT = 2      # operator output writes
    OTHER = 3


_REQ_ID_COUNTER = itertools.count()


def next_request_id() -> int:
    """Return a process-wide unique request identifier."""

    return next(_REQ_ID_COUNTER)


def line_address(addr: int, line_size: int) -> int:
    """Align ``addr`` down to its cache-line address."""

    return addr - (addr % line_size)


@dataclass(slots=True)
class MemRequest:
    """A memory request as seen by the LLC.

    Requests carry enough provenance (core, thread block) for the balanced
    arbiter and the throttling controllers to attribute traffic to cores.
    """

    addr: int
    rw: AccessType
    core_id: int
    tb_id: int = -1
    kind: RequestKind = RequestKind.KV
    size: int = 64
    req_id: int = field(default_factory=next_request_id)
    issue_cycle: int = 0          # cycle the core issued the access
    arrive_cycle: int = 0         # cycle it entered the LLC request queue
    line_addr: int = -1           # filled by the issuing L1 / NoC

    def aligned(self, line_size: int) -> "MemRequest":
        """Return ``self`` with ``line_addr`` populated for ``line_size``."""

        self.line_addr = line_address(self.addr, line_size)
        return self

    @property
    def is_write(self) -> bool:
        return self.rw == AccessType.WRITE


@dataclass(slots=True)
class MemResponse:
    """Completion notification delivered back to the requesting core."""

    req_id: int
    core_id: int
    tb_id: int
    line_addr: int
    rw: AccessType
    complete_cycle: int
    served_by: str = "l2"   # "l1" | "l2" | "mshr" | "dram" -- statistics only


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One element of a per-thread-block memory trace.

    ``compute_cycles`` are spent before the memory access is issued; an entry
    with ``addr < 0`` is a pure-compute bubble (no memory access at all).
    Frozen: the trace generator shares one entry between every thread block
    that streams the same KV row.
    """

    compute_cycles: int
    addr: int
    rw: AccessType = AccessType.READ
    size: int = 64
    kind: RequestKind = RequestKind.KV

    @property
    def has_access(self) -> bool:
        return self.addr >= 0
