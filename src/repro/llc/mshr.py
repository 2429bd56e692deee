"""Miss Status Holding Registers.

The MSHR file has two dimensions (§2.4): ``num_entries`` distinct outstanding
misses and ``num_targets`` requests mergeable into one entry.  The cache
pipeline stalls when a reservation fails in either dimension.  Entry occupancy
is integrated over time because the paper reports "MSHR entry util" (average
numEntry occupancy) as a first-order performance indicator (Fig 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.types import MemRequest


@dataclass(slots=True)
class MshrEntry:
    """One outstanding miss and the requests merged into it."""

    line_addr: int
    allocated_cycle: int
    targets: list[MemRequest] = field(default_factory=list)
    dispatched_to_dram: bool = False

    @property
    def num_targets(self) -> int:
        return len(self.targets)


class MshrFile:
    """MSHR file of one LLC slice."""

    __slots__ = (
        "num_entries",
        "num_targets",
        "_entries",
        "_snapshot",
        "allocations",
        "merges",
        "merge_failures_full_targets",
        "alloc_failures_full_entries",
        "_occupancy_integral",
        "_last_change_cycle",
        "peak_occupancy",
    )

    def __init__(self, num_entries: int, num_targets: int) -> None:
        if num_entries <= 0 or num_targets <= 0:
            raise SimulationError("MSHR dimensions must be positive")
        self.num_entries = num_entries
        self.num_targets = num_targets
        self._entries: dict[int, MshrEntry] = {}
        #: The entry keys, rebuilt on allocate and free (the only changes to them).
        self._snapshot: frozenset[int] = frozenset()
        self.allocations = 0
        self.merges = 0
        #: Failed reservation *attempts*, not stalled cycles: a parked slice
        #: stalls without retrying (see ``LLCSlice.parked``).  Not in ``SimResult``.
        self.merge_failures_full_targets = 0
        self.alloc_failures_full_entries = 0
        self._occupancy_integral = 0.0
        self._last_change_cycle = 0
        self.peak_occupancy = 0

    # -- occupancy accounting ----------------------------------------------------------
    def _account(self, cycle: int) -> None:
        if cycle < self._last_change_cycle:
            raise SimulationError(
                f"MSHR time went backwards: {cycle} < {self._last_change_cycle}"
            )
        self._occupancy_integral += len(self._entries) * (cycle - self._last_change_cycle)
        self._last_change_cycle = cycle

    def average_occupancy(self, final_cycle: int) -> float:
        """Mean number of occupied entries over [0, final_cycle]."""

        if final_cycle <= 0:
            return 0.0
        integral = self._occupancy_integral + len(self._entries) * (
            final_cycle - self._last_change_cycle
        )
        return integral / final_cycle

    def utilization(self, final_cycle: int) -> float:
        """Average occupancy normalised to the number of entries (0..1)."""

        return self.average_occupancy(final_cycle) / self.num_entries

    # -- lookup / reservation -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def lookup(self, line_addr: int) -> MshrEntry | None:
        return self._entries.get(line_addr)

    def pending_lines(self) -> frozenset[int]:
        """The MSHR_snapshot of §4.3: the set of line addresses currently pending.

        Immutable: the next allocation or free replaces it rather than
        updating it, so a snapshot taken earlier stays as it was.
        """

        return self._snapshot

    def reserve(self, req: MemRequest, cycle: int) -> str:
        """Attempt a reservation for ``req``; returns the outcome.

        Returns one of:

        * ``"merged"``    -- an entry for the line existed and had a free target slot;
        * ``"allocated"`` -- a new entry was opened (a DRAM fetch must be issued);
        * ``"stall"``     -- no resources (either target slots or entries exhausted).
        """

        entry = self._entries.get(req.line_addr)
        if entry is not None:
            if entry.num_targets < self.num_targets:
                entry.targets.append(req)
                self.merges += 1
                return "merged"
            self.merge_failures_full_targets += 1
            return "stall"
        if len(self._entries) >= self.num_entries:
            self.alloc_failures_full_entries += 1
            return "stall"
        self._account(cycle)
        self._entries[req.line_addr] = MshrEntry(
            line_addr=req.line_addr, allocated_cycle=cycle, targets=[req]
        )
        self._snapshot = frozenset(self._entries)
        self.allocations += 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return "allocated"

    def free(self, line_addr: int, cycle: int) -> MshrEntry:
        """Release the entry for ``line_addr`` (on DRAM fill) and return it."""

        if line_addr not in self._entries:
            raise SimulationError(f"freeing MSHR entry for absent line {line_addr:#x}")
        self._account(cycle)
        entry = self._entries.pop(line_addr)
        self._snapshot = frozenset(self._entries)
        return entry
