"""Per-bank state: open row and availability."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class BankState:
    """State of one DRAM bank (within one rank of one channel)."""

    open_row: int | None = None
    #: Earliest core cycle at which the bank can accept a new column/activate command.
    ready_cycle: int = 0
    #: Statistics.
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0

    def classify(self, row: int) -> str:
        """Classify an access to ``row``: 'hit', 'closed' or 'conflict'."""

        if self.open_row is None:
            return "closed"
        if self.open_row == row:
            return "hit"
        return "conflict"


@dataclass(slots=True)
class BankArray:
    """All banks of one channel, addressed by (rank, bank)."""

    num_ranks: int
    num_banks: int
    banks: dict[tuple[int, int], BankState] = field(default_factory=dict)

    def get(self, rank: int, bank: int) -> BankState:
        key = (rank, bank)
        state = self.banks.get(key)
        if state is None:
            state = BankState()
            self.banks[key] = state
        return state
