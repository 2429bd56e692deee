"""One DRAM channel: bounded controller queue, FR-FCFS scheduling, bank timing."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.dram.bank import BankArray
from repro.dram.timing import DramTiming


@dataclass(slots=True)
class DramTransaction:
    """A queued DRAM access (already at line granularity)."""

    line_addr: int
    rank: int
    bank: int
    row: int
    is_write: bool
    payload: Any
    enqueue_cycle: int


@dataclass(slots=True)
class DramChannel:
    """One channel with its own controller queue, banks and data bus."""

    channel_id: int
    timing: DramTiming
    num_ranks: int
    num_banks: int
    queue_depth: int
    line_size: int = 64

    queue: list[DramTransaction] = field(default_factory=list)
    banks: BankArray = field(init=False)
    #: Overlapping accesses needed to hide the worst-case latency; fixed,
    #: since ``timing`` is frozen.
    pipeline_depth: int = field(init=False)
    bus_free_cycle: int = 0
    #: min-heap of (complete_cycle, sequence, transaction) for in-flight accesses.
    in_flight: list[tuple[int, int, DramTransaction]] = field(default_factory=list)
    _seq: int = 0

    # statistics
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    busy_cycles: int = 0
    bytes_transferred: int = 0
    total_queue_wait: int = 0

    def __post_init__(self) -> None:
        self.banks = BankArray(num_ranks=self.num_ranks, num_banks=self.num_banks)
        timing = self.timing
        self.pipeline_depth = max(4, -(-timing.row_conflict_latency // timing.tBURST) + 1)

    # -- queue management ---------------------------------------------------------
    @property
    def can_accept(self) -> bool:
        return len(self.queue) < self.queue_depth

    @property
    def has_work(self) -> bool:
        return bool(self.queue) or bool(self.in_flight)

    def enqueue(self, txn: DramTransaction) -> bool:
        if not self.can_accept:
            return False
        self.queue.append(txn)
        return True

    # -- scheduling ------------------------------------------------------------------
    def _pick_fr_fcfs(self, cycle: int) -> int:
        """FR-FCFS: oldest row-buffer hit first, otherwise the oldest request."""

        best_hit = -1
        for i, txn in enumerate(self.queue):
            bank = self.banks.get(txn.rank, txn.bank)
            if bank.open_row == txn.row and bank.ready_cycle <= cycle:
                best_hit = i
                break
        if best_hit >= 0:
            return best_hit
        return 0

    def tick(self, cycle: int) -> list[tuple[Any, int, bool]]:
        """Advance the channel; return completed (payload, line_addr, is_write) tuples."""

        completed: list[tuple[Any, int, bool]] = []
        while self.in_flight and self.in_flight[0][0] <= cycle:
            _, _, txn = heapq.heappop(self.in_flight)
            completed.append((txn.payload, txn.line_addr, txn.is_write))

        # Issue at most one new transaction per cycle.  The issue window is sized
        # so that column/activate latencies fully overlap with earlier data
        # bursts (keeping the data bus at peak utilisation) while still leaving
        # most of the backlog in the queue where FR-FCFS can reorder it.
        if self.queue and len(self.in_flight) < self.pipeline_depth:
            idx = self._pick_fr_fcfs(cycle)
            txn = self.queue.pop(idx)
            self._issue(txn, cycle)
        return completed

    def _issue(self, txn: DramTransaction, cycle: int) -> None:
        timing = self.timing
        bank = self.banks.get(txn.rank, txn.bank)
        kind = bank.classify(txn.row)

        # ``bank.ready_cycle`` is the earliest cycle the bank can accept its next
        # command sequence (PRE/ACT/CAS as needed).  Column-to-column spacing on
        # the same open row is tCCD; a precharge or activate pushes the next
        # command further out.
        command = max(cycle, bank.ready_cycle)
        overhead = timing.tOVERHEAD
        if kind == "hit":
            data_ready = command + overhead + timing.tCL + timing.tBURST
            bank.ready_cycle = command + timing.tCCD
            bank.row_hits += 1
            self.row_hits += 1
        elif kind == "closed":
            data_ready = command + overhead + timing.tRCD + timing.tCL + timing.tBURST
            bank.ready_cycle = command + timing.tRCD + timing.tCCD
            bank.row_misses += 1
            bank.activations += 1
            self.row_misses += 1
        else:
            data_ready = command + overhead + timing.tRP + timing.tRCD + timing.tCL + timing.tBURST
            bank.ready_cycle = command + timing.tRP + timing.tRCD + timing.tCCD
            bank.row_conflicts += 1
            bank.activations += 1
            self.row_conflicts += 1

        # Data bursts on the shared bus cannot overlap: the burst of this access
        # ends no earlier than one burst time after the previous one ended.  CAS
        # and activate latencies overlap with earlier bursts (including on the
        # same bank, where only tCCD separates column commands), which is what
        # gives the channel its pipelined peak bandwidth.
        complete = max(data_ready, self.bus_free_cycle + timing.tBURST)
        bank.open_row = txn.row
        if txn.is_write:
            # Write recovery holds the bank after the data burst lands.
            bank.ready_cycle = complete + timing.tWR
        self.bus_free_cycle = complete
        self.busy_cycles += timing.tBURST

        if txn.is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += self.line_size
        self.total_queue_wait += max(0, cycle - txn.enqueue_cycle)

        heapq.heappush(self.in_flight, (complete, self._seq, txn))
        self._seq += 1
