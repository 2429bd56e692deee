"""Multi-channel DRAM system facade used by the LLC."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.common.address import DramAddressMap
from repro.common.mathutils import safe_div
from repro.config.system import DramConfig
from repro.dram.channel import DramChannel, DramTransaction
from repro.dram.timing import DramTiming


@dataclass(frozen=True, slots=True)
class DramStats:
    """Aggregate DRAM statistics for one simulation."""

    reads: int
    writes: int
    row_hits: int
    row_misses: int
    row_conflicts: int
    bytes_transferred: int
    busy_cycles: int
    avg_queue_wait: float

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return safe_div(self.row_hits, self.accesses)

    def bandwidth_gbps(self, cycles: int, frequency_ghz: float) -> float:
        """Achieved bandwidth over a run of ``cycles`` core cycles."""

        seconds = safe_div(cycles, frequency_ghz * 1e9)
        return safe_div(self.bytes_transferred, seconds) / 1e9

    # -- serialization (sweep result store) --------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping of the raw counters; round-trips via :meth:`from_dict`."""

        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DramStats":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


#: ``DramSystem.next_active_cycle`` while no channel holds an access.
_NEVER = 1 << 62


class DramSystem:
    """All channels plus the address interleaving map.

    A channel acts on a cycle only when an in-flight access completes or when
    it holds a queued access and has room in its pipeline; on every other
    cycle its tick does nothing.  :attr:`next_active_cycle` is the earliest
    cycle at which any channel can act, and the system loop calls
    :meth:`tick` only from that cycle on.
    """

    def __init__(self, config: DramConfig, core_frequency_ghz: float, line_size: int = 64):
        config.validate()
        self.config = config
        self.timing = DramTiming.from_config(config, core_frequency_ghz)
        self.line_size = line_size
        self.address_map = DramAddressMap(
            line_size=line_size,
            num_channels=config.num_channels,
            num_ranks=config.num_ranks,
            num_banks=config.num_banks,
            row_bytes=config.row_bytes,
        )
        self.channels = [
            DramChannel(
                channel_id=c,
                timing=self.timing,
                num_ranks=config.num_ranks,
                num_banks=config.num_banks,
                queue_depth=config.queue_depth,
                line_size=line_size,
            )
            for c in range(config.num_channels)
        ]
        #: Earliest cycle at which a channel can act: the next completion of
        #: an in-flight access, or the cycle after a tick that left a queued
        #: access with pipeline room or after an accepted :meth:`enqueue`.
        self.next_active_cycle = _NEVER

    # -- request interface -----------------------------------------------------------
    def can_accept(self, line_addr: int) -> bool:
        """True when the owning channel's controller queue has room."""

        return self.channels[self.address_map.channel_of(line_addr)].can_accept

    def enqueue(self, line_addr: int, is_write: bool, payload: Any, cycle: int) -> bool:
        """Enqueue a line access; returns False when the channel queue is full."""

        channel_id, rank, bank, row = self.address_map.decompose(line_addr)
        txn = DramTransaction(
            line_addr=line_addr,
            rank=rank,
            bank=bank,
            row=row,
            is_write=is_write,
            payload=payload,
            enqueue_cycle=cycle,
        )
        if not self.channels[channel_id].enqueue(txn):
            return False
        if cycle < self.next_active_cycle:
            self.next_active_cycle = cycle + 1
        return True

    def tick(self, cycle: int) -> list[tuple[Any, int, bool]]:
        """Advance all channels; return completed (payload, line_addr, is_write).

        Only the channels that can act on ``cycle`` are ticked; the others'
        ticks would do nothing.
        """

        completed: list[tuple[Any, int, bool]] = []
        next_active = _NEVER
        for channel in self.channels:
            queue = channel.queue
            in_flight = channel.in_flight
            if (in_flight and in_flight[0][0] <= cycle) or (
                queue and len(in_flight) < channel.pipeline_depth
            ):
                completed += channel.tick(cycle)
            if queue and len(in_flight) < channel.pipeline_depth:
                next_active = cycle + 1
            elif in_flight and in_flight[0][0] < next_active:
                next_active = in_flight[0][0]
        self.next_active_cycle = next_active
        return completed

    def has_work(self) -> bool:
        return any(channel.has_work for channel in self.channels)

    # -- statistics --------------------------------------------------------------------
    def stats(self) -> DramStats:
        reads = sum(c.reads for c in self.channels)
        writes = sum(c.writes for c in self.channels)
        accesses = reads + writes
        return DramStats(
            reads=reads,
            writes=writes,
            row_hits=sum(c.row_hits for c in self.channels),
            row_misses=sum(c.row_misses for c in self.channels),
            row_conflicts=sum(c.row_conflicts for c in self.channels),
            bytes_transferred=sum(c.bytes_transferred for c in self.channels),
            busy_cycles=sum(c.busy_cycles for c in self.channels),
            avg_queue_wait=safe_div(sum(c.total_queue_wait for c in self.channels), accesses),
        )
