"""The sliced LLC: builds the per-slice pipelines and aggregates their statistics."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.arbiter.base import BaseArbiter
from repro.arbiter.factory import make_arbiter
from repro.common.address import AddressMap
from repro.common.mathutils import safe_div
from repro.config.policies import PolicyConfig
from repro.config.system import L2Config
from repro.llc.slice import DramSink, LLCSlice, ResponseSink


@dataclass(frozen=True, slots=True)
class LLCStats:
    """Aggregate statistics over all slices."""

    hits: int
    misses: int
    mshr_merges: int
    mshr_allocations: int
    stall_cycles: int
    mshr_entry_utilization: float
    requests_accepted: int
    dram_reads: int
    dram_writes: int
    writebacks: int
    peak_mshr_occupancy: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return safe_div(self.hits, self.accesses)

    @property
    def mshr_hit_rate(self) -> float:
        return safe_div(self.mshr_merges, self.mshr_merges + self.mshr_allocations)

    # -- serialization (sweep result store) --------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping of the raw counters; round-trips via :meth:`from_dict`."""

        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LLCStats":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


class SlicedLLC:
    """All LLC slices of the system, each with its own arbiter instance."""

    def __init__(
        self,
        config: L2Config,
        policy: PolicyConfig,
        num_cores: int,
        response_sink: ResponseSink,
        dram_sink: DramSink,
    ) -> None:
        config.validate()
        policy.validate()
        self.config = config
        self.policy = policy
        self.address_map = AddressMap(line_size=config.line_size, num_slices=config.num_slices)
        self.slices: list[LLCSlice] = []
        self.arbiters: list[BaseArbiter] = []
        for slice_id in range(config.num_slices):
            arbiter = make_arbiter(policy, config, num_cores)
            self.arbiters.append(arbiter)
            self.slices.append(
                LLCSlice(
                    slice_id=slice_id,
                    config=config,
                    address_map=self.address_map,
                    arbiter=arbiter,
                    response_sink=response_sink,
                    dram_sink=dram_sink,
                )
            )
        self.num_cores = num_cores

    # -- routing -----------------------------------------------------------------------
    def slice_sinks(self):
        """Per-slice request sinks handed to the interconnect."""

        return [s.accept_request for s in self.slices]

    def on_dram_fill(self, slice_id: int, line_addr: int, cycle: int) -> None:
        self.slices[slice_id].on_dram_fill(line_addr, cycle)

    # -- per-cycle ---------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        for llc_slice in self.slices:
            if llc_slice.parked:
                # Its tick would only fail the same MSHR reservation again.
                llc_slice.busy_cycles += 1
                llc_slice.stall_cycles += 1
            else:
                llc_slice.tick(cycle)

    # -- throttling-controller interfaces -----------------------------------------------
    def stall_cycles_total(self) -> int:
        return sum(s.stall_cycles for s in self.slices)

    def progress_by_core(self) -> list[int]:
        """Per-core served-request counts summed over all slice arbiters."""

        totals = [0] * self.num_cores
        for arbiter in self.arbiters:
            for core_id, count in enumerate(arbiter.progress_counters):
                totals[core_id] += count
        return totals

    def reset_progress(self) -> None:
        for arbiter in self.arbiters:
            arbiter.reset_progress()

    # -- aggregation ---------------------------------------------------------------------
    def outstanding_work(self) -> bool:
        return any(s.outstanding_work for s in self.slices)

    def stats(self, final_cycle: int) -> LLCStats:
        mshr_util = safe_div(
            sum(s.mshr.utilization(final_cycle) for s in self.slices), len(self.slices)
        )
        return LLCStats(
            hits=sum(s.hits for s in self.slices),
            misses=sum(s.misses for s in self.slices),
            mshr_merges=sum(s.mshr_merges for s in self.slices),
            mshr_allocations=sum(s.mshr_allocations for s in self.slices),
            stall_cycles=sum(s.stall_cycles for s in self.slices),
            mshr_entry_utilization=mshr_util,
            requests_accepted=sum(s.requests_accepted for s in self.slices),
            dram_reads=sum(s.dram_reads_issued for s in self.slices),
            dram_writes=sum(s.dram_writes_issued for s in self.slices),
            writebacks=sum(s.writebacks for s in self.slices),
            peak_mshr_occupancy=max(s.mshr.peak_occupancy for s in self.slices),
        )
