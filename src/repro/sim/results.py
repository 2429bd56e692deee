"""Simulation results: the statistics reported throughout the paper's evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.common.mathutils import safe_div
from repro.dram.system import DramStats
from repro.llc.llc import LLCStats


@dataclass(frozen=True, slots=True)
class CoreResult:
    """Per-core summary."""

    core_id: int
    issued_requests: int
    l1_hits: int
    mem_stall_cycles: int
    idle_cycles: int
    active_cycles: int
    completed_blocks: int
    final_max_running_blocks: int

    def to_dict(self) -> dict:
        """JSON-ready mapping of the counters; round-trips via :meth:`from_dict`."""

        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CoreResult":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass(frozen=True, slots=True)
class SimResult:
    """Complete result of one simulation run.

    The fields mirror the metrics of Fig 8: execution time (cycles), L2 hit
    rate, MSHR hit rate, MSHR entry utilisation and DRAM bandwidth, plus enough
    raw counters to derive anything else the experiments need.
    """

    #: Result-kind tag used by the sweep store to pick the right deserializer.
    result_kind: ClassVar[str] = "sim"

    label: str
    workload: str
    cycles: int
    frequency_ghz: float
    llc: LLCStats
    dram: DramStats
    cores: tuple[CoreResult, ...] = ()
    thread_blocks: int = 0
    total_requests_issued: int = 0
    noc_requests: int = 0
    noc_responses: int = 0
    #: How the run terminated: "completed", "max_cycles" or "livelock" (the
    #: :class:`~repro.sim.liveness.TerminationStatus` values).  Anything other
    #: than "completed" means the counters describe a truncated run.
    status: str = "completed"
    meta: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    # -- headline metrics ------------------------------------------------------------------
    @property
    def execution_time_us(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e3)

    @property
    def l2_hit_rate(self) -> float:
        return self.llc.hit_rate

    @property
    def mshr_hit_rate(self) -> float:
        return self.llc.mshr_hit_rate

    @property
    def mshr_entry_utilization(self) -> float:
        return self.llc.mshr_entry_utilization

    @property
    def dram_bandwidth_gbps(self) -> float:
        return self.dram.bandwidth_gbps(self.cycles, self.frequency_ghz)

    @property
    def dram_accesses(self) -> int:
        return self.dram.accesses

    @property
    def cache_stall_ratio(self) -> float:
        """t_cs of Table 3, averaged over slices and the whole run."""

        slices = max(1, self.meta.get("num_slices", 1))
        return safe_div(self.llc.stall_cycles, self.cycles * slices)

    def speedup_over(self, baseline: "SimResult") -> float:
        """Speedup of this run relative to ``baseline`` (same workload)."""

        return baseline.cycles / self.cycles

    # -- formatting ---------------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"[{self.label}] {self.workload}: {self.cycles} cycles "
            f"({self.execution_time_us:.1f} us), L2 hit {self.l2_hit_rate:.2%}, "
            f"MSHR hit {self.mshr_hit_rate:.2%}, MSHR util {self.mshr_entry_utilization:.2f}, "
            f"DRAM {self.dram_bandwidth_gbps:.1f} GB/s, stall ratio {self.cache_stall_ratio:.2%}"
        )

    def headline_metrics(self) -> dict:
        """Flat dictionary of the headline metrics (for tables / JSON dumps)."""

        return {
            "label": self.label,
            "workload": self.workload,
            "cycles": self.cycles,
            "execution_time_us": self.execution_time_us,
            "l2_hit_rate": self.l2_hit_rate,
            "mshr_hit_rate": self.mshr_hit_rate,
            "mshr_entry_utilization": self.mshr_entry_utilization,
            "dram_bandwidth_gbps": self.dram_bandwidth_gbps,
            "dram_accesses": self.dram_accesses,
            "cache_stall_ratio": self.cache_stall_ratio,
            "thread_blocks": self.thread_blocks,
        }

    # -- serialization (sweep result store) ---------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready nested mapping that round-trips via :meth:`from_dict`.

        The raw counters are authoritative; the derived headline metrics ride
        along under ``"metrics"`` for human consumers and are ignored (and
        recomputed on demand) when a result is rebuilt.
        """

        return {
            "label": self.label,
            "workload": self.workload,
            "cycles": self.cycles,
            "frequency_ghz": self.frequency_ghz,
            "llc": self.llc.to_dict(),
            "dram": self.dram.to_dict(),
            "cores": [core.to_dict() for core in self.cores],
            "thread_blocks": self.thread_blocks,
            "total_requests_issued": self.total_requests_issued,
            "noc_requests": self.noc_requests,
            "noc_responses": self.noc_responses,
            "status": self.status,
            "meta": dict(self.meta),
            # Derived ride-along block for humans/dashboards; recomputed from
            # the component stats on load, so from_dict never reads it.
            "metrics": self.headline_metrics(),  # repro: noqa[SER001]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        return cls(
            label=data["label"],
            workload=data["workload"],
            cycles=data["cycles"],
            frequency_ghz=data["frequency_ghz"],
            llc=LLCStats.from_dict(data["llc"]),
            dram=DramStats.from_dict(data["dram"]),
            cores=tuple(CoreResult.from_dict(core) for core in data["cores"]),
            thread_blocks=data["thread_blocks"],
            total_requests_issued=data["total_requests_issued"],
            noc_requests=data["noc_requests"],
            noc_responses=data["noc_responses"],
            # Pre-PR-9 stores have no termination status; those runs could
            # only have been written after a successful drain.
            status=data.get("status", "completed"),
            meta=dict(data["meta"]),
        )
