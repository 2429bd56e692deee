"""Hardware configuration dataclasses (Table 5 of the paper).

Every structural parameter of the simulated system is captured here so that a
single :class:`SystemConfig` object fully determines the hardware; the
experiment harness sweeps these objects (cache size for Fig 9, etc.).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.address import is_power_of_two
from repro.common.errors import ConfigError

KIB = 1024
MIB = 1024 * KIB


class ReqRespArbitration(enum.Enum):
    """Request-vs-response arbitration at the shared cache-storage port (§3.3)."""

    RESPONSE_FIRST = "response-queue-first"
    REQUEST_FIRST = "request-first"


class WritePolicy(enum.Enum):
    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


class AllocPolicy(enum.Enum):
    ALLOC_ON_FILL = "alloc-on-fill"
    ALLOC_ON_MISS = "alloc-on-miss"


class WriteAllocPolicy(enum.Enum):
    WRITE_ALLOCATE = "write-allocate"
    WRITE_NO_ALLOCATE = "write-no-allocate"


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Vector-core parameters (Table 5, "Core" row)."""

    num_cores: int = 16
    num_inst_windows: int = 4
    inst_window_depth: int = 128
    vector_lanes: int = 128          # elements processed per vector instruction
    vector_bytes: int = 128          # "vector-len=128B" in Table 5
    issue_width: int = 1             # memory requests issued per cycle per core
    compute_cycles_per_vector_mac: int = 1

    def validate(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        if self.num_inst_windows <= 0:
            raise ConfigError("num_inst_windows must be positive")
        if self.inst_window_depth <= 0:
            raise ConfigError("inst_window_depth must be positive")
        if self.vector_lanes <= 0 or self.vector_bytes <= 0:
            raise ConfigError("vector dimensions must be positive")
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")


@dataclass(frozen=True, slots=True)
class L1Config:
    """Private streaming L1 (Table 5, "L1 cache" row)."""

    size_bytes: int = 64 * KIB
    line_size: int = 64
    associativity: int = 8
    latency: int = 1
    alloc_policy: AllocPolicy = AllocPolicy.ALLOC_ON_FILL
    write_policy: WritePolicy = WritePolicy.WRITE_THROUGH
    write_alloc: WriteAllocPolicy = WriteAllocPolicy.WRITE_NO_ALLOCATE
    streaming: bool = True

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)

    def validate(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ConfigError("L1 line_size must be a power of two")
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigError("L1 size must be divisible by line_size*associativity")
        if self.latency < 0:
            raise ConfigError("L1 latency must be non-negative")


@dataclass(frozen=True, slots=True)
class L2Config:
    """Shared sliced L2 / LLC (Table 5, "L2 slice" row)."""

    size_bytes: int = 16 * MIB
    num_slices: int = 8
    line_size: int = 64
    associativity: int = 8
    hit_latency: int = 3
    data_latency: int = 25
    mshr_latency: int = 5
    mshr_num_entries: int = 6       # per slice
    mshr_num_targets: int = 8       # merged requests per entry
    req_q_size: int = 12
    resp_q_size: int = 64
    alloc_policy: AllocPolicy = AllocPolicy.ALLOC_ON_FILL
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    write_alloc: WriteAllocPolicy = WriteAllocPolicy.WRITE_ALLOCATE
    req_resp_arbitration: ReqRespArbitration = ReqRespArbitration.RESPONSE_FIRST

    @property
    def slice_size_bytes(self) -> int:
        return self.size_bytes // self.num_slices

    @property
    def sets_per_slice(self) -> int:
        return self.slice_size_bytes // (self.line_size * self.associativity)

    def validate(self) -> None:
        if not is_power_of_two(self.num_slices):
            raise ConfigError("num_slices must be a power of two")
        if not is_power_of_two(self.line_size):
            raise ConfigError("L2 line_size must be a power of two")
        if self.size_bytes % self.num_slices != 0:
            raise ConfigError("L2 size must divide evenly across slices")
        if self.slice_size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigError("slice size must be divisible by line_size*associativity")
        if not is_power_of_two(self.sets_per_slice):
            raise ConfigError(
                f"sets per slice must be a power of two, got {self.sets_per_slice}"
            )
        for name in ("hit_latency", "data_latency", "mshr_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.mshr_num_entries <= 0 or self.mshr_num_targets <= 0:
            raise ConfigError("MSHR dimensions must be positive")
        if self.req_q_size <= 0 or self.resp_q_size <= 0:
            raise ConfigError("queue sizes must be positive")


@dataclass(frozen=True, slots=True)
class NoCConfig:
    """Interconnect between cores and LLC slices."""

    request_latency: int = 8
    response_latency: int = 8
    # Requests accepted per slice input port per cycle.
    slice_port_width: int = 1

    def validate(self) -> None:
        if self.request_latency < 0 or self.response_latency < 0:
            raise ConfigError("NoC latencies must be non-negative")
        if self.slice_port_width <= 0:
            raise ConfigError("slice_port_width must be positive")


@dataclass(frozen=True, slots=True)
class DramConfig:
    """DDR5-style main memory (Table 5, "DRAM" row).

    Timing parameters are given in memory-controller cycles of the data-bus
    clock and converted to core cycles by the DRAM model using
    ``core_freq_ghz`` / ``io_freq_mhz``.
    """

    standard: str = "DDR5_8Gb_x16"
    num_channels: int = 4
    num_ranks: int = 4
    num_banks: int = 16              # banks per rank (4 bank groups x 4 banks)
    row_bytes: int = 2 * KIB
    io_freq_mhz: float = 1600.0      # DDR5-3200: 1600 MHz clock, 3200 MT/s
    burst_length: int = 16
    device_width_bits: int = 16
    channel_width_bits: int = 32     # two x16 devices per channel
    # Timing in DRAM clock cycles (DDR5-3200 grade, JEDEC-typical values).
    tCL: int = 26
    tRCD: int = 26
    tRP: int = 26
    tRAS: int = 52
    tRC: int = 78
    tCCD: int = 8                    # back-to-back column commands, same bank group
    tRRD: int = 8
    tWR: int = 48
    queue_depth: int = 32            # per-channel controller queue
    #: Fixed memory-controller + PHY + on-die routing overhead per access, in
    #: nanoseconds.  This is latency only (it does not occupy the data bus); it
    #: models everything between the LLC miss leaving the slice and the first
    #: DRAM command, which dominates loaded memory latency on real devices.
    controller_overhead_ns: float = 55.0

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth over all channels in GB/s."""

        per_channel = 2 * self.io_freq_mhz * 1e6 * self.channel_width_bits / 8
        return per_channel * self.num_channels / 1e9

    def validate(self) -> None:
        if not is_power_of_two(self.num_channels):
            raise ConfigError("num_channels must be a power of two")
        if not is_power_of_two(self.num_ranks):
            raise ConfigError("num_ranks must be a power of two")
        if not is_power_of_two(self.num_banks):
            raise ConfigError("num_banks must be a power of two")
        if not is_power_of_two(self.row_bytes):
            raise ConfigError("row_bytes must be a power of two")
        if self.io_freq_mhz <= 0:
            raise ConfigError("io_freq_mhz must be positive")
        if self.queue_depth <= 0:
            raise ConfigError("queue_depth must be positive")
        if self.controller_overhead_ns < 0:
            raise ConfigError("controller_overhead_ns must be non-negative")
        for name in ("tCL", "tRCD", "tRP", "tRAS", "tRC", "tCCD", "tRRD", "tWR"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Complete simulated system (Table 5)."""

    frequency_ghz: float = 1.96
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    l2: L2Config = field(default_factory=L2Config)
    noc: NoCConfig = field(default_factory=NoCConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    #: Device KV-cache capacity in tokens for the serving layer's memory model
    #: (:mod:`repro.serve.kvcache`): how many prompt+generated tokens of KV
    #: state fit on this accelerator.  A serving-level knob -- like request
    #: streams, it is deliberately untouched by tier scaling -- that only
    #: binds when a scenario opts in with ``kv_budget="system"``.
    kv_budget_tokens: int = 16384

    def validate(self) -> "SystemConfig":
        if self.frequency_ghz <= 0:
            raise ConfigError("frequency_ghz must be positive")
        if self.kv_budget_tokens <= 0:
            raise ConfigError("kv_budget_tokens must be positive")
        self.core.validate()
        self.l1.validate()
        self.l2.validate()
        self.noc.validate()
        self.dram.validate()
        if self.l1.line_size != self.l2.line_size:
            raise ConfigError("L1 and L2 line sizes must match")
        return self

    def with_l2_size(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different total L2 capacity (used by Fig 9)."""

        return replace(self, l2=replace(self.l2, size_bytes=size_bytes)).validate()

    @property
    def dram_cycles_per_core_cycle(self) -> float:
        """Ratio used to convert DRAM-clock timing into core cycles."""

        return (self.dram.io_freq_mhz * 1e-3) / self.frequency_ghz
