"""Policy configuration: arbitration and throttling (Tables 1-4 of the paper)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ConfigError


class ArbitrationKind(enum.Enum):
    """Request-selection policy of the LLC-slice arbiter (§4.1, §4.3)."""

    FCFS = "fcfs"              # default first-come first-served
    BALANCED = "balanced"      # "B": smallest per-core progress counter first
    MSHR_AWARE = "ma"          # "MA": predicted cache hits > MSHR hits > others
    BALANCED_MSHR_AWARE = "bma"  # "BMA": MA with balanced tie-breaking
    COBRRA = "cobrra"          # baseline (Bagchi et al., TECS 2024)


class ThrottleKind(enum.Enum):
    """Thread-throttling controller (§4.2, §7.4)."""

    NONE = "none"              # unoptimized
    DYNCTA = "dyncta"          # Kayiran et al., PACT 2013 baseline
    LCS = "lcs"                # Lee et al., HPCA 2014 baseline
    DYNMG = "dynmg"            # two-level dynamic multi-gear (this paper)


#: Legend name of each throttle; :attr:`PolicyConfig.label` starts with it.
THROTTLE_LABELS: dict[ThrottleKind, str] = {
    ThrottleKind.NONE: "unopt",
    ThrottleKind.DYNCTA: "dyncta",
    ThrottleKind.LCS: "lcs",
    ThrottleKind.DYNMG: "dynmg",
}

#: Legend suffix of each arbitration policy (FCFS, the default, has none).
ARBITRATION_LABELS: dict[ArbitrationKind, str] = {
    ArbitrationKind.FCFS: "",
    ArbitrationKind.BALANCED: "B",
    ArbitrationKind.MSHR_AWARE: "MA",
    ArbitrationKind.BALANCED_MSHR_AWARE: "BMA",
    ArbitrationKind.COBRRA: "cobrra",
}


class ContentionLevel(enum.IntEnum):
    """Cache-contention classification (Table 3)."""

    LOW = 0
    NORMAL = 1
    HIGH = 2
    EXTREME = 3


@dataclass(frozen=True, slots=True)
class ContentionThresholds:
    """t_cs (proportion of cache-stall cycles) boundaries from Table 3."""

    low_upper: float = 0.1
    normal_upper: float = 0.2
    high_upper: float = 0.375

    def classify(self, stall_ratio: float) -> ContentionLevel:
        if stall_ratio < 0.0 or stall_ratio > 1.0:
            raise ConfigError(f"stall ratio must be within [0, 1], got {stall_ratio}")
        if stall_ratio < self.low_upper:
            return ContentionLevel.LOW
        if stall_ratio < self.normal_upper:
            return ContentionLevel.NORMAL
        if stall_ratio < self.high_upper:
            return ContentionLevel.HIGH
        return ContentionLevel.EXTREME

    def validate(self) -> "ContentionThresholds":
        if not 0.0 < self.low_upper < self.normal_upper < self.high_upper <= 1.0:
            raise ConfigError(
                "contention thresholds must satisfy 0 < low < normal < high <= 1"
            )
        return self


@dataclass(frozen=True, slots=True)
class MultiGearParams:
    """Global multi-gear controller (Algorithm 1, Tables 1-3)."""

    sampling_period: int = 2000
    max_gear: int = 4
    # Table 1: fraction of cores throttled at each gear (index = gear).
    gear_fractions: tuple[float, ...] = (0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4)
    thresholds: ContentionThresholds = field(default_factory=ContentionThresholds)

    def validate(self) -> "MultiGearParams":
        if self.sampling_period <= 0:
            raise ConfigError("sampling_period must be positive")
        if self.max_gear + 1 != len(self.gear_fractions):
            raise ConfigError(
                f"gear_fractions must have max_gear+1={self.max_gear + 1} entries, "
                f"got {len(self.gear_fractions)}"
            )
        if list(self.gear_fractions) != sorted(self.gear_fractions):
            raise ConfigError("gear_fractions must be non-decreasing")
        if any(not 0.0 <= f < 1.0 for f in self.gear_fractions):
            raise ConfigError("gear fractions must lie in [0, 1)")
        self.thresholds.validate()
        return self


@dataclass(frozen=True, slots=True)
class InCoreThrottleParams:
    """Per-core sub-period controller (Table 4)."""

    sub_period: int = 400
    c_idle_upper: int = 4
    c_mem_upper: int = 250
    c_mem_lower: int = 180
    min_thread_blocks: int = 1

    def validate(self) -> "InCoreThrottleParams":
        if self.sub_period <= 0:
            raise ConfigError("sub_period must be positive")
        if self.c_mem_lower >= self.c_mem_upper:
            raise ConfigError("c_mem_lower must be below c_mem_upper")
        if self.c_idle_upper < 0:
            raise ConfigError("c_idle_upper must be non-negative")
        if self.min_thread_blocks < 1:
            raise ConfigError("min_thread_blocks must be at least 1")
        return self


@dataclass(frozen=True, slots=True)
class DynctaParams:
    """DYNCTA baseline parameters (conservative, per the original paper)."""

    sampling_period: int = 2048
    c_idle_threshold: int = 16
    c_mem_high: int = 1228   # ~0.6 * sampling_period, as swept in the original work
    c_mem_low: int = 409     # ~0.2 * sampling_period
    min_thread_blocks: int = 1

    def validate(self) -> "DynctaParams":
        if self.sampling_period <= 0:
            raise ConfigError("sampling_period must be positive")
        if self.c_mem_low >= self.c_mem_high:
            raise ConfigError("c_mem_low must be below c_mem_high")
        if self.min_thread_blocks < 1:
            raise ConfigError("min_thread_blocks must be at least 1")
        return self


@dataclass(frozen=True, slots=True)
class LcsParams:
    """LCS baseline: observe the first thread block, then fix the TB count."""

    observation_blocks: int = 1
    # LCS picks the thread-block count that keeps estimated memory latency per
    # block below this multiple of the observed isolated latency.
    target_latency_factor: float = 2.0

    def validate(self) -> "LcsParams":
        if self.observation_blocks < 1:
            raise ConfigError("observation_blocks must be at least 1")
        if self.target_latency_factor <= 1.0:
            raise ConfigError("target_latency_factor must exceed 1.0")
        return self


@dataclass(frozen=True, slots=True)
class MshrAwareParams:
    """MSHR-aware arbitration structures (§4.3)."""

    hit_buffer_size: int = 16
    # sent_reqs entries retire after hit_latency + mshr_latency cycles; the
    # structure itself only needs to hold that many in-flight requests.
    sent_reqs_size: int = 16

    def validate(self) -> "MshrAwareParams":
        if self.hit_buffer_size <= 0 or self.sent_reqs_size <= 0:
            raise ConfigError("hit_buffer / sent_reqs sizes must be positive")
        return self


@dataclass(frozen=True, slots=True)
class CobrraParams:
    """COBRRA baseline knobs (contention-aware request-response arbitration)."""

    # Occupancy of the response queue (fraction) above which responses are
    # prioritised over requests.
    resp_priority_threshold: float = 0.5
    # Size of the reuse-predictor table used to prioritise likely-hit requests.
    predictor_entries: int = 64

    def validate(self) -> "CobrraParams":
        if not 0.0 < self.resp_priority_threshold <= 1.0:
            raise ConfigError("resp_priority_threshold must be in (0, 1]")
        if self.predictor_entries <= 0:
            raise ConfigError("predictor_entries must be positive")
        return self


@dataclass(frozen=True, slots=True)
class PolicyConfig:
    """Complete policy selection for one simulation run."""

    arbitration: ArbitrationKind = ArbitrationKind.FCFS
    throttle: ThrottleKind = ThrottleKind.NONE
    multigear: MultiGearParams = field(default_factory=MultiGearParams)
    incore: InCoreThrottleParams = field(default_factory=InCoreThrottleParams)
    dyncta: DynctaParams = field(default_factory=DynctaParams)
    lcs: LcsParams = field(default_factory=LcsParams)
    mshr_aware: MshrAwareParams = field(default_factory=MshrAwareParams)
    cobrra: CobrraParams = field(default_factory=CobrraParams)

    def validate(self) -> "PolicyConfig":
        self.multigear.validate()
        self.incore.validate()
        self.dyncta.validate()
        self.lcs.validate()
        self.mshr_aware.validate()
        self.cobrra.validate()
        return self

    # -- (de)serialization (Scenario round-trips, result stores) -------------------
    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        """Rebuild a policy from :func:`repro.sweep.spec.config_to_jsonable` output.

        Absent sections fall back to their defaults, so partial dicts (e.g.
        only ``{"throttle": "dynmg"}``) are accepted.
        """

        multigear = dict(data.get("multigear", {}))
        thresholds = multigear.pop("thresholds", None)
        gear_fractions = multigear.pop("gear_fractions", None)
        return cls(
            arbitration=ArbitrationKind(data.get("arbitration", ArbitrationKind.FCFS.value)),
            throttle=ThrottleKind(data.get("throttle", ThrottleKind.NONE.value)),
            multigear=MultiGearParams(
                **multigear,
                **({"gear_fractions": tuple(gear_fractions)} if gear_fractions else {}),
                **({"thresholds": ContentionThresholds(**thresholds)} if thresholds else {}),
            ),
            incore=InCoreThrottleParams(**data.get("incore", {})),
            dyncta=DynctaParams(**data.get("dyncta", {})),
            lcs=LcsParams(**data.get("lcs", {})),
            mshr_aware=MshrAwareParams(**data.get("mshr_aware", {})),
            cobrra=CobrraParams(**data.get("cobrra", {})),
        ).validate()

    @property
    def label(self) -> str:
        """Short label matching the paper's legends (e.g. ``dynmg+BMA``)."""

        t = THROTTLE_LABELS[self.throttle]
        a = ARBITRATION_LABELS[self.arbitration]
        if not a:
            return t
        if t == "unopt":
            return a
        return f"{t}+{a}"
