"""The bench runner: warmup/repeat timing around registered benches.

The split of responsibilities is deliberate: bench functions
(:mod:`repro.bench.suite`) are deterministic -- same tier, same values, byte
for byte -- and the runner owns everything nondeterministic about
benchmarking, namely the wall clock.  ``llamcat bench`` calls
:func:`run_bench` and appends the resulting :class:`~repro.bench.trend
.TrendRecord` rows to the bench's root-level trend file.

Timing protocol: ``warmup`` untimed executions populate the memoized
step-cost tables (the serving benches are dominated by cold cycle-engine
runs otherwise), then ``repeat`` timed executions run and the **minimum**
wall time is reported -- the standard low-noise estimator for a deterministic
workload, where every positive deviation from the minimum is scheduler/cache
interference, not signal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.registry import BenchOutput, resolve_bench
from repro.bench.trend import TrendRecord
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier


@dataclass(frozen=True, slots=True)
class BenchRun:
    """One timed execution of one registered bench."""

    output: BenchOutput
    #: Minimum wall seconds over the timed repeats.
    wall_s: float
    warmup: int
    repeat: int

    def records(self) -> list[TrendRecord]:
        """The run as trend records (one per deterministic headline value)."""

        return [
            TrendRecord(
                bench=self.output.bench,
                config=self.output.config,
                metric=value.metric,
                value=value.value,
                unit=value.unit,
                wall_s=round(self.wall_s, 3),
            ).validate()
            for value in self.output.values
        ]

    def render(self) -> str:
        lines = [
            f"bench {self.output.bench} "
            f"(warmup={self.warmup}, repeat={self.repeat}): "
            f"{self.wall_s:.3f} s"
        ]
        lines += [
            f"  {value.metric:<32} {value.value:>14g} {value.unit}"
            for value in self.output.values
        ]
        return "\n".join(lines)


def check_timing(warmup: int, repeat: int) -> None:
    """Reject a warmup/repeat pair no bench can run with."""

    if repeat < 1:
        raise ConfigError(f"bench repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ConfigError(f"bench warmup must be >= 0, got {warmup}")


def run_bench(
    name: str,
    tier: ScaleTier = ScaleTier.CI,
    warmup: int = 0,
    repeat: int = 1,
) -> BenchRun:
    """Run the bench registered under ``name`` with warmup/repeat timing."""

    check_timing(warmup, repeat)
    fn = resolve_bench(name)
    for _ in range(warmup):
        fn(tier)
    best: float | None = None
    output: BenchOutput | None = None
    for _ in range(repeat):
        # Wall timing is this module's entire job; it never reaches any
        # deterministic output, only the trend records' wall_s field.
        start = time.perf_counter()  # repro: noqa[DET002]
        output = fn(tier)
        elapsed = time.perf_counter() - start  # repro: noqa[DET002]
        best = elapsed if best is None else min(best, elapsed)
    assert output is not None and best is not None
    return BenchRun(output=output, wall_s=best, warmup=warmup, repeat=repeat)


def run_benches(
    names: list[str] | tuple[str, ...],
    tier: ScaleTier = ScaleTier.CI,
    warmup: int = 0,
    repeat: int = 1,
) -> list[BenchRun]:
    """Run several registered benches in order."""

    return [run_bench(name, tier=tier, warmup=warmup, repeat=repeat) for name in names]
