"""The BENCHES registry: every performance benchmark, lookup-by-name.

Benchmarks are registered through the same :class:`repro.registry.Registry`
machinery as workloads, policies and schedulers, so the suite is a
first-class component set: ``llamcat list benches`` enumerates it, ``llamcat
bench`` runs any subset with warmup/repeat control, and the REG001 analysis
rule rejects a bench module that its registry's bootstrap would never import.

A registered bench is a callable ``(tier: ScaleTier) -> BenchOutput``: it runs
one experiment at the requested scale tier, checks the result shape the
experiment predicts (raising :class:`~repro.common.errors.SimulationError`
when it misses), and returns its configuration and the deterministic headline
values it produced (each a named, unit-tagged metric).  Wall-clock timing is
the *runner's* job (:mod:`repro.bench.runner`), never the bench's, so bench
functions stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry

#: Registered benchmarks: ``name -> (tier) -> BenchOutput``.
BENCHES: Registry = Registry("bench", bootstrap=("repro.bench.suite",))


def register_bench(name: str, **kwargs):
    """Register a ``(tier) -> BenchOutput`` bench function under ``name``."""

    return BENCHES.register(name, **kwargs)


def resolve_bench(name: str) -> Callable:
    """The bench function registered under ``name`` (ConfigError if unknown)."""

    return BENCHES.get(name)


def bench_names() -> list[str]:
    """Sorted names of every registered bench."""

    return BENCHES.names()


@dataclass(frozen=True, slots=True)
class BenchValue:
    """One deterministic headline metric of one bench execution."""

    metric: str
    value: float
    unit: str


@dataclass(frozen=True, slots=True)
class BenchOutput:
    """What one bench execution produced (everything but wall-clock time).

    ``values`` are the deterministic numbers that go into the trend file.
    """

    bench: str
    config: dict
    values: tuple[BenchValue, ...]
