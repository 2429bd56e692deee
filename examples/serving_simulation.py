#!/usr/bin/env python3
"""Sweep a Poisson request stream over arrival rates with `repro.serve`.

Demonstrates the serving subsystem: a :class:`Grid` over the ``rate`` field of
one :class:`ServeScenario` expands into serving points (one per arrival rate),
``run_sweep`` fans them out over worker processes, and each point simulates
continuous batching on top of the cycle-accurate engine -- per-step costs come
from a memoized table of (batch, seq-bucket) cycle-engine runs, so thousands
of serving steps cost only a handful of simulations.  The printed table shows
the classic open-loop queueing behaviour: throughput rises with offered load
while tail latency degrades.

Usage::

    python examples/serving_simulation.py --jobs 3 --store /tmp/llamcat-serve.jsonl
"""

from __future__ import annotations

import argparse

from repro.config.scale import ScaleTier
from repro.serve import ServeScenario
from repro.sweep import Grid, ResultStore, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="llama3-70b")
    parser.add_argument("--arrival", default="poisson",
                        choices=["poisson", "bursty", "closed-loop"])
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[500.0, 1000.0, 2000.0, 4000.0, 8000.0])
    parser.add_argument("--num-requests", type=int, default=24)
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--tier", default="smoke", choices=["smoke", "ci", "full"])
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--store", default=None, help="JSONL store path (resumable)")
    args = parser.parse_args()

    base = ServeScenario(
        workload=args.workload,
        arrival=args.arrival,
        num_requests=args.num_requests,
        max_batch=args.max_batch,
        tier=ScaleTier[args.tier.upper()],
        slo_latency_ms=1.0,
    )
    grid = Grid(base, (("rate", tuple(args.rates)),)).validate()
    points = grid.expand()
    print(f"serving {grid.num_points} points ({args.arrival} x {args.rates}), "
          f"jobs={args.jobs}")

    store = ResultStore(args.store) if args.store else None
    report = run_sweep(
        points,
        jobs=args.jobs,
        store=store,
        progress=lambda done, total, o: print(
            f"  [{done}/{total}] {o.point.describe()}"
            f"{' (cached)' if o.cached else ''}"
        ),
    ).raise_on_failure()
    print(report.summary())

    header = (f"{'rate':>8} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} "
              f"{'TTFT p95':>9} {'tok/s':>10} {'SLO':>6}")
    print(f"\n{header}")
    for point in points:
        m = report.result_for(point)
        print(
            f"{point.scenario.rate:>8g} {m.latency_percentile_ms(50):>9.3f} "
            f"{m.latency_percentile_ms(95):>9.3f} {m.latency_percentile_ms(99):>9.3f} "
            f"{m.ttft_percentile_ms(95):>9.3f} {m.tokens_per_s:>10.0f} "
            f"{m.slo_attainment:>6.0%}"
        )


if __name__ == "__main__":
    main()
