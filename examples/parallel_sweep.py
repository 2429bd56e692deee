#!/usr/bin/env python3
"""Run a policy x cache-size grid through the parallel sweep executor.

Demonstrates the ``repro.sweep`` subsystem: a :class:`Grid` over the fields of
one :class:`~repro.api.Scenario` expands into content-hashed points,
``run_sweep`` fans them out over worker processes, and the JSON-lines
:class:`ResultStore` makes re-runs near-instant (only missing points are
simulated -- try running this script twice).

Usage::

    python examples/parallel_sweep.py --jobs 4 --store /tmp/llamcat-sweep.jsonl
"""

from __future__ import annotations

import argparse

from repro.api import Scenario
from repro.config.scale import ScaleTier
from repro.sweep import Grid, ResultStore, run_sweep

POLICIES = ("unopt", "dynmg", "dynmg+BMA")
L2_MIB = (16, 32, 64)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama3-70b",
                        choices=["llama3-70b", "llama3-405b"])
    parser.add_argument("--seq-len", type=int, default=8192)
    parser.add_argument("--tier", default="ci", choices=["ci", "paper_scaled", "full"])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--store", default=None, help="JSONL store path (resumable)")
    args = parser.parse_args()

    base = Scenario(
        workload=args.model, seq_len=args.seq_len, tier=ScaleTier[args.tier.upper()]
    )
    grid = Grid(base, (("l2_mib", L2_MIB), ("policy", POLICIES))).validate()
    print(f"expanding {grid.num_points} points, jobs={args.jobs}")

    store = ResultStore(args.store) if args.store else None
    report = run_sweep(
        grid,
        jobs=args.jobs,
        store=store,
        progress=lambda done, total, o: print(
            f"  [{done}/{total}] {o.point.describe()}"
            f" -> {o.result.cycles if o.ok else 'FAILED'} cycles"
            f"{' (cached)' if o.cached else ''}"
        ),
    ).raise_on_failure()
    print(report.summary())

    # Normalise each cell against unopt at the same capacity.
    points = grid.expand()
    unopt = {
        p.coord("l2_mib"): report.result_for(p).cycles
        for p in points if p.coord("policy") == "unopt"
    }
    print(f"\n{'policy':<12}" + "".join(f"{m}MB".rjust(10) for m in L2_MIB))
    for label in POLICIES:
        cells = [
            unopt[p.coord("l2_mib")] / report.result_for(p).cycles
            for p in points if p.coord("policy") == label
        ]
        print(f"{label:<12}" + "".join(f"{v:10.3f}" for v in cells))


if __name__ == "__main__":
    main()
