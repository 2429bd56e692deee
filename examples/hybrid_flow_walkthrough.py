#!/usr/bin/env python3
"""Walk through the hybrid simulation flow of Fig 6, one stage at a time.

Stage 1: describe the operator and its tensors.
Stage 2: build the constrained dataflow mapping (the Timeloop substitute).
Stage 3: unroll the mapping into per-thread-block memory traces.
Stage 4: run the analytical (stall-free) model.
Stage 5: run the cycle-level simulator and compare against the analytical bound.

Usage::

    python examples/hybrid_flow_walkthrough.py --seq-len 256
"""

from __future__ import annotations

import argparse

from repro import config
from repro.config import ScaleTier, scale_system
from repro.dataflow.analytical import analyze
from repro.dataflow.mapper import build_mapping
from repro.sim import Simulator
from repro.trace.generator import generate_trace
from repro.trace.stats import compute_trace_stats
from repro.workloads.operators import make_operator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seq-len", type=int, default=256)
    parser.add_argument(
        "--full-cache", action="store_true",
        help="keep the full 16 MiB L2 instead of scaling it to the short context",
    )
    args = parser.parse_args()

    system = config.table5_system()
    if not args.full_cache:
        # Scale the L2 down with the short demo context so the cycle-level stage
        # exercises the same capacity pressure as a paper-sized run.
        system = scale_system(system, ScaleTier.CI)
    workload = config.llama3_70b_logit(seq_len=args.seq_len)

    print("=== Stage 1: operator ===")
    operator = make_operator(workload)
    print(operator.describe())
    layout = operator.layout
    for operand in layout.operands:
        print(f"  {operand.name:<8} base={operand.base:#x}  {operand.size_bytes / 2**20:.2f} MiB")

    print("\n=== Stage 2: constrained mapping (Timeloop substitute) ===")
    mapping = build_mapping(operator, system)
    print(mapping.render())

    print("\n=== Stage 3: memory trace ===")
    trace = generate_trace(workload, system)
    stats = compute_trace_stats(trace)
    print(stats.describe())
    print(f"  accesses by tensor: { {k.name: v for k, v in stats.accesses_by_kind.items()} }")

    print("\n=== Stage 4: analytical (stall-free) model ===")
    estimate = analyze(workload, system, mapping)
    print(f"  compute-bound cycles: {estimate.compute_cycles}")
    print(f"  L2-bound cycles:      {estimate.l2_bound_cycles}")
    print(f"  DRAM-bound cycles:    {estimate.dram_bound_cycles}")
    print(f"  stall-free bound:     {estimate.stall_free_cycles}  (bottleneck: {estimate.bottleneck})")

    print("\n=== Stage 5: cycle-level simulation ===")
    result = Simulator(system, config.unoptimized(), trace, label="unoptimized").run()
    print(f"  simulated cycles:     {result.cycles}")
    print(f"  vs stall-free bound:  {result.cycles / estimate.stall_free_cycles:.2f}x")
    print(f"  {result.summary()}")


if __name__ == "__main__":
    main()
