#!/usr/bin/env python3
"""Sweep every throttling and arbitration policy on one workload (a mini Fig 7).

Compares unoptimized, the three throttling policies (dyncta, lcs, dynmg), the
COBRRA arbitration baseline and the paper's cumulative policies (dynmg+B,
dynmg+MA, dynmg+BMA) on the Llama3-70B or 405B Logit operator, printing a
speedup table normalised to the unoptimized run.

Usage::

    python examples/policy_sweep.py --model llama3-405b --seq-len 8192 --tier ci
"""

from __future__ import annotations

import argparse

from repro import config
from repro.config import ScaleTier, policy_by_label, scale_experiment
from repro.sim import run_policy

POLICY_LABELS = [
    "unopt",
    "dyncta",
    "lcs",
    "dynmg",
    "cobrra",
    "dynmg+B",
    "dynmg+MA",
    "dynmg+BMA",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="llama3-70b",
                        choices=["llama3-70b", "llama3-405b"])
    parser.add_argument("--seq-len", type=int, default=8192)
    parser.add_argument("--tier", default="ci", choices=["ci", "paper_scaled", "full"])
    args = parser.parse_args()

    workload = (config.llama3_70b_logit(args.seq_len) if args.model == "llama3-70b"
                else config.llama3_405b_logit(args.seq_len))
    system, workload = scale_experiment(
        config.table5_system(), workload, ScaleTier[args.tier.upper()]
    )
    print(f"workload: {workload.describe()}  (tier={args.tier})")

    results = {
        label: run_policy(system, workload, policy_by_label(label), label=label)
        for label in POLICY_LABELS
    }
    baseline = results["unopt"]

    print()
    header = f"{'policy':<12} {'cycles':>10} {'speedup':>8} {'L2 hit':>8} {'MSHR hit':>9} {'BW GB/s':>8}"
    print(header)
    print("-" * len(header))
    for label, result in results.items():
        print(
            f"{label:<12} {result.cycles:>10} {result.speedup_over(baseline):>8.3f} "
            f"{result.l2_hit_rate:>8.2%} {result.mshr_hit_rate:>9.2%} "
            f"{result.dram_bandwidth_gbps:>8.1f}"
        )


if __name__ == "__main__":
    main()
