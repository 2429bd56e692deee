#!/usr/bin/env python3
"""Scenario API walkthrough: replicate one Fig 7 point through two scenarios.

Fig 7(c) reports the cumulative speedup of dynmg+BMA over the unoptimized
configuration for Llama3-70B; this example reproduces its 4K-token cell with
two :class:`repro.api.Scenario` runs and checks that their cycle counts agree
with the Fig 7 harness's exactly (both route through the same content-hashed
sweep points).

It also shows the extension story: registering a brand-new workload with one
decorator makes it usable from a Scenario with no other edits.

Usage::

    python examples/scenario_api.py [--tier ci|smoke] [--seq-len 4096]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.api import Scenario
from repro.config import llama3_70b_logit, parse_tier
from repro.experiments.fig7 import run_fig7_cumulative
from repro.registry import register_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default="ci", choices=["ci", "smoke"])
    parser.add_argument("--seq-len", type=int, default=4096)
    args = parser.parse_args()
    tier = parse_tier(args.tier)

    # -- the Fig 7 point through two Scenarios ----------------------------------------
    scenario = Scenario(
        workload="llama3-70b", policy="dynmg+BMA", system="table5",
        seq_len=args.seq_len, tier=tier,
    )
    result = scenario.run()
    baseline = replace(scenario, policy="unopt").run()
    speedup = baseline.cycles / result.cycles
    print(f"dynmg+BMA : {result.cycles} cycles")
    print(f"unopt     : {baseline.cycles} cycles")
    print(f"speedup   : {speedup:.3f}x")

    # -- cross-check against the Fig 7 harness (same points, same cycles) ----------
    fig7 = run_fig7_cumulative(
        tier=tier, models=("llama3-70b",), seq_lens=(args.seq_len,)
    )
    harness_speedup = fig7.speedups["llama3-70b"]["dynmg+BMA"][0]
    print(f"Fig 7(c)  : {harness_speedup:.3f}x (harness)")
    for name, run in (("dynmg+BMA", result), ("baseline", baseline)):
        harness = fig7.raw["llama3-70b", args.seq_len, name]
        assert run.cycles == harness.cycles, f"{name}: scenario and harness disagree!"
    print("Scenario.run and the Fig 7 harness agree exactly.")

    # -- extensibility: one decorator, immediately runnable ------------------------
    @register_workload("llama3-70b-short", description="Llama3-70B at a fixed 1K context")
    def llama3_70b_short(seq_len: int = 1024):
        return llama3_70b_logit(1024)

    short = Scenario(workload="llama3-70b-short", tier=parse_tier("smoke")).run()
    print(f"\nregistered 'llama3-70b-short' via decorator -> {short.cycles} cycles")


if __name__ == "__main__":
    main()
