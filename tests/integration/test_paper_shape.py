"""Integration tests asserting the qualitative shape of the paper's findings.

These are deliberately coarse (the simulator is not the authors' testbed): the
paper's *directions* must hold -- the full policy beats the unoptimized
configuration, throttling raises MSHR utilisation, the capacity-bound regime
benefits from larger caches -- but no absolute numbers are enforced.
"""

from __future__ import annotations

import pytest

from repro.config.policies import ArbitrationKind, PolicyConfig, ThrottleKind
from repro.config.presets import llama3_70b_logit, table5_system
from repro.config.scale import ScaleTier, scale_experiment
from repro.sim.runner import run_policy

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def mshr_bound_results():
    """Llama3-70B at a short (CI-scaled) context on the Table 5 system."""

    system, workload = scale_experiment(
        table5_system(), llama3_70b_logit(seq_len=4096), ScaleTier.CI
    )
    policies = {
        "unoptimized": PolicyConfig(),
        "dynmg": PolicyConfig(throttle=ThrottleKind.DYNMG),
        "dynmg+BMA": PolicyConfig(
            throttle=ThrottleKind.DYNMG,
            arbitration=ArbitrationKind.BALANCED_MSHR_AWARE,
        ),
    }
    return {
        label: run_policy(system, workload, policy, label=label)
        for label, policy in policies.items()
    }


def speedup(results, label: str) -> float:
    return results[label].speedup_over(results["unoptimized"])


class TestMissHandlingBoundRegime(object):
    def test_final_policy_beats_unoptimized(self, mshr_bound_results):
        """dynmg+BMA does not lose to the unoptimized baseline (§6.3.3).

        At CI scale the effect is muted relative to the paper's 1.26x geomean
        (see EXPERIMENTS.md); the direction must still hold.
        """

        assert speedup(mshr_bound_results, "dynmg+BMA") > 1.0

    def test_dynmg_alone_already_helps(self, mshr_bound_results):
        assert speedup(mshr_bound_results, "dynmg") > 1.0

    def test_bma_raises_mshr_hit_rate_over_dynmg(self, mshr_bound_results):
        """The MSHR-aware arbiter's job is to convert misses into merges (Fig 7b/e)."""

        dynmg = mshr_bound_results["dynmg"]
        bma = mshr_bound_results["dynmg+BMA"]
        assert bma.mshr_hit_rate > dynmg.mshr_hit_rate

    def test_mshr_hit_rate_rises_with_the_final_policy(self, mshr_bound_results):
        """Fig 8: the cumulative policy raises the MSHR hit rate over unoptimized."""

        unopt = mshr_bound_results["unoptimized"]
        best = mshr_bound_results["dynmg+BMA"]
        assert best.mshr_hit_rate > unopt.mshr_hit_rate

    def test_system_is_in_the_miss_handling_bound_regime(self, mshr_bound_results):
        """The regime the paper targets: near-saturated MSHR entries and heavy stalls,
        while DRAM bandwidth stays clearly below its peak."""

        unopt = mshr_bound_results["unoptimized"]
        assert unopt.mshr_entry_utilization > 0.6
        assert unopt.cache_stall_ratio > 0.2
        assert unopt.dram_bandwidth_gbps < 0.9 * 51.2

    def test_dram_traffic_roughly_unchanged(self, mshr_bound_results):
        """Fig 8: the number of DRAM accesses does not change dramatically."""

        unopt = mshr_bound_results["unoptimized"]
        best = mshr_bound_results["dynmg+BMA"]
        assert best.dram_accesses == pytest.approx(unopt.dram_accesses, rel=0.35)


class TestCapacityBoundRegime:
    def test_unoptimized_benefits_from_larger_cache(self):
        """Fig 9: the unoptimized configuration is sensitive to L2 capacity."""

        workload = llama3_70b_logit(seq_len=16384)
        small_sys, wl = scale_experiment(table5_system().with_l2_size(8 * 2**20),
                                         workload, ScaleTier.CI)
        large_sys, _ = scale_experiment(table5_system().with_l2_size(64 * 2**20),
                                        workload, ScaleTier.CI)
        small = run_policy(small_sys, wl, PolicyConfig(), label="small")
        large = run_policy(large_sys, wl, PolicyConfig(), label="large")
        assert large.cycles < small.cycles
        assert large.dram_accesses <= small.dram_accesses
