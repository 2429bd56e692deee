"""The built-in benchmark suite: every paper artifact as a registered bench.

Each bench regenerates one table or figure of the paper (or one serving-stack
scaling scenario) at the requested :class:`~repro.config.scale.ScaleTier` and
reports its deterministic headline numbers as unit-tagged
:class:`~repro.bench.registry.BenchValue` entries.  The pytest wrappers in
``benchmarks/`` drive exactly these functions (through pytest-benchmark) and
assert on the ``raw`` result objects; ``llamcat bench`` drives them directly
and appends the values to the root-level ``BENCH_<name>.json`` trend files.

Unit conventions (see :mod:`repro.bench.trend`): ``tokens/s`` and ``x``
(speedups) gate as higher-is-better, ``ms``/``cycles``/``um^2`` as
lower-is-better, ``count`` is informational.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.registry import BenchOutput, BenchValue, register_bench
from repro.cluster import ClusterScenario
from repro.config.scale import ScaleTier
from repro.serve import ServeScenario


def bench_models(tier: ScaleTier) -> tuple[str, ...]:
    """Models swept by the Fig 7 / Fig 9 benches.

    The SMOKE tier restricts the sweep to Llama3-70B so a full regeneration of
    every figure finishes in minutes; every other tier runs both paper models.
    """

    if tier is ScaleTier.SMOKE:
        return ("llama3-70b",)
    return ("llama3-70b", "llama3-405b")


def _tiered(config: dict, tier: ScaleTier) -> dict:
    return {**config, "tier": tier.name}


#: The scenario knobs a serving bench records as its trend config.
_TRAFFIC = ("workload", "arrival", "rate", "num_requests", "max_batch", "seed")


def _knobs(scenario, *names: str) -> dict:
    return {name: getattr(scenario, name) for name in names}


# -- serving stack -----------------------------------------------------------------------
@register_bench("serve_throughput")
def serve_throughput(tier: ScaleTier) -> BenchOutput:
    """Poisson request stream under continuous batching on one replica."""

    scenario = ServeScenario(
        workload="llama3-70b",
        arrival="poisson",
        rate=2000.0,
        num_requests=32,
        max_batch=4,
        seed=0,
        tier=tier,
    ).validate()
    metrics = scenario.run()
    return BenchOutput(
        bench="serve_throughput",
        config=_tiered(_knobs(scenario, *_TRAFFIC), tier),
        values=(
            BenchValue("tokens_per_s", metrics.tokens_per_s, "tokens/s"),
            BenchValue("latency_p50_ms", metrics.latency_percentile_ms(50), "ms"),
            BenchValue("latency_p99_ms", metrics.latency_percentile_ms(99), "ms"),
            BenchValue("step_simulations", metrics.meta["step_simulations"], "count"),
        ),
        detail=metrics.summary(),
        raw=metrics,
    )


@register_bench("cluster_throughput")
def cluster_throughput(tier: ScaleTier) -> BenchOutput:
    """One request stream over a 4-replica fleet with a shared step-cost table."""

    scenario = ClusterScenario(
        workload="llama3-70b",
        arrival="poisson",
        rate=4000.0,
        num_requests=32,
        replicas=4,
        router="round-robin",
        max_batch=4,
        seed=0,
        tier=tier,
    ).validate()
    metrics = scenario.run()
    return BenchOutput(
        bench="cluster_throughput",
        config=_tiered(_knobs(scenario, *_TRAFFIC, "replicas", "router"), tier),
        values=(
            BenchValue("tokens_per_s", metrics.tokens_per_s, "tokens/s"),
            BenchValue("latency_p50_ms", metrics.latency_percentile_ms(50), "ms"),
            BenchValue("latency_p99_ms", metrics.latency_percentile_ms(99), "ms"),
            BenchValue("step_simulations", metrics.meta["step_simulations"], "count"),
        ),
        detail=metrics.summary(),
        raw=metrics,
    )


@register_bench("prefill_schedulers")
def prefill_schedulers(tier: ScaleTier) -> BenchOutput:
    """TTFT/TPOT trade-off across decode-first, prefill-first and chunked."""

    schedulers = ("decode-first", "prefill-first", "chunked")
    base = ServeScenario(
        workload="llama3-70b",
        arrival="bursty",
        rate=4000.0,
        num_requests=24,
        max_batch=4,
        seed=0,
        prefill_chunk=256,
        tier=tier,
    )
    results = {name: replace(base, scheduler=name).validate().run() for name in schedulers}
    values = []
    for name, metrics in results.items():
        key = name.replace("-", "_")
        values.append(
            BenchValue(f"{key}_ttft_p95_ms", metrics.ttft_percentile_ms(95), "ms")
        )
        values.append(BenchValue(f"{key}_tpot_ms", metrics.mean_tpot_ms, "ms"))
        values.append(
            BenchValue(f"{key}_tokens_per_s", metrics.tokens_per_s, "tokens/s")
        )
    detail = "\n".join(
        f"{name:>15}: ttft_p95 {m.ttft_percentile_ms(95):.3f} ms, "
        f"tpot {m.mean_tpot_ms:.4f} ms, {m.tokens_per_s:.0f} tok/s"
        for name, m in results.items()
    )
    config = _knobs(base, *_TRAFFIC, "prefill_chunk") | {"schedulers": list(schedulers)}
    return BenchOutput(
        bench="prefill_schedulers",
        config=_tiered(config, tier),
        values=tuple(values),
        detail=detail,
        raw=results,
    )


@register_bench("kv_preemption")
def kv_preemption(tier: ScaleTier) -> BenchOutput:
    """Recompute vs swap preemption under a deliberately tight KV budget."""

    policies = ("recompute", "swap")
    base = ServeScenario(
        workload="llama3-70b",
        arrival="poisson",
        rate=4000.0,
        num_requests=8,
        max_batch=4,
        seed=0,
        kv_budget=1024,
        kv_block=32,
        tier=tier,
    )
    results = {name: replace(base, preemption=name).validate().run() for name in policies}
    values = []
    for name, metrics in results.items():
        values.append(
            BenchValue(f"{name}_ttft_p95_ms", metrics.ttft_percentile_ms(95), "ms")
        )
        values.append(
            BenchValue(f"{name}_preemptions", metrics.meta["preemptions"], "count")
        )
        values.append(
            BenchValue(f"{name}_tokens_per_s", metrics.tokens_per_s, "tokens/s")
        )
    detail = "\n".join(
        f"{name:>10}: ttft_p95 {m.ttft_percentile_ms(95):.3f} ms, "
        f"{m.meta['preemptions']} preemptions, "
        f"KV peak {m.meta['kv_peak_utilization']:.0%}, "
        f"mem-bound {m.meta['kv_memory_bound_frac']:.1%}, "
        f"{m.tokens_per_s:.0f} tok/s"
        for name, m in results.items()
    )
    config = _knobs(base, *_TRAFFIC, "kv_budget", "kv_block") | {"preemptions": list(policies)}
    return BenchOutput(
        bench="kv_preemption",
        config=_tiered(config, tier),
        values=tuple(values),
        detail=detail,
        raw=results,
    )


# -- figures -----------------------------------------------------------------------------
def _fig7_output(bench: str, result, policies: tuple[str, ...]) -> BenchOutput:
    values = [
        BenchValue(f"{model}_{policy}_geomean", result.geomean(model, policy), "x")
        for model in result.speedups
        for policy in policies
        if policy in result.speedups[model]
    ]
    return BenchOutput(
        bench=bench,
        config={
            "tier": result.tier.name,
            "models": sorted(result.speedups),
            "seq_lens": list(result.seq_lens),
        },
        values=tuple(values),
        detail=result.render(),
        raw=result,
    )


@register_bench("fig7_throttling")
def fig7_throttling(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (a)&(d): throttling speedups (dyncta, lcs, dynmg) over unoptimized."""

    from repro.experiments.fig7 import run_fig7_throttling

    result = run_fig7_throttling(tier=tier, models=bench_models(tier))
    return _fig7_output("fig7_throttling", result, ("dyncta", "lcs", "dynmg"))


@register_bench("fig7_arbitration")
def fig7_arbitration(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (b)&(e): arbitration speedups (cobrra, B, MA, BMA) over dynmg."""

    from repro.experiments.fig7 import run_fig7_arbitration

    result = run_fig7_arbitration(tier=tier, models=bench_models(tier))
    return _fig7_output("fig7_arbitration", result, ("cobrra", "B", "MA", "BMA"))


@register_bench("fig7_cumulative")
def fig7_cumulative(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (c)&(f): cumulative speedups up to dynmg+BMA over unoptimized."""

    from repro.experiments.fig7 import run_fig7_cumulative

    result = run_fig7_cumulative(tier=tier, models=bench_models(tier))
    return _fig7_output(
        "fig7_cumulative", result, ("dynmg", "dynmg+B", "dynmg+MA", "dynmg+BMA")
    )


@register_bench("fig8_mechanism")
def fig8_mechanism(tier: ScaleTier) -> BenchOutput:
    """Fig 8: MSHR/L2/DRAM statistics across the policy progression."""

    from repro.experiments.fig8 import run_fig8

    result = run_fig8(tier=tier)
    by_policy = {row["policy"]: row for row in result.rows}
    values = [
        BenchValue(
            f"{policy.replace('+', '_')}_mshr_hit_rate",
            by_policy[policy]["mshr_hit_rate"],
            "",
        )
        for policy in ("unoptimized", "dynmg", "dynmg+BMA")
        if policy in by_policy
    ]
    if "dynmg+BMA" in by_policy:
        values.append(
            BenchValue(
                "dynmg_BMA_dram_accesses",
                by_policy["dynmg+BMA"]["dram_accesses"],
                "count",
            )
        )
    return BenchOutput(
        bench="fig8_mechanism",
        config={"tier": result.tier.name, "seq_len": result.seq_len},
        values=tuple(values),
        detail=result.render(),
        raw=result,
    )


@register_bench("fig9_cache_sweep")
def fig9_cache_sweep(tier: ScaleTier) -> BenchOutput:
    """Fig 9: 32K sequences against 16/32/64 MB L2 configurations."""

    from repro.experiments.fig9 import run_fig9

    result = run_fig9(tier=tier, models=bench_models(tier))
    values = []
    for model, series in result.speedups.items():
        for policy in ("unoptimized", "dynmg+BMA"):
            if policy in series:
                values.append(
                    BenchValue(
                        f"{model}_{policy.replace('+', '_')}_largest_l2",
                        series[policy][-1],
                        "x",
                    )
                )
    return BenchOutput(
        bench="fig9_cache_sweep",
        config={
            "tier": result.tier.name,
            "seq_len": result.seq_len,
            "l2_sizes_mib": list(result.l2_sizes_mib),
            "models": sorted(result.speedups),
        },
        values=tuple(values),
        detail=result.render(),
        raw=result,
    )


# -- tables and hardware cost ------------------------------------------------------------
@register_bench("table2_throttle_sweep")
def table2_throttle_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 2: dynmg global sampling-period sweep around the paper's 2000."""

    from repro.experiments.reporting import format_grid
    from repro.experiments.tables import run_table2_sampling_sweep

    periods = (1000, 2000, 4000)
    rows = run_table2_sampling_sweep(tier=tier, sampling_periods=periods)
    values = tuple(
        BenchValue(f"speedup_at_{row['sampling_period']}", row["speedup"], "x")
        for row in rows
    )
    return BenchOutput(
        bench="table2_throttle_sweep",
        config={"tier": tier.name, "sampling_periods": list(periods)},
        values=values,
        detail=format_grid("Table 2 -- dynmg sampling-period sweep", rows),
        raw=rows,
    )


@register_bench("table3_contention_sweep")
def table3_contention_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 3: contention-classification thresholds vs looser/tighter settings."""

    from repro.experiments.reporting import format_grid
    from repro.experiments.tables import run_table3_contention_sweep

    rows = run_table3_contention_sweep(tier=tier)
    values = tuple(
        BenchValue(
            f"speedup_{row['thresholds'].split(' ')[0]}", row["speedup"], "x"
        )
        for row in rows
    )
    return BenchOutput(
        bench="table3_contention_sweep",
        config={"tier": tier.name},
        values=values,
        detail=format_grid("Table 3 -- contention-threshold sweep", rows),
        raw=rows,
    )


@register_bench("table4_incore_sweep")
def table4_incore_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 4: in-core C_mem threshold sweep around the paper's 250/180."""

    from repro.experiments.reporting import format_grid
    from repro.experiments.tables import run_table4_incore_sweep

    rows = run_table4_incore_sweep(tier=tier)
    values = tuple(
        BenchValue(
            f"speedup_cmem_{row['c_mem_upper']}_{row['c_mem_lower']}",
            row["speedup"],
            "x",
        )
        for row in rows
    )
    return BenchOutput(
        bench="table4_incore_sweep",
        config={"tier": tier.name},
        values=values,
        detail=format_grid("Table 4 -- in-core C_mem threshold sweep", rows),
        raw=rows,
    )


@register_bench("table5_config")
def table5_config(tier: ScaleTier) -> BenchOutput:
    """Table 5: the simulated system preset plus the analytical model on it.

    Tier-independent: the analytical model is closed-form over the full-size
    workloads, so this bench costs milliseconds at every tier.
    """

    from repro.config.presets import FIG7_SEQ_LENS, llama3_70b_logit, table5_system
    from repro.dataflow.analytical import analyze

    system = table5_system()
    estimates = {
        seq: analyze(llama3_70b_logit(seq), system) for seq in FIG7_SEQ_LENS
    }
    values = tuple(
        BenchValue(f"stall_free_cycles_{seq}", est.stall_free_cycles, "cycles")
        for seq, est in estimates.items()
    )
    detail = "\n".join(
        f"analytical {seq:>6}: {est.stall_free_cycles} stall-free cycles, "
        f"bottleneck={est.bottleneck}"
        for seq, est in estimates.items()
    )
    return BenchOutput(
        bench="table5_config",
        config={"tier": tier.name, "seq_lens": list(FIG7_SEQ_LENS)},
        values=values,
        detail=detail,
        raw=estimates,
    )


@register_bench("hwcost_area")
def hwcost_area(tier: ScaleTier) -> BenchOutput:
    """Section 6.1: area of the added arbitration hardware (tier-independent)."""

    from repro.experiments.hwcost_exp import run_hwcost
    from repro.experiments.reporting import format_grid

    rows = run_hwcost()
    values = []
    for row in rows:
        values.append(BenchValue(f"{row['structure']}_um2", row["model_um2"], "um^2"))
        values.append(
            BenchValue(f"{row['structure']}_paper_ratio", row["ratio"], "")
        )
    return BenchOutput(
        bench="hwcost_area",
        config={"tier": tier.name, "num_cores": 16},
        values=tuple(values),
        detail=format_grid("Section 6.1 -- area estimates (15 nm)", rows),
        raw=rows,
    )
