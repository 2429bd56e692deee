"""The built-in benchmark suite: every paper artifact as a registered bench.

Each bench regenerates one table or figure of the paper (or one serving-stack
scaling scenario) at the requested :class:`~repro.config.scale.ScaleTier` and
reports its deterministic headline numbers as unit-tagged
:class:`~repro.bench.registry.BenchValue` entries.  ``llamcat bench`` runs
them and appends the values to the root-level ``BENCH_<name>.json`` trend
files.

Every bench also checks the result shape its experiment predicts (dynmg does
not lose to unoptimized, dynmg+BMA raises the MSHR hit rate, chunked prefill
keeps first tokens ahead of prefill-first, ...) and raises a
:class:`~repro.common.errors.SimulationError` naming the bench and the missed
expectation otherwise, so ``llamcat bench`` reports it ``FAILED`` and records
no trend entry for it.

Unit conventions (see :mod:`repro.bench.trend`): ``tokens/s`` and ``x``
(speedups) gate as higher-is-better, ``ms``/``cycles``/``um^2`` as
lower-is-better, ``count`` is informational.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.registry import BenchOutput, BenchValue, register_bench
from repro.cluster import ClusterScenario
from repro.common.errors import SimulationError
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


def _expect(bench: str, holds: bool, expectation: str) -> None:
    """Fail ``bench`` with ``expectation`` unless it ``holds``."""

    if not holds:
        raise SimulationError(f"{bench} expected {expectation}")


def _rounded(values) -> list[float]:
    return [round(value, 4) for value in values]


def _stream_output(bench: str, scenario, metrics, *knobs: str) -> BenchOutput:
    """Check one request-stream run's shape and report its headline values."""

    _expect(
        bench,
        metrics.num_requests == scenario.num_requests,
        f"{scenario.num_requests} requests, got {metrics.num_requests}",
    )
    _expect(bench, metrics.tokens_per_s > 0, f"tokens/s > 0, got {metrics.tokens_per_s}")
    p50, p99 = metrics.latency_percentile_ms(50), metrics.latency_percentile_ms(99)
    _expect(bench, p50 <= p99, f"latency p50 <= p99, got {p50} > {p99} ms")
    # The memoized step-cost table must be doing its job: far fewer
    # cycle-engine runs than serving steps.
    simulations = metrics.meta["step_simulations"]
    _expect(
        bench,
        simulations < metrics.steps / 10,
        f"step_simulations < steps / 10, got {simulations} for {metrics.steps} steps",
    )
    return BenchOutput(
        bench=bench,
        config=_tiered(_knobs(scenario, *_TRAFFIC, *knobs), scenario.tier),
        values=(
            BenchValue("tokens_per_s", metrics.tokens_per_s, "tokens/s"),
            BenchValue("latency_p50_ms", p50, "ms"),
            BenchValue("latency_p99_ms", p99, "ms"),
            BenchValue("step_simulations", simulations, "count"),
        ),
    )


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
    return _stream_output("serve_throughput", scenario, scenario.run())


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
    _expect(
        "cluster_throughput",
        metrics.num_replicas == scenario.replicas,
        f"{scenario.replicas} replicas, got {metrics.num_replicas}",
    )
    return _stream_output("cluster_throughput", scenario, metrics, "replicas", "router")


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
    bench = "prefill_schedulers"
    for name, metrics in results.items():
        _expect(
            bench,
            metrics.num_requests == base.num_requests,
            f"{base.num_requests} requests under {name}, got {metrics.num_requests}",
        )
        _expect(bench, metrics.has_prefill_phase, f"a prefill phase under {name}")
        _expect(
            bench,
            metrics.meta["scheduler"] == name,
            f"scheduler {name!r} in the run's meta, got {metrics.meta['scheduler']!r}",
        )
    # The trade-off the schedulers exist for: chunked prefill keeps first tokens
    # ahead of the bursty backlogs that full-prompt preemption queues up ...
    chunked, prefill_first = (
        results[name].ttft_percentile_ms(95) for name in ("chunked", "prefill-first")
    )
    _expect(
        bench,
        chunked < prefill_first,
        f"chunked TTFT p95 < prefill-first's, got {chunked} >= {prefill_first} ms",
    )
    # ... and decode-first never stalls an in-flight decode, so its per-token
    # pace is the floor for the preempting schedulers.
    decode_first, prefill_first = (
        results[name].mean_tpot_ms for name in ("decode-first", "prefill-first")
    )
    _expect(
        bench,
        decode_first <= prefill_first + 1e-9,
        f"decode-first mean TPOT <= prefill-first's, got {decode_first} > {prefill_first} ms",
    )
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
    config = _knobs(base, *_TRAFFIC, "prefill_chunk") | {"schedulers": list(schedulers)}
    return BenchOutput(
        bench=bench,
        config=_tiered(config, tier),
        values=tuple(values),
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
    bench = "kv_preemption"
    for name, metrics in results.items():
        meta = metrics.meta
        _expect(
            bench,
            metrics.num_requests == base.num_requests,
            f"{base.num_requests} requests under {name}, got {metrics.num_requests}",
        )
        _expect(
            bench,
            meta["preemption"] == name,
            f"preemption {name!r} in the run's meta, got {meta['preemption']!r}",
        )
        _expect(
            bench,
            meta["kv_budget_tokens"] == base.kv_budget,
            f"a {base.kv_budget}-token KV budget under {name}, got {meta['kv_budget_tokens']}",
        )
        # The budget is sized to force memory pressure: a policy that never
        # preempts makes the comparison vacuous.
        _expect(bench, meta["preemptions"] > 0, f"{name} to preempt at least once, got 0")
        _expect(
            bench,
            0.0 < meta["kv_peak_utilization"] <= 1.0,
            f"KV peak utilization in (0, 1] under {name}, got {meta['kv_peak_utilization']}",
        )
    # The policies must be distinguishable, not cosmetic variants: their
    # first-token latency tails diverge.
    recompute, swap = (results[name].ttft_percentile_ms(95) for name in policies)
    _expect(
        bench,
        recompute != swap,
        f"recompute and swap TTFT p95 to differ, both {swap} ms",
    )
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
    config = _knobs(base, *_TRAFFIC, "kv_budget", "kv_block") | {"preemptions": list(policies)}
    return BenchOutput(
        bench=bench,
        config=_tiered(config, tier),
        values=tuple(values),
    )


# -- figures -----------------------------------------------------------------------------
def _expect_geomean_above(bench: str, result, policy: str, floor: float) -> None:
    for model in result.speedups:
        geomean = result.geomean(model, policy)
        _expect(
            bench,
            geomean > floor,
            f"{model} {policy} geomean speedup > {floor}, got {geomean:.4f}",
        )


def _expect_speedups_within(bench: str, result, low: float, high: float) -> None:
    for model, series in result.speedups.items():
        for policy, values in series.items():
            _expect(
                bench,
                all(low < value < high for value in values),
                f"{model} {policy} speedups in ({low}, {high}), got {_rounded(values)}",
            )


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
    )


@register_bench("fig7_throttling")
def fig7_throttling(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (a)&(d): throttling speedups (dyncta, lcs, dynmg) over unoptimized."""

    from repro.experiments.fig7 import run_fig7_throttling

    bench = "fig7_throttling"
    result = run_fig7_throttling(tier=tier, models=bench_models(tier))
    # The paper's policy must not lose to the unoptimized configuration.
    _expect_geomean_above(bench, result, "dynmg", 0.97)
    for model, series in result.speedups.items():
        for policy, values in series.items():
            _expect(
                bench,
                len(values) == len(result.seq_lens),
                f"{model} {policy}: one speedup per sequence length "
                f"{list(result.seq_lens)}, got {len(values)}",
            )
    _expect_speedups_within(bench, result, 0.5, 3.0)
    return _fig7_output(bench, result, ("dyncta", "lcs", "dynmg"))


@register_bench("fig7_arbitration")
def fig7_arbitration(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (b)&(e): arbitration speedups (cobrra, B, MA, BMA) over dynmg."""

    from repro.experiments.fig7 import run_fig7_arbitration

    bench = "fig7_arbitration"
    policies = ("cobrra", "B", "MA", "BMA")
    result = run_fig7_arbitration(tier=tier, models=bench_models(tier))
    for model, series in result.speedups.items():
        _expect(
            bench,
            set(series) == set(policies),
            f"{model} series for exactly {list(policies)}, got {sorted(series)}",
        )
    _expect_speedups_within(bench, result, 0.5, 2.0)
    return _fig7_output(bench, result, policies)


@register_bench("fig7_cumulative")
def fig7_cumulative(tier: ScaleTier) -> BenchOutput:
    """Fig 7 (c)&(f): cumulative speedups up to dynmg+BMA over unoptimized."""

    from repro.experiments.fig7 import run_fig7_cumulative

    bench = "fig7_cumulative"
    result = run_fig7_cumulative(tier=tier, models=bench_models(tier))
    # The final cumulative policy must not lose to the unoptimized baseline.
    _expect_geomean_above(bench, result, "dynmg+BMA", 0.97)
    return _fig7_output(bench, result, ("dynmg", "dynmg+B", "dynmg+MA", "dynmg+BMA"))


@register_bench("fig8_mechanism")
def fig8_mechanism(tier: ScaleTier) -> BenchOutput:
    """Fig 8: MSHR/L2/DRAM statistics across the policy progression."""

    from repro.experiments.fig8 import run_fig8

    bench = "fig8_mechanism"
    result = run_fig8(tier=tier)
    by_policy = {row["policy"]: row for row in result.rows}
    unopt, bma = by_policy["unoptimized"], by_policy["dynmg+BMA"]
    # The mechanism the paper highlights: the final policy raises the MSHR hit
    # rate over the unoptimized configuration ...
    _expect(
        bench,
        bma["mshr_hit_rate"] > unopt["mshr_hit_rate"],
        f"dynmg+BMA MSHR hit rate > unoptimized's, got "
        f"{bma['mshr_hit_rate']:.4f} <= {unopt['mshr_hit_rate']:.4f}",
    )
    # ... while DRAM access counts stay in the same ballpark.
    _expect(
        bench,
        bma["dram_accesses"] < 1.5 * unopt["dram_accesses"],
        f"dynmg+BMA DRAM accesses < 1.5x unoptimized's, got "
        f"{bma['dram_accesses']} vs {unopt['dram_accesses']}",
    )
    values = [
        BenchValue(
            f"{policy.replace('+', '_')}_mshr_hit_rate",
            by_policy[policy]["mshr_hit_rate"],
            "",
        )
        for policy in ("unoptimized", "dynmg", "dynmg+BMA")
        if policy in by_policy
    ]
    values.append(BenchValue("dynmg_BMA_dram_accesses", bma["dram_accesses"], "count"))
    return BenchOutput(
        bench=bench,
        config={"tier": result.tier.name, "seq_len": result.seq_len},
        values=tuple(values),
    )


@register_bench("fig9_cache_sweep")
def fig9_cache_sweep(tier: ScaleTier) -> BenchOutput:
    """Fig 9: 32K sequences against 16/32/64 MB L2 configurations."""

    from repro.experiments.fig9 import run_fig9

    bench = "fig9_cache_sweep"
    result = run_fig9(tier=tier, models=bench_models(tier))
    values = []
    for model, series in result.speedups.items():
        unopt, bma = series["unoptimized"], series["dynmg+BMA"]
        # The unoptimized configuration must benefit from growing the cache ...
        _expect(
            bench,
            unopt[-1] >= unopt[0] * 0.98,
            f"{model} unoptimized speedup at the largest L2 >= 0.98x the smallest's, "
            f"got {_rounded(unopt)}",
        )
        # ... and the paper's final policy never loses badly to it at any size.
        _expect(
            bench,
            all(b > 0.9 * u for b, u in zip(bma, unopt, strict=True)),
            f"{model} dynmg+BMA > 0.9x unoptimized at every L2 size, "
            f"got {_rounded(bma)} vs {_rounded(unopt)}",
        )
        for policy, speedups in (("unoptimized", unopt), ("dynmg_BMA", bma)):
            values.append(BenchValue(f"{model}_{policy}_largest_l2", speedups[-1], "x"))
    return BenchOutput(
        bench=bench,
        config={
            "tier": result.tier.name,
            "seq_len": result.seq_len,
            "l2_sizes_mib": list(result.l2_sizes_mib),
            "models": sorted(result.speedups),
        },
        values=tuple(values),
    )


# -- tables and hardware cost ------------------------------------------------------------
def _expect_table_speedups(bench: str, rows: list[dict]) -> None:
    """No threshold setting in a sensitivity sweep may cost more than 20 %."""

    speedups = [row["speedup"] for row in rows]
    _expect(
        bench,
        all(speedup > 0.8 for speedup in speedups),
        f"every speedup > 0.8, got {_rounded(speedups)}",
    )


@register_bench("table2_throttle_sweep")
def table2_throttle_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 2: dynmg global sampling-period sweep around the paper's 2000."""

    from repro.experiments.tables import run_table2_sampling_sweep

    periods = (1000, 2000, 4000)
    bench = "table2_throttle_sweep"
    rows = run_table2_sampling_sweep(tier=tier, sampling_periods=periods)
    _expect(
        bench,
        any(row["sampling_period"] == 2000 for row in rows),
        f"a row at the paper's 2000-cycle period, got "
        f"{[row['sampling_period'] for row in rows]}",
    )
    _expect_table_speedups(bench, rows)
    values = tuple(
        BenchValue(f"speedup_at_{row['sampling_period']}", row["speedup"], "x")
        for row in rows
    )
    return BenchOutput(
        bench=bench,
        config={"tier": tier.name, "sampling_periods": list(periods)},
        values=values,
    )


@register_bench("table3_contention_sweep")
def table3_contention_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 3: contention-classification thresholds vs looser/tighter settings."""

    from repro.experiments.tables import run_table3_contention_sweep

    bench = "table3_contention_sweep"
    rows = run_table3_contention_sweep(tier=tier)
    _expect(bench, len(rows) == 3, f"3 threshold rows, got {len(rows)}")
    _expect_table_speedups(bench, rows)
    values = tuple(
        BenchValue(
            f"speedup_{row['thresholds'].split(' ')[0]}", row["speedup"], "x"
        )
        for row in rows
    )
    return BenchOutput(
        bench=bench,
        config={"tier": tier.name},
        values=values,
    )


@register_bench("table4_incore_sweep")
def table4_incore_sweep(tier: ScaleTier) -> BenchOutput:
    """Table 4: in-core C_mem threshold sweep around the paper's 250/180."""

    from repro.experiments.tables import run_table4_incore_sweep

    bench = "table4_incore_sweep"
    rows = run_table4_incore_sweep(tier=tier)
    thresholds = [(row["c_mem_upper"], row["c_mem_lower"]) for row in rows]
    _expect(
        bench,
        (250, 180) in thresholds,
        f"a row at the paper's C_mem 250/180, got {thresholds}",
    )
    _expect_table_speedups(bench, rows)
    values = tuple(
        BenchValue(
            f"speedup_cmem_{row['c_mem_upper']}_{row['c_mem_lower']}",
            row["speedup"],
            "x",
        )
        for row in rows
    )
    return BenchOutput(
        bench=bench,
        config={"tier": tier.name},
        values=values,
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
    bottlenecks = {seq: est.bottleneck for seq, est in estimates.items()}
    _expect(
        "table5_config",
        all(bottleneck in ("dram", "l2") for bottleneck in bottlenecks.values()),
        f"a memory-side bottleneck (dram or l2) at every length, got {bottlenecks}",
    )
    values = tuple(
        BenchValue(f"stall_free_cycles_{seq}", est.stall_free_cycles, "cycles")
        for seq, est in estimates.items()
    )
    return BenchOutput(
        bench="table5_config",
        config={"tier": tier.name, "seq_lens": list(FIG7_SEQ_LENS)},
        values=values,
    )


@register_bench("hwcost_area")
def hwcost_area(tier: ScaleTier) -> BenchOutput:
    """Section 6.1: area of the added arbitration hardware (tier-independent)."""

    from repro.experiments.hwcost_exp import run_hwcost

    rows = run_hwcost()
    values = []
    for row in rows:
        _expect(
            "hwcost_area",
            0.4 < row["ratio"] < 2.5,
            f"{row['structure']} area within (0.4, 2.5)x the paper's, got {row['ratio']}",
        )
        values.append(BenchValue(f"{row['structure']}_um2", row["model_um2"], "um^2"))
        values.append(
            BenchValue(f"{row['structure']}_paper_ratio", row["ratio"], "")
        )
    return BenchOutput(
        bench="hwcost_area",
        config={"tier": tier.name, "num_cores": 16},
        values=tuple(values),
    )
