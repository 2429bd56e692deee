"""Each registered bench checks the result shape its experiment predicts.

Every case swaps one bench's experiment for a stub whose result misses one
expectation and checks that the bench raises a ``SimulationError`` naming
itself and that expectation.  The stubs keep this module free of cycle-engine
and serving runs; the real results are checked wherever ``llamcat bench`` runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import pytest

from repro.bench.registry import bench_names, resolve_bench
from repro.cluster import ClusterScenario
from repro.common.errors import SimulationError
from repro.config.scale import ScaleTier
from repro.dataflow.analytical import AnalyticalEstimate
from repro.experiments import fig7, fig8, fig9, hwcost_exp, tables
from repro.serve import ServeScenario


@dataclass
class Stream:
    """The parts of a serving run's metrics the serving benches read.

    The defaults meet every shared request-stream expectation.
    """

    num_requests: int
    meta: dict = field(default_factory=dict)
    tokens_per_s: float = 100.0
    steps: int = 100
    num_replicas: int = 1
    has_prefill_phase: bool = True
    mean_tpot_ms: float = 1.0
    ttft_p95_ms: float = 1.0

    def __post_init__(self):
        self.meta.setdefault("step_simulations", 1)

    def latency_percentile_ms(self, percentile: float) -> float:
        return 2.0 if percentile >= 99 else 1.0

    def ttft_percentile_ms(self, percentile: float) -> float:
        return self.ttft_p95_ms


def _serve_run(monkeypatch, scenario_cls, make):
    monkeypatch.setattr(scenario_cls, "run", lambda self, observers=(): make(self))


def _fig7_result(series: dict[str, list[float]]):
    def run(tier, models):
        return fig7.Fig7Result(
            panel="stub",
            tier=tier,
            seq_lens=(4096,),
            speedups={model: dict(series) for model in models},
        )

    return run


def serve_throughput(monkeypatch):
    _serve_run(
        monkeypatch,
        ServeScenario,
        lambda s: Stream(s.num_requests, meta={"step_simulations": 50}),
    )
    return "step_simulations < steps / 10, got 50 for 100 steps"


def cluster_throughput(monkeypatch):
    _serve_run(monkeypatch, ClusterScenario, lambda s: Stream(s.num_requests, num_replicas=3))
    return "4 replicas, got 3"


def prefill_schedulers(monkeypatch):
    # Every scheduler reports the same first-token tail, so chunked prefill
    # does not beat prefill-first.
    _serve_run(
        monkeypatch,
        ServeScenario,
        lambda s: Stream(s.num_requests, meta={"scheduler": s.scheduler}),
    )
    return "chunked TTFT p95 < prefill-first's, got 1.0 >= 1.0 ms"


def kv_preemption(monkeypatch):
    # Both policies preempt, but their first-token tails are identical.
    _serve_run(
        monkeypatch,
        ServeScenario,
        lambda s: Stream(
            s.num_requests,
            meta={
                "preemption": s.preemption,
                "kv_budget_tokens": s.kv_budget,
                "preemptions": 2,
                "kv_peak_utilization": 0.9,
            },
        ),
    )
    return "recompute and swap TTFT p95 to differ, both 1.0 ms"


def fig7_throttling(monkeypatch):
    monkeypatch.setattr(
        fig7,
        "run_fig7_throttling",
        _fig7_result({"dyncta": [1.0], "lcs": [1.0], "dynmg": [0.9]}),
    )
    return "llama3-70b dynmg geomean speedup > 0.97, got 0.9000"


def fig7_arbitration(monkeypatch):
    monkeypatch.setattr(
        fig7,
        "run_fig7_arbitration",
        _fig7_result({"cobrra": [1.0], "B": [1.0], "BMA": [1.0]}),
    )
    return "llama3-70b series for exactly ['cobrra', 'B', 'MA', 'BMA'], got ['B', 'BMA', 'cobrra']"


def fig7_cumulative(monkeypatch):
    monkeypatch.setattr(
        fig7,
        "run_fig7_cumulative",
        _fig7_result(
            {"dynmg": [1.0], "dynmg+B": [1.0], "dynmg+MA": [1.0], "dynmg+BMA": [0.9]}
        ),
    )
    return "llama3-70b dynmg+BMA geomean speedup > 0.97, got 0.9000"


def fig8_mechanism(monkeypatch):
    def run(tier):
        return fig8.Fig8Result(
            tier=tier,
            seq_len=4096,
            rows=[
                {"policy": "unoptimized", "mshr_hit_rate": 0.5, "dram_accesses": 100},
                {"policy": "dynmg+BMA", "mshr_hit_rate": 0.4, "dram_accesses": 100},
            ],
        )

    monkeypatch.setattr(fig8, "run_fig8", run)
    return "dynmg+BMA MSHR hit rate > unoptimized's, got 0.4000 <= 0.5000"


def fig9_cache_sweep(monkeypatch):
    def run(tier, models):
        return fig9.Fig9Result(
            tier=tier,
            seq_len=32768,
            l2_sizes_mib=(16, 32, 64),
            speedups={
                model: {"unoptimized": [1.0, 0.9, 0.8], "dynmg+BMA": [1.0, 1.0, 1.0]}
                for model in models
            },
        )

    monkeypatch.setattr(fig9, "run_fig9", run)
    return (
        "llama3-70b unoptimized speedup at the largest L2 >= 0.98x the smallest's, "
        "got [1.0, 0.9, 0.8]"
    )


def table2_throttle_sweep(monkeypatch):
    def run(tier, sampling_periods):
        return [
            {"sampling_period": period, "speedup": speedup}
            for period, speedup in zip(sampling_periods, (1.0, 1.0, 0.7), strict=True)
        ]

    monkeypatch.setattr(tables, "run_table2_sampling_sweep", run)
    return "every speedup > 0.8, got [1.0, 1.0, 0.7]"


def table3_contention_sweep(monkeypatch):
    def run(tier):
        return [
            {"thresholds": "paper (0.5/0.2)", "speedup": 1.0},
            {"thresholds": "looser (0.7/0.3)", "speedup": 1.0},
        ]

    monkeypatch.setattr(tables, "run_table3_contention_sweep", run)
    return "3 threshold rows, got 2"


def table4_incore_sweep(monkeypatch):
    def run(tier):
        return [
            {"c_mem_upper": 300, "c_mem_lower": 200, "speedup": 1.0},
            {"c_mem_upper": 200, "c_mem_lower": 150, "speedup": 1.0},
        ]

    monkeypatch.setattr(tables, "run_table4_incore_sweep", run)
    return "a row at the paper's C_mem 250/180, got [(300, 200), (200, 150)]"


def table5_config(monkeypatch):
    compute_bound = AnalyticalEstimate(
        compute_cycles=100,
        dram_bound_cycles=1,
        l2_bound_cycles=1,
        total_dram_bytes=1,
        total_l2_accesses=1,
        thread_blocks=1,
        requests_per_thread_block=1.0,
    )
    monkeypatch.setattr(
        "repro.dataflow.analytical.analyze", lambda workload, system: compute_bound
    )
    return "a memory-side bottleneck (dram or l2) at every length, got {"


def hwcost_area(monkeypatch):
    def run():
        return [{"structure": "arbiter", "model_um2": 30.0, "ratio": 3.0}]

    monkeypatch.setattr(hwcost_exp, "run_hwcost", run)
    return "arbiter area within (0.4, 2.5)x the paper's, got 3.0"


#: bench name -> installs a stub that misses one expectation, returns its text.
MISSES = {
    stub.__name__: stub
    for stub in (
        serve_throughput,
        cluster_throughput,
        prefill_schedulers,
        kv_preemption,
        fig7_throttling,
        fig7_arbitration,
        fig7_cumulative,
        fig8_mechanism,
        fig9_cache_sweep,
        table2_throttle_sweep,
        table3_contention_sweep,
        table4_incore_sweep,
        table5_config,
        hwcost_area,
    )
}


@pytest.mark.parametrize("bench", sorted(MISSES))
def test_missed_expectation_raises_simulation_error(bench, monkeypatch):
    expectation = MISSES[bench](monkeypatch)
    with pytest.raises(SimulationError, match=re.escape(f"{bench} expected {expectation}")):
        resolve_bench(bench)(ScaleTier.SMOKE)


def test_every_registered_bench_has_a_missed_expectation_case():
    assert set(MISSES) == set(bench_names())
