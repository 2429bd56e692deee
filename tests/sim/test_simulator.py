"""End-to-end tests of the simulator on small workloads."""

import pytest

from repro.common.errors import SimulationError
from repro.dataflow.analytical import analyze
from repro.sim.engine import DEFAULT_MAX_CYCLES, SimulationEngine
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem
from repro.trace.generator import generate_trace
from repro.trace.stats import compute_trace_stats
from repro.trace.synthetic import make_shared_hotset_trace, make_stream_trace


class TestConservationLaws:
    """Request conservation: everything issued is eventually served exactly once."""

    @pytest.fixture()
    def result_and_trace(self, tiny_system, unopt_policy, tiny_workload):
        trace = generate_trace(tiny_workload, tiny_system)
        sim = Simulator(tiny_system, unopt_policy, trace)
        return sim.run(), trace, sim

    def test_all_thread_blocks_complete(self, result_and_trace):
        result, trace, _ = result_and_trace
        assert result.thread_blocks == len(trace)

    def test_llc_accesses_plus_l1_hits_equals_trace_accesses(self, result_and_trace):
        result, trace, _ = result_and_trace
        stats = compute_trace_stats(trace)
        l1_hits = sum(core.l1_hits for core in result.cores)
        assert result.llc.accesses + l1_hits == stats.total_accesses

    def test_llc_miss_path_conservation(self, result_and_trace):
        """Every cache miss is either merged into an MSHR entry or allocates one."""

        result, _, _ = result_and_trace
        assert result.llc.misses == result.llc.mshr_merges + result.llc.mshr_allocations

    def test_dram_reads_equal_mshr_allocations(self, result_and_trace):
        result, _, _ = result_and_trace
        assert result.llc.dram_reads == result.llc.mshr_allocations
        assert result.dram.reads == result.llc.dram_reads

    def test_noc_requests_match_llc_accepts(self, result_and_trace):
        result, _, _ = result_and_trace
        assert result.noc_requests == result.llc.requests_accepted

    def test_execution_not_faster_than_analytical_bound(
        self, result_and_trace, tiny_system, tiny_workload
    ):
        result, _, _ = result_and_trace
        estimate = analyze(tiny_workload, tiny_system)
        # The cycle-level run includes stalls and queueing, so it can never beat
        # the stall-free analytical bound by more than a rounding margin.
        assert result.cycles >= 0.9 * estimate.dram_bound_cycles

    def test_mshr_entry_utilization_in_range(self, result_and_trace):
        result, _, _ = result_and_trace
        assert 0.0 <= result.mshr_entry_utilization <= 1.0

    def test_hit_rates_in_range(self, result_and_trace):
        result, _, _ = result_and_trace
        assert 0.0 <= result.l2_hit_rate <= 1.0
        assert 0.0 <= result.mshr_hit_rate <= 1.0

    def test_dram_bandwidth_below_peak(self, result_and_trace, tiny_system):
        result, _, _ = result_and_trace
        assert result.dram_bandwidth_gbps <= tiny_system.dram.peak_bandwidth_gbps


class TestDeterminism:
    def test_same_configuration_same_cycles(self, tiny_system, unopt_policy, tiny_workload):
        # Each run gets its own freshly generated trace.
        a, b = (
            Simulator(tiny_system, unopt_policy, generate_trace(tiny_workload, tiny_system)).run()
            for _ in range(2)
        )
        assert a.cycles == b.cycles
        assert a.llc.hits == b.llc.hits
        assert a.dram.reads == b.dram.reads


class TestSyntheticTraces:
    def test_hotset_trace_has_high_hit_or_merge_rate(self, tiny_system, unopt_policy):
        trace = make_shared_hotset_trace(num_blocks=16, lines_per_block=32, hot_lines=32)
        result = Simulator(tiny_system, unopt_policy, trace).run()
        # All blocks read the same 32 lines: after the compulsory misses nearly
        # everything is an L2 hit or an MSHR merge.  A handful of re-fetches can
        # happen in the window between an MSHR release and the storage fill, so
        # DRAM reads stay far below the 512 issued accesses but may exceed 32.
        assert result.l2_hit_rate + result.mshr_hit_rate * (1 - result.l2_hit_rate) > 0.8
        assert result.dram.reads <= 2 * 32

    def test_stream_trace_has_no_reuse(self, tiny_system, unopt_policy):
        trace = make_stream_trace(num_blocks=8, lines_per_block=32)
        result = Simulator(tiny_system, unopt_policy, trace).run()
        assert result.l2_hit_rate < 0.05
        assert result.dram.reads == 8 * 32


class TestEngine:
    def test_max_cycles_guard_raises(self, tiny_system, unopt_policy, tiny_workload):
        trace = generate_trace(tiny_workload, tiny_system)
        sim = Simulator(tiny_system, unopt_policy, trace, max_cycles=50)
        with pytest.raises(SimulationError):
            sim.run()

    def test_no_cycle_cap_means_the_engine_default(self, tiny_system, unopt_policy):
        trace = make_stream_trace(num_blocks=2)
        assert Simulator(tiny_system, unopt_policy, trace).max_cycles == DEFAULT_MAX_CYCLES
        assert Simulator(tiny_system, unopt_policy, trace, max_cycles=7).max_cycles == 7

    def test_simulator_rejects_nonpositive_cycle_cap(self, tiny_system, unopt_policy):
        sim = Simulator(tiny_system, unopt_policy, make_stream_trace(num_blocks=2), max_cycles=0)
        with pytest.raises(SimulationError):
            sim.run()

    def test_engine_rejects_bad_max_cycles(self, tiny_system, unopt_policy, tiny_workload):
        trace = generate_trace(tiny_workload, tiny_system)
        system = SimulatedSystem(tiny_system, unopt_policy, trace)
        with pytest.raises(SimulationError):
            SimulationEngine(system, max_cycles=0)

    def test_result_summary_and_dict(self, tiny_system, unopt_policy, tiny_workload):
        trace = generate_trace(tiny_workload, tiny_system)
        result = Simulator(tiny_system, unopt_policy, trace).run()
        assert "cycles" in result.to_dict()
        assert result.workload in result.summary()
