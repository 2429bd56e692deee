"""Round-trip serialization of SimResult and its nested statistics."""

from __future__ import annotations

import json

import pytest

from repro.dram.system import DramStats
from repro.llc.llc import LLCStats
from repro.sim.results import CoreResult, SimResult
from repro.sim.runner import run_policy


@pytest.fixture()
def real_result(tiny_system, unopt_policy, tiny_workload) -> SimResult:
    return run_policy(tiny_system, tiny_workload, unopt_policy, label="unopt")


class TestStatsRoundTrip:
    def test_llc_stats(self):
        stats = LLCStats(
            hits=10, misses=5, mshr_merges=3, mshr_allocations=5, stall_cycles=7,
            mshr_entry_utilization=0.42, requests_accepted=15, dram_reads=5,
            dram_writes=2, writebacks=1, peak_mshr_occupancy=4,
        )
        assert LLCStats.from_dict(stats.to_dict()) == stats

    def test_dram_stats(self):
        stats = DramStats(
            reads=100, writes=20, row_hits=60, row_misses=40, row_conflicts=20,
            bytes_transferred=7680, busy_cycles=500, avg_queue_wait=3.25,
        )
        assert DramStats.from_dict(stats.to_dict()) == stats

    def test_core_result(self):
        core = CoreResult(
            core_id=3, issued_requests=11, l1_hits=4, mem_stall_cycles=100,
            idle_cycles=20, active_cycles=200, completed_blocks=2,
            final_max_running_blocks=4,
        )
        assert CoreResult.from_dict(core.to_dict()) == core


class TestSimResultRoundTrip:
    def test_equality_through_dict(self, real_result):
        assert SimResult.from_dict(real_result.to_dict()) == real_result

    def test_equality_through_json_text(self, real_result):
        text = json.dumps(real_result.to_dict(), sort_keys=True)
        restored = SimResult.from_dict(json.loads(text))
        assert restored == real_result

    def test_derived_metrics_recompute_identically(self, real_result):
        restored = SimResult.from_dict(real_result.to_dict())
        assert restored.l2_hit_rate == real_result.l2_hit_rate
        assert restored.mshr_hit_rate == real_result.mshr_hit_rate
        assert restored.dram_bandwidth_gbps == real_result.dram_bandwidth_gbps
        assert restored.cache_stall_ratio == real_result.cache_stall_ratio
        assert restored.execution_time_us == real_result.execution_time_us

    def test_dict_keeps_headline_metrics_for_tables(self, real_result):
        data = real_result.to_dict()
        assert "cycles" in data
        assert data["metrics"]["l2_hit_rate"] == real_result.l2_hit_rate
        assert data["metrics"]["cycles"] == real_result.cycles

    def test_cores_restored_as_tuple_of_core_results(self, real_result):
        restored = SimResult.from_dict(real_result.to_dict())
        assert isinstance(restored.cores, tuple)
        assert all(isinstance(core, CoreResult) for core in restored.cores)
        assert restored.cores == real_result.cores


class TestTerminationStatus:
    def test_completed_run_reports_completed_status(self, real_result):
        assert real_result.status == "completed"
        assert real_result.completed
        assert real_result.to_dict()["status"] == "completed"

    def test_status_round_trips(self, real_result):
        from dataclasses import replace

        livelocked = replace(real_result, status="livelock")
        restored = SimResult.from_dict(livelocked.to_dict())
        assert restored.status == "livelock"
        assert not restored.completed
        assert restored == livelocked

    def test_legacy_store_without_status_loads_as_completed(self, real_result):
        # Pre-PR-9 JSONL stores predate the termination-status field; any run
        # they recorded could only have drained successfully.
        data = real_result.to_dict()
        del data["status"]
        restored = SimResult.from_dict(data)
        assert restored.status == "completed"
        assert restored == real_result
