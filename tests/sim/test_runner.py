"""Tests for the experiment runner (trace caching and the one kernel-run path)."""

from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.config.policies import PolicyConfig, ThrottleKind
from repro.dataflow.constraints import DataflowConstraints
from repro.dataflow.ordering import ThreadBlockOrdering
from repro.sim import runner as runner_module
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.sim.runner import (
    cached_trace,
    clear_trace_cache,
    run_policy,
    trace_cache_size,
)
from repro.sim.simulator import Simulator
from repro.trace.generator import generate_trace


class TestTraceCache:
    def test_same_workload_returns_same_object(self, tiny_system, tiny_workload):
        clear_trace_cache()
        a = cached_trace(tiny_workload, tiny_system)
        b = cached_trace(tiny_workload, tiny_system)
        assert a is b

    def test_different_seq_len_is_different_trace(self, tiny_system, tiny_workload):
        clear_trace_cache()
        a = cached_trace(tiny_workload, tiny_system)
        b = cached_trace(tiny_workload.with_seq_len(128), tiny_system)
        assert a is not b

    def test_cache_size_change_does_not_invalidate_trace(self, tiny_system, tiny_workload):
        """The trace only depends on line size / workload, not on L2 capacity."""

        clear_trace_cache()
        a = cached_trace(tiny_workload, tiny_system)
        b = cached_trace(tiny_workload, tiny_system.with_l2_size(512 * 1024))
        assert a is b

    def test_constraints_are_part_of_the_key(self, tiny_system, tiny_workload):
        clear_trace_cache()
        default = cached_trace(tiny_workload, tiny_system)
        constrained = cached_trace(
            tiny_workload, tiny_system,
            constraints=DataflowConstraints(output_lines_per_block=2),
        )
        assert default is not constrained
        # Re-passing equal constraints hits the same entry.
        again = cached_trace(
            tiny_workload, tiny_system,
            constraints=DataflowConstraints(output_lines_per_block=2),
        )
        assert again is constrained

    def test_mac_cost_is_part_of_the_key(self, tiny_system, tiny_workload):
        """Every KV entry carries the per-MAC compute cost, so a system that
        differs only in that cost must not reuse another system's trace."""

        slow = replace(
            tiny_system, core=replace(tiny_system.core, compute_cycles_per_vector_mac=8)
        )
        clear_trace_cache()
        default = run_policy(tiny_system, tiny_workload, PolicyConfig())
        after_default = run_policy(slow, tiny_workload, PolicyConfig())
        clear_trace_cache()
        cold = run_policy(slow, tiny_workload, PolicyConfig())
        assert cold.cycles != default.cycles
        assert after_default.to_dict() == cold.to_dict()

    @pytest.mark.parametrize(
        ("part", "field", "value"),
        [
            ("l2", "line_size", 128),
            ("core", "vector_lanes", 64),
            ("core", "compute_cycles_per_vector_mac", 8),
        ],
    )
    def test_generator_system_inputs_are_part_of_the_key(
        self, tiny_system, tiny_workload, part, field, value
    ):
        """Each system field the trace generator reads gets its own entry, and
        that entry is the trace a cold generation would give."""

        changed = replace(
            tiny_system, **{part: replace(getattr(tiny_system, part), **{field: value})}
        )
        clear_trace_cache()
        default = cached_trace(tiny_workload, tiny_system)
        trace = cached_trace(tiny_workload, changed)
        assert trace is not default
        assert trace == generate_trace(tiny_workload, changed)

    def test_ordering_is_part_of_the_key(self, tiny_system, tiny_workload):
        clear_trace_cache()
        shared = cached_trace(tiny_workload, tiny_system)
        sequential = cached_trace(
            tiny_workload, tiny_system, ordering=ThreadBlockOrdering.SEQUENTIAL
        )
        assert sequential is not shared
        assert sequential == generate_trace(
            tiny_workload, tiny_system, ordering=ThreadBlockOrdering.SEQUENTIAL
        )

    def test_policies_share_one_trace(self, tiny_system, tiny_workload):
        """The policy is not a trace input: a policy comparison generates once."""

        clear_trace_cache()
        run_policy(tiny_system, tiny_workload, PolicyConfig())
        run_policy(tiny_system, tiny_workload, PolicyConfig(throttle=ThrottleKind.DYNMG))
        assert trace_cache_size() == 1

    def test_cache_is_bounded_with_lru_eviction(self, tiny_system, tiny_workload, monkeypatch):
        clear_trace_cache()
        monkeypatch.setattr(runner_module, "TRACE_CACHE_MAX_ENTRIES", 2)
        oldest = cached_trace(tiny_workload.with_seq_len(64), tiny_system)
        cached_trace(tiny_workload.with_seq_len(128), tiny_system)
        # Touch the oldest entry so the 128-token trace becomes LRU...
        assert cached_trace(tiny_workload.with_seq_len(64), tiny_system) is oldest
        # ...then overflow: the 128-token trace is evicted, the 64-token kept.
        cached_trace(tiny_workload.with_seq_len(256), tiny_system)
        assert trace_cache_size() == 2
        assert cached_trace(tiny_workload.with_seq_len(64), tiny_system) is oldest
        clear_trace_cache()
        assert trace_cache_size() == 0


class TestRunPolicy:
    def test_returns_labelled_result(self, tiny_system, tiny_workload):
        result = run_policy(tiny_system, tiny_workload, PolicyConfig(), label="base")
        assert result.label == "base"
        assert result.cycles > 0

    def test_workload_path_generates_trace(self, tiny_system, unopt_policy, tiny_workload):
        result = run_policy(tiny_system, tiny_workload, unopt_policy)
        assert result.cycles > 0
        assert result.workload == tiny_workload.name

    def test_label_defaults_to_policy_label(self, tiny_system, tiny_workload):
        result = run_policy(tiny_system, tiny_workload, PolicyConfig(throttle=ThrottleKind.DYNMG))
        assert result.label == "dynmg"

    def test_no_cycle_cap_means_the_engine_default(
        self, tiny_system, unopt_policy, tiny_workload, monkeypatch
    ):
        caps = []
        real_simulator = runner_module.Simulator

        def recording_simulator(*args, **kwargs):
            simulator = real_simulator(*args, **kwargs)
            caps.append(simulator.max_cycles)
            return simulator

        monkeypatch.setattr(runner_module, "Simulator", recording_simulator)
        run_policy(tiny_system, tiny_workload, unopt_policy)
        run_policy(tiny_system, tiny_workload, unopt_policy, max_cycles=10**6)
        assert caps == [DEFAULT_MAX_CYCLES, 10**6]

    def test_nonpositive_cycle_cap_rejected(self, tiny_system, unopt_policy, tiny_workload):
        with pytest.raises(SimulationError):
            run_policy(tiny_system, tiny_workload, unopt_policy, max_cycles=0)

    @pytest.mark.parametrize(
        "ordering", [ThreadBlockOrdering.GQA_SHARED, ThreadBlockOrdering.SEQUENTIAL]
    )
    def test_matches_a_simulator_on_a_fresh_trace(
        self, tiny_system, unopt_policy, tiny_workload, ordering
    ):
        """A cached-trace run is byte-identical to a run on a cold trace."""

        constraints = DataflowConstraints(output_lines_per_block=2)
        clear_trace_cache()
        cached_trace(tiny_workload, tiny_system, ordering, constraints)  # warm the entry
        result = run_policy(
            tiny_system, tiny_workload, unopt_policy, label="x",
            ordering=ordering, constraints=constraints,
        )
        trace = generate_trace(
            tiny_workload, tiny_system, constraints=constraints, ordering=ordering
        )
        fresh = Simulator(tiny_system, unopt_policy, trace, label="x").run()
        assert result.to_dict() == fresh.to_dict()
