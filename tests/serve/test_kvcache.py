"""KV-cache memory model: config, paged allocation, admission gating, metrics."""

import pytest

from repro.cluster.scenario import ClusterScenario
from repro.common.errors import ConfigError, LivelockError, SimulationError
from repro.common.rng import make_rng
from repro.config.scale import ScaleTier
from repro.registry import PREEMPTIONS, resolve_system
from repro.serve.kvcache import DEFAULT_SWAP_MS, KVCacheConfig, KVCacheManager
from repro.serve.request import Request
from repro.serve.scenario import ServeScenario
from repro.serve.scheduler import BatchConfig, ContinuousBatchScheduler, bucket_context
from repro.serve.simulator import ServeStallReport, build_serve_stall_report


def request(rid: int, arrival: float = 0.0, prompt: int = 100, output: int = 4) -> Request:
    return Request(
        request_id=rid, arrival_s=arrival, prompt_tokens=prompt, output_tokens=output
    ).validate()


def kv_scheduler(
    budget: int, block: int = 1, max_batch: int = 4, preemption: str = "recompute"
) -> ContinuousBatchScheduler:
    return ContinuousBatchScheduler(
        config=BatchConfig(
            max_batch=max_batch,
            prefill=True,
            kv=KVCacheConfig(
                budget_tokens=budget, block_tokens=block, preemption=preemption
            ),
        )
    )


def smoke_scenario(**overrides) -> ServeScenario:
    """The acceptance-criterion point: a KV budget tight enough to preempt."""

    params = dict(
        workload="llama3-70b",
        arrival="poisson",
        rate=4000.0,
        num_requests=8,
        max_batch=4,
        seed=0,
        tier=ScaleTier.SMOKE,
        kv_budget=1024,
        kv_block=32,
    )
    params.update(overrides)
    return ServeScenario(**params).validate()


class TestKVCacheConfig:
    def test_disabled_by_default(self):
        config = KVCacheConfig().validate()
        assert not config.enabled
        assert config.capacity_blocks == 0

    def test_capacity_floors_partial_blocks(self):
        assert KVCacheConfig(budget_tokens=100, block_tokens=32).capacity_blocks == 3

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            KVCacheConfig(budget_tokens=0).validate()
        with pytest.raises(ConfigError):
            KVCacheConfig(block_tokens=0).validate()
        with pytest.raises(ConfigError):
            KVCacheConfig(budget_tokens=1024, swap_ms=-1.0).validate()
        with pytest.raises(ConfigError):
            KVCacheConfig(budget_tokens=1024, preemption="nope").validate()
        # A budget smaller than one block holds nothing.
        with pytest.raises(ConfigError):
            KVCacheConfig(budget_tokens=16, block_tokens=32).validate()

    def test_round_trip(self):
        config = KVCacheConfig(
            budget_tokens=2048, block_tokens=16, preemption="swap", swap_ms=0.25
        ).validate()
        assert KVCacheConfig.from_dict(config.to_dict()) == config


class TestKVCacheManager:
    def test_requires_a_budget(self):
        with pytest.raises(ConfigError):
            KVCacheManager(KVCacheConfig())

    def test_blocks_for_rounds_up(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=1024, block_tokens=32))
        assert manager.blocks_for(1) == 1
        assert manager.blocks_for(32) == 1
        assert manager.blocks_for(33) == 2

    def test_reserve_grow_release_accounting(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=320, block_tokens=32))
        manager.reserve(0, 100)                       # 4 blocks
        assert (manager.used_blocks, manager.free_blocks) == (4, 6)
        manager.grow(0, 129)                          # 5 blocks now
        assert manager.used_blocks == 5
        manager.release(0)
        assert manager.used_blocks == 0
        assert manager.peak_used_blocks == 5          # high-water mark survives

    def test_fragmentation_is_block_padding_waste(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=320, block_tokens=32))
        manager.reserve(0, 33)                        # 2 blocks for 33 tokens
        assert manager.peak_fragmentation_tokens == 2 * 32 - 33
        # Exact accounting (block=1) never fragments.
        exact = KVCacheManager(KVCacheConfig(budget_tokens=320, block_tokens=1))
        exact.reserve(0, 33)
        assert exact.peak_fragmentation_tokens == 0

    def test_misuse_raises(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=64, block_tokens=32))
        manager.reserve(0, 10)
        with pytest.raises(SimulationError):
            manager.reserve(0, 10)                    # double reserve
        with pytest.raises(SimulationError):
            manager.reserve(1, 1000)                  # over capacity
        with pytest.raises(SimulationError):
            manager.grow(7, 10)                       # never reserved
        with pytest.raises(SimulationError):
            manager.release(7)

    def test_peak_utilization_is_a_block_fraction(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=320, block_tokens=32))
        manager.reserve(0, 160)
        assert manager.peak_utilization == pytest.approx(0.5)


def random_kv_ops(manager: KVCacheManager, seed: int, steps: int = 600):
    """Apply a seeded mix of reserve, grow (up and down) and release.

    Yields each applied operation as ``(op, request_id, tokens)``; a grow is
    drawn around the request's current length, so it may add blocks, shrink
    them, or stay within the same blocks with more or fewer tokens.
    """

    rng = make_rng(seed)
    block = manager.block_tokens
    next_id = 0
    for _ in range(steps):
        held = sorted(manager.tokens)
        roll = int(rng.integers(10))
        if not held or roll < 3:
            tokens = int(rng.integers(1, 6 * block + 1))
            if manager.fits(tokens):
                manager.reserve(next_id, tokens)
                yield "reserve", next_id, tokens
                next_id += 1
                continue
            if not held:
                continue
            roll = 9  # no room: release instead
        rid = held[int(rng.integers(len(held)))]
        if roll < 8:
            current = manager.tokens[rid]
            tokens = max(1, current + int(rng.integers(-block - 2, 2 * block + 1)))
            if manager.blocks_for(tokens) - manager.blocks[rid] > manager.free_blocks:
                tokens = max(1, current - int(rng.integers(block + 1)))
            manager.grow(rid, tokens)
            yield "grow", rid, tokens
        else:
            manager.release(rid)
            yield "release", rid, None


def doubling_bucket(context_tokens: int, floor: int) -> int:
    """``bucket_context`` as the doubling loop it replaced, kept as its oracle."""

    size = max(int(context_tokens), floor)
    bucket = floor
    while bucket < size:
        bucket *= 2
    return bucket


class TestRunningTotalsOracle:
    """The manager's running totals and peaks against full recomputation."""

    @pytest.mark.parametrize("block", [1, 7, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_totals_and_peaks_match_recomputation(self, block, seed):
        manager = KVCacheManager(
            KVCacheConfig(budget_tokens=40 * block + block // 2, block_tokens=block)
        )
        peak_used = peak_waste = 0
        kinds = set()
        for op, rid, tokens in random_kv_ops(manager, seed):
            kinds.add(op)
            pinned = sum(manager.tokens.values())
            used = sum(manager.blocks.values())
            assert manager.pinned_tokens == pinned, (op, rid, tokens)
            assert manager.used_blocks == used, (op, rid, tokens)
            assert all(
                manager.blocks[r] == manager.blocks_for(t) for r, t in manager.tokens.items()
            )
            if op != "release":
                # Recomputed the way every reserve and grow once did it.
                peak_used = max(peak_used, used)
                peak_waste = max(peak_waste, used * block - pinned)
            assert manager.peak_used_blocks == peak_used, (op, rid, tokens)
            assert manager.peak_fragmentation_tokens == peak_waste, (op, rid, tokens)
        assert kinds == {"reserve", "grow", "release"}
        assert manager.peak_used_blocks > 0
        assert (manager.peak_fragmentation_tokens > 0) == (block > 1)

    def test_shrink_within_the_same_blocks_raises_the_waste_peak(self):
        manager = KVCacheManager(KVCacheConfig(budget_tokens=64, block_tokens=16))
        manager.reserve(0, 16)                        # one full block: no waste
        assert manager.peak_fragmentation_tokens == 0
        manager.grow(0, 3)                            # same block, 13 padding
        assert (manager.used_blocks, manager.pinned_tokens) == (1, 3)
        assert manager.peak_fragmentation_tokens == 13

    @pytest.mark.parametrize("floor", [1, 3, 16, 64, 100])
    def test_bucket_context_matches_the_doubling_loop(self, floor):
        for context in range(5001):
            assert bucket_context(context, floor) == doubling_bucket(context, floor), context


class TestAdmissionGating:
    def test_admission_packs_up_to_the_budget(self):
        scheduler = kv_scheduler(budget=150, max_batch=4)
        scheduler.enqueue(request(0, prompt=100, output=4))
        scheduler.enqueue(request(1, prompt=40, output=4))
        admitted = scheduler.admit(0.0)
        # Request 0 pins 100 of the 150 tokens; request 1's 40 fit the rest.
        assert [a.request.request_id for a in admitted] == [0, 1]
        assert not scheduler.kv_blocked

    def test_head_of_line_blocks_fcfs(self):
        scheduler = kv_scheduler(budget=130, max_batch=4)
        scheduler.enqueue(request(0, prompt=100, output=4))
        scheduler.enqueue(request(1, prompt=100, output=4))
        scheduler.enqueue(request(2, prompt=10, output=4))
        admitted = scheduler.admit(0.0)
        # Request 1 does not fit; request 2 would, but FCFS admission must not
        # skip ahead of the blocked head.
        assert [a.request.request_id for a in admitted] == [0]
        assert scheduler.kv_blocked
        assert [r.request_id for r in scheduler.waiting] == [1, 2]

    def test_infeasible_peak_footprint_raises(self):
        scheduler = kv_scheduler(budget=64, block=32, max_batch=2)
        scheduler.enqueue(request(0, prompt=100, output=10))
        with pytest.raises(ConfigError, match="at peak"):
            scheduler.admit(0.0)

    def test_blocks_released_on_finish(self):
        scheduler = kv_scheduler(budget=150, max_batch=1)
        scheduler.enqueue(request(0, prompt=100, output=1))
        scheduler.admit(0.0)
        assert scheduler.kv is not None and scheduler.kv.used_blocks == 100
        scheduler.running[0].generated = 1
        scheduler.evict_finished(1.0)
        assert scheduler.kv.used_blocks == 0


class TestScenarioConfig:
    def test_kv_off_to_dict_is_key_stable(self):
        # No KV keys appear when the model is off: pre-KV content hashes (and
        # every golden fixture) stay valid.
        data = ServeScenario(workload="llama3-70b").to_dict()
        assert "kv_budget" not in data
        assert "kv_block" not in data
        assert "preemption" not in data

    def test_round_trip_with_kv(self):
        scenario = smoke_scenario(preemption="swap", kv_swap_ms=0.2)
        assert ServeScenario.from_dict(scenario.to_dict()) == scenario

    def test_kv_needs_prefill_cost(self):
        with pytest.raises(ConfigError, match="prefill_cost"):
            smoke_scenario(prefill_cost=False)

    @pytest.mark.parametrize(
        ("system", "budget"),
        [("table5", 16384), ("table5-32core", 32768), ("table5-8core", 8192)],
    )
    def test_system_budget_resolves_per_preset(self, system, budget):
        assert resolve_system(system).kv_budget_tokens == budget
        scenario = ServeScenario(
            workload="llama3-70b", system=system, kv_budget="system"
        ).validate()
        assert scenario.kv_config().budget_tokens == budget

    def test_unknown_budget_kind_rejected(self):
        with pytest.raises(ConfigError, match="kv_budget"):
            ServeScenario(workload="llama3-70b", kv_budget="lots").validate()

    @pytest.mark.parametrize("scenario_cls", [ServeScenario, ClusterScenario])
    @pytest.mark.parametrize(
        ("knob", "match"),
        [
            ({"kv_block": 0}, "block_tokens must be positive"),
            ({"kv_swap_ms": -1.0}, "swap_ms must be non-negative"),
            ({"preemption": "bogus"}, "bogus"),
        ],
    )
    def test_kv_knobs_validated_with_accounting_off(self, scenario_cls, knob, match):
        # A sweep axis must not carry a bad KV knob silently just because the
        # budget axis keeps accounting off for that cell.
        with pytest.raises(ConfigError, match=match):
            scenario_cls(workload="llama3-70b", **knob).validate()


class TestEndToEnd:
    def test_kv_off_emits_no_kv_meta(self):
        metrics = smoke_scenario(kv_budget=None, kv_block=1).run()
        assert "preemptions" not in metrics.meta
        assert "kv_budget_tokens" not in metrics.meta
        assert "kv_peak_utilization" not in metrics.meta

    def test_kv_meta_and_preemption_rate(self):
        metrics = smoke_scenario().run()
        assert metrics.meta["kv_budget_tokens"] == 1024
        assert metrics.meta["kv_block_tokens"] == 32
        assert metrics.meta["preemption"] == "recompute"
        assert metrics.meta["preemptions"] > 0
        assert metrics.meta["preemption_rate"] > 0
        assert 0.0 < metrics.meta["kv_peak_utilization"] <= 1.0
        assert metrics.meta["kv_memory_bound_s"] > 0.0
        assert 0.0 < metrics.meta["kv_memory_bound_frac"] <= 1.0
        assert metrics.num_requests == 8          # conservation under pressure

    def test_recompute_and_swap_are_measurably_different(self):
        recompute = smoke_scenario(preemption="recompute").run()
        swap = smoke_scenario(preemption="swap").run()
        assert recompute.meta["preemptions"] > 0
        assert swap.meta["preemptions"] > 0
        assert (
            recompute.ttft_percentile_ms(95) != swap.ttft_percentile_ms(95)
        )

    def test_seeded_kv_runs_are_deterministic(self):
        first = smoke_scenario().run()
        second = smoke_scenario().run()
        assert first.meta == second.meta
        assert [r.finish_s for r in first.requests] == [
            r.finish_s for r in second.requests
        ]


class TestStallReports:
    def test_max_steps_guard_raises_structured_livelock(self, monkeypatch):
        monkeypatch.setattr("repro.serve.simulator.MAX_STEPS", 3)
        with pytest.raises(LivelockError) as excinfo:
            smoke_scenario().run()
        report = excinfo.value.report
        assert isinstance(report, ServeStallReport)
        assert "3 steps" in report.reason
        assert report.kv_capacity_blocks == 1024 // 32
        assert "serve loop stalled" in str(excinfo.value)

    def test_blocked_admission_with_empty_batch_raises(self, monkeypatch):
        # Force the no-progress state the guard exists for: admission refuses
        # every arrived request while the batch is empty.
        def refuse_all(self, now_s):
            self.kv_blocked = True
            return []

        monkeypatch.setattr(ContinuousBatchScheduler, "admit", refuse_all)
        with pytest.raises(LivelockError, match="empty batch") as excinfo:
            smoke_scenario().run()
        assert excinfo.value.report.kv_blocked
        assert excinfo.value.report.running == 0

    def test_report_render_includes_kv_occupancy(self):
        scheduler = kv_scheduler(budget=150, max_batch=1)
        scheduler.enqueue(request(0, prompt=100, output=4))
        scheduler.admit(0.0)
        report = build_serve_stall_report(
            scheduler, "test reason", now_s=1.0, steps=7, completed=0, replica_id=3
        )
        text = report.render()
        assert "replica 3 stalled (test reason)" in text
        assert "running=1" in text
        assert "kv: 100/150 blocks used" in text

    def test_report_render_omits_kv_when_off(self):
        scheduler = ContinuousBatchScheduler(config=BatchConfig())
        report = build_serve_stall_report(
            scheduler, "test reason", now_s=0.0, steps=0, completed=0
        )
        assert "kv:" not in report.render()


def test_preemptions_registry_lists_builtins():
    assert {"recompute", "swap"} <= set(PREEMPTIONS.names())
    assert DEFAULT_SWAP_MS > 0
