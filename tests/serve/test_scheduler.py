"""Continuous-batching scheduler: admission, eviction, effective decode shape."""

import pytest

from repro.common.errors import ConfigError
from repro.serve.request import Request
from repro.serve.schedpolicy import StepPlan
from repro.serve.scheduler import (
    ActiveRequest,
    BatchConfig,
    ContinuousBatchScheduler,
    HandoffRequest,
    bucket_context,
)
from repro.serve.simulator import complete_step, plan_cycles
from repro.serve.stepcost import StepCostModel


def request(rid: int, arrival: float = 0.0, prompt: int = 100, output: int = 4) -> Request:
    return Request(
        request_id=rid, arrival_s=arrival, prompt_tokens=prompt, output_tokens=output
    ).validate()


def make_scheduler(max_batch: int = 2) -> ContinuousBatchScheduler:
    return ContinuousBatchScheduler(config=BatchConfig(max_batch=max_batch))


class TestBucketContext:
    def test_floor_applies(self):
        assert bucket_context(1) == 64
        assert bucket_context(64) == 64

    def test_rounds_up_to_powers_of_two(self):
        assert bucket_context(65) == 128
        assert bucket_context(128) == 128
        assert bucket_context(129) == 256

    def test_custom_floor(self):
        assert bucket_context(5, floor=16) == 16
        with pytest.raises(ConfigError):
            bucket_context(5, floor=0)


class TestAdmission:
    def test_fcfs_up_to_max_batch(self):
        scheduler = make_scheduler(max_batch=2)
        for rid, arrival in ((2, 0.3), (0, 0.1), (1, 0.2)):
            scheduler.enqueue(request(rid, arrival))
        admitted = scheduler.admit(now_s=1.0)
        assert [a.request.request_id for a in admitted] == [0, 1]
        assert [r.request_id for r in scheduler.waiting] == [2]

    def test_future_arrivals_not_admitted(self):
        scheduler = make_scheduler()
        scheduler.enqueue(request(0, arrival=5.0))
        assert scheduler.admit(now_s=1.0) == []
        assert scheduler.next_arrival_s() == 5.0

    def test_admission_fills_freed_slots(self):
        scheduler = make_scheduler(max_batch=1)
        scheduler.enqueue(request(0, 0.0, output=1))
        scheduler.enqueue(request(1, 0.0))
        scheduler.admit(0.0)
        assert len(scheduler.running) == 1
        scheduler.running[0].generated = 1          # finish request 0
        assert [a.request.request_id for a in scheduler.evict_finished(1.0)] == [0]
        admitted = scheduler.admit(1.0)
        assert [a.request.request_id for a in admitted] == [1]


class TestTiedArrivals:
    def test_handoff_and_fresh_request_tiebreak_by_id(self):
        # A re-admitted handoff and a fresh arrival with the same arrival_s
        # must admit in request-id order, whichever was enqueued first.
        scheduler = make_scheduler(max_batch=2)
        handoff = HandoffRequest(
            active=ActiveRequest(request=request(3), admitted_s=0.0),
            arrival_s=1.0,
        )
        scheduler.enqueue(request(1, arrival=1.0))
        scheduler.enqueue(handoff)
        assert [r.request_id for r in scheduler.waiting] == [1, 3]
        admitted = scheduler.admit(now_s=1.0)
        assert [a.request.request_id for a in admitted] == [1, 3]
        # The handoff resumed the same progress record, not a fresh one.
        assert admitted[1] is handoff.active

    def test_enqueue_order_matches_a_full_sort(self):
        # bisect.insort must reproduce exactly what re-sorting the whole list
        # produced, including ties on arrival_s.
        arrivals = [(5, 0.2), (1, 0.1), (4, 0.1), (2, 0.2), (0, 0.1), (3, 0.0)]
        scheduler = make_scheduler()
        for rid, arrival in arrivals:
            scheduler.enqueue(request(rid, arrival=arrival))
        expected = sorted(
            (request(rid, arrival=arrival) for rid, arrival in arrivals),
            key=lambda r: (r.arrival_s, r.request_id),
        )
        assert [r.request_id for r in scheduler.waiting] == [
            r.request_id for r in expected
        ]


class TestCompleteStep:
    def prefilling(self, remaining: int = 10) -> ActiveRequest:
        active = ActiveRequest(
            request=request(0, prompt=remaining, output=4), admitted_s=0.0
        )
        active.prefill_remaining = remaining
        return active

    def test_overshooting_chunk_clamps_and_finishes_prefill(self):
        # Regression: a chunk larger than the remaining prompt used to drive
        # prefill_remaining negative, so `== 0` never stamped prefill_end_s
        # and the request sat in_prefill forever.
        scheduler = make_scheduler()
        active = self.prefilling(remaining=10)
        scheduler.running.append(active)
        complete_step(scheduler, StepPlan(prefill=((active, 16),)), end_s=1.0)
        assert active.prefill_remaining == 0
        assert not active.in_prefill
        assert active.prefill_end_s == 1.0

    def test_prefill_end_is_stamped_once(self):
        # A recompute-preempted request re-prefills later; prefill_end_s must
        # keep describing the first completion (metrics order it before
        # first_token_s).
        scheduler = make_scheduler()
        active = self.prefilling(remaining=10)
        scheduler.running.append(active)
        complete_step(scheduler, StepPlan(prefill=((active, 10),)), end_s=1.0)
        assert active.prefill_end_s == 1.0
        active.prefill_remaining = 10                  # recompute re-prefill
        complete_step(scheduler, StepPlan(prefill=((active, 10),)), end_s=5.0)
        assert active.prefill_end_s == 1.0             # first stamp survives


class TestEviction:
    def test_finished_requests_are_stamped_and_removed(self):
        scheduler = make_scheduler()
        scheduler.enqueue(request(0, output=2))
        scheduler.enqueue(request(1, output=4))
        scheduler.admit(0.0)
        for active in scheduler.running:
            active.generated = 2
        finished = scheduler.evict_finished(now_s=3.0)
        assert [a.request.request_id for a in finished] == [0]
        assert finished[0].finish_s == 3.0
        assert [a.request.request_id for a in scheduler.running] == [1]


class ShapeRecorder(StepCostModel):
    """Records every decode shape it is asked to price."""

    def __init__(self) -> None:
        self.shapes: list[tuple[int, int]] = []

    def step_cycles(self, batch: int, context_tokens: int) -> int:
        self.shapes.append((batch, context_tokens))
        return 1


class TestDecodeShape:
    """A decode plan is priced at ``(len(decode), bucketed longest context)``."""

    def test_context_is_the_batch_maximum(self):
        scheduler = make_scheduler()
        scheduler.enqueue(request(0, prompt=100))
        scheduler.enqueue(request(1, prompt=500))
        scheduler.admit(0.0)
        scheduler.running[0].generated = 3
        plan = StepPlan(decode=tuple(scheduler.running)).validate()
        assert plan.decode_context() == 500
        model = ShapeRecorder()
        assert plan_cycles(model, plan) == 1
        assert model.shapes == [(2, bucket_context(500))]       # 512

    def test_context_grows_with_generation(self):
        scheduler = make_scheduler()
        scheduler.enqueue(request(0, prompt=128, output=8))
        scheduler.admit(0.0)
        plan = StepPlan(decode=tuple(scheduler.running)).validate()
        model = ShapeRecorder()
        plan_cycles(model, plan)
        scheduler.running[0].generated = 1
        plan_cycles(model, plan)
        assert model.shapes == [(1, 128), (1, 256)]  # 129 -> next power of two

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigError):
            StepPlan().validate()


class TestBatchConfig:
    def test_round_trip(self):
        config = BatchConfig(max_batch=8, seq_bucket_floor=32)
        assert BatchConfig.from_dict(config.to_dict()) == config

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            BatchConfig(max_batch=0).validate()


class TestNoStarvation:
    """Under sustained max-batch pressure, FCFS must never starve a request."""

    def drain(self, scheduler: ContinuousBatchScheduler, max_steps: int = 10_000):
        """Drive the scheduler to empty, one token per running request per step.

        Returns the admission order (request ids) and per-request admission
        step, mimicking the simulator loop without any cost model.
        """

        admission_order: list[int] = []
        completed: list[int] = []
        for step in range(max_steps):
            if not scheduler.has_work:
                return admission_order, completed
            now_s = float(step)
            admission_order.extend(
                a.request.request_id for a in scheduler.admit(now_s)
            )
            for active in scheduler.running:
                active.generated += 1
            completed.extend(
                a.request.request_id for a in scheduler.evict_finished(now_s)
            )
        raise AssertionError(f"scheduler failed to drain in {max_steps} steps")

    def test_admission_is_fcfs_under_sustained_pressure(self):
        # 50 requests all present at t=0 against a batch of 2: the queue stays
        # saturated for the whole run, the classic starvation scenario.
        scheduler = make_scheduler(max_batch=2)
        for rid in range(50):
            scheduler.enqueue(request(rid, arrival=0.0, output=1 + rid % 5))
        admission_order, completed = self.drain(scheduler)
        assert admission_order == list(range(50))      # FCFS order preserved
        assert sorted(completed) == list(range(50))    # every request completes

    def test_long_jobs_do_not_starve_the_queue(self):
        # One huge request occupies a slot; the stream of short requests behind
        # it must still flow through the other slot and all complete.
        scheduler = make_scheduler(max_batch=2)
        scheduler.enqueue(request(0, arrival=0.0, output=500))
        for rid in range(1, 40):
            scheduler.enqueue(request(rid, arrival=float(rid) * 0.1, output=2))
        admission_order, completed = self.drain(scheduler)
        assert admission_order == list(range(40))
        assert sorted(completed) == list(range(40))
        assert completed[-1] == 0                      # the long job finishes last

    def test_continuous_arrivals_preserve_arrival_order(self):
        # Requests keep arriving exactly as fast as slots free up; admission
        # must follow (arrival_s, request_id) order even when late-enqueued
        # requests carry earlier ids.
        scheduler = make_scheduler(max_batch=1)
        for rid, arrival in ((5, 0.0), (3, 1.0), (8, 2.0), (1, 3.0)):
            scheduler.enqueue(request(rid, arrival=arrival, output=1))
        admission_order, completed = self.drain(scheduler)
        assert admission_order == [5, 3, 8, 1]
        assert sorted(completed) == [1, 3, 5, 8]
