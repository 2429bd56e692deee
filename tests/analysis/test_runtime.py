"""Tests for the runtime divergence localizer (probe, digests, bisect)."""

import json

from repro.analysis import (
    DeterminismReport,
    RngJitterArrival,
    StepDigest,
    StepProbe,
    check_determinism,
    collect_digests,
    localize_divergence,
)
from repro.cluster.simulator import ClusterSimulator, ReplicaSim
from repro.registry import resolve_router
from repro.serve.arrival import poisson_arrivals
from repro.serve.request import RequestSampler
from repro.serve.scheduler import BatchConfig
from repro.serve.simulator import ServingSimulator
from repro.serve.stepcost import LinearStepCostModel


def sampler(seed: int = 0) -> RequestSampler:
    return RequestSampler(seed=seed, prompt_tokens=(64, 256), output_tokens=(4, 16))


class TinyServeScenario:
    """A fast, fully deterministic stand-in for ServeScenario (linear costs)."""

    display_label = "tiny-serve"

    def __init__(self, seed: int = 0, num_requests: int = 10):
        self.seed = seed
        self.num_requests = num_requests

    def build_simulator(self) -> ServingSimulator:
        return ServingSimulator(
            arrival=poisson_arrivals(
                sampler(self.seed), rate=1000.0, num_requests=self.num_requests
            ),
            cost_model=LinearStepCostModel(),
            frequency_ghz=1.0,
            batch=BatchConfig(max_batch=4),
        )


class TinyClusterScenario(TinyServeScenario):
    display_label = "tiny-cluster"

    def build_simulator(self) -> ClusterSimulator:
        model = LinearStepCostModel()
        replicas = [
            ReplicaSim(
                replica_id=i,
                cost_model=model,
                frequency_ghz=1.0,
                batch=BatchConfig(max_batch=2),
            )
            for i in range(2)
        ]
        return ClusterSimulator(
            arrival=poisson_arrivals(
                sampler(self.seed), rate=1000.0, num_requests=self.num_requests
            ),
            router=resolve_router("round-robin")(2),
            replicas=replicas,
        )


class TestStepProbe:
    def test_records_one_digest_per_costed_step(self):
        simulator = TinyServeScenario().build_simulator()
        probe = StepProbe()
        metrics = simulator.run(observers=[probe])
        assert len(probe.digests) == metrics.steps
        assert [d.step for d in probe.digests] == list(
            range(1, metrics.steps + 1)
        )

    def test_probe_never_perturbs_metrics(self):
        bare = TinyServeScenario().build_simulator().run()
        probed = TinyServeScenario().build_simulator().run(observers=[StepProbe()])
        assert bare.to_dict() == probed.to_dict()

    def test_digest_payload_is_canonical_json(self):
        digests = collect_digests(TinyServeScenario())
        state = digests[0].state()
        assert set(state) == {
            "replica", "start_s", "waiting", "running", "decode",
            "prefill", "cycles", "rng",
        }
        assert json.dumps(state, sort_keys=True, separators=(",", ":")) == (
            digests[0].payload
        )

    def test_rng_token_tracks_closed_loop_sampling(self):
        digests = collect_digests(TinyServeScenario())
        # Poisson streams sample everything up front: position frozen.
        assert digests[0].state()["rng"] == digests[-1].state()["rng"]

    def test_cluster_probe_tags_replicas(self):
        digests = collect_digests(TinyClusterScenario())
        assert {d.replica_id for d in digests} == {0, 1}


class TestDeterminism:
    def test_serve_scenario_is_deterministic(self):
        report = check_determinism(TinyServeScenario())
        assert report.deterministic
        assert report.divergent_step is None
        assert report.label == "tiny-serve"
        assert "OK" in report.render()

    def test_cluster_scenario_is_deterministic(self):
        report = check_determinism(TinyClusterScenario())
        assert report.deterministic
        assert report.steps_first == report.steps_second

    def test_injected_rng_jitter_is_localized(self):
        report = check_determinism(
            TinyServeScenario(num_requests=12),
            wrap_arrival=lambda arrival: RngJitterArrival(arrival, after_id=4),
        )
        assert not report.deterministic
        assert report.divergent_step is not None
        # Jitter only touches request ids >= 4: the early steps agree, so the
        # localizer pins a step strictly inside the run, not just "differs".
        assert report.first is not None
        assert "DIVERGED" in report.render()
        assert "waiting" in report.changed or "start_s" in report.changed

    def test_jitter_before_first_request_diverges_immediately(self):
        report = check_determinism(
            TinyServeScenario(),
            wrap_arrival=lambda arrival: RngJitterArrival(arrival, after_id=0),
        )
        assert report.divergent_step == 0

    def test_report_round_trips_to_dict(self):
        report = check_determinism(TinyServeScenario())
        data = report.to_dict()
        assert data["deterministic"] is True
        assert data["divergent_step"] is None
        assert data["steps"] == [report.steps_first, report.steps_second]


def digest(step: int, payload: dict) -> StepDigest:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    import hashlib

    return StepDigest(
        replica_id=payload.get("replica", 0),
        step=step,
        start_s=float(step),
        digest=hashlib.sha256(text.encode()).hexdigest(),
        payload=text,
    )


class TestLocalize:
    def test_identical_sequences(self):
        a = [digest(1, {"cycles": 10}), digest(2, {"cycles": 20})]
        report = localize_divergence(a, list(a))
        assert report.deterministic

    def test_first_difference_wins(self):
        a = [digest(1, {"cycles": 10}), digest(2, {"cycles": 20})]
        b = [digest(1, {"cycles": 10}), digest(2, {"cycles": 99})]
        report = localize_divergence(a, b, label="unit")
        assert report.divergent_step == 1
        assert report.changed == ("cycles",)
        assert report.first.digest != report.second.digest
        assert "unit" in report.render()

    def test_length_mismatch_localizes_to_first_extra_step(self):
        a = [digest(1, {"cycles": 10})]
        b = [digest(1, {"cycles": 10}), digest(2, {"cycles": 20})]
        report = localize_divergence(a, b)
        assert report.divergent_step == 1
        assert report.changed == ("steps",)
        assert report.second is None
        assert "step counts differ" in report.render()

    def test_changed_keys_cover_asymmetric_state(self):
        a = digest(1, {"cycles": 10, "extra": 1})
        b = digest(1, {"cycles": 10})
        assert a.changed_keys(b) == ("extra",)

    def test_report_is_frozen_dataclass(self):
        report = DeterminismReport(
            label="x", steps_first=1, steps_second=1,
            divergent_step=None, first=None, second=None, changed=(),
        )
        assert report.deterministic
