"""End-to-end cluster runs: determinism, routing behaviour, heterogeneous fleets."""

import pytest

from repro.cluster import ClusterScenario, ClusterSimulator
from repro.common.errors import ConfigError, LivelockError
from repro.config.scale import ScaleTier
from repro.registry import ROUTERS, resolve_router
from repro.serve.arrival import closed_loop_arrivals, poisson_arrivals
from tests.cluster.conftest import linear_fleet, make_sampler


def run_cluster(
    router: str = "round-robin",
    num_replicas: int = 3,
    seed: int = 0,
    num_requests: int = 12,
    rate: float = 1000.0,
    max_batch: int = 2,
):
    simulator = ClusterSimulator(
        arrival=poisson_arrivals(make_sampler(seed), rate=rate, num_requests=num_requests),
        router=resolve_router(router)(num_replicas),
        replicas=linear_fleet(num_replicas, max_batch=max_batch),
        router_name=router,
    )
    return simulator.run()


class TestClusterSimulator:
    def test_all_requests_complete_with_ordered_timestamps(self):
        metrics = run_cluster()
        assert metrics.num_requests == 12
        for r in metrics.requests:
            assert r.arrival_s <= r.admitted_s <= r.first_token_s <= r.finish_s

    def test_deterministic_across_runs(self):
        assert run_cluster().to_dict() == run_cluster().to_dict()

    def test_seed_changes_the_run(self):
        assert run_cluster(seed=0).to_dict() != run_cluster(seed=1).to_dict()

    def test_request_ids_partition_across_replicas(self):
        metrics = run_cluster(num_replicas=4)
        ids = [r.request_id for replica in metrics.replicas for r in replica.requests]
        assert sorted(ids) == list(range(12))        # no loss, no duplication

    def test_round_robin_spreads_the_stream(self):
        metrics = run_cluster(router="round-robin", num_replicas=3)
        assert [replica.routed for replica in metrics.replicas] == [4, 4, 4]

    def test_completion_identical_across_all_registered_routers(self):
        # The acceptance invariant: routing changes *where* requests run,
        # never *whether* they run.
        baseline = None
        for entry in ROUTERS.entries():
            metrics = run_cluster(router=entry.name)
            ids = sorted(r.request_id for r in metrics.requests)
            if baseline is None:
                baseline = ids
            assert ids == baseline, f"router {entry.name} lost/duplicated requests"

    def test_closed_loop_completes_budget(self):
        simulator = ClusterSimulator(
            arrival=closed_loop_arrivals(make_sampler(2), rate=4, num_requests=10),
            router=resolve_router("least-outstanding")(2),
            replicas=linear_fleet(2, max_batch=2),
        )
        assert simulator.run().num_requests == 10

    def test_single_replica_matches_fleet_contract(self):
        metrics = run_cluster(num_replicas=1)
        assert metrics.num_replicas == 1
        assert metrics.replicas[0].routed == 12
        assert metrics.num_requests == 12

    def test_busy_time_bounded_by_makespan(self):
        metrics = run_cluster()
        for utilization in metrics.utilizations:
            assert 0.0 <= utilization <= 1.0

    def test_meta_reports_routing_decisions(self):
        metrics = run_cluster(num_replicas=3)
        assert metrics.meta["router"] == "round-robin"
        assert sum(metrics.meta["routed"]) == 12

    def test_max_steps_guard_reports_every_replica(self, monkeypatch):
        monkeypatch.setattr("repro.serve.simulator.MAX_STEPS", 3)
        with pytest.raises(LivelockError) as excinfo:
            run_cluster(num_replicas=2)
        message = str(excinfo.value)
        assert message.count("stalled (fleet exceeded 6 steps without draining)") == 2
        assert "replica 0 stalled" in message
        assert "replica 1 stalled" in message
        assert excinfo.value.report.replica_id == 0

    def test_fleet_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSimulator(
                arrival=poisson_arrivals(make_sampler(), rate=100.0, num_requests=2),
                router=resolve_router("round-robin")(3),
                replicas=linear_fleet(2),
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSimulator(
                arrival=poisson_arrivals(make_sampler(), rate=100.0, num_requests=2),
                router=resolve_router("round-robin")(1),
                replicas=[],
            )


def tiny_cluster_scenario(names, **overrides) -> ClusterScenario:
    defaults = dict(
        workload=names["workload"],
        systems=(names["system"],),
        arrival="poisson",
        rate=50_000.0,
        num_requests=6,
        replicas=2,
        router="round-robin",
        max_batch=2,
        seed=0,
        tier=ScaleTier.FULL,
        prompt_tokens=(32, 64),
        output_tokens=(2, 4),
    )
    defaults.update(overrides)
    return ClusterScenario(**defaults).validate()


class TestClusterScenario:
    def test_run_is_reproducible(self, tiny_cluster_names):
        a = tiny_cluster_scenario(tiny_cluster_names).run()
        b = tiny_cluster_scenario(tiny_cluster_names).run()
        assert a.to_dict() == b.to_dict()
        assert a.num_requests == 6
        assert a.latency_percentile_ms(50) <= a.latency_percentile_ms(99)
        assert a.meta["step_simulations"] >= 1

    def test_homogeneous_fleet_shares_one_cost_table(self, tiny_cluster_names):
        simulator = tiny_cluster_scenario(tiny_cluster_names, replicas=3).build_simulator()
        models = {id(replica.cost_model) for replica in simulator.replicas}
        assert len(models) == 1

    def test_heterogeneous_fleet_gets_distinct_models(self, tiny_cluster_names, tiny_system):
        from dataclasses import replace

        from repro.registry import SYSTEMS, register_system

        slower = replace(
            tiny_system, core=replace(tiny_system.core, num_cores=2)
        ).validate()
        register_system("cluster-tiny-slow")(lambda: slower)
        try:
            scenario = tiny_cluster_scenario(
                tiny_cluster_names,
                systems=(tiny_cluster_names["system"], "cluster-tiny-slow"),
            )
            simulator = scenario.build_simulator()
            assert len({id(r.cost_model) for r in simulator.replicas}) == 2
            metrics = scenario.run()
            assert [r.system for r in metrics.replicas] == [
                tiny_cluster_names["system"], "cluster-tiny-slow",
            ]
            assert metrics.num_requests == 6
        finally:
            SYSTEMS.unregister("cluster-tiny-slow")

    def test_label_excluded_from_key(self, tiny_cluster_names):
        base = tiny_cluster_scenario(tiny_cluster_names)
        labelled = tiny_cluster_scenario(tiny_cluster_names, label="pretty")
        assert base.key() == labelled.key()
        assert base.key() != tiny_cluster_scenario(tiny_cluster_names, replicas=3).key()
        assert base.key() != tiny_cluster_scenario(tiny_cluster_names, router="jsq").key()

    def test_round_trip(self, tiny_cluster_names):
        scenario = tiny_cluster_scenario(
            tiny_cluster_names,
            router="weighted",
            router_params=(("weights", (2.0, 1.0)),),
            slo_latency_ms=5.0,
        )
        rebuilt = ClusterScenario.from_dict(scenario.to_dict())
        assert rebuilt.key() == scenario.key()

    def test_validate_rejects_bad_configs(self, tiny_cluster_names):
        with pytest.raises(ConfigError):
            tiny_cluster_scenario(tiny_cluster_names, router="carrier-pigeon")
        with pytest.raises(ConfigError):
            tiny_cluster_scenario(tiny_cluster_names, replicas=0)
        with pytest.raises(ConfigError):
            # 3 systems for 2 replicas: neither broadcast nor one-per-replica.
            tiny_cluster_scenario(
                tiny_cluster_names, systems=(tiny_cluster_names["system"],) * 3
            )
        with pytest.raises(ConfigError):
            tiny_cluster_scenario(tiny_cluster_names, workload="gpt-7")

    def test_replica_systems_broadcast(self, tiny_cluster_names):
        scenario = tiny_cluster_scenario(tiny_cluster_names, replicas=4)
        assert scenario.replica_systems() == (tiny_cluster_names["system"],) * 4
