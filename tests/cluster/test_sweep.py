"""Cluster sweep grids through the parallel executor and result store."""

import pytest

from repro.cluster import ClusterScenario
from repro.common.errors import ConfigError
from repro.config.scale import ScaleTier
from repro.sweep.executor import run_sweep
from repro.sweep.spec import Grid
from repro.sweep.store import ResultStore


def tiny_grid(names) -> Grid:
    base = ClusterScenario(
        workload=names["workload"],
        rate=40_000.0,
        num_requests=4,
        max_batch=2,
        systems=(names["system"],),
        tier=ScaleTier.FULL,
        prompt_tokens=(32, 64),
        output_tokens=(2, 4),
    )
    return Grid(base, (("replicas", (1, 2)),)).validate()


def fleet_grid(rates=(1000.0,), replicas=(2,), routers=("round-robin",)) -> Grid:
    return Grid(
        ClusterScenario(workload="llama3-70b"),
        (("rate", rates), ("replicas", replicas), ("router", routers)),
    )


class TestClusterSweep:
    def test_grid_runs_and_resumes_through_the_store(self, tiny_cluster_names, tmp_path):
        points = tiny_grid(tiny_cluster_names).expand()
        assert len(points) == 2
        store = ResultStore(tmp_path / "cluster.jsonl")
        report = run_sweep(points, jobs=1, store=store)
        assert report.num_ok == 2 and report.num_simulated == 2
        metrics = report.result_for(points[0])
        assert metrics.num_requests == 4
        assert {r.kind for r in store.records()} == {"cluster"}

        # Second run resumes entirely from disk, bit-identical.
        resumed = run_sweep(points, jobs=1, store=ResultStore(store.path))
        assert resumed.num_cached == 2
        assert resumed.result_for(points[0]).to_dict() == metrics.to_dict()

    def test_grid_validation(self):
        grid = fleet_grid(
            rates=(1000.0, 2000.0), replicas=(2, 4), routers=("round-robin", "jsq")
        )
        assert grid.validate().num_points == 8
        assert len(grid.expand()) == 8
        with pytest.raises(ConfigError):
            fleet_grid(rates=()).validate()
        with pytest.raises(ConfigError):
            fleet_grid(routers=("pigeon",)).expand()
        with pytest.raises(ConfigError):
            fleet_grid(replicas=(0,)).expand()

    def test_labels_describe_and_kind(self):
        point = fleet_grid(replicas=(4,), routers=("join-shortest-queue",)).expand()[0]
        assert point.scenario.rate == 1000.0
        assert point.scenario.replicas == 4
        assert point.scenario.router == "join-shortest-queue"
        assert point.label == "join-shortest-queuex4@poisson@1000"
        assert point.describe() == (
            "join-shortest-queuex4@poisson@1000: cluster llama3-70b x4 "
            "join-shortest-queue decode-first poisson@1000 n=32 b<=4 seed=0"
        )
        assert point.config_dict()["kind"] == "cluster"

    def test_disaggregated_fleet_reads_as_its_split(self):
        base = ClusterScenario(workload="llama3-70b", replicas=3, disaggregated="1P2D")
        point = Grid(base, (("rate", (1000.0,)),)).expand()[0]
        assert point.label == "round-robinx1p2d@poisson@1000"
        assert " x1p2d " in point.describe()

    def test_expansion_order_is_deterministic(self):
        grid = fleet_grid(replicas=(2, 4), routers=("round-robin", "weighted"))
        labels = [p.label for p in grid.expand()]
        assert labels == [
            "round-robinx2@poisson@1000",
            "weightedx2@poisson@1000",
            "round-robinx4@poisson@1000",
            "weightedx4@poisson@1000",
        ]

    def test_key_dedup_between_identical_scenarios(self):
        grid = fleet_grid()
        a, b = grid.expand()[0], grid.expand()[0]
        assert a.key() == b.key()
