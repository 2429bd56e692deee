"""Tests for the command-line interface."""

from typing import ClassVar

import pytest

from repro.cli import build_parser, main
from repro.cluster.scenario import ClusterScenario
from repro.serve.knobs import from_args, given, sweep_grid
from repro.serve.scenario import ServeScenario


def _axes(cls, argv: list[str]) -> dict:
    """The serving-sweep grid axes ``argv`` builds, by field name."""

    return dict(sweep_grid(cls, build_parser().parse_args(argv)).axes)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "llama3-70b"
        assert args.policy == "dynmg+BMA"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--model", "gpt-7", "--seq-len", "64"])

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--tier", "gigantic"])

    def test_sweep_defaults_are_fig9_style(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workload is None        # resolved to both models at run time
        assert args.jobs == 1
        assert args.store is None
        assert not args.force

    def test_sweep_repeatable_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--model", "llama3-70b", "--seq-len", "1024", "--seq-len", "2048",
             "--policy", "unopt", "--l2-mib", "16", "--jobs", "4"]
        )
        assert args.workload == ["llama3-70b"]
        assert args.seq_len == [1024, 2048]
        assert args.l2_mib == [16]
        assert args.jobs == 4


class TestSweepCommand:
    GRID: ClassVar[list[str]] = [
        "sweep", "--model", "llama3-70b", "--seq-len", "2048",
        "--policy", "unopt", "--policy", "dynmg",
        "--l2-mib", "16", "--tier", "ci",
    ]

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "gpt-7", "--seq-len", "64"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--policy", "warpdrive"])

    def test_grid_runs_and_prints_summary(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([*self.GRID, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "sweep results" in out
        assert "speedup vs unopt" in out
        assert "2 simulated, 0 cached" in out

    def test_second_invocation_is_cached(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([*self.GRID, "--store", store]) == 0
        capsys.readouterr()
        assert main([*self.GRID, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 cached" in out

    def test_quiet_suppresses_progress_lines(self, capsys):
        assert main([*self.GRID, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" not in out
        assert "sweep results" in out


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "llama3-70b"
        assert args.arrival == "poisson"
        assert args.rate == 2000.0
        assert args.seed == 0
        assert not args.smoke

    def test_model_is_an_alias_for_workload(self):
        args = build_parser().parse_args(["serve", "--model", "llama3-405b-decode"])
        assert args.workload == "llama3-405b-decode"

    def test_unknown_arrival_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--arrival", "tsunami", "--smoke"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workload", "gpt-7", "--smoke"])

    def test_non_finite_rate_rejected_before_simulating(self, monkeypatch):
        def no_run(self, *args, **kwargs):
            raise AssertionError("validation must fail before the simulation")

        monkeypatch.setattr(ServeScenario, "run", no_run)
        with pytest.raises(SystemExit, match="rate must be finite, got nan"):
            main(["serve", "--smoke", "--rate", "nan"])

    def test_smoke_run_prints_percentiles_and_throughput(self, capsys):
        assert main(["serve", "--smoke", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "p50/p95/p99" in out
        assert "latency percentiles" in out
        assert "tokens/s" in out
        assert "cycle-engine runs" in out
        assert "prefill_ms" in out               # prefill modeled by default

    def test_prefill_flags(self):
        args = build_parser().parse_args(
            ["serve", "--scheduler", "chunked", "--prefill-chunk", "128"]
        )
        assert args.scheduler == "chunked"
        assert args.prefill_chunk == 128
        assert args.prefill_cost                 # on unless --no-prefill-cost
        assert not build_parser().parse_args(
            ["serve", "--no-prefill-cost"]
        ).prefill_cost

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scheduler", "clairvoyant", "--smoke"])

    def test_no_prefill_cost_drops_prefill_reporting(self, capsys):
        assert main(["serve", "--smoke", "--seed", "0", "--no-prefill-cost"]) == 0
        out = capsys.readouterr().out
        assert "prefill_ms" not in out           # the legacy decode-only view


class TestServeSweepCommand:
    def test_serve_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--serve", "--rate", "1000", "--rate", "2000",
             "--arrival", "poisson", "--num-requests", "8"]
        )
        assert args.serve
        grid = sweep_grid(ServeScenario, args)
        axes = dict(grid.axes)
        assert axes["rate"] == (1000.0, 2000.0)
        assert axes["arrival"] == ("poisson",)
        assert grid.base.num_requests == 8

    def test_kernel_sweep_unaffected_by_default(self):
        args = build_parser().parse_args(["sweep"])
        assert not args.serve
        assert given(args) == {}                 # no serving flag was set
        assert _axes(ServeScenario, ["sweep"])["rate"] == (1000.0, 2000.0, 4000.0)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--serve", "--arrival", "tsunami"])

    def test_serve_axes_without_serve_rejected(self):
        with pytest.raises(SystemExit, match="--serve"):
            main(["sweep", "--rate", "1000"])
        with pytest.raises(SystemExit, match="--serve"):
            main(["sweep", "--arrival", "bursty"])
        with pytest.raises(SystemExit, match="--serve"):
            main(["sweep", "--scheduler", "chunked"])
        with pytest.raises(SystemExit, match="--serve"):
            main(["sweep", "--prefill-chunk", "128"])
        # Scalar serving flags have non-None defaults; they are caught too.
        for flag, value in (("--num-requests", "8"), ("--max-batch", "8"),
                            ("--seed", "3"), ("--kv-swap-ms", "0.5")):
            with pytest.raises(SystemExit, match=f"{flag}.*--serve"):
                main(["sweep", flag, value])

    def test_scheduler_axis_flags(self):
        axes = _axes(
            ServeScenario,
            ["sweep", "--serve", "--scheduler", "decode-first",
             "--scheduler", "chunked", "--prefill-chunk", "128",
             "--prefill-chunk", "512"],
        )
        assert axes["scheduler"] == ("decode-first", "chunked")
        assert axes["prefill_chunk"] == (128, 512)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--serve", "--scheduler", "clairvoyant"])

    @pytest.mark.parametrize("mode", ["--serve", "--cluster"])
    @pytest.mark.parametrize(
        ("flags", "match"),
        [
            (["--kv-block", "0"], "kv block_tokens must be positive, got 0"),
            (["--preemption", "bogus"], "bogus"),
        ],
    )
    def test_bad_kv_axis_rejected_with_kv_off(self, mode, flags, match):
        with pytest.raises(SystemExit, match=match):
            main(["sweep", mode, "--tier", "smoke", *flags])

    def test_kernel_axes_with_serve_rejected(self):
        with pytest.raises(SystemExit, match="kernel-sweep"):
            main(["sweep", "--serve", "--seq-len", "1024"])
        with pytest.raises(SystemExit, match="kernel-sweep"):
            main(["sweep", "--serve", "--l2-mib", "32"])


class TestClusterCommand:
    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.workload == "llama3-70b"
        assert args.replicas == 2
        assert args.router == "round-robin"
        assert args.systems is None       # resolved to ("table5",) at run time
        assert not args.smoke

    def test_repeatable_system_flag_builds_a_fleet(self):
        args = build_parser().parse_args(
            ["cluster", "--system", "table5", "--system", "table5-8core"]
        )
        assert args.systems == ["table5", "table5-8core"]

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--router", "carrier-pigeon", "--smoke"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--system", "cray-1", "--smoke"])

    def test_mismatched_fleet_systems_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--replicas", "3",
                  "--system", "table5", "--system", "table5-8core"])

    def test_smoke_run_prints_fleet_and_percentiles(self, capsys):
        assert main(["cluster", "--smoke", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fleet (" in out
        assert "utilization" in out
        assert "merged latency percentiles" in out
        assert "imbalance" in out
        assert "cycle-engine runs" in out

    def test_disaggregated_flag_defaults_and_spec(self):
        args = build_parser().parse_args(["cluster"])
        assert args.disaggregated is None
        assert args.kv_transfer_ms == 0.0
        assert build_parser().parse_args(
            ["cluster", "--disaggregated"]
        ).disaggregated == "1p1d"
        assert build_parser().parse_args(
            ["cluster", "--disaggregated", "2p2d"]
        ).disaggregated == "2p2d"

    def test_malformed_disaggregated_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--disaggregated", "2x2", "--smoke"])

    def test_contradicting_replicas_with_disaggregated_rejected(self):
        with pytest.raises(SystemExit, match="contradicts"):
            main(["cluster", "--replicas", "8", "--disaggregated", "1p1d",
                  "--smoke"])
        # An explicit --replicas equal to the old parser default is no excuse.
        with pytest.raises(SystemExit, match="--replicas 2 contradicts"):
            main(["cluster", "--smoke", "--replicas", "2", "--disaggregated", "3p1d"])

    def test_disaggregated_smoke_prints_roles_and_handoffs(self, capsys):
        assert main(["cluster", "--smoke", "--seed", "0", "--disaggregated"]) == 0
        out = capsys.readouterr().out
        assert "prefill" in out and "decode" in out
        assert "handoffs" in out
        assert "prefill/decode util" in out


class TestClusterSweepCommand:
    def test_cluster_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--cluster", "--rate", "1000", "--replicas", "2",
             "--replicas", "4", "--router", "round-robin", "--router", "jsq"]
        )
        assert args.cluster
        axes = dict(sweep_grid(ClusterScenario, args).axes)
        assert axes["replicas"] == (2, 4)
        assert axes["router"] == ("round-robin", "jsq")
        assert axes["rate"] == (1000.0,)

    def test_cluster_axes_without_cluster_rejected(self):
        with pytest.raises(SystemExit, match="--cluster"):
            main(["sweep", "--replicas", "2"])
        with pytest.raises(SystemExit, match="--cluster"):
            main(["sweep", "--serve", "--router", "round-robin"])

    def test_serve_and_cluster_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--serve", "--cluster"])

    def test_kernel_axes_with_cluster_rejected(self):
        with pytest.raises(SystemExit, match="kernel-sweep"):
            main(["sweep", "--cluster", "--seq-len", "1024"])

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--cluster", "--router", "carrier-pigeon"])


class TestListCommand:
    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("llama3-70b", "llama3-405b", "llama3-405b-attend"):
            assert name in out

    def test_list_workload_decode_aliases(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "llama3-70b-decode" in out
        assert "llama3-405b-decode" in out

    def test_list_arrivals(self, capsys):
        assert main(["list", "arrivals"]) == 0
        out = capsys.readouterr().out
        for name in ("poisson", "bursty", "closed-loop", "trace"):
            assert name in out

    def test_list_systems(self, capsys):
        assert main(["list", "systems"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "table5-32core" in out

    def test_list_policies_shows_labels_and_aliases(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "dynmg+BMA" in out
        assert "unoptimized" in out  # alias of unopt

    def test_list_throttles(self, capsys):
        assert main(["list", "throttles"]) == 0
        out = capsys.readouterr().out
        assert "dynmg" in out

    def test_list_schedulers(self, capsys):
        assert main(["list", "schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("decode-first", "prefill-first", "chunked"):
            assert name in out
        assert "chunked-prefill" in out                # aliases are listed

    def test_list_routers(self, capsys):
        assert main(["list", "routers"]) == 0
        out = capsys.readouterr().out
        for name in ("round-robin", "least-outstanding", "join-shortest-queue", "weighted"):
            assert name in out
        assert "jsq" in out                            # aliases are listed

    def test_list_rejects_unknown_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "gadgets"])


class TestPluginLoading:
    def test_llamcat_plugins_imports_and_registers(self, tmp_path, monkeypatch, capsys):
        from repro.registry import WORKLOADS

        (tmp_path / "my_models.py").write_text(
            "from repro.registry import register_workload\n"
            "from repro.config.presets import llama3_70b_logit\n"
            "@register_workload('plugin-model', description='from a plugin')\n"
            "def plugin_model(seq_len: int = 64):\n"
            "    return llama3_70b_logit(seq_len)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("LLAMCAT_PLUGINS", "my_models")
        try:
            assert main(["list", "workloads"]) == 0
            assert "plugin-model" in capsys.readouterr().out
        finally:
            if "plugin-model" in WORKLOADS:
                WORKLOADS.unregister("plugin-model")

    def test_unimportable_plugin_rejected(self, monkeypatch):
        monkeypatch.setenv("LLAMCAT_PLUGINS", "no_such_module_xyz")
        with pytest.raises(SystemExit, match="LLAMCAT_PLUGINS"):
            main(["list", "workloads"])


class TestRunCommand:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "warpdrive", "--seq-len", "64"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "cray-1", "--seq-len", "64"])


class TestInfoAndHwcost:
    def test_info_prints_analytical_bounds(self, capsys):
        assert main(["info", "--model", "llama3-70b", "--seq-len", "512"]) == 0
        out = capsys.readouterr().out
        assert "thread blocks" in out
        assert "bottleneck" in out

    def test_hwcost_prints_both_structures(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "arbiter" in out
        assert "hit_buffer" in out


class TestObservabilityFlags:
    SERVE: ClassVar[list[str]] = ["serve", "--smoke", "--seed", "0"]

    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--trace-out", "t.json", "--telemetry", "2.5"]
        )
        assert args.trace_out == "t.json"
        assert from_args(ServeScenario, args).telemetry_ms == 2.5
        args = build_parser().parse_args(["cluster"])
        assert args.trace_out is None
        assert from_args(ClusterScenario, args).telemetry_ms is None

    def test_verbosity_flags_parse(self):
        args = build_parser().parse_args(["-v", "serve"])
        assert args.verbose == 1
        args = build_parser().parse_args(["-q", "serve"])
        assert args.log_quiet == 1

    def test_serve_trace_out_writes_valid_deterministic_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.SERVE, "--trace-out", str(a)]) == 0
        assert main([*self.SERVE, "--trace-out", str(b)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {b}" in out
        assert a.read_bytes() == b.read_bytes()
        assert validate_trace(json.loads(a.read_text())) > 0

    def test_serve_telemetry_prints_timeline(self, capsys):
        assert main([*self.SERVE, "--telemetry", "2"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "util |" in out

    def test_cluster_trace_and_telemetry(self, capsys, tmp_path):
        trace = tmp_path / "cluster.json"
        assert main(
            ["cluster", "--smoke", "--seed", "0",
             "--trace-out", str(trace), "--telemetry", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert trace.exists()
        assert "timeline:" in out and "2 replicas" in out

    def test_no_flags_output_is_unchanged_by_default(self, capsys):
        # Without --trace-out/--telemetry the summary must not mention them.
        assert main(self.SERVE) == 0
        out = capsys.readouterr().out
        assert "trace:" not in out
        assert "timeline:" not in out

    def test_sweep_telemetry_requires_serving_mode(self):
        with pytest.raises(SystemExit, match="--serve"):
            main(["sweep", "--telemetry", "2"])


class TestTimelineCommand:
    SWEEP: ClassVar[list[str]] = [
        "sweep", "--serve", "--tier", "smoke", "--model", "llama3-70b",
        "--rate", "2000", "--num-requests", "8", "--max-batch", "2",
        "--telemetry", "2", "--quiet",
    ]

    def test_timeline_renders_stored_telemetry(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        capsys.readouterr()
        assert main(["timeline", store, "unopt@poisson@2000"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "util |" in out and "queue |" in out

    def test_timeline_resolves_key_prefix(self, capsys, tmp_path):
        from repro.sweep.store import ResultStore

        store = str(tmp_path / "results.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        capsys.readouterr()
        key = next(ResultStore(store).records()).key
        assert main(["timeline", store, key[:8]]) == 0
        assert key[:12] in capsys.readouterr().out

    def test_timeline_custom_metric_and_width(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        capsys.readouterr()
        assert main(
            ["timeline", store, "unopt@poisson@2000",
             "--metric", "tokens_per_s", "--width", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "tokens_per_s |" in out
        assert "queue" not in out

    def test_timeline_without_telemetry_explains(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        i = self.SWEEP.index("--telemetry")
        no_telemetry = self.SWEEP[:i] + self.SWEEP[i + 2:]
        assert main([*no_telemetry, "--store", store]) == 0
        with pytest.raises(SystemExit, match="--telemetry"):
            main(["timeline", store, "unopt@poisson@2000"])

    def test_timeline_missing_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["timeline", str(tmp_path / "nope.jsonl"), "whatever"])

    def test_timeline_unknown_key_rejected(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        with pytest.raises(SystemExit, match="no stored result"):
            main(["timeline", store, "zzzz"])

    def test_timeline_unknown_key_suggests_available(self, capsys, tmp_path):
        from repro.sweep.store import ResultStore

        store = str(tmp_path / "results.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        key = next(ResultStore(store).records()).key
        with pytest.raises(SystemExit, match="available:") as excinfo:
            main(["timeline", store, "zzzz"])
        message = str(excinfo.value)
        assert key[:12] in message
        assert "unopt@poisson@2000" in message

    def test_timeline_ambiguous_prefix_lists_matches(self, tmp_path):
        from repro.serve.metrics import ServeMetrics
        from repro.sweep.store import ResultStore

        class Point:
            def __init__(self, key, label):
                self._key, self.label = key, label

            def key(self):
                return self._key

            def config_dict(self):
                return {}

        path = str(tmp_path / "results.jsonl")
        store = ResultStore(path)
        result = ServeMetrics(
            label="amb", workload="w", frequency_ghz=2.0, duration_s=1.0,
            steps=1, total_cycles=1, requests=(),
        )
        store.put(Point("feed0" + "0" * 35, "amb-one"), result=result)
        store.put(Point("feed1" + "1" * 35, "amb-two"), result=result)
        with pytest.raises(SystemExit, match="ambiguous") as excinfo:
            main(["timeline", path, "feed"])
        message = str(excinfo.value)
        assert "amb-one" in message and "amb-two" in message


class TestBenchCommand:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.benches is None
        assert args.tier == "ci"
        assert (args.warmup, args.repeat) == (0, 1)
        assert args.root == "."
        assert args.compare is None
        assert args.threshold == 10.0
        assert args.wall_threshold is None

    def test_list_benches(self, capsys):
        assert main(["list", "benches"]) == 0
        out = capsys.readouterr().out
        assert "serve_throughput" in out
        assert "table5_config" in out
        assert "hwcost_area" in out

    def test_unknown_bench_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="bench"):
            main(["bench", "--bench", "warp-drive", "--root", str(tmp_path)])

    def test_failing_bench_does_not_silence_the_rest(self, capsys, tmp_path):
        from repro.bench.registry import BENCHES, BenchOutput, BenchValue, register_bench
        from repro.bench.trend import load_trend, trend_path

        @register_bench("boom")
        def boom(tier):
            raise RuntimeError("3/15 sweep points failed")

        @register_bench("steady")
        def steady(tier):
            return BenchOutput(
                bench="steady",
                config={"tier": tier.name},
                values=(BenchValue("ticks", 1.0, ""),),
            )

        try:
            code = main(
                ["bench", "--bench", "boom", "--bench", "steady",
                 "--tier", "smoke", "--root", str(tmp_path)]
            )
        finally:
            BENCHES.unregister("boom")
            BENCHES.unregister("steady")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED boom: RuntimeError: 3/15 sweep points failed" in out
        assert "1/2 benches failed: boom" in out
        # The failure is isolated: the healthy bench still ran and recorded.
        assert "bench steady" in out
        assert load_trend(trend_path(tmp_path, "steady"))

    def test_rejected_scenario_fails_only_its_bench(self, capsys, tmp_path):
        from repro.bench.registry import BENCHES, BenchOutput, BenchValue, register_bench
        from repro.common.errors import ConfigError

        @register_bench("rejected")
        def rejected(tier):
            raise ConfigError("kv budget of 8 tokens fits no 16-token block")

        @register_bench("steady")
        def steady(tier):
            return BenchOutput(
                bench="steady",
                config={"tier": tier.name},
                values=(BenchValue("ticks", 1.0, ""),),
            )

        try:
            code = main(
                ["bench", "--bench", "rejected", "--bench", "steady",
                 "--tier", "smoke", "--root", str(tmp_path)]
            )
        finally:
            BENCHES.unregister("rejected")
            BENCHES.unregister("steady")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED rejected: ConfigError: kv budget of 8 tokens" in out
        assert "bench steady" in out
        assert "1/2 benches failed: rejected" in out

    def test_bad_repeat_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="repeat must be >= 1"):
            main(["bench", "--bench", "table5_config", "--repeat", "0",
                  "--root", str(tmp_path)])

    def test_missed_expectation_fails_the_bench(self, capsys, tmp_path, monkeypatch):
        from repro.bench.trend import trend_path
        from repro.experiments import fig7

        def out_of_range(tier, models):
            return fig7.Fig7Result(
                panel="arbitration",
                tier=tier,
                seq_lens=(4096,),
                speedups={
                    model: {"cobrra": [1.0], "B": [1.1], "MA": [1.2], "BMA": [2.5]}
                    for model in models
                },
            )

        monkeypatch.setattr(fig7, "run_fig7_arbitration", out_of_range)
        code = main(
            ["bench", "--bench", "fig7_arbitration", "--tier", "smoke",
             "--root", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert (
            "FAILED fig7_arbitration: SimulationError: fig7_arbitration expected "
            "llama3-70b BMA speedups in (0.5, 2.0), got [2.5]"
        ) in out
        assert not trend_path(tmp_path, "fig7_arbitration").exists()

    def test_run_appends_schema_valid_trend_records(self, capsys, tmp_path):
        from repro.bench.trend import load_trend, trend_path, validate_trends

        assert main(
            ["bench", "--bench", "table5_config", "--tier", "smoke",
             "--root", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bench table5_config" in out
        assert "trend:" in out
        path = trend_path(tmp_path, "table5_config")
        records = load_trend(path)
        assert records
        assert all(r.bench == "table5_config" for r in records)
        assert validate_trends(tmp_path).ok

    def test_repeat_appends_history(self, capsys, tmp_path):
        from repro.bench.trend import load_trend, trend_path

        args = ["bench", "--bench", "table5_config", "--tier", "smoke",
                "--root", str(tmp_path)]
        assert main(args) == 0
        first = load_trend(trend_path(tmp_path, "table5_config"))
        assert main(args) == 0
        second = load_trend(trend_path(tmp_path, "table5_config"))
        assert len(second) == 2 * len(first)

    def test_no_write_leaves_root_untouched(self, capsys, tmp_path):
        assert main(
            ["bench", "--bench", "table5_config", "--tier", "smoke",
             "--root", str(tmp_path), "--no-write"]
        ) == 0
        assert list(tmp_path.iterdir()) == []

    def test_self_compare_after_two_runs_is_ok(self, capsys, tmp_path):
        args = ["bench", "--bench", "table5_config", "--tier", "smoke",
                "--root", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        assert main(["bench", "--root", str(tmp_path), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "+0.0%" in out

    def test_synthetic_slowdown_gates_compare(self, capsys, tmp_path):
        from dataclasses import replace

        from repro.bench.trend import append_trend, load_trend, trend_path

        args = ["bench", "--bench", "table5_config", "--tier", "smoke",
                "--root", str(tmp_path)]
        assert main(args) == 0
        path = trend_path(tmp_path, "table5_config")
        # Fake a run where every cycle count doubled (a 2x slowdown).
        slow = [replace(r, value=r.value * 2.0) for r in load_trend(path)]
        append_trend(path, slow)
        capsys.readouterr()
        assert main(["bench", "--root", str(tmp_path), "--compare"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "+100.0%" in out

    def test_compare_against_separate_baseline_root(self, capsys, tmp_path):
        from dataclasses import replace

        from repro.bench.trend import load_trend, trend_path, write_trend

        current, baseline = tmp_path / "cur", tmp_path / "base"
        assert main(
            ["bench", "--bench", "table5_config", "--tier", "smoke",
             "--root", str(current)]
        ) == 0
        records = load_trend(trend_path(current, "table5_config"))
        write_trend(trend_path(baseline, "table5_config"), records)
        capsys.readouterr()
        assert main(
            ["bench", "--root", str(current), "--compare", str(baseline)]
        ) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_reports_broken_trend_file(self, capsys, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{oops")
        assert main(["bench", "--root", str(tmp_path), "--validate"]) == 1
        assert "invalid trend file" in capsys.readouterr().out

    def test_validate_ok_on_committed_root(self, capsys):
        # The repo root's own BENCH_*.json files must always be schema-valid.
        assert main(["bench", "--root", ".", "--validate"]) == 0
        assert "trend schema OK" in capsys.readouterr().out


class TestReportCommand:
    def run_bench_once(self, tmp_path) -> str:
        assert main(
            ["bench", "--bench", "table5_config", "--tier", "smoke",
             "--root", str(tmp_path)]
        ) == 0
        return str(tmp_path)

    def test_report_requires_an_input(self):
        with pytest.raises(SystemExit, match="--trend-root"):
            main(["report"])

    def test_markdown_report_from_trend_root(self, capsys, tmp_path):
        root = self.run_bench_once(tmp_path)
        capsys.readouterr()
        assert main(["report", "--trend-root", root]) == 0
        out = capsys.readouterr().out
        assert "# llamcat run report" in out
        assert "table5_config" in out

    def test_html_report_written_to_file(self, capsys, tmp_path):
        root = self.run_bench_once(tmp_path)
        out_file = tmp_path / "report.html"
        assert main(
            ["report", "--trend-root", root, "--format", "html",
             "--out", str(out_file), "--title", "smoke perf"]
        ) == 0
        text = out_file.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "smoke perf" in text
        assert "report:" in capsys.readouterr().out

    def test_report_from_store_renders_timelines(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([
            "sweep", "--serve", "--tier", "smoke", "--model", "llama3-70b",
            "--rate", "2000", "--num-requests", "8", "--max-batch", "2",
            "--telemetry", "2", "--quiet", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Stored results" in out
        assert "Per-phase latency breakdown" in out
        assert "Telemetry timelines" in out

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["report", "--store", str(tmp_path / "nope.jsonl")])


class TestMetricsSketchFlag:
    def test_serve_smoke_with_sketch(self, capsys):
        assert main(["serve", "--smoke", "--seed", "0", "--metrics-sketch"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out and "tokens/s" in out

    def test_cluster_smoke_with_sketch(self, capsys):
        assert main(["cluster", "--smoke", "--seed", "0", "--metrics-sketch"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out
