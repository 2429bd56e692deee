"""Command-line interface: ``llamcat <subcommand>``.

Subcommands

* ``run``     -- simulate one policy on one workload and print the summary
* ``serve``   -- simulate serving a request stream with continuous batching
* ``cluster`` -- simulate a multi-replica fleet behind a pluggable router
* ``sweep``   -- run a grid of (model x seq-len x policy x L2) points in parallel,
  of serving points (``--serve`` with repeatable ``--rate``) or of cluster
  points (``--cluster`` with repeatable ``--replicas``/``--router``)
* ``timeline`` -- render ASCII telemetry timelines from a stored sweep point
* ``bench``   -- run registered benchmarks (warmup/repeat timing), append the
  results to the root-level ``BENCH_<name>.json`` trend files, and gate on
  regressions with ``--compare BASELINE``
* ``report``  -- render a self-contained markdown/HTML run report from trend
  files and/or a result store
* ``check``   -- run the determinism & invariant checks (static lint rules
  over the source tree, ``--explain CODE`` docs, ``--determinism SCENARIO``
  runtime divergence localization)
* ``list``    -- list registered workloads / systems / policies / throttles /
  arrivals / schedulers / routers / preemptions / benches
* ``fig7``  -- regenerate the Fig 7 speedup panels
* ``fig8``  -- regenerate the Fig 8 mechanism statistics
* ``fig9``  -- regenerate the Fig 9 cache-size sweep
* ``hwcost``-- print the §6.1 area estimates
* ``info``  -- describe a workload and its analytical bounds

Every simulation point is named through :class:`repro.api.Scenario`, so
anything registered via :mod:`repro.registry` (``@register_workload`` etc.) is
immediately addressable from every subcommand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import sys
from dataclasses import fields, replace
from typing import Any

from repro.analysis import (
    RngJitterArrival,
    check_determinism,
    check_liveness,
    check_paths,
    discover_files,
    explain_rule,
    findings_to_json,
)
from repro.api import Scenario
from repro.bench.registry import BENCHES, bench_names, resolve_bench
from repro.bench.report import render_report
from repro.bench.runner import check_timing, run_bench
from repro.bench.trend import (
    append_trend,
    compare_trends,
    trend_path,
    validate_trends,
)
from repro.cluster.scenario import ClusterScenario, parse_disaggregated
from repro.common.errors import ConfigError, LivelockError
from repro.config.scale import parse_tier
from repro.dataflow.analytical import analyze
from repro.experiments.fig7 import run_fig7_cumulative, run_fig7_throttling
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.hwcost_exp import run_hwcost
from repro.experiments.reporting import format_grid
from repro.obs import ChromeTracer, Profiler, render_timeline
from repro.obs.timeline import DEFAULT_METRICS, DEFAULT_WIDTH
from repro.registry import (
    ARRIVALS,
    POLICIES,
    PREEMPTIONS,
    ROUTERS,
    SCHEDULERS,
    SYSTEMS,
    THROTTLES,
    WORKLOADS,
)
from repro.serve.knobs import add_flags, from_args, given, sweep_grid
from repro.serve.metrics import REPORTED_PERCENTILES
from repro.serve.scenario import DEFAULT_WORKLOAD, ServeScenario
from repro.sweep.executor import run_sweep
from repro.sweep.spec import Grid
from repro.sweep.store import ResultStore

#: ``llamcat list <what>`` -> registry.
LISTABLE_REGISTRIES = {
    "workloads": WORKLOADS,
    "systems": SYSTEMS,
    "policies": POLICIES,
    "throttles": THROTTLES,
    "arrivals": ARRIVALS,
    "schedulers": SCHEDULERS,
    "routers": ROUTERS,
    "preemptions": PREEMPTIONS,
    "benches": BENCHES,
}

#: Default noise threshold of ``llamcat bench --compare`` (percent).
BENCH_COMPARE_THRESHOLD_PCT = 10.0

#: What ``--smoke`` sets on top of the serve/cluster flags (``max_batch`` is
#: an upper bound); ``check --determinism`` runs the same smoke shapes.
SMOKE = {"tier": "smoke", "num_requests": 8, "max_batch": 2}

#: The scenario class of each sweep mode and how a command line selects it.
SWEEP_MODES: tuple[tuple[Any, str], ...] = (
    (Scenario, "no --serve/--cluster"),
    (ServeScenario, "--serve"),
    (ClusterScenario, "--cluster"),
)

logger = logging.getLogger(__name__)


def _configure_logging(verbose: int, log_quiet: int) -> None:
    """Attach a stderr handler to the ``repro`` logger hierarchy.

    ``-v`` lowers the threshold to DEBUG (per-point sweep progress, profiling
    summaries); ``-q`` raises it to WARNING.  Diagnostics go to stderr so the
    deterministic result tables on stdout stay byte-comparable across runs.
    """

    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        root.addHandler(handler)
        root.propagate = False
    if verbose:
        root.setLevel(logging.DEBUG)
    elif log_quiet:
        root.setLevel(logging.WARNING)
    else:
        root.setLevel(logging.INFO)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The observability knobs shared by ``serve`` and ``cluster``."""

    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace_event JSON of the run (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics-sketch", action="store_true",
        help="compute latency percentiles from merged log-bucketed histograms "
             "(fixed memory, bounded relative error) instead of exact "
             "per-request sample lists",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llamcat", description=__doc__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="debug logging on stderr (per-point progress, profiling)",
    )
    parser.add_argument(
        "-q", action="count", default=0, dest="log_quiet",
        help="warnings and errors only on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one policy")
    add_flags(run_p, (Scenario,), skip=("l2_mib", "max_cycles"))

    for name, cls, help_text, smoke in (
        ("serve", ServeScenario,
         "simulate serving a request stream (continuous batching, SLO metrics)", ""),
        ("cluster", ClusterScenario,
         "simulate a multi-replica serving fleet behind a pluggable router", "2 replicas, "),
    ):
        serving_p = sub.add_parser(name, help=help_text)
        add_flags(serving_p, (cls,))
        serving_p.add_argument(
            "--smoke", action="store_true",
            help=f"fast CI preset: smoke tier, 8 requests, {smoke}batch <= 2",
        )
        _add_obs_args(serving_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a grid of simulation points in parallel (Fig 9-style by default)",
    )
    sweep_p.add_argument(
        "--serve", action="store_true",
        help="sweep serving points (workloads x arrivals x rates x policies) "
             "instead of kernel points",
    )
    sweep_p.add_argument(
        "--cluster", action="store_true",
        help="sweep cluster points (workloads x arrivals x rates x replicas x "
             "routers x policies) instead of kernel points",
    )
    sweep_p.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep_p.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSON-lines result store; completed points are reused on re-runs",
    )
    sweep_p.add_argument(
        "--force", action="store_true", help="re-simulate even if stored"
    )
    sweep_p.add_argument("--quiet", action="store_true", help="suppress per-point progress")
    add_flags(sweep_p, tuple(cls for cls, _ in SWEEP_MODES), sweep=True)

    timeline_p = sub.add_parser(
        "timeline",
        help="render ASCII telemetry timelines from a stored sweep point",
    )
    timeline_p.add_argument("store", metavar="STORE", help="JSON-lines result store")
    timeline_p.add_argument(
        "key", metavar="KEY",
        help="content-hash prefix (git-style abbreviation) or point label",
    )
    timeline_p.add_argument(
        "--metric", action="append", dest="metrics",
        help="repeatable: utilization, queue_depth, running, tokens_per_s or "
             "util:<replica> (default: the first four)",
    )
    timeline_p.add_argument(
        "--width", type=int, default=DEFAULT_WIDTH,
        help=f"sparkline width in glyphs (default: {DEFAULT_WIDTH})",
    )

    bench_p = sub.add_parser(
        "bench",
        help="run registered benchmarks and track the results as trend files",
    )
    bench_p.add_argument(
        "--bench", action="append", dest="benches", metavar="NAME",
        help="repeatable registered bench name (default: every bench; "
             "see `llamcat list benches`)",
    )
    bench_p.add_argument("--tier", default="ci")
    bench_p.add_argument(
        "--warmup", type=int, default=0,
        help="untimed executions before timing (populates the step-cost memo)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=1,
        help="timed executions; the minimum wall time is recorded",
    )
    bench_p.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding the BENCH_<name>.json trend files "
             "(default: the current directory, i.e. the repo root)",
    )
    bench_p.add_argument(
        "--no-write", action="store_true",
        help="run and print without appending to the trend files",
    )
    bench_p.add_argument(
        "--compare", nargs="?", const="", default=None, metavar="BASELINE",
        help="compare instead of running: deltas of --root's trend files vs "
             "BASELINE (a directory or one trend file); comparing a root "
             "against itself diffs each bench's latest run vs its previous "
             "one; exits 1 on regression beyond the threshold",
    )
    bench_p.add_argument(
        "--threshold", type=float, default=BENCH_COMPARE_THRESHOLD_PCT,
        metavar="PCT",
        help="noise threshold for --compare in percent "
             f"(default: {BENCH_COMPARE_THRESHOLD_PCT:g})",
    )
    bench_p.add_argument(
        "--wall-threshold", type=float, default=None, metavar="PCT",
        help="also gate on wall-clock regressions beyond PCT percent "
             "(default: wall time is informational only)",
    )
    bench_p.add_argument(
        "--validate", action="store_true",
        help="schema-check the trend files under --root and exit",
    )

    report_p = sub.add_parser(
        "report",
        help="render a run report from trend files and/or a result store",
    )
    report_p.add_argument(
        "--trend-root", default=None, metavar="DIR",
        help="directory holding BENCH_<name>.json trend files to summarize",
    )
    report_p.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSON-lines result store to summarize (headline tables, "
             "per-phase latency breakdowns, telemetry sparklines)",
    )
    report_p.add_argument(
        "--format", choices=("markdown", "html"), default="markdown",
        help="output format (html is a self-contained page)",
    )
    report_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    report_p.add_argument(
        "--title", default="llamcat run report",
        help="report title",
    )

    check_p = sub.add_parser(
        "check",
        help="run the determinism & invariant checks (repro.analysis)",
    )
    check_p.add_argument(
        "paths", nargs="*", default=["src", "tests", "examples"], metavar="PATH",
        help="files/directories to lint (default: src tests examples)",
    )
    check_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is canonical and byte-stable)",
    )
    check_p.add_argument(
        "--select", action="append", dest="select", metavar="CODE",
        help="repeatable: run only these rule codes",
    )
    check_p.add_argument(
        "--explain", metavar="CODE", default=None,
        help="print one rule code's documentation and exit",
    )
    check_p.add_argument(
        "--determinism", metavar="SCENARIO", default=None,
        choices=("serve-smoke", "cluster-smoke", "liveness-smoke"),
        help="run SCENARIO twice and bisect to the first divergent step "
             "instead of linting; liveness-smoke runs the previously-"
             "livelocked cobrra kernel point and demands completed status "
             "plus byte-identical results",
    )
    check_p.add_argument(
        "--inject-rng", action="store_true",
        help="with --determinism: inject an unseeded-RNG arrival jitter to "
             "demonstrate localization (expected to diverge, exits 1)",
    )
    check_p.add_argument(
        "--inject-starvation", action="store_true",
        help="with --determinism liveness-smoke: swap the pre-fix starving "
             "cobrra arbiter back in to demonstrate the liveness watchdog "
             "(expected to livelock with a stall report, exits 1)",
    )
    check_p.add_argument("--seed", type=int, default=0,
                         help="scenario seed for --determinism")
    check_p.add_argument(
        "--patience", type=int, default=None, metavar="CYCLES",
        help="liveness watchdog patience for --determinism liveness-smoke "
             "(default: the engine default)",
    )

    list_p = sub.add_parser("list", help="list registered scenario components")
    list_p.add_argument(
        "what",
        choices=tuple(LISTABLE_REGISTRIES),
        help="which registry to list",
    )

    for name in ("fig7", "fig8", "fig9"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--tier", default="ci")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--store", default=None, metavar="PATH",
            help="JSON-lines result store; completed points are reused on re-runs",
        )

    sub.add_parser("hwcost", help="print the area estimates of Section 6.1")

    info_p = sub.add_parser("info", help="describe a workload and its analytical bounds")
    add_flags(info_p, (Scenario,), skip=("policy", "l2_mib", "max_cycles"))
    info_p.set_defaults(tier="full")
    return parser


def _validate_jobs(jobs: int) -> None:
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")


def _percentile_rows(metrics) -> list[dict]:
    """Latency/TTFT (and prefill, when modeled) percentile table rows."""

    rows = []
    for point in REPORTED_PERCENTILES:
        row = {
            "metric": f"p{point:g}",
            "latency_ms": metrics.latency_percentile_ms(point),
            "ttft_ms": metrics.ttft_percentile_ms(point),
        }
        if metrics.has_prefill_phase:
            row["prefill_ms"] = metrics.prefill_percentile_ms(point)
        rows.append(row)
    return rows


def _simulate(args: argparse.Namespace, scenario) -> tuple[ChromeTracer | None, Any]:
    """Run a serve/cluster scenario with the observability flags; print its summary."""

    tracer = ChromeTracer() if args.trace_out else None
    profiler = Profiler(scope=scenario.kind)
    metrics = scenario.run(observers=[profiler] if tracer is None else [tracer, profiler])
    if args.metrics_sketch:
        metrics = metrics.with_sketch()
    logger.debug("profile:\n%s", profiler.summary())
    print(metrics.summary())
    print()
    return tracer, metrics


def _finish(args: argparse.Namespace, scenario, tracer: ChromeTracer | None, metrics) -> None:
    """Print SLO attainment, write the trace and print the timeline, when asked for."""

    if not scenario.slo().is_trivial:
        print(f"SLO attainment: {metrics.slo_attainment:.1%}")
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer)} events)")
    if metrics.telemetry is not None:
        print()
        print(render_timeline(metrics.telemetry))


def _smoke(args: argparse.Namespace) -> dict:
    """The ``--smoke`` overrides (none without the flag)."""

    if not args.smoke:
        return {}
    return SMOKE | {"max_batch": min(args.max_batch, SMOKE["max_batch"])}


def _serve_command(args: argparse.Namespace) -> int:
    scenario = from_args(ServeScenario, args, **_smoke(args)).validate()
    tracer, metrics = _simulate(args, scenario)
    print(
        format_grid(
            f"latency percentiles ({scenario.display_label}, {scenario.scheduler})",
            _percentile_rows(metrics),
        )
    )
    print(
        f"throughput: {metrics.tokens_per_s:.0f} tokens/s, "
        f"{metrics.requests_per_s:.0f} requests/s "
        f"({metrics.steps} serving steps, "
        f"{metrics.meta.get('step_simulations', 0)} cycle-engine runs)"
    )
    if "preemptions" in metrics.meta:
        print(
            f"KV memory: {metrics.meta['kv_budget_tokens']} tokens in "
            f"{metrics.meta['kv_block_tokens']}-token blocks, "
            f"peak utilization {metrics.meta['kv_peak_utilization']:.1%}, "
            f"{metrics.meta['preemptions']} preemptions "
            f"({metrics.meta['preemption']}), "
            f"memory-bound {metrics.meta['kv_memory_bound_frac']:.1%} of the run"
        )
    _finish(args, scenario, tracer, metrics)
    return 0


def _cluster_command(args: argparse.Namespace) -> int:
    replicas = args.replicas
    if args.disaggregated is not None:
        # The fleet split fixes the replica count (smoke keeps the bare-flag
        # default of 1p1d small on its own); an explicit --replicas that
        # contradicts it is an error, not a silent override.
        prefill, decode = parse_disaggregated(args.disaggregated)
        if "replicas" in given(args) and replicas != prefill + decode:
            raise SystemExit(
                f"--replicas {replicas} contradicts --disaggregated "
                f"{args.disaggregated} ({prefill + decode} replicas); drop --replicas "
                f"or make them agree"
            )
        replicas = prefill + decode
    elif args.smoke:
        replicas = min(replicas, 2)
    overrides = {"replicas": replicas} | _smoke(args)
    if args.smoke and args.systems and len(args.systems) > 1:
        overrides["systems"] = args.systems[:replicas]
    scenario = from_args(ClusterScenario, args, **overrides).validate()
    tracer, metrics = _simulate(args, scenario)
    replica_rows = [
        {
            "replica": replica.replica_id,
            "system": replica.system,
            "role": replica.role,
            "requests": replica.num_requests,
            "routed": replica.routed,
            "handoffs": replica.handoffs,
            "steps": replica.steps,
            "tokens": replica.output_tokens,
            "utilization": replica.utilization(metrics.duration_s),
        }
        for replica in metrics.replicas
    ]
    print(format_grid(f"fleet ({scenario.display_label})", replica_rows))
    print()
    print(format_grid("merged latency percentiles", _percentile_rows(metrics)))
    # Handoff counts and per-phase utilization already lead the summary()
    # line; repeating them here would just drift out of sync.
    print(
        f"fleet throughput: {metrics.tokens_per_s:.0f} tokens/s, "
        f"{metrics.requests_per_s:.0f} requests/s "
        f"(imbalance {metrics.load_imbalance:.2f}, "
        f"{metrics.steps} fleet steps, "
        f"{metrics.meta.get('step_simulations', 0)} cycle-engine runs)"
    )
    if "preemption_rate" in metrics.meta:
        peaks = ", ".join(f"{u:.0%}" for u in metrics.meta["kv_peak_utilization"])
        print(
            f"KV memory: {metrics.meta['kv_block_tokens']}-token blocks, "
            f"per-replica peak utilization [{peaks}], "
            f"{sum(metrics.meta['preemptions'])} preemptions "
            f"({metrics.meta['preemption']})"
        )
    _finish(args, scenario, tracer, metrics)
    return 0


def _point_progress(done: int, total: int, outcome, detail: str = "") -> None:
    """One finished sweep point, logged at INFO (stderr; silenced by -q)."""

    status = "cached" if outcome.cached else ("ok" if outcome.ok else "FAILED")
    logger.info(
        "[%*d/%d] %-60s %s%s (%.1fs)",
        len(str(total)), done, total, outcome.point.describe(),
        detail, status, outcome.elapsed_s,
    )


def _run_grid(args: argparse.Namespace, title: str, grid: Grid, progress):
    """Print the grid's shape, then run it against the optional result store."""

    points = grid.expand()
    shape = " x ".join(f"{len(values)} {name}" for name, values in grid.axes)
    print(
        f"{title}: {len(points)} points = {shape} "
        f"(tier={grid.base.tier.name}, jobs={args.jobs})"
    )
    store = ResultStore(args.store) if args.store else None
    if store is not None and store.completed_count:
        print(f"store: {store.path} ({store.completed_count} completed points on disk)")

    report = run_sweep(
        points,
        jobs=args.jobs,
        store=store,
        progress=None if args.quiet else progress,
        force=args.force,
    )
    logger.debug("sweep profile: %s", report.profile())
    return report


def _print_grid_results(title: str, rows: list[dict], report) -> int:
    print()
    print(format_grid(title, rows))
    print(report.summary())
    for failure in report.failures:
        print(f"FAILED {failure.point.describe()}:\n{failure.error}")
    return 1 if report.failures else 0


def _sweep_mode(args: argparse.Namespace) -> Any:
    """The scenario class the sweep flags select; rejects flags it has no field for.

    Rejecting beats dropping: ``--rate`` without ``--serve`` would otherwise
    launch the full kernel grid while ignoring the requested serving study.
    """

    if args.serve and args.cluster:
        raise SystemExit("--serve and --cluster are mutually exclusive sweep modes")
    cls: Any = ClusterScenario if args.cluster else ServeScenario if args.serve else Scenario
    for name, flag in given(args).items():
        owners = [(c, how) for c, how in SWEEP_MODES if name in {f.name for f in fields(c)}]
        if all(c is not cls for c, _ in owners):
            raise SystemExit(
                f"{flag}: {'/'.join(c.kind for c, _ in owners)}-sweep only "
                f"(sweep with {' or '.join(how for _, how in owners)})"
            )
    return cls


def _run_serving_sweep_command(args: argparse.Namespace, grid: Grid) -> int:
    """``sweep --serve`` / ``sweep --cluster``: one grid over a serving scenario."""

    base = grid.base
    metrics = {
        "p50_ms": lambda m: m.latency_percentile_ms(50),
        "p95_ms": lambda m: m.latency_percentile_ms(95),
        "p99_ms": lambda m: m.latency_percentile_ms(99),
        "tokens_per_s": lambda m: m.tokens_per_s,
        "imbalance": lambda m: m.load_imbalance,
        "slo": lambda m: m.slo_attainment,
    }
    if args.cluster:
        columns: tuple[str, ...] = ("rate", "replicas", "router", "scheduler")
        del metrics["p95_ms"]
    else:
        columns = ("arrival", "rate", "scheduler", "policy")
        del metrics["imbalance"]
    report = _run_grid(args, f"{base.kind} sweep", grid, _point_progress)

    rows = []
    for outcome in report.outcomes:
        scenario = outcome.point.scenario
        row = {"model": scenario.workload} | {c: getattr(scenario, c) for c in columns}
        if outcome.ok:
            row |= {name: value(outcome.result) for name, value in metrics.items()}
        else:
            row |= dict.fromkeys(metrics, "-") | {"p50_ms": "FAILED"}
        rows.append(row)
    title = f"{base.kind} sweep results (tier={base.tier.name})"
    return _print_grid_results(title, rows, report)


def _run_sweep_command(args: argparse.Namespace) -> int:
    cls = _sweep_mode(args)
    _validate_jobs(args.jobs)
    grid = sweep_grid(cls, args)
    if cls is not Scenario:
        return _run_serving_sweep_command(args, grid)

    def progress(done: int, total: int, outcome) -> None:
        cycles = f"{outcome.result.cycles:>10}" if outcome.ok else " " * 10
        _point_progress(done, total, outcome, detail=f"{cycles} cycles  ")

    report = _run_grid(args, "sweep", grid, progress)

    # Summary table: speedups are normalised against the first --policy label
    # within each (model, L2, seq-len) cell.
    baseline_label = dict(grid.axes)["policy"][0]
    baseline_cycles = {
        o.point.coords: o.result.cycles
        for o in report.outcomes
        if o.ok and o.point.coord("policy") == baseline_label
    }
    rows = []
    for outcome in report.outcomes:
        point = outcome.point
        base_coords = tuple(
            (axis, baseline_label if axis == "policy" else value)
            for axis, value in point.coords
        )
        base = baseline_cycles.get(base_coords)
        rows.append(
            {
                "model": point.coord("model"),
                # The as-requested (unscaled) axes, matching the user's flags.
                "seq_len": point.coord("seq_len", point.workload.shape.seq_len),
                "l2_mib": point.coord("l2_mib") or "default",
                "policy": point.label,
                "cycles": outcome.result.cycles if outcome.ok else "FAILED",
                f"speedup vs {baseline_label}": (
                    base / outcome.result.cycles if outcome.ok and base else float("nan")
                ),
            }
        )
    return _print_grid_results(f"sweep results (tier={grid.base.tier.name})", rows, report)


def _bench_command(args: argparse.Namespace) -> int:
    if args.validate:
        validation = validate_trends(args.root)
        print(validation.render())
        return 0 if validation.ok else 1
    if args.compare is not None:
        # A bare `--compare` baselines the trend root against itself, i.e.
        # each bench's latest run against its previous one.
        comparison = compare_trends(
            args.root,
            args.compare or args.root,
            threshold_pct=args.threshold,
            wall_threshold_pct=args.wall_threshold,
            benches=tuple(args.benches) if args.benches else None,
        )
        print(comparison.render())
        return 0 if comparison.ok else 1
    names = list(args.benches or bench_names())
    # Unknown names and bad timing knobs are usage errors, not bench failures.
    for name in names:
        resolve_bench(name)
    check_timing(args.warmup, args.repeat)
    tier = parse_tier(args.tier)
    failed: list[str] = []
    for name in names:
        try:
            run = run_bench(name, tier=tier, warmup=args.warmup, repeat=args.repeat)
        except Exception as exc:  # one failing bench must not silence the rest
            failed.append(name)
            print(f"FAILED {name}: {type(exc).__name__}: {exc}")
            continue
        print(run.render())
        if not args.no_write:
            path = append_trend(trend_path(args.root, run.output.bench), run.records())
            print(f"trend: {path} (+{len(run.records())} records)")
    if failed:
        print(f"{len(failed)}/{len(names)} benches failed: {', '.join(failed)}")
        return 1
    return 0


def _report_command(args: argparse.Namespace) -> int:
    if args.trend_root is None and args.store is None:
        raise SystemExit("report needs --trend-root and/or --store")
    store = None
    if args.store is not None:
        if not os.path.exists(args.store):
            raise SystemExit(f"no result store at {args.store}")
        store = ResultStore(args.store)
    text = render_report(
        trend_root=args.trend_root, store=store, fmt=args.format, title=args.title
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report: {args.out} ({len(text)} bytes, {args.format})")
    else:
        print(text, end="")
    return 0


def _timeline_command(args: argparse.Namespace) -> int:
    if not os.path.exists(args.store):
        raise SystemExit(f"no result store at {args.store}")
    store = ResultStore(args.store)
    try:
        record = store.find(args.key)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from exc
    if not record.ok:
        raise SystemExit(
            f"stored point {record.key[:12]} ({record.label}) failed; "
            "no telemetry to render"
        )
    telemetry = getattr(record.result, "telemetry", None)
    if telemetry is None:
        raise SystemExit(
            f"stored point {record.key[:12]} ({record.label}) carries no "
            "telemetry; re-run the sweep with --telemetry MS"
        )
    metrics = (
        tuple((m, m) for m in args.metrics) if args.metrics else DEFAULT_METRICS
    )
    print(f"{record.label} [{record.key[:12]}]")
    print(render_timeline(telemetry, metrics=metrics, width=args.width))
    return 0


def _list_command(what: str) -> int:
    registry = LISTABLE_REGISTRIES[what]
    entries = list(registry.entries())
    width = max((len(entry.name) for entry in entries), default=0)
    print(f"registered {what} ({len(entries)}):")
    for entry in entries:
        aliases = f"  (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {entry.name:<{width}}  {entry.description}{aliases}")
    if what == "policies":
        print(
            "  (any 'throttle+arbitration' combination of known components is "
            "also a valid label, e.g. 'lcs+MA')"
        )
    return 0


#: ``--determinism SCENARIO`` presets, mirroring the ``--smoke`` serve/cluster
#: shapes so the checked scenarios are exactly the ones CI already pins.
def _determinism_scenario(name: str, seed: int):
    cls = ServeScenario if name == "serve-smoke" else ClusterScenario
    return cls.from_dict({"workload": DEFAULT_WORKLOAD, "seed": seed, "label": name} | SMOKE)


def _check_command(args: argparse.Namespace) -> int:
    if args.explain is not None:
        print(explain_rule(args.explain))
        return 0

    if args.determinism == "liveness-smoke":
        kwargs = {} if args.patience is None else {"patience": args.patience}
        liveness = check_liveness(
            inject_starvation=args.inject_starvation, **kwargs
        )
        if args.format == "json":
            print(json.dumps(liveness.to_dict(), sort_keys=True, indent=2))
        else:
            print(liveness.render())
        return 0 if liveness.ok else 1

    if args.determinism is not None:
        scenario = _determinism_scenario(args.determinism, args.seed)
        wrap = (lambda arrival: RngJitterArrival(arrival)) if args.inject_rng else None
        report = check_determinism(scenario, label=args.determinism, wrap_arrival=wrap)
        if args.format == "json":
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        else:
            print(report.render())
        return 0 if report.deterministic else 1

    files_checked = len(discover_files(args.paths))
    findings = check_paths(args.paths, select=args.select)
    if args.format == "json":
        print(findings_to_json(findings, files_checked))
    else:
        for finding in findings:
            print(finding.render())
        noun = "file" if files_checked == 1 else "files"
        if findings:
            print(f"{len(findings)} finding(s) in {files_checked} {noun} checked")
        else:
            print(f"checked {files_checked} {noun}: no findings")
    return 1 if findings else 0


def _load_plugins() -> None:
    """Import the modules named in ``LLAMCAT_PLUGINS`` (comma-separated).

    This is how out-of-tree code gets its ``@register_*`` decorators executed
    inside the ``llamcat`` process: each named module must be importable (on
    ``PYTHONPATH``); importing it registers its scenario components.
    """

    for name in filter(None, (m.strip() for m in os.environ.get("LLAMCAT_PLUGINS", "").split(","))):
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise SystemExit(f"LLAMCAT_PLUGINS: cannot import {name!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.log_quiet)
    try:
        _load_plugins()
        return _dispatch(args)
    except ConfigError as exc:
        # Bad names/values from the command line; internal errors (simulation
        # bugs) propagate with their tracebacks.
        raise SystemExit(str(exc)) from exc


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        scenario = from_args(Scenario, args).validate()
        try:
            baseline = replace(scenario, policy="unopt", label="unoptimized").run()
            result = scenario.run()
        except LivelockError as exc:
            # The message embeds the rendered stall report (queue occupancies,
            # MSHR state, arbiter grants, first stuck cycle).
            print(f"LIVELOCK: {exc}")
            return 1
        print(baseline.summary())
        print(result.summary())
        print(f"speedup over unoptimized: {baseline.cycles / result.cycles:.3f}x")
        return 0

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "cluster":
        return _cluster_command(args)

    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "timeline":
        return _timeline_command(args)

    if args.command == "bench":
        return _bench_command(args)

    if args.command == "report":
        return _report_command(args)

    if args.command == "check":
        return _check_command(args)

    if args.command == "list":
        return _list_command(args.what)

    if args.command in ("fig7", "fig8", "fig9"):
        _validate_jobs(args.jobs)
        tier = parse_tier(args.tier)
        store = ResultStore(args.store) if args.store else None
        if args.command == "fig7":
            print(run_fig7_throttling(tier=tier, jobs=args.jobs, store=store).render())
            print()
            print(run_fig7_cumulative(tier=tier, jobs=args.jobs, store=store).render())
        elif args.command == "fig8":
            print(run_fig8(tier=tier, jobs=args.jobs, store=store).render())
        else:
            print(run_fig9(tier=tier, jobs=args.jobs, store=store).render())
        return 0

    if args.command == "hwcost":
        print(format_grid("Section 6.1 -- area estimates", run_hwcost()))
        return 0

    if args.command == "info":
        resolved = from_args(Scenario, args).resolve()
        estimate = analyze(resolved.workload, resolved.system)
        print(resolved.workload.describe())
        print(f"thread blocks:        {estimate.thread_blocks}")
        print(f"L2 line requests:     {estimate.total_l2_accesses}")
        print(f"unique DRAM traffic:  {estimate.total_dram_bytes / 2**20:.1f} MiB")
        print(f"stall-free cycles:    {estimate.stall_free_cycles}")
        print(f"bottleneck:           {estimate.bottleneck}")
        return 0

    raise SystemExit(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
