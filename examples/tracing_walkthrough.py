#!/usr/bin/env python3
"""Compare decode-first vs chunked-prefill schedulers through their traces.

Aggregates (p95 TTFT, throughput) say *which* scheduler wins; observability
says *why*.  This walkthrough runs the same seeded request stream under the
``decode-first`` and ``chunked`` schedulers with a :class:`ChromeTracer` and
telemetry sampling attached, then

* writes one Chrome ``trace_event`` file per scheduler -- open them side by
  side at https://ui.perfetto.dev to see chunked prefill slicing the long
  prompt spans into `--prefill-chunk`-token steps that interleave with decode,
  where decode-first serializes whole prompts between decode bursts;
* prints each run's telemetry timeline, where the same story shows up as
  queue-depth and utilization shapes; and
* summarizes the step-span composition straight from the trace events.

Usage::

    python examples/tracing_walkthrough.py --out-dir /tmp/llamcat-traces
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.config.scale import ScaleTier
from repro.obs import ChromeTracer, render_timeline
from repro.serve import ServeScenario


def run_traced(scheduler: str, args: argparse.Namespace):
    scenario = ServeScenario(
        workload=args.workload,
        arrival="poisson",
        rate=args.rate,
        num_requests=args.num_requests,
        max_batch=args.max_batch,
        seed=args.seed,
        scheduler=scheduler,
        prefill_chunk=args.prefill_chunk,
        tier=ScaleTier[args.tier.upper()],
        telemetry_ms=args.telemetry_ms,
    ).validate()
    tracer = ChromeTracer()
    metrics = scenario.run(observers=[tracer])
    return metrics, tracer


def step_stats(tracer: ChromeTracer) -> dict:
    """Fold the scheduler step spans into a composition summary."""

    steps = [e for e in tracer.events if e["name"] == "step"]
    mixed = sum(
        1 for e in steps if e["args"].get("decode") and e["args"].get("prefill_reqs")
    )
    prefill_only = sum(
        1 for e in steps if not e["args"].get("decode") and e["args"].get("prefill_reqs")
    )
    return {
        "steps": len(steps),
        "prefill_steps": sum(1 for e in steps if e["args"].get("prefill_reqs")),
        "mixed_steps": mixed,
        "prefill_only_steps": prefill_only,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="llama3-70b")
    parser.add_argument("--rate", type=float, default=2000.0)
    parser.add_argument("--num-requests", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prefill-chunk", type=int, default=256)
    parser.add_argument("--telemetry-ms", type=float, default=1.0)
    parser.add_argument("--tier", default="smoke", choices=["smoke", "ci", "full"])
    parser.add_argument("--out-dir", default="/tmp/llamcat-traces")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for scheduler in ("decode-first", "chunked"):
        metrics, tracer = run_traced(scheduler, args)
        path = out_dir / f"{scheduler}.json"
        tracer.write(path)
        results[scheduler] = (metrics, tracer, path)

        print(f"=== {scheduler} ===")
        print(metrics.summary())
        stats = step_stats(tracer)
        print(
            f"trace: {path} ({len(tracer)} events; {stats['steps']} steps, "
            f"{stats['mixed_steps']} mixed decode+prefill, "
            f"{stats['prefill_only_steps']} prefill-only)"
        )
        print(render_timeline(metrics.telemetry))
        print()

    decode_first, chunked = results["decode-first"][0], results["chunked"][0]
    print(
        f"chunked vs decode-first: "
        f"TTFT p95 {chunked.ttft_percentile_ms(95):.3f} vs "
        f"{decode_first.ttft_percentile_ms(95):.3f} ms, "
        f"throughput {chunked.tokens_per_s:.0f} vs "
        f"{decode_first.tokens_per_s:.0f} tokens/s"
    )
    print(f"open the traces side by side at https://ui.perfetto.dev: {out_dir}")


if __name__ == "__main__":
    main()
