"""Event tracing: per-request lifecycle and per-iteration scheduler decisions.

The serving stack reports *aggregates* (p95 TTFT, utilization, imbalance);
tracing records *why* they came out that way.  :class:`ChromeTracer` is an
:class:`~repro.obs.observer.Observer` of the serving loop that turns its
events into a timeline: one span per scheduler iteration carrying the
:class:`~repro.serve.schedpolicy.StepPlan` composition, batch shape and cycle
cost, KV-transfer spans and handoff instants on disaggregated fleets, and,
once the run drains, each request's lifecycle spans (queued -> prefill ->
decode -> complete).  The serving loop does not know the format: it only
calls the observer hooks, and a run without a tracer builds no trace data.

The output is Chrome ``trace_event`` JSON, the format Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly.  Each
replica is a process (pid = replica id) with a "scheduler" thread; request
lanes live in one extra "requests" process, pid = number of replicas, one
thread per request id.

Timestamps are *simulated* seconds (converted to the format's microseconds),
never wall clock, so a seeded run emits a byte-identical trace every time --
which is what lets CI pin trace output with a plain ``cmp``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ConfigError
from repro.obs.observer import Observer

#: Event categories, used by trace viewers to filter tracks.
CAT_REQUEST = "request"
CAT_STEP = "scheduler"
CAT_HANDOFF = "handoff"

#: trace_event timestamps are microseconds.
_US_PER_S = 1e6

#: Phase codes of the trace_event format that this tracer emits.
_PHASES = {"X", "i", "M"}


class ChromeTracer(Observer):
    """Record events as Chrome ``trace_event`` JSON (Perfetto-loadable).

    ``complete`` records a duration span ``[start_s, end_s]`` and ``instant``
    a point event; ``pid``/``tid`` place events on Perfetto's process/thread
    tracks and ``name_process``/``name_thread`` label them.  The ``on_*``
    observer hooks build the serving loop's timeline from these.  Events
    accumulate in emission order; :meth:`write` serializes them with sorted
    keys and canonical separators, so a deterministic simulation produces a
    byte-identical trace file on every run.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}
        #: The request lanes' pid, one past the replica pids (set by on_start).
        self._requests_pid = 0

    def __len__(self) -> int:
        return len(self.events)

    def name_process(self, pid: int, name: str) -> None:
        self._process_names[pid] = name

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        self._thread_names[(pid, tid)] = name

    def complete(
        self,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        start_s: float,
        end_s: float,
        args: dict | None = None,
    ) -> None:
        if end_s < start_s:
            raise ConfigError(
                f"trace span {name!r} must not end before it starts, got "
                f"[{start_s}, {end_s}]"
            )
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_s * _US_PER_S,
            "dur": (end_s - start_s) * _US_PER_S,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(
        self,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        ts_s: float,
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": ts_s * _US_PER_S,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -- serving-loop observer hooks ------------------------------------------------
    def on_start(self, arrival, replicas) -> None:
        for replica in replicas:
            self.name_process(
                replica.replica_id, f"replica {replica.replica_id} [{replica.role}]"
            )
            self.name_thread(replica.replica_id, 0, "scheduler")
        self._requests_pid = len(replicas)
        self.name_process(self._requests_pid, "requests")

    def on_step(self, replica, start_s, end_s, plan, cycles) -> None:
        args = plan.trace_args(replica.scheduler.config.seq_bucket_floor)
        args["cycles"] = cycles
        self.complete("step", CAT_STEP, replica.replica_id, 0, start_s, end_s, args=args)

    def on_transfer(self, replica, active, start_s, end_s) -> None:
        self.complete(
            "kv-transfer", CAT_HANDOFF, self._requests_pid, active.request.request_id,
            start_s, end_s, args={"from_replica": replica.replica_id},
        )

    def on_handoff(self, replica, active, ready_s) -> None:
        self.instant(
            "handoff", CAT_HANDOFF, self._requests_pid, active.request.request_id,
            ready_s, args={"to_replica": replica.replica_id},
        )

    def on_finish(self, replicas) -> None:
        # Lifecycle spans per completed request, in (replica, id) order --
        # trace viewers sort by timestamp, so emission order only needs to be
        # deterministic, not chronological.
        for replica in replicas:
            for record in replica.completed:
                self.trace_request(record, self._requests_pid)

    def trace_request(self, record, pid: int) -> None:
        """Emit one completed request's lifecycle spans onto its own track.

        ``record`` is any object with the :class:`~repro.serve.metrics.
        RequestMetrics` timestamp fields; each request occupies ``tid =
        request_id`` under the ``pid`` request lane, giving Perfetto one
        swimlane per request: queued (arrival -> admission), prefill
        (admission -> last prompt token, when the run models prefill), decode
        (to the final token) and a ``complete`` instant.
        """

        tid = record.request_id
        self.complete("queued", CAT_REQUEST, pid, tid, record.arrival_s, record.admitted_s)
        decode_start_s = record.admitted_s
        if record.prefill_end_s is not None:
            self.complete(
                "prefill",
                CAT_REQUEST,
                pid,
                tid,
                record.admitted_s,
                record.prefill_end_s,
                args={"prompt_tokens": record.prompt_tokens},
            )
            decode_start_s = record.prefill_end_s
        self.complete(
            "decode",
            CAT_REQUEST,
            pid,
            tid,
            decode_start_s,
            record.finish_s,
            args={"output_tokens": record.output_tokens},
        )
        self.instant(
            "complete",
            CAT_REQUEST,
            pid,
            tid,
            record.finish_s,
            args={"latency_ms": (record.finish_s - record.arrival_s) * 1e3},
        )

    # -- output ----------------------------------------------------------------------
    def trace_dict(self) -> dict:
        """The complete trace as JSON-able data (metadata events first)."""

        metadata: list[dict] = []
        for pid in sorted(self._process_names):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": self._process_names[pid]},
                }
            )
        for pid, tid in sorted(self._thread_names):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": self._thread_names[(pid, tid)]},
                }
            )
        return {
            "displayTimeUnit": "ms",
            "traceEvents": metadata + self.events,
        }

    def to_json(self) -> str:
        return json.dumps(self.trace_dict(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        """Serialize the trace to ``path`` (canonical JSON + trailing newline)."""

        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def validate_trace(data) -> int:
    """Validate Chrome ``trace_event`` JSON structure; return the event count.

    Checks the shape this package emits (and Perfetto requires): a top-level
    ``traceEvents`` list whose entries carry ``name``/``ph``/``ts``/``pid``/
    ``tid``, with a ``dur`` on every complete ("X") event.  Raises
    :class:`~repro.common.errors.ConfigError` on the first malformed event --
    used by tests and the CI trace-smoke step.
    """

    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ConfigError("a trace must be an object with a 'traceEvents' list")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ConfigError(f"traceEvents must be a list, got {type(events).__name__}")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigError(f"traceEvents[{i}] must be an object")
        missing = {"name", "ph", "ts", "pid", "tid"} - event.keys()
        if missing:
            raise ConfigError(
                f"traceEvents[{i}] ({event.get('name', '?')!r}) is missing "
                f"{sorted(missing)}"
            )
        if event["ph"] not in _PHASES:
            raise ConfigError(
                f"traceEvents[{i}] has unknown phase {event['ph']!r} "
                f"(expected one of {sorted(_PHASES)})"
            )
        if event["ph"] == "X" and "dur" not in event:
            raise ConfigError(
                f"traceEvents[{i}] ({event['name']!r}) is a complete event "
                f"without a 'dur'"
            )
        if event["ph"] == "X" and event["dur"] < 0:
            raise ConfigError(
                f"traceEvents[{i}] ({event['name']!r}) has negative duration"
            )
    return len(events)
