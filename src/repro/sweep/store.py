"""Persistent JSON-lines result store for sweeps.

One line per finished point, keyed by the point's content hash.  Append-only
writes (with per-record flush) make the store crash-tolerant: a run killed
mid-write leaves at most one truncated trailing line, which is skipped on load,
so every completed point survives and a re-run resumes from where the sweep
died.  Records of failed points are kept for post-mortems but never count as
cache hits, so failures are retried on the next invocation.

Records are polymorphic over result type: each line carries a ``"kind"`` tag
(``"sim"`` for kernel-level :class:`~repro.sim.results.SimResult`, ``"serve"``
for request-level :class:`~repro.serve.metrics.ServeMetrics`, ``"cluster"``
for fleet-level :class:`~repro.cluster.metrics.ClusterMetrics`) whose
deserializer is resolved lazily, so kernel sweeps, serving sweeps, cluster
sweeps and mixed stores all load through the same path.  Lines written before
the tag existed default to ``"sim"``.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.sim.results import SimResult
from repro.sweep.spec import Point

#: kind tag -> "module:class" of the result type; resolved on first use so the
#: store never imports the serve subsystem unless a serve record appears.
RESULT_KINDS = {
    "sim": "repro.sim.results:SimResult",
    "serve": "repro.serve.metrics:ServeMetrics",
    "cluster": "repro.cluster.metrics:ClusterMetrics",
}


def result_class(kind: str) -> type:
    """The result class registered for ``kind`` (lazy import by dotted path)."""

    try:
        target = RESULT_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown result kind {kind!r} (known: {sorted(RESULT_KINDS)})"
        ) from None
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def result_kind_of(result: object) -> str:
    """The kind tag of a result object (``result_kind`` attribute, "sim" default)."""

    return getattr(type(result), "result_kind", "sim")


@dataclass(frozen=True, slots=True)
class StoreRecord:
    """One persisted sweep point."""

    key: str
    label: str
    status: str                    # "ok" | "error"
    result: "SimResult | object | None"
    error: str | None
    elapsed_s: float
    config: dict                   # the point's full config (reproducibility)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def kind(self) -> str:
        return result_kind_of(self.result) if self.result is not None else "sim"

    def to_json_line(self) -> str:
        payload = {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "kind": self.kind,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "StoreRecord":
        payload = json.loads(line)
        result = payload.get("result")
        if result is not None:
            result = result_class(payload.get("kind", "sim")).from_dict(result)
        return cls(
            key=payload["key"],
            label=payload.get("label", ""),
            status=payload["status"],
            result=result,
            error=payload.get("error"),
            elapsed_s=payload.get("elapsed_s", 0.0),
            config=payload.get("config", {}),
        )


class ResultStore:
    """Content-addressed, resumable store of sweep results on disk."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._records: dict[str, StoreRecord] = {}
        self._skipped_lines = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = StoreRecord.from_json_line(line)
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Truncated/corrupt line from an interrupted run: skip it;
                    # the point will simply be re-simulated.
                    self._skipped_lines += 1
                    continue
                self._records[record.key] = record

    # -- queries -----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        record = self._records.get(key)
        return record is not None and record.ok

    def get(self, key: str) -> StoreRecord | None:
        return self._records.get(key)

    def result_for(self, point: Point) -> "SimResult | object | None":
        """The stored result of ``point``, or None if absent/failed."""

        record = self._records.get(point.key())
        if record is not None and record.ok:
            return record.result
        return None

    def records(self) -> Iterator[StoreRecord]:
        yield from self._records.values()

    def find(self, prefix: str) -> StoreRecord:
        """The unique record whose key starts with ``prefix`` (or whose label
        equals it).

        The CLI addresses stored results by abbreviated content hash, like git
        addresses commits.  Raises :class:`KeyError` when nothing matches or
        the abbreviation is ambiguous.
        """

        if not prefix:
            raise KeyError("empty store key")
        exact = self._records.get(prefix)
        if exact is not None:
            return exact
        matches = [
            record
            for key, record in self._records.items()
            if key.startswith(prefix)
        ]
        if not matches:
            matches = [r for r in self._records.values() if r.label == prefix]
        if not matches:
            available = self._describe(self._records.values())
            hint = f"; available: {available}" if available else ""
            raise KeyError(
                f"no stored result matches {prefix!r} "
                f"({len(self._records)} records in {self.path}){hint}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"{prefix!r} is ambiguous: matches "
                f"{self._describe(matches, limit=len(matches))}"
            )
        return matches[0]

    @staticmethod
    def _describe(records: Iterable[StoreRecord], limit: int = 8) -> str:
        """Stored keys (with labels) as a short comma-separated suggestion."""

        described = sorted(
            f"{r.key[:12]} ({r.label})" if r.label else r.key[:12] for r in records
        )
        shown = ", ".join(described[:limit])
        more = f", +{len(described) - limit} more" if len(described) > limit else ""
        return f"{shown}{more}"

    @property
    def completed_count(self) -> int:
        """Successful records only (failure records are kept but never reused)."""

        return sum(1 for record in self._records.values() if record.ok)

    @property
    def skipped_lines(self) -> int:
        """Corrupt/truncated lines ignored while loading (crash leftovers)."""

        return self._skipped_lines

    # -- writes ------------------------------------------------------------------------
    def put(
        self,
        point: Point,
        result: "SimResult | object | None" = None,
        error: str | None = None,
        elapsed_s: float = 0.0,
    ) -> StoreRecord:
        """Persist one finished point (append + flush) and index it in memory."""

        if (result is None) == (error is None):
            raise ValueError("provide exactly one of `result` or `error`")
        record = StoreRecord(
            key=point.key(),
            label=point.label,
            status="ok" if result is not None else "error",
            result=result,
            error=error,
            elapsed_s=elapsed_s,
            config=point.config_dict(),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(record.to_json_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._records[record.key] = record
        return record
