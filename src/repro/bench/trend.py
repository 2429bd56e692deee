"""Benchmark trend files: append-only performance history at the repo root.

Each registered bench owns one committed ``BENCH_<name>.json`` file holding a
JSON list of :class:`TrendRecord` entries -- one per metric per ``llamcat
bench`` run -- so speedups (and regressions) are tracked PR-over-PR as
reviewable diffs instead of anecdotes.  The record schema is deliberately tiny
and stable::

    {"bench": ..., "config": {...}, "metric": ..., "value": ..., "unit": ...,
     "wall_s": ...}

``value`` is the deterministic simulation output (seeded runs reproduce it
bit-for-bit across machines), ``wall_s`` the measured wall-clock seconds of
one bench execution (machine-dependent, reported but never gated by default).

:func:`compare_trends` computes per-(bench, metric) deltas between two trend
states with a noise threshold; regression direction is inferred from the
metric's unit (``tokens/s`` up is good, ``ms`` up is bad, unknown units are
informational only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigError
from repro.common.mathutils import safe_div

#: Trend files live at the repo root, one per bench: ``BENCH_<name>.json``.
TREND_PREFIX = "BENCH_"

#: Units where a larger value is better (throughput, speedups).
HIGHER_IS_BETTER_UNITS = frozenset({"tokens/s", "requests/s", "x"})

#: Units where a smaller value is better (latencies, cycle counts, area).
LOWER_IS_BETTER_UNITS = frozenset({"s", "ms", "us", "cycles", "um^2"})

#: Keys every trend record must carry (the stable on-disk schema).
RECORD_KEYS = ("bench", "config", "metric", "value", "unit", "wall_s")


@dataclass(frozen=True, slots=True)
class TrendRecord:
    """One metric of one bench run."""

    bench: str
    config: dict
    metric: str
    value: float
    unit: str
    wall_s: float

    def validate(self) -> "TrendRecord":
        if not self.bench:
            raise ConfigError("trend record needs a bench name")
        if not self.metric:
            raise ConfigError("trend record needs a metric name")
        if not isinstance(self.config, dict):
            raise ConfigError(
                f"trend config must be a mapping, got {type(self.config).__name__}"
            )
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise ConfigError(f"trend value must be numeric, got {self.value!r}")
        if self.wall_s < 0:
            raise ConfigError(f"trend wall_s must be >= 0, got {self.wall_s}")
        return self

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "config": dict(self.config),
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrendRecord":
        missing = [key for key in RECORD_KEYS if key not in data]
        if missing:
            raise ConfigError(f"trend record is missing keys {missing}: {data}")
        return cls(
            bench=data["bench"],
            config=dict(data["config"]),
            metric=data["metric"],
            value=data["value"],
            unit=data["unit"],
            wall_s=data["wall_s"],
        ).validate()


def trend_path(root: str | Path, bench: str) -> Path:
    """The trend file of ``bench`` under ``root``."""

    return Path(root) / f"{TREND_PREFIX}{bench}.json"


def load_trend(path: str | Path) -> list[TrendRecord]:
    """Every record in one trend file, oldest first (empty if absent)."""

    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trend file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ConfigError(f"trend file {path} must hold a JSON list")
    return [TrendRecord.from_dict(entry) for entry in payload]


def write_trend(path: str | Path, records: list[TrendRecord]) -> Path:
    """Write ``records`` as the complete content of one trend file."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [record.to_dict() for record in records]
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def append_trend(path: str | Path, records: list[TrendRecord]) -> Path:
    """Append ``records`` to a trend file."""

    existing = load_trend(path)
    return write_trend(path, existing + [r.validate() for r in records])


def discover_trends(root: str | Path) -> dict[str, Path]:
    """``bench name -> trend file`` for every ``BENCH_*.json`` under ``root``.

    ``root`` may also point directly at one trend file.
    """

    root = Path(root)
    if root.is_file():
        name = root.name
        if not (name.startswith(TREND_PREFIX) and name.endswith(".json")):
            raise ConfigError(
                f"{root} is not a BENCH_<name>.json trend file"
            )
        return {name[len(TREND_PREFIX):-len(".json")]: root}
    return {
        path.name[len(TREND_PREFIX):-len(".json")]: path
        for path in sorted(root.glob(f"{TREND_PREFIX}*.json"))
    }


def load_trends(root: str | Path) -> dict[str, list[TrendRecord]]:
    """Every trend file under ``root``, loaded: ``bench -> records``."""

    return {bench: load_trend(path) for bench, path in discover_trends(root).items()}


def metric_direction(metric: str, unit: str) -> int:
    """+1 when larger is better, -1 when smaller is better, 0 when unknown.

    Wall-clock metrics are always smaller-is-better; everything else goes by
    unit.  Unknown units are compared informationally but never gate.
    """

    if metric == "wall_s" or unit in LOWER_IS_BETTER_UNITS:
        return -1
    if unit in HIGHER_IS_BETTER_UNITS:
        return +1
    return 0


@dataclass(frozen=True, slots=True)
class TrendDelta:
    """One (bench, metric) comparison between a baseline and a current run."""

    bench: str
    metric: str
    unit: str
    baseline: float | None
    current: float | None
    #: "ok" | "improved" | "regressed" | "changed" | "new" | "gone" |
    #: "config-changed"
    status: str
    delta_pct: float | None = None
    config_changed: bool = False

    @property
    def gating(self) -> bool:
        return self.status == "regressed"

    def render(self) -> str:
        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:g}"

        delta = (
            f"{self.delta_pct:+.1f}%" if self.delta_pct is not None else "-"
        )
        note = " (config changed; not gated)" if self.config_changed else ""
        return (
            f"{self.bench:>24}  {self.metric:<24} {fmt(self.baseline):>12} -> "
            f"{fmt(self.current):>12} {self.unit:<9} {delta:>8}  {self.status}{note}"
        )


def _latest_per_metric(records: list[TrendRecord]) -> dict[str, TrendRecord]:
    """The newest record per metric name (trend files append oldest-first)."""

    latest: dict[str, TrendRecord] = {}
    for record in records:
        latest[record.metric] = record
    return latest


def compare_records(
    bench: str,
    baseline: list[TrendRecord],
    current: list[TrendRecord],
    threshold_pct: float,
    wall_threshold_pct: float | None = None,
) -> list[TrendDelta]:
    """Per-metric deltas of one bench's baseline vs current records.

    A metric gates (``status == "regressed"``) when it moves against its
    direction by more than ``threshold_pct`` percent.  ``wall_s`` is held to
    ``wall_threshold_pct`` instead and never gates when that is None (wall
    clock is machine noise unless the caller opts in).  Metrics whose configs
    differ between the two sides are reported but never gate.
    """

    base_latest = _latest_per_metric(baseline)
    cur_latest = _latest_per_metric(current)
    deltas: list[TrendDelta] = []
    # wall_s rides along on every record rather than being a metric of its
    # own; compare it once per bench from the newest record of each side.
    if baseline and current:
        base_wall, cur_wall = baseline[-1].wall_s, current[-1].wall_s
        wall_delta = safe_div(cur_wall - base_wall, abs(base_wall)) * 100.0
        status = "ok"
        if wall_threshold_pct is not None and wall_delta > wall_threshold_pct:
            status = "regressed"
        deltas.append(
            TrendDelta(
                bench, "wall_s", "s", base_wall, cur_wall, status,
                delta_pct=wall_delta,
            )
        )
    for metric in sorted(base_latest.keys() | cur_latest.keys()):
        base = base_latest.get(metric)
        cur = cur_latest.get(metric)
        if base is None:
            assert cur is not None
            deltas.append(
                TrendDelta(bench, metric, cur.unit, None, cur.value, "new")
            )
            continue
        if cur is None:
            deltas.append(
                TrendDelta(bench, metric, base.unit, base.value, None, "gone")
            )
            continue
        config_changed = base.config != cur.config
        delta_pct = safe_div(cur.value - base.value, abs(base.value)) * 100.0
        direction = metric_direction(metric, cur.unit)
        limit = wall_threshold_pct if metric == "wall_s" else threshold_pct
        status = "ok"
        if abs(delta_pct) > (limit if limit is not None else float("inf")):
            if direction == 0:
                status = "changed"  # unknown direction: report, never gate
            else:
                moved_against = (direction > 0 and delta_pct < 0) or (
                    direction < 0 and delta_pct > 0
                )
                status = "regressed" if moved_against else "improved"
        if config_changed:
            status = "config-changed"
        deltas.append(
            TrendDelta(
                bench,
                metric,
                cur.unit,
                base.value,
                cur.value,
                status,
                delta_pct=delta_pct,
                config_changed=config_changed,
            )
        )
    return deltas


@dataclass(frozen=True, slots=True)
class TrendComparison:
    """Every delta of a baseline-vs-current trend comparison."""

    deltas: tuple[TrendDelta, ...] = ()
    #: True when baseline and current resolved to the same files, in which
    #: case "baseline" means each file's previous record.
    self_compare: bool = False

    @property
    def regressions(self) -> list[TrendDelta]:
        return [d for d in self.deltas if d.gating]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if not self.deltas:
            return "trend compare: no overlapping benches"
        lines = [
            f"{'bench':>24}  {'metric':<24} {'baseline':>12}    "
            f"{'current':>12} {'unit':<9} {'delta':>8}  status"
        ]
        lines += [delta.render() for delta in self.deltas]
        regressed = self.regressions
        if regressed:
            lines.append(
                f"REGRESSED: {len(regressed)} metric(s) moved against their "
                "direction beyond the threshold"
            )
        else:
            lines.append(f"OK: {len(self.deltas)} metric(s) within threshold")
        return "\n".join(lines)


def compare_trends(
    current_root: str | Path,
    baseline_root: str | Path,
    threshold_pct: float = 10.0,
    wall_threshold_pct: float | None = None,
    benches: tuple[str, ...] | None = None,
) -> TrendComparison:
    """Compare the trend files under two roots (or two explicit files).

    When both roots resolve to the same files, each file's newest record is
    compared against its own previous record -- "did this run regress the one
    before it" -- which is what a bare ``llamcat bench --compare .`` after two
    local runs means.
    """

    current_files = discover_trends(current_root)
    baseline_files = discover_trends(baseline_root)
    if benches is not None:
        current_files = {b: p for b, p in current_files.items() if b in benches}
        baseline_files = {b: p for b, p in baseline_files.items() if b in benches}
    deltas: list[TrendDelta] = []
    self_compare = False
    for bench in sorted(current_files.keys() & baseline_files.keys()):
        current = load_trend(current_files[bench])
        if current_files[bench].resolve() == baseline_files[bench].resolve():
            # Same file on both sides: current = newest records, baseline =
            # the history before them (previous run of each metric).
            self_compare = True
            newest = {id(r) for r in _latest_per_metric(current).values()}
            current_side = [r for r in current if id(r) in newest]
            baseline_side = [r for r in current if id(r) not in newest]
            if not baseline_side:
                continue
            deltas.extend(
                compare_records(
                    bench, baseline_side, current_side,
                    threshold_pct, wall_threshold_pct,
                )
            )
        else:
            baseline = load_trend(baseline_files[bench])
            deltas.extend(
                compare_records(
                    bench, baseline, current, threshold_pct, wall_threshold_pct
                )
            )
    return TrendComparison(deltas=tuple(deltas), self_compare=self_compare)


@dataclass(frozen=True, slots=True)
class TrendValidation:
    """Outcome of schema-checking the trend files under one root."""

    files: int
    records: int
    errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        if self.errors:
            return "\n".join(self.errors) + f"\n{len(self.errors)} invalid trend file(s)"
        return f"trend schema OK: {self.records} record(s) in {self.files} file(s)"


def validate_trends(root: str | Path) -> TrendValidation:
    """Schema-check every ``BENCH_*.json`` under ``root``."""

    files = discover_trends(root)
    errors: list[str] = []
    records = 0
    for bench, path in sorted(files.items()):
        try:
            loaded = load_trend(path)
        except ConfigError as exc:
            errors.append(str(exc))
            continue
        records += len(loaded)
        for record in loaded:
            if record.bench != bench:
                errors.append(
                    f"{path}: record bench {record.bench!r} does not match "
                    f"file name (expected {bench!r})"
                )
    return TrendValidation(files=len(files), records=records, errors=tuple(errors))
