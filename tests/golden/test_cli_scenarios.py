"""The CLI contract is pinned: argv -> scenario, and the option tables.

``tests/golden/cli_scenarios.json`` records, for a corpus of ``serve``,
``cluster``, ``run``, ``info`` and ``sweep`` command lines, the scenario each
one builds (its ``to_dict()`` and ``key()``; both scenarios of a kernel
``run``, its baseline first) or the grid it expands (the header line plus
every point's label, kind and key).  It also records every option string of
those subcommands with its default, nargs, const and action kind.  Nothing is
simulated: ``run``, ``run_sweep`` and the analytical model are patched to
capture their input.

The fixture was generated from the hand-written parsers that the declared
knobs replaced.  Never regenerate it: a mismatch means a command line now
means something else, or a stored result would re-simulate on resume.
"""

from __future__ import annotations

import argparse
import json
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.api import Scenario
from repro.cli import build_parser, main
from repro.cluster.scenario import ClusterScenario
from repro.serve.scenario import ServeScenario

FIXTURE = Path(__file__).parent / "cli_scenarios.json"

COMMANDS = (
    # serve
    "serve",
    "serve --smoke",
    "serve --smoke --max-batch 1 --num-requests 100",
    "serve --model llama3-405b-decode --arrival bursty --rate 1500 "
    "--num-requests 12 --max-batch 3 --seed 7 --policy dynmg+BMA "
    "--system table5-8core --tier smoke",
    "serve --workload llama3-70b-decode --scheduler chunked --prefill-chunk 128",
    "serve --no-prefill-cost --scheduler prefill-first",
    "serve --tier smoke --kv-budget 1024 --kv-block 32 --preemption swap "
    "--kv-swap-ms 0.5",
    "serve --smoke --kv-budget system",
    "serve --smoke --slo-ttft-ms 5 --slo-latency-ms 20 --telemetry 2.5",
    "serve --smoke --trace-out unused.json --metrics-sketch",
    # cluster
    "cluster",
    "cluster --smoke",
    "cluster --smoke --replicas 4 --max-batch 8 --num-requests 3",
    "cluster --replicas 3 --router join-shortest-queue --system table5 "
    "--system table5-8core --system table5",
    "cluster --smoke --replicas 3 --system table5 --system table5-8core "
    "--system table5",
    "cluster --system table5-8core",
    "cluster --disaggregated",
    "cluster --smoke --disaggregated",
    "cluster --smoke --disaggregated 2p2d --kv-transfer-ms 0.05",
    "cluster --disaggregated 1p2d --replicas 3",
    "cluster --tier smoke --kv-budget 2048 --kv-block 16 --preemption swap "
    "--kv-swap-ms 0.25 --scheduler chunked --prefill-chunk 64",
    "cluster --model llama3-405b-decode --arrival closed-loop --rate 4 "
    "--seed 5 --policy dynmg --telemetry 1 --slo-ttft-ms 3",
    "cluster --no-prefill-cost --tier smoke --router weighted",
    # sweep --serve
    "sweep --serve",
    "sweep --serve --tier smoke --model llama3-70b --rate 1000 --rate 2000 "
    "--num-requests 8 --max-batch 2 --seed 3 --telemetry 2 --max-cycles 100000",
    "sweep --serve --arrival poisson --arrival bursty --scheduler decode-first "
    "--scheduler chunked --prefill-chunk 64 --prefill-chunk 256 "
    "--policy unopt --policy dynmg",
    "sweep --serve --rate 4000 --kv-budget 1024 --kv-budget system "
    "--kv-block 1 --kv-block 32 --preemption recompute --preemption swap "
    "--kv-swap-ms 0.5",
    "sweep --serve --model llama3-70b --model llama3-405b-decode --rate 2000",
    # sweep --cluster
    "sweep --cluster",
    "sweep --cluster --tier smoke --rate 2000 --replicas 2 --replicas 4 "
    "--router round-robin --router jsq --num-requests 8 --max-batch 2",
    "sweep --cluster --kv-budget 512 --preemption swap --scheduler chunked "
    "--telemetry 1 --seed 9 --rate 3000",
    # kernel sweep (the mode every serving flag must stay out of)
    "sweep --model llama3-70b --seq-len 2048 --policy unopt --policy dynmg+BMA "
    "--l2-mib 16",
    "sweep",
    "sweep --max-cycles 5000 --tier smoke --policy dynmg --l2-mib 16 --l2-mib 32",
    # kernel run / info
    "run",
    "run --model llama3-405b --seq-len 2048 --policy unopt --system table5-8core "
    "--tier smoke",
    "info",
    "info --tier ci --seq-len 512",
)

SUBCOMMANDS = ("serve", "cluster", "sweep", "run", "info")


class _Captured(Exception):
    def __init__(self, payload):
        super().__init__("captured")
        self.payload = payload


def _capture_run(self, *args, **kwargs):
    raise _Captured(self)


def _capture_sweep(points, **kwargs):
    raise _Captured(tuple(points))


class _NoResult:
    """What a captured kernel ``Scenario.run`` returns instead of simulating."""

    cycles = 1

    def summary(self) -> str:
        return ""


def capture(argv: list[str], monkeypatch, capsys) -> dict:
    """What ``argv`` would simulate, without simulating it."""

    resolved: list[Scenario] = []
    ran: list[Scenario] = []
    resolve = Scenario.resolve

    def _record_resolve(self):
        resolved.append(self)
        return resolve(self)

    def _record_run(self):
        ran.append(self)
        return _NoResult()

    def _capture_analyze(*args, **kwargs):
        raise _Captured(resolved[-1:])

    monkeypatch.setattr(ServeScenario, "run", _capture_run)
    monkeypatch.setattr(ClusterScenario, "run", _capture_run)
    monkeypatch.setattr(Scenario, "resolve", _record_resolve)
    monkeypatch.setattr(Scenario, "run", _record_run)
    monkeypatch.setattr(repro.cli, "analyze", _capture_analyze)
    monkeypatch.setattr(repro.cli, "run_sweep", _capture_sweep)
    capsys.readouterr()
    try:
        main(argv)
    except _Captured as exc:
        payload = exc.payload
    else:  # a kernel `run`: every scenario it simulated, in order
        payload = ran
    if isinstance(payload, list):
        assert payload, f"{argv} captured no kernel scenario"
        return {
            "scenarios": [
                {"scenario": scenario.to_dict(), "key": scenario.key()} for scenario in payload
            ]
        }
    if isinstance(payload, tuple):
        return {
            "header": capsys.readouterr().out.splitlines()[0],
            "points": [
                {
                    "label": point.label,
                    "kind": point.config_dict().get("kind"),
                    "key": point.key(),
                }
                for point in payload
            ],
        }
    return {"kind": payload.kind, "scenario": payload.to_dict(), "key": payload.key()}


def _action_kind(action: argparse.Action) -> str:
    for name, cls in (
        ("append", argparse._AppendAction),
        ("store_true", argparse._StoreTrueAction),
        ("store_false", argparse._StoreFalseAction),
        ("store_const", argparse._StoreConstAction),
        ("count", argparse._CountAction),
        ("help", argparse._HelpAction),
        ("store", argparse._StoreAction),
    ):
        if isinstance(action, cls):
            return name
    return type(action).__name__


def option_tables() -> dict:
    """Every option string of the pinned subcommands, by primary spelling."""

    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    tables = {}
    for name in SUBCOMMANDS:
        tables[name] = {
            action.option_strings[0]: {
                "options": list(action.option_strings),
                "default": action.default,
                "nargs": action.nargs,
                "const": action.const,
                "action": _action_kind(action),
            }
            for action in subparsers.choices[name]._actions
            if action.option_strings
        }
    return tables


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_exactly_this_corpus(golden):
    assert sorted(golden["commands"]) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_builds_the_pinned_scenario(command, golden, monkeypatch, capsys):
    assert capture(shlex.split(command), monkeypatch, capsys) == golden["commands"][command]


def test_option_tables_match(golden):
    assert option_tables() == golden["options"]
