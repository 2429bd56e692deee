"""Per-rule fixture tests: each rule fires where expected and only there.

Fixtures live in ``tests/analysis/fixtures/*.txt`` -- deliberately *not*
``.py``, so ``llamcat check src tests examples`` (which the acceptance
criteria pin at zero findings) never discovers the planted violations.
"""

from pathlib import Path

import pytest

from repro.analysis import check_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (rule code, expected finding lines).
EXPECTED = {
    "det001.txt": ("DET001", [3, 4, 10, 11]),
    "det002.txt": ("DET002", [9, 10, 11]),
    "det003.txt": ("DET003", [6, 7, 9]),
    "det004.txt": ("DET004", [6, 7]),
    "reg001.txt": ("REG001", [12, 17]),
    "ser001.txt": ("SER001", [11]),
    "api001.txt": ("API001", [14]),
    "cli001.txt": ("CLI001", [7, 8]),
}


def run_fixture(name: str, code: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return check_source(source, path="src/repro/fixture.py", select=[code])


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_rule_fires_on_expected_lines(self, name):
        code, lines = EXPECTED[name]
        findings = run_fixture(name, code)
        assert [f.code for f in findings] == [code] * len(lines)
        assert [f.line for f in findings] == lines

    def test_every_rule_has_a_fixture(self):
        from repro.analysis import all_rules

        covered = {code for code, _ in EXPECTED.values()}
        assert covered == {rule.code for rule in all_rules()}


class TestRuleScoping:
    def test_det001_allows_rng_module_itself(self):
        source = "import random\n"
        assert check_source(source, path="src/repro/common/rng.py") == []
        assert any(
            f.code == "DET001"
            for f in check_source(source, path="src/repro/common/other.py")
        )

    def test_det002_allows_only_profile(self):
        source = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        assert check_source(source, path="src/repro/obs/profile.py") == []
        for path in ("src/repro/serve/thing.py", "benchmarks/bench_thing.py"):
            findings = check_source(source, path=path)
            assert [f.code for f in findings] == ["DET002"]

    def test_det002_tracks_time_alias(self):
        source = "import time as clock\n\n\ndef f():\n    return clock.monotonic()\n"
        assert [f.code for f in check_source(source)] == ["DET002"]

    def test_det003_reassignment_clears_set_tracking(self):
        source = (
            "def f(xs):\n"
            "    vals = {x for x in xs}\n"
            "    vals = sorted(vals)\n"
            "    return [v for v in vals]\n"
        )
        assert check_source(source, select=["DET003"]) == []

    def test_det003_scopes_are_per_function(self):
        source = (
            "def a(xs):\n"
            "    vals = {x for x in xs}\n"
            "    return sorted(vals)\n"
            "\n"
            "\n"
            "def b(vals):\n"
            "    return [v for v in vals]\n"
        )
        assert check_source(source, select=["DET003"]) == []

    def test_reg001_accepts_bootstrapped_module(self):
        source = (
            "from repro.registry.core import Registry\n"
            "\n"
            "THINGS = Registry('thing', bootstrap=('repro.fixture',))\n"
            "\n"
            "\n"
            "@THINGS.register('alpha')\n"
            "def build_alpha():\n"
            "    return object()\n"
        )
        assert check_source(source, path="src/repro/fixture.py", select=["REG001"]) == []

    def test_ser001_requires_both_methods(self):
        source = (
            "class OneWay:\n"
            "    def to_dict(self):\n"
            "        return {'only_written': 1}\n"
        )
        assert check_source(source, select=["SER001"]) == []

    def test_api001_ignores_non_library_paths(self):
        source = (
            "def f(obj):\n"
            "    object.__setattr__(obj, 'x', 1)\n"
        )
        assert check_source(source, path="tests/conftest_helper.py") == []
        assert [f.code for f in check_source(source)] == ["API001"]

    def test_cli001_allows_cli_and_timeline(self):
        source = "def f(msg):\n    print(msg)\n"
        assert check_source(source, path="src/repro/cli.py") == []
        assert check_source(source, path="src/repro/obs/timeline.py") == []
        assert [f.code for f in check_source(source)] == ["CLI001"]

    def test_cli001_ignores_stderr_prints(self):
        source = "import sys\n\n\ndef f(msg):\n    print(msg, file=sys.stderr)\n"
        assert check_source(source, select=["CLI001"]) == []


class TestReg001BenchRegistry:
    """The BENCHES registry is covered by the bootstrap check like any other."""

    REPO = Path(__file__).parents[2]

    def check_with_registry(self, source: str, path: str):
        from repro.analysis.engine import check_modules, parse_module

        registry_path = "src/repro/bench/registry.py"
        registry_src = (self.REPO / registry_path).read_text(encoding="utf-8")
        modules = [
            parse_module(registry_path, registry_src),
            parse_module(path, source),
        ]
        return check_modules(modules, select=["REG001"])

    def test_bench_outside_bootstrap_is_flagged(self):
        source = (
            "from repro.bench.registry import register_bench\n"
            "\n"
            "\n"
            "@register_bench('rogue')\n"
            "def rogue_bench(tier):\n"
            "    return None\n"
        )
        findings = self.check_with_registry(source, "src/repro/bench/rogue.py")
        assert [f.code for f in findings] == ["REG001"]
        assert "BENCHES" in findings[0].message

    def test_bench_in_suite_module_is_accepted(self):
        source = (
            "from repro.bench.registry import register_bench\n"
            "\n"
            "\n"
            "@register_bench('fine')\n"
            "def fine_bench(tier):\n"
            "    return None\n"
        )
        assert self.check_with_registry(source, "src/repro/bench/suite.py") == []
