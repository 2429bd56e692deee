"""Tests for ``llamcat check``: exit codes, formats, explain, meta-cleanliness."""

import json

import pytest

from repro.analysis import all_rules, check_paths
from repro.cli import main


@pytest.fixture()
def clean_dir(tmp_path):
    (tmp_path / "fine.py").write_text("x = 1\n")
    return tmp_path


@pytest.fixture()
def dirty_dir(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "repro").mkdir()
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.write_text("import random\n\n\ndef f(msg):\n    print(msg)\n")
    return tmp_path


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, clean_dir, capsys):
        assert main(["check", str(clean_dir)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "1 file" in out

    def test_findings_exit_one(self, dirty_dir, capsys):
        assert main(["check", str(dirty_dir)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "CLI001" in out
        assert "2 finding(s)" in out

    def test_json_format(self, dirty_dir, capsys):
        assert main(["check", "--format", "json", str(dirty_dir)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 2
        assert payload["summary"]["by_code"] == {"CLI001": 1, "DET001": 1}

    def test_select_restricts_rules(self, dirty_dir, capsys):
        assert main(["check", "--select", "CLI001", str(dirty_dir)]) == 1
        out = capsys.readouterr().out
        assert "DET001" not in out
        assert "CLI001" in out

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path / "nope")])

    def test_explain(self, capsys):
        assert main(["check", "--explain", "DET003"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DET003: ")
        assert "noqa[DET003]" in out

    def test_explain_unknown_code(self):
        with pytest.raises(SystemExit, match="unknown rule code"):
            main(["check", "--explain", "ZZZ999"])

    def test_determinism_scenario_choices(self):
        with pytest.raises(SystemExit):
            main(["check", "--determinism", "bogus"])


class TestMetaCleanliness:
    """The acceptance bar: the repo itself is clean under its own rules."""

    def test_src_repro_is_clean(self):
        assert check_paths(["src/repro"]) == []

    def test_full_default_scope_is_clean(self):
        assert check_paths(["src", "tests", "examples"]) == []

    def test_root_conftest_is_clean(self):
        assert check_paths(["conftest.py"]) == []

    def test_all_rules_ran(self):
        # Guard against the meta-test passing because rules failed to load.
        assert len(all_rules()) >= 8
