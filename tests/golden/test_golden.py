"""Golden regression tests: the smoke metrics dicts must match exactly.

These comparisons are deliberately *exact* -- every timestamp, cycle count and
derived aggregate of the ``llamcat serve --smoke`` / ``llamcat cluster
--smoke`` runs is pinned.  An engine change that shifts any number fails here
loudly; if the shift is intentional, regenerate the fixtures
(``PYTHONPATH=src python tests/golden/regen.py``) and commit them with the
change.  See CONTRIBUTING.md.
"""

import json

import pytest

from tests.golden.scenarios import (
    GOLDEN_SCENARIOS,
    OBSERVER_SCENARIOS,
    canonical,
    fixture_path,
)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_smoke_metrics_match_golden_fixture_exactly(name):
    path = fixture_path(name)
    assert path.exists(), (
        f"golden fixture {path} is missing; generate it with "
        f"`PYTHONPATH=src python tests/golden/regen.py`"
    )
    expected = json.loads(path.read_text())
    actual = canonical(GOLDEN_SCENARIOS[name]().to_dict())
    assert actual == expected, (
        f"{name}: smoke metrics diverged from the golden fixture; if this "
        f"change is intentional, regenerate via "
        f"`PYTHONPATH=src python tests/golden/regen.py` and commit the diff"
    )


@pytest.mark.parametrize("name", sorted(OBSERVER_SCENARIOS))
def test_observer_outputs_match_golden_fixture_exactly(name):
    """Trace hash, probe digests, telemetry and profile call counts are pinned."""

    expected = json.loads(fixture_path(name).read_text())
    actual = canonical(OBSERVER_SCENARIOS[name]())
    assert actual == expected, (
        f"{name}: observer outputs diverged from the golden fixture; if this "
        f"change is intentional, regenerate via "
        f"`PYTHONPATH=src python tests/golden/regen.py` and commit the diff"
    )


def test_decode_first_with_free_prefill_reproduces_the_pre_prefill_golden():
    """The backward-compatibility contract of the prefill-aware scheduler.

    ``serve_decode_only_smoke.json`` is a byte-for-byte frozen copy of the
    ``serve_smoke.json`` that predates prefill modeling.  Running today's
    decode-first scheduler with ``prefill_cost=False`` must reproduce it
    exactly -- same timestamps, cycle counts, aggregates *and* dict shape (no
    prefill keys) -- so decode-only results remain comparable across the
    change.  If this test fails, the legacy path regressed; do NOT fix it by
    regenerating the fixture.
    """

    from tests.golden.scenarios import golden_serve_decode_only_scenario

    scenario = golden_serve_decode_only_scenario()
    assert scenario.scheduler == "decode-first" and not scenario.prefill_cost
    actual = canonical(scenario.run().to_dict())
    expected = json.loads(fixture_path("serve_decode_only_smoke.json").read_text())
    assert actual == expected
    flat = json.dumps(expected)
    assert "prefill" not in flat and "scheduler" not in flat


def test_golden_fixtures_are_canonical_json():
    # Fixtures must stay exactly as regen.py writes them (sorted keys,
    # 2-space indent, trailing newline) so regeneration diffs are minimal.
    for name in (*GOLDEN_SCENARIOS, *OBSERVER_SCENARIOS):
        text = fixture_path(name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
