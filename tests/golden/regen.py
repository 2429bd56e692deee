"""Regenerate the golden metric fixtures (run after an *intentional* change).

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Rewrites every metrics and observer fixture in ``tests/golden/`` from the
scenarios in :mod:`tests.golden.scenarios` and prints what changed.  Commit the updated
fixtures together with the engine change that moved the numbers -- see
CONTRIBUTING.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1].parent))

from tests.golden.scenarios import (  # noqa: E402
    GOLDEN_SCENARIOS,
    OBSERVER_SCENARIOS,
    canonical,
    fixture_path,
)


def main() -> int:
    fixtures = {name: (lambda run=run: run().to_dict()) for name, run in GOLDEN_SCENARIOS.items()}
    fixtures.update(OBSERVER_SCENARIOS)
    for name, produce in fixtures.items():
        path = fixture_path(name)
        fresh = canonical(produce())
        stale = json.loads(path.read_text()) if path.exists() else None
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        status = "unchanged" if fresh == stale else ("updated" if stale else "created")
        print(f"{path}: {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
