"""Every example script still imports against the current API.

The examples are documentation, so nothing else exercises them: removing or
renaming an API they import would otherwise go unnoticed.  Importing runs
their module-level code only; each script's ``main()`` sits behind a
``__main__`` guard and is not called here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
