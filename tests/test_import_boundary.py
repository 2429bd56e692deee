"""Cold set-up loads only what the run uses.

A kernel run never samples, so importing the package and running a kernel
scenario must load neither numpy (imported only by ``make_rng``) nor the
process pool (imported only by ``run_sweep``'s parallel branch).  A serving
run samples request sizes, so it does load numpy: the lazy import works.
The check runs in a fresh interpreter, since the test session itself has
long since imported both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import repro, repro.api, repro.cli
from repro.api import Scenario
from repro.config.scale import ScaleTier
from repro.serve.scenario import ServeScenario

HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

Scenario(workload="llama3-70b", seq_len=256, tier=ScaleTier.SMOKE).run()
print("kernel", *sorted(m for m in HEAVY if m in sys.modules))
ServeScenario(workload="llama3-70b", tier=ScaleTier.SMOKE, num_requests=8, max_batch=2).run()
print("serve", *sorted(m for m in HEAVY if m in sys.modules))
"""


def test_kernel_run_loads_no_numpy_and_no_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == "kernel"
    assert out[1] == "serve numpy"
