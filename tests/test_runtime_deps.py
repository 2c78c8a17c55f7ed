"""The package runs without scipy, which only the tests and the bench use,
and importing the harness loads only what a grid runs on."""

import os
import subprocess
import sys
from pathlib import Path

import fairfedsim

SRC = Path(fairfedsim.__file__).resolve().parent.parent

# scipy is made unimportable before anything else is imported, so an import
# of it at any depth, top level or inside a function, raises ImportError
SCRIPT = """
import sys
sys.modules["scipy"] = None

from dataclasses import replace
from pathlib import Path

from fairfedsim import aggregation, harness
from fairfedsim.cli import main

out = Path(sys.argv[1])
calls = {"paired_ttest": 0, "_coordinates": 0}

def counted(module, name):
    inner = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    setattr(module, name, wrapper)

counted(harness, "paired_ttest")
counted(aggregation, "_coordinates")
config = replace(harness.ExperimentConfig(), regimes=("mfairfl", "fedavg"), seeds=(1, 2), rounds=1,
                 local_epochs=1, hidden_dims=(8, 8))
config.dataset["synthetic"]["n"] = 300
records = harness.run(config, str(out / "grid"))
assert [r.error for r in records] == [None] * 4, [r.error for r in records]
assert calls["paired_ttest"] > 0 and calls["_coordinates"] > 0, calls
assert main(["verify", "--instances", "1", "--out", str(out / "verify")]) == 0
print("ok")
"""


def run_fresh(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports the package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, check=False
    )


def test_grid_and_verify_run_without_scipy(tmp_path):
    done = run_fresh("-c", SCRIPT, str(tmp_path), timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("ok")


def test_harness_import_loads_neither_oracles_nor_cli():
    """The package root re-exports nothing, so importing the harness loads
    only the modules a grid runs on: the set-up time covers no more."""
    script = "import sys, fairfedsim.harness\nprint(*(m for m in sys.modules if 'fairfedsim' in m))"
    done = run_fresh("-c", script, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "fairfedsim.harness" in loaded
    assert "fairfedsim.oracles" not in loaded and "fairfedsim.cli" not in loaded, loaded
