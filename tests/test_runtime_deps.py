"""The package runs without scipy, which only the tests and the bench use."""

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


def test_grid_and_verify_run_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("ok")
