"""The golden-run gate: six short grids, run in a fresh process, must
reproduce the outputs pinned under ``tests/data/golden/`` (written by
``golden_grids.py``, with the machine stamp they were pinned on).

``results.csv`` must match exactly, except its ``config_hash`` and
``version`` columns, which have their own tests. Each trace's round index,
order, adjustment and conflict counts must match exactly, and its float
fields (losses, multipliers, global gradient norm) within a relative 1e-12.
At two OpenBLAS threads only ``results.csv`` is compared: a trace's floats
may move with the BLAS kernel's summation order.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairfedsim

HERE = Path(__file__).parent
GOLDEN = HERE / "data" / "golden"
GRIDS = ("cross-silo", "cross-device", "eo-multigroup", "ap", "alpha-zero", "other-regimes")
EXACT_TRACE_FIELDS = ("round", "order", "adjustments", "conflicts_pre", "conflicts_post")
TRACE_RTOL = 1e-12


def run_grids(out: Path, openblas_threads: int) -> str:
    """Run ``golden_grids.py`` into ``out`` in a fresh process; returns a
    note naming the machine stamps, for failure messages."""
    src = str(Path(fairfedsim.__file__).parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(openblas_threads),
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run([sys.executable, str(HERE / "golden_grids.py"), str(out)], env=env, check=True, timeout=300)
    pinned, ran = (json.loads((d / "stamp.json").read_text()) for d in (GOLDEN, out))
    return f"pinned on {pinned}, run on {ran}"


def results_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in row.items() if k not in ("config_hash", "version")} for row in csv.DictReader(fh)]


def trace_rounds(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def one_thread(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-1")
    return out, run_grids(out, openblas_threads=1)


@pytest.mark.parametrize("grid", GRIDS)
def test_results_csv_matches_golden(one_thread, grid):
    out, stamps = one_thread
    assert results_rows(out / grid / "results.csv") == results_rows(GOLDEN / grid / "results.csv"), stamps


@pytest.mark.parametrize("grid", GRIDS)
def test_traces_match_golden(one_thread, grid):
    out, stamps = one_thread
    names = sorted(p.name for p in (GOLDEN / grid / "trace").iterdir())
    assert sorted(p.name for p in (out / grid / "trace").iterdir()) == names, stamps
    for name in names:
        got, want = trace_rounds(out / grid / "trace" / name), trace_rounds(GOLDEN / grid / "trace" / name)
        assert len(got) == len(want), (name, stamps)
        for g, w in zip(got, want):
            assert g.keys() == w.keys(), (name, stamps)
            for key, expected in w.items():
                where = f"{grid}/{name} round {w['round']} {key}: {stamps}"
                if key in EXACT_TRACE_FIELDS:
                    assert g[key] == expected, where
                elif isinstance(expected, dict):
                    assert g[key].keys() == expected.keys(), where
                    np.testing.assert_allclose(list(g[key].values()), list(expected.values()), rtol=TRACE_RTOL,
                                               atol=0.0, err_msg=where)
                else:
                    np.testing.assert_allclose(g[key], expected, rtol=TRACE_RTOL, atol=0.0, err_msg=where)


def test_results_csv_matches_golden_at_two_blas_threads(tmp_path):
    stamps = run_grids(tmp_path, openblas_threads=2)
    for grid in GRIDS:
        assert results_rows(tmp_path / grid / "results.csv") == results_rows(GOLDEN / grid / "results.csv"), (
            grid, stamps)
