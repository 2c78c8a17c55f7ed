"""Three short grids whose outputs ``tests/data/golden/`` pins.

The grids take the shapes of the benchmark's workloads at 2 rounds and
seed 7: ``cross-silo`` (the default config, K=5, DP, three regimes),
``cross-device`` (K=100 single-step clients on data whose groups need
opposite rules) and ``eo-multigroup`` (four groups under EO, K=10). Each
grid's ``results.csv`` and ``trace/`` go to ``<out dir>/<grid>/``, and the
machine stamp (numpy version, BLAS name and thread count) to
``<out dir>/stamp.json``.

Usage: python tests/golden_grids.py <out dir>

``tests/test_golden.py`` runs this in a fresh process and compares its
outputs with the pinned ones; running it into ``tests/data/golden``
re-pins them.
"""

from __future__ import annotations

import ctypes
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairfedsim.harness import ExperimentConfig, run

SEED = 7
ROUNDS = 2


def dirichlet_fractions(groups: tuple[str, ...], n_clients: int, concentration: float) -> dict:
    """Per-group client fractions: a Dirichlet draw with a tenth of every
    group spread evenly, so that every client holds training rows."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, 0xBE7C])))
    out = {}
    for name in groups:
        mixed = 0.9 * rng.dirichlet(np.full(n_clients, concentration)) + 0.1 / n_clients
        out[name] = tuple(float(f) for f in mixed / mixed.sum())
    return out


def grids() -> dict[str, ExperimentConfig]:
    """The three configs; their data is set after construction, and
    ``run`` checks it."""
    cross_device = ExperimentConfig(regimes=("mfairfl",), client_mode="single_step", rounds=ROUNDS, seeds=(SEED,))
    cross_device.dataset["synthetic"].update(n=6000, label_orientation_by_group=(1.0, -1.0))
    cross_device.partition = {"attribute": "group", "fractions": dirichlet_fractions(("g0", "g1"), 100, 0.5)}
    eo_multigroup = ExperimentConfig(
        regimes=("mfairfl", "fedavg_f"), constraint="eo", local_epochs=10, rounds=ROUNDS, seeds=(SEED,)
    )
    eo_multigroup.dataset["synthetic"].update(
        group_fractions=(0.4, 0.3, 0.2, 0.1), pos_rate_by_group=(0.65, 0.5, 0.4, 0.35)
    )
    groups = ("g0", "g1", "g2", "g3")
    eo_multigroup.partition = {"attribute": "group", "fractions": dirichlet_fractions(groups, 10, 1.0)}
    return {
        "cross-silo": ExperimentConfig(rounds=ROUNDS, seeds=(SEED,)),
        "cross-device": cross_device,
        "eo-multigroup": eo_multigroup,
    }


def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports (None for another BLAS,
    or where the process's mapped libraries cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libraries:
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(path), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def machine_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def main(out_dir: str) -> None:
    out = Path(out_dir)
    for name, config in grids().items():
        with tempfile.TemporaryDirectory() as tmp:
            records = run(config, tmp)
            failed = [r.error for r in records if r.error is not None]
            if failed:
                raise SystemExit(f"{name}: cells failed: {failed}")
            shutil.rmtree(out / name, ignore_errors=True)
            (out / name).mkdir(parents=True)
            shutil.copy(Path(tmp) / "results.csv", out / name / "results.csv")
            shutil.copytree(Path(tmp) / "trace", out / name / "trace")
    (out / "stamp.json").write_text(json.dumps(machine_stamp(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
