"""Checks on the benchmark itself.

The traced counts below have closed forms in the workload's config. Their
equality shows that each wrapper sits where the caller looks the name up:
a wrapper on the wrong module attribute would count nothing. Rounds and
epochs are cut down to keep the suite fast; the closed forms scale with
them.
"""

import math
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from fairfedsim import harness  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(config, out_dir):
    tracer = tracing.Tracer()
    with tracing.install(tracer) as missing:
        records = harness.run(config, str(out_dir))
    assert missing == []
    assert [r.error for r in records] == [None] * len(records)
    return tracing.layer_metrics(tracer)[0]


def n_clients(config) -> int:
    return len(next(iter(config.partition["fractions"].values())))


def test_client_steps_closed_form(tmp_path):
    config = replace(WORKLOADS["cross-silo"](1), rounds=2, local_epochs=3)
    metrics = traced(config, tmp_path)
    # rounds * K * E per cell: 2 * 5 * 3 for each of the 3 regimes
    expected = len(config.regimes) * config.rounds * n_clients(config) * config.local_epochs
    assert metrics["client.steps"] == expected == 90


def test_pair_tests_closed_form(tmp_path):
    config = replace(WORKLOADS["cross-device"](3), rounds=1)
    metrics = traced(config, tmp_path)
    K = n_clients(config)
    # one mfairfl cell: rounds * ceil(beta * K) selected clients * (K - 1) targets
    assert metrics["aggregation.pair_tests"] == config.rounds * math.ceil(config.beta * K) * (K - 1) == 5940
    assert metrics["client.steps"] == config.rounds * K


@pytest.mark.parametrize("workload", ["cross-silo", "eo-multigroup"])
def test_backward_per_step_closed_form(tmp_path, workload):
    config = replace(WORKLOADS[workload](2), rounds=1, local_epochs=2)
    metrics = traced(config, tmp_path)
    # one loss backward plus one per constraint key with support on the
    # shard: (group) cells for DP, (group, label) cells for EO
    shards = harness.build_data(config, config.seeds[0]).shards
    keys = [
        len({(g, y if config.constraint == "eo" else None) for g, y in zip(s.S[:, 0], s.y)})
        for s in shards
    ]
    assert metrics["model.backward_per_step"] == pytest.approx(1 + sum(keys) / len(keys), rel=1e-12)
    if workload == "cross-silo":
        assert metrics["model.backward_per_step"] == 3


def test_tracing_leaves_results_and_modules_unchanged(tmp_path):
    from fairfedsim import baselines, client

    config = replace(WORKLOADS["eo-multigroup"](4), rounds=2, local_epochs=2)
    originals = (harness.train, baselines.server_round, client.compute_statistics)
    harness.run(config, str(tmp_path / "plain"))
    traced(config, tmp_path / "traced")
    assert (harness.train, baselines.server_round, client.compute_statistics) == originals
    plain_csv = (tmp_path / "plain" / "results.csv").read_bytes()
    assert plain_csv == (tmp_path / "traced" / "results.csv").read_bytes()


def test_host_speed_probes_leave_results_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "PERIOD_S", 0.01)  # probes fire in a short grid too
    config = replace(WORKLOADS["cross-silo"](5), rounds=3, local_epochs=4)
    harness.run(config, str(tmp_path / "plain"))
    with reference.HostSpeed() as speed:
        harness.run(config, str(tmp_path / "probed"))
    assert speed.wall, "no probe fired during the grid"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    plain_csv = (tmp_path / "plain" / "results.csv").read_bytes()
    assert plain_csv == (tmp_path / "probed" / "results.csv").read_bytes()


def test_scaled_time_is_at_nominal_probe_speed():
    speed = reference.HostSpeed()
    speed.wall = [2 * reference.NOMINAL_S, 2 * reference.NOMINAL_S]
    assert speed.scale(10.0) == pytest.approx(5.0)
    assert reference.HostSpeed().probe_s() > 0  # no probe fired: one is taken after


def test_every_client_holds_data():
    for name, build in WORKLOADS.items():
        for seed in (1, 2, 3):
            shards = harness.build_data(build(seed), seed).shards
            assert min(len(s) for s in shards) > 0, (name, seed)


@pytest.mark.parametrize("n, q", [(5, 50), (20, 50), (30, 66), (100, 90), (150, 90)])
def test_tail_percentile_leaves_ten_samples(n, q):
    assert tracing.tail_percentile(n) == q


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cross-silo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
