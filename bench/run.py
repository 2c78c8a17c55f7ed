"""fairfedsim benchmark: run one workload through ``harness.run`` and report.

    python3 bench/run.py --workload cross-silo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` pairs each untraced grid with a traced one and reports
the per-layer metrics. Metric names and units come from ``BENCHMARK.json``.
End-to-end times are scaled by the host's speed, probed while they are
measured (see ``reference.py``); the raw wall times are printed and kept
as well. BLAS and OpenMP run one thread, so the run uses one CPU.
Every line but the last is for people; the last line is the JSON result.
The run exits 1 when an output check fails and 2 when it cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# Before numpy is first imported, here or in the set-up probes: one thread
# each, so that a busy second CPU does not slow every matrix product.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_GRIDS = 3
PROBE_TIMEOUT_S = 120

# Printed for people next to the JSON metrics; failures also show in the
# result's "failed"/"attempted", the gaps vary too much from seed to seed
# to carry a bound, and raw wall times follow the host's speed (README.md).
INFO_UNITS = {
    "setup_wall_s": "s",
    "grid_wall_s": "s",
    "grid_cpu_wall_s": "s",
    "probe_s": "s",
    "failed_frac": "ratio",
    "mfairfl.fair_gap": "ratio",
    "mfairfl.cf_gap": "ratio",
}


@dataclass
class Grid:
    """One timed ``harness.run`` call and what its outputs looked like.
    The times exclude the host-speed probes; ``scaled_*`` are the times at
    the probe's nominal speed."""

    records: list
    wall_s: float
    cpu_s: float
    results_csv: bytes
    problems: list[str]
    speed: reference.HostSpeed

    @property
    def scaled_wall_s(self) -> float:
        return self.speed.scale(self.wall_s)

    @property
    def scaled_cpu_s(self) -> float:
        return self.speed.scale(self.cpu_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Import plus data building, each time in a fresh process."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_outputs(config, records, grid_dir: Path) -> list[str]:
    """Every cell present, finished, finite, with its trace and table rows."""
    problems = []
    expected = {(regime, seed) for regime in config.regimes for seed in config.seeds}
    got = {(r.regime, r.seed) for r in records}
    if got != expected:
        problems.append(f"cells {sorted(expected - got)} missing, {sorted(got - expected)} unexpected")
    for r in records:
        cell = f"{r.regime}-{r.seed}"
        if r.error is not None:
            problems.append(f"{cell} failed: {r.error}")
            continue
        if r.report is None:
            problems.append(f"{cell} has no report")
            continue
        bad = {k: v for k, v in r.report.scores().items() if not _finite(v)}
        if bad:
            problems.append(f"{cell} has non-finite scores {bad}")
        trace = Path(r.trace_path) if r.trace_path else None
        if trace is None or not trace.is_file():
            problems.append(f"{cell} has no trace file")
        elif len(trace.read_text(encoding="utf-8").splitlines()) != config.rounds:
            problems.append(f"{cell} trace does not hold {config.rounds} rounds")
    for name in ("records.json", "results.txt", "meta.json"):
        if not (grid_dir / name).is_file():
            problems.append(f"{name} missing")
    csv_path = grid_dir / "results.csv"
    if not csv_path.is_file():
        return problems + ["results.csv missing"]
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    regimes = {row.split(",")[0] for row in rows}
    if regimes != set(config.regimes):
        problems.append(f"results.csv covers regimes {sorted(regimes)}, expected {sorted(config.regimes)}")
    for row in rows:
        fields = row.split(",")
        if not all(math.isfinite(float(v)) for v in fields[2:4]):
            problems.append(f"results.csv row has non-finite values: {row}")
    return problems


def run_grid(harness, config, grid_dir: Path) -> Grid:
    """One grid timed under a ``HostSpeed``, the probes' time taken out,
    and its output checks."""
    shutil.rmtree(grid_dir, ignore_errors=True)
    with reference.HostSpeed() as speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        records = harness.run(config, str(grid_dir))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    probe_wall, probe_cpu = speed.spent()
    wall, cpu = wall - probe_wall, cpu - probe_cpu
    csv_path = grid_dir / "results.csv"
    results_csv = csv_path.read_bytes() if csv_path.is_file() else b""
    return Grid(records, wall, cpu, results_csv, check_outputs(config, records, grid_dir), speed)


def warm_up(harness, config, out_dir: Path) -> None:
    """An untimed one-round grid of the same shapes, so that lazy set-up
    (first calls, allocator pools) is over before timing."""
    harness.run(replace(config, rounds=1, local_epochs=1), str(out_dir / "warm-up"))
    reference.work()


def keep_going(count: int, minimum: int, started: float, last_s: float, seconds: float) -> bool:
    """Another measurement fits in the run, or too few were taken yet."""
    return count < minimum or time.perf_counter() - started + last_s <= seconds


def quality(config, records) -> dict[str, float]:
    """Means over the mfairfl cells of accuracy, the constraint's own
    test violation (DP or EO, worst attribute) and client fairness."""
    reports = [r.report for r in records if r.regime == "mfairfl" and r.report is not None]
    if not reports:
        return {}
    gaps = [max((rep.dp if config.constraint == "dp" else rep.eo).values()) for rep in reports]
    return {
        "mfairfl.test_acc": statistics.fmean(rep.accuracy for rep in reports),
        "mfairfl.fair_gap": statistics.fmean(gaps),
        "mfairfl.cf_gap": statistics.fmean(rep.cf for rep in reports),
    }


def tally(grids: list[Grid]) -> tuple[int, int]:
    """Cells attempted and cells failed over all grids of the run."""
    records = [r for g in grids for r in g.records]
    return len(records), sum(1 for r in records if r.error is not None)


def end_to_end(harness, config, out_dir: Path, seconds: float):
    warm_up(harness, config, out_dir)
    grids: list[Grid] = []
    started = time.perf_counter()
    while keep_going(len(grids), MIN_GRIDS, started, grids[-1].wall_s if grids else 0.0, seconds):
        grids.append(run_grid(harness, config, out_dir / "grid"))
    problems = [p for g in grids for p in g.problems]
    if len({g.results_csv for g in grids}) != 1:
        problems.append("results.csv differs between repeated grids of the same seed")
    attempted, failed = tally(grids)
    values = {
        "grid_s": statistics.median(g.scaled_wall_s for g in grids),
        "grid_cpu_s": statistics.median(g.scaled_cpu_s for g in grids),
        "grid_wall_s": statistics.median(g.wall_s for g in grids),
        "grid_cpu_wall_s": statistics.median(g.cpu_s for g in grids),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        **quality(config, grids[0].records),
    }
    samples = {
        "grid_wall_s": [g.wall_s for g in grids],
        "grid_cpu_wall_s": [g.cpu_s for g in grids],
        "probe_s": [g.speed.probe_s() for g in grids],
        "probes": [len(g.speed.wall) for g in grids],
    }
    return values, samples, attempted, failed, problems


def per_layer(harness, config, out_dir: Path, seconds: float):
    import tracer as tracing

    pairs: list[tuple[Grid, Grid]] = []
    layers: list[dict] = []
    warm_up(harness, config, out_dir)
    started = time.perf_counter()
    while keep_going(len(pairs), 1, started, sum(g.wall_s for g in pairs[-1]) if pairs else 0.0, seconds):
        plain = run_grid(harness, config, out_dir / "grid-untraced")
        tracer = tracing.Tracer()
        with tracing.install(tracer) as missing:
            traced = run_grid(harness, config, out_dir / "grid-traced")
        tracing.write_spans(tracer, out_dir / "spans.jsonl", len(pairs))
        metrics, tails = tracing.layer_metrics(tracer)
        pairs.append((plain, traced))
        layers.append(metrics)
    grids = [g for pair in pairs for g in pair]
    problems = [p for g in grids for p in g.problems]
    if any(plain.results_csv != traced.results_csv for plain, traced in pairs):
        problems.append("tracing changed results.csv")
    attempted, failed = tally(grids)
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(
        traced.scaled_wall_s - plain.scaled_wall_s for plain, traced in pairs
    )
    samples = {
        "grid_wall_s_untraced": [plain.wall_s for plain, _ in pairs],
        "grid_wall_s_traced": [traced.wall_s for _, traced in pairs],
        "probe_s": [g.speed.probe_s() for g in grids],
        "tail_samples": tails,
        "missing_hooks": missing,
    }
    return values, samples, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairfedsim" / "__init__.py").is_file():
        print(f"error: no fairfedsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fairfedsim
    from fairfedsim import harness

    if not Path(fairfedsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: fairfedsim imported from {fairfedsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from stamp import machine_stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    config = WORKLOADS[args.workload](args.seed)
    probes = setup_probes(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    values, samples, attempted, failed, problems = measure(harness, config, out_dir, args.seconds)
    if args.trace:
        values["harness.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["data.build_s"] = statistics.median(p["build_s"] for p in probes)
    else:
        setup = [(p["import_s"] + p["build_s"]) * reference.NOMINAL_S / p["probe_s"] for p in probes]
        values["setup_s"] = statistics.median(setup)
        values["setup_wall_s"] = statistics.median(p["import_s"] + p["build_s"] for p in probes)
        values["probe_s"] = statistics.median(samples["probe_s"])

    unmeasured = sorted({m["name"] for m in wanted} - set(values))
    if unmeasured:
        problems.append(f"metrics not measured: {unmeasured}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    stamp = machine_stamp(ROOT, SRC)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": config.to_json(),
        "machine": stamp,
        "metrics": metrics,
        "info": {name: values[name] for name in INFO_UNITS if name in values},
        "samples": samples,
        "setup_probes": probes,
        "problems": problems,
    }
    (out_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    blas = stamp["blas"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cells {attempted}  failed {failed}")
    print(f"machine  {stamp['cpu_count']} CPUs  {blas['name']} {blas['version']} "
          f"({blas['threads']} threads)  python {stamp['python']}  numpy {stamp['numpy']}  "
          f"scipy {stamp['scipy']}  commit {stamp['git_commit']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    for name, unit in INFO_UNITS.items():
        if name in values:
            print(f"  {name:34s} {values[name]:14.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"details in {out_dir / 'result.json'}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
