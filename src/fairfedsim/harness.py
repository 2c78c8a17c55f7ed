"""Experiment runner: config, multi-seed execution, reporting, t-tests.

A run is a grid of (regime, seed) cells. Each cell builds its data
deterministically from the seed, trains, and evaluates one FairnessReport.
Outputs: ``results.csv`` and ``results.txt`` (aggregated, byte-stable
across reruns), ``records.json`` (per-cell reports and provenance, a failed cell's
traceback), ``trace/<regime>-<seed>.jsonl`` (per-round records), and
``meta.json`` (timestamps and wall times, kept out of the deterministic
files).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy import stats as scipy_stats

from . import __version__
from . import client as client_mod
from . import data as data_mod
from . import fairness
from .baselines import CLIENT_FAIRNESS_REGIMES, RegimeId, TrainConfig, TrainResult, train
from .data import Dataset, DatasetSchema, PartitionSpec, Shard
from .fairness import FairnessReport

CLIENT_MODES = ("local_epochs", "single_step")  # single_step is local_epochs with E = 1
BETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
DELTA_GRID = (0.001, 0.01, 0.1)

HIGH_HETEROGENEITY = {"g0": (0.5, 0.1, 0.1, 0.2, 0.1), "g1": (0.1, 0.4, 0.3, 0.1, 0.1)}
LOW_HETEROGENEITY = {"g0": (0.3, 0.3, 0.2, 0.1, 0.1), "g1": (0.1, 0.2, 0.2, 0.2, 0.3)}


@dataclass
class ExperimentConfig:
    dataset: dict = field(
        default_factory=lambda: {
            "synthetic": {
                "n": 2400,
                "input_dim": 8,
                "group_fractions": (0.5, 0.5),
                "pos_rate_by_group": (0.65, 0.35),
                "label_shift": 1.6,
                "group_shift": 1.0,
                "noise": 1.0,
            }
        }
    )
    partition: dict = field(
        default_factory=lambda: {"attribute": "group", "fractions": dict(HIGH_HETEROGENEITY)}
    )
    regimes: tuple[str, ...] = ("mfairfl", "fedavg", "fedavg_f")
    rounds: int = 10
    local_epochs: int = 20
    eta: float = 0.05
    gamma: float = 0.5
    alpha: float = 0.05
    beta: float = 0.6
    delta: float = 0.01
    constraint: str = "dp"
    hidden_dims: tuple[int, ...] = (32, 32, 32, 32)
    test_fraction: float = 0.2
    client_mode: str = "local_epochs"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    out: str = "results"
    threads: int = 1  # cells run one after another in this process
    reference_regime: str = "mfairfl"

    def __post_init__(self):
        self.regimes = tuple(str(r) for r in self.regimes)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        for r in self.regimes:
            RegimeId(r)  # raises on unknown regime
        if self.client_mode not in CLIENT_MODES:
            raise ValueError(f"unknown client mode {self.client_mode!r}; one of {CLIENT_MODES}")
        if self.threads != 1:
            raise ValueError(f"threads={self.threads}: cells run sequentially, threads must be 1")
        if self.beta not in BETA_GRID and self.beta != 0.0:
            warnings.warn(f"beta={self.beta} is outside the default grid {BETA_GRID}", stacklevel=2)
        if self.delta not in DELTA_GRID and self.delta != 0.0:
            warnings.warn(f"delta={self.delta} is outside the default grid {DELTA_GRID}", stacklevel=2)

    def to_json(self) -> dict:
        return asdict(self)  # json writes the tuples as lists

    @classmethod
    def from_json(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)  # an unknown key is a TypeError; __post_init__ makes the tuples

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def config_hash(self) -> str:
        """Stable digest of the experiment content (the output directory and
        the ``threads`` field do not change results)."""
        content = {k: v for k, v in self.to_json().items() if k not in ("out", "threads")}
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            hidden_dims=self.hidden_dims,
            rounds=self.rounds,
            local_epochs=1 if self.client_mode == "single_step" else self.local_epochs,
            eta=self.eta,
            gamma=self.gamma,
            alpha=self.alpha,
            beta=self.beta,
            delta=self.delta,
            constraint=self.constraint,
            seed=seed,
        )


@dataclass
class PreparedData:
    train: Dataset
    test: Dataset
    shards: list[Shard]
    test_shards: list[Shard]


def build_data(config: ExperimentConfig, seed: int) -> PreparedData:
    """Deterministic data pipeline for one cell: load/generate, stratified
    split, z-score by train statistics, partition both splits."""
    if "synthetic" in config.dataset:
        ds = data_mod.synthetic_dataset(seed=seed, **config.dataset["synthetic"])
    else:
        schema_ref = config.dataset["schema"]
        schema = (
            DatasetSchema.builtin(schema_ref)
            if not str(schema_ref).endswith(".json")
            else DatasetSchema.from_file(schema_ref)
        )
        ds = data_mod.load_csv(config.dataset["csv"], schema)
    train_ds, test_ds = data_mod.split_train_test(ds, config.test_fraction, seed)
    train_ds, test_ds = data_mod.standardize(train_ds, test_ds)
    spec = PartitionSpec.from_json(config.partition)
    shards = data_mod.partition(train_ds, spec, seed)
    test_shards = data_mod.partition(test_ds, spec, seed + 1_000_003)
    return PreparedData(train_ds, test_ds, shards, test_shards)


def evaluate_run(result: TrainResult, regime: RegimeId, prepared: PreparedData) -> FairnessReport:
    test = prepared.test
    probs = result.model.predict_proba(test.X)
    per_client_acc = None
    if regime in CLIENT_FAIRNESS_REGIMES:
        params = result.model.single_params()
        per_client_acc = [
            client_mod.local_accuracy(params, s) for s in prepared.test_shards if len(s) > 0
        ]
    return fairness.evaluate_predictions(
        probs, test.y, test.S, test.attr_names, test.group_names, per_client_acc
    )


@dataclass
class RunRecord:
    config_hash: str
    regime: str
    seed: int
    report: Optional[FairnessReport]
    trace_path: str = ""
    wall_time: float = 0.0
    error: Optional[str] = None
    traceback: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "regime": self.regime,
            "seed": self.seed,
            "report": None if self.report is None else self.report.to_json(),
            "trace_path": self.trace_path,
            "error": self.error,
            "traceback": self.traceback,
            "version": __version__,
        }

    @classmethod
    def from_json(cls, d: dict) -> "RunRecord":
        report = None if d.get("report") is None else FairnessReport.from_json(d["report"])
        return cls(d["config_hash"], d["regime"], d["seed"], report, d.get("trace_path", ""),
                   error=d.get("error"), traceback=d.get("traceback"))


def run_cell(config: ExperimentConfig, regime: str, seed: int, out_dir: Optional[Path]) -> RunRecord:
    started = time.perf_counter()
    chash = config.config_hash()
    try:
        prepared = build_data(config, seed)
        result = train(regime, prepared.shards, config.train_config(seed))
        report = evaluate_run(result, RegimeId(regime), prepared)
        trace_path = ""
        if out_dir is not None:
            trace_dir = out_dir / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"{regime}-{seed}.jsonl"
            with open(trace_file, "w", encoding="utf-8") as fh:
                for rec in result.rounds:
                    fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
            trace_path = str(trace_file)
        return RunRecord(chash, regime, seed, report, trace_path, time.perf_counter() - started)
    except Exception as exc:  # cell failures are recorded, the grid continues
        return RunRecord(chash, regime, seed, None, "", time.perf_counter() - started,
                         error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())


def run(config: ExperimentConfig, out_dir: Optional[str] = None) -> list[RunRecord]:
    """Execute the full (regime, seed) grid; one record per cell."""
    out_path = Path(out_dir if out_dir is not None else config.out)
    out_path.mkdir(parents=True, exist_ok=True)
    records = [run_cell(config, regime, seed, out_path) for regime in config.regimes for seed in config.seeds]

    with open(out_path / "records.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_json() for r in records], fh, indent=2, sort_keys=True)
    write_report(records, out_path, config.reference_regime)
    meta = {
        "created_unix": time.time(),
        "version": __version__,
        "config_hash": config.config_hash(),
        "config": config.to_json(),
        "wall_times": {f"{r.regime}-{r.seed}": r.wall_time for r in records},
        "completed": sum(1 for r in records if r.error is None),
        "failed": sum(1 for r in records if r.error is not None),
    }
    with open(out_path / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return records


# ---------------------------------------------------------------------------
# Significance testing and tables
# ---------------------------------------------------------------------------


@dataclass
class TTestResult:
    t: float
    p: float
    significant: bool
    note: str = ""


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired Student t-test at the 95% level.

    Zero-variance differences cannot produce a t statistic: identical
    vectors report "degenerate: identical" (not significant); a nonzero
    constant shift is flagged significant by the constant-shift rule.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    if a.size < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    # zero variance up to rounding: a constant shift (or identical vectors)
    if sd == 0.0 or sd <= abs(mean) * 1e-12:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, False, "degenerate: identical")
        return TTestResult(math.copysign(math.inf, mean), 0.0, True, "constant shift")
    t = mean / (sd / math.sqrt(d.size))
    p = 2.0 * float(scipy_stats.t.sf(abs(t), d.size - 1))
    return TTestResult(t, p, p < 0.05, "")


def _metric_columns(records: Sequence[RunRecord]) -> list[str]:
    for r in records:
        if r.report is not None:
            return list(r.report.scores().keys())
    return []


def _collect(records: Sequence[RunRecord]) -> dict[str, dict[str, list[float]]]:
    """regime -> metric -> per-seed values (seed-sorted)."""
    grid: dict[str, dict[int, FairnessReport]] = {}
    for r in records:
        if r.report is not None:
            grid.setdefault(r.regime, {})[r.seed] = r.report
    out: dict[str, dict[str, list[float]]] = {}
    for regime, by_seed in grid.items():
        metrics: dict[str, list[float]] = {}
        for seed in sorted(by_seed):
            for name, value in by_seed[seed].scores().items():
                metrics.setdefault(name, []).append(value)
        out[regime] = metrics
    return out


def write_report(records: Sequence[RunRecord], out_dir: Path, reference: str = "mfairfl") -> None:
    """Aggregated CSV and pretty text table, byte-stable across reruns.

    Each (regime, metric) cell's mean, std and paired t-test against the
    reference are computed once; both files render from them.
    """
    out_dir = Path(out_dir)
    table = _collect(records)
    metrics = _metric_columns(records)
    regimes = sorted(table)
    ref = reference if reference in table else (regimes[0] if regimes else "")
    chash = records[0].config_hash if records else ""

    cells: dict[tuple[str, str], tuple[float, float, int, Optional[TTestResult]]] = {}
    for regime in regimes:
        for metric in metrics:
            values = table[regime].get(metric)
            if not values:
                continue
            ref_vals = table.get(ref, {}).get(metric)
            test = None
            if regime != ref and ref_vals is not None and len(ref_vals) == len(values) >= 2:
                test = paired_ttest(ref_vals, values)
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            cells[regime, metric] = (float(np.mean(values)), std, len(values), test)

    csv_lines = ["regime,metric,mean,std,n,t_vs_ref,p_vs_ref,significant,config_hash,version"]
    for (regime, metric), (mean, std, n, test) in cells.items():
        t_s = p_s = sig = ""
        if test is not None:
            t_s = "inf" if math.isinf(test.t) else f"{test.t:.6g}"
            p_s = f"{test.p:.6g}"
            sig = "1" if test.significant else "0"
        csv_lines.append(f"{regime},{metric},{mean:.6g},{std:.6g},{n},{t_s},{p_s},{sig},{chash},{__version__}")
    (out_dir / "results.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    width = max([len(m) for m in metrics], default=8) + 2
    lines = [f"regimes vs reference '{ref}' ('*' = significant at 95%, paired t-test by seed)"]
    header = "regime".ljust(14) + "".join(m.ljust(width + 8) for m in metrics)
    lines.append(header)
    lines.append("-" * len(header))
    for regime in regimes:
        row = [regime.ljust(14)]
        for metric in metrics:
            if (regime, metric) not in cells:
                row.append("-".ljust(width + 8))
                continue
            mean, std, n, test = cells[regime, metric]
            text = f"{mean:.3f}±{std:.3f}" if n > 1 else f"{mean:.3f}"
            if test is not None and test.significant:
                text += "*"
            row.append(text.ljust(width + 8))
        lines.append("".join(row))
    failures = [r for r in records if r.error is not None]
    if failures:
        lines.append("")
        lines.append("failed cells:")
        for r in sorted(failures, key=lambda r: (r.regime, r.seed)):
            lines.append(f"  {r.regime}-{r.seed}: {r.error}")
    (out_dir / "results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_records(path: str) -> list[RunRecord]:
    with open(Path(path) / "records.json", "r", encoding="utf-8") as fh:
        return [RunRecord.from_json(d) for d in json.load(fh)]
