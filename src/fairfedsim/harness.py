"""Experiment runner: config, multi-seed execution, reporting, t-tests.

A run is a grid of (regime, seed) cells. Each cell builds its data
deterministically from the seed, trains, and evaluates one FairnessReport.
Outputs: ``results.csv`` and ``results.txt`` (aggregated, byte-stable
across reruns), ``records.json`` (per-cell reports and provenance, a failed cell's
traceback), ``trace/<regime>-<seed>.jsonl`` (per-round records), and
``meta.json`` (timestamps, each cell's wall time and its client-phase and
server-phase seconds, kept out of the deterministic files).

``ExperimentConfig`` inherits the training hyperparameters and their checks
from ``baselines.Hyperparameters`` and adds its own fields' checks to
``check()``, which runs when the config is built and again when ``run``
starts, so a config that no cell can run, even one edited after it was
built, fails before the grid starts. For both dataset kinds, synthetic and
CSV, the check is the data stage itself: it builds the data once, at seed
0, and refuses the config if that build fails or leaves a client without
training rows. One seed decides for all, because the seed only permutes
rows: the group counts, the labels per group, each stratum's test count
and the shard counts are all functions of the config alone (a CSV file is
loaded without the seed). So building or running a CSV config reads its
file.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import client as client_mod
from . import data as data_mod
from . import fairness
from .baselines import CLIENT_FAIRNESS_REGIMES, REGIMES, Hyperparameters, TrainConfig, TrainResult, train
from .data import Dataset, DatasetSchema, PartitionSpec, Shard
from .fairness import FairnessReport

CLIENT_MODES = ("local_epochs", "single_step")  # single_step is local_epochs with E = 1
REFERENCE_REGIME = "mfairfl"  # the regime the report's t-tests compare against
BETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
DELTA_GRID = (0.001, 0.01, 0.1)

HIGH_HETEROGENEITY = {"g0": (0.5, 0.1, 0.1, 0.2, 0.1), "g1": (0.1, 0.4, 0.3, 0.1, 0.1)}


@dataclass
class ExperimentConfig(Hyperparameters):
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
    test_fraction: float = 0.2
    client_mode: str = "local_epochs"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    threads: int = 1  # cells run one after another in this process

    def __post_init__(self):
        self.regimes = tuple(str(r) for r in self.regimes)
        self.seeds = tuple(int(s) for s in self.seeds)
        super().__post_init__()  # runs check()
        if self.beta not in BETA_GRID and self.beta != 0.0:
            warnings.warn(f"beta={self.beta} is outside the default grid {BETA_GRID}", stacklevel=2)
        if self.delta not in DELTA_GRID and self.delta != 0.0:
            warnings.warn(f"delta={self.delta} is outside the default grid {DELTA_GRID}", stacklevel=2)

    def check(self) -> None:
        super().check()
        for r in self.regimes:
            if r not in REGIMES:
                raise ValueError(f"unknown regime {r!r}; one of {tuple(REGIMES)}")
        for name in ("regimes", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name}={values} repeats a value: its cells would share one trace file")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if self.client_mode not in CLIENT_MODES:
            raise ValueError(f"unknown client mode {self.client_mode!r}; one of {CLIENT_MODES}")
        if self.threads != 1:
            raise ValueError(f"threads={self.threads}: cells run sequentially, threads must be 1")
        _check_data(self)  # last: the build reads the fields checked above

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
        """Stable digest of the experiment content (the ``threads`` field
        does not change results)."""
        content = {k: v for k, v in self.to_json().items() if k != "threads"}
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def train_config(self, seed: int) -> TrainConfig:
        values = {f.name: getattr(self, f.name) for f in fields(Hyperparameters)}
        if self.client_mode == "single_step":
            values["local_epochs"] = 1
        return TrainConfig(**values, seed=seed)


def _check_data(config: ExperimentConfig) -> None:
    """Refuse a dataset or partition that no cell can run. The data is
    built once, at seed 0, through the cells' own data stage, and every
    training shard must hold rows; the seed only permutes rows, so every
    size the build can fail on is the same at every seed (module
    docstring). A CSV config's file is read here, so a missing or
    malformed file is refused too."""
    try:
        for shard in build_data(config, 0).shards:
            client_mod._check_shard(shard)
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"dataset and partition: no cell can run: {exc}") from None


@dataclass
class PreparedData:
    train: Dataset
    test: Dataset
    shards: list[Shard]
    test_shards: list[Shard]


def build_data(config: ExperimentConfig, seed: int) -> PreparedData:
    """Deterministic data pipeline for one cell: load/generate, stratified
    split, z-score by train statistics, partition both splits."""
    if set(config.dataset) == {"synthetic"}:
        ds = data_mod.synthetic_dataset(seed=seed, **config.dataset["synthetic"])
    elif set(config.dataset) == {"csv", "schema"}:
        ds = data_mod.load_csv(config.dataset["csv"], DatasetSchema.load(config.dataset["schema"]))
    else:
        raise ValueError(f"dataset must hold 'synthetic' or 'csv' and 'schema', not {sorted(config.dataset)}")
    train_ds, test_ds = data_mod.split_train_test(ds, config.test_fraction, seed)
    train_ds, test_ds = data_mod.standardize(train_ds, test_ds)
    spec = PartitionSpec.from_json(config.partition)
    shards = data_mod.partition(train_ds, spec, seed)
    test_shards = data_mod.partition(test_ds, spec, seed + 1_000_003)
    return PreparedData(train_ds, test_ds, shards, test_shards)


def evaluate_run(result: TrainResult, regime: str, prepared: PreparedData) -> FairnessReport:
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
    phase_times: Optional[dict] = None  # {"client_s", "server_s"}; meta.json only

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


def run_cell(config: ExperimentConfig, regime: str, seed: int, out_dir: Path) -> RunRecord:
    started = time.perf_counter()
    chash = config.config_hash()
    try:
        prepared = build_data(config, seed)
        result = train(regime, prepared.shards, config.train_config(seed))
        report = evaluate_run(result, regime, prepared)
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{regime}-{seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as fh:
            for rec in result.rounds:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
        return RunRecord(chash, regime, seed, report, str(trace_file), time.perf_counter() - started,
                         phase_times={"client_s": result.client_s, "server_s": result.server_s})
    except Exception as exc:  # cell failures are recorded, the grid continues
        return RunRecord(chash, regime, seed, None, "", time.perf_counter() - started,
                         error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())


def run(config: ExperimentConfig, out_dir: str | Path) -> list[RunRecord]:
    """Execute the full (regime, seed) grid into ``out_dir``; one record per
    cell. A config that fails ``check()``, edited since it was built, or an
    empty grid (no seeds or no regimes) is refused before any file is written."""
    config.check()
    if not config.seeds or not config.regimes:
        raise ValueError(f"empty grid: regimes={config.regimes}, seeds={config.seeds}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    records = [run_cell(config, regime, seed, out_path) for regime in config.regimes for seed in config.seeds]

    with open(out_path / "records.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_json() for r in records], fh, indent=2, sort_keys=True)
    write_report(records, out_path)
    meta = {
        "created_unix": time.time(),
        "version": __version__,
        "config_hash": config.config_hash(),
        "config": config.to_json(),
        "wall_times": {f"{r.regime}-{r.seed}": r.wall_time for r in records},
        "phase_times": {f"{r.regime}-{r.seed}": r.phase_times for r in records if r.phase_times},
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

    With n pairs, nu = n - 1 degrees of freedom and statistic t, the
    p-value 2 P(T_nu > |t|) is the regularized incomplete beta function
    I_x(nu/2, 1/2) at x = nu / (nu + t^2) (``_t_test_p``).

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
    p = _t_test_p(t, d.size - 1)
    return TTestResult(t, p, p < 0.05, "")


def _t_test_p(t: float, df: int) -> float:
    """Two-sided p-value of Student's t: I_x(df/2, 1/2), x = df / (df + t^2).

    x and 1 - x are passed as logarithms, taken from s = |t| / sqrt(df)
    without forming t^2 or 1 - x: t^2 overflows past |t| = 1e154, and
    1 - x rounds to 0 for |t| near 0.
    """
    s = abs(t) / math.sqrt(df)
    if s == 0.0:
        return 1.0
    if s > 1.0:  # x = 1 / (1 + s^2), 1 - x = 1 / (1 + 1/s^2)
        log_1mx = -math.log1p(1.0 / s / s)
        log_x = log_1mx - 2.0 * math.log(s)
    else:
        log_x = -math.log1p(s * s)
        log_1mx = log_x + 2.0 * math.log(s)
    return _incomplete_beta(df / 2.0, 0.5, log_x, log_1mx)


def _incomplete_beta(a: float, b: float, log_x: float, log_1mx: float) -> float:
    """Regularized incomplete beta I_x(a, b), from ln x and ln(1 - x).

    The continued fraction of Numerical Recipes (section 6.4) converges
    fast for x < (a + 1) / (a + b + 2); above that,
    I_x(a, b) = 1 - I_{1-x}(b, a), whose x is below the other bound.
    """
    x = math.exp(log_x)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, log_1mx, log_x)
    log_front = a * log_x + b * log_1mx - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return math.exp(log_front) * _beta_fraction(a, b, x) / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The incomplete beta continued fraction by Lentz's method, with its
    denominators kept off 0 (Numerical Recipes' ``betacf``)."""
    tiny = 1e-300

    def off_zero(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / off_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coef in (even, odd):
            d = 1.0 / off_zero(1.0 + coef * d)
            c = off_zero(1.0 + coef / c)
            h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


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


def write_report(records: Sequence[RunRecord], out_dir: Path, reference: str = REFERENCE_REGIME) -> None:
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
