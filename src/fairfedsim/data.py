"""Tabular dataset ingestion, preprocessing, and non-iid partitioning.

CSV files are parsed header-keyed (RFC-4180 via the csv module), numeric
columns are z-scored with training-split statistics, categoricals are
one-hot encoded in a frozen order, and sensitive columns map to integer
group codes (optionally through value bins such as age ranges). Shards are
produced by per-group ratio lists with largest-remainder rounding so the
counts are conserved exactly.

Schema files for the Adult/COMPAS/Bank benchmarks ship under
``fairfedsim/schemas``; the CSVs themselves are fetched by the user. The
``synthetic_dataset`` generator covers every test and demo without
downloads.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .numeric import make_rng

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("", "?", "NA", "N/A")


@dataclass(frozen=True)
class BinRule:
    """Half-open numeric bin [lo, hi] (inclusive bounds) mapped to a name."""

    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class SensitiveSpec:
    """A sensitive column: either categorical (with optional frozen domain)
    or numeric with bins; values outside all bins fall into ``rest_name``."""

    column: str
    categories: Optional[tuple[str, ...]] = None
    bins: Optional[tuple[BinRule, ...]] = None
    rest_name: str = "other"

    def group_of(self, raw: str) -> str:
        if self.bins is not None:
            v = float(raw)
            for b in self.bins:
                if b.lo <= v <= b.hi:
                    return b.name
            return self.rest_name
        return raw

    def domain(self) -> Optional[tuple[str, ...]]:
        if self.bins is not None:
            return tuple(b.name for b in self.bins) + (self.rest_name,)
        return self.categories


@dataclass
class DatasetSchema:
    name: str
    numeric_features: tuple[str, ...]
    categorical_features: dict[str, Optional[tuple[str, ...]]]
    sensitive: tuple[SensitiveSpec, ...]
    label: str
    positive_values: tuple[str, ...]

    def required_columns(self) -> list[str]:
        cols = list(self.numeric_features) + list(self.categorical_features)
        cols += [s.column for s in self.sensitive]
        cols.append(self.label)
        return cols

    @classmethod
    def from_json(cls, d: dict) -> "DatasetSchema":
        sens = []
        for s in d["sensitive"]:
            bins = None
            if s.get("bins"):
                bins = tuple(BinRule(b["name"], float(b["lo"]), float(b["hi"])) for b in s["bins"])
            cats = tuple(s["categories"]) if s.get("categories") else None
            sens.append(SensitiveSpec(s["column"], cats, bins, s.get("rest_name", "other")))
        return cls(
            name=d["name"],
            numeric_features=tuple(d.get("numeric_features", ())),
            categorical_features={
                c["column"]: (tuple(c["categories"]) if c.get("categories") else None)
                for c in d.get("categorical_features", ())
            },
            sensitive=tuple(sens),
            label=d["label"],
            positive_values=tuple(str(v) for v in d["positive_values"]),
        )

    @classmethod
    def from_file(cls, path: str) -> "DatasetSchema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def builtin(cls, name: str) -> "DatasetSchema":
        text = resources.files("fairfedsim.schemas").joinpath(f"{name}.json").read_text()
        return cls.from_json(json.loads(text))


@dataclass
class Dataset:
    """Encoded samples: features X, labels y, sensitive group codes S."""

    X: np.ndarray                     # (n, d) float64
    y: np.ndarray                     # (n,) int64 in {0, 1}
    S: np.ndarray                     # (n, n_attrs) int64 group codes
    attr_names: tuple[str, ...]
    group_names: tuple[tuple[str, ...], ...]   # per attribute, code -> name
    feature_names: tuple[str, ...]
    row_ids: np.ndarray               # (n,) original row identity
    n_dropped: int = 0

    def __post_init__(self):
        n = self.X.shape[0]
        if not (self.y.shape == (n,) and self.S.shape[0] == n and self.row_ids.shape == (n,)):
            raise ValueError("inconsistent dataset arrays")

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.X[idx], self.y[idx], self.S[idx], self.attr_names,
            self.group_names, self.feature_names, self.row_ids[idx], 0,
        )


@dataclass
class Shard:
    """One client's private slice of the training split."""

    client_id: int
    data: Dataset
    group_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.group_counts:
            counts: dict[str, dict[str, int]] = {}
            for a, attr in enumerate(self.data.attr_names):
                counts[attr] = {
                    name: int((self.data.S[:, a] == code).sum())
                    for code, name in enumerate(self.data.group_names[a])
                }
            self.group_counts = counts

    @property
    def X(self) -> np.ndarray:
        return self.data.X

    @property
    def y(self) -> np.ndarray:
        return self.data.y

    @property
    def S(self) -> np.ndarray:
        return self.data.S

    def __len__(self) -> int:
        return len(self.data)


def load_csv(path: str, schema: DatasetSchema, strict: bool = False) -> Dataset:
    """Parse a header-keyed CSV into an encoded Dataset (features not yet
    normalized; call ``standardize`` after splitting).

    Rows missing any required value are dropped and counted. Unknown
    categorical values error in strict mode and map to an ``"other"``
    bucket otherwise.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in reader.fieldnames]
        missing_cols = [c for c in schema.required_columns() if c not in header]
        if missing_cols:
            raise ValueError(f"{path}: header missing columns {missing_cols}")
        rows = []
        n_dropped = 0
        required = schema.required_columns()
        for raw in reader:
            row = {k.strip(): (v.strip() if isinstance(v, str) else v) for k, v in raw.items()}
            if any(row.get(c) in MISSING_TOKENS or row.get(c) is None for c in required):
                n_dropped += 1
                continue
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    if n_dropped:
        logger.info("%s: dropped %d rows with missing values", path, n_dropped)

    # frozen category orders: declared domain if present, else sorted unique
    cat_orders: dict[str, list[str]] = {}
    cat_other: dict[str, bool] = {}
    for col, declared in schema.categorical_features.items():
        if declared is not None:
            cat_orders[col] = list(declared)
            cat_other[col] = True
        else:
            cat_orders[col] = sorted({r[col] for r in rows})
            cat_other[col] = False

    feature_names: list[str] = list(schema.numeric_features)
    for col in schema.categorical_features:
        feature_names += [f"{col}={v}" for v in cat_orders[col]]
        if cat_other[col]:
            feature_names.append(f"{col}=other")

    n = len(rows)
    X = np.zeros((n, len(feature_names)))
    y = np.zeros(n, dtype=np.int64)
    S = np.zeros((n, len(schema.sensitive)), dtype=np.int64)

    group_names: list[tuple[str, ...]] = []
    for spec in schema.sensitive:
        dom = spec.domain()
        if dom is None:
            dom = tuple(sorted({spec.group_of(r[spec.column]) for r in rows}))
        group_names.append(tuple(dom))

    for i, row in enumerate(rows):
        j = 0
        for col in schema.numeric_features:
            try:
                X[i, j] = float(row[col])
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric value {row[col]!r} in column {col}") from exc
            j += 1
        for col in schema.categorical_features:
            order = cat_orders[col]
            v = row[col]
            if v in order:
                X[i, j + order.index(v)] = 1.0
            elif cat_other[col]:
                if strict:
                    raise ValueError(f"{path}: unknown category {v!r} in column {col}")
                X[i, j + len(order)] = 1.0
            j += len(order) + (1 if cat_other[col] else 0)
        y[i] = 1 if row[schema.label] in schema.positive_values else 0
        for a, spec in enumerate(schema.sensitive):
            g = spec.group_of(row[spec.column])
            if g not in group_names[a]:
                if strict:
                    raise ValueError(f"{path}: unknown group {g!r} for attribute {spec.column}")
                g = spec.rest_name
            S[i, a] = group_names[a].index(g)

    return Dataset(
        X, y, S,
        attr_names=tuple(s.column for s in schema.sensitive),
        group_names=tuple(group_names),
        feature_names=tuple(feature_names),
        row_ids=np.arange(n, dtype=np.int64),
        n_dropped=n_dropped,
    )


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Z-score numeric columns of every split using training statistics.

    One-hot columns pass through untouched (detected as {0,1}-valued).
    Constant columns keep scale 1 to avoid division by zero.
    """
    X = train.X
    is_onehot = np.array([set(np.unique(X[:, j])) <= {0.0, 1.0} for j in range(X.shape[1])])
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    mu[is_onehot] = 0.0
    sd[is_onehot] = 1.0
    sd[sd == 0.0] = 1.0

    def apply(ds: Dataset) -> Dataset:
        out = ds.take(np.arange(len(ds)))
        out.X = (ds.X - mu) / sd
        return out

    return tuple(apply(ds) for ds in (train, *others))


def split_train_test(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; every (sensitive tuple, label) stratum lands
    in both sides, which requires at least two members per stratum."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    rng = make_rng(seed, 0xD1)
    strata: dict[tuple, list[int]] = {}
    for i in range(len(dataset)):
        key = (tuple(int(c) for c in dataset.S[i]), int(dataset.y[i]))
        strata.setdefault(key, []).append(i)
    test_idx: list[int] = []
    train_idx: list[int] = []
    for key in sorted(strata):
        members = np.array(strata[key])
        if members.size < 2:
            raise ValueError(f"stratum {key} has {members.size} sample(s); cannot appear in both splits")
        perm = rng.permutation(members.size)
        members = members[perm]
        n_test = int(math.floor(test_fraction * members.size + 0.5))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.extend(members[:n_test].tolist())
        train_idx.extend(members[n_test:].tolist())
    return dataset.take(np.array(sorted(train_idx))), dataset.take(np.array(sorted(test_idx)))


@dataclass
class PartitionSpec:
    """Client fraction list per group value of one sensitive attribute."""

    attribute: str
    fractions: dict[str, tuple[float, ...]]

    def __post_init__(self):
        lengths = {len(f) for f in self.fractions.values()}
        if len(lengths) != 1:
            raise ValueError("all fraction lists must have the same length (one entry per client)")
        for value, fracs in self.fractions.items():
            if any(f < 0.0 or f > 1.0 for f in fracs):
                raise ValueError(f"fractions for group {value!r} outside [0, 1]")
            if abs(sum(fracs) - 1.0) > 1e-9:
                raise ValueError(f"fractions for group {value!r} sum to {sum(fracs)}, expected 1")

    @property
    def n_clients(self) -> int:
        return len(next(iter(self.fractions.values())))

    @classmethod
    def from_json(cls, d: dict) -> "PartitionSpec":
        return cls(d["attribute"], {str(k): tuple(v) for k, v in d["fractions"].items()})


def largest_remainder_counts(n: int, fractions: Sequence[float]) -> list[int]:
    """Integer apportionment of n by fractions, exactly conserving the total."""
    quotas = [f * n for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    short = n - sum(counts)
    # ties broken toward lower client index for determinism
    order = sorted(range(len(fractions)), key=lambda k: (-(quotas[k] - counts[k]), k))
    for k in order[:short]:
        counts[k] += 1
    return counts


def partition(train: Dataset, spec: PartitionSpec, seed: int) -> list[Shard]:
    """Shuffle each sensitive group and slice it by cumulative fractions."""
    a = train.attr_names.index(spec.attribute)
    names = train.group_names[a]
    present = {names[c] for c in np.unique(train.S[:, a])}
    for value in spec.fractions:
        if value not in present:
            raise ValueError(f"partition group {value!r} missing from data")
    for value in sorted(present):
        if value not in spec.fractions:
            raise ValueError(f"no fractions configured for group {value!r}")

    rng = make_rng(seed, 0xFA)  # stream tag for partitioning
    K = spec.n_clients
    per_client: list[list[int]] = [[] for _ in range(K)]
    for value in sorted(spec.fractions):
        code = names.index(value)
        members = np.flatnonzero(train.S[:, a] == code)
        members = members[rng.permutation(members.size)]
        counts = largest_remainder_counts(members.size, spec.fractions[value])
        pos = 0
        for k in range(K):
            per_client[k].extend(members[pos:pos + counts[k]].tolist())
            pos += counts[k]
    shards = []
    for k in range(K):
        idx = np.array(sorted(per_client[k]), dtype=np.int64)
        shard = Shard(client_id=k, data=train.take(idx))
        if len(shard) == 0:
            logger.warning("client %d received an empty shard", k)
        shards.append(shard)
    return shards


def pool_shards(shards: Sequence[Shard]) -> Dataset:
    """Union of shards (used by the centralized baseline)."""
    if not shards:
        raise ValueError("no shards to pool")
    ref = shards[0].data
    return Dataset(
        np.concatenate([s.X for s in shards]),
        np.concatenate([s.y for s in shards]),
        np.concatenate([s.S for s in shards]),
        ref.attr_names, ref.group_names, ref.feature_names,
        np.concatenate([s.data.row_ids for s in shards]),
    )


def synthetic_dataset(
    n: int,
    seed: int,
    input_dim: int = 8,
    group_fractions: tuple[float, ...] = (0.5, 0.5),
    pos_rate_by_group: tuple[float, ...] = (0.65, 0.35),
    label_shift: float = 1.6,
    group_shift: float = 1.0,
    noise: float = 1.0,
    label_orientation_by_group: Optional[tuple[float, ...]] = None,
) -> Dataset:
    """Two Gaussian feature clusters per (group, label) cell.

    The label signal lives on the first coordinate, the group signal on
    the second, so a classifier can exploit group membership unless it is
    constrained away from it. Group-conditional base rates create a real
    fairness/accuracy trade-off, and ``label_orientation_by_group`` flips
    or scales the label direction per group (cell means need not be
    additive), which forces group-specific decision rules and genuine
    gradient conflict between clients dominated by different groups.
    """
    if input_dim < 2:
        raise ValueError("input_dim must be >= 2")
    if len(group_fractions) != len(pos_rate_by_group):
        raise ValueError("group_fractions and pos_rate_by_group must align")
    if label_orientation_by_group is None:
        label_orientation_by_group = (1.0,) * len(group_fractions)
    if len(label_orientation_by_group) != len(group_fractions):
        raise ValueError("label_orientation_by_group and group_fractions must align")
    rng = make_rng(seed, 0x5E)
    n_groups = len(group_fractions)
    counts = largest_remainder_counts(n, group_fractions)
    g_codes = np.concatenate([np.full(c, g, dtype=np.int64) for g, c in enumerate(counts)])
    y = np.zeros(n, dtype=np.int64)
    pos = 0
    for g, c in enumerate(counts):
        n_pos = int(math.floor(pos_rate_by_group[g] * c + 0.5))
        y[pos:pos + n_pos] = 1
        pos += c
    X = rng.normal(0.0, noise, size=(n, input_dim))
    orient = np.asarray(label_orientation_by_group, dtype=np.float64)[g_codes]
    X[:, 0] += orient * label_shift * (2.0 * y - 1.0) / 2.0
    X[:, 1] += group_shift * (2.0 * (g_codes == 0).astype(np.float64) - 1.0) / 2.0
    perm = rng.permutation(n)
    return Dataset(
        X[perm], y[perm], g_codes[perm][:, None],
        attr_names=("group",),
        group_names=(tuple(f"g{g}" for g in range(n_groups)),),
        feature_names=tuple(f"x{j}" for j in range(input_dim)),
        row_ids=np.arange(n, dtype=np.int64),
    )
