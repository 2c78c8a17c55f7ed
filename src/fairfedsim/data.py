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

Schema rules (``DatasetSchema``). A schema is refused with a ``ValueError``
that names it and the field when it lacks ``name``, ``sensitive``,
``label`` or ``positive_values``; when a categorical feature's declared
values repeat or hold ``other``, the name of the column its undeclared
values go to; or when a sensitive attribute's group names repeat, its bin
names and rest group counted together. ``DatasetSchema.load`` refuses a
name that is not a shipped schema and lists the shipped names.

Ingestion rules (``load_csv``). Values and header names are stripped of
surrounding spaces. A blank line is skipped. A row is dropped, and counted
in ``n_dropped``, when it ends before a required column or a required value
is a missing token (``""``, ``?``, ``NA``, ``N/A``). A categorical feature
value outside its declared values goes to the feature's ``other`` column.
A sensitive value outside its declared groups goes to the rest group when
that group is declared too. A column the header names twice is read from
its last copy: ProPublica's COMPAS file, the usual source of the
``compas`` schema, names ``priors_count`` and ``decile_score`` twice with
equal values. Anything else malformed refuses the whole file with a
``ValueError`` that names the file and the line, column or value: an empty
or undecodable file; a header that lacks a required column; a row with
more fields than the header; a numeric feature or binned sensitive value
that is not a finite number; a sensitive value outside declared groups
that hold no rest group; no row left.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .numeric import make_rng

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("", "?", "NA", "N/A")


def _require(d: dict, keys: Sequence[str], where: str) -> None:
    """Refuse a JSON object without one of ``keys``, naming ``where`` it sits."""
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{where}: missing required keys {missing}")


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

    def bin_of(self, v: float) -> str:
        return next((b.name for b in self.bins if b.lo <= v <= b.hi), self.rest_name)

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
        """Refuses, naming the schema and the field, what could not encode
        one-to-one (module docstring) and a missing required key, at the
        top level or in a sensitive, categorical or bin entry."""
        where = f"schema {d.get('name', '?')!r}"
        _require(d, ("name", "sensitive", "label", "positive_values"), where)
        sens = []
        for s in d["sensitive"]:
            _require(s, ("column",), f"{where}: sensitive entry")
            bins = None
            if s.get("bins"):
                for b in s["bins"]:
                    _require(b, ("name", "lo", "hi"), f"{where}: sensitive {s['column']}: bin")
                bins = tuple(BinRule(b["name"], float(b["lo"]), float(b["hi"])) for b in s["bins"])
            cats = tuple(s["categories"]) if s.get("categories") else None
            sens.append(SensitiveSpec(s["column"], cats, bins, s.get("rest_name", "other")))
            groups = sens[-1].domain() or ()
            if len(set(groups)) != len(groups):
                raise ValueError(f"schema {d['name']!r}: sensitive {s['column']}: group names {list(groups)} repeat")
        categorical = {}
        for c in d.get("categorical_features", ()):
            _require(c, ("column",), f"{where}: categorical entry")
            categorical[c["column"]] = tuple(c["categories"]) if c.get("categories") else None
        for col, values in categorical.items():
            if values is not None and (len(set(values)) != len(values) or "other" in values):
                raise ValueError(
                    f"schema {d['name']!r}: categorical {col}: declared values {list(values)} repeat or hold 'other'"
                )
        return cls(
            name=d["name"],
            numeric_features=tuple(d.get("numeric_features", ())),
            categorical_features=categorical,
            sensitive=tuple(sens),
            label=d["label"],
            positive_values=tuple(str(v) for v in d["positive_values"]),
        )

    @classmethod
    def load(cls, ref: str) -> "DatasetSchema":
        """A schema by reference: a path ending in ``.json``, or else the
        name of a shipped schema (``adult``, ``adult_multi``, ``compas``,
        ``bank``); any other name is refused with the shipped names."""
        if str(ref).endswith(".json"):
            with open(ref, "r", encoding="utf-8") as fh:
                return cls.from_json(json.load(fh))
        shipped = resources.files("fairfedsim.schemas")
        if not shipped.joinpath(f"{ref}.json").is_file():
            names = sorted(p.name[: -len(".json")] for p in shipped.iterdir() if p.name.endswith(".json"))
            raise ValueError(f"schema {ref!r} is neither a shipped schema {names} nor a path ending in .json")
        return cls.from_json(json.loads(shipped.joinpath(f"{ref}.json").read_text()))


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


def load_csv(path: str, schema: DatasetSchema) -> Dataset:
    """Parse a header-keyed CSV into an encoded Dataset (features not yet
    normalized; call ``standardize`` after splitting). The rows are read
    once; the module docstring states which rows are dropped and which
    files are refused."""
    required = schema.required_columns()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            position = {h.strip(): i for i, h in enumerate(header)}  # a repeated name keeps its last copy
            missing = [c for c in required if c not in position]
            if missing:
                raise ValueError(f"{path}: header missing columns {missing}")
            at = [position[c] for c in required]
            read = []
            for fields in filter(None, reader):  # a blank line reads as []
                if len(fields) > len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num} has {len(fields)} fields, the header {len(header)}"
                    )
                read.append([fields[i].strip() if i < len(fields) else "" for i in at])
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc}") from None
    rows = [row for row in read if not any(v in MISSING_TOKENS for v in row)]
    n_dropped = len(read) - len(rows)
    if not rows:
        raise ValueError(f"{path}: no usable rows")
    if n_dropped:
        logger.info("%s: dropped %d rows with missing values", path, n_dropped)
    cols = dict(zip(required, zip(*rows)))
    n = len(rows)

    def numbers(col: str) -> list[float]:
        out = []
        for v in cols[col]:
            try:
                out.append(float(v))
            except ValueError:
                out.append(math.nan)
            if not math.isfinite(out[-1]):
                raise ValueError(f"{path}: column {col}: {v!r} is not a finite number")
        return out

    # each feature block with its names: numeric columns, then one one-hot
    # block per categorical (declared values plus "other", or the sorted values)
    feature_names: list[str] = list(schema.numeric_features)
    blocks = [np.zeros((n, 0))] + [np.array(numbers(col))[:, None] for col in schema.numeric_features]
    for col, declared in schema.categorical_features.items():
        values = list(declared) if declared is not None else sorted(set(cols[col]))
        code = {v: i for i, v in enumerate(values)}
        feature_names += [f"{col}={v}" for v in values] + [f"{col}=other"] * (declared is not None)
        blocks.append(np.eye(len(values) + (declared is not None))[[code.get(v, len(values)) for v in cols[col]]])
    y = np.array([v in schema.positive_values for v in cols[schema.label]], dtype=np.int64)

    S = np.zeros((n, len(schema.sensitive)), dtype=np.int64)
    group_names: list[tuple[str, ...]] = []
    for a, spec in enumerate(schema.sensitive):
        groups = cols[spec.column] if spec.bins is None else [spec.bin_of(v) for v in numbers(spec.column)]
        names = spec.domain() or tuple(sorted(set(groups)))
        code = {g: i for i, g in enumerate(names)}
        unknown = sorted(set(groups) - set(code))
        if unknown and spec.rest_name not in code:
            raise ValueError(
                f"{path}: column {spec.column}: values {unknown} lie outside its groups {list(names)}, "
                f"which hold no {spec.rest_name!r} group"
            )
        S[:, a] = [code.get(g, code.get(spec.rest_name)) for g in groups]
        group_names.append(names)

    return Dataset(
        np.hstack(blocks), y, S,
        attr_names=tuple(s.column for s in schema.sensitive),
        group_names=tuple(group_names),
        feature_names=tuple(feature_names),
        row_ids=np.arange(n, dtype=np.int64),
        n_dropped=n_dropped,
    )


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Z-score numeric columns of every split using training statistics.

    One-hot columns pass through untouched (detected as {0,1}-valued).
    Constant columns keep scale 1 to avoid division by zero. Each output
    holds a new X and shares ``y``, ``S`` and ``row_ids`` with its input.
    """
    X = train.X
    is_onehot = ((X == 0.0) | (X == 1.0)).all(axis=0)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    mu[is_onehot] = 0.0
    sd[is_onehot] = 1.0
    sd[sd == 0.0] = 1.0

    return tuple(replace(ds, X=(ds.X - mu) / sd) for ds in (train, *others))


def split_train_test(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; every (sensitive tuple, label) stratum lands
    in both sides, which requires at least two members per stratum."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    rng = make_rng(seed, 0xD1)
    # one integer code per row, sorted as the (sensitive tuple, label) keys
    code = np.zeros(len(dataset), dtype=np.int64)
    for col in (*dataset.S.T, dataset.y):
        code = code * (int(col.max(initial=0)) + 1) + col
    _, first, stratum, sizes = np.unique(code, return_index=True, return_inverse=True, return_counts=True)
    by_stratum = np.argsort(stratum, kind="stable")  # each stratum's rows in index order
    is_test = np.zeros(len(dataset), dtype=bool)
    for start, size, row in zip(np.cumsum(sizes) - sizes, sizes.tolist(), first):
        if size < 2:
            key = (tuple(int(c) for c in dataset.S[row]), int(dataset.y[row]))
            raise ValueError(f"stratum {key} has {size} sample(s); cannot appear in both splits")
        members = by_stratum[start:start + size][rng.permutation(size)]
        n_test = int(math.floor(test_fraction * size + 0.5))
        is_test[members[:min(max(n_test, 1), size - 1)]] = True
    return dataset.take(np.flatnonzero(~is_test)), dataset.take(np.flatnonzero(is_test))


@dataclass
class PartitionSpec:
    """Client fraction list per group value of one sensitive attribute."""

    attribute: str
    fractions: dict[str, tuple[float, ...]]

    def __post_init__(self):
        lengths = {len(f) for f in self.fractions.values()}
        if len(lengths) != 1:
            raise ValueError("all partition fraction lists must have the same length (one entry per client)")
        for value, fracs in self.fractions.items():
            if any(f < 0.0 or f > 1.0 for f in fracs):
                raise ValueError(f"partition fractions for group {value!r} outside [0, 1]")
            if abs(sum(fracs) - 1.0) > 1e-9:
                raise ValueError(f"partition fractions for group {value!r} sum to {sum(fracs)}, expected 1")

    @property
    def n_clients(self) -> int:
        return len(next(iter(self.fractions.values())))

    @classmethod
    def from_json(cls, d: dict) -> "PartitionSpec":
        _require(d, ("attribute", "fractions"), "partition")
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


def assign_clients(data: Dataset, spec: PartitionSpec, seed: int) -> np.ndarray:
    """Each row's client, 0..K-1: every sensitive group of the partition
    attribute is shuffled and cut by its cumulative fractions (largest
    remainder). A client may get no rows."""
    if spec.attribute not in data.attr_names:
        raise ValueError(f"partition attribute {spec.attribute!r} is not one of the data's {data.attr_names}")
    a = data.attr_names.index(spec.attribute)
    names = data.group_names[a]
    present = {names[c] for c in np.unique(data.S[:, a])}
    for value in spec.fractions:
        if value not in present:
            raise ValueError(f"partition group {value!r} missing from data")
    for value in sorted(present):
        if value not in spec.fractions:
            raise ValueError(f"no fractions configured for group {value!r}")

    rng = make_rng(seed, 0xFA)  # stream tag for partitioning
    client = np.full(len(data), -1, dtype=np.int64)
    for value in sorted(spec.fractions):
        members = np.flatnonzero(data.S[:, a] == names.index(value))
        members = members[rng.permutation(members.size)]
        counts = largest_remainder_counts(members.size, spec.fractions[value])
        client[members] = np.repeat(np.arange(spec.n_clients), counts)
    return client


def partition(train: Dataset, spec: PartitionSpec, seed: int) -> list[Dataset]:
    """Client k's shard at index k: its rows of ``assign_clients``, in the
    order of ``train``. A client may get no rows; ``client.check_shards``
    refuses an empty shard once per run. One stable sort by client orders
    all shards at once, and each client's run of that order is one take."""
    client = assign_clients(train, spec, seed)
    K = spec.n_clients
    order = np.argsort(client, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(client, minlength=K)))).tolist()
    return [train.take(order[bounds[k] : bounds[k + 1]]) for k in range(K)]


def pool_shards(shards: Sequence[Dataset]) -> Dataset:
    """Union of shards (used by the centralized baseline)."""
    if not shards:
        raise ValueError("no shards to pool")
    ref = shards[0]
    return Dataset(
        np.concatenate([s.X for s in shards]),
        np.concatenate([s.y for s in shards]),
        np.concatenate([s.S for s in shards]),
        ref.attr_names, ref.group_names, ref.feature_names,
        np.concatenate([s.row_ids for s in shards]),
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
    if not (all(f >= 0.0 for f in group_fractions) and abs(sum(group_fractions) - 1.0) <= 1e-9):
        raise ValueError(f"group_fractions {tuple(group_fractions)} must be non-negative and sum to 1")
    if not all(0.0 <= r <= 1.0 for r in pos_rate_by_group):
        raise ValueError(f"pos_rate_by_group {tuple(pos_rate_by_group)} must lie in [0, 1]")
    if label_orientation_by_group is not None and len(label_orientation_by_group) != len(group_fractions):
        raise ValueError("label_orientation_by_group and group_fractions must align")
    if label_orientation_by_group is None:
        label_orientation_by_group = (1.0,) * len(group_fractions)
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
