"""Group-fairness machinery.

Two distinct surfaces live here and must not be conflated:

* evaluation metrics over hard {0,1} predictions (``dp_violation``,
  ``eo_violation``, ``ap_violation``, ``client_fairness_violation``), used
  for reporting only;
* differentiable constraint state built from soft surrogates (predicted
  probability for DP, the same conditioned on the label for EO, per-sample
  loss for AP), whose values ``h`` and subgradients drive the Lagrangian
  training.

Constraint keys are decided once per training run, by ``KeyTable.build``
over the run's shards: the groups (or group-and-label cells for EO) with
members in the pooled training data, in ``GroupKey.sort_key`` order. Every
per-key quantity is an array aligned to that table. The table also holds,
per block, each key's rows as the indexer a step reads them by, the member
counts and the constraint metric; client k's step reads block k.
``data.partition`` orders a shard's rows by the first sensitive
attribute's code, then the label, so every key of attribute 0 is
one run of rows, recorded as a ``slice``: a statistic's sum and a key's
backward pass (``model.batch_outputs``) read views of the step's arrays,
not gathered copies. Keys of a further attribute keep an index array.

A block's statistics are an (n_keys, 2) array, per key the sum of the
surrogate over the key's rows and the member count; that is all a client
uploads. The constraint values h and the multipliers are (n_keys,)
vectors; a stack of K blocks' statistics, (K, n_keys, 2), gives h as a
(K, n_keys) array in one call. Family totals add the family's keys in key
order from 0.0 (``np.bincount`` with weights), block by block in a stack,
so the population aggregate equals the sum of its groups bitwise, a
stacked block's h equals its h alone bitwise, and normalization happens
only at the point of use. A key without members in a block carries no
constraint there: its gap and h are 0 (``_gaps``). In a client's local
step ``group_grad_sums`` sums grad f over each key's rows, and
``constraint_grads`` weights those sums into the one vector sum_s lambda_s
grad h_s.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import model

logger = logging.getLogger(__name__)

CONSTRAINT_METRICS = ("dp", "eo", "ap")


@dataclass(frozen=True)
class GroupKey:
    """One constrained group: a sensitive attribute index, the group value,
    and an optional label condition (present only for EO constraints)."""

    attribute: int
    value: str
    label: Optional[int] = None

    @property
    def family(self) -> tuple[int, Optional[int]]:
        """Keys with the same family share a population total."""
        return (self.attribute, self.label)

    def sort_key(self):
        return (self.attribute, -1 if self.label is None else self.label, str(self.value))

    def to_str(self) -> str:
        s = f"s{self.attribute}={self.value}"
        return s if self.label is None else f"{s}|y={self.label}"


@dataclass(frozen=True, eq=False)
class KeyTable:
    """The run's constraint keys, decided once from its blocks (shards).

    ``keys`` are the keys with members in the pooled blocks, in
    ``GroupKey.sort_key`` order; ``families[j]`` numbers key j's family
    (the keys that share a population total) in key order. ``rows[i][j]``
    indexes block i's rows of key j, ``a[rows[i][j]]`` for any array ``a``
    over the block's rows: a ``slice`` where they are one run (an empty one
    where the block has none), their int64 index array otherwise.
    ``counts[i, j]`` is their number, as a float64 (n_blocks, n_keys) array:
    the count column of block i's statistics and, where nonzero, the keys
    a step backpropagates. ``metric`` is the constraint metric the keys
    were built for, which a step reads to pick its surrogate.
    """

    keys: tuple[GroupKey, ...]
    families: np.ndarray
    rows: tuple[tuple[slice | np.ndarray, ...], ...]
    counts: np.ndarray
    metric: str

    @classmethod
    def build(
        cls, blocks: Sequence[tuple[np.ndarray, np.ndarray]], group_names: Sequence[Sequence[str]], metric: str
    ) -> "KeyTable":
        """From the ``(y, S)`` of every block. ``S`` holds integer group
        codes, one column per sensitive attribute; ``group_names[a][code]``
        names them. A key's members depend only on labels and groups."""
        if metric not in CONSTRAINT_METRICS:
            raise ValueError(f"unknown constraint metric {metric!r}")

        def members(y, S, a, code, lab):
            in_group = S[:, a] == code
            return np.flatnonzero(in_group if lab is None else in_group & (np.asarray(y) == lab))

        def indexer(r):  # r ascends without repeats, so it is a run when its span is its size
            if r.size == 0:
                return slice(0, 0)
            return slice(int(r[0]), int(r[-1]) + 1) if r[-1] - r[0] + 1 == r.size else r

        labels = (0, 1) if metric == "eo" else (None,)
        found = {
            GroupKey(a, str(name), lab): [members(y, S, a, code, lab) for y, S in blocks]
            for a, names in enumerate(group_names)
            for code, name in enumerate(names)
            for lab in labels
        }
        keys = sorted((k for k, rows in found.items() if any(r.size for r in rows)), key=GroupKey.sort_key)
        numbers: dict = {}
        families = np.array([numbers.setdefault(k.family, len(numbers)) for k in keys], dtype=np.int64)
        rows = tuple(tuple(indexer(found[k][i]) for k in keys) for i in range(len(blocks)))
        counts = np.array([[found[k][i].size for k in keys] for i in range(len(blocks))], dtype=np.float64)
        return cls(tuple(keys), families, rows, counts.reshape(len(blocks), len(keys)), metric)

    def names(self) -> list[str]:
        return [k.to_str() for k in self.keys]


class FairnessStatistics:
    """One block's statistics aligned to the run's ``KeyTable``: row j of
    ``groups`` holds the sum of f over key j's rows and their count."""

    def __init__(self, groups):
        self.groups = np.asarray(groups, dtype=np.float64).reshape(-1, 2)

    @staticmethod
    def merge_all(stats: Sequence["FairnessStatistics"]) -> "FairnessStatistics":
        """Key-wise sums, adding the blocks in the given (client) order."""
        if not stats:
            raise ValueError("nothing to merge")
        total = stats[0].groups
        for s in stats[1:]:
            total = total + s.groups
        return FairnessStatistics(total)


def compute_statistics_for_metric(
    outputs: tuple, rows: Sequence[slice | np.ndarray], counts: np.ndarray, metric: str
) -> FairnessStatistics:
    """Build FairnessStatistics for one surrogate family on one data block.

    ``outputs`` is ``model.batch_outputs(params, X, y)`` of the block, the
    forward pass of the step; ``rows`` and ``counts`` are the block's
    ``KeyTable.rows[i]`` and ``counts[i]``. Keys absent from the block keep
    count 0 so statistics from different clients merge on aligned keys. No
    backward pass is run.
    """
    probs, losses, _ = outputs
    f_vals = losses if metric == "ap" else probs  # the surrogate f
    groups = np.empty((len(rows), 2))
    groups[:, 0] = [f_vals[r].sum() for r in rows]
    groups[:, 1] = counts
    return FairnessStatistics(groups)


def group_grad_sums(
    outputs: tuple, y: np.ndarray, rows: Sequence[slice | np.ndarray], counts: np.ndarray, metric: str
) -> dict[int, np.ndarray]:
    """Gradient of the sum of f over the rows of every key with members,
    by key index: one backward pass per key, over that key's rows only.

    ``outputs`` is ``model.batch_outputs(params, X, y)``; ``rows`` and
    ``counts`` are the block's ``KeyTable.rows[i]`` and ``counts[i]``.
    """
    probs, _, weighted_grad = outputs
    dlogit = probs - y if metric == "ap" else probs * (1.0 - probs)  # df/dlogit
    return {j: weighted_grad(dlogit, rows[j]) for j in np.flatnonzero(counts).tolist()}


def _family_totals(values: np.ndarray, families: np.ndarray) -> np.ndarray:
    """Per key, the total of ``values`` over the key's family: the
    family's keys added in key order from 0.0 (``np.bincount``), for one
    block (n_keys,) or row by row for a stack (K, n_keys). A stack is one
    bincount with block b's families numbered from b * n_families, so each
    row equals its block's totals alone bit for bit."""
    if values.ndim == 1:
        return np.bincount(families, weights=values)[families]
    n_families = int(families.max(initial=-1)) + 1
    index = families + n_families * np.arange(len(values))[:, None]
    totals = np.bincount(index.reshape(-1), weights=values.reshape(-1), minlength=len(values) * n_families)
    return totals.reshape(len(values), n_families)[:, families]


def _gaps(groups: np.ndarray, families: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per key, F(D)/n - F(D^s)/n_s (0 where the key has no members), n_s
    and n, for one block's statistics (n_keys, 2) or a stack of K blocks
    (K, n_keys, 2). Counts are nonnegative, so a key with members gives
    its family members too: every gap of such a key is defined."""
    sum_f, count = groups[..., 0], groups[..., 1]
    family_f = _family_totals(sum_f, families)
    family_n = _family_totals(count, families)
    members = count > 0
    gap = np.zeros_like(sum_f)
    gap[members] = family_f[members] / family_n[members] - sum_f[members] / count[members]
    return gap, count, family_n


def constraint_values(groups: np.ndarray, families: np.ndarray, alpha: float) -> np.ndarray:
    """h_s = |F(D)/n - F(D^s)/n_s| - alpha for every key with members in
    the block, 0 for the others. ``groups`` is one block's statistics
    (``FairnessStatistics.groups``, n_keys x 2) or a stack of K of them
    (K x n_keys x 2), which gives one row of h per block, each equal bit
    for bit to that block's h alone. ``families`` is the run's
    ``KeyTable.families``."""
    gap, count, _ = _gaps(groups, families)
    return np.where(count > 0, np.abs(gap) - alpha, 0.0)


def constraint_grads(
    stats: FairnessStatistics, families: np.ndarray, lam: np.ndarray, grad_sums: Mapping[int, np.ndarray]
) -> np.ndarray:
    """sum_s lam_s grad h_s, the constraint part of the Lagrangian gradient.

    grad h_s = sign(gap_s) (grad F(D)/n - grad F(D^s)/n_s), sign(0) = 0 (a
    subgradient at the kink). With a = lam sign(gap) and A_f its sum over
    family f, this is sum_j c_j grad_sums[j], c_j = A_f(j)/n_f(j) - a_j/n_j,
    added in key order over ``grad_sums`` (``group_grad_sums``: per key
    with members, the sum of grad f over its rows). c is formed once, on
    those keys only, so no count of 0 is divided by.
    """
    gap, n_group, n_family = _gaps(stats.groups, families)
    a = lam * np.sign(gap)
    family_a = np.bincount(families, weights=a)[families]
    keys = np.fromiter(grad_sums, dtype=np.intp, count=len(grad_sums))
    c = family_a[keys] / n_family[keys] - a[keys] / n_group[keys]
    return sum(c_j * g for c_j, g in zip(c, grad_sums.values()))


# ---------------------------------------------------------------------------
# Evaluation metrics (hard predictions)
# ---------------------------------------------------------------------------


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError(f"empty {name}")
    return arr


def _max_group_gap(values: np.ndarray, groups: np.ndarray) -> float:
    """Max over the groups present of |mean of the group's values - mean
    of all values|."""
    overall = float(values.mean())
    return max((abs(float(values[groups == g].mean()) - overall) for g in np.unique(groups)), default=0.0)


def dp_violation(preds, groups) -> float:
    """Max over groups of |P(pred=1 | group) - P(pred=1)|."""
    preds = _as_int_array(preds, "predictions").astype(np.float64)
    groups = _as_int_array(groups, "groups")
    if preds.shape != groups.shape:
        raise ValueError("predictions and groups must have equal length")
    return _max_group_gap(preds, groups)


def eo_violation(preds, labels, groups) -> float:
    """Max over (group, label) cells of |P(pred=1 | s, y) - P(pred=1 | y)|.

    Cells with zero support are skipped with a warning; a label value with
    no samples at all is an error (the pooled conditional is undefined).
    """
    preds = _as_int_array(preds, "predictions").astype(np.float64)
    labels = _as_int_array(labels, "labels")
    groups = _as_int_array(groups, "groups")
    if not (preds.shape == labels.shape == groups.shape):
        raise ValueError("predictions, labels and groups must have equal length")
    worst = 0.0
    for lab in (0, 1):
        in_label = labels == lab
        if not in_label.any():
            raise ValueError(f"no samples with label {lab}; conditional rate undefined")
        for g in np.setdiff1d(groups, groups[in_label]):
            logger.warning("eo_violation: empty cell (group=%r, y=%d) skipped", g, lab)
        worst = max(worst, _max_group_gap(preds[in_label], groups[in_label]))
    return worst


def ap_violation(losses, groups) -> float:
    """Max over groups of |mean group loss - mean loss|, losses capped at 1."""
    losses = np.minimum(np.asarray(losses, dtype=np.float64), 1.0)
    if losses.size == 0:
        raise ValueError("empty losses")
    groups = _as_int_array(groups, "groups")
    if losses.shape != groups.shape:
        raise ValueError("losses and groups must have equal length")
    return _max_group_gap(losses, groups)


def client_fairness_violation(per_client_accuracy: Sequence[float]) -> float:
    """Max absolute deviation of per-client accuracy from the mean."""
    accs = np.asarray(list(per_client_accuracy), dtype=np.float64)
    if accs.size == 0:
        raise ValueError("no clients")
    return float(np.abs(accs - accs.mean()).max())


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class FairnessReport:
    """Accuracy plus per-attribute DP/EO/AP violations and client fairness."""

    accuracy: float
    dp: dict[str, float]
    eo: dict[str, float]
    ap: dict[str, float]
    cf: Optional[float] = None
    per_group: list[dict] = field(default_factory=list)

    def scores(self) -> dict[str, float]:
        out = {"acc": self.accuracy}
        for attr in self.dp:
            out[f"dp[{attr}]"] = self.dp[attr]
            out[f"eo[{attr}]"] = self.eo[attr]
            out[f"ap[{attr}]"] = self.ap[attr]
        if self.cf is not None:
            out["cf"] = self.cf
        return out

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "FairnessReport":
        return cls(**d)


def evaluate_predictions(
    probs: np.ndarray,
    y: np.ndarray,
    S: np.ndarray,
    attr_names: Sequence[str],
    group_names: Sequence[Sequence[str]],
    clients: Optional[np.ndarray] = None,
) -> FairnessReport:
    """Hard-threshold probabilities (>= 0.5 predicts 1) and score them.
    ``clients`` labels each row with its client; given, CF is scored over
    the accuracies of the clients that have rows."""
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y)
    preds = (probs >= 0.5).astype(np.int64)
    losses = model.per_sample_losses(probs, y)
    accuracy = float((preds == y).mean())
    dp, eo, ap = {}, {}, {}
    per_group = []
    for a, attr in enumerate(attr_names):
        codes = S[:, a]
        dp[attr] = dp_violation(preds, codes)
        eo[attr] = eo_violation(preds, y, codes)
        ap[attr] = ap_violation(losses, codes)
        for code, name in enumerate(group_names[a]):
            mask = codes == code
            if not mask.any():
                continue
            per_group.append(
                {
                    "attribute": attr,
                    "group": str(name),
                    "count": int(mask.sum()),
                    "positive_rate": float(preds[mask].mean()),
                    "accuracy": float((preds[mask] == y[mask]).mean()),
                    "mean_loss": float(np.minimum(losses[mask], 1.0).mean()),
                }
            )
    cf = None
    if clients is not None:
        rows = np.bincount(clients)
        correct = np.bincount(clients, weights=(preds == y).astype(np.float64))
        cf = client_fairness_violation(correct[rows > 0] / rows[rows > 0])
    return FairnessReport(accuracy=accuracy, dp=dp, eo=eo, ap=ap, cf=cf, per_group=per_group)
