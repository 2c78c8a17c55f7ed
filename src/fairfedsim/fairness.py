"""Group-fairness machinery.

Two distinct surfaces live here and must not be conflated:

* evaluation metrics over hard {0,1} predictions (``dp_violation``,
  ``eo_violation``, ``ap_violation``, ``client_fairness_violation``), used
  for reporting only;
* differentiable constraint state built from soft surrogates (predicted
  probability for DP, the same conditioned on the label for EO, per-sample
  loss for AP), whose values ``h`` and subgradients drive the Lagrangian
  training.

Statistics are two scalars per group key, the sum of the surrogate over
the group's rows and the member count; that is all a client uploads.
Totals are derived by summing group entries in sorted key order so the
population aggregate equals the sum of its groups bitwise, and
normalization happens only at the point of use. Gradients are formed in
the client's local step (``group_grad_sums``, then ``constraint_grads``).
A key whose group has no members in a block carries no constraint there:
``constraint_values`` and ``constraint_grads`` cover ``usable_keys`` only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

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


@dataclass
class GroupStat:
    """Raw per-group accumulators: sum of f and member count."""

    sum_f: float
    count: int


class FairnessStatistics:
    """Per-group surrogate sums with derived per-family totals."""

    def __init__(self, groups: Mapping[GroupKey, GroupStat]):
        self.groups = dict(groups)

    def keys(self) -> list[GroupKey]:
        return sorted(self.groups, key=GroupKey.sort_key)

    def families(self) -> list[tuple[int, Optional[int]]]:
        return sorted({k.family for k in self.groups}, key=lambda f: (f[0], -1 if f[1] is None else f[1]))

    def total(self, family: tuple[int, Optional[int]]) -> GroupStat:
        """Family total as the exact sum of its group entries."""
        total = GroupStat(0.0, 0)
        for key in self.keys():
            if key.family == family:
                total.sum_f += self.groups[key].sum_f
                total.count += self.groups[key].count
        return total

    def merge(self, other: "FairnessStatistics") -> "FairnessStatistics":
        merged = {k: GroupStat(g.sum_f, g.count) for k, g in self.groups.items()}
        for key, g in other.groups.items():
            if key in merged:
                merged[key].sum_f += g.sum_f
                merged[key].count += g.count
            else:
                merged[key] = GroupStat(g.sum_f, g.count)
        return FairnessStatistics(merged)

    @staticmethod
    def merge_all(stats: Sequence["FairnessStatistics"]) -> "FairnessStatistics":
        if not stats:
            raise ValueError("nothing to merge")
        out = stats[0]
        for s in stats[1:]:
            out = out.merge(s)
        return out


def key_rows(
    y: np.ndarray, S: np.ndarray, group_names: Sequence[Sequence[str]], metric: str
) -> dict[GroupKey, np.ndarray]:
    """Row indices of every key's group (or group-and-label cell for EO),
    empty groups included.

    ``S`` holds integer group codes, one column per sensitive attribute;
    ``group_names[a][code]`` names them. A block's rows depend only on its
    labels and groups, so a client builds them once per round and hands
    them to every local step.
    """
    if metric not in CONSTRAINT_METRICS:
        raise ValueError(f"unknown constraint metric {metric!r}")
    y = np.asarray(y)
    labels = (0, 1) if metric == "eo" else (None,)
    rows: dict[GroupKey, np.ndarray] = {}
    for a in range(S.shape[1]):
        for code, name in enumerate(group_names[a]):
            in_group = S[:, a] == code
            for lab in labels:
                mask = in_group if lab is None else in_group & (y == lab)
                rows[GroupKey(a, str(name), lab)] = np.flatnonzero(mask)
    return rows


def compute_statistics_for_metric(
    outputs: tuple, rows: Mapping[GroupKey, np.ndarray], metric: str
) -> FairnessStatistics:
    """Build FairnessStatistics for one surrogate family on one data block.

    ``outputs`` is ``model.batch_outputs(params, X, y)`` of the block, the
    forward pass of the step, and ``rows`` is ``key_rows`` of the block for
    ``metric``. Groups absent from the block keep count 0 so statistics
    from different clients merge on aligned keys. No backward pass is run.
    """
    probs, losses, _ = outputs
    f_vals = losses if metric == "ap" else probs  # the surrogate f
    return FairnessStatistics(
        {key: GroupStat(float(f_vals[r].sum()), int(r.size)) for key, r in rows.items()}
    )


def group_grad_sums(
    outputs: tuple, y: np.ndarray, rows: Mapping[GroupKey, np.ndarray], metric: str
) -> dict[GroupKey, np.ndarray]:
    """Gradient of the sum of f over the rows of every key whose group has
    members: one backward pass per key, over that key's rows only.

    ``outputs`` is ``model.batch_outputs(params, X, y)`` and ``rows`` is
    ``key_rows`` of the block for ``metric``.
    """
    probs, _, weighted_grad = outputs
    dlogit = probs - y if metric == "ap" else probs * (1.0 - probs)  # df/dlogit
    return {key: weighted_grad(dlogit, r) for key, r in rows.items() if r.size}


def usable_keys(stats: FairnessStatistics) -> list[GroupKey]:
    """Keys whose group has members in this data block.

    Counts are nonnegative, so a group with members gives its family
    members too: every gap of these keys is defined.
    """
    return [k for k in stats.keys() if stats.groups[k].count > 0]


def _gaps(stats: FairnessStatistics) -> Iterator[tuple[GroupKey, float, int, int]]:
    """(key, F(D)/n - F(D^s)/n_s, n_s, n) for every usable key."""
    totals = {fam: stats.total(fam) for fam in stats.families()}
    for key in usable_keys(stats):
        g, t = stats.groups[key], totals[key.family]
        yield key, t.sum_f / t.count - g.sum_f / g.count, g.count, t.count


def constraint_values(stats: FairnessStatistics, alpha: float) -> dict[GroupKey, float]:
    """h_s = |F(D)/n - F(D^s)/n_s| - alpha for every usable key."""
    return {key: abs(gap) - alpha for key, gap, _, _ in _gaps(stats)}


def constraint_grads(
    stats: FairnessStatistics, grad_sums: Mapping[GroupKey, np.ndarray]
) -> dict[GroupKey, np.ndarray]:
    """Subgradient of each h_s, sign(gap) * (grad F(D)/n - grad F(D^s)/n_s),
    for every usable key.

    ``grad_sums`` maps each usable key to the sum of grad f over its rows
    (``group_grad_sums``); a family's gradient total is the sum of its
    keys' entries in sorted key order. sign(0) is taken as 0 (subgradient
    at the kink of the absolute value).
    """
    gaps = list(_gaps(stats))
    family_grads: dict = {}
    for key, *_ in gaps:
        family_grads[key.family] = family_grads.get(key.family, 0.0) + grad_sums[key]
    out: dict[GroupKey, np.ndarray] = {}
    for key, gap, n_group, n_family in gaps:
        if gap == 0.0:
            out[key] = np.zeros_like(grad_sums[key])
        else:
            sign = 1.0 if gap > 0 else -1.0
            out[key] = sign * (family_grads[key.family] / n_family - grad_sums[key] / n_group)
    return out


# ---------------------------------------------------------------------------
# Evaluation metrics (hard predictions)
# ---------------------------------------------------------------------------


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError(f"empty {name}")
    return arr


def dp_violation(preds, groups) -> float:
    """Max over groups of |P(pred=1 | group) - P(pred=1)|."""
    preds = _as_int_array(preds, "predictions").astype(np.float64)
    groups = _as_int_array(groups, "groups")
    if preds.shape != groups.shape:
        raise ValueError("predictions and groups must have equal length")
    overall = float(preds.mean())
    worst = 0.0
    for g in np.unique(groups):
        mask = groups == g
        if not mask.any():
            raise ValueError(f"empty group {g!r}")
        worst = max(worst, abs(float(preds[mask].mean()) - overall))
    return worst


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
        pooled = float(preds[in_label].mean())
        for g in np.unique(groups):
            cell = in_label & (groups == g)
            if not cell.any():
                logger.warning("eo_violation: empty cell (group=%r, y=%d) skipped", g, lab)
                continue
            worst = max(worst, abs(float(preds[cell].mean()) - pooled))
    return worst


def ap_violation(losses, groups) -> float:
    """Max over groups of |mean group loss - mean loss|, losses capped at 1."""
    losses = np.minimum(np.asarray(losses, dtype=np.float64), 1.0)
    if losses.size == 0:
        raise ValueError("empty losses")
    groups = _as_int_array(groups, "groups")
    if losses.shape != groups.shape:
        raise ValueError("losses and groups must have equal length")
    overall = float(losses.mean())
    worst = 0.0
    for g in np.unique(groups):
        mask = groups == g
        if not mask.any():
            raise ValueError(f"empty group {g!r}")
        worst = max(worst, abs(float(losses[mask].mean()) - overall))
    return worst


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
        return {
            "accuracy": self.accuracy,
            "dp": self.dp,
            "eo": self.eo,
            "ap": self.ap,
            "cf": self.cf,
            "per_group": self.per_group,
        }

    @classmethod
    def from_json(cls, d: dict) -> "FairnessReport":
        return cls(
            accuracy=d["accuracy"],
            dp=dict(d["dp"]),
            eo=dict(d["eo"]),
            ap=dict(d["ap"]),
            cf=d.get("cf"),
            per_group=list(d.get("per_group", [])),
        )


def evaluate_predictions(
    probs: np.ndarray,
    y: np.ndarray,
    S: np.ndarray,
    attr_names: Sequence[str],
    group_names: Sequence[Sequence[str]],
    per_client_accuracy: Optional[Sequence[float]] = None,
) -> FairnessReport:
    """Hard-threshold probabilities (>= 0.5 predicts 1) and score them."""
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
    if per_client_accuracy is not None:
        cf = client_fairness_violation(per_client_accuracy)
    return FairnessReport(accuracy=accuracy, dp=dp, eo=eo, ap=ap, cf=cf, per_group=per_group)
