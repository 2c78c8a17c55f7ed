"""Per-client local training under the Lagrangian objective.

Each round a client receives the global parameters and the multipliers,
runs E full-batch descent steps on J(w, lambda) with lambda frozen, and
uploads its loss and per-group fairness sums and counts (scalars, both
at the received parameters) and the update gradient the server
aggregates: the sum of the E step gradients, which for E = 1 is the
Lagrangian gradient itself. Clients only ever touch their own shard.

A step runs one forward pass over the shard and 1 + #keys backward passes:
one for the loss over every row, and one per constraint key with members,
whatever its multiplier, over the rows of that key's group (or
group-and-label cell) only. These constraint gradients stay in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import fairness, model
from .data import Shard
from .fairness import FairnessStatistics, GroupKey
from .model import MlpParams
from .numeric import check_finite


@dataclass
class ClientStatistics:
    """The per-round upload: everything the server needs, nothing more."""

    client_id: int
    loss: float
    fairness: FairnessStatistics
    update_grad: np.ndarray


def _check_shard(shard: Shard) -> None:
    if len(shard) == 0:
        raise ValueError(f"client {shard.client_id}: empty shard")


def compute_fairness_statistics(
    params: MlpParams, shard: Shard, metric: str, outputs: Optional[tuple] = None
) -> FairnessStatistics:
    return fairness.compute_statistics_for_metric(
        params, shard.X, shard.y, shard.S, shard.data.group_names, metric, outputs
    )


def lagrangian_grad(
    params: MlpParams,
    lam: Mapping[GroupKey, float],
    shard: Shard,
    metric: str,
) -> tuple[float, FairnessStatistics, np.ndarray]:
    """Loss, fairness statistics, and the full gradient of
    J(w, lambda) = L(D_k, w) + sum_s lambda_s h_s(w) at the given params.

    Constraint keys whose group has no members on this shard carry no
    gradient there and are skipped. One forward pass serves the loss, the
    fairness statistics and the constraint gradient sums; the loss
    gradient is computed exactly as ``model.loss_and_grad`` computes it.
    """
    outputs = model.batch_outputs(params, shard.X, shard.y)
    probs, losses, weighted_grad = outputs
    loss = float(np.mean(losses))
    grad = weighted_grad((probs - shard.y) / probs.shape[0])
    stats = compute_fairness_statistics(params, shard, metric, outputs)
    grad_sums = fairness.group_grad_sums(outputs, shard.y, shard.S, shard.data.group_names, metric)
    for key, h_grad in fairness.constraint_grads(stats, grad_sums).items():
        weight = float(lam.get(key, 0.0))
        if weight != 0.0:
            grad += weight * h_grad
    check_finite(grad, f"client {shard.client_id} update gradient")
    return loss, stats, grad


def compute_statistics(
    params: MlpParams,
    lam: Mapping[GroupKey, float],
    shard: Shard,
    metric: str = "dp",
    epochs: int = 20,
    lr: float = 0.05,
) -> ClientStatistics:
    """Assemble the round upload.

    Runs ``epochs`` full-batch descent steps on J with lambda frozen; the
    update gradient is the sum of the per-step gradients (exactly the
    telescoped (w0 - wE)/lr), while loss and fairness statistics are
    evaluated at the received parameters.
    """
    _check_shard(shard)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    loss, stats, grad = lagrangian_grad(params, lam, shard, metric)
    update = grad
    if epochs > 1:
        flat = params.flatten()
        for _ in range(epochs - 1):
            flat = flat - lr * grad
            _, _, grad = lagrangian_grad(MlpParams.unflatten(params.spec, flat), lam, shard, metric)
            update = update + grad
    check_finite(update, f"client {shard.client_id} update gradient")
    return ClientStatistics(client_id=shard.client_id, loss=loss, fairness=stats, update_grad=update)


def local_accuracy(params: MlpParams, shard: Shard) -> float:
    """Fraction correct under the >= 0.5 decision rule (ties predict 1)."""
    _check_shard(shard)
    probs = model.predict_proba(params, shard.X)
    preds = (probs >= 0.5).astype(np.int64)
    return float((preds == shard.y).mean())
