"""Per-client local training under the Lagrangian objective.

Each round a client receives the global parameters and the multipliers,
runs E full-batch descent steps on J(w, lambda) with lambda frozen, and
uploads its loss and fairness statistics (both at the received
parameters) and the update gradient the server aggregates: the sum of the
E step gradients, which for E = 1 is the Lagrangian gradient itself.
Clients only ever touch their own shard.

Keys are decided once per run, in the run's ``fairness.KeyTable``. A
client gets its shard's row list of that table (``KeyTable.rows[i]``) and
the table's family indices, and reuses both for every round and step. Its
multipliers are an (n_keys,) vector and its uploaded statistics an
(n_keys, 2) array, both aligned to the table.

A step runs one forward pass over the shard and 1 + #keys backward passes:
one for the loss over every row, and one per constraint key with members
on the shard, whatever its multiplier, over the rows of that key's group
(or group-and-label cell) only. The per-key passes are kept although a
zero multiplier leaves their result unread, because the benchmark pins
``model.backward_per_step == 1 + #keys``. Whether any key with members has
a nonzero multiplier is decided once per round, since the multipliers are
frozen for the round: only then are the constraint gradients
(``fairness.constraint_grads``) formed and added to the loss gradient;
otherwise the step's gradient is the loss gradient bit for bit. These
gradients stay in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fairness, model
from .data import Shard
from .fairness import FairnessStatistics
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


def lagrangian_grad(
    params: MlpParams,
    weights: Sequence[tuple[int, float]],
    shard: Shard,
    metric: str,
    rows: Sequence[np.ndarray],
    families: np.ndarray,
) -> tuple[float, FairnessStatistics, np.ndarray]:
    """Loss, fairness statistics, and the full gradient of
    J(w, lambda) = L(D_k, w) + sum_s lambda_s h_s(w) at the given params.

    ``rows`` is the shard's row list of the run's ``fairness.KeyTable`` and
    ``families`` the table's family indices. ``weights`` holds
    (key index, multiplier) for every nonzero multiplier on a key with
    members on the shard, in key order; keys without members carry no
    gradient here. One forward pass serves the loss, the fairness
    statistics and the constraint gradient sums; the loss gradient is
    computed exactly as ``model.loss_and_grad`` computes it.
    """
    outputs = model.batch_outputs(params, shard.X, shard.y)
    probs, losses, weighted_grad = outputs
    loss = float(np.mean(losses))
    grad = weighted_grad((probs - shard.y) / probs.shape[0])
    stats = fairness.compute_statistics_for_metric(outputs, rows, metric)
    grad_sums = fairness.group_grad_sums(outputs, shard.y, rows, metric)
    if weights:
        h_grads = fairness.constraint_grads(stats, families, grad_sums)
        for j, weight in weights:
            grad += weight * h_grads[j]
    check_finite(grad, f"client {shard.client_id} update gradient")
    return loss, stats, grad


def compute_statistics(
    params: MlpParams,
    lam: np.ndarray,
    shard: Shard,
    rows: Sequence[np.ndarray],
    families: np.ndarray,
    *,
    metric: str,
    epochs: int,
    lr: float,
) -> ClientStatistics:
    """Assemble the round upload.

    Runs ``epochs`` full-batch descent steps on J with the multiplier
    vector ``lam`` frozen; the update gradient is the sum of the per-step
    gradients (exactly the telescoped (w0 - wE)/lr), while loss and
    fairness statistics are evaluated at the received parameters. ``rows``
    and ``families`` are as in ``lagrangian_grad``.
    """
    _check_shard(shard)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    weights = [(j, float(lam[j])) for j in np.flatnonzero(lam).tolist() if rows[j].size]
    loss, stats, grad = lagrangian_grad(params, weights, shard, metric, rows, families)
    update = grad
    flat = params.flat
    for _ in range(epochs - 1):
        flat = flat - lr * grad
        _, _, grad = lagrangian_grad(MlpParams(params.spec, flat), weights, shard, metric, rows, families)
        update = update + grad
    check_finite(update, f"client {shard.client_id} update gradient")
    return ClientStatistics(client_id=shard.client_id, loss=loss, fairness=stats, update_grad=update)


def local_accuracy(params: MlpParams, shard: Shard) -> float:
    """Fraction correct under the >= 0.5 decision rule (ties predict 1)."""
    _check_shard(shard)
    probs = model.predict_proba(params, shard.X)
    preds = (probs >= 0.5).astype(np.int64)
    return float((preds == shard.y).mean())
