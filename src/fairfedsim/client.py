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

A step runs one forward pass over the shard, then backpropagates the loss
over every row and, for each constraint key with members on the shard,
grad f over that key's rows (``fairness.group_grad_sums``), whatever its
multiplier: the benchmark pins ``model.backward_per_step == 1 + #keys``.
The multipliers are frozen for the round, so ``compute_statistics``
decides once per round whether any key with members carries a positive
one. Only then is sum_s lambda_s grad h_s formed, as one weighted sum of
the per-key sums (``fairness.constraint_grads``), and added to the loss
gradient, once; otherwise the step's gradient is the loss gradient bit
for bit. These gradients stay in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    lam: Optional[np.ndarray],
    shard: Shard,
    metric: str,
    rows: Sequence[np.ndarray],
    families: np.ndarray,
) -> tuple[float, FairnessStatistics, np.ndarray]:
    """Loss, fairness statistics, and the full gradient of
    J(w, lambda) = L(D_k, w) + sum_s lambda_s h_s(w) at the given params.

    ``rows`` is the shard's row list of the run's ``fairness.KeyTable`` and
    ``families`` the table's family indices. ``lam`` is the (n_keys,)
    multiplier vector, or None when no key with members on the shard has
    a positive multiplier; then the gradient is the loss gradient. One
    forward pass serves the loss, the fairness statistics and the
    constraint gradient sums; the loss gradient is formed first, as in
    ``model.loss_and_grad``, and the constraint sum is added to it once.
    """
    outputs = model.batch_outputs(params, shard.X, shard.y)
    probs, losses, weighted_grad = outputs
    loss = float(np.mean(losses))
    grad = weighted_grad((probs - shard.y) / probs.shape[0])
    stats = fairness.compute_statistics_for_metric(outputs, rows, metric)
    grad_sums = fairness.group_grad_sums(outputs, shard.y, rows, metric)
    if lam is not None:
        grad += fairness.constraint_grads(stats, families, lam, grad_sums)
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
    lam = lam if any(lam[j] > 0.0 for j, r in enumerate(rows) if r.size) else None
    loss, stats, grad = lagrangian_grad(params, lam, shard, metric, rows, families)
    update = grad
    flat = params.flat
    for _ in range(epochs - 1):
        flat = flat - lr * grad
        _, _, grad = lagrangian_grad(MlpParams(params.spec, flat), lam, shard, metric, rows, families)
        update = update + grad
    check_finite(update, f"client {shard.client_id} update gradient")
    return ClientStatistics(client_id=shard.client_id, loss=loss, fairness=stats, update_grad=update)


def local_accuracy(params: MlpParams, shard: Shard) -> float:
    """Fraction correct under the >= 0.5 decision rule (ties predict 1)."""
    _check_shard(shard)
    probs = model.predict_proba(params, shard.X)
    preds = (probs >= 0.5).astype(np.int64)
    return float((preds == shard.y).mean())
