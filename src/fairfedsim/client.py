"""Per-client local training under the Lagrangian objective.

Each round a client receives the global parameters and the multipliers,
runs E full-batch descent steps on J(w, lambda) with lambda frozen, and
uploads its loss and fairness statistics (both at the received
parameters) and the update gradient the server aggregates: the sum of the
E step gradients, which for E = 1 is the Lagrangian gradient itself.
Clients only ever touch their own shard.

A client is its position k in the run's shard list, as in the paper's
server. Keys are decided once per run, in the run's ``fairness.KeyTable``;
client k reads block k of it (``KeyTable.rows[k]`` and ``counts[k]``),
its family indices and its constraint metric, for every round and step.
Its multipliers are an (n_keys,) vector and its uploaded statistics an
(n_keys, 2) array, both aligned to the table. A run refuses an empty
shard once, before its first round (``check_shards``).

A step runs one forward pass over the shard, then backpropagates the loss
over every row and, for each constraint key with members on the shard,
grad f over that key's rows (``fairness.group_grad_sums``), whatever its
multiplier: the benchmark pins ``model.backward_per_step == 1 + #keys``.
Every pass on an n-row shard writes into the first n rows of the run's
one ``model.Workspace`` (``baselines.run_federated`` builds it, sized to
the largest shard). A key of the first sensitive attribute is one
run of the shard's rows (``data.partition`` orders them so), so its pass
and its statistic read views of the forward pass's activations; only a
key of a further attribute gathers its rows. So a step allocates no
(n, width) array: only the flat gradients it keeps, n-length vectors and
those gathered rows. The multipliers are frozen for the round, so
``compute_statistics`` decides once per round whether any key with
members carries a positive one. Only then is sum_s lambda_s grad h_s
formed, as one weighted sum of the per-key sums
(``fairness.constraint_grads``), and added to the loss gradient, once;
otherwise the step's gradient is the loss gradient bit for bit. These
gradients stay in the step.

A step computes and checks only what is read. Its gradient, the one the
parameters step along and the round sums, is checked finite once; the
per-key sums are checked only through it, so at zero multipliers, where
nothing reads them, they go unchecked. The summed update is checked
again only when E > 1 (at E = 1 it is the checked step gradient). Only
the first step's loss is uploaded, so the per-sample losses are computed
there and, for AP, whose surrogate they are, in every step. Steps 2..E
update one parameter buffer in place, and the update gradient is summed
in place. None of this touches the pass counts pinned above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fairness, model
from .data import Dataset
from .fairness import FairnessStatistics, KeyTable
from .model import MlpParams
from .numeric import check_finite


@dataclass
class ClientStatistics:
    """The per-round upload: everything the server needs, nothing more.
    The server knows the client by its position in the round's uploads."""

    loss: float
    fairness: FairnessStatistics
    update_grad: np.ndarray


def check_shards(shards: Sequence[Dataset]) -> None:
    """Refuse a run whose client k has no rows, once, before it trains."""
    for k, shard in enumerate(shards):
        if len(shard) == 0:
            raise ValueError(f"client {k}: empty shard")


def lagrangian_grad(
    params: MlpParams,
    lam: Optional[np.ndarray],
    shard: Dataset,
    table: KeyTable,
    k: int,
    uploaded: bool = True,
    work: Optional[model.Workspace] = None,
) -> tuple[Optional[float], FairnessStatistics, np.ndarray]:
    """Loss, fairness statistics, and the full gradient of
    J(w, lambda) = L(D_k, w) + sum_s lambda_s h_s(w) at the given params.

    ``shard`` is client k's and ``table`` the run's ``fairness.KeyTable``,
    of which the step reads block k and the constraint metric.
    ``lam`` is the (n_keys,) multiplier vector, or None when no key with
    members on the shard has a positive multiplier; then the gradient is
    the loss gradient. One forward pass serves the loss, the fairness
    statistics and the constraint gradient sums; the loss gradient is
    formed first, as in ``model.loss_and_grad``, and the constraint sum is
    added to it once. The gradient is checked finite. A step whose loss is
    not ``uploaded`` returns None for it, and under DP and EO computes no
    per-sample loss. The passes write into ``work`` (``model.Workspace``),
    or into a new workspace sized to the shard.
    """
    rows, counts, metric = table.rows[k], table.counts[k], table.metric
    outputs = model.batch_outputs(params, shard.X, shard.y, uploaded or metric == "ap", work)
    probs, losses, weighted_grad = outputs
    grad = weighted_grad((probs - shard.y) / probs.shape[0])
    stats = fairness.compute_statistics_for_metric(outputs, rows, counts, metric)
    grad_sums = fairness.group_grad_sums(outputs, shard.y, rows, counts, metric)
    if lam is not None:
        grad += fairness.constraint_grads(stats, table.families, lam, grad_sums)
    check_finite(grad, f"client {k} update gradient")
    return (float(np.mean(losses)) if uploaded else None), stats, grad


def compute_statistics(
    params: MlpParams,
    lam: np.ndarray,
    shard: Dataset,
    table: KeyTable,
    k: int,
    *,
    epochs: int,
    lr: float,
    work: Optional[model.Workspace] = None,
) -> ClientStatistics:
    """Assemble client k's round upload.

    Runs ``epochs`` full-batch descent steps on J with the multiplier
    vector ``lam`` frozen; the update gradient is the sum of the per-step
    gradients (exactly the telescoped (w0 - wE)/lr), while loss and
    fairness statistics are evaluated at the received parameters.
    ``shard``, ``table``, ``k`` and ``work`` are as in ``lagrangian_grad``.
    """
    lam = lam if (lam[table.counts[k] > 0.0] > 0.0).any() else None
    loss, stats, grad = lagrangian_grad(params, lam, shard, table, k, True, work)
    update = grad
    if epochs > 1:
        step_params = MlpParams(params.spec, params.flatten())
        update = grad.copy()
        for _ in range(epochs - 1):
            step_params.flat -= lr * grad
            _, _, grad = lagrangian_grad(step_params, lam, shard, table, k, False, work)
            update += grad
        check_finite(update, f"client {k} update gradient")
    return ClientStatistics(loss=loss, fairness=stats, update_grad=update)
