"""Training regimes: the conflict-mitigating federation and its baselines.

The training hyperparameters are declared and range-checked once, in
``Hyperparameters``, which ``TrainConfig`` and ``harness.ExperimentConfig``
extend; the regimes are declared once, in ``REGIMES``, a table of
name -> (runner, ``TrainConfig`` overrides) that ``train`` applies.

One federated engine drives everything, so the spec'd reductions hold
bitwise: fedavg is the engine with beta=0, gamma=0, alpha=1; fedavg_f is
beta=0 with per-client multipliers updated from local statistics; cenfair
is a single-shard federation over the pooled data with the federated
step budget (rounds x local epochs); indfair runs one single-shard
federation per client and evaluates the uniform mixture of the resulting
models; the mfairfl variants only override the projection order
(``order_policy="random"`` and ``"reversed"``). Every regime averages the
client update gradients 1/K.

``run_federated`` lays out every shard it trains on in
``fairness.key_order``, decides the run's constraint keys once, as a
``fairness.KeyTable`` over those blocks, and keeps the multipliers as arrays
aligned to it: an (n_keys,) global vector and, for fedavg_f, a (K, n_keys)
array with one row per client. A client is its position k in the shard
list: its block of the table, its multiplier row and its entries in the
round records all sit at k. ``TrainResult`` and the round records name
the multipliers by the keys' ``to_str``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import client as client_mod
from . import fairness, model
from .aggregation import ORDER_POLICIES, RoundRecord, server_round, update_lambda
from .client import ClientStatistics
from .data import Dataset, pool_shards
from .fairness import KeyTable
from .model import MlpParams, MlpSpec
from .numeric import check_int, make_rng


@dataclass
class Hyperparameters:
    """The training hyperparameters, with every range check on them."""

    hidden_dims: tuple[int, ...] = (32, 32, 32, 32)
    rounds: int = 10
    local_epochs: int = 20
    eta: float = 0.05            # local and server step on the parameters
    gamma: float = 0.5           # dual-ascent step on the multipliers
    alpha: float = 0.05          # fairness tolerance inside h(w)
    beta: float = 0.6            # fraction of clients whose gradients get adjusted
    delta: float = 0.01          # EMA decay of the similarity goals
    constraint: str = "dp"       # one of fairness.CONSTRAINT_METRICS

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Refuse out-of-range values, and integer settings that are not
        integers. Runs when the config is built; ``harness.run`` runs it
        again, for fields edited since."""
        self.hidden_dims = model.check_hidden_dims(self.hidden_dims)
        self.rounds = check_int(self.rounds, "rounds", 1)
        self.local_epochs = check_int(self.local_epochs, "local_epochs", 1)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not (0.0 < self.eta < math.inf and 0.0 <= self.gamma < math.inf and 0.0 <= self.alpha < math.inf):
            raise ValueError(
                f"eta={self.eta} must be finite and > 0, gamma={self.gamma} and alpha={self.alpha} finite and >= 0"
            )
        if self.constraint not in fairness.CONSTRAINT_METRICS:
            raise ValueError(f"unknown constraint {self.constraint!r}; one of {fairness.CONSTRAINT_METRICS}")


@dataclass
class TrainConfig(Hyperparameters):
    """Everything one training run needs, independent of the dataset.
    ``aggregation.server_round`` reads alpha, gamma, order_policy, beta,
    eta and delta from it."""

    seed: int = 1
    order_policy: str = "loss_ascending"

    def check(self) -> None:
        super().check()
        if self.order_policy not in ORDER_POLICIES:
            raise ValueError(f"unknown order policy {self.order_policy!r}; one of {ORDER_POLICIES}")


@dataclass
class TrainedModel:
    """A trained parameter vector (or a uniform mixture of several)."""

    spec: MlpSpec
    params_list: list[np.ndarray]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged probabilities: the deterministic surrogate for drawing
        one member model uniformly at random per prediction."""
        probs = [
            model.predict_proba(MlpParams.unflatten(self.spec, p), X) for p in self.params_list
        ]
        return np.mean(np.stack(probs, axis=0), axis=0)


@dataclass
class TrainResult:
    """A trained model with its per-round records. ``client_s`` and
    ``server_s`` are the wall seconds spent in the client phase (every
    client's local steps) and the server phase (aggregation and dual step)
    summed over rounds; they vary run to run, so no byte-stable output
    holds them."""

    model: TrainedModel
    rounds: list[RoundRecord]
    multipliers: dict
    client_s: float = 0.0
    server_s: float = 0.0


def run_federated(
    shards: Sequence[Dataset],
    cfg: TrainConfig,
    local_multipliers: bool = False,
) -> TrainResult:
    """The communication loop shared by every federated regime.

    ``local_multipliers`` switches the dual update from one global vector
    (server-side, merged statistics) to per-client vectors updated from
    each client's own statistics (the fair-local-training baseline). The
    final multipliers are returned by key name: one dict, or one per
    client index. An empty shard is refused before the first round; each
    is trained on as a copy in ``fairness.key_order``. Every local step
    writes into one ``model.Workspace``, sized to the largest shard and
    built here, in the training path alone.
    """
    if not shards:
        raise ValueError("need at least one shard")
    client_mod.check_shards(shards)
    shards = [s.take(fairness.key_order(s.y, s.S)) for s in shards]
    input_dim = shards[0].X.shape[1]
    spec = MlpSpec(input_dim, cfg.hidden_dims)
    flat = MlpParams.init(spec, cfg.seed).flat
    work = model.Workspace(spec, max(len(s) for s in shards))

    table = KeyTable.build([(s.y, s.S) for s in shards], shards[0].group_names, cfg.constraint)
    K = len(shards)
    lam_global = np.zeros(len(table.keys))
    lam_local = np.zeros((K, len(table.keys)))
    goals = np.zeros((K, K))  # pairwise similarity goals, symmetric
    order_rng = make_rng(cfg.seed, 0x0D) if cfg.order_policy == "random" else None
    # per-client multipliers: a plain averaging server, whose multipliers stay 0
    server_cfg = replace(cfg, gamma=0.0) if local_multipliers else cfg

    records: list[RoundRecord] = []
    client_s = server_s = 0.0
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        params_t = MlpParams(spec, flat)  # no client writes the parameters it receives
        stats: list[ClientStatistics] = [
            client_mod.compute_statistics(
                params_t,
                lam_local[k] if local_multipliers else lam_global,
                shard,
                table,
                k,
                epochs=cfg.local_epochs,
                lr=cfg.eta,
                work=work,
            )
            for k, shard in enumerate(shards)
        ]
        served = time.perf_counter()
        client_s += served - started
        flat, lam_global, goals, record = server_round(
            flat, lam_global, stats, table, server_cfg, goals, rng=order_rng, round_index=t
        )
        if local_multipliers:
            h = fairness.constraint_values(np.stack([st.fairness.groups for st in stats]), table.families, cfg.alpha)
            lam_local = update_lambda(lam_local, h, cfg.gamma)
        server_s += time.perf_counter() - served
        records.append(record)

    names = table.names()
    if local_multipliers:
        multipliers = {k: dict(zip(names, row)) for k, row in enumerate(lam_local.tolist())}
    else:
        multipliers = dict(zip(names, lam_global.tolist()))
    return TrainResult(TrainedModel(spec, [flat]), records, multipliers, client_s, server_s)


def run_fedavg_f(shards: Sequence[Dataset], cfg: TrainConfig) -> TrainResult:
    """Locally fair training: per-client dual ascent."""
    return run_federated(shards, cfg, local_multipliers=True)


def run_cenfair(shards: Sequence[Dataset], cfg: TrainConfig) -> TrainResult:
    """Constrained training on the pooled data as a single-shard federation,
    with the federated budget of rounds x local epochs full-batch steps."""
    return run_federated([pool_shards(shards)], cfg)


def run_indfair(shards: Sequence[Dataset], cfg: TrainConfig) -> TrainResult:
    """Independent per-client constrained training; the population model is
    the uniform mixture of the client models (averaged probabilities)."""
    results = [run_federated([s], cfg) for s in shards]
    spec = results[0].model.spec
    mixture = TrainedModel(spec, [r.model.params_list[0] for r in results])
    all_rounds = [rec for r in results for rec in r.rounds]
    return TrainResult(
        mixture, all_rounds, {k: r.multipliers for k, r in enumerate(results)},
        client_s=sum(r.client_s for r in results), server_s=sum(r.server_s for r in results),
    )


# name -> (runner, TrainConfig overrides)
REGIMES = {
    "fedavg": (run_federated, {"beta": 0.0, "gamma": 0.0, "alpha": 1.0}),
    "fedavg_f": (run_fedavg_f, {"beta": 0.0}),
    "indfair": (run_indfair, {}),
    "cenfair": (run_cenfair, {}),
    "mfairfl": (run_federated, {}),
    "mfairfl_rnd": (run_federated, {"order_policy": "random"}),
    "mfairfl_rev": (run_federated, {"order_policy": "reversed"}),
}


def train(regime: str, shards: Sequence[Dataset], cfg: TrainConfig) -> TrainResult:
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; one of {tuple(REGIMES)}")
    runner, overrides = REGIMES[regime]
    return runner(shards, replace(cfg, **overrides))
