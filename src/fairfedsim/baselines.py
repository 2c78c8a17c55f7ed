"""Training regimes: the conflict-mitigating federation and its baselines.

One federated engine drives everything, so the spec'd reductions hold
bitwise: fedavg is the engine with beta=0, gamma=0, alpha=1; fedavg_f is
beta=0 with per-client multipliers updated from local statistics; cenfair
is a single-shard federation over the pooled data with the federated
step budget (rounds x local epochs); indfair runs one single-shard
federation per client and evaluates the uniform mixture of the resulting
models; the mfairfl variants only change the projection order policy.
Every regime averages the client update gradients 1/K.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import client as client_mod
from . import fairness, model
from .aggregation import AggregationConfig, RoundRecord, SimilarityState, server_round, update_lambda
from .client import ClientStatistics
from .data import Dataset, Shard, pool_shards
from .fairness import GroupKey
from .model import MlpParams, MlpSpec
from .numeric import make_rng


class RegimeId(str, enum.Enum):
    FEDAVG = "fedavg"
    FEDAVG_F = "fedavg_f"
    INDFAIR = "indfair"
    CENFAIR = "cenfair"
    MFAIRFL = "mfairfl"
    MFAIRFL_RND = "mfairfl_rnd"
    MFAIRFL_REV = "mfairfl_rev"


@dataclass
class TrainConfig:
    """Everything one training run needs, independent of the dataset."""

    hidden_dims: tuple[int, ...] = (32, 32, 32, 32)
    rounds: int = 10
    local_epochs: int = 20
    eta: float = 0.05
    gamma: float = 0.5
    alpha: float = 0.05
    beta: float = 0.6
    delta: float = 0.01
    constraint: str = "dp"
    seed: int = 1

    def aggregation(self, order_policy: str = "loss_ascending") -> AggregationConfig:
        return AggregationConfig(
            beta=self.beta,
            delta=self.delta,
            gamma=self.gamma,
            eta=self.eta,
            alpha=self.alpha,
            order_policy=order_policy,
        )


@dataclass
class TrainedModel:
    """A trained parameter vector (or a uniform mixture of several)."""

    spec: MlpSpec
    params_list: list[np.ndarray]

    @property
    def is_mixture(self) -> bool:
        return len(self.params_list) > 1

    def single_params(self) -> MlpParams:
        if self.is_mixture:
            raise ValueError("mixture model has no single parameter vector")
        return MlpParams.unflatten(self.spec, self.params_list[0])

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
    constraint_keys: list[GroupKey] = field(default_factory=list)
    client_s: float = 0.0
    server_s: float = 0.0


def _global_constraint_keys(shards: Sequence[Shard], metric: str) -> list[GroupKey]:
    """Constraint keys with members in the pooled training population, in
    sorted key order; a key's members depend on the labels and groups only."""
    counts: dict[GroupKey, int] = {}
    for s in shards:
        for key, rows in client_mod.shard_key_rows(s, metric).items():
            counts[key] = counts.get(key, 0) + rows.size
    return sorted((k for k, n in counts.items() if n > 0), key=GroupKey.sort_key)


def run_federated(
    shards: Sequence[Shard],
    cfg: TrainConfig,
    order_policy: str = "loss_ascending",
    local_multipliers: bool = False,
) -> TrainResult:
    """The communication loop shared by every federated regime.

    ``local_multipliers`` switches the dual update from one global vector
    (server-side, merged statistics) to per-client vectors updated from
    each client's own statistics (the fair-local-training baseline).
    """
    if not shards:
        raise ValueError("need at least one shard")
    input_dim = shards[0].X.shape[1]
    spec = MlpSpec(input_dim, cfg.hidden_dims)
    params = MlpParams.init(spec, cfg.seed)
    flat = params.flatten()

    keys = _global_constraint_keys(shards, cfg.constraint)
    lam_global: dict[GroupKey, float] = {k: 0.0 for k in keys}
    lam_local: dict[int, dict[GroupKey, float]] = {
        s.client_id: {k: 0.0 for k in keys} for s in shards
    }
    K = len(shards)
    state = SimilarityState(K, cfg.delta)
    agg = cfg.aggregation(order_policy)
    order_rng = make_rng(cfg.seed, 0x0D) if order_policy == "random" else None

    records: list[RoundRecord] = []
    client_s = server_s = 0.0
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        params_t = MlpParams.unflatten(spec, flat)
        stats: list[ClientStatistics] = []
        for shard in shards:
            lam_k = lam_local[shard.client_id] if local_multipliers else lam_global
            stats.append(
                client_mod.compute_statistics(
                    params_t,
                    lam_k,
                    shard,
                    metric=cfg.constraint,
                    epochs=cfg.local_epochs,
                    lr=cfg.eta,
                )
            )
        served = time.perf_counter()
        client_s += served - started
        if local_multipliers:
            # plain averaging server: no global dual step, lambda stays per client
            flat, _, state, record = server_round(
                flat, {k: 0.0 for k in keys}, stats, replace(agg, gamma=0.0), state,
                rng=order_rng, round_index=t,
            )
            for st in stats:
                h_k = fairness.constraint_values(st.fairness, cfg.alpha)
                lam_k = lam_local[st.client_id]
                lam_k.update(update_lambda({k: lam_k[k] for k in h_k}, h_k, cfg.gamma))
        else:
            flat, lam_global, state, record = server_round(
                flat, lam_global, stats, agg, state, rng=order_rng, round_index=t
            )
        server_s += time.perf_counter() - served
        records.append(record)

    multipliers = lam_local if local_multipliers else lam_global
    return TrainResult(TrainedModel(spec, [flat]), records, multipliers, keys, client_s, server_s)


def run_mfairfl(shards: Sequence[Shard], cfg: TrainConfig) -> TrainResult:
    return run_federated(shards, cfg, order_policy="loss_ascending")


def run_mfairfl_variant(shards: Sequence[Shard], cfg: TrainConfig, order_policy: str) -> TrainResult:
    return run_federated(shards, cfg, order_policy=order_policy)


def run_fedavg(shards: Sequence[Shard], cfg: TrainConfig) -> TrainResult:
    """Classic averaging: constraints fully disabled, client update
    gradients averaged 1/K (no sample-size weights)."""
    return run_federated(shards, replace(cfg, beta=0.0, gamma=0.0, alpha=1.0))


def run_fedavg_f(shards: Sequence[Shard], cfg: TrainConfig) -> TrainResult:
    """Locally fair training, classic averaging: per-client dual ascent."""
    return run_federated(shards, replace(cfg, beta=0.0), local_multipliers=True)


def run_cenfair(dataset_or_shards, cfg: TrainConfig) -> TrainResult:
    """Constrained training on the pooled data as a single-shard federation,
    with the federated budget of rounds x local epochs full-batch steps."""
    if isinstance(dataset_or_shards, Dataset):
        pooled = dataset_or_shards
    else:
        pooled = pool_shards(list(dataset_or_shards))
    return run_federated([Shard(client_id=0, data=pooled)], cfg)


def run_indfair(shards: Sequence[Shard], cfg: TrainConfig) -> TrainResult:
    """Independent per-client constrained training; the population model is
    the uniform mixture of the client models (averaged probabilities)."""
    results = [
        run_federated([Shard(client_id=0, data=s.data)], cfg) for s in shards
    ]
    spec = results[0].model.spec
    mixture = TrainedModel(spec, [r.model.params_list[0] for r in results])
    all_rounds = [rec for r in results for rec in r.rounds]
    return TrainResult(
        mixture, all_rounds, {s.client_id: r.multipliers for s, r in zip(shards, results)},
        client_s=sum(r.client_s for r in results), server_s=sum(r.server_s for r in results),
    )


def train(regime: RegimeId | str, shards: Sequence[Shard], cfg: TrainConfig) -> TrainResult:
    regime = RegimeId(regime)
    if regime is RegimeId.FEDAVG:
        return run_fedavg(shards, cfg)
    if regime is RegimeId.FEDAVG_F:
        return run_fedavg_f(shards, cfg)
    if regime is RegimeId.INDFAIR:
        return run_indfair(shards, cfg)
    if regime is RegimeId.CENFAIR:
        return run_cenfair(shards, cfg)
    if regime is RegimeId.MFAIRFL:
        return run_mfairfl(shards, cfg)
    if regime is RegimeId.MFAIRFL_RND:
        return run_mfairfl_variant(shards, cfg, "random")
    if regime is RegimeId.MFAIRFL_REV:
        return run_mfairfl_variant(shards, cfg, "reversed")
    raise ValueError(f"unhandled regime {regime}")


# regimes whose global model serves every client, hence get a CF score
CLIENT_FAIRNESS_REGIMES = frozenset(
    {RegimeId.FEDAVG, RegimeId.FEDAVG_F, RegimeId.MFAIRFL, RegimeId.MFAIRFL_RND, RegimeId.MFAIRFL_REV}
)
