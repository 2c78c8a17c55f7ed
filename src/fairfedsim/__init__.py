"""Deterministic simulator for fairness-constrained federated learning
with server-side gradient-conflict mitigation."""

__version__ = "0.1.0"

from .aggregation import (
    AggregationConfig,
    SimilarityState,
    adjust_gradient,
    diminish_conflicts,
    ema_update,
    server_round,
    update_lambda,
)
from .baselines import RegimeId, TrainConfig, TrainResult, train
from .client import ClientStatistics, compute_statistics, local_accuracy
from .data import Dataset, DatasetSchema, PartitionSpec, Shard, load_csv, partition, split_train_test, synthetic_dataset
from .fairness import (
    FairnessReport,
    FairnessStatistics,
    GroupKey,
    ap_violation,
    client_fairness_violation,
    constraint_grads,
    constraint_values,
    dp_violation,
    eo_violation,
)
from .harness import ExperimentConfig, RunRecord, paired_ttest, run
from .model import MlpParams, MlpSpec, forward, loss_and_grad, prob_and_grad
from .numeric import cosine, dot, make_rng, vec64
from .oracles import (
    Theorem2Instance,
    c2_bisection,
    finite_diff,
    theorem2_bound,
    theorem2_campaign,
    theorem2_check,
    theorem3_descent_check,
)
