"""Deterministic simulator for fairness-constrained federated learning
with server-side gradient-conflict mitigation."""

__version__ = "0.1.0"

from .aggregation import (
    adjust_gradient,
    diminish_conflicts,
    ema_update,
    server_round,
    update_lambda,
)
from .baselines import REGIMES, TrainConfig, TrainResult, train
from .client import ClientStatistics, compute_statistics, local_accuracy
from .data import Dataset, DatasetSchema, PartitionSpec, Shard, load_csv, partition, split_train_test, synthetic_dataset
from .fairness import (
    FairnessReport,
    FairnessStatistics,
    GroupKey,
    KeyTable,
    ap_violation,
    client_fairness_violation,
    constraint_grads,
    constraint_values,
    dp_violation,
    eo_violation,
)
from .harness import ExperimentConfig, RunRecord, paired_ttest, run
from .model import MlpParams, MlpSpec, loss_and_grad
from .numeric import cosine, make_rng
from .oracles import (
    Theorem2Instance,
    c2_bisection,
    finite_diff,
    theorem2_bound,
    theorem2_campaign,
    theorem2_check,
    theorem3_descent_check,
)
