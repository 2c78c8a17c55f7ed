"""The server: dual ascent, projection ordering, conflict curation, update.

Each round the server (1) takes one projected dual-ascent step on the
multipliers using the globally merged fairness statistics, (2) orders
clients by ascending Lagrangian loss, (3) sweeps the selected clients'
gradients against every raw gradient in that order, adjusting a working
gradient whenever its cosine falls below the pairwise EMA similarity goal,
(4) rescales the curated mean back to the magnitude of the plain mean,
and (5) applies the global step.

The adjustment sets the cosine of (working, target) exactly to the goal:
with phi the observed cosine and goal the target, the working gradient g_k
loses the component

    ||g_k|| * (phi * sqrt(1 - goal^2) - goal * sqrt(1 - phi^2))
    --------------------------------------------------------- * g_j
                 ||g_j|| * sqrt(1 - goal^2)

along the raw target g_j.

The sweep runs in Gram space. Every working gradient stays in the span of
the K raw gradients (the rows of R), w_k = a_k . R, so one K x K Gram
matrix G = R R^T holds every inner product the sweep needs. Each selected
client keeps its coefficient vector a_k and u = G a_k, the inner products
of w_k with every raw gradient; a pair test reads
phi = u[i] / (||w_k|| sqrt(G_ii)) with ||w_k||^2 = a_k . u, and an
adjustment changes one coefficient and updates u by one row of G. Only the
final mean is formed in D space. A round costs O(K^2 D) for G plus
O(ceil(beta K) K^2) for the sweep, against O(ceil(beta K) K D) for the
same sweep on D-length vectors (kept as ``oracles.diminish_conflicts_dspace``).

Saturated goals: a goal within ``GOAL_SATURATION_EPS`` (1e-9) of +-1 counts as
met, so its pair test never adjusts. Near +1 the adjustment divides by
sqrt(1 - goal^2); two clients with identical gradients drive their goal to
exactly 1, and a later cosine of 1 - 1 ulp would otherwise ask for a
singular rotation. Near -1 any cosine already meets the goal.

Tie tolerance: the conflict counts of a ``RoundRecord`` count a pair only
when its cosine is below goal - ``CONFLICT_TIE_TOL`` (1e-9), because each
adjusted working gradient ends exactly on its last goal and rounding would
otherwise decide those pairs. The sweep's own test stays phi < goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .client import ClientStatistics
from .fairness import FairnessStatistics, GroupKey, constraint_values, restrict, usable_keys
# cosine is not called here; bench/tracer.py counts calls through
# aggregation.cosine, so the name stays
from .numeric import check_finite, cosine, mean_rows, norm  # noqa: F401

ORDER_POLICIES = ("loss_ascending", "random", "reversed")

GOAL_SATURATION_EPS = 1e-9  # |goal| >= 1 - eps counts as met (module docstring)
CONFLICT_TIE_TOL = 1e-9     # conflict counts need cos < goal - tol (RoundRecord)


class DegenerateCancellationError(ArithmeticError):
    """The curated gradient vanished while the plain mean did not."""


@dataclass
class AggregationConfig:
    beta: float = 0.6            # fraction of clients whose gradients get adjusted
    delta: float = 0.01          # EMA decay of the similarity goals
    gamma: float = 0.5           # dual-ascent step on the multipliers
    eta: float = 0.05            # server step on the parameters
    alpha: float = 0.05          # fairness tolerance inside h(w)
    order_policy: str = "loss_ascending"
    spare_high_loss: bool = False  # alternate beta reading: worst clients keep raw gradients
    weighted_mean: bool = False    # sample-size weights on the beta=0 averaging path

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.gamma < 0.0 or self.eta <= 0.0:
            raise ValueError("gamma must be >= 0 and eta > 0")
        if self.order_policy not in ORDER_POLICIES:
            raise ValueError(f"unknown order policy {self.order_policy!r}")


class SimilarityState:
    """Pairwise EMA similarity goals, persistent across rounds, symmetric."""

    def __init__(self, n_clients: int, delta: float, goals: Optional[np.ndarray] = None):
        if goals is None:
            goals = np.zeros((n_clients, n_clients))
        goals = np.asarray(goals, dtype=np.float64)
        if goals.shape != (n_clients, n_clients):
            raise ValueError("goals matrix shape mismatch")
        if np.abs(goals).max(initial=0.0) > 1.0:
            raise ValueError("similarity goals must lie in [-1, 1]")
        self.n_clients = n_clients
        self.delta = float(delta)
        self.goals = goals

    def copy(self) -> "SimilarityState":
        return SimilarityState(self.n_clients, self.delta, self.goals.copy())

    def get(self, i: int, j: int) -> float:
        return float(self.goals[i, j])


def ema_update(state: SimilarityState, i: int, j: int, phi: float) -> SimilarityState:
    """One EMA step on the (i, j) goal, written symmetrically into ``state``
    (returned for chaining)."""
    if abs(phi) > 1.0:
        raise ValueError(f"observed cosine {phi} outside [-1, 1]")
    goals = state.goals
    new = state.delta * goals[i, j] + (1.0 - state.delta) * phi
    goals[i, j] = new
    goals[j, i] = new
    return state


def update_lambda(
    lam: Mapping[GroupKey, float], h: Mapping[GroupKey, float], gamma: float
) -> dict[GroupKey, float]:
    """Projected dual ascent: lambda' = max(0, lambda + gamma * h) per key.

    The projection is not in the paper's update rule but inequality
    multipliers must stay nonnegative for the relaxation to lower-bound
    the constrained problem.
    """
    if set(lam) != set(h):
        raise ValueError("multiplier and constraint key sets differ")
    return {k: max(0.0, lam[k] + gamma * h[k]) for k in lam}


def adjustment_coefficient(norm_k: float, norm_j: float, phi: float, goal: float) -> float:
    """The c for which cos(g_k - c * g_j, g_j) == goal, given ||g_k||,
    ||g_j|| and phi = cos(g_k, g_j); see the module docstring."""
    if norm_k == 0.0 or norm_j == 0.0:
        raise ValueError("cannot adjust zero-norm gradients")
    if abs(goal) >= 1.0:
        raise ValueError("similarity goal of +-1 makes the adjustment singular")
    root_goal = math.sqrt(1.0 - goal * goal)
    return norm_k * (phi * root_goal - goal * math.sqrt(max(0.0, 1.0 - phi * phi))) / (norm_j * root_goal)


def adjust_gradient(g_k: np.ndarray, g_j: np.ndarray, phi: float, goal: float) -> np.ndarray:
    """Rotate-and-rescale g_k against target g_j so cos(result, g_j) == goal."""
    out = g_k - adjustment_coefficient(norm(g_k), norm(g_j), phi, goal) * g_j
    check_finite(out, "adjusted gradient")
    return out


def is_conflict(phi: float, goal: float) -> bool:
    """The sweep's test: phi < goal, with saturated goals counting as met."""
    return phi < goal and abs(goal) < 1.0 - GOAL_SATURATION_EPS


@dataclass
class ProjectionOrder:
    """Client ids in target order; position in this list is the theorem's k."""

    order: tuple[int, ...]
    policy: str = "loss_ascending"

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of the client ids")


def lagrangian_losses(
    stats: Sequence[ClientStatistics], lam: Mapping[GroupKey, float], alpha: float
) -> dict[int, float]:
    """l_k = L(D_k, w) + sum_s lambda_s h_s(w) from each client's own stats."""
    out = {}
    for st in stats:
        usable = usable_keys(st.fairness)
        penalty = 0.0
        if usable:
            h = constraint_values(restrict(st.fairness, usable), alpha)
            penalty = sum(float(lam.get(k, 0.0)) * h[k] for k in usable)
        out[st.client_id] = st.loss + penalty
    return out


def build_order(
    losses: Mapping[int, float],
    policy: str = "loss_ascending",
    rng: Optional[np.random.Generator] = None,
) -> ProjectionOrder:
    """Clients by ascending Lagrangian loss (ties broken by client id), or
    its seeded-random and reversed variants."""
    if policy not in ORDER_POLICIES:
        raise ValueError(f"unknown order policy {policy!r}")
    ascending = tuple(cid for cid, _ in sorted(losses.items(), key=lambda kv: (kv[1], kv[0])))
    if policy == "loss_ascending":
        return ProjectionOrder(ascending, policy)
    if policy == "reversed":
        return ProjectionOrder(tuple(reversed(ascending)), policy)
    if rng is None:
        raise ValueError("random order policy needs a generator")
    perm = rng.permutation(len(ascending))
    return ProjectionOrder(tuple(int(ascending[i]) for i in perm), policy)


@dataclass
class PairTest:
    """One conflict test inside the sweep (diagnostics and oracles)."""

    client: int
    target: int
    phi: float
    goal: float
    adjusted: bool


@dataclass
class DiminishResult:
    """The curated mean and the goals after the sweep. With R the raw
    gradients as rows in client id order, ``gram`` is R R^T and working
    gradient k is ``coefficients[k] @ R``."""

    gradient: np.ndarray
    state: SimilarityState
    n_adjustments: int
    tests: list[PairTest]
    gram: np.ndarray
    coefficients: np.ndarray


def selected_count(n_clients: int, beta: float, spare_high_loss: bool = False) -> int:
    """How many clients at the front of the order the sweep adjusts:
    ceil(beta * K), or, with ``spare_high_loss`` (an alternate reading of
    beta), all but the ceil(beta * K) at the back, which keep raw gradients."""
    count = math.ceil(beta * n_clients)
    return n_clients - count if spare_high_loss else count


def diminish_conflicts_arrays(
    grads: Mapping[int, np.ndarray],
    order: Sequence[int],
    beta: float,
    state: SimilarityState,
    *,
    spare_high_loss: bool = False,
) -> DiminishResult:
    """The conflict-mitigation sweep on raw gradient arrays, in Gram space.

    The first ``selected_count`` clients of the order have their working
    copies tested against every raw gradient in order (skipping self); a test
    observes the cosine of the current working gradient against the raw
    target, adjusts on conflict, and always EMA-updates the pair's goal.
    Returns the unweighted mean of the K working gradients.
    """
    K = len(order)
    if sorted(order) != list(range(state.n_clients)):
        raise ValueError("order must be a permutation of the state's client ids")
    raw = np.stack([np.asarray(grads[cid], dtype=np.float64) for cid in range(K)])
    gram = raw @ raw.T
    check_finite(gram, "Gram matrix")
    root_diag = np.sqrt(np.diag(gram)).tolist()
    coefficients = np.eye(K)
    out_state = state.copy()
    goals = out_state.goals
    tests: list[PairTest] = []
    n_adjustments = 0
    for k in order[: selected_count(K, beta, spare_high_loss)]:
        a = coefficients[k]  # a view: adjustments land in the matrix
        u = gram[k].copy()   # u[i] = w_k . g_i
        norm_w = root_diag[k]
        for i in order:
            if i == k:
                continue
            # a zero-norm side has no direction: nothing to test or observe
            if norm_w == 0.0 or root_diag[i] == 0.0:
                continue
            phi = min(1.0, max(-1.0, float(u[i]) / (norm_w * root_diag[i])))
            goal = float(goals[k, i])
            conflict = is_conflict(phi, goal)
            if conflict:
                c = adjustment_coefficient(norm_w, root_diag[i], phi, goal)
                a[i] -= c
                u -= c * gram[i]
                norm_w = math.sqrt(max(0.0, float(a @ u)))
                n_adjustments += 1
            ema_update(out_state, k, i, phi)
            tests.append(PairTest(k, i, phi, goal, conflict))
    gradient = mean_rows(raw)
    if n_adjustments:
        # add the adjustments alone, so an unadjusted round is the plain mean bit for bit
        gradient = gradient + ((coefficients - np.eye(K)).sum(axis=0) / K) @ raw
        check_finite(gradient, "curated gradient")
    return DiminishResult(gradient, out_state, n_adjustments, tests, gram, coefficients)


def diminish_conflicts(
    stats: Sequence[ClientStatistics],
    order: ProjectionOrder,
    config: AggregationConfig,
    state: SimilarityState,
) -> DiminishResult:
    if len(stats) < 1:
        raise ValueError("need at least one client")
    grads = {st.client_id: st.update_grad for st in stats}
    lengths = {g.shape for g in grads.values()}
    if len(lengths) != 1:
        raise ValueError("client gradients disagree on length")
    return diminish_conflicts_arrays(
        grads, list(order.order), config.beta, state, spare_high_loss=config.spare_high_loss
    )


@dataclass
class RoundRecord:
    """Per-round trace entry (serialized as one JSON line).

    ``conflicts_pre`` and ``conflicts_post`` count the ordered pairs (k, i),
    k != i, whose raw (pre) or curated working (post) gradient k has a
    cosine below goal - ``CONFLICT_TIE_TOL`` with raw gradient i, against
    the goals at the start of the round. The tolerance keeps rounding ties
    out of the counts: every adjusted working gradient ends exactly on its
    last goal. The sweep's own test is phi < goal, without a tolerance.
    """

    round_index: int
    client_losses: dict[int, float]
    lagrangian_losses: dict[int, float]
    multipliers: dict[str, float]
    order: tuple[int, ...]
    n_adjustments: int
    conflicts_pre: int
    conflicts_post: int
    g_global_norm: float

    def to_json(self) -> dict:
        return {
            "round": self.round_index,
            "client_losses": {str(k): v for k, v in sorted(self.client_losses.items())},
            "lagrangian_losses": {str(k): v for k, v in sorted(self.lagrangian_losses.items())},
            "lambda": dict(sorted(self.multipliers.items())),
            "order": list(self.order),
            "adjustments": self.n_adjustments,
            "conflicts_pre": self.conflicts_pre,
            "conflicts_post": self.conflicts_post,
            "g_global_norm": self.g_global_norm,
        }


def _count_conflicts(gram: np.ndarray, coefficients: np.ndarray, goals: np.ndarray) -> int:
    """Pairs (k, i), k != i, with cos(w_k, g_i) < goals[k, i] - CONFLICT_TIE_TOL,
    where w_k = coefficients[k] @ R and gram = R R^T; a zero-norm side is
    no conflict."""
    dots = coefficients @ gram
    root_w = np.sqrt(np.maximum(np.einsum("ki,ki->k", coefficients, dots), 0.0))
    scale = np.outer(root_w, np.sqrt(np.diag(gram)))
    tested = scale > 0.0
    np.fill_diagonal(tested, False)
    cos = np.clip(np.divide(dots, scale, out=np.zeros_like(dots), where=tested), -1.0, 1.0)
    return int(np.count_nonzero(tested & (cos < goals - CONFLICT_TIE_TOL)))


def server_round(
    params: np.ndarray,
    lam: Mapping[GroupKey, float],
    stats: Sequence[ClientStatistics],
    config: AggregationConfig,
    state: SimilarityState,
    rng: Optional[np.random.Generator] = None,
    round_index: int = 0,
) -> tuple[np.ndarray, dict[GroupKey, float], SimilarityState, RoundRecord]:
    """One full aggregation round; see the module docstring for the steps."""
    if not stats:
        raise ValueError("no client statistics")
    merged = FairnessStatistics.merge_all([st.fairness for st in stats])
    # domain cells with no support anywhere in the population carry no
    # constraint; the supported key set is a data property, constant in t
    h_global = constraint_values(restrict(merged, usable_keys(merged)), config.alpha)
    new_lam = update_lambda(lam, h_global, config.gamma)

    losses = lagrangian_losses(stats, lam, config.alpha)
    order = build_order(losses, config.order_policy, rng)
    result = diminish_conflicts(stats, order, config, state)

    raw = {st.client_id: st.update_grad for st in stats}
    if config.weighted_mean and config.beta == 0.0:
        weights = np.array([st.n_samples for st in sorted(stats, key=lambda s: s.client_id)], dtype=np.float64)
        stack = np.stack([raw[cid] for cid in sorted(raw)])
        raw_mean = (weights[:, None] * stack).sum(axis=0) / weights.sum()
        g_global = raw_mean
    else:
        raw_mean = mean_rows([raw[cid] for cid in sorted(raw)])
        target_norm = norm(raw_mean)
        curated_norm = norm(result.gradient)
        if curated_norm == 0.0:
            if target_norm > 0.0:
                raise DegenerateCancellationError(
                    "curated gradient cancelled to zero while the raw mean did not"
                )
            g_global = result.gradient
        else:
            g_global = result.gradient * (target_norm / curated_norm)

    check_finite(g_global, "global gradient")
    new_params = params - config.eta * g_global

    record = RoundRecord(
        round_index=round_index,
        client_losses={st.client_id: st.loss for st in stats},
        lagrangian_losses=losses,
        multipliers={k.to_str(): v for k, v in new_lam.items()},
        order=order.order,
        n_adjustments=result.n_adjustments,
        conflicts_pre=_count_conflicts(result.gram, np.eye(len(stats)), state.goals),
        conflicts_post=_count_conflicts(result.gram, result.coefficients, state.goals),
        g_global_norm=norm(g_global),
    )
    return new_params, new_lam, result.state, record
