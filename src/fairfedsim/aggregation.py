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

Coordinates. Every working gradient stays in the span of the K raw
gradients (the rows of R), so the sweep never touches a D-length vector.
The K x K Gram matrix G = R R^T is factored once a round by pivoted
Cholesky (LAPACK ``dpstrf``) into C (K x rank) with C C^T = G: row i of C
holds the coordinates of raw gradient i in an orthonormal basis of
span(R), where inner products and norms are those of D space. Each
working gradient is an explicit coordinate row, an adjustment
w_k -= c g_j is w_k -= c C[j], and every norm and cosine is read from
these rows, so each cosine is as accurate as one taken in D space.
Updating the inner products u = G a_k of a coefficient row a_k instead
would square the rounding error (cosines off by 2.6e-8 relative on a
D = 3 input). The D-space mean is formed once, as the plain mean minus the
sum of the adjustments c g_j over K, so a round without adjustments
returns the plain mean bit for bit.

Wavefront order. Let q be the position of the adjusted client k_q and t
that of the target k_t in the order. In sequence the sweep runs the pairs
(q, t) client by client and target by target. Here pair (q, t) runs at
step tau = 2q + t, and all pairs of one step run as one vector operation.
That gives the sequential results exactly, because
  * pair (q, t) reads and writes only the goal of {k_q, k_t} and working
    gradient k_q (its target is a raw gradient);
  * the only other pair on that goal is (t, q): for t < q it runs at
    2t + q < tau, before (q, t), and for t > q after it, as in sequence;
  * the client's previous test, (q, t - 1), runs at tau - 1 (or (q, t - 2)
    at tau - 2 when t - 1 = q);
  * the pairs of one step have distinct clients, so no two share a
    working gradient or a goal entry.
Tests are reported in sequential order (``PairTests``).

Cost: O(K^2 D) for G, O(K^3) for its factor, and at most
2 ceil(beta K) + K - 3 steps of O(K rank) work each (217 at K = 100,
beta = 0.6) in place of ceil(beta K) (K - 1) scalar tests (5,940). The
sequential sweep on D-length vectors, O(ceil(beta K) K D), is kept as the
reference ``oracles.diminish_conflicts_dspace``.

Saturated goals: a goal within ``GOAL_SATURATION_EPS`` (1e-9) of +-1 counts as
met, so its pair test never adjusts. Near +1 the adjustment divides by
sqrt(1 - goal^2); two clients with identical gradients drive their goal to
exactly 1, and a later cosine of 1 - 1 ulp would otherwise ask for a
singular rotation. Near -1 any cosine already meets the goal.

Anti-parallel pairs: a cosine within ``GOAL_SATURATION_EPS`` of -1 is not
adjusted either. A working gradient anti-parallel to its target has no
component perpendicular to it, so there is no plane to rotate in: the
adjustment would return the zero vector and drop the client from the
curated mean. The pair's goal is still EMA-updated, and the conflict
counts of a ``RoundRecord`` still count it.

Tie tolerance: the conflict counts of a ``RoundRecord`` count a pair only
when its cosine is below goal - ``CONFLICT_TIE_TOL`` (1e-9), because each
adjusted working gradient ends exactly on its last goal and rounding would
otherwise decide those pairs. The sweep's own test stays phi < goal.

Rounding ties at delta near 0: with delta = 0 (allowed) or within rounding
of 0, a goal written by a test is the cosine it observed, so a later test
whose cosine equals it in exact arithmetic (the reverse pair of two
still-raw gradients, or a duplicated target) is a tie, and whether it
adjusts is decided by rounding. This sweep and the D-space reference may
decide such a tie differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpstrf

from .client import ClientStatistics
from .fairness import FairnessStatistics, GroupKey, constraint_values
# cosine is not called here; bench/tracer.py counts calls through
# aggregation.cosine, so the name stays
from .numeric import check_finite, cosine, mean_rows, norm  # noqa: F401

ORDER_POLICIES = ("loss_ascending", "random", "reversed")

GOAL_SATURATION_EPS = 1e-9  # saturated goals, anti-parallel pairs (module docstring)
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


def ema_update(state: SimilarityState, i, j, phi) -> SimilarityState:
    """One EMA step on the (i, j) goal, written symmetrically into ``state``
    (returned for chaining). ``i``, ``j`` and ``phi`` may be equal-length
    arrays of distinct pairs, which step every pair at once."""
    if (np.abs(phi) > 1.0).any():
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


def adjustment_coefficient(norm_k, norm_j, phi, goal):
    """The c for which cos(g_k - c * g_j, g_j) == goal, given ||g_k||,
    ||g_j|| and phi = cos(g_k, g_j); see the module docstring. Takes
    scalars or equal-length arrays (one pair per entry)."""
    if not np.logical_and(norm_k, norm_j).all():
        raise ValueError("cannot adjust zero-norm gradients")
    if (np.abs(goal) >= 1.0).any():
        raise ValueError("similarity goal of +-1 makes the adjustment singular")
    root_goal = np.sqrt(1.0 - goal * goal)
    return norm_k * (phi * root_goal - goal * np.sqrt(np.maximum(0.0, 1.0 - phi * phi))) / (norm_j * root_goal)


def adjust_gradient(g_k: np.ndarray, g_j: np.ndarray, phi: float, goal: float) -> np.ndarray:
    """Rotate-and-rescale g_k against target g_j so cos(result, g_j) == goal."""
    out = g_k - adjustment_coefficient(norm(g_k), norm(g_j), phi, goal) * g_j
    check_finite(out, "adjusted gradient")
    return out


def is_conflict(phi, goal):
    """The sweep's test: phi < goal, with saturated goals counting as met
    and anti-parallel pairs left alone (module docstring). Takes scalars
    or equal-length arrays."""
    return (phi > -1.0 + GOAL_SATURATION_EPS) & (phi < goal) & (np.abs(goal) < 1.0 - GOAL_SATURATION_EPS)


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
        h = constraint_values(st.fairness, alpha)
        out[st.client_id] = st.loss + sum(float(lam.get(k, 0.0)) * v for k, v in h.items())
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
class PairTests:
    """The conflict tests of one sweep, one entry per test, in sweep order:
    client by client in the order, each against its targets in the order."""

    client: np.ndarray
    target: np.ndarray
    phi: np.ndarray
    goal: np.ndarray
    adjusted: np.ndarray

    def __post_init__(self):
        self.client = np.asarray(self.client, dtype=np.int64)
        self.target = np.asarray(self.target, dtype=np.int64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.goal = np.asarray(self.goal, dtype=np.float64)
        self.adjusted = np.asarray(self.adjusted, dtype=bool)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "PairTests":
        """From (client, target, phi, goal, adjusted) tuples in sweep order."""
        return cls(*(list(zip(*rows)) or [()] * 5))

    def __len__(self) -> int:
        return len(self.client)


@dataclass
class DiminishResult:
    """The curated mean, the plain mean of the raw gradients and the goals
    after the sweep. With R the raw gradients as rows in client id order,
    ``coords`` holds their coordinates (``coords @ coords.T`` equals R R^T)
    and ``working`` the curated working gradients' coordinates in the same
    basis."""

    gradient: np.ndarray
    plain_mean: np.ndarray
    state: SimilarityState
    n_adjustments: int
    tests: PairTests
    coords: np.ndarray
    working: np.ndarray


def selected_count(n_clients: int, beta: float) -> int:
    """How many clients at the front of the order the sweep adjusts,
    ceil(beta * K); the rest keep their raw gradients."""
    return math.ceil(beta * n_clients)


def _coordinates(raw: np.ndarray) -> np.ndarray:
    """C (K x rank) with C C^T = R R^T: the pivoted Cholesky factor of the
    Gram matrix, rows back in the order of R. ``dpstrf`` stops at a pivot
    below K * eps * max_i ||r_i||^2, which sets the rank; a zero row of R
    gets a zero row of C."""
    gram = raw @ raw.T
    check_finite(gram, "Gram matrix")
    factor, piv, rank, info = dpstrf(gram, lower=1)
    if info < 0:
        raise ValueError(f"dpstrf rejected argument {-info}")
    coords = np.empty((len(raw), rank))
    coords[piv - 1] = np.tril(factor)[:, :rank]
    return coords


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ki,ki->k", m, m))


def _wavefront(order: np.ndarray, n_selected: int, testable: np.ndarray):
    """Every pair test (q, t) of the sweep, with q the position of the
    adjusted client and t that of the target, grouped into steps
    tau = 2q + t. Returns the clients, the targets and each test's index
    in sweep order, all in step order, and the start of every step."""
    K = len(order)
    q, t = np.divmod(np.arange(n_selected * K), K)
    seq = np.flatnonzero((q != t) & testable[order[q]] & testable[order[t]])
    q, t = q[seq], t[seq]
    by_step = np.argsort(2 * q + t, kind="stable")
    tau = (2 * q + t)[by_step]
    starts = np.flatnonzero(np.diff(tau, prepend=-1))
    return order[q[by_step]], order[t[by_step]], seq[by_step], np.append(starts, len(tau))


def diminish_conflicts_arrays(
    grads: Mapping[int, np.ndarray],
    order: Sequence[int],
    beta: float,
    state: SimilarityState,
) -> DiminishResult:
    """The conflict-mitigation sweep on raw gradient arrays, on orthonormal
    coordinates and in wavefront order (module docstring).

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
    coords = _coordinates(raw)
    raw_norm = _row_norms(coords)
    working = coords.copy()
    norm_w = raw_norm.copy()
    out_state = state.copy()
    goals = out_state.goals
    # a zero-norm side has no direction: nothing to test or observe
    clients, targets, seq, starts = _wavefront(
        np.asarray(order, dtype=np.int64), selected_count(K, beta), raw_norm > 0.0
    )
    tested = np.ones(len(seq), dtype=bool)
    phis, seen = np.zeros(len(seq)), np.zeros(len(seq))
    adjusted = np.zeros(len(seq), dtype=bool)
    moves = []  # (clients, targets, c) of the steps that adjusted
    vanished = False  # whether some working gradient was driven to zero norm
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        step = slice(lo, hi)
        k, i = clients[step], targets[step]
        norm_k = norm_w[k]
        if vanished and not norm_k.all():  # a vanished working gradient tests no more
            tested[step] = norm_k > 0.0
            step = lo + np.flatnonzero(norm_k)
            k, i, norm_k = clients[step], targets[step], norm_w[clients[step]]
        w, g, norm_i = working[k], coords[i], raw_norm[i]
        phi = np.minimum(np.maximum(np.einsum("ki,ki->k", w, g) / (norm_k * norm_i), -1.0), 1.0)
        goal = goals[k, i]
        conflict = is_conflict(phi, goal)
        if conflict.any():
            # phi = goal = 0 gives c = 0: the pairs without a conflict keep w
            c = adjustment_coefficient(norm_k, norm_i, np.where(conflict, phi, 0.0), np.where(conflict, goal, 0.0))
            moved = w - c[:, None] * g
            working[k] = moved
            norm_w[k] = moved_norm = _row_norms(moved)
            vanished = vanished or 0.0 in moved_norm
            moves.append((k, i, c))
        ema_update(out_state, k, i, phi)
        phis[step], seen[step], adjusted[step] = phi, goal, conflict
    n_adjustments = int(np.count_nonzero(adjusted))
    in_order = np.argsort(seq)
    in_order = in_order[tested[in_order]]
    tests = PairTests(clients[in_order], targets[in_order], phis[in_order], seen[in_order], adjusted[in_order])
    plain_mean = mean_rows(raw)
    gradient = plain_mean
    if n_adjustments:
        # take the adjustments off alone, so an unadjusted round is the plain mean bit for bit
        shifts = np.zeros((K, K))  # shifts[k, i]: the multiple of g_i taken off w_k
        kc, ic, c = (np.concatenate(m) for m in zip(*moves))
        shifts[kc, ic] = c
        gradient = gradient - (shifts.sum(axis=0) / K) @ raw
        check_finite(gradient, "curated gradient")
    return DiminishResult(gradient, plain_mean, out_state, n_adjustments, tests, coords, working)


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
    return diminish_conflicts_arrays(grads, list(order.order), config.beta, state)


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


def _count_conflicts(working: np.ndarray, coords: np.ndarray, goals: np.ndarray) -> int:
    """Pairs (k, i), k != i, with cos(w_k, g_i) < goals[k, i] - CONFLICT_TIE_TOL,
    where row k of ``working`` and row i of ``coords`` are the coordinates
    of w_k and g_i in one basis; a zero-norm side is no conflict."""
    dots = working @ coords.T
    scale = np.outer(_row_norms(working), _row_norms(coords))
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
    # domain cells with no members anywhere in the population carry no
    # constraint; the supported key set is a data property, constant in t
    h_global = constraint_values(merged, config.alpha)
    new_lam = update_lambda(lam, h_global, config.gamma)

    losses = lagrangian_losses(stats, lam, config.alpha)
    order = build_order(losses, config.order_policy, rng)
    result = diminish_conflicts(stats, order, config, state)

    target_norm = norm(result.plain_mean)
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
        conflicts_pre=_count_conflicts(result.coords, result.coords, state.goals),
        conflicts_post=_count_conflicts(result.working, result.coords, state.goals),
        g_global_norm=norm(g_global),
    )
    return new_params, new_lam, result.state, record
