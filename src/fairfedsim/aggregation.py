"""The server: dual ascent, projection ordering, conflict curation, update.

Each round the server (1) takes one projected dual-ascent step on the
multipliers using the globally merged fairness statistics, (2) orders
clients by ascending Lagrangian loss, (3) sweeps the selected clients'
gradients against every raw gradient in that order, adjusting a working
gradient whenever its cosine falls below the pairwise EMA similarity goal,
(4) rescales the curated mean back to the magnitude of the plain mean,
and (5) applies the global step.

The multipliers are an (n_keys,) vector and every client's fairness
statistics an (n_keys, 2) array, both aligned to the run's
``fairness.KeyTable``, built once per run from its shards. The server
reads the table's family indices to form h and its key names to log the
multipliers. A key without members in a block has h = 0 there, so the dual
step leaves its multiplier as it is.

A round is set by the run's ``baselines.TrainConfig``, of which
``server_round`` reads six fields: ``alpha`` (the fairness tolerance
inside h), ``gamma`` (the dual step), ``order_policy`` (the projection
order, checked in ``build_order``), ``beta`` (the fraction of the order
that is swept), ``eta`` (the server step) and ``delta`` (the goals' EMA
decay). The goals are a symmetric K x K array in [-1, 1] that the run
keeps across rounds. ``diminish_conflicts(grads, order, beta, goals,
delta)`` is the sweep's one entry point; it refuses goals of another
shape or outside [-1, 1] and an order that is not a permutation.

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
Cholesky into C (K x rank) with C C^T = G: row i of C holds the
coordinates of raw gradient i in an orthonormal basis of span(R), where
inner products and norms are those of D space. The factor is numpy code
that follows LAPACK's ``dpstf2`` (Higham 1990): each column pivots on the
largest residual diagonal G[i, i] - sum_c C[i, c]^2 among the rows not
yet pivoted (a tie goes to the row ``dpstf2``'s swaps put first), and
the factor stops at a residual <= K 2^-53 max_i G[i, i], which sets the
rank. Rows are never swapped, only marked as pivoted, so C comes out in
the order of R; swapping rows of a K x K array each column cost three
times as much at K = 100. Each working gradient is an explicit
coordinate row, an adjustment w_k -= c g_j is w_k -= c C[j], and every
norm and cosine is read from these rows, so each cosine is as accurate
as one taken in D space.
Updating the inner products u = G a_k of a coefficient row a_k instead
would square the rounding error (cosines off by 2.6e-8 relative on a
D = 3 input). The D-space mean is formed once, as the plain mean minus the
sum of the adjustments c g_j over K, so a round without adjustments
returns the plain mean bit for bit.

Wavefront order. Let q be the position of the adjusted client k_q and t
that of the target k_t in the order, with n = ceil(beta K) swept
positions. In sequence the sweep runs the pairs (q, t) client by client
and target by target. Here pair (q, t) runs at step tau = 2q + t, for
tau = 0 .. 2n + K - 3, over the positions
q = max(0, floor((tau - K + 2) / 2)) .. min(n - 1, floor(tau / 2)) with
t = tau - 2q, and all pairs of one step run as one vector operation.
That gives the sequential results exactly, because
  * pair (q, t) reads and writes only the goal of {k_q, k_t} and working
    gradient k_q (its target is a raw gradient);
  * the only other pair on that goal is (t, q): for t < q it runs at
    2t + q < tau, before (q, t), and for t > q after it, as in sequence;
  * the client's previous test, (q, t - 1), runs at tau - 1 (or (q, t - 2)
    at tau - 2 when t - 1 = q);
  * the pairs of one step have distinct clients, so no two share a
    working gradient or a goal entry.
One mask picks a step's live pairs: q != t, and both the working
gradient and the raw target of nonzero norm. It skips the diagonal, zero
raw gradients and working gradients driven to zero, none of which has a
direction to test; a step without a live pair is skipped whole. Every
result is written into an n x K grid at [q, t], and the grid read
row-major is the sequential order in which tests are reported
(``PairTests``).

Cost: O(K^2 D) for G, O(K^2 rank) for its factor (about 0.7 ms at
K = 100, one numpy step per column), and at most
2 ceil(beta K) + K - 3 steps with a live pair (step 0 holds only the
diagonal), of O(K rank) work each (217 at K = 100, beta = 0.6), in place
of ceil(beta K) (K - 1) scalar tests (5,940). The sequential sweep on
D-length vectors, O(ceil(beta K) K D), is kept as the reference
``oracles.diminish_conflicts_dspace``.

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
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from .client import ClientStatistics
from .fairness import FairnessStatistics, KeyTable, constraint_values
# cosine is not called here; bench/tracer.py counts calls through
# aggregation.cosine, so the name stays
from .numeric import check_finite, cosine, mean_rows, norm  # noqa: F401

if TYPE_CHECKING:  # baselines imports this module
    from .baselines import TrainConfig

ORDER_POLICIES = ("loss_ascending", "random", "reversed")

GOAL_SATURATION_EPS = 1e-9  # saturated goals, anti-parallel pairs (module docstring)
CONFLICT_TIE_TOL = 1e-9     # conflict counts need cos < goal - tol (RoundRecord)


class DegenerateCancellationError(ArithmeticError):
    """The curated gradient cancelled to within rounding of zero (at most
    K 2^-52 times the longest working gradient) while the plain mean did not."""


def ema_update(goals: np.ndarray, delta: float, i, j, phi) -> None:
    """One EMA step with decay ``delta`` on the (i, j) goal, written
    symmetrically into ``goals`` in place. ``i``, ``j`` and ``phi`` may be
    equal-length arrays of distinct pairs, which step every pair at once."""
    if (np.abs(phi) > 1.0).any():
        raise ValueError(f"observed cosine {phi} outside [-1, 1]")
    new = delta * goals[i, j] + (1.0 - delta) * phi
    goals[i, j] = new
    goals[j, i] = new


def update_lambda(lam: np.ndarray, h: np.ndarray, gamma: float) -> np.ndarray:
    """Projected dual ascent: lambda' = max(0, lambda + gamma * h) per key,
    on arrays aligned to the run's key table (one vector, or one row per
    client). A key with h = 0 keeps its multiplier.

    The projection is not in the paper's update rule but inequality
    multipliers must stay nonnegative for the relaxation to lower-bound
    the constrained problem.
    """
    return np.maximum(0.0, lam + gamma * h)


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


def lagrangian_losses(
    stats: Sequence[ClientStatistics], lam: np.ndarray, families: np.ndarray, alpha: float
) -> dict[int, float]:
    """l_k = L(D_k, w) + sum_s lambda_s h_s(w) from each client's own
    stats, summed in key order; h is 0 on a key without members on the
    client, so such a key adds nothing."""
    out = {}
    for st in stats:
        h = constraint_values(st.fairness, families, alpha)
        out[st.client_id] = st.loss + sum((lam * h).tolist())
    return out


def build_order(
    losses: Mapping[int, float],
    policy: str = "loss_ascending",
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, ...]:
    """Client ids in target order (position in it is the theorem's k):
    by ascending Lagrangian loss, ties broken by client id, or its
    seeded-random and reversed variants."""
    if policy not in ORDER_POLICIES:
        raise ValueError(f"unknown order policy {policy!r}")
    ascending = tuple(cid for cid, _ in sorted(losses.items(), key=lambda kv: (kv[1], kv[0])))
    if policy == "loss_ascending":
        return ascending
    if policy == "reversed":
        return tuple(reversed(ascending))
    if rng is None:
        raise ValueError("random order policy needs a generator")
    perm = rng.permutation(len(ascending))
    return tuple(int(ascending[i]) for i in perm)


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
    goals: np.ndarray
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
    Gram matrix G, rows in the order of R, by the rule of LAPACK's
    ``dpstf2`` (Higham 1990).

    Column r takes as pivot the row p of largest residual
    G[p, p] - sum_c C[p, c]^2 among the rows not yet pivoted, and is
    (G[p] - C[:, :r] C[p, :r]) / sqrt(residual), zero on the pivoted rows.
    The factor stops at a residual <= K 2^-53 max_i G[i, i] (2^-53 is
    LAPACK's unit roundoff, half of numpy's eps), which sets the rank; a
    zero row of R gets a zero row of C. The rows of G and C are never
    swapped: ``perm`` holds the row order ``dpstf2``'s swaps would leave,
    only so that a tie between residuals goes to the row it puts first.
    """
    gram = raw @ raw.T  # symmetric, so row p of G is its column p
    check_finite(gram, "Gram matrix")
    k = len(gram)
    diag = gram.diagonal()
    coords = np.zeros((k, k))
    squares = np.zeros(k)
    perm = np.arange(k)  # perm[:r] are the pivoted rows
    stop = k * 2.0**-53 * diag.max(initial=0.0)
    for r in range(k):
        left = perm[r:]
        residual = (diag - squares)[left]
        j = int(residual.argmax())
        if not residual[j] > stop:
            return coords[:, :r]
        p, root = left[j], math.sqrt(residual[j])
        perm[r + j], perm[r] = perm[r], p
        col = (gram[p] - coords[:, :r] @ coords[p, :r]) * (1.0 / root)
        col[perm[:r]] = 0.0
        col[p] = root
        coords[:, r] = col
        squares += col * col
    return coords


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ki,ki->k", m, m))


def diminish_conflicts(
    grads: Mapping[int, np.ndarray],
    order: Sequence[int],
    beta: float,
    goals: np.ndarray,
    delta: float,
) -> DiminishResult:
    """The conflict-mitigation sweep, on orthonormal coordinates and in
    wavefront order (module docstring). ``grads`` maps the client ids
    0..K-1 to equal-length gradients, ``order`` is a permutation of them
    (``build_order``), and ``goals`` the K x K similarity goals, left
    alone: the result holds the copy stepped with EMA decay ``delta``.

    The first ``selected_count`` clients of the order have their working
    copies tested against every raw gradient in order (skipping self); a test
    observes the cosine of the current working gradient against the raw
    target, adjusts on conflict, and always EMA-updates the pair's goal.
    Returns the unweighted mean of the K working gradients.
    """
    K = len(order)
    goals = np.array(goals, dtype=np.float64)
    if goals.shape != (K, K):
        raise ValueError(f"goals of shape {goals.shape} for {K} clients")
    if sorted(order) != list(range(K)):
        raise ValueError("order must be a permutation of the client ids")
    if np.abs(goals).max(initial=0.0) > 1.0:
        raise ValueError("similarity goals must lie in [-1, 1]")
    order = np.asarray(order, dtype=np.int64)
    n = selected_count(K, beta)
    raw = np.stack([np.asarray(grads[cid], dtype=np.float64) for cid in range(K)])
    coords = _coordinates(raw)
    raw_norm = _row_norms(coords)
    working = coords.copy()
    norm_w = raw_norm.copy()
    # the sweep's results, at [q, t]: q the position of the adjusted client, t that of the target
    phis, seen, shift = np.zeros((n, K)), np.zeros((n, K)), np.zeros((n, K))
    tested, adjusted = np.zeros((n, K), dtype=bool), np.zeros((n, K), dtype=bool)
    for tau in range(2 * n + K - 2) if n else ():
        q = np.arange(max(0, (tau - K + 2) // 2), min(n - 1, tau // 2) + 1)
        t = tau - 2 * q
        k, i = order[q], order[t]
        norm_k, norm_i = norm_w[k], raw_norm[i]
        # self, or a zero-norm side (no direction): nothing to test or observe
        live = (q != t) & (norm_k > 0.0) & (norm_i > 0.0)
        if not live.all():
            if not live.any():
                continue
            q, t, k, i, norm_k, norm_i = q[live], t[live], k[live], i[live], norm_k[live], norm_i[live]
        w, g = working[k], coords[i]
        phi = np.minimum(np.maximum(np.einsum("ki,ki->k", w, g) / (norm_k * norm_i), -1.0), 1.0)
        goal = goals[k, i]
        conflict = is_conflict(phi, goal)
        if conflict.any():
            # phi = goal = 0 gives c = 0: the pairs without a conflict keep w
            c = adjustment_coefficient(norm_k, norm_i, np.where(conflict, phi, 0.0), np.where(conflict, goal, 0.0))
            moved = w - c[:, None] * g
            working[k] = moved
            norm_w[k] = _row_norms(moved)
            shift[q, t] = c
        ema_update(goals, delta, k, i, phi)
        tested[q, t] = True
        phis[q, t], seen[q, t], adjusted[q, t] = phi, goal, conflict
    n_adjustments = int(np.count_nonzero(adjusted))
    q, t = np.nonzero(tested)  # row-major: the sweep order
    tests = PairTests(order[q], order[t], phis[q, t], seen[q, t], adjusted[q, t])
    plain_mean = mean_rows(raw)
    gradient = plain_mean
    if n_adjustments:
        # take the adjustments off alone, so an unadjusted round is the plain mean bit for bit
        shifts = np.zeros((K, K))  # shifts[k, i]: the multiple of g_i taken off w_k
        shifts[np.ix_(order[:n], order)] = shift
        gradient = gradient - (shifts.sum(axis=0) / K) @ raw
        check_finite(gradient, "curated gradient")
    return DiminishResult(gradient, plain_mean, goals, n_adjustments, tests, coords, working)


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
    lam: np.ndarray,
    stats: Sequence[ClientStatistics],
    table: KeyTable,
    config: TrainConfig,
    goals: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    round_index: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, RoundRecord]:
    """One full aggregation round; see the module docstring for the steps.
    ``lam`` and the statistics are aligned to ``table``; the goals are
    left alone and their update returned. Reads ``config.alpha``,
    ``gamma``, ``order_policy``, ``beta``, ``eta`` and ``delta``. ``rng``
    drives the random order policy only."""
    if not stats:
        raise ValueError("no client statistics")
    merged = FairnessStatistics.merge_all([st.fairness for st in stats])
    h_global = constraint_values(merged, table.families, config.alpha)
    new_lam = update_lambda(lam, h_global, config.gamma)

    losses = lagrangian_losses(stats, lam, table.families, config.alpha)
    order = build_order(losses, config.order_policy, rng)
    result = diminish_conflicts(
        {st.client_id: st.update_grad for st in stats}, order, config.beta, goals, config.delta
    )

    target_norm = norm(result.plain_mean)
    curated_norm = norm(result.gradient)
    # below K ulps of the longest working gradient the curated mean's direction is rounding error
    cancelled = len(stats) * 2.0**-52 * _row_norms(result.working).max(initial=0.0)
    if curated_norm <= cancelled < target_norm:
        raise DegenerateCancellationError(
            f"curated gradient cancelled to {curated_norm:.3g} while the raw mean's norm is {target_norm:.3g}"
        )
    g_global = result.gradient * (target_norm / curated_norm) if curated_norm > 0.0 else result.gradient

    check_finite(g_global, "global gradient")
    new_params = params - config.eta * g_global

    record = RoundRecord(
        round_index=round_index,
        client_losses={st.client_id: st.loss for st in stats},
        lagrangian_losses=losses,
        multipliers=dict(zip(table.names(), new_lam.tolist())),
        order=order,
        n_adjustments=result.n_adjustments,
        conflicts_pre=_count_conflicts(result.coords, result.coords, goals),
        conflicts_post=_count_conflicts(result.working, result.coords, goals),
        g_global_norm=norm(g_global),
    )
    return new_params, new_lam, result.goals, record
