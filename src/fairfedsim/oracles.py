"""Independent desk-scale verification of the closed forms and theorems.

* ``finite_diff``: central-difference gradient oracle for every analytic
  gradient in the package.
* ``c2_bisection``: solves the adjustment coefficient by bisection, cross
  checking the closed form used in the aggregation sweep.
* ``diminish_conflicts_dspace``: the D-space reference for
  ``aggregation.diminish_conflicts``, the same sweep on D-length working
  copies.
* ``theorem2_*``: the conflict upper bound after a full projection sweep,
  checked empirically on generated always-conflicting gradient sets. The
  cosine band of the hypothesis is read from ``diminish_conflicts_dspace``.
* ``theorem3_descent_check``: monotone descent of a two-client smooth
  quadratic objective under the step-size condition, with a negative
  control at a deliberately oversized step. Its adjustment is
  ``aggregation.adjustment_coefficient``.

The bound check measures the conflict magnitude max(0, -(g_global . g_k)):
the closed form is exactly zero for the last projection target, which is
"never conflicted with", so the bounded quantity is the negative part of
the alignment, not the absolute dot product.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .aggregation import (
    PairTests,
    SimilarityState,
    adjust_gradient,
    adjustment_coefficient,
    diminish_conflicts,
    ema_update,
    is_conflict,
    selected_count,
)
from .numeric import check_finite, cosine, make_rng, mean_rows, norm


def finite_diff(fn: Callable[[np.ndarray], float], params: np.ndarray, step: float) -> np.ndarray:
    """Central differences per coordinate: (f(w + h e_i) - f(w - h e_i)) / 2h."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = step
        hi = fn(params + bump)
        lo = fn(params - bump)
        check_finite(hi, "finite-difference evaluation")
        check_finite(lo, "finite-difference evaluation")
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def c2_bisection(g_k: np.ndarray, g_j: np.ndarray, goal: float) -> float:
    """The coefficient c with cos(g_k + c * g_j, g_j) == goal, by bisection
    to 1e-12 relative.

    The cosine is strictly monotone in c unless g_k and g_j are parallel,
    in which case every c gives cosine +-1 and the goal is unreachable.
    """
    nk = norm(g_k)
    nj = norm(g_j)
    if nk == 0.0 or nj == 0.0:
        raise ValueError("zero-norm input")
    if abs(goal) >= 1.0:
        raise ValueError("goal must lie strictly inside (-1, 1)")
    phi0 = cosine(g_k, g_j)
    if 1.0 - phi0 * phi0 < 1e-14:
        raise ValueError("degenerate geometry: gradients are parallel")

    def f(c: float) -> float:
        return cosine(g_k + c * g_j, g_j) - goal

    span = nk / nj * (2.0 + 2.0 / math.sqrt(1.0 - goal * goal))
    lo, hi = -span, span
    for _ in range(200):
        if f(lo) < 0.0 < f(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ValueError("no sign change in bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Conflict upper bound after a full projection sweep
# ---------------------------------------------------------------------------


def theorem2_bound_formula(K: int, max_norm: float, eps1: float, eps2: float, goal: float) -> np.ndarray:
    """The closed-form per-position bound; position k = 1..K (1-indexed).

    X_max and X_min are the adjustment coefficients at cosines eps2 and
    eps1 against the shared goal. No hypothesis check here: the formula is
    exercised on its own by the frozen-value tests.
    """
    root = math.sqrt(1.0 - goal * goal)
    x_max = (eps2 * root - goal * math.sqrt(1.0 - eps2 * eps2)) / root
    x_min = (eps1 * root - goal * math.sqrt(1.0 - eps1 * eps1)) / root
    if x_min == 0.0:
        raise ValueError("eps1 equal to the goal makes the bound singular")
    bounds = np.empty(K)
    for k in range(1, K + 1):
        geom = (1.0 - x_min) * (1.0 - (1.0 - x_min) ** (K - k)) / x_min
        bounds[k - 1] = (K - 1) / K * max_norm**2 * eps2 * x_max * geom
    return bounds


@dataclass
class Theorem2Instance:
    """A gradient set plus the cosine band and goal of the hypothesis; the
    sweep runs in index order."""

    gradients: list[np.ndarray]
    goal: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (0.0 < self.eps1 < self.goal <= self.eps2 <= 1.0):
            raise ValueError(
                f"hypothesis violated: need 0 < eps1 < goal <= eps2 <= 1, "
                f"got eps1={self.eps1}, goal={self.goal}, eps2={self.eps2}"
            )

    @property
    def K(self) -> int:
        return len(self.gradients)

    @property
    def max_norm(self) -> float:
        return max(norm(g) for g in self.gradients)


def theorem2_bound(instance: Theorem2Instance) -> np.ndarray:
    return theorem2_bound_formula(
        instance.K, instance.max_norm, instance.eps1, instance.eps2, instance.goal
    )


@dataclass
class BoundEntry:
    position: int          # 1-indexed position in the projection order
    client: int
    dot: float             # g_global . g_k (raw gradient)
    conflict: float        # max(0, -dot)
    bound: float
    ok: bool


@dataclass
class BoundReport:
    entries: list[BoundEntry]
    hypothesis_satisfied: bool
    n_adjustments: int
    all_ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def _frozen_goals(K: int, goal: float) -> SimilarityState:
    """Every goal at ``goal``; delta = 1 keeps the EMA from moving them."""
    return SimilarityState(K, delta=1.0, goals=np.full((K, K), goal))


def _observed_cosine_band(gradients: Sequence[np.ndarray], goal: float):
    """The |cos| range the hypothesis quantifies over, from the full sweep
    (beta = 1) at frozen goals: every tested (working, target) cosine plus
    every pairwise working-gradient cosine before the sweep and after each
    adjustment. Returns (eps_lo, eps_hi, all_tests_conflicted); eps_lo >
    eps_hi signals an empty band."""
    K = len(gradients)
    grads = {i: np.asarray(g, dtype=np.float64) for i, g in enumerate(gradients)}
    sweep = diminish_conflicts_dspace(grads, range(K), 1.0, _frozen_goals(K, goal))
    W = np.stack(list(grads.values()))
    iu = np.triu_indices(K, 1)
    observed = [np.abs(sweep.tests.phi)]

    def pairwise():
        norms = np.linalg.norm(W, axis=1)
        if norms.all():
            observed.append(np.abs(np.clip((W @ W.T) / np.outer(norms, norms), -1.0, 1.0))[iu])

    pairwise()
    for k, w in sweep.moves:
        W[k] = w
        pairwise()
    band = np.concatenate(observed)
    return float(band.min(initial=np.inf)), float(band.max(initial=-np.inf)), bool(sweep.tests.adjusted.all())


@dataclass
class DspaceSweep:
    """What ``diminish_conflicts_dspace`` computed; ``working`` holds the
    curated working gradients by client id, and ``moves`` the (client,
    working gradient) after each adjustment, in sweep order."""

    gradient: np.ndarray
    state: SimilarityState
    n_adjustments: int
    tests: PairTests
    working: dict[int, np.ndarray]
    moves: list[tuple[int, np.ndarray]]


def diminish_conflicts_dspace(
    grads: Mapping[int, np.ndarray],
    order: Sequence[int],
    beta: float,
    state: SimilarityState,
) -> DspaceSweep:
    """Reference for ``aggregation.diminish_conflicts``: the same
    sweep, with every cosine taken between D-length vectors and every
    adjustment applied to a D-length working copy. The two agree to
    rounding (rtol 1e-9 in the tests) on the tests made, the goals and the
    mean."""
    working = {cid: np.array(grads[cid], dtype=np.float64, copy=True) for cid in order}
    out_state = state.copy()
    tests = []  # (client, target, phi, goal, adjusted) per test
    moves = []
    for k in order[: selected_count(len(order), beta)]:
        for i in order:
            if i == k:
                continue
            if norm(working[k]) == 0.0 or norm(grads[i]) == 0.0:
                continue
            phi = cosine(working[k], grads[i])
            goal = out_state.get(k, i)
            conflict = is_conflict(phi, goal)
            if conflict:
                working[k] = adjust_gradient(working[k], grads[i], phi, goal)
                moves.append((k, working[k]))
            ema_update(out_state, k, i, phi)
            tests.append((k, i, phi, goal, conflict))
    gradient = mean_rows([working[cid] for cid in sorted(working)])
    return DspaceSweep(gradient, out_state, len(moves), PairTests.from_rows(tests), working, moves)


def theorem2_check(instance: Theorem2Instance) -> BoundReport:
    """Run the sweep (beta = 1, frozen goals), measure conflicts against
    raw gradients, compare."""
    K = instance.K
    result = diminish_conflicts(dict(enumerate(instance.gradients)), list(range(K)), 1.0, _frozen_goals(K, instance.goal))
    lo, hi, all_conflicted = _observed_cosine_band(instance.gradients, instance.goal)
    hypothesis = all_conflicted and lo <= hi and (
        instance.eps1 - 1e-12 <= lo and hi <= instance.eps2 + 1e-12
    )
    bounds = theorem2_bound(instance)
    entries = []
    for cid, g in enumerate(instance.gradients):
        d = float(np.dot(result.gradient, g))
        conflict = max(0.0, -d)
        bound = float(bounds[cid])
        entries.append(BoundEntry(cid + 1, cid, d, conflict, bound, conflict <= bound * (1.0 + 1e-9) + 1e-12))
    return BoundReport(entries, hypothesis, result.n_adjustments, all(e.ok for e in entries))


class HypothesisGenerationError(RuntimeError):
    """The rejection sampler could not satisfy the always-conflicts hypothesis."""


def generate_theorem2_instance(
    K: int,
    dim: int,
    rng: np.random.Generator,
    max_retries: int = 100_000,
) -> Theorem2Instance:
    """Rejection-sample a random-cone gradient set that conflicts at every
    sweep test.

    Directions are drawn inside a random cone (axis plus scaled noise) so
    pairwise cosines stay positive and bounded away from zero, and the
    goal is placed just above the largest initial cosine so every pair
    conflicts (the goal is capped at 0.95). An instance is accepted when
    the sweep conflicts at every test and the observed cosine band gives
    0 < eps1 < goal <= eps2 with eps2 at most 0.995, away from the
    degenerate-parallel boundary (|cos| -> 1 is exactly where the
    law-of-sines adjustment loses meaning).

    K directions in fewer than K dimensions force near-parallel pairs and
    the degenerate regime, so dim >= K is required.
    """
    if dim < K:
        raise ValueError("need dim >= K for a non-degenerate always-conflicting cone")
    for _ in range(max_retries):
        axis = rng.normal(size=dim)
        axis /= np.linalg.norm(axis)
        spread = float(rng.uniform(0.25, 0.6))
        dirs = axis[None, :] + spread * rng.normal(size=(K, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        max_cos = max(float(dirs[i] @ dirs[j]) for i in range(K) for j in range(i + 1, K))
        goal = min(0.95, max_cos + float(rng.uniform(0.02, 0.15)))
        if goal <= max_cos:
            continue
        norms = rng.uniform(0.5, 2.0, size=K)
        grads = [norms[i] * dirs[i] for i in range(K)]
        lo, hi, all_conflicted = _observed_cosine_band(grads, goal)
        if lo > hi or not all_conflicted:
            continue
        eps1 = lo
        eps2 = max(hi, goal)
        if eps1 <= 1e-9 or eps1 >= goal or eps2 > 0.995:
            continue
        return Theorem2Instance(grads, goal, eps1, eps2)
    raise HypothesisGenerationError(f"no instance with K={K}, dim={dim} after {max_retries} tries")


@dataclass
class CampaignSummary:
    n_requested: int
    n_checked: int
    n_skipped: int
    n_bound_violations: int
    n_monotonicity_violations: int

    @property
    def ok(self) -> bool:
        return self.n_bound_violations == 0 and self.n_monotonicity_violations == 0

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def theorem2_campaign(n_instances: int, seed: int) -> CampaignSummary:
    """Property campaign: generated instances must satisfy the bound and
    per-instance monotone decrease of the bound in the position index.

    Instance i has K = (3, 5, 8)[i % 3] clients in dim = (5, 50)[(i // 3) %
    2] dimensions, each generated in at most 2,000 tries. Dims below 2K are
    lifted to 2K: the generator needs room for a non-degenerate
    always-conflicting cone, and K directions squeezed into barely K
    dimensions sit at the parallel boundary it rejects.
    """
    rng = make_rng(seed, 0x72)
    checked = skipped = bound_bad = mono_bad = 0
    for idx in range(n_instances):
        K = (3, 5, 8)[idx % 3]
        dim = max(2 * K, (5, 50)[(idx // 3) % 2])
        try:
            inst = generate_theorem2_instance(K, dim, rng, max_retries=2_000)
        except HypothesisGenerationError:
            skipped += 1
            continue
        report = theorem2_check(inst)
        checked += 1
        if not report.all_ok:
            bound_bad += 1
        bounds = [e.bound for e in report.entries]
        if any(bounds[i] < bounds[i + 1] - 1e-12 for i in range(len(bounds) - 1)):
            mono_bad += 1
    return CampaignSummary(n_instances, checked, skipped, bound_bad, mono_bad)


# ---------------------------------------------------------------------------
# Descent under the step-size condition
# ---------------------------------------------------------------------------


@dataclass
class QuadraticTwoClientProblem:
    """J(w) = 0.5 (w-a1)' A1 (w-a1) + 0.5 (w-a2)' A2 (w-a2), A_k SPD."""

    A1: np.ndarray
    A2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    w0: np.ndarray
    goal: float

    @property
    def smoothness(self) -> float:
        """Largest eigenvalue of A1 + A2: the gradient Lipschitz constant."""
        return float(np.linalg.eigvalsh(self.A1 + self.A2).max())

    def objective(self, w: np.ndarray) -> float:
        d1 = w - self.a1
        d2 = w - self.a2
        return float(0.5 * d1 @ self.A1 @ d1 + 0.5 * d2 @ self.A2 @ d2)

    def gradients(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.A1 @ (w - self.a1), self.A2 @ (w - self.a2)


def coefficient_bound(goal: float) -> float:
    """Largest possible adjustment coefficient over all conflict cosines.

    c(phi) = goal*sqrt(1-phi^2)/sqrt(1-goal^2) - phi peaks at
    phi = -sqrt(1-goal^2) with value 1/sqrt(1-goal^2).
    """
    return 1.0 / math.sqrt(1.0 - goal * goal)


def compliant_eta(problem: QuadraticTwoClientProblem) -> float:
    """0.9 of the largest step the condition allows at ``coefficient_bound``."""
    c = coefficient_bound(problem.goal)
    return 0.9 * 2.0 / (problem.smoothness * (1.0 + c * c))


@dataclass
class DescentTrace:
    objectives: list[float]
    coefficients: list[float]
    eta: float
    n_increases: int
    monotone: bool

    @property
    def c_max(self) -> float:
        return max(self.coefficients, default=0.0)

    def eta_compliant(self, L: float) -> bool:
        return self.eta < 2.0 / (L * (1.0 + self.c_max**2))


def theorem3_descent_check(
    problem: QuadraticTwoClientProblem,
    eta: float,
    rounds: int = 40,
) -> DescentTrace:
    """Iterate the symmetric two-client adjustment and track the objective.

    On conflict (cosine below the goal) both gradients receive the sweep's
    correction (``adjustment_coefficient``) toward each other; the update
    applies the sum of the adjusted gradients. The traced coefficient is
    the unit-norm one, -adjustment_coefficient(1, 1, phi, goal). Pass
    means no round increases J by more than 1e-10.
    """
    w = problem.w0.copy()
    objectives = [problem.objective(w)]
    coefficients: list[float] = []
    for _ in range(rounds):
        g1, g2 = problem.gradients(w)
        n1, n2 = norm(g1), norm(g2)
        if n1 > 0.0 and n2 > 0.0:
            phi = cosine(g1, g2)
            if phi < problem.goal:
                coefficients.append(float(-adjustment_coefficient(1.0, 1.0, phi, problem.goal)))
                g1, g2 = (
                    g1 - adjustment_coefficient(n1, n2, phi, problem.goal) * g2,
                    g2 - adjustment_coefficient(n2, n1, phi, problem.goal) * g1,
                )
        w = w - eta * (g1 + g2)
        objectives.append(problem.objective(w))
    increases = sum(
        1 for a, b in zip(objectives, objectives[1:]) if b > a + 1e-10
    )
    return DescentTrace(objectives, coefficients, eta, increases, increases == 0)


def random_quadratic_problem(dim: int, rng: np.random.Generator) -> QuadraticTwoClientProblem:
    """Generic random SPD quadratics with separated centers.

    Trajectories of the adjusted flow on such instances generically stall
    on the two-objective Pareto set (every exactly anti-parallel gradient
    pair is a fixed point of the symmetric adjustment) and can then drift
    upward; useful for demonstrating that boundary, not for verifying the
    descent property on its domain.
    """

    def spd() -> np.ndarray:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        evals = rng.uniform(0.5, 2.0, size=dim)
        return q @ np.diag(evals) @ q.T

    a1 = rng.normal(0.0, 1.5, size=dim)
    a2 = rng.normal(0.0, 1.5, size=dim)
    w0 = rng.normal(0.0, 1.0, size=dim)
    goal = float(rng.uniform(0.1, 0.5))
    return QuadraticTwoClientProblem(spd(), spd(), a1, a2, w0, goal)


def conflicting_quadratic_problem(dim: int, rng: np.random.Generator) -> QuadraticTwoClientProblem:
    """A two-client quadratic whose conflicts stay at nonnegative cosines.

    Both objectives share the minimizer and the eigenbasis but have
    anti-correlated spectra, so the gradient cosine is positive for every
    iterate yet dips below the goal (which is placed just above the
    initial cosine, capped at 0.7). In this regime every adjustment
    coefficient is below 1 and the step-size condition provably descends;
    conflicts still fire on every instance.
    """
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        lam1 = np.sort(rng.uniform(0.3, 2.5, size=dim))
        lam2 = np.sort(rng.uniform(0.3, 2.5, size=dim))[::-1]
        A1 = q @ np.diag(lam1) @ q.T
        A2 = q @ np.diag(lam2) @ q.T
        a = rng.normal(0.0, 1.0, size=dim)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        w0 = a + direction * rng.uniform(1.0, 3.0)
        g1, g2 = A1 @ (w0 - a), A2 @ (w0 - a)
        cos0 = cosine(g1, g2)
        goal = min(0.7, cos0 + float(rng.uniform(0.05, 0.25)))
        if goal <= cos0:
            continue
        return QuadraticTwoClientProblem(A1, A2, a, a.copy(), w0, goal)
    raise HypothesisGenerationError("could not place a goal above the initial cosine")
