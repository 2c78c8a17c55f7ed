"""Theorem oracles: finite differences, bisection, bound, descent."""

import numpy as np
import pytest

from fairfedsim.aggregation import adjust_gradient
from fairfedsim.numeric import cosine, make_rng
from fairfedsim.oracles import (
    QuadraticTwoClientProblem,
    Theorem2Instance,
    c2_bisection,
    compliant_eta,
    conflicting_quadratic_problem,
    finite_diff,
    generate_theorem2_instance,
    theorem2_bound,
    theorem2_bound_formula,
    theorem2_campaign,
    theorem2_check,
    theorem3_descent_check,
)


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


class TestFiniteDiff:
    def test_quadratic(self):
        w = np.array([0.3, -1.2, 2.0])
        grad = finite_diff(lambda v: 0.5 * float(v @ v), w, step=1e-6)
        np.testing.assert_allclose(grad, w, atol=1e-8)

    def test_constant(self):
        grad = finite_diff(lambda v: 3.5, np.ones(4), step=1e-5)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_second_order_convergence(self):
        # halving the step shrinks the error ~4x on a smooth cubic
        w = np.array([0.7, -0.4])
        fn = lambda v: float(np.sum(v**3))
        exact = 3.0 * w**2
        e1 = np.abs(finite_diff(fn, w, step=1e-3) - exact).max()
        e2 = np.abs(finite_diff(fn, w, step=5e-4) - exact).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff(lambda v: 0.0, np.ones(2), step=0.0)


class TestC2Bisection:
    def test_matches_closed_form(self):
        rng = make_rng(30)
        for _ in range(500):
            dim = int(rng.choice([2, 10, 50]))
            g_k = rng.normal(size=dim) * float(rng.uniform(0.5, 2))
            g_j = rng.normal(size=dim) * float(rng.uniform(0.5, 2))
            phi = cosine(g_k, g_j)
            if abs(phi) > 0.98:
                continue
            goal = float(rng.uniform(phi, 0.99))
            if abs(goal) >= 0.99:
                continue
            c_bis = c2_bisection(g_k, g_j, goal)
            adjusted = adjust_gradient(g_k, g_j, phi, goal)
            # adjust() computes g_k - coeff*g_j, so c2 = -coeff
            coeff_closed = -(adjusted - g_k)[np.argmax(np.abs(g_j))] / g_j[np.argmax(np.abs(g_j))]
            np.testing.assert_allclose(c_bis, -coeff_closed, atol=1e-9)

    def test_goal_equals_current_cosine_gives_zero(self):
        g_k = np.array([1.0, 1.0])
        g_j = np.array([2.0, 0.0])
        phi = cosine(g_k, g_j)
        np.testing.assert_allclose(c2_bisection(g_k, g_j, phi), 0.0, atol=1e-10)

    def test_parallel_geometry_rejected(self):
        g = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="degenerate|parallel"):
            c2_bisection(g, -3.0 * g, 0.5)


class TestTheorem2Bound:
    def test_frozen_hand_value(self):
        # K=3, unit norms, eps1=eps2=0.6, goal=0.5 (formula-only instance)
        bounds = theorem2_bound_formula(3, 1.0, 0.6, 0.6, 0.5)
        np.testing.assert_allclose(
            bounds, [0.08865730641647523, 0.047617083894802695, 0.0], rtol=1e-12
        )

    def test_last_position_bound_zero(self):
        bounds = theorem2_bound_formula(5, 2.0, 0.1, 0.8, 0.4)
        assert bounds[-1] == 0.0

    def test_monotone_decreasing_in_position(self):
        rng = make_rng(31)
        for _ in range(200):
            K = int(rng.integers(2, 10))
            goal = float(rng.uniform(0.1, 0.9))
            eps1 = float(rng.uniform(1e-3, goal * 0.99))
            eps2 = float(rng.uniform(goal, 1.0))
            bounds = theorem2_bound_formula(K, float(rng.uniform(0.5, 3)), eps1, eps2, goal)
            assert all(bounds[i] >= bounds[i + 1] - 1e-12 for i in range(K - 1))

    def test_instance_hypothesis_validation(self):
        g = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(ValueError, match="hypothesis"):
            Theorem2Instance(g, goal=0.5, eps1=0.6, eps2=0.7)
        inst = Theorem2Instance(g, goal=0.5, eps1=0.3, eps2=0.7)
        assert theorem2_bound(inst).shape == (2,)


class TestTheorem2Check:
    def test_generated_instances_respect_bound(self):
        rng = make_rng(32)
        for trial in range(25):
            K = int(rng.choice([3, 5]))
            inst = generate_theorem2_instance(K, 2 * K, rng)
            report = theorem2_check(inst)
            assert report.hypothesis_satisfied
            assert report.all_ok
            assert report.n_adjustments >= K * (K - 1)

    def test_non_conflicting_set_vacuous_pass(self):
        # nearly parallel gradients above the goal: no adjustments, zero conflicts
        g = [np.array([1.0, 0.01]), np.array([1.0, -0.01])]
        inst = Theorem2Instance(g, goal=0.5, eps1=0.4, eps2=1.0)
        report = theorem2_check(inst)
        assert not report.hypothesis_satisfied  # never conflicted
        assert report.n_adjustments == 0
        assert all(e.conflict == 0.0 for e in report.entries)
        assert report.all_ok

    def test_small_campaign_clean(self):
        summary = theorem2_campaign(60, seed=5)
        assert summary.n_checked + summary.n_skipped == 60
        assert summary.n_bound_violations == 0
        assert summary.n_monotonicity_violations == 0

    def test_report_serializes(self):
        rng = make_rng(33)
        inst = generate_theorem2_instance(3, 6, rng)
        d = theorem2_check(inst).to_json()
        assert {"hypothesis_satisfied", "entries", "all_ok", "n_adjustments"} <= set(d)
        assert len(d["entries"]) == 3


class TestTheorem3Descent:
    def test_compliant_step_descends_with_conflicts(self):
        for i in range(10):
            problem = conflicting_quadratic_problem(6, make_rng(50, i))
            eta = compliant_eta(problem)
            trace = theorem3_descent_check(problem, eta)
            assert trace.monotone, f"instance {i} ascended"
            assert trace.coefficients, f"instance {i} never conflicted (vacuous)"
            assert trace.eta_compliant(problem.smoothness)

    def test_negative_control_ascends(self):
        increased = 0
        for i in range(10):
            problem = conflicting_quadratic_problem(6, make_rng(51, i))
            trace = theorem3_descent_check(problem, 10.0 / problem.smoothness)
            increased += trace.n_increases > 0
        assert increased >= 5

    def test_zero_gradient_start_constant(self):
        A = np.eye(3)
        a = np.zeros(3)
        problem = QuadraticTwoClientProblem(A, A.copy(), a, a.copy(), np.zeros(3), goal=0.5)
        trace = theorem3_descent_check(problem, 0.1, rounds=5)
        assert trace.monotone
        np.testing.assert_allclose(trace.objectives, 0.0, atol=1e-15)

    def test_generic_instances_hit_the_pareto_stall(self):
        """Documented boundary: on generic separated-center quadratics the
        adjusted flow stalls on the Pareto set and can drift upward even at
        a compliant step; the descent guarantee holds on the constructed
        nonnegative-cosine domain, not universally."""
        ascended = 0
        for i in range(10):
            problem = random_quadratic_problem(6, make_rng(52, i))
            trace = theorem3_descent_check(problem, compliant_eta(problem))
            ascended += not trace.monotone
        assert ascended > 0

    def test_smoothness_is_hessian_top_eigenvalue(self):
        rng = make_rng(53)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A1 = q @ np.diag([0.5, 1.0, 1.5, 2.0]) @ q.T
        A2 = q @ np.diag([1.0, 1.0, 1.0, 1.0]) @ q.T
        problem = QuadraticTwoClientProblem(A1, A2, np.zeros(4), np.zeros(4), np.ones(4), 0.3)
        np.testing.assert_allclose(problem.smoothness, 3.0, rtol=1e-12)
