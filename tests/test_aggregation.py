"""Server-side mechanics: dual step, EMA goals, adjustment, sweep, round."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpstrf

from fairfedsim import aggregation, oracles
from fairfedsim.aggregation import (
    CONFLICT_TIE_TOL,
    DegenerateCancellationError,
    _count_conflicts,
    adjust_gradient,
    adjustment_coefficient,
    build_order,
    diminish_conflicts,
    ema_update,
    lagrangian_losses,
    server_round,
    update_lambda,
)
from fairfedsim.baselines import TrainConfig
from fairfedsim.client import ClientStatistics
from fairfedsim.fairness import FairnessStatistics, GroupKey, KeyTable
from fairfedsim.numeric import cosine, make_rng, norm
from fairfedsim.oracles import diminish_conflicts_dspace


class TestUpdateLambda:
    def test_zero_h_no_change(self):
        out = update_lambda(np.array([0.3, 0.0]), np.zeros(2), gamma=0.5)
        np.testing.assert_array_equal(out, [0.3, 0.0])

    def test_hand_value(self):
        out = update_lambda(np.array([0.1]), np.array([0.2]), gamma=0.05)
        np.testing.assert_allclose(out, [0.11])

    def test_projection_clamps_at_zero(self):
        out = update_lambda(np.array([0.01]), np.array([-0.5]), gamma=0.05)
        assert out[0] == 0.0


class TestEmaUpdate:
    def test_hand_value(self):
        goals = np.zeros((2, 2))
        ema_update(goals, 0.1, 0, 1, phi=0.5)
        np.testing.assert_allclose(goals[0, 1], 0.45)
        np.testing.assert_allclose(goals[1, 0], 0.45)

    def test_delta_one_frozen(self):
        goals = np.array([[0.0, 0.2], [0.2, 0.0]])
        ema_update(goals, 1.0, 0, 1, phi=-0.9)
        assert goals[0, 1] == 0.2

    def test_delta_zero_latest(self):
        goals = np.array([[0.0, 0.2], [0.2, 0.0]])
        ema_update(goals, 0.0, 0, 1, phi=-0.9)
        assert goals[0, 1] == -0.9

    def test_out_of_range_phi_rejected(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros((2, 2)), 0.5, 0, 1, phi=1.5)

    def test_writes_into_the_given_goals(self):
        goals = np.zeros((3, 3))
        ema_update(goals, 0.5, 0, 2, phi=0.4)
        assert goals[0, 2] == goals[2, 0] == 0.2

    def test_recursion_exact_on_random_sequences(self):
        rng = make_rng(20)
        for _ in range(30):
            delta = float(rng.uniform(0, 1))
            goals = np.zeros((2, 2))
            expected = 0.0
            for phi in rng.uniform(-1, 1, size=20):
                ema_update(goals, delta, 0, 1, float(phi))
                expected = delta * expected + (1 - delta) * phi
                assert goals[0, 1] == expected
                assert -1.0 <= goals[0, 1] <= 1.0


    def test_arrays_step_every_pair_like_scalar_calls(self):
        rng = make_rng(30)
        upper = np.triu(rng.uniform(-1, 1, size=(5, 5)), 1)
        by_array = upper + upper.T
        by_scalar = by_array.copy()
        i, j = np.array([0, 1, 4]), np.array([2, 3, 1])
        phi = rng.uniform(-1, 1, size=3)
        ema_update(by_array, 0.3, i, j, phi)
        for a, b, p in zip(i.tolist(), j.tolist(), phi.tolist()):
            ema_update(by_scalar, 0.3, a, b, p)
        np.testing.assert_array_equal(by_array, by_scalar)

    def test_out_of_range_phi_in_an_array_rejected(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros((3, 3)), 0.5, np.array([0, 1]), np.array([1, 2]), np.array([0.2, -1.5]))


class TestAdjustGradient:
    def test_boundary_noop(self):
        g_k = np.array([1.0, 2.0])
        g_j = np.array([0.5, -0.2])
        phi = cosine(g_k, g_j)
        out = adjust_gradient(g_k, g_j, phi, goal=phi)
        np.testing.assert_allclose(out, g_k, atol=1e-15)

    def test_hand_value(self):
        out = adjust_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.5)
        np.testing.assert_allclose(out, [1.0, 1.0 / np.sqrt(3.0)], rtol=1e-12)
        np.testing.assert_allclose(cosine(out, np.array([0.0, 1.0])), 0.5, atol=1e-12)

    def test_result_hits_goal_cosine(self):
        rng = make_rng(21)
        for _ in range(300):
            dim = int(rng.choice([2, 5, 20]))
            g_k = rng.normal(size=dim)
            g_j = rng.normal(size=dim)
            phi = cosine(g_k, g_j)
            if abs(phi) > 0.99:
                continue
            goal = float(rng.uniform(phi, 0.99))
            out = adjust_gradient(g_k, g_j, phi, goal)
            np.testing.assert_allclose(cosine(out, g_j), goal, atol=1e-9)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            adjust_gradient(np.zeros(2), np.ones(2), 0.0, 0.5)

    def test_goal_one_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            adjust_gradient(np.ones(2), np.array([1.0, 0.0]), 0.0, 1.0)

    def test_coefficient_arrays_match_scalar_calls(self):
        rng = make_rng(31)
        norm_k, norm_j = rng.uniform(0.1, 5.0, size=(2, 40))
        phi, goal = rng.uniform(-0.99, 0.99, size=(2, 40))
        c = adjustment_coefficient(norm_k, norm_j, phi, goal)
        scalar = [adjustment_coefficient(*v) for v in zip(norm_k.tolist(), norm_j.tolist(), phi.tolist(), goal.tolist())]
        np.testing.assert_array_equal(c, scalar)

    def test_coefficient_arrays_rejected_on_any_bad_entry(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="zero-norm"):
            adjustment_coefficient(ones, np.array([1.0, 0.0, 1.0]), 0.1 * ones, 0.5 * ones)
        with pytest.raises(ValueError, match="singular"):
            adjustment_coefficient(ones, ones, 0.1 * ones, np.array([0.5, -1.0, 0.5]))


# two keys of one family; the server reads no rows or counts
TABLE = KeyTable((GroupKey(0, "g0"), GroupKey(0, "g1")), np.zeros(2, dtype=np.int64), (), np.zeros((0, 2)), "dp")
ZERO_LAM = np.zeros(2)


def make_stats(grads, losses=None):
    """ClientStatistics stubs carrying only what aggregation reads."""
    out = []
    for cid, g in enumerate(grads):
        loss = losses[cid] if losses is not None else float(cid)
        fs = FairnessStatistics([(0.5, 2), (0.5, 2)])
        out.append(ClientStatistics(loss, fs, np.asarray(g, float)))
    return out


@st.composite
def sweep_inputs(draw):
    """Gaussian gradients with some zero and some duplicated (possibly
    rescaled) rows, a symmetric goal matrix in (-1, 1) with a few
    saturated entries, a random order, beta and delta."""
    K = draw(st.integers(1, 20))
    D = draw(st.integers(3, 30))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    R = rng.normal(size=(K, D)) * np.exp(rng.normal(size=(K, 1)))
    for _ in range(draw(st.integers(0, K // 3))):
        src, dst = rng.integers(K, size=2)
        R[dst] = R[src] * draw(st.sampled_from([1.0, 0.5, 3.0]))
    for _ in range(draw(st.integers(0, K // 4))):
        R[rng.integers(K)] = 0.0
    goals = np.triu(rng.uniform(-1.0, 1.0, size=(K, K)), 1)
    goals[np.triu(rng.random((K, K)) < 0.05, 1)] = 1.0 - 1e-12
    goals = goals + goals.T
    grads = {cid: R[cid] for cid in range(K)}
    order = [int(i) for i in rng.permutation(K)]
    beta = draw(st.floats(0.0, 1.0))
    # delta < 1e-6 is left out: a goal written by a test is then the cosine
    # it observed, and later tests whose cosine is the same in exact
    # arithmetic (the reverse pair, a duplicated target) are ties that
    # rounding decides either way
    delta = draw(st.floats(1e-6, 1.0))
    return grads, order, beta, goals, delta


def straight_line_sweep(grads, order, beta, goals0, delta):
    """The sweep as written out by hand, no shared helpers: the working
    gradients, the goals and the adjustment count."""
    goals = goals0.copy()
    K = len(order)
    working = {i: grads[i].copy() for i in range(K)}
    n_adj = 0
    n_selected = math.ceil(beta * K)
    for k in order[:n_selected]:
        for i in order:
            if i == k:
                continue
            wk = working[k]
            gi = grads[i]
            phi = float(np.dot(wk, gi) / (np.linalg.norm(wk) * np.linalg.norm(gi)))
            phi = max(-1.0, min(1.0, phi))
            goal = goals[k, i]
            if phi < goal:
                coeff = (
                    np.linalg.norm(wk)
                    * (phi * np.sqrt(1 - goal**2) - goal * np.sqrt(1 - phi**2))
                    / (np.linalg.norm(gi) * np.sqrt(1 - goal**2))
                )
                working[k] = wk - coeff * gi
                n_adj += 1
            new = delta * goal + (1 - delta) * phi
            goals[k, i] = new
            goals[i, k] = new
    return working, goals, n_adj


def assert_matches_straight_line(grads, order, beta, goals0, delta):
    working, goals, n_adj = straight_line_sweep(grads, order, beta, goals0, delta)
    expected = np.mean(np.stack([working[i] for i in range(len(order))]), axis=0)
    res = diminish_conflicts(grads, order, beta, goals0, delta)
    np.testing.assert_allclose(res.gradient, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(res.goals, goals, rtol=1e-12, atol=1e-15)
    assert res.n_adjustments == n_adj
    assert n_adj > 0


class TestDiminishConflicts:
    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs())
    def test_beta_zero_is_plain_mean_exactly(self, inputs):
        grads, order, _, goals, delta = inputs
        res = diminish_conflicts(grads, order, beta=0.0, goals=goals, delta=delta)
        plain = np.mean(np.stack([grads[i] for i in range(len(order))]), axis=0)
        np.testing.assert_array_equal(res.gradient, plain)
        np.testing.assert_array_equal(res.plain_mean, res.gradient)
        assert len(res.tests) == 0
        assert res.n_adjustments == 0
        np.testing.assert_array_equal(res.goals, goals)

    def test_single_client_passthrough(self):
        grads = {0: np.array([1.0, -2.0])}
        res = diminish_conflicts(grads, [0], beta=1.0, goals=np.zeros((1, 1)), delta=0.5)
        np.testing.assert_array_equal(res.gradient, grads[0])

    def test_matches_straight_line_reimplementation(self):
        """Independent hand-executed sweep over three synthetic gradients."""
        grads = {
            0: np.array([1.0, 0.0, 0.0]),
            1: np.array([-0.5, 1.0, 0.0]),
            2: np.array([0.2, -0.8, 0.5]),
        }
        assert_matches_straight_line(grads, [1, 0, 2], 1.0, np.zeros((3, 3)), 0.25)

    def test_matches_straight_line_reimplementation_with_goals(self):
        """The same at K = 5 with two clients left unswept and nonzero
        symmetric goals, so that pairs of two swept clients, pairs with one,
        and goals met or missed all occur."""
        rng = make_rng(35)
        grads = {cid: rng.normal(size=4) for cid in range(5)}
        upper = np.triu(rng.uniform(-0.6, 0.6, size=(5, 5)), 1)
        assert_matches_straight_line(grads, [3, 0, 4, 1, 2], 0.6, upper + upper.T, 0.4)

    def test_selection_count(self):
        rng = make_rng(23)
        grads = {i: rng.normal(size=4) for i in range(5)}
        res = diminish_conflicts(grads, list(range(5)), beta=0.5, goals=np.full((5, 5), 0.99), delta=1.0)
        adjusted_clients = set(res.tests.client.tolist())
        assert adjusted_clients == set(range(math.ceil(0.5 * 5)))


    def test_saturated_goals_count_as_met(self):
        """A goal within 1e-9 of +-1 never asks for the singular rotation."""
        v = np.array([1.0, 2.0, -0.5])
        grads = {0: v, 1: v + 1e-6 * np.array([0.3, -0.1, 0.2]), 2: -v}
        goals = np.array([[0.0, 1.0, -1.0 + 1e-12], [1.0, 0.0, 0.0], [-1.0 + 1e-12, 0.0, 0.0]])
        res = diminish_conflicts(grads, [0, 1, 2], beta=0.3, goals=goals, delta=1.0)
        tests = res.tests
        assert list(zip(tests.target.tolist(), (tests.phi < tests.goal).tolist(), tests.adjusted.tolist())) == [
            (1, True, False), (2, True, False)
        ]
        assert res.n_adjustments == 0

    @pytest.mark.parametrize("sweep", [diminish_conflicts, diminish_conflicts_dspace])
    def test_anti_parallel_pairs_are_not_adjusted(self, sweep):
        """At phi = -1 there is no plane to rotate in: adjusting would zero
        the working gradient and drop the client from the mean."""
        grads = {0: np.array([1.0, 0.0, 0.0]), 1: np.array([-2.0, 0.0, 0.0])}
        res = sweep(grads, [0, 1], beta=1.0, goals=np.full((2, 2), 0.3), delta=0.5)
        tests = res.tests
        assert list(zip(tests.client.tolist(), tests.target.tolist(), tests.phi.tolist(), tests.adjusted.tolist())) == [
            (0, 1, -1.0, False), (1, 0, -1.0, False)
        ]
        assert res.n_adjustments == 0
        np.testing.assert_array_equal(res.gradient, [-0.5, 0.0, 0.0])

    def test_anti_parallel_pairs_still_count_as_conflicts(self):
        _, _, _, record = run_round([np.array([1.0, 0.0, 0.0]), np.array([-2.0, 0.0, 0.0])], goals=np.full((2, 2), 0.3))
        assert record.n_adjustments == 0
        assert record.conflicts_pre == record.conflicts_post == 2
        assert record.g_global_norm == 0.5

    def test_unswept_clients_keep_raw_gradients(self):
        # K=25, beta=0.7: the first ceil(17.5) = 18 of the order are swept
        rng = make_rng(28)
        grads = {cid: rng.normal(size=6) for cid in range(25)}
        order = [int(i) for i in rng.permutation(25)]
        res = diminish_conflicts(grads, order, 0.7, np.full((25, 25), 0.99), 1.0)
        assert set(res.tests.client.tolist()) == set(order[:18])
        kept = order[18:]
        np.testing.assert_array_equal(res.working[kept], res.coords[kept])

    @pytest.mark.parametrize("order", [[0, 0], [1, 2]])
    def test_order_must_be_a_permutation(self, order):
        grads = {0: np.ones(2), 1: -np.ones(2)}
        with pytest.raises(ValueError, match="permutation"):
            diminish_conflicts(grads, order, beta=1.0, goals=np.zeros((2, 2)), delta=0.5)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
    def test_goals_must_be_k_by_k(self, shape):
        grads = {0: np.ones(2), 1: -np.ones(2)}
        with pytest.raises(ValueError, match="shape"):
            diminish_conflicts(grads, [0, 1], beta=1.0, goals=np.zeros(shape), delta=0.5)

    def test_goals_must_lie_in_the_unit_interval(self):
        grads = {0: np.ones(2), 1: -np.ones(2)}
        goals = np.array([[0.0, -1.0 - 1e-12], [-1.0 - 1e-12, 0.0]])
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            diminish_conflicts(grads, [0, 1], beta=1.0, goals=goals, delta=0.5)
        goals = np.array([[0.0, -1.0], [-1.0, 0.0]])  # the bounds themselves are legal
        assert diminish_conflicts(grads, [0, 1], beta=1.0, goals=goals, delta=0.5).n_adjustments == 0

    def test_goals_must_be_symmetric(self):
        grads = {i: g for i, g in enumerate(np.eye(3))}
        goals = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.3], [0.1, -0.3, 0.0]])
        with pytest.raises(ValueError, match=r"symmetric: goals\[1, 2\] = 0.3, goals\[2, 1\] = -0.3"):
            diminish_conflicts(grads, [0, 1, 2], beta=1.0, goals=goals, delta=0.5)
        goals[2, 1] = 0.3
        diminish_conflicts(grads, [0, 1, 2], beta=1.0, goals=goals, delta=0.5)


def dspace_conflicts(lefts, raws, goals):
    """Conflict count with the tie tolerance, on D-length vectors."""
    count = 0
    for k, left in lefts.items():
        for i, g in raws.items():
            if i != k and norm(left) > 0.0 and norm(g) > 0.0:
                count += cosine(left, g) < goals[k, i] - CONFLICT_TIE_TOL
    return count


class TestGramSweepMatchesDspaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(sweep_inputs())
    def test_same_tests_goals_and_mean(self, inputs):
        grads, order, beta, goals, delta = inputs
        goals0 = goals.copy()
        res = diminish_conflicts(grads, order, beta, goals, delta)
        ref = diminish_conflicts_dspace(grads, order, beta, goals, delta)
        np.testing.assert_array_equal(goals, goals0)  # the input goals are left alone

        assert list(zip(res.tests.client.tolist(), res.tests.target.tolist(), res.tests.adjusted.tolist())) == list(
            zip(ref.tests.client.tolist(), ref.tests.target.tolist(), ref.tests.adjusted.tolist())
        )
        assert res.n_adjustments == ref.n_adjustments
        for field in ("phi", "goal"):
            np.testing.assert_allclose(
                getattr(res.tests, field), getattr(ref.tests, field),
                rtol=1e-9, atol=1e-12,
            )
        np.testing.assert_allclose(res.goals, ref.goals, rtol=1e-9, atol=1e-12)
        scale = max(np.abs(w).max() for w in ref.working.values())
        np.testing.assert_allclose(res.gradient, ref.gradient, rtol=1e-9, atol=1e-9 * scale)
        if res.n_adjustments == 0:
            plain = np.mean(np.stack([grads[cid] for cid in range(len(order))]), axis=0)
            np.testing.assert_array_equal(res.gradient, plain)

        assert _count_conflicts(res.coords, res.coords, goals0) == dspace_conflicts(grads, grads, goals0)
        assert _count_conflicts(res.working, res.coords, goals0) == dspace_conflicts(
            ref.working, grads, goals0
        )


TIE_ULPS = 4


def rounding_ties(tests):
    """The tests whose phi and goal lie within ``TIE_ULPS`` ulps of 1, the
    scale of a cosine's rounding error."""
    return np.abs(tests.phi - tests.goal) <= TIE_ULPS * np.spacing(1.0)


class TestSweepMetamorphic:
    """Properties that relate two sweeps, with no oracle: the sweep reads
    only angles, so scaling every gradient by a power of two changes no
    decision and no bit, and it names no client, so relabelling the
    clients maps its tests and changes no decision."""

    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs(), st.integers(-7, 5))
    def test_scaling_by_a_power_of_two_is_exact(self, inputs, k):
        grads, order, beta, goals, delta = inputs
        scale = 2.0**k
        res = diminish_conflicts(grads, order, beta, goals, delta)
        scaled = diminish_conflicts({i: scale * g for i, g in grads.items()}, order, beta, goals, delta)
        for field in ("client", "target", "phi", "goal", "adjusted"):
            assert getattr(scaled.tests, field).tobytes() == getattr(res.tests, field).tobytes(), field
        assert scaled.goals.tobytes() == res.goals.tobytes()
        assert scaled.n_adjustments == res.n_adjustments
        assert scaled.gradient.tobytes() == (scale * res.gradient).tobytes()
        assert scaled.plain_mean.tobytes() == (scale * res.plain_mean).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs(), st.integers(0, 2**32 - 1))
    def test_relabelling_the_clients_maps_the_tests(self, inputs, seed):
        """A test whose phi and goal lie within ``TIE_ULPS`` of each other
        in either sweep is a rounding tie: identical clients give a phi
        equal to the goal in exact arithmetic, and rounding decides whether
        it adjusts (``aggregation``'s "Rounding ties"). Its flag is not
        compared, and the adjustment counts may differ by one per tie."""
        grads, order, beta, goals, delta = inputs
        K = len(order)
        label = make_rng(seed).permutation(K)  # client i becomes client label[i]
        relabelled_goals = np.empty_like(goals)
        relabelled_goals[np.ix_(label, label)] = goals
        res = diminish_conflicts(grads, order, beta, goals, delta)
        got = diminish_conflicts(
            {int(label[i]): g for i, g in grads.items()}, [int(label[i]) for i in order], beta, relabelled_goals, delta
        )
        np.testing.assert_array_equal(got.tests.client, label[res.tests.client])
        np.testing.assert_array_equal(got.tests.target, label[res.tests.target])
        tie = rounding_ties(got.tests) | rounding_ties(res.tests)
        np.testing.assert_array_equal(got.tests.adjusted[~tie], res.tests.adjusted[~tie])
        assert abs(got.n_adjustments - res.n_adjustments) <= np.count_nonzero(tie)
        for field in ("phi", "goal"):
            np.testing.assert_allclose(getattr(got.tests, field), getattr(res.tests, field), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.goals[np.ix_(label, label)], res.goals, rtol=1e-9, atol=1e-12)
        # a working gradient's norm is its coordinate row's, and bounds its entries
        scale = np.linalg.norm(res.working, axis=1).max(initial=0.0)
        for field in ("gradient", "plain_mean"):
            np.testing.assert_allclose(getattr(got, field), getattr(res, field), rtol=1e-9, atol=1e-9 * scale)


def drawn_sweep_input(K, D, seed, multipliers, zero_draws, beta, delta):
    """The input ``sweep_inputs`` builds from these draws: the rng seed, the
    multiplier of each duplicated row and the number of zeroed-row draws."""
    rng = make_rng(seed)
    R = rng.normal(size=(K, D)) * np.exp(rng.normal(size=(K, 1)))
    for m in multipliers:
        src, dst = rng.integers(K, size=2)
        R[dst] = R[src] * m
    for _ in range(zero_draws):
        R[rng.integers(K)] = 0.0
    goals = np.triu(rng.uniform(-1.0, 1.0, size=(K, K)), 1)
    goals[np.triu(rng.random((K, K)) < 0.05, 1)] = 1.0 - 1e-12
    goals = goals + goals.T
    grads = {cid: R[cid] for cid in range(K)}
    order = [int(i) for i in rng.permutation(K)]
    return grads, order, beta, goals, delta


def assert_sweep_matches_oracle(grads, order, beta, goals, delta):
    """The property test's comparison, with its tolerances."""
    res = diminish_conflicts(grads, order, beta, goals, delta)
    ref = diminish_conflicts_dspace(grads, order, beta, goals, delta)
    for field in ("client", "target", "adjusted"):
        np.testing.assert_array_equal(getattr(res.tests, field), getattr(ref.tests, field))
    assert res.n_adjustments == ref.n_adjustments
    for field in ("phi", "goal"):
        np.testing.assert_allclose(getattr(res.tests, field), getattr(ref.tests, field), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(res.goals, ref.goals, rtol=1e-9, atol=1e-12)
    scale = max(np.abs(w).max() for w in ref.working.values())
    np.testing.assert_allclose(res.gradient, ref.gradient, rtol=1e-9, atol=1e-9 * scale)
    goals0 = goals
    assert _count_conflicts(res.coords, res.coords, goals0) == dspace_conflicts(grads, grads, goals0)
    assert _count_conflicts(res.working, res.coords, goals0) == dspace_conflicts(ref.working, grads, goals0)
    return res, ref


def lapack_coordinates(raw):
    """The factor of R R^T by LAPACK's ``dpstrf`` at its default stop,
    rows put back in the order of R."""
    factor, piv, rank, info = dpstrf(raw @ raw.T, lower=1)
    assert info >= 0
    coords = np.empty((len(raw), rank))
    coords[piv - 1] = np.tril(factor)[:, :rank]
    return coords


@st.composite
def factor_inputs(draw):
    """K x D rows, each its own Gaussian draw, an exact copy or a multiple
    of an earlier row's draw, or zero."""
    K = draw(st.integers(1, 120))
    D = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(("own", "copy", "multiple", "zero")), min_size=K, max_size=K))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    own = rng.normal(size=(K, D))
    raw = np.zeros((K, D))
    for i, kind in enumerate(kinds):
        if kind == "own" or (i == 0 and kind != "zero"):
            raw[i] = own[i]
        elif kind != "zero":
            multiple = 1.0 if kind == "copy" else rng.choice([-1.0, 0.5, -2.0, 1e-3, 1e3])
            raw[i] = multiple * own[rng.integers(i)]
    return raw


class TestCoordinatesMatchLapack:
    @settings(max_examples=200, deadline=None)
    @given(factor_inputs())
    def test_same_rank_and_factor_as_dpstrf(self, raw):
        coords, ref = aggregation._coordinates(raw), lapack_coordinates(raw)
        assert coords.shape == ref.shape
        gram = raw @ raw.T
        top = gram.diagonal().max()
        # a row whose residual is at or below the stop, K 2^-53 top, is left
        # out of the factor by design (dpstrf leaves it out too)
        np.testing.assert_allclose(coords @ coords.T, gram, rtol=0, atol=(len(raw) * 2.0**-53 + 1e-14) * top)
        # a row and its copy or negation tie in exact arithmetic, so rounding
        # picks which is the pivot; the column is the same up to its sign
        sign = np.where(np.einsum("kr,kr->r", coords, ref) < 0.0, -1.0, 1.0)
        np.testing.assert_allclose(coords * sign, ref, rtol=0, atol=1e-13 * math.sqrt(top))

    @pytest.mark.parametrize("K", [1, 2, 7, 120])
    def test_all_zero_input_has_rank_zero(self, K):
        raw = np.zeros((K, 3))
        assert aggregation._coordinates(raw).shape == lapack_coordinates(raw).shape == (K, 0)

    @pytest.mark.parametrize("second, rank", [(2e-16, 1), (3e-16, 2)])
    def test_rank_boundary_matches_dpstrf(self, second, rank):
        # G = diag(1, second): the stop is 2 * 2^-53 = 2.2e-16; at numpy's
        # eps (2^-52) both inputs would have rank 1
        raw = np.diag([1.0, math.sqrt(second)])
        assert aggregation._coordinates(raw).shape == lapack_coordinates(raw).shape == (2, rank)

    def test_ties_go_to_the_row_dpstrf_puts_first(self):
        # after pivot 2, rows 1 and 0 tie; dpstrf's swap has put row 1 first
        raw = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.5]])
        np.testing.assert_array_equal(aggregation._coordinates(raw), lapack_coordinates(raw))


class TestSweepMatchesOracleOnKnownInputs:
    @pytest.mark.parametrize(
        "draws",
        [
            # --hypothesis-seed=5 of the property test: the Gram-space sweep
            # this one replaced was off by 2.6e-8 relative in four goals
            (17, 3, 3, [], 3, 1.0, 1.0),
            # an exact duplicate row; the Gram-space sweep was off by 1.9e-8
            (15, 3, 383, [1.0], 0, 1.0, 0.5),
        ],
        ids=["hypothesis-seed-5", "duplicated-row"],
    )
    def test_inputs_that_failed_the_gram_sweep(self, draws):
        res, _ = assert_sweep_matches_oracle(*drawn_sweep_input(*draws))
        assert res.n_adjustments > 0

    @staticmethod
    def random_input(K, beta, zero_at=(), seed=32):
        rng = make_rng(seed, K)
        R = rng.normal(size=(K, 4))
        order = [int(i) for i in rng.permutation(K)]
        for pos in zero_at:
            R[order[pos]] = 0.0
        upper = np.triu(rng.uniform(-0.9, 0.9, size=(K, K)), 1)
        return {cid: R[cid] for cid in range(K)}, order, beta, upper + upper.T, 0.3

    @pytest.mark.parametrize(
        "K, beta, zero_at",
        [(1, 1.0, ()), (2, 1.0, ()), (2, 0.5, ()), (7, 0.0, ()), (7, 1.0, ()), (9, 0.6, ()),
         (8, 1.0, (3,)), (8, 0.5, (1, 6)), (5, 1.0, range(5)),
         # K <= 3 at beta 0, 1/K and 1
         (1, 0.0, ()), (2, 0.0, ()), (3, 0.0, ()), (3, 1 / 3, ()), (3, 1.0, ()),
         # n = 1, K - 1 and K swept: no mirror write, pairs with one unswept
         # client, and every pair of two swept clients ending on its second test
         (4, 1 / 4, ()), (4, 3 / 4, ()), (4, 1.0, ()), (5, 1 / 5, ()), (5, 4 / 5, ()), (5, 1.0, ()),
         (12, 1 / 12, ()), (12, 11 / 12, ()), (12, 1.0, ())],
        ids=["K1", "K2", "K2-one-swept", "beta0", "beta1", "beta0.6", "zero-row-mid-order",
             "zero-rows-swept-and-not", "all-rows-zero", "K1-beta0", "K2-beta0", "K3-beta0", "K3-one-swept", "K3",
             "K4-n1", "K4-n3", "K4-n4", "K5-n1", "K5-n4", "K5-n5", "K12-n1", "K12-n11", "K12-n12"],
    )
    def test_wavefront_edge_cases(self, K, beta, zero_at):
        grads, order, beta, goals, delta = self.random_input(K, beta, zero_at)
        res, _ = assert_sweep_matches_oracle(grads, order, beta, goals, delta)
        if not zero_at:
            assert len(res.tests) == aggregation.selected_count(K, beta) * (K - 1)
        zero = {order[pos] for pos in zero_at}
        assert not zero & (set(res.tests.client.tolist()) | set(res.tests.target.tolist()))
        if len(zero) == K:
            assert len(res.tests) == 0
            np.testing.assert_array_equal(res.gradient, np.zeros(4))

    def test_skipped_pairs_leave_both_goals_alone(self):
        """A pair with a zero-norm side writes neither its goal nor the
        mirror: every pair holds its own goal, so an EMA write to either
        cell, or a copy from another pair, shows. At K = 9, beta = 1, step
        5 holds the pairs (0, 5), (1, 4), (2, 3), (3, 1) and (4, 0): the
        zero row at position 4 leaves (1, 4) and (4, 0) out of a step with
        live pairs, while (0, 6) and (3, 0) are tested at other steps."""
        grads, order, beta, _, delta = self.random_input(9, 1.0, zero_at=(4,))
        upper = np.triu(make_rng(34).uniform(-0.9, 0.9, size=(9, 9)), 1)
        goals = upper + upper.T
        assert len(np.unique(upper[np.triu_indices(9, 1)])) == 36
        res, _ = assert_sweep_matches_oracle(grads, order, beta, goals, delta)
        pairs = set(zip(res.tests.client.tolist(), res.tests.target.tolist()))
        assert {(order[0], order[6]), (order[3], order[0])} <= pairs
        assert (order[1], order[4]) not in pairs
        zero = order[4]
        np.testing.assert_array_equal(res.goals[zero], goals[zero])
        np.testing.assert_array_equal(res.goals[:, zero], goals[:, zero])

    @pytest.mark.parametrize("multiple", [1.0, 2.5, -1.0])
    def test_duplicated_clients(self, multiple):
        grads, order, beta, goals, delta = self.random_input(10, 1.0, seed=33)
        grads[order[2]] = grads[order[7]] = multiple * grads[order[4]]
        res, _ = assert_sweep_matches_oracle(grads, order, beta, goals, delta)
        assert res.n_adjustments > 0

    @pytest.mark.parametrize("K", [4, 11, 12])
    def test_self_pairs_leave_the_diagonal_alone(self, K):
        """No step visits the self pair (q, q): the diagonal sits in column
        0 of the sweep's grid, where no step reads or writes. A diagonal
        goal of 0.99 would see a conflict in any working gradient that has
        moved, so a self test would adjust and step the goal."""
        grads, order, beta, goals, delta = self.random_input(K, 1.0)
        np.fill_diagonal(goals, 0.99)
        res, _ = assert_sweep_matches_oracle(grads, order, beta, goals, delta)
        np.testing.assert_array_equal(res.goals.diagonal(), 0.99)
        assert not (res.tests.client == res.tests.target).any()
        assert len(res.tests) == K * (K - 1)
        assert res.n_adjustments > 0

    def test_working_gradient_driven_to_zero_norm(self, monkeypatch):
        """Once a working gradient vanishes, its later tests are skipped."""
        def always(phi, goal):
            return np.greater(phi, -1.0 + aggregation.GOAL_SATURATION_EPS)

        monkeypatch.setattr(aggregation, "is_conflict", always)
        monkeypatch.setattr(oracles, "is_conflict", always)
        grads = {0: np.array([2.0, 0.0, 0.0]), 1: np.array([1.0, 0.0, 0.0]), 2: np.array([0.0, 1.0, 0.0])}
        res, ref = assert_sweep_matches_oracle(grads, [0, 1, 2], 1.0, np.full((3, 3), 0.5), 0.5)
        # clients 0 and 1 vanish at their first test and test nothing else
        assert list(zip(res.tests.client.tolist(), res.tests.target.tolist())) == [(0, 1), (1, 0), (2, 0), (2, 1)]
        np.testing.assert_array_equal(ref.working[0], np.zeros(3))
        np.testing.assert_array_equal(res.working[[0, 1]], 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 30), D=st.integers(1, 5), beta=st.floats(0.0, 1.0))
    def test_every_swept_client_tests_every_other_client(self, seed, K, D, beta):
        rng = make_rng(seed)
        grads = {cid: rng.normal(size=D) + 0.1 for cid in range(K)}  # no zero row
        order = [int(i) for i in rng.permutation(K)]
        res = diminish_conflicts(grads, order, beta, np.zeros((K, K)), 0.5)
        assert len(res.tests) == math.ceil(beta * K) * (K - 1)


class TestBuildOrder:
    def test_loss_ascending_with_id_ties(self):
        order = build_order({0: 0.5, 1: 0.2, 2: 0.5, 3: 0.1}, policy="loss_ascending")
        assert order == (3, 1, 0, 2)

    def test_reversed(self):
        order = build_order({0: 0.3, 1: 0.1, 2: 0.2}, policy="reversed")
        assert order == (0, 2, 1)

    def test_random_seeded_reproducible(self):
        losses = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4, 4: 0.5}
        o1 = build_order(losses, "random", make_rng(3))
        o2 = build_order(losses, "random", make_rng(3))
        assert o1 == o2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="order policy"):
            build_order({0: 0.1, 1: 0.2}, "sideways")
        with pytest.raises(ValueError, match="order policy"):
            TrainConfig(order_policy="sideways")


def run_round(grads, beta=1.0, losses=None, eta=0.1, goals=None, lam=None, gamma=0.5, delta=0.5):
    stats = make_stats(grads, losses)
    K = len(grads)
    cfg = TrainConfig(beta=beta, delta=delta, gamma=gamma, eta=eta, alpha=0.05)
    goals = goals if goals is not None else np.zeros((K, K))
    lam = lam if lam is not None else ZERO_LAM
    params = np.zeros(len(grads[0]))
    return server_round(params, lam, stats, TABLE, cfg, goals)


class TestServerRound:
    def test_identical_gradients_full_beta(self):
        g = np.array([0.3, -0.7, 0.2])
        params, lam, goals, rec = run_round([g, g, g], beta=1.0, eta=0.1)
        np.testing.assert_allclose(params, -0.1 * g, rtol=1e-12)
        assert rec.n_adjustments == 0

    def test_rescaling_preserves_direction(self):
        rng = make_rng(24)
        grads = [rng.normal(size=5) for _ in range(4)]
        stats = make_stats(grads)
        cfg = TrainConfig(beta=1.0, delta=0.2, gamma=0.0, eta=1.0, alpha=0.05)
        params0 = np.zeros(5)
        params, _, _, rec = server_round(params0, ZERO_LAM, stats, TABLE, cfg, np.zeros((4, 4)))
        g_global = (params0 - params) / cfg.eta
        res = diminish_conflicts(
            [st.update_grad for st in stats],
            build_order(lagrangian_losses(stats, ZERO_LAM, TABLE.families, cfg.alpha)),
            cfg.beta,
            np.zeros((4, 4)),
            cfg.delta,
        )
        raw_mean = np.mean(np.stack(grads), axis=0)
        np.testing.assert_allclose(cosine(g_global, res.gradient), 1.0, atol=1e-12)
        np.testing.assert_allclose(norm(g_global), norm(raw_mean), rtol=1e-12)

    def test_lambda_updated_from_merged_h(self):
        stats = make_stats([np.ones(2)] * 2)
        # per-client F(D)=0.5 on both groups -> merged gap 0, h = -alpha
        cfg = TrainConfig(beta=0.0, delta=0.5, gamma=0.2, eta=0.1, alpha=0.05)
        lam = np.array([0.3, 0.0])
        _, lam2, _, rec = server_round(np.zeros(2), lam, stats, TABLE, cfg, np.zeros((2, 2)))
        np.testing.assert_allclose(lam2[0], 0.3 + 0.2 * (-0.05))
        assert lam2[1] == 0.0  # clamped at zero
        assert rec.multipliers == {"s0=g0": lam2[0], "s0=g1": 0.0}

    def test_degenerate_cancellation_detected(self):
        # two exactly opposed clients, beta=0: plain mean is zero, fine
        g = np.array([1.0, 0.0])
        params, _, _, rec = run_round([g, -g], beta=0.0)
        np.testing.assert_array_equal(params, np.zeros(2))
        assert rec.g_global_norm == 0.0

    def test_near_cancellation_refused(self):
        # client 0 is rotated onto -(g1 + g2): the curated mean is 2.2e-16 (1, 1), a direction of rounding error
        grads = [np.array([-3.0, -2.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        goals = np.zeros((3, 3))
        goals[0, 1] = goals[1, 0] = -1.0 / math.sqrt(5.0)
        goals[0, 2] = goals[2, 0] = -1.0 / math.sqrt(2.0)
        with pytest.raises(DegenerateCancellationError, match="cancelled"):
            run_round(grads, beta=1 / 3, losses=[0.1, 0.2, 0.3], goals=goals, delta=1.0)

    def test_goal_decay_is_the_configs_delta(self):
        g = [np.array([1.0, 0.0]), np.array([0.6, 0.8])]  # cos = 0.6, above the goals: no adjustment
        goals = np.array([[0.0, 0.2], [0.2, 0.0]])
        _, _, kept, _ = run_round(g, goals=goals, delta=1.0)
        np.testing.assert_array_equal(kept, goals)
        _, _, latest, _ = run_round(g, goals=goals, delta=0.0)
        np.testing.assert_allclose(latest, [[0.0, 0.6], [0.6, 0.0]], rtol=1e-15)
        np.testing.assert_array_equal(goals, [[0.0, 0.2], [0.2, 0.0]])  # the input goals are left alone

    def test_determinism(self):
        rng = make_rng(25)
        grads = [rng.normal(size=4) for _ in range(3)]
        out1 = run_round(grads, beta=1.0)
        out2 = run_round(grads, beta=1.0)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[2], out2[2])

    def test_beta_zero_order_policy_invariance(self):
        rng = make_rng(26)
        grads = [rng.normal(size=4) for _ in range(4)]
        stats = make_stats(grads)
        outs = []
        for policy in ("loss_ascending", "reversed", "random"):
            cfg = TrainConfig(beta=0.0, delta=0.5, gamma=0.0, eta=0.1, alpha=0.05, order_policy=policy)
            p, _, _, _ = server_round(
                np.zeros(4), ZERO_LAM, stats, TABLE, cfg, np.zeros((4, 4)), rng=make_rng(0)
            )
            outs.append(p)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_duplicate_clients_survive_many_rounds(self):
        """Identical clients drive their goal to exactly 1; later cosines of
        1 - 1 ulp must not ask for the singular rotation."""
        cfg = TrainConfig(beta=1.0, delta=0.01, gamma=0.0, eta=0.1, alpha=0.05)
        for seed in range(5):
            rng = make_rng(29, seed)
            goals = np.zeros((3, 3))
            for t in range(12):
                g = rng.normal(size=200)
                grads = [g, float(rng.uniform(0.5, 2.0)) * g, rng.normal(size=200)]
                _, _, goals, _ = server_round(
                    np.zeros(200), ZERO_LAM, make_stats(grads), TABLE, cfg, goals, round_index=t
                )
            assert goals[0, 1] == goals[1, 0] >= 1.0 - 1e-9
            assert np.abs(goals).max() <= 1.0

    def test_conflict_counts_skip_rounding_ties(self):
        g = np.array([[1.0, 0.0], [0.6, 0.8]])  # cos = 0.6
        near = np.array([[0.0, 0.6 + 1e-12], [0.6 + 1e-12, 0.0]])
        assert _count_conflicts(g, g, near) == 0
        assert _count_conflicts(g, g, near + 1e-6) == 2
        assert _count_conflicts(np.zeros((2, 2)), np.zeros((2, 2)), near + 0.5) == 0  # zero norms

    def test_lagrangian_losses_once_per_round(self, monkeypatch):
        calls = []
        original = aggregation.lagrangian_losses

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(aggregation, "lagrangian_losses", counting)
        _, _, _, rec = run_round([np.ones(3), -np.ones(3)], beta=1.0, losses=[0.4, 0.2])
        assert len(calls) == 1
        assert rec.order == (1, 0)

    def test_lagrangian_losses_sum_over_keys_with_members(self):
        fs = FairnessStatistics([(1.2, 3), (0.0, 0)])  # key 1 has no members on the client
        stats = [ClientStatistics(0.7, fs, np.ones(2))]
        losses = lagrangian_losses(stats, np.array([0.5, 0.9]), TABLE.families, 0.05)
        assert losses == {0: 0.7 + 0.5 * -0.05}  # h = -alpha on key 0: no gap

    def test_round_record_schema(self):
        _, _, _, rec = run_round([np.ones(3), -np.ones(3)], beta=1.0, losses=[0.4, 0.2])
        d = rec.to_json()
        assert set(d) == {
            "round", "client_losses", "lagrangian_losses", "lambda", "order",
            "adjustments", "conflicts_pre", "conflicts_post", "g_global_norm",
        }

    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs(), st.integers(0, 2**32 - 1), st.sampled_from(aggregation.ORDER_POLICIES))
    def test_relabelling_the_uploads_maps_the_round(self, inputs, seed, policy):
        """Permuting the uploads' positions, with the goals permuted to
        match, maps the order and changes no adjustment or conflict count.
        The merged statistics and the plain mean add in client order, so λ,
        the goals and the parameters agree to rounding only. Over 10,000
        draws they moved by at most 4.4e-16 (λ, absolute), 3.9e-14 (goals,
        absolute) and 8.6e-15 of the step's largest entry (parameters); the
        tolerances below leave a margin of 20 to 100."""
        grads, _, beta, goals, delta = inputs
        K = len(grads)
        rng = make_rng(seed)
        counts = rng.integers(0, 5, size=(K, 2))
        groups = np.stack([counts * rng.uniform(0.0, 1.0, size=(K, 2)), counts], axis=-1)
        stats = [ClientStatistics(float(rng.uniform(0.0, 2.0)), FairnessStatistics(groups[k]), grads[k])
                 for k in range(K)]
        lam, params = rng.uniform(0.0, 2.0, size=2), rng.normal(size=len(grads[0]))
        cfg = TrainConfig(beta=beta, delta=delta, gamma=float(rng.uniform(0.0, 1.0)), eta=float(rng.uniform(0.01, 1.0)),
                          alpha=0.05, order_policy=policy)
        # build_order breaks exact ties of the Lagrangian loss by client index, which a relabelling changes
        assume(len(set(lagrangian_losses(stats, lam, TABLE.families, cfg.alpha).values())) == K)
        label = rng.permutation(K)  # client i becomes client label[i]
        relabelled = [stats[i] for i in np.argsort(label)]
        relabelled_goals = np.empty_like(goals)
        relabelled_goals[np.ix_(label, label)] = goals
        p0, lam0, goals0, rec0 = server_round(params, lam, stats, TABLE, cfg, goals, rng=make_rng(seed, 1))
        p1, lam1, goals1, rec1 = server_round(
            params, lam, relabelled, TABLE, cfg, relabelled_goals, rng=make_rng(seed, 1)
        )
        assert rec1.order == tuple(int(label[k]) for k in rec0.order)
        assert (rec1.n_adjustments, rec1.conflicts_pre, rec1.conflicts_post) == (
            rec0.n_adjustments, rec0.conflicts_pre, rec0.conflicts_post
        )
        np.testing.assert_allclose(lam1, lam0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(goals1[np.ix_(label, label)], goals0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(p1, p0, rtol=0.0, atol=1e-12 * np.abs(params - p0).max())


class TestProperties:
    """Invariants of the adjustment, the sweep and the rescaling, on drawn inputs."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 8),
        scales=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        goal=st.floats(-0.99, 0.99),
    )
    def test_adjusted_cosine_equals_the_goal(self, seed, dim, scales, goal):
        rng = make_rng(seed)
        g_k, g_j = scales[0] * rng.normal(size=dim), scales[1] * rng.normal(size=dim)
        phi = cosine(g_k, g_j)
        assume(abs(phi) < 0.999)  # a near-(anti)parallel pair has almost no plane to rotate in
        out = adjust_gradient(g_k, g_j, phi, goal)
        assert math.isclose(cosine(out, g_j), goal, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 8),
        dim=st.integers(1, 6),
        beta=st.floats(0.0, 1.0),
        delta=st.floats(0.0, 1.0),
        saturate=st.booleans(),
    )
    def test_goals_stay_symmetric_within_unit_interval(self, seed, K, dim, beta, delta, saturate):
        rng = make_rng(seed)
        grads = {i: rng.normal(size=dim) for i in range(K)}
        if K > 2:
            grads[K - 1] = 2.0 * grads[0]  # a duplicated direction drives its goal towards 1
        upper = np.triu(rng.uniform(-1.0, 1.0, size=(K, K)), 1)
        if saturate:
            upper = np.sign(upper) * (np.abs(upper) > 0.5)  # goals of exactly +-1 and 0
        goals = upper + upper.T
        order = [int(i) for i in rng.permutation(K)]
        for _ in range(3):  # goals feed the next round's sweep
            goals = diminish_conflicts(grads, order, beta, goals, delta).goals
            np.testing.assert_array_equal(goals, goals.T)
            assert np.abs(goals).max() <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 8),
        dim=st.integers(2, 8),
        beta=st.floats(0.0, 1.0),
        goal=st.floats(-0.9, 0.9),
    )
    def test_rescaling_keeps_the_raw_mean_norm(self, seed, K, dim, beta, goal):
        rng = make_rng(seed)
        grads = [rng.normal(size=dim) * rng.uniform(0.1, 10.0) for _ in range(K)]
        cfg = TrainConfig(beta=beta, delta=0.5, gamma=0.0, eta=1.0, alpha=0.05)
        params, _, _, rec = server_round(np.zeros(dim), ZERO_LAM, make_stats(grads), TABLE, cfg, np.full((K, K), goal))
        raw_norm = norm(np.mean(np.stack(grads), axis=0))
        np.testing.assert_allclose(norm(-params), raw_norm, rtol=1e-12)
        assert rec.g_global_norm == norm(-params)
