"""MLP forward/backward: golden values, finite differences, round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from fairfedsim import model
from fairfedsim.model import (
    MlpParams,
    MlpSpec,
    batch_outputs,
    forward,
    loss_and_grad,
    per_sample_losses,
    predict_proba,
    prob_and_grad,
    sigmoid,
)
from fairfedsim.numeric import make_rng
from fairfedsim.oracles import finite_diff

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_mlp.json").read_text())


def random_batch(rng, n, input_dim):
    """Feature rows X and 0/1 labels y, drawn one row and its label at a time."""
    rows = [(rng.normal(size=input_dim), int(rng.integers(0, 2))) for _ in range(n)]
    return np.stack([x for x, _ in rows]), np.array([y for _, y in rows])


from conftest import min_preactivation, rel_err


class TestSpecAndParams:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(0, (4,))
        with pytest.raises(ValueError):
            MlpSpec(3, ())
        with pytest.raises(ValueError):
            MlpSpec(3, (4, 0))

    def test_param_count(self):
        spec = MlpSpec(5, (8, 8, 8, 8))
        assert spec.n_params == 5 * 8 + 8 + 3 * (8 * 8 + 8) + 8 + 1

    def test_flatten_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            spec = MlpSpec(int(rng.integers(1, 10)), tuple(rng.integers(1, 9, size=rng.integers(1, 5))))
            params = MlpParams.init(spec, seed=trial)
            flat = params.flatten()
            again = MlpParams.unflatten(spec, flat).flatten()
            np.testing.assert_array_equal(flat, again)

    def test_unflatten_wrong_length(self):
        spec = MlpSpec(3, (4,))
        with pytest.raises(ValueError):
            MlpParams.unflatten(spec, np.zeros(spec.n_params + 1))

    def test_init_biases_zero_weights_bounded(self):
        spec = MlpSpec(6, (7, 7))
        params = MlpParams.init(spec, seed=9)
        for w, b, fan_in, fan_out in zip(
            params.weights, params.biases, (6, 7, 7), (7, 7, 1)
        ):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_params_give_half(self):
        spec = MlpSpec(4, (5, 5))
        params = MlpParams.zeros(spec)
        assert forward(params, np.ones(4)) == 0.5

    def test_forward_matches_golden(self):
        spec = MlpSpec(**GOLDEN["spec"])
        params = MlpParams.init(spec, seed=GOLDEN["seed"])
        p = forward(params, np.array(GOLDEN["forward_input"]))
        np.testing.assert_allclose(p, GOLDEN["forward_prob"], rtol=1e-12)

    def test_forward_dimension_mismatch(self):
        params = MlpParams.zeros(MlpSpec(4, (5,)))
        with pytest.raises(ValueError):
            forward(params, np.ones(3))

    def test_forward_deterministic(self):
        spec = MlpSpec(6, (8, 8))
        params = MlpParams.init(spec, seed=11)
        x = make_rng(4).normal(size=6)
        assert forward(params, x) == forward(params, x)

    def test_sigmoid_stable_extremes(self):
        z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        s = sigmoid(z)
        assert np.all(np.isfinite(s))
        assert s[2] == 0.5


class TestLossAndGradients:
    def test_loss_matches_golden(self):
        spec = MlpSpec(**GOLDEN["spec"])
        params = MlpParams.init(spec, seed=GOLDEN["seed"])
        loss, grad = loss_and_grad(params, np.array(GOLDEN["batch_X"]), np.array(GOLDEN["batch_y"]))
        np.testing.assert_allclose(loss, GOLDEN["batch_loss"], rtol=1e-12)
        np.testing.assert_allclose(grad, GOLDEN["batch_loss_grad"], rtol=1e-10, atol=1e-15)

    def test_zero_params_single_positive_sample(self):
        spec = MlpSpec(3, (4,))
        params = MlpParams.zeros(spec)
        loss, _ = loss_and_grad(params, np.ones((1, 3)), np.array([1]))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_perfect_fit_has_tiny_loss_and_grad(self):
        # drive the logit far positive/negative with a handcrafted single layer
        spec = MlpSpec(1, (1,))
        params = MlpParams.zeros(spec)
        params.weights[0][0, 0] = 1.0
        params.weights[1][0, 0] = 50.0
        loss, grad = loss_and_grad(params, np.array([[5.0]]), np.array([1]))
        assert loss < 1e-10
        assert np.linalg.norm(grad) < 1e-10

    def test_empty_batch_rejected(self):
        params = MlpParams.zeros(MlpSpec(2, (2,)))
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_grad(params, np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError, match="empty batch"):
            prob_and_grad(params, np.empty((0, 2)))

    def test_mean_prob_half_for_zero_params(self):
        params = MlpParams.zeros(MlpSpec(2, (3,)))
        p, _ = prob_and_grad(params, np.ones((1, 2)))
        assert p == 0.5

    def test_mean_prob_duplicate_invariance(self):
        spec = MlpSpec(3, (4, 4))
        params = MlpParams.init(spec, seed=5)
        x = np.array([0.3, -0.2, 1.4])
        p1, _ = prob_and_grad(params, x[None, :])
        p2, _ = prob_and_grad(params, np.stack([x, x]))
        np.testing.assert_allclose(p1, p2, rtol=1e-15)

    def test_determinism_bitwise(self):
        spec = MlpSpec(5, (6, 6))
        params = MlpParams.init(spec, seed=21)
        X, y = random_batch(make_rng(21, 1), 8, 5)
        l1, g1 = loss_and_grad(params, X, y)
        l2, g2 = loss_and_grad(params, X, y)
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_loss_nonneg_prob_in_open_interval(self):
        rng = make_rng(6)
        for trial in range(20):
            spec = MlpSpec(4, (5, 5))
            params = MlpParams.init(spec, seed=trial)
            X, y = random_batch(rng, 6, 4)
            loss, _ = loss_and_grad(params, X, y)
            p, _ = prob_and_grad(params, X)
            assert loss >= 0.0
            assert 0.0 < p < 1.0


class TestFiniteDifferenceAgreement:
    """Analytic gradients vs central differences on random instances."""

    def _check(self, value_fn, grad_vec, flat0, spec, tol):
        fd = finite_diff(value_fn, flat0, step=1e-5)
        assert rel_err(grad_vec, fd) <= tol

    def test_loss_and_prob_gradients(self):
        rng = make_rng(7)
        failures = 0
        trial = 0
        while trial < 30:
            input_dim = int(rng.integers(2, 10))
            spec = MlpSpec(input_dim, (6, 5))
            params = MlpParams.init(spec, seed=100 + trial)
            X, y = random_batch(rng, int(rng.integers(3, 10)), input_dim)
            if min_preactivation(params, X) < 1e-4:
                continue
            trial += 1
            flat0 = params.flatten()

            _, g_loss = loss_and_grad(params, X, y)
            self._check(
                lambda w: loss_and_grad(MlpParams.unflatten(spec, w), X, y)[0],
                g_loss, flat0, spec, 1e-4,
            )
            _, g_prob = prob_and_grad(params, X)
            self._check(
                lambda w: prob_and_grad(MlpParams.unflatten(spec, w), X)[0],
                g_prob, flat0, spec, 1e-4,
            )
        assert failures == 0


def test_per_sample_losses_clamp():
    losses = per_sample_losses(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.all(np.isfinite(losses))


def test_predict_proba_batch_matches_single():
    spec = MlpSpec(4, (5, 5))
    params = MlpParams.init(spec, seed=3)
    X = make_rng(8).normal(size=(6, 4))
    probs = predict_proba(params, X)
    for i in range(6):
        np.testing.assert_allclose(probs[i], forward(params, X[i]), rtol=1e-15)


class TestRowRestrictedBackward:
    """weighted_grad(d, rows) backpropagates only the given rows."""

    def setup_method(self):
        rng = make_rng(12)
        self.params = MlpParams.init(MlpSpec(5, (7, 6)), seed=4)
        self.X, self.y = random_batch(rng, 40, 5)
        self.dlogit = rng.normal(size=40)

    @pytest.mark.parametrize("rows", [[17], list(range(40)), "random"])
    def test_matches_dlogit_zeroed_outside_rows(self, rows):
        if rows == "random":
            rows = np.sort(make_rng(3).choice(40, size=13, replace=False))
        rows = np.asarray(rows, dtype=np.int64)
        mask = np.zeros(40, dtype=bool)
        mask[rows] = True
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        np.testing.assert_allclose(
            weighted_grad(self.dlogit, rows), weighted_grad(np.where(mask, self.dlogit, 0.0)), rtol=1e-12
        )

    def test_all_rows_default_is_the_full_backward_bitwise(self):
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        _, _, acts = model._forward_cache(self.params, self.X)
        np.testing.assert_array_equal(weighted_grad(self.dlogit), model._backward(self.params, acts, self.dlogit))
