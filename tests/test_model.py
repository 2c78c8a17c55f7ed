"""MLP forward/backward: golden values, finite differences, round trips."""

import inspect
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairfedsim import model
from fairfedsim.model import (
    MlpParams,
    MlpSpec,
    Workspace,
    batch_outputs,
    loss_and_grad,
    per_sample_losses,
    predict_proba,
    sigmoid,
)
from fairfedsim.numeric import NonFiniteError, make_rng
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

    def test_weights_and_biases_are_views_of_one_vector(self):
        spec = MlpSpec(3, (4, 5))
        flat = make_rng(2).normal(size=spec.n_params)
        params = MlpParams.unflatten(spec, flat)
        assert not np.shares_memory(params.flat, flat)  # unflatten copies once
        for part in params.weights + params.biases:
            assert np.shares_memory(part, params.flat)
        params.biases[1][2] = 7.0
        params.weights[2][0, 4] = -3.0
        assert params.flat[3 * 4 + 4 + 5 * 4 + 2] == 7.0
        assert params.flat[-2] == -3.0
        out = params.flatten()
        assert not np.shares_memory(out, params.flat)  # flatten copies once
        np.testing.assert_array_equal(MlpParams.unflatten(spec, out).flatten(), out)

    def test_layers_in_order_weights_row_major_then_biases(self):
        params = MlpParams.unflatten(MlpSpec(2, (3,)), np.arange(13.0))
        np.testing.assert_array_equal(params.weights[0], [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(params.biases[0], [6, 7, 8])
        np.testing.assert_array_equal(params.weights[1], [[9, 10, 11]])
        np.testing.assert_array_equal(params.biases[1], [12])

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


def mean_prob_and_grad(params, X):
    """Mean predicted probability over the rows of X and its gradient,
    d/dlogit of the mean being p(1 - p)/n per row."""
    probs, _, weighted_grad = batch_outputs(params, X, np.zeros(len(X)))
    return float(np.mean(probs)), weighted_grad(probs * (1.0 - probs) / len(X))


class TestForward:
    def test_zero_params_give_half(self):
        spec = MlpSpec(4, (5, 5))
        params = MlpParams.zeros(spec)
        assert predict_proba(params, np.ones((1, 4)))[0] == 0.5

    def test_forward_matches_golden(self):
        spec = MlpSpec(**GOLDEN["spec"])
        params = MlpParams.init(spec, seed=GOLDEN["seed"])
        p = predict_proba(params, np.array([GOLDEN["forward_input"]]))
        np.testing.assert_allclose(p, [GOLDEN["forward_prob"]], rtol=1e-12)

    def test_forward_dimension_mismatch(self):
        params = MlpParams.zeros(MlpSpec(4, (5,)))
        with pytest.raises(ValueError):
            predict_proba(params, np.ones((1, 3)))

    def test_forward_deterministic(self):
        spec = MlpSpec(6, (8, 8))
        params = MlpParams.init(spec, seed=11)
        X = make_rng(4).normal(size=(1, 6))
        assert predict_proba(params, X)[0] == predict_proba(params, X)[0]

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

    def test_non_finite_gradient_raises(self):
        """An activation that overflows leaves the probability finite
        (sigmoid(inf) = 1) but not the gradient: ``weighted_grad`` returns
        it unchecked, and ``loss_and_grad`` checks its own result."""
        params = MlpParams.zeros(MlpSpec(1, (1,)))
        params.weights[0][0, 0] = 10.0
        params.weights[1][0, 0] = 1.0
        X, y = np.array([[1e308]]), np.array([0])
        with np.errstate(over="ignore"):
            probs, _, weighted_grad = batch_outputs(params, X, y)
            assert probs[0] == 1.0
            assert not np.isfinite(weighted_grad(probs - y)).all()
            with pytest.raises(NonFiniteError, match="non-finite gradient"):
                loss_and_grad(params, X, y)

    def test_empty_batch_rejected(self):
        params = MlpParams.zeros(MlpSpec(2, (2,)))
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_grad(params, np.empty((0, 2)), np.empty(0))

    def test_mean_prob_half_for_zero_params(self):
        params = MlpParams.zeros(MlpSpec(2, (3,)))
        p, _ = mean_prob_and_grad(params, np.ones((1, 2)))
        assert p == 0.5

    def test_mean_prob_duplicate_invariance(self):
        spec = MlpSpec(3, (4, 4))
        params = MlpParams.init(spec, seed=5)
        x = np.array([0.3, -0.2, 1.4])
        p1, _ = mean_prob_and_grad(params, x[None, :])
        p2, _ = mean_prob_and_grad(params, np.stack([x, x]))
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
            p, _ = mean_prob_and_grad(params, X)
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
            _, g_prob = mean_prob_and_grad(params, X)
            self._check(
                lambda w: mean_prob_and_grad(MlpParams.unflatten(spec, w), X)[0],
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
        np.testing.assert_allclose(probs[i], predict_proba(params, X[i:i + 1])[0], rtol=1e-15)


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
        work = Workspace(self.params.spec, 40)
        _, _, acts = model._forward_cache(self.params, self.X, work)
        np.testing.assert_array_equal(
            weighted_grad(self.dlogit), model._backward(self.params, acts, self.dlogit, work)
        )


def backward_out_of_place(params, acts, dlogit):
    """The flat gradient as the concatenation of per-layer products, with a
    new array for every intermediate, each bias gradient the product of a
    ones vector and the layer's delta."""
    grads_w, grads_b = [None] * len(params.weights), [None] * len(params.biases)
    delta = dlogit[:, None]
    for li in range(len(params.weights) - 1, -1, -1):
        grads_w[li] = delta.T @ acts[li]
        grads_b[li] = np.ones(len(dlogit)) @ delta
        if li > 0:
            delta = (delta @ params.weights[li]) * (acts[li] > 0.0)
    return np.concatenate([p for gw, gb in zip(grads_w, grads_b) for p in (gw.ravel(), gb)])


def test_backward_equals_per_layer_concatenate_bitwise():
    """The backward pass writes each layer's gradient into its slice of one
    vector; the result equals concatenating per-layer products bit for bit."""
    rng = make_rng(31)
    for spec in (MlpSpec(5, (7, 6)), MlpSpec(3, (32, 32, 32, 32)), MlpSpec(1, (1,))):
        params = MlpParams.init(spec, seed=6)
        X, _ = random_batch(rng, 23, spec.input_dim)
        dlogit = rng.normal(size=23)
        work = Workspace(spec, 23)
        _, _, acts = model._forward_cache(params, X, work)
        reference = backward_out_of_place(params, acts, dlogit)

        np.testing.assert_array_equal(model._backward(params, acts, dlogit, work), reference)
        assert model._backward(params, acts, dlogit, work).tobytes() == reference.tobytes()  # -0.0 too


# The kernel's in-place forms must give the same bytes as the out-of-place
# formulas below; bytes, since assert_array_equal counts -0.0 equal to +0.0.


def sigmoid_branch(z):
    """The logistic function in its two-branch form, by boolean masks."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_out_of_place(params, X):
    """(probs, logits, activations) with a new array for every intermediate."""
    acts = [X]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    logits = (acts[-1] @ params.weights[-1].T + params.biases[-1]).ravel()
    return sigmoid_branch(logits), logits, acts


class TestKernelBytes:
    def setup_method(self):
        rng = make_rng(44)
        self.params = MlpParams.init(MlpSpec(6, (32, 32, 32, 32)), seed=8)
        self.X, self.y = random_batch(rng, 57, 6)
        self.dlogit = rng.normal(size=57)
        self.dlogit[::7] = -0.0
        self.rows = [np.flatnonzero(self.y == 1), np.flatnonzero(self.y == 0), np.array([40, 3, 3, 12])]

    def test_sigmoid_matches_branch_form(self):
        tiny = np.finfo(np.float64).tiny
        special = [0.0, 1e-300, 5e-324, tiny / 2, tiny, 36.7, 709.0, 745.0, 800.0, 1e308, np.inf]
        z = np.concatenate([special, np.negative(special), make_rng(45).normal(size=10_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = sigmoid(z), sigmoid_branch(z)
        assert got.tobytes() == want.tobytes()
        assert sigmoid(-0.0) == sigmoid(0.0) == 0.5

    def test_forward_matches_out_of_place_formula(self):
        probs, logits, acts = model._forward_cache(self.params, self.X, Workspace(self.params.spec, 57))
        want_probs, want_logits, want_acts = forward_out_of_place(self.params, self.X)
        assert probs.tobytes() == want_probs.tobytes()
        assert logits.tobytes() == want_logits.tobytes()
        assert acts[0] is self.X
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in want_acts]

    def test_weighted_grad_modifies_no_input(self):
        X, dlogit, flat = self.X.copy(), self.dlogit.copy(), self.params.flat.copy()
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        acts = inspect.getclosurevars(weighted_grad).nonlocals["acts"]
        cached = [a.tobytes() for a in acts]
        for rows in (None, *self.rows):
            weighted_grad(self.dlogit, rows)
        assert self.X.tobytes() == X.tobytes()
        assert self.dlogit.tobytes() == dlogit.tobytes()
        assert self.params.flat.tobytes() == flat.tobytes()
        assert [a.tobytes() for a in acts] == cached

    def test_passes_give_the_same_bytes_in_any_order(self):
        calls = [None, *self.rows, None]

        def fresh(rows):
            _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
            return weighted_grad(self.dlogit, rows).tobytes()

        want = [fresh(rows) for rows in calls]
        for order in itertools.permutations(range(len(calls))):
            _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
            got = {i: weighted_grad(self.dlogit, calls[i]).tobytes() for i in order}
            assert [got[i] for i in range(len(calls))] == want

    def test_bool_rows_rejected(self):
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        with pytest.raises(TypeError, match="integer index"):
            weighted_grad(self.dlogit, self.y == 1)

    def test_a_run_is_read_in_place_and_equals_its_gather(self, monkeypatch):
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        cached = inspect.getclosurevars(weighted_grad).nonlocals["acts"]
        passed = []
        backward = model._backward
        monkeypatch.setattr(model, "_backward", lambda p, acts, d, w: passed.append(acts) or backward(p, acts, d, w))
        for run in (slice(0, 57), slice(10, 11), slice(20, 45)):
            got = weighted_grad(self.dlogit, run)
            assert all(np.shares_memory(a, c) for a, c in zip(passed[-1], cached))
            assert got.tobytes() == weighted_grad(self.dlogit, np.arange(57)[run]).tobytes()
            assert not any(np.shares_memory(a, c) for a, c in zip(passed[-1], cached))  # a gather copies

    def test_take_equals_fancy_index_gather(self):
        work = Workspace(self.params.spec, 57)
        _, _, acts = model._forward_cache(self.params, self.X, work)
        _, _, weighted_grad = batch_outputs(self.params, self.X, self.y)
        for rows in self.rows:
            assert [a.take(rows, axis=0).tobytes() for a in acts] == [a[rows].tobytes() for a in acts]
            want = model._backward(self.params, [a[rows] for a in acts], self.dlogit[rows], work)
            assert weighted_grad(self.dlogit, rows).tobytes() == want.tobytes()


class TestWorkspace:
    """One workspace serves every pass of a run: each pass writes its first
    n rows, a stale pass refuses to read, and the bytes are the fresh ones."""

    def setup_method(self):
        self.spec = MlpSpec(4, (8, 5, 3))
        self.params = MlpParams.init(self.spec, seed=2)
        self.X, self.y = random_batch(make_rng(21), 30, 4)

    @pytest.mark.parametrize("hidden", [(8, 5, 3), (6, 6, 6)], ids=["unequal", "uniform"])
    def test_passes_equal_the_out_of_place_formulas_bitwise(self, hidden):
        spec = MlpSpec(4, hidden)
        params = MlpParams.init(spec, seed=3)
        rng = make_rng(22)
        work = Workspace(spec, 41)
        for n in (41, 30, 7):  # shrinking batches: each reads rows a longer pass wrote
            X, y = random_batch(rng, n, 4)
            dlogit = rng.normal(size=n)
            probs, _, weighted_grad = batch_outputs(params, X, y, work=work)
            want_probs, _, want_acts = forward_out_of_place(params, X)
            assert probs.tobytes() == want_probs.tobytes()
            for rows in (None, slice(2, n - 1), np.arange(1, n, 3)):
                sel = slice(None) if rows is None else rows
                want = backward_out_of_place(params, [a[sel] for a in want_acts], dlogit[sel])
                assert weighted_grad(dlogit, rows).tobytes() == want.tobytes()

    def test_a_later_pass_makes_the_earlier_weighted_grad_stale(self):
        work = Workspace(self.spec, 30)
        _, _, first = batch_outputs(self.params, self.X, self.y, work=work)
        first(np.ones(30))
        _, _, second = batch_outputs(self.params, self.X[:10], self.y[:10], work=work)
        with pytest.raises(RuntimeError, match="stale"):
            first(np.ones(30))
        second(np.ones(10))

    def test_a_batch_longer_than_the_workspace_is_refused(self):
        work = Workspace(self.spec, 29)
        with pytest.raises(ValueError, match="exceeds the workspace"):
            batch_outputs(self.params, self.X, self.y, work=work)
        _, _, weighted_grad = batch_outputs(self.params, self.X[:29], self.y[:29], work=work)
        with pytest.raises(ValueError, match="exceeds the workspace"):
            weighted_grad(np.ones(29), np.zeros(30, dtype=np.int64))  # a gather longer than the batch
        assert [a.shape for a in work.acts] == [(29, 8), (29, 5), (29, 3)]  # nothing grew
