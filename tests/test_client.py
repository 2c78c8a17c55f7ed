"""Client-side statistics: one step, telescoping, isolation, accuracy."""

import numpy as np
import pytest

from fairfedsim import client, fairness, model
from fairfedsim.client import compute_statistics, lagrangian_grad, local_accuracy
from fairfedsim.data import Shard, synthetic_dataset
from fairfedsim.model import MlpParams, MlpSpec
from fairfedsim.oracles import finite_diff

from conftest import min_preactivation, rel_err


def small_shard(seed=0, n=24, client_id=0):
    ds = synthetic_dataset(n, seed=seed, input_dim=4)
    return Shard(client_id=client_id, data=ds)


def init_params(shard, seed=5):
    spec = MlpSpec(shard.X.shape[1], (6, 5))
    return MlpParams.init(spec, seed=seed)


def zero_multipliers(shard, params, metric="dp"):
    stats = fairness.compute_statistics_for_metric(
        params, shard.X, shard.y, shard.S, shard.data.group_names, metric
    )
    return {k: 0.0 for k in fairness.usable_keys(stats)}


def test_zero_lambda_single_step_equals_loss_grad():
    shard = small_shard()
    params = init_params(shard)
    lam = zero_multipliers(shard, params)
    st = compute_statistics(params, lam, shard, epochs=1)
    np.testing.assert_array_equal(st.update_grad, model.loss_and_grad(params, shard.X, shard.y)[1])


def test_one_epoch_is_one_lagrangian_step(monkeypatch):
    shard = small_shard(1)
    params = init_params(shard)
    lam = {k: 0.3 for k in zero_multipliers(shard, params)}
    loss, stats, grad = lagrangian_grad(params, lam, shard, "dp")
    calls = []

    def counted(*args):
        calls.append(args)
        return lagrangian_grad(*args)

    monkeypatch.setattr(client, "lagrangian_grad", counted)
    st = compute_statistics(params, lam, shard, epochs=1, lr=0.1)
    assert len(calls) == 1
    np.testing.assert_array_equal(st.update_grad, grad)
    assert st.loss == loss


def test_one_forward_pass_per_step(monkeypatch):
    shard = small_shard(3)
    params = init_params(shard)
    forwards = []

    def counted(*args):
        forwards.append(args)
        return forward_cache(*args)

    forward_cache = model._forward_cache
    monkeypatch.setattr(model, "_forward_cache", counted)
    for metric in ("dp", "eo", "ap"):
        lam = {k: 0.3 for k in zero_multipliers(shard, params, metric)}
        forwards.clear()
        lagrangian_grad(params, lam, shard, metric)
        assert len(forwards) == 1


def test_telescoping_identity_exact():
    shard = small_shard(2)
    params = init_params(shard, seed=8)
    lam = {k: 0.2 for k in zero_multipliers(shard, params)}
    epochs, lr = 5, 0.05
    st = compute_statistics(params, lam, shard, epochs=epochs, lr=lr)

    # per-step gradients at their own iterates, accumulated exactly
    flat = params.flatten()
    acc = np.zeros_like(flat)
    for _ in range(epochs):
        _, _, g = lagrangian_grad(MlpParams.unflatten(params.spec, flat), lam, shard, "dp")
        acc += g
        flat = flat - lr * g
    np.testing.assert_array_equal(st.update_grad, acc)
    # and the pseudo-gradient reading agrees to rounding error
    np.testing.assert_allclose(st.update_grad, (params.flatten() - flat) / lr, rtol=1e-9, atol=1e-12)


def test_statistics_evaluated_at_received_params():
    shard = small_shard(3)
    params = init_params(shard, seed=9)
    lam = {k: 0.1 for k in zero_multipliers(shard, params)}
    a = compute_statistics(params, lam, shard, epochs=1)
    b = compute_statistics(params, lam, shard, epochs=7, lr=0.05)
    assert a.loss == b.loss
    for key in a.fairness.keys():
        assert a.fairness.groups[key].sum_f == b.fairness.groups[key].sum_f


def test_update_grad_matches_lagrangian_finite_differences():
    checked, seed = 0, 0
    while checked < 5:
        seed += 1
        assert seed < 100, "instance sampler starved"
        shard = small_shard(seed, n=16)
        params = init_params(shard, seed=40 + seed)
        if min_preactivation(params, shard.X) < 1e-4:
            continue
        stats = fairness.compute_statistics_for_metric(
            params, shard.X, shard.y, shard.S, shard.data.group_names, "dp"
        )
        h0 = fairness.constraint_values(stats, 0.0)
        if any(abs(v) < 1e-4 for v in h0.values()):
            continue
        lam = {k: 0.5 for k in h0}
        st = compute_statistics(params, lam, shard, epochs=1)

        def J(w):
            p = MlpParams.unflatten(params.spec, w)
            loss, _ = model.loss_and_grad(p, shard.X, shard.y)
            s = fairness.compute_statistics_for_metric(
                p, shard.X, shard.y, shard.S, shard.data.group_names, "dp"
            )
            h = fairness.constraint_values(s, 0.0)
            return loss + sum(lam[k] * h[k] for k in lam)

        fd = finite_diff(J, params.flatten(), step=1e-5)
        assert rel_err(st.update_grad, fd) <= 1e-4
        checked += 1


def test_clients_isolated_and_deterministic():
    shard_a = small_shard(4, client_id=0)
    shard_b = small_shard(5, client_id=1)
    params = init_params(shard_a, seed=10)
    lam = zero_multipliers(shard_a, params)
    before = compute_statistics(params, lam, shard_a, epochs=3, lr=0.1)
    # mutating another client's shard must not change this client's upload
    shard_b.data.X[:] = 999.0
    after = compute_statistics(params, lam, shard_a, epochs=3, lr=0.1)
    np.testing.assert_array_equal(before.update_grad, after.update_grad)
    assert before.loss == after.loss


def test_empty_shard_rejected():
    ds = synthetic_dataset(10, seed=0, input_dim=4)
    empty = Shard(client_id=0, data=ds.take(np.array([], dtype=np.int64)))
    params = MlpParams.zeros(MlpSpec(4, (3,)))
    with pytest.raises(ValueError, match="empty shard"):
        compute_statistics(params, {}, empty)
    with pytest.raises(ValueError, match="empty shard"):
        local_accuracy(params, empty)


def test_local_accuracy_perfect_and_tie_rule():
    shard = small_shard(6)
    spec = MlpSpec(4, (3,))
    zero = MlpParams.zeros(spec)
    # zero params predict 0.5 everywhere; the >= 0.5 rule predicts 1 for all
    np.testing.assert_allclose(local_accuracy(zero, shard), shard.y.mean())

    # a handcrafted strong model: logit = 25 * x0 via relu(x0) - relu(-x0)
    strong = MlpParams.zeros(MlpSpec(4, (2,)))
    strong.weights[0][0, 0] = 1.0
    strong.weights[0][1, 0] = -1.0
    strong.weights[1][0, 0] = 25.0
    strong.weights[1][0, 1] = -25.0
    acc = local_accuracy(strong, shard)
    assert acc > 0.6

