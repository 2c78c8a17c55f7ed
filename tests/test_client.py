"""Client-side statistics: one step, telescoping, isolation, accuracy."""

import numpy as np
import pytest

from fairfedsim import client, fairness, model
from fairfedsim.baselines import Hyperparameters
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


def shard_keys(shard, metric="dp"):
    """The shard's rows of its own key table, and the table's family indices."""
    table = fairness.KeyTable.build([(shard.y, shard.S)], shard.data.group_names, metric)
    return table.rows[0], table.families


def shard_statistics(params, shard, metric):
    """The fairness statistics of the shard at ``params``, from one forward pass."""
    outputs = model.batch_outputs(params, shard.X, shard.y)
    return fairness.compute_statistics_for_metric(outputs, shard_keys(shard, metric)[0], metric)


def upload(params, lam, shard, metric="dp", *, epochs, lr=Hyperparameters.eta):
    """``compute_statistics`` with the multiplier ``lam`` on every key of the shard."""
    rows, families = shard_keys(shard, metric)
    lam = np.full(len(rows), lam)
    return compute_statistics(params, lam, shard, rows, families, metric=metric, epochs=epochs, lr=lr)


def step(params, lam, shard, metric="dp"):
    """``lagrangian_grad`` with the multiplier ``lam`` on every key of the
    shard; a zero ``lam`` is passed as None, as ``compute_statistics`` does."""
    rows, families = shard_keys(shard, metric)
    return lagrangian_grad(params, np.full(len(rows), lam) if lam else None, shard, metric, rows, families)


def test_zero_lambda_single_step_equals_loss_grad():
    shard = small_shard()
    params = init_params(shard)
    st = upload(params, 0.0, shard, epochs=1)
    np.testing.assert_array_equal(st.update_grad, model.loss_and_grad(params, shard.X, shard.y)[1])


def test_one_epoch_is_one_lagrangian_step(monkeypatch):
    shard = small_shard(1)
    params = init_params(shard)
    loss, stats, grad = step(params, 0.3, shard)
    calls = []

    def counted(*args):
        calls.append(args)
        return lagrangian_grad(*args)

    monkeypatch.setattr(client, "lagrangian_grad", counted)
    st = upload(params, 0.3, shard, epochs=1, lr=0.1)
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
        forwards.clear()
        step(params, 0.3, shard, metric)
        assert len(forwards) == 1


def test_telescoping_identity_exact():
    shard = small_shard(2)
    params = init_params(shard, seed=8)
    epochs, lr = 5, 0.05
    st = upload(params, 0.2, shard, epochs=epochs, lr=lr)

    # per-step gradients at their own iterates, accumulated exactly
    flat = params.flatten()
    acc = np.zeros_like(flat)
    for _ in range(epochs):
        _, _, g = step(MlpParams.unflatten(params.spec, flat), 0.2, shard)
        acc += g
        flat = flat - lr * g
    np.testing.assert_array_equal(st.update_grad, acc)
    # and the pseudo-gradient reading agrees to rounding error
    np.testing.assert_allclose(st.update_grad, (params.flatten() - flat) / lr, rtol=1e-9, atol=1e-12)


def test_statistics_evaluated_at_received_params():
    shard = small_shard(3)
    params = init_params(shard, seed=9)
    a = upload(params, 0.1, shard, epochs=1)
    b = upload(params, 0.1, shard, epochs=7, lr=0.05)
    assert a.loss == b.loss
    np.testing.assert_array_equal(a.fairness.groups, b.fairness.groups)


def test_update_grad_matches_lagrangian_finite_differences():
    checked, seed = 0, 0
    while checked < 5:
        seed += 1
        assert seed < 100, "instance sampler starved"
        shard = small_shard(seed, n=16)
        params = init_params(shard, seed=40 + seed)
        if min_preactivation(params, shard.X) < 1e-4:
            continue
        _, families = shard_keys(shard)
        h0 = fairness.constraint_values(shard_statistics(params, shard, "dp"), families, 0.0)
        if any(abs(v) < 1e-4 for v in h0):
            continue
        st = upload(params, 0.5, shard, epochs=1)

        def J(w):
            p = MlpParams.unflatten(params.spec, w)
            loss, _ = model.loss_and_grad(p, shard.X, shard.y)
            h = fairness.constraint_values(shard_statistics(p, shard, "dp"), families, 0.0)
            return loss + sum(0.5 * h)

        fd = finite_diff(J, params.flatten(), step=1e-5)
        assert rel_err(st.update_grad, fd) <= 1e-4
        checked += 1


def test_clients_isolated_and_deterministic():
    shard_a = small_shard(4, client_id=0)
    shard_b = small_shard(5, client_id=1)
    params = init_params(shard_a, seed=10)
    before = upload(params, 0.0, shard_a, epochs=3, lr=0.1)
    # mutating another client's shard must not change this client's upload
    shard_b.data.X[:] = 999.0
    after = upload(params, 0.0, shard_a, epochs=3, lr=0.1)
    np.testing.assert_array_equal(before.update_grad, after.update_grad)
    assert before.loss == after.loss


def test_empty_shard_rejected():
    ds = synthetic_dataset(10, seed=0, input_dim=4)
    empty = Shard(client_id=0, data=ds.take(np.array([], dtype=np.int64)))
    params = MlpParams.zeros(MlpSpec(4, (3,)))
    with pytest.raises(ValueError, match="empty shard"):
        compute_statistics(params, np.zeros(0), empty, (), np.zeros(0, dtype=np.int64), metric="dp", epochs=1, lr=0.05)
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



def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's args."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_zero_multipliers_form_no_constraint_gradient(monkeypatch, metric):
    shard = small_shard(7)
    params = init_params(shard)
    calls = counting(monkeypatch, fairness, "constraint_grads")
    grad = upload(params, 0.0, shard, metric, epochs=1).update_grad
    assert calls == []
    np.testing.assert_array_equal(grad, model.loss_and_grad(params, shard.X, shard.y)[1])
    upload(params, 0.3, shard, metric, epochs=1)
    assert len(calls) == 1


def test_multipliers_on_keys_without_members_form_no_constraint_gradient(monkeypatch):
    shard = small_shard(7)
    params = init_params(shard)
    table = fairness.KeyTable.build(
        [(shard.y, shard.S), (np.array([0]), np.array([[2]]))], (("g0", "g1", "g2"),), "dp"
    )
    calls = counting(monkeypatch, fairness, "constraint_grads")
    lam = np.array([0.0, 0.0, 0.7])  # only on s0=g2, which has no members on this shard
    st = compute_statistics(params, lam, shard, table.rows[0], table.families, metric="dp", epochs=1, lr=0.05)
    assert calls == []
    np.testing.assert_array_equal(st.update_grad, model.loss_and_grad(params, shard.X, shard.y)[1])


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_zero_multipliers_keep_one_backward_pass_per_key(monkeypatch, metric):
    shard = small_shard(8)
    params = init_params(shard)
    rows, _ = shard_keys(shard, metric)
    calls = counting(monkeypatch, model, "_backward")
    step(params, 0.0, shard, metric)
    assert len(calls) == 1 + sum(1 for r in rows if r.size) == 1 + len(rows)
