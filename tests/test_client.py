"""Client-side statistics: one step, telescoping, isolation, accuracy."""

import tracemalloc

import numpy as np
import pytest

from fairfedsim import client, fairness, model
from fairfedsim.baselines import Hyperparameters, TrainConfig, run_federated
from fairfedsim.client import check_shards, compute_statistics, lagrangian_grad
from fairfedsim.data import synthetic_dataset
from fairfedsim.model import MlpParams, MlpSpec
from fairfedsim.numeric import NonFiniteError
from fairfedsim.oracles import finite_diff

from conftest import min_preactivation, rel_err


def small_shard(seed=0, n=24):
    return synthetic_dataset(n, seed=seed, input_dim=4)


def init_params(shard, seed=5):
    spec = MlpSpec(shard.X.shape[1], (6, 5))
    return MlpParams.init(spec, seed=seed)


def shard_keys(shard, metric="dp"):
    """The key table of a run whose only client (client 0) is ``shard``."""
    return fairness.KeyTable.build([(shard.y, shard.S)], shard.group_names, metric)


def shard_statistics(params, shard, metric):
    """The fairness statistics of the shard at ``params``, from one forward pass."""
    outputs = model.batch_outputs(params, shard.X, shard.y)
    table = shard_keys(shard, metric)
    return fairness.compute_statistics_for_metric(outputs, table.rows[0], table.counts[0], metric)


def upload(params, lam, shard, metric="dp", *, epochs, lr=Hyperparameters.eta):
    """``compute_statistics`` with the multiplier ``lam`` on every key of the shard."""
    table = shard_keys(shard, metric)
    return compute_statistics(params, np.full(len(table.keys), lam), shard, table, 0, epochs=epochs, lr=lr)


def step(params, lam, shard, metric="dp"):
    """``lagrangian_grad`` with the multiplier ``lam`` on every key of the
    shard; a zero ``lam`` is passed as None, as ``compute_statistics`` does."""
    table = shard_keys(shard, metric)
    return lagrangian_grad(params, np.full(len(table.keys), lam) if lam else None, shard, table, 0)


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
        families = shard_keys(shard).families
        h0 = fairness.constraint_values(shard_statistics(params, shard, "dp").groups, families, 0.0)
        if any(abs(v) < 1e-4 for v in h0):
            continue
        st = upload(params, 0.5, shard, epochs=1)

        def J(w):
            p = MlpParams.unflatten(params.spec, w)
            loss, _ = model.loss_and_grad(p, shard.X, shard.y)
            h = fairness.constraint_values(shard_statistics(p, shard, "dp").groups, families, 0.0)
            return loss + sum(0.5 * h)

        fd = finite_diff(J, params.flatten(), step=1e-5)
        assert rel_err(st.update_grad, fd) <= 1e-4
        checked += 1


def test_clients_isolated_and_deterministic():
    shard_a = small_shard(4)
    shard_b = small_shard(5)
    params = init_params(shard_a, seed=10)
    before = upload(params, 0.0, shard_a, epochs=3, lr=0.1)
    # mutating another client's shard must not change this client's upload
    shard_b.X[:] = 999.0
    after = upload(params, 0.0, shard_a, epochs=3, lr=0.1)
    np.testing.assert_array_equal(before.update_grad, after.update_grad)
    assert before.loss == after.loss


def test_empty_shard_rejected():
    ds = synthetic_dataset(10, seed=0, input_dim=4)
    empty = ds.take(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="client 1: empty shard"):
        check_shards([ds, empty, ds])
    check_shards([ds, ds])


def test_shards_checked_once_per_run_before_any_step(monkeypatch):
    """``run_federated`` checks the shards once, not per round or step,
    and refuses an empty one before round 1: no client steps, and the
    message names the empty client by its position."""
    ds = synthetic_dataset(40, seed=0, input_dim=4)
    cfg = TrainConfig(hidden_dims=(3,), rounds=3, local_epochs=2)
    checks = counting(monkeypatch, client, "check_shards")
    run_federated([ds, ds], cfg)
    assert len(checks) == 1
    checks.clear()
    steps = counting(monkeypatch, client, "compute_statistics")
    with pytest.raises(ValueError, match="^client 1: empty shard$"):
        run_federated([ds, ds.take(np.array([], dtype=np.int64)), ds], cfg)
    assert len(checks) == 1 and steps == []


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_step_takes_its_metric_from_the_table(metric):
    """A step's statistics are those of the table's metric: an EO table
    gives one (group, label) row per cell, an AP table sums the losses."""
    shard = small_shard(6)
    params = init_params(shard)
    table = shard_keys(shard, metric)
    _, stats, _ = lagrangian_grad(params, None, shard, table, 0)
    assert table.metric == metric
    assert stats.groups.shape == ((4, 2) if metric == "eo" else (2, 2))
    np.testing.assert_array_equal(stats.groups, shard_statistics(params, shard, metric).groups)



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
    st = compute_statistics(params, lam, shard, table, 0, epochs=1, lr=0.05)
    assert calls == []
    np.testing.assert_array_equal(st.update_grad, model.loss_and_grad(params, shard.X, shard.y)[1])


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_zero_multipliers_keep_one_backward_pass_per_key(monkeypatch, metric):
    shard = small_shard(8)
    params = init_params(shard)
    counts = shard_keys(shard, metric).counts[0]
    calls = counting(monkeypatch, model, "_backward")
    step(params, 0.0, shard, metric)
    assert len(calls) == 1 + np.count_nonzero(counts) == 1 + len(counts)


def nan_passes(monkeypatch, poisoned):
    """Make ``model._backward`` return NaN everywhere on the passes whose
    row count ``poisoned`` accepts."""
    backward = model._backward

    def patched(params, acts, dlogit, work):
        grad = backward(params, acts, dlogit, work)
        return np.full_like(grad, np.nan) if poisoned(len(dlogit)) else grad

    monkeypatch.setattr(model, "_backward", patched)


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_non_finite_key_gradient_raises_where_read(monkeypatch, metric):
    """A key's gradient is checked through the step gradient it enters,
    at a positive multiplier; at zero multipliers no one reads it."""
    shard = small_shard(9)
    params = init_params(shard)
    assert (shard_keys(shard, metric).counts[0] < len(shard)).all()
    nan_passes(monkeypatch, lambda n: n < len(shard))
    upload(params, 0.0, shard, metric, epochs=3, lr=0.1)
    with pytest.raises(NonFiniteError, match="non-finite client 0 update gradient"):
        upload(params, 0.3, shard, metric, epochs=1)


def test_non_finite_loss_gradient_raises_at_one_epoch(monkeypatch):
    shard = small_shard(9)
    params = init_params(shard)
    nan_passes(monkeypatch, lambda n: n == len(shard))
    with pytest.raises(NonFiniteError, match="non-finite client 0 update gradient"):
        upload(params, 0.0, shard, epochs=1)


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_per_sample_losses_only_where_read(monkeypatch, metric):
    """The first step's losses are uploaded; AP's surrogate is the loss,
    so its later steps compute the losses too, DP's and EO's do not."""
    shard = small_shard(10)
    params = init_params(shard)
    calls = counting(monkeypatch, model, "per_sample_losses")
    for lam in (0.0, 0.3):
        calls.clear()
        upload(params, lam, shard, metric, epochs=3, lr=0.1)
        assert len(calls) == (3 if metric == "ap" else 1)


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_step_not_uploaded_returns_no_loss_and_the_same_gradient(metric):
    shard = small_shard(11)
    params = init_params(shard)
    table = shard_keys(shard, metric)
    lam = np.full(len(table.keys), 0.3)
    loss, stats, grad = lagrangian_grad(params, lam, shard, table, 0)
    none, later_stats, later_grad = lagrangian_grad(params, lam, shard, table, 0, False)
    assert loss > 0.0 and none is None
    assert later_stats.groups.tobytes() == stats.groups.tobytes()
    assert later_grad.tobytes() == grad.tobytes()


def round_peak_bytes(n, metric):
    """Peak bytes traced over one client round (3 steps, lambda > 0) on an
    n-row shard ordered as ``data.partition`` orders one, after a warm round
    with the same workspace."""
    shard = synthetic_dataset(n, seed=4, input_dim=6)
    shard = shard.take(np.lexsort((shard.y, shard.S[:, 0])))
    table = shard_keys(shard, metric)
    assert all(isinstance(r, slice) for r in table.rows[0])
    params = MlpParams.init(MlpSpec(6, (32, 32, 32, 32)), seed=1)
    lam = np.full(len(table.keys), 0.3)
    work = model.Workspace(params.spec, n)
    compute_statistics(params, lam, shard, table, 0, epochs=3, lr=0.05, work=work)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_statistics(params, lam, shard, table, 0, epochs=3, lr=0.05, work=work)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
def test_steady_state_round_allocates_no_row_by_width_array(metric):
    """Doubling the shard from 300 to 600 rows may grow a round's peak only
    by n-length vectors. The bound, 64 bytes a row, is eight float64 such
    vectors live at once and a quarter of one (n, 32) float64 array's row:
    a step that allocated its activations or deltas afresh grows by
    at least four of those, 1 KB a row (about 1.5 KB a row was seen;
    through the workspace 8-16 bytes a row)."""
    growth = round_peak_bytes(600, metric) - round_peak_bytes(300, metric)
    assert growth < 64 * 300


def test_a_run_shares_one_workspace_sized_to_its_largest_shard(monkeypatch):
    """``run_federated`` builds one workspace, and every local step of every
    client and round writes its forward pass into it."""
    built = []

    class Recorded(model.Workspace):
        def __init__(self, spec, rows):
            super().__init__(spec, rows)
            built.append(self)

    monkeypatch.setattr(model, "Workspace", Recorded)
    shards = [synthetic_dataset(n, seed=n, input_dim=4) for n in (30, 50, 20)]
    cfg = TrainConfig(hidden_dims=(5, 3), rounds=2, local_epochs=3)
    run_federated(shards, cfg)
    assert [w.rows for w in built] == [50]
    assert built[0].stamp == cfg.rounds * cfg.local_epochs * len(shards)
