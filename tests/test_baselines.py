"""Regime reductions and sanity behavior on separable synthetic data."""

from dataclasses import replace

import numpy as np
import pytest

from fairfedsim import aggregation, client, fairness, model
from fairfedsim.baselines import (
    REGIMES,
    TrainConfig,
    run_cenfair,
    run_federated,
    run_indfair,
    train,
)
from fairfedsim.data import PartitionSpec, partition, pool_shards, synthetic_dataset
from fairfedsim.model import MlpParams, predict_proba

SPEC = PartitionSpec("group", {"g0": (0.5, 0.1, 0.1, 0.2, 0.1), "g1": (0.1, 0.4, 0.3, 0.1, 0.1)})


def make_shards(n=300, seed=1, spec=SPEC):
    ds = synthetic_dataset(n, seed=seed, input_dim=4)
    return partition(ds, spec, seed=seed)


def quick_cfg(**over):
    base = TrainConfig(hidden_dims=(8, 8), rounds=4, local_epochs=3, eta=0.05, seed=1)
    return replace(base, **over)


class TestReductions:
    def test_fedavg_equals_disabled_mfairfl_bitwise(self):
        shards = make_shards()
        cfg = quick_cfg()
        a = train("fedavg", shards, cfg)
        b = run_federated(shards, replace(cfg, beta=0.0, gamma=0.0, alpha=1.0))
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_fedavg_f_with_inactive_constraints_equals_fedavg(self):
        shards = make_shards(seed=2)
        cfg = quick_cfg(alpha=1.0)
        a = train("fedavg_f", shards, cfg)
        b = train("fedavg", shards, cfg)
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_single_client_fedavg_f_equals_indfair(self):
        shard = synthetic_dataset(120, seed=3, input_dim=4)
        cfg = quick_cfg()
        a = train("fedavg_f", [shard], cfg)
        b = run_indfair([shard], cfg)
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_cenfair_equals_single_client_federation(self):
        shards = make_shards(seed=4)
        cfg = quick_cfg()
        a = run_cenfair(shards, cfg)
        pooled = pool_shards(shards)
        b = run_federated([pooled], cfg)
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_reversed_order_single_client_equals_default(self):
        shard = synthetic_dataset(100, seed=5, input_dim=4)
        cfg = quick_cfg()
        a = run_federated([shard], cfg)
        b = run_federated([shard], replace(cfg, order_policy="reversed"))
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_random_order_reproducible(self):
        shards = make_shards(seed=6)
        cfg = quick_cfg()
        a = run_federated(shards, replace(cfg, order_policy="random"))
        b = run_federated(shards, replace(cfg, order_policy="random"))
        np.testing.assert_array_equal(a.model.params_list[0], b.model.params_list[0])

    def test_train_dispatch_covers_every_regime(self):
        shards = make_shards(n=200, seed=7)
        cfg = quick_cfg(rounds=2, local_epochs=2)
        for regime in REGIMES:
            result = train(regime, shards, cfg)
            assert result.model.params_list
            for p in result.model.params_list:
                assert np.all(np.isfinite(p))


class TestBehavior:
    def test_fedavg_learns_separable_data(self):
        ds = synthetic_dataset(400, seed=8, input_dim=4, label_shift=3.0, group_shift=0.0,
                               pos_rate_by_group=(0.5, 0.5), noise=0.6)
        shards = partition(ds, PartitionSpec("group", {"g0": (0.5, 0.5), "g1": (0.5, 0.5)}), seed=8)
        cfg = quick_cfg(rounds=10, local_epochs=20, eta=0.1)
        result = train("fedavg", shards, cfg)
        assert len(result.model.params_list) == 1
        probs = predict_proba(MlpParams.unflatten(result.model.spec, result.model.params_list[0]), ds.X)
        acc = float(((probs >= 0.5).astype(int) == ds.y).mean())
        assert acc >= 0.95

    def test_lambda_grows_under_violation(self):
        ds = synthetic_dataset(400, seed=9, input_dim=4, group_shift=1.5)
        shards = partition(ds, SPEC, seed=9)
        cfg = quick_cfg(rounds=6, local_epochs=10, alpha=0.01, gamma=1.0, eta=0.1)
        result = run_federated(shards, cfg)
        assert any(v > 0.0 for v in result.multipliers.values())

    def test_indfair_returns_mixture(self):
        shards = make_shards(n=200, seed=10)
        cfg = quick_cfg(rounds=2, local_epochs=2)
        result = run_indfair(shards, cfg)
        assert len(result.model.params_list) == len(shards) > 1
        probs = result.model.predict_proba(shards[0].X)
        member = [
            predict_proba(MlpParams.unflatten(result.model.spec, p), shards[0].X)
            for p in result.model.params_list
        ]
        np.testing.assert_allclose(probs, np.mean(member, axis=0), rtol=1e-12)

    def test_goals_stay_symmetric_bitwise_with_duplicated_clients(self, monkeypatch):
        """The sweep refuses asymmetric goals; a run never hands it any, also
        where duplicated clients drive a pair's goal towards 1."""
        shards = make_shards(seed=17)
        K = len(shards)
        shards += [shards[0], shards[2]]
        seen = []
        sweep = aggregation.diminish_conflicts

        def recorded(grads, order, beta, goals, delta):
            result = sweep(grads, order, beta, goals, delta)
            seen.extend([goals, result.goals])
            return result

        monkeypatch.setattr(aggregation, "diminish_conflicts", recorded)
        run_federated(shards, quick_cfg(rounds=4, beta=1.0))
        assert len(seen) == 8
        for goals in seen:
            assert goals.tobytes() == np.ascontiguousarray(goals.T).tobytes()
        assert (seen[-1][0, K] > 0.5) and (seen[-1][2, K + 1] > 0.5)

    def test_trace_records_cover_rounds(self):
        shards = make_shards(n=150, seed=12)
        cfg = quick_cfg(rounds=3)
        result = run_federated(shards, cfg)
        assert [r.round_index for r in result.rounds] == [1, 2, 3]


class TestConstraintKeys:
    @pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
    def test_keys_of_the_merged_statistics_without_a_forward_pass(self, metric, monkeypatch):
        ds = synthetic_dataset(300, seed=13, input_dim=4, group_fractions=(0.7, 0.3))
        # client 1 holds only group g0, so some of its keys have no members
        shards = partition(ds, PartitionSpec("group", {"g0": (0.5, 0.3, 0.2), "g1": (0.6, 0.0, 0.4)}), seed=13)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass")

        with monkeypatch.context() as patched:
            patched.setattr(model, "batch_outputs", no_forward)
            table = fairness.KeyTable.build([(s.y, s.S) for s in shards], ds.group_names, metric)
        params = MlpParams.init(model.MlpSpec(4, (8,)), 1)
        merged = fairness.FairnessStatistics.merge_all(
            [
                fairness.compute_statistics_for_metric(model.batch_outputs(params, s.X, s.y), rows, counts, metric)
                for s, rows, counts in zip(shards, table.rows, table.counts)
            ]
        )
        assert (table.counts[1] == 0).any()
        pooled = pool_shards(shards)
        pooled_table = fairness.KeyTable.build([(pooled.y, pooled.S)], ds.group_names, metric)
        assert table.keys == pooled_table.keys
        selected = [np.arange(len(pooled))[r].size for r in pooled_table.rows[0]]
        np.testing.assert_array_equal(merged.groups[:, 1], selected)
        assert (merged.groups[:, 1] > 0).all()

    def test_key_without_members_anywhere_is_left_out(self):
        ds = synthetic_dataset(200, seed=14, input_dim=4)
        shards = partition(ds, SPEC, seed=14)
        # every shard labelled 1: the EO keys conditioned on y = 0 have no members
        for s in shards:
            s.y[:] = 1
        keys = fairness.KeyTable.build([(s.y, s.S) for s in shards], ds.group_names, "eo").keys
        assert keys and all(k.label == 1 for k in keys)
        result = run_federated(shards, quick_cfg(rounds=1, local_epochs=1, constraint="eo"))
        assert list(result.multipliers) == list(result.rounds[0].multipliers) == [k.to_str() for k in keys]

    def test_key_rows_built_once_per_run(self, monkeypatch):
        shards = make_shards(n=150, seed=15)
        built = []
        build = fairness.KeyTable.build.__func__

        def counted(cls, *args):
            built.append(args)
            return build(cls, *args)

        monkeypatch.setattr(fairness.KeyTable, "build", classmethod(counted))
        steps = []
        step = client.lagrangian_grad
        monkeypatch.setattr(client, "lagrangian_grad", lambda *args: steps.append(1) or step(*args))
        cfg = quick_cfg(rounds=3, local_epochs=2, constraint="eo")
        run_federated(shards, cfg)
        assert len(steps) == cfg.rounds * cfg.local_epochs * len(shards)
        assert len(built) == 1

    def test_fedavg_f_key_without_members_on_a_client_keeps_its_multiplier(self):
        ds = synthetic_dataset(
            300, seed=16, input_dim=4, group_fractions=(0.4, 0.3, 0.3), pos_rate_by_group=(0.8, 0.5, 0.2)
        )
        # client 1 holds no member of g2
        spec = PartitionSpec("group", {"g0": (0.5, 0.5), "g1": (0.5, 0.5), "g2": (1.0, 0.0)})
        shards = partition(ds, spec, seed=16)
        assert not (shards[1].S[:, 0] == 2).any()
        result = train("fedavg_f", shards, quick_cfg(rounds=3, local_epochs=2, alpha=0.0, gamma=1.0))
        lam = result.multipliers
        assert lam[1]["s0=g2"] == 0.0  # its start value
        assert lam[0]["s0=g2"] > 0.0 and any(v > 0.0 for v in lam[1].values())
