"""Fairness metrics, differentiable constraints, and the report schema."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfedsim import model
from fairfedsim.fairness import (
    FairnessReport,
    FairnessStatistics,
    GroupKey,
    GroupStat,
    ap_violation,
    client_fairness_violation,
    compute_statistics_for_metric,
    constraint_grads,
    constraint_values,
    dp_violation,
    eo_violation,
    evaluate_predictions,
    group_grad_sums,
    key_rows,
)
from fairfedsim.client import compute_statistics
from fairfedsim.data import Shard, synthetic_dataset
from fairfedsim.harness import RunRecord, write_report
from fairfedsim.model import MlpParams, MlpSpec
from fairfedsim.numeric import make_rng
from fairfedsim.oracles import finite_diff

from conftest import min_preactivation


class TestDemographicParity:
    def test_identical_rates_zero(self):
        preds = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert dp_violation(preds, groups) == 0.0

    def test_hand_value(self):
        preds = [1, 1, 0, 0, 1, 1, 1, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        np.testing.assert_allclose(dp_violation(preds, groups), 0.125)

    def test_single_group_zero(self):
        assert dp_violation([1, 0, 1], [0, 0, 0]) == 0.0

    def test_permutation_invariance(self):
        rng = make_rng(10)
        preds = rng.integers(0, 2, size=40)
        groups = rng.integers(0, 3, size=40)
        base = dp_violation(preds, groups)
        for _ in range(10):
            perm = rng.permutation(40)
            assert dp_violation(preds[perm], groups[perm]) == base

    def test_score_in_unit_interval(self):
        rng = make_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            preds = rng.integers(0, 2, size=n)
            groups = rng.integers(0, 2, size=n)
            assert 0.0 <= dp_violation(preds, groups) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dp_violation([], [])


class TestEqualizedOdds:
    def test_perfect_classifier_zero(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert eo_violation(labels, labels, groups) == 0.0

    def test_hand_built_table(self):
        # y=1 cells: group A rate 0.5, group B rate 1.0, pooled 0.75 -> gap 0.25
        # y=0 cells: all predictions 0 -> gap 0
        preds = np.array([1, 0, 1, 1, 0, 0, 0, 0])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        groups = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        np.testing.assert_allclose(eo_violation(preds, labels, groups), 0.25)

    def test_group_independent_predictions_near_zero(self):
        # Monte Carlo: prediction rates depend on y only, not on the group
        rng = make_rng(12)
        n = 100_000
        labels = rng.integers(0, 2, size=n)
        groups = rng.integers(0, 2, size=n)
        rate = np.where(labels == 1, 0.7, 0.2)
        preds = (rng.uniform(size=n) < rate).astype(int)
        assert eo_violation(preds, labels, groups) < 0.02

    def test_missing_label_errors(self):
        with pytest.raises(ValueError, match="label"):
            eo_violation([1, 0], [1, 1], [0, 1])

    def test_empty_cell_skipped(self, caplog):
        # group 1 never appears with y=0: cell skipped, not fatal
        preds = np.array([1, 0, 1, 1])
        labels = np.array([1, 0, 1, 1])
        groups = np.array([0, 0, 1, 1])
        out = eo_violation(preds, labels, groups)
        assert 0.0 <= out <= 1.0


class TestAccuracyParity:
    def test_identical_losses_zero(self):
        np.testing.assert_allclose(ap_violation([0.4, 0.4, 0.4], [0, 1, 0]), 0.0, atol=1e-12)

    def test_hand_value(self):
        losses = [0.2, 0.4, 0.6, 0.8]
        groups = [0, 0, 1, 1]
        np.testing.assert_allclose(ap_violation(losses, groups), 0.2)

    def test_single_group_zero(self):
        assert ap_violation([0.1, 0.9], [0, 0]) == 0.0

    def test_clamp_keeps_score_in_unit_interval(self):
        losses = [25.0, 0.0, 12.0, 0.0]
        groups = [0, 0, 1, 1]
        assert 0.0 <= ap_violation(losses, groups) <= 1.0


class TestClientFairness:
    def test_equal_accuracies_zero(self):
        np.testing.assert_allclose(client_fairness_violation([0.8, 0.8, 0.8]), 0.0, atol=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(client_fairness_violation([0.8, 0.6]), 0.1)

    def test_single_client_zero(self):
        assert client_fairness_violation([0.73]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            client_fairness_violation([])


def two_group_stats(total_mean, group_means, counts):
    """Statistics with prescribed per-group means (one attribute, no label)."""
    groups = {}
    for g, (mean, count) in enumerate(zip(group_means, counts)):
        groups[GroupKey(0, f"g{g}")] = GroupStat(mean * count, count)
    return FairnessStatistics(groups)


class TestConstraintValues:
    def test_no_gap_gives_minus_alpha(self):
        stats = two_group_stats(0.5, [0.5, 0.5], [10, 10])
        h = constraint_values(stats, alpha=0.05)
        for v in h.values():
            np.testing.assert_allclose(v, -0.05)

    def test_hand_value(self):
        # F(D) = 0.6, F(D^s) = 0.4 for group 0 via complementary group 0.8
        stats = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        h = constraint_values(stats, alpha=0.05)
        np.testing.assert_allclose(h[GroupKey(0, "g0")], 0.15)
        np.testing.assert_allclose(h[GroupKey(0, "g1")], 0.15)

    def test_alpha_zero_gives_raw_gap(self):
        stats = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        h = constraint_values(stats, alpha=0.0)
        np.testing.assert_allclose(h[GroupKey(0, "g0")], 0.2)

    def test_alpha_one_never_positive(self):
        rng = make_rng(13)
        for _ in range(50):
            means = rng.uniform(0, 1, size=2)
            stats = two_group_stats(means.mean(), means, [7, 13])
            h = constraint_values(stats, alpha=1.0)
            assert all(v <= 0.0 for v in h.values())

    def test_zero_count_key_carries_no_constraint(self):
        stats = two_group_stats(0.5, [0.5, 0.3], [10, 0])
        with_members = GroupKey(0, "g0")
        assert list(constraint_values(stats, 0.05)) == [with_members]
        grads = constraint_grads(stats, {with_members: np.ones(3)})
        assert list(grads) == [with_members]
        np.testing.assert_array_equal(grads[with_members], np.zeros(3))


def build_instance(seed, metric, input_dim=4, n=12):
    rng = make_rng(seed)
    spec = MlpSpec(input_dim, (6, 5))
    params = MlpParams.init(spec, seed=seed)
    X = rng.normal(size=(n, input_dim))
    y = rng.integers(0, 2, size=n)
    S = rng.integers(0, 2, size=(n, 1))
    # ensure all (group, label) cells are populated
    S[:4, 0] = [0, 0, 1, 1]
    y[:4] = [0, 1, 0, 1]
    return spec, params, X, y, S


class TestConstraintGrads:
    def test_zero_gap_gives_zero_vector(self):
        stats = two_group_stats(0.5, [0.5, 0.5], [10, 10])
        grads = constraint_grads(stats, {k: np.arange(3.0) for k in stats.keys()})
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros(3))

    def test_sign_flip(self):
        up = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        grad_sums = {
            key: np.arange(3.0) * stat.count * (1 if key.value == "g0" else -1)
            for key, stat in up.groups.items()
        }
        down = FairnessStatistics(
            {
                key: GroupStat((1.0 - stat.sum_f / stat.count) * stat.count, stat.count)
                for key, stat in up.groups.items()
            }
        )
        g_up = constraint_grads(up, grad_sums)
        g_down = constraint_grads(down, grad_sums)
        key = GroupKey(0, "g0")
        np.testing.assert_allclose(g_up[key], -g_down[key])

    @pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
    def test_matches_finite_differences(self, metric):
        checked = 0
        seed = 0
        while checked < 8:
            seed += 1
            assert seed < 200, "instance sampler starved"
            spec, params, X, y, S = build_instance(seed, metric)
            if min_preactivation(params, X) < 1e-4:
                continue  # ReLU kink within the FD step
            rows = key_rows(y, S, (("g0", "g1"),), metric)
            stats = compute_statistics_for_metric(model.batch_outputs(params, X, y), rows, metric)
            h0 = constraint_values(stats, alpha=0.0)
            if any(abs(v) < 1e-4 for v in h0.values()):
                continue  # |gap| kink neighborhood: subgradient vs FD undefined
            outputs = model.batch_outputs(params, X, y)
            grads = constraint_grads(stats, group_grad_sums(outputs, y, rows, metric))
            assert list(grads) == list(h0)
            flat0 = params.flatten()
            ok_instance = True
            for key in h0:
                def h_of(w, key=key):
                    p = MlpParams.unflatten(spec, w)
                    s = compute_statistics_for_metric(model.batch_outputs(p, X, y), rows, metric)
                    return constraint_values(s, 0.0)[key]

                fd = finite_diff(h_of, flat0, step=1e-5)
                denom = max(np.linalg.norm(fd), np.linalg.norm(grads[key]), 1e-30)
                if np.linalg.norm(fd - grads[key]) / denom > 1e-4:
                    ok_instance = False
            if ok_instance:
                checked += 1
            else:
                raise AssertionError(f"finite differences disagree for metric {metric}, seed {seed}")


class TestAggregationIdentity:
    def test_totals_equal_sum_of_groups_exactly(self):
        rng = make_rng(14)
        for seed in range(5):
            spec, params, X, y, S = build_instance(seed + 50, "dp")
            stats = compute_statistics_for_metric(model.batch_outputs(params, X, y), key_rows(y, S, (("g0", "g1"),), "dp"), "dp")
            total = stats.total((0, None))
            group_sum = sum(stats.groups[k].sum_f for k in stats.keys())
            assert total.sum_f == group_sum
            assert total.count == X.shape[0]

    def test_merge_adds_counts_and_sums(self):
        a = two_group_stats(0.5, [0.4, 0.6], [4, 6])
        b = two_group_stats(0.5, [0.2, 0.8], [6, 4])
        merged = a.merge(b)
        assert merged.groups[GroupKey(0, "g0")].count == 10
        np.testing.assert_allclose(
            merged.groups[GroupKey(0, "g0")].sum_f, 0.4 * 4 + 0.2 * 6
        )


@st.composite
def split_blocks(draw):
    """A random block, its rows split into 1-6 contiguous parts."""
    seed = draw(st.integers(0, 2**32 - 1))
    metric = draw(st.sampled_from(("dp", "eo", "ap")))
    n = draw(st.integers(1, 40))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=0, max_size=5)))
    rng = make_rng(seed)
    spec = MlpSpec(3, (4,))
    params = MlpParams.init(spec, seed=seed % 1000)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    S = rng.integers(0, 3, size=(n, 1))
    bounds = [0, *cuts, n]
    parts = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return params, X, y, S, metric, parts


class TestMerge:
    NAMES = (("a", "b", "c"),)

    def stats_of(self, params, X, y, S, metric, rows):
        return compute_statistics_for_metric(
            model.batch_outputs(params, X[rows], y[rows]), key_rows(y[rows], S[rows], self.NAMES, metric), metric
        )

    @settings(max_examples=200, deadline=None)
    @given(split_blocks())
    def test_merge_all_of_parts_is_the_pooled_block(self, block):
        params, X, y, S, metric, parts = block
        pooled = self.stats_of(params, X, y, S, metric, np.arange(len(y)))
        stats = [self.stats_of(params, X, y, S, metric, rows) for rows in parts]
        left = FairnessStatistics.merge_all(stats)  # ((s1 + s2) + s3) + ...
        right = stats[-1]  # s1 + (s2 + (s3 + ...))
        for part in reversed(stats[:-1]):
            right = part.merge(right)
        assert left.keys() == right.keys() == pooled.keys()
        for key in pooled.keys():
            assert left.groups[key].count == right.groups[key].count == pooled.groups[key].count
            np.testing.assert_allclose(left.groups[key].sum_f, pooled.groups[key].sum_f, rtol=1e-12)
            np.testing.assert_allclose(right.groups[key].sum_f, pooled.groups[key].sum_f, rtol=1e-12)
            np.testing.assert_allclose(right.groups[key].sum_f, left.groups[key].sum_f, rtol=1e-12)


class TestStatisticsAreScalars:
    @pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
    def test_no_backward_pass(self, monkeypatch, metric):
        calls = []
        backward = model._backward

        def counted(*args):
            calls.append(args)
            return backward(*args)

        monkeypatch.setattr(model, "_backward", counted)
        spec, params, X, y, S = build_instance(3, metric)
        compute_statistics_for_metric(model.batch_outputs(params, X, y), key_rows(y, S, (("g0", "g1"),), metric), metric)
        assert calls == []

    def test_upload_fields_are_python_scalars(self):
        shard = Shard(client_id=0, data=synthetic_dataset(30, seed=2, input_dim=4))
        params = MlpParams.init(MlpSpec(4, (5,)), seed=3)
        upload = compute_statistics(params, {}, shard, metric="eo", epochs=2)
        assert upload.fairness.groups
        for stat in upload.fairness.groups.values():
            for name, value in vars(stat).items():
                assert type(value) in (int, float), (name, type(value))


class TestReport:
    def test_report_roundtrip_and_scores(self):
        probs = np.array([0.9, 0.2, 0.8, 0.4, 0.6, 0.1])
        y = np.array([1, 0, 1, 0, 1, 0])
        S = np.array([[0], [0], [0], [1], [1], [1]])
        rep = evaluate_predictions(probs, y, S, ("sex",), (("f", "m"),), per_client_accuracy=[0.8, 0.7])
        assert rep.accuracy == 1.0
        assert set(rep.scores()) == {"acc", "dp[sex]", "eo[sex]", "ap[sex]", "cf"}
        again = FairnessReport.from_json(rep.to_json())
        assert again.scores() == rep.scores()

    def test_cf_none_renders_dash(self, tmp_path):
        probs = np.array([0.9, 0.2, 0.7, 0.3])
        y = np.array([1, 0, 1, 0])
        S = np.array([[0], [0], [1], [1]])
        rep = evaluate_predictions(probs, y, S, ("g",), (("a", "b"),))
        assert rep.cf is None
        with_cf = evaluate_predictions(probs, y, S, ("g",), (("a", "b"),), per_client_accuracy=[0.5, 1.0])
        records = [RunRecord("h", "fedavg", 1, with_cf), RunRecord("h", "indfair", 1, rep)]
        write_report(records, tmp_path, reference="fedavg")
        table = (tmp_path / "results.txt").read_text().splitlines()
        assert table[1].split()[-1] == "cf"
        assert table[4].split()[0] == "indfair" and table[4].split()[-1] == "-"
        assert "indfair,cf," not in (tmp_path / "results.csv").read_text()

    def test_scores_in_unit_interval(self):
        rng = make_rng(15)
        for _ in range(20):
            n = 40
            probs = rng.uniform(size=n)
            y = rng.integers(0, 2, size=n)
            S = rng.integers(0, 2, size=(n, 1))
            y[:4] = [0, 1, 0, 1]
            S[:4, 0] = [0, 0, 1, 1]
            rep = evaluate_predictions(probs, y, S, ("g",), (("a", "b"),))
            for v in rep.scores().values():
                assert 0.0 <= v <= 1.0
