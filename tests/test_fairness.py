"""Fairness metrics, differentiable constraints, and the report schema."""

import numpy as np
import pytest

from fairfedsim import fairness
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
)
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


def two_group_stats(total_mean, group_means, counts, n_params=3):
    """Statistics with prescribed per-group means (one attribute, no label)."""
    groups = {}
    for g, (mean, count) in enumerate(zip(group_means, counts)):
        groups[GroupKey(0, f"g{g}")] = GroupStat(mean * count, count, np.zeros(n_params))
    return FairnessStatistics(groups, n_params)


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

    def test_zero_count_rejected(self):
        stats = two_group_stats(0.5, [0.5, 0.5], [10, 0])
        with pytest.raises(ValueError, match="zero count"):
            constraint_values(stats, 0.05)


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
        grads = constraint_grads(stats)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros(3))

    def test_sign_flip(self):
        up = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        for key, stat in up.groups.items():
            stat.grad_sum = np.arange(3.0) * stat.count * (1 if key.value == "g0" else -1)
        down = FairnessStatistics(
            {
                key: GroupStat(
                    (1.0 - stat.sum_f / stat.count) * stat.count, stat.count, stat.grad_sum.copy()
                )
                for key, stat in up.groups.items()
            },
            3,
        )
        g_up = constraint_grads(up)
        g_down = constraint_grads(down)
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
            stats = compute_statistics_for_metric(params, X, y, S, (("g0", "g1"),), metric)
            usable = fairness.usable_keys(stats)
            stats_u = fairness.restrict(stats, usable)
            h0 = constraint_values(stats_u, alpha=0.0)
            if any(abs(v) < 1e-4 for v in h0.values()):
                continue  # |gap| kink neighborhood: subgradient vs FD undefined
            grads = constraint_grads(stats_u)
            flat0 = params.flatten()
            ok_instance = True
            for key in usable:
                def h_of(w, key=key):
                    p = MlpParams.unflatten(spec, w)
                    s = compute_statistics_for_metric(p, X, y, S, (("g0", "g1"),), metric)
                    return constraint_values(fairness.restrict(s, usable), 0.0)[key]

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
            stats = compute_statistics_for_metric(params, X, y, S, (("g0", "g1"),), "dp")
            total = stats.total((0, None))
            group_sum = sum(stats.groups[k].sum_f for k in stats.keys())
            assert total.sum_f == group_sum
            assert total.count == X.shape[0]
            grad_sum = np.zeros(spec.n_params)
            for k in stats.keys():
                grad_sum = grad_sum + stats.groups[k].grad_sum
            np.testing.assert_array_equal(total.grad_sum, grad_sum)

    def test_merge_adds_counts_and_sums(self):
        a = two_group_stats(0.5, [0.4, 0.6], [4, 6])
        b = two_group_stats(0.5, [0.2, 0.8], [6, 4])
        merged = a.merge(b)
        assert merged.groups[GroupKey(0, "g0")].count == 10
        np.testing.assert_allclose(
            merged.groups[GroupKey(0, "g0")].sum_f, 0.4 * 4 + 0.2 * 6
        )


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
