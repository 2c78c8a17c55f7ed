"""Fairness metrics, differentiable constraints, and the report schema."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfedsim import model
from fairfedsim.fairness import (
    FairnessReport,
    FairnessStatistics,
    GroupKey,
    KeyTable,
    _gaps,
    ap_violation,
    client_fairness_violation,
    compute_statistics_for_metric,
    constraint_grads,
    constraint_values,
    dp_violation,
    eo_violation,
    evaluate_predictions,
    group_grad_sums,
)
from fairfedsim.client import compute_statistics
from fairfedsim.data import synthetic_dataset
from fairfedsim.harness import RunRecord, write_report
from fairfedsim.model import MlpParams, MlpSpec
from fairfedsim.numeric import make_rng
from fairfedsim.oracles import finite_diff

from conftest import min_preactivation, rel_err


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
        assert "empty cell" in caplog.text and "y=0) skipped" in caplog.text


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


FAMILY = np.zeros(2, dtype=np.int64)  # two keys of one family: s0=g0, s0=g1
NAMES = (("g0", "g1"),)


def two_group_stats(total_mean, group_means, counts):
    """Statistics with prescribed per-group means (one attribute, no label)."""
    return FairnessStatistics([(mean * count, count) for mean, count in zip(group_means, counts)])


def block_table(y, S, metric):
    """The key table of a single block."""
    return KeyTable.build([(y, S)], NAMES, metric)


class TestConstraintValues:
    def test_no_gap_gives_minus_alpha(self):
        stats = two_group_stats(0.5, [0.5, 0.5], [10, 10])
        h = constraint_values(stats.groups, FAMILY, alpha=0.05)
        np.testing.assert_allclose(h, [-0.05, -0.05])

    def test_hand_value(self):
        # F(D) = 0.6, F(D^s) = 0.4 for group 0 via complementary group 0.8
        stats = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        h = constraint_values(stats.groups, FAMILY, alpha=0.05)
        np.testing.assert_allclose(h, [0.15, 0.15])

    def test_alpha_zero_gives_raw_gap(self):
        stats = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        h = constraint_values(stats.groups, FAMILY, alpha=0.0)
        np.testing.assert_allclose(h[0], 0.2)

    def test_alpha_one_never_positive(self):
        rng = make_rng(13)
        for _ in range(50):
            means = rng.uniform(0, 1, size=2)
            stats = two_group_stats(means.mean(), means, [7, 13])
            h = constraint_values(stats.groups, FAMILY, alpha=1.0)
            assert (h <= 0.0).all()

    def test_zero_count_key_carries_no_constraint(self):
        stats = two_group_stats(0.5, [0.5, 0.3], [10, 0])
        h = constraint_values(stats.groups, FAMILY, 0.05)
        assert h[1] == 0.0 and h[0] == -0.05
        grad = constraint_grads(stats, FAMILY, np.array([0.4, 0.9]), {0: np.ones(3)})
        np.testing.assert_array_equal(grad, np.zeros(3))


def build_instance(seed, metric, input_dim=4, n=12, attributes=1):
    rng = make_rng(seed)
    spec = MlpSpec(input_dim, (6, 5))
    params = MlpParams.init(spec, seed=seed)
    X = rng.normal(size=(n, input_dim))
    y = rng.integers(0, 2, size=n)
    S = rng.integers(0, 2, size=(n, attributes))
    # ensure all (group, label) cells are populated, for every attribute
    S[:4, 0] = [0, 0, 1, 1]
    S[:4, 1:] = np.array([0, 1, 1, 0])[:, None]
    y[:4] = [0, 1, 0, 1]
    return spec, params, X, y, S


def matches_finite_differences(seed, metric, attributes):
    """Check ``constraint_grads`` at lambda = each unit vector e_s (which is
    grad h_s) and at one random positive lambda against central differences
    of sum_s lambda_s h_s. False, without a check, for an instance near a
    kink, where the subgradient and the differences need not agree."""
    spec, params, X, y, S = build_instance(seed, metric, attributes=attributes)
    if min_preactivation(params, X) < 1e-4:
        return False  # ReLU kink within the FD step
    table = KeyTable.build([(y, S)], NAMES * attributes, metric)
    rows, counts, families = table.rows[0], table.counts[0], table.families
    assert families.max() + 1 == attributes * (2 if metric == "eo" else 1)

    def h_of(w):
        p = MlpParams.unflatten(spec, w)
        s = compute_statistics_for_metric(model.batch_outputs(p, X, y), rows, counts, metric)
        return constraint_values(s.groups, families, 0.0)

    flat0 = params.flatten()
    if np.abs(h_of(flat0)).min() < 1e-4:
        return False  # |gap| kink neighborhood: subgradient vs FD undefined
    outputs = model.batch_outputs(params, X, y)
    stats = compute_statistics_for_metric(outputs, rows, counts, metric)
    grad_sums = group_grad_sums(outputs, y, rows, counts, metric)
    n_keys = len(table.keys)
    for lam in [*np.eye(n_keys), make_rng(seed, 0x1A).uniform(0.1, 1.0, n_keys)]:
        fd = finite_diff(lambda w: float(lam @ h_of(w)), flat0, step=1e-5)
        grad = constraint_grads(stats, families, lam, grad_sums)
        assert rel_err(grad, fd) <= 1e-4, f"finite differences disagree: {metric}, seed {seed}, lambda {lam}"
    return True


class TestConstraintGrads:
    def test_zero_gap_gives_zero_vector(self):
        stats = two_group_stats(0.5, [0.5, 0.5], [10, 10])
        grad = constraint_grads(stats, FAMILY, np.array([0.4, 0.9]), {j: np.arange(3.0) for j in range(2)})
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_zero_gap_key_contributes_nothing(self):
        # s0=g0 sits at the family mean 0.5; s0=g1 and s0=g2 do not
        stats = FairnessStatistics([(5.0, 10), (3.0, 10), (7.0, 10)])
        families = np.zeros(3, dtype=np.int64)
        grad_sums = {j: make_rng(j).normal(size=4) for j in range(3)}
        with_g0 = constraint_grads(stats, families, np.array([0.8, 0.3, 0.5]), grad_sums)
        without = constraint_grads(stats, families, np.array([0.0, 0.3, 0.5]), grad_sums)
        np.testing.assert_array_equal(with_g0, without)
        assert np.abs(without).max() > 0.0

    def test_key_without_members_contributes_nothing(self):
        # s0=g2 has no members in the block, so no gradient sum either
        stats = FairnessStatistics([(4.0, 10), (6.0, 10), (0.0, 0)])
        families = np.zeros(3, dtype=np.int64)
        grad_sums = {j: make_rng(j).normal(size=4) for j in range(2)}
        with_g2 = constraint_grads(stats, families, np.array([0.3, 0.5, 0.9]), grad_sums)
        without = constraint_grads(stats, families, np.array([0.3, 0.5, 0.0]), grad_sums)
        np.testing.assert_array_equal(with_g2, without)
        assert np.abs(without).max() > 0.0

    def test_sign_flip(self):
        up = two_group_stats(0.6, [0.4, 0.8], [10, 10])
        sum_f, count = up.groups.T
        grad_sums = {j: np.arange(3.0) * count[j] * (1 if j == 0 else -1) for j in range(2)}
        down = FairnessStatistics(np.column_stack([(1.0 - sum_f / count) * count, count]))
        lam = np.array([0.7, 0.2])
        g_up = constraint_grads(up, FAMILY, lam, grad_sums)
        g_down = constraint_grads(down, FAMILY, lam, grad_sums)
        assert np.abs(g_up).max() > 0.0
        np.testing.assert_array_equal(g_up, -g_down)

    @pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
    def test_matches_finite_differences(self, metric):
        checked = 0
        seed = 0
        while checked < 8:
            seed += 1
            assert seed < 200, "instance sampler starved"
            checked += matches_finite_differences(seed, metric, attributes=1)

    @pytest.mark.parametrize("metric", ["dp", "eo", "ap"])
    def test_two_attributes_match_finite_differences(self, metric):
        # two sensitive attributes: 2 families under DP and AP, 4 under EO
        seed = 0
        while not matches_finite_differences(seed, metric, attributes=2):
            seed += 1
            assert seed < 200, "instance sampler starved"


class TestStackedConstraintValues:
    @pytest.mark.parametrize("metric, attributes", [("dp", 1), ("dp", 2), ("eo", 1), ("ap", 1)])
    def test_stack_equals_each_block_alone(self, metric, attributes):
        spec, params, X, y, S = build_instance(71, metric, n=40, attributes=attributes)
        S[30:, 0] = 0  # the last block has no members of s0=g1
        bounds = [(0, 10), (10, 22), (22, 30), (30, 40)]
        table = KeyTable.build([(y[a:b], S[a:b]) for a, b in bounds], NAMES * attributes, metric)
        groups = [
            compute_statistics_for_metric(model.batch_outputs(params, X[a:b], y[a:b]), rows, counts, metric).groups
            for (a, b), rows, counts in zip(bounds, table.rows, table.counts)
        ]
        assert (groups[-1][:, 1] == 0).any()  # keys without members
        assert table.families.max() + 1 == attributes * (2 if metric == "eo" else 1)
        stacked = constraint_values(np.stack(groups), table.families, 0.05)
        np.testing.assert_array_equal(stacked, [constraint_values(g, table.families, 0.05) for g in groups])


class TestAggregationIdentity:
    def test_totals_equal_sum_of_groups_exactly(self):
        for seed, metric in itertools.product(range(5), ("dp", "eo")):
            spec, params, X, y, S = build_instance(seed + 50, metric)
            table = block_table(y, S, metric)
            outputs = model.batch_outputs(params, X, y)
            stats = compute_statistics_for_metric(outputs, table.rows[0], table.counts[0], metric)
            gap, n_group, n_family = _gaps(stats.groups, table.families)
            sum_f, count = stats.groups.T.tolist()
            for j, fam in enumerate(table.families):
                # the family total adds its groups in key order
                keys = [i for i, other in enumerate(table.families) if other == fam]
                total_f, total_n = sum(sum_f[i] for i in keys), sum(count[i] for i in keys)
                assert n_family[j] == total_n == (X.shape[0] if metric == "dp" else (y == table.keys[j].label).sum())
                assert gap[j] == total_f / total_n - sum_f[j] / n_group[j]

    def test_merge_adds_counts_and_sums(self):
        a = two_group_stats(0.5, [0.4, 0.6], [4, 6])
        b = two_group_stats(0.5, [0.2, 0.8], [6, 4])
        merged = FairnessStatistics.merge_all([a, b])
        assert merged.groups[0, 1] == 10
        np.testing.assert_allclose(merged.groups[0, 0], 0.4 * 4 + 0.2 * 6)


class TestKeyTable:
    def test_keys_sorted_with_families_and_rows_per_block(self):
        y = np.array([1, 0, 1, 1, 0])
        S = np.array([[1], [0], [0], [1], [1]])
        names = (("b", "a"),)  # code 0 is "b": key order follows the names, not the codes
        table = KeyTable.build([(y[:2], S[:2]), (y[2:], S[2:])], names, "eo")
        assert [k.to_str() for k in table.keys] == table.names() == [
            "s0=a|y=0", "s0=b|y=0", "s0=a|y=1", "s0=b|y=1"
        ]
        np.testing.assert_array_equal(table.families, [0, 0, 1, 1])
        assert [[np.arange(n)[r].tolist() for r in block] for n, block in zip((2, 3), table.rows)] == [
            [[], [1], [0], []],
            [[2], [], [1], [0]],
        ]
        np.testing.assert_array_equal(table.counts, [[0, 1, 1, 0], [1, 0, 1, 1]])

    def test_a_run_is_a_slice_and_other_rows_an_index_array(self):
        y = np.array([0, 1, 1, 0, 1])
        S = np.array([[0, 1], [0, 0], [1, 1], [1, 0], [1, 1]])
        table = KeyTable.build([(y, S)], (("g0", "g1"), ("h0", "h1")), "dp")
        assert table.names() == ["s0=g0", "s0=g1", "s1=h0", "s1=h1"]
        rows = table.rows[0]
        assert rows[:2] == (slice(0, 2), slice(2, 5))
        assert [r.dtype for r in rows[2:]] == [np.int64, np.int64]
        assert [r.tolist() for r in rows[2:]] == [[1, 3], [0, 2, 4]]
        np.testing.assert_array_equal(table.counts, [[2, 3, 2, 3]])

    def test_key_without_members_anywhere_is_left_out(self):
        y = np.ones(6, dtype=np.int64)  # no y = 0 rows: those EO keys have no members
        S = np.array([[0], [1], [0], [0], [1], [1]])
        names = (("g0", "g1", "g2"),)  # g2 has no members either
        table = KeyTable.build([(y[:3], S[:3]), (y[3:], S[3:])], names, "eo")
        assert table.keys == (GroupKey(0, "g0", 1), GroupKey(0, "g1", 1))
        np.testing.assert_array_equal(table.families, [0, 0])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            KeyTable.build([], NAMES, "xx")


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

    @settings(max_examples=200, deadline=None)
    @given(split_blocks())
    def test_merge_all_of_parts_is_the_pooled_block(self, block):
        params, X, y, S, metric, parts = block
        pooled_table = KeyTable.build([(y, S)], self.NAMES, metric)
        table = KeyTable.build([(y[r], S[r]) for r in parts], self.NAMES, metric)
        assert table.keys == pooled_table.keys
        np.testing.assert_array_equal(table.families, pooled_table.families)
        pooled = compute_statistics_for_metric(
            model.batch_outputs(params, X, y), pooled_table.rows[0], pooled_table.counts[0], metric
        )
        stats = [
            compute_statistics_for_metric(model.batch_outputs(params, X[r], y[r]), part_rows, counts, metric)
            for r, part_rows, counts in zip(parts, table.rows, table.counts)
        ]
        left = FairnessStatistics.merge_all(stats).groups  # ((s1 + s2) + s3) + ...
        right = stats[-1].groups  # s1 + (s2 + (s3 + ...))
        for part in reversed(stats[:-1]):
            right = part.groups + right
        # counts agree exactly; a part's sum adds its rows in its own order
        np.testing.assert_array_equal(left[:, 1], pooled.groups[:, 1])
        np.testing.assert_array_equal(right[:, 1], pooled.groups[:, 1])
        np.testing.assert_allclose(left[:, 0], pooled.groups[:, 0], rtol=1e-12)
        np.testing.assert_allclose(right[:, 0], left[:, 0], rtol=1e-12)


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
        table = block_table(y, S, metric)
        compute_statistics_for_metric(model.batch_outputs(params, X, y), table.rows[0], table.counts[0], metric)
        assert calls == []

    def test_upload_is_one_row_per_key(self):
        shard = synthetic_dataset(30, seed=2, input_dim=4)
        params = MlpParams.init(MlpSpec(4, (5,)), seed=3)
        table = KeyTable.build([(shard.y, shard.S)], shard.group_names, "eo")
        lam = np.zeros(len(table.keys))
        upload = compute_statistics(params, lam, shard, table, 0, epochs=2, lr=0.05)
        assert upload.fairness.groups.shape == (len(table.keys), 2) == (4, 2)
        selected = [np.arange(len(shard))[r].size for r in table.rows[0]]
        np.testing.assert_array_equal(upload.fairness.groups[:, 1], selected)


class TestReport:
    def test_report_roundtrip_and_scores(self):
        probs = np.array([0.9, 0.2, 0.8, 0.4, 0.6, 0.1])
        y = np.array([1, 0, 1, 0, 1, 0])
        S = np.array([[0], [0], [0], [1], [1], [1]])
        rep = evaluate_predictions(probs, y, S, ("sex",), (("f", "m"),), clients=np.array([0, 0, 0, 1, 1, 1]))
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
        with_cf = evaluate_predictions(probs, y, S, ("g",), (("a", "b"),), clients=np.array([0, 0, 1, 1]))
        records = [RunRecord("h", "fedavg", 1, with_cf), RunRecord("h", "indfair", 1, rep)]
        write_report(records, tmp_path, reference="fedavg")
        table = (tmp_path / "results.txt").read_text().splitlines()
        assert table[1].split()[-1] == "cf"
        assert table[4].split()[0] == "indfair" and table[4].split()[-1] == "-"
        assert "indfair,cf," not in (tmp_path / "results.csv").read_text()

    def test_group_without_test_rows_left_out_of_per_group(self):
        probs = np.array([0.9, 0.2, 0.7, 0.3])
        y = np.array([1, 0, 0, 0])
        S = np.array([[0], [0], [2], [2]])  # group "b" (code 1) has no rows
        rep = evaluate_predictions(probs, y, S, ("g",), (("a", "b", "c"),))
        rows = [(row["group"], row["count"], row["accuracy"]) for row in rep.per_group]
        assert rows == [("a", 2, 1.0), ("c", 2, 0.5)]

    def test_client_accuracy_tie_rule_and_clients_without_rows(self):
        """CF reads each client's accuracy from the report's own hard
        predictions: p = 0.5 predicts 1, and a client without rows is left
        out (here client 1)."""
        y = np.array([1, 0, 1, 1, 1, 0, 0, 0])
        S = np.zeros((8, 1), dtype=np.int64)
        clients = np.array([0, 0, 2, 2, 3, 3, 3, 3])

        def cf(probs):
            return evaluate_predictions(probs, y, S, ("g",), (("a",),), clients=clients).cf

        assert cf(np.full(8, 0.5)) == client_fairness_violation([0.5, 1.0, 0.25])
        assert cf(np.full(8, np.nextafter(0.5, 0.0))) == client_fairness_violation([0.5, 0.0, 0.75])

    def test_client_accuracy_of_a_trained_model(self):
        """Zero parameters predict 0.5, so 1, everywhere: each client's
        accuracy is its positive rate. A handcrafted strong model
        (logit = 25 x0, via relu(x0) - relu(-x0)) beats that."""
        shard = synthetic_dataset(24, seed=6, input_dim=4)
        clients = np.arange(24) % 3
        zero = MlpParams.zeros(MlpSpec(4, (3,)))
        rep = evaluate_predictions(
            model.predict_proba(zero, shard.X), shard.y, shard.S, ("g",), (("g0", "g1"),), clients=clients
        )
        assert rep.accuracy == shard.y.mean()
        assert rep.cf == client_fairness_violation([shard.y[clients == k].mean() for k in range(3)])
        strong = MlpParams.zeros(MlpSpec(4, (2,)))
        strong.weights[0][0, 0] = 1.0
        strong.weights[0][1, 0] = -1.0
        strong.weights[1][0, 0] = 25.0
        strong.weights[1][0, 1] = -25.0
        probs = model.predict_proba(strong, shard.X)
        assert evaluate_predictions(probs, shard.y, shard.S, ("g",), (("g0", "g1"),)).accuracy > 0.6

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
