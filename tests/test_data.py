"""Ingestion, splitting, partitioning, and the synthetic generator."""

import numpy as np
import pytest

from fairfedsim.data import (
    DatasetSchema,
    PartitionSpec,
    Shard,
    largest_remainder_counts,
    load_csv,
    partition,
    pool_shards,
    split_train_test,
    standardize,
    synthetic_dataset,
)

FIXTURE_CSV = """age,color,sex,outcome
30,red,F,yes
40,blue,M,no
50,red,F,yes
"""

SCHEMA = DatasetSchema.from_json(
    {
        "name": "fixture",
        "numeric_features": ["age"],
        "categorical_features": [{"column": "color", "categories": ["blue", "red"]}],
        "sensitive": [{"column": "sex", "categories": ["F", "M"]}],
        "label": "outcome",
        "positive_values": ["yes"],
    }
)


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(FIXTURE_CSV)
    return str(path)


class TestLoadCsv:
    def test_exact_values(self, fixture_csv):
        ds = load_csv(fixture_csv, SCHEMA)
        assert len(ds) == 3
        assert ds.feature_names == ("age", "color=blue", "color=red", "color=other")
        np.testing.assert_array_equal(ds.X[:, 0], [30.0, 40.0, 50.0])
        np.testing.assert_array_equal(ds.X[:, 1], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(ds.X[:, 2], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(ds.y, [1, 0, 1])
        np.testing.assert_array_equal(ds.S[:, 0], [0, 1, 0])
        assert ds.group_names == (("F", "M"),)

    def test_column_order_permutation_invariant(self, tmp_path, fixture_csv):
        permuted = tmp_path / "permuted.csv"
        permuted.write_text(
            "outcome,sex,color,age\nyes,F,red,30\nno,M,blue,40\nyes,F,red,50\n"
        )
        a = load_csv(fixture_csv, SCHEMA)
        b = load_csv(str(permuted), SCHEMA)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.S, b.S)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(str(path), SCHEMA)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("age,color,sex,outcome\n30,red,F,yes\n?,blue,M,no\n50,red,F,yes\n40,blue,M,no\n")
        ds = load_csv(str(path), SCHEMA)
        assert len(ds) == 3
        assert ds.n_dropped == 1

    def test_unknown_category_lenient_vs_strict(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("age,color,sex,outcome\n30,green,F,yes\n40,blue,M,no\n")
        ds = load_csv(str(path), SCHEMA)
        assert ds.X[0, 3] == 1.0  # "other" bucket
        with pytest.raises(ValueError, match="unknown category"):
            load_csv(str(path), SCHEMA, strict=True)

    def test_missing_header_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("age,sex,outcome\n30,F,yes\n")
        with pytest.raises(ValueError, match="header missing"):
            load_csv(str(path), SCHEMA)

    def test_one_hot_round_trip(self, fixture_csv):
        ds = load_csv(fixture_csv, SCHEMA)
        onehot = ds.X[:, 1:4]
        cats = ["blue", "red", "other"]
        decoded = [cats[int(np.argmax(row))] for row in onehot]
        assert decoded == ["red", "blue", "red"]

    def test_builtin_schemas_parse(self):
        for name in ("adult", "adult_multi", "compas", "bank"):
            schema = DatasetSchema.builtin(name)
            assert schema.label
            assert schema.sensitive


class TestBinning:
    def test_age_bins(self, tmp_path):
        schema = DatasetSchema.from_json(
            {
                "name": "binned",
                "numeric_features": [],
                "categorical_features": [],
                "sensitive": [
                    {"column": "age", "bins": [
                        {"name": "20-40", "lo": 20, "hi": 40},
                        {"name": "41-60", "lo": 41, "hi": 60},
                    ]}
                ],
                "label": "y",
                "positive_values": ["1"],
            }
        )
        path = tmp_path / "bins.csv"
        path.write_text("age,y\n25,1\n41,0\n75,1\n20,0\n")
        ds = load_csv(str(path), schema)
        assert ds.group_names == (("20-40", "41-60", "other"),)
        np.testing.assert_array_equal(ds.S[:, 0], [0, 1, 2, 0])


class TestSplit:
    def test_balanced_half_split(self):
        ds = synthetic_dataset(40, seed=1, input_dim=3, pos_rate_by_group=(0.5, 0.5))
        train, test = split_train_test(ds, 0.5, seed=3)
        assert len(train) == 20 and len(test) == 20
        for part in (train, test):
            for g in (0, 1):
                for y in (0, 1):
                    assert np.any((part.S[:, 0] == g) & (part.y == y))

    def test_same_seed_identical(self):
        ds = synthetic_dataset(60, seed=2, input_dim=3)
        a_train, a_test = split_train_test(ds, 0.2, seed=9)
        b_train, b_test = split_train_test(ds, 0.2, seed=9)
        np.testing.assert_array_equal(a_train.row_ids, b_train.row_ids)
        np.testing.assert_array_equal(a_test.row_ids, b_test.row_ids)

    def test_different_seeds_differ(self):
        ds = synthetic_dataset(1000, seed=3, input_dim=3)
        tests = [set(split_train_test(ds, 0.2, seed=s)[1].row_ids.tolist()) for s in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert tests[i] != tests[j]

    def test_stratum_too_small_rejected(self):
        ds = synthetic_dataset(40, seed=4, input_dim=3)
        lone = ds.take(np.arange(0, 9))
        # force one stratum of size 1
        lone.S[0, 0] = 1 - lone.S[0, 0]
        lone.y[0] = 1 - lone.y[0]
        key = (lone.S[0, 0], lone.y[0])
        mask = (lone.S[:, 0] == key[0]) & (lone.y == key[1])
        if mask.sum() != 1:
            mask_idx = np.flatnonzero(mask)[1:]
            keep = np.setdiff1d(np.arange(9), mask_idx)
            lone = lone.take(keep)
        with pytest.raises(ValueError, match="stratum"):
            split_train_test(lone, 0.5, seed=1)

    def test_fraction_bounds(self):
        ds = synthetic_dataset(20, seed=5, input_dim=3)
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                split_train_test(ds, bad, seed=0)


class TestLargestRemainder:
    def test_paper_ratios_exact(self):
        counts = largest_remainder_counts(100, (0.5, 0.1, 0.1, 0.2, 0.1))
        assert counts == [50, 10, 10, 20, 10]

    def test_conservation_on_random_specs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            K = int(rng.integers(2, 8))
            raw = rng.uniform(0.05, 1.0, size=K)
            fractions = (raw / raw.sum()).tolist()
            n = int(rng.integers(1, 500))
            counts = largest_remainder_counts(n, fractions)
            assert sum(counts) == n
            assert all(c >= 0 for c in counts)


class TestPartition:
    def spec(self):
        return PartitionSpec(
            "group", {"g0": (0.5, 0.1, 0.1, 0.2, 0.1), "g1": (0.1, 0.4, 0.3, 0.1, 0.1)}
        )

    def test_counts_follow_fractions_exactly(self):
        ds = synthetic_dataset(400, seed=7, input_dim=3)
        shards = partition(ds, self.spec(), seed=1)
        g0_total = int((ds.S[:, 0] == 0).sum())
        expected_g0 = largest_remainder_counts(g0_total, (0.5, 0.1, 0.1, 0.2, 0.1))
        got_g0 = [s.group_counts["group"]["g0"] for s in shards]
        assert got_g0 == expected_g0

    def test_conservation_and_disjointness(self):
        ds = synthetic_dataset(333, seed=8, input_dim=3)
        shards = partition(ds, self.spec(), seed=2)
        all_rows = np.concatenate([s.data.row_ids for s in shards])
        assert len(all_rows) == len(ds)
        assert len(set(all_rows.tolist())) == len(ds)

    def test_determinism(self):
        ds = synthetic_dataset(200, seed=9, input_dim=3)
        a = partition(ds, self.spec(), seed=3)
        b = partition(ds, self.spec(), seed=3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.data.row_ids, sb.data.row_ids)

    def test_uniform_spec_equal_shards(self):
        ds = synthetic_dataset(200, seed=10, input_dim=3, group_fractions=(0.5, 0.5))
        spec = PartitionSpec("group", {"g0": (0.25,) * 4, "g1": (0.25,) * 4})
        shards = partition(ds, spec, seed=4)
        assert [len(s) for s in shards] == [50, 50, 50, 50]

    def test_bad_fraction_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            PartitionSpec("group", {"g0": (0.5, 0.4)})

    def test_missing_group_rejected(self):
        ds = synthetic_dataset(50, seed=11, input_dim=3)
        spec = PartitionSpec("group", {"g0": (0.5, 0.5), "g1": (0.5, 0.5), "g9": (0.5, 0.5)})
        with pytest.raises(ValueError, match="missing from data"):
            partition(ds, spec, seed=0)

    def test_group_without_fractions_rejected(self):
        ds = synthetic_dataset(50, seed=12, input_dim=3)
        spec = PartitionSpec("group", {"g0": (0.5, 0.5)})
        with pytest.raises(ValueError, match="no fractions"):
            partition(ds, spec, seed=0)

    def test_pool_shards_restores_union(self):
        ds = synthetic_dataset(120, seed=13, input_dim=3)
        shards = partition(ds, self.spec(), seed=5)
        pooled = pool_shards(shards)
        assert sorted(pooled.row_ids.tolist()) == sorted(ds.row_ids.tolist())


class TestStandardize:
    def test_train_statistics_applied_to_both(self):
        ds = synthetic_dataset(100, seed=14, input_dim=4)
        train, test = split_train_test(ds, 0.3, seed=1)
        train_s, test_s = standardize(train, test)
        np.testing.assert_allclose(train_s.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_s.X.std(axis=0), 1.0, atol=1e-9)
        assert not np.allclose(test_s.X.mean(axis=0), 0.0, atol=1e-6)

    def test_onehot_columns_untouched(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(FIXTURE_CSV + "35,blue,M,no\n45,red,F,yes\n55,blue,M,no\n")
        ds = load_csv(str(path), SCHEMA)
        out, = standardize(ds)
        assert set(np.unique(out.X[:, 1])) <= {0.0, 1.0}


class TestSynthetic:
    def test_shapes_and_determinism(self):
        a = synthetic_dataset(100, seed=15, input_dim=6)
        b = synthetic_dataset(100, seed=15, input_dim=6)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.X.shape == (100, 6)
        assert set(np.unique(a.S[:, 0])) == {0, 1}

    def test_group_conditional_base_rates(self):
        ds = synthetic_dataset(4000, seed=16, pos_rate_by_group=(0.7, 0.3))
        g0 = ds.y[ds.S[:, 0] == 0].mean()
        g1 = ds.y[ds.S[:, 0] == 1].mean()
        np.testing.assert_allclose(g0, 0.7, atol=0.02)
        np.testing.assert_allclose(g1, 0.3, atol=0.02)
