"""Ingestion, splitting, partitioning, and the synthetic generator."""

import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfedsim import client
from fairfedsim.baselines import TrainConfig, train
from fairfedsim.client import compute_statistics
from fairfedsim.data import (
    Dataset,
    DatasetSchema,
    PartitionSpec,
    assign_clients,
    largest_remainder_counts,
    load_csv,
    partition,
    pool_shards,
    split_train_test,
    standardize,
    synthetic_dataset,
)
from fairfedsim.numeric import make_rng

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

    def test_unknown_category_goes_to_other(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("age,color,sex,outcome\n30,green,F,yes\n40,blue,M,no\n")
        ds = load_csv(str(path), SCHEMA)
        assert ds.X[0, 3] == 1.0  # "other" bucket

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

    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("age,color,sex,outcome\n30,red,F,yes\n40,blue,M,no,extra\n", "line 3 has 5 fields, the header 4"),
            ("age,color,sex,outcome\n30,red,F,yes\n40,blue,X,no\n", r"column sex: values \['X'\] lie outside"),
            ("age,color,sex,outcome\n30,red,F,yes\nnan,blue,M,no\n", "column age: 'nan' is not a finite number"),
            ("age,color,sex,outcome\n30,red,F,yes\n-inf,blue,M,no\n", "column age: '-inf' is not a finite number"),
            ("age,color,sex,outcome\n30,red,F,yes\nold,blue,M,no\n", "column age: 'old' is not a finite number"),
            ("age,color,sex,outcome\n?,red,F,yes\n", "no usable rows"),
            ("age,color,sex,outcome\n" + "x" * 200_000 + "\n", "line 2: field larger than field limit"),
        ],
        ids=["long-row", "group-outside-domain", "nan", "inf", "non-numeric", "no-rows", "oversize-field"],
    )
    def test_malformed_file_refused_naming_it(self, tmp_path, text, refusal):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=refusal) as refused:
            load_csv(str(path), SCHEMA)
        assert str(refused.value).startswith(f"{path}: ")

    def test_undecodable_file_refused_naming_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("age,color,sex,outcome\n30,r\xf6d,F,yes\n".encode("latin-1"))
        with pytest.raises(ValueError, match="not UTF-8") as refused:
            load_csv(str(path), SCHEMA)
        assert str(refused.value).startswith(f"{path}: ")

    def test_short_row_and_blank_line(self, tmp_path):
        """A row that ends before a required column is dropped and counted;
        a blank line is skipped uncounted; a value outside a declared domain
        that holds the rest group goes to that group."""
        schema = DatasetSchema.from_json(
            {"name": "rest", "numeric_features": ["age"], "categorical_features": [],
             "sensitive": [{"column": "sex", "categories": ["F", "other"]}],
             "label": "outcome", "positive_values": ["yes"]}
        )
        path = tmp_path / "short.csv"
        path.write_text("age,sex,outcome,note\n30,F,yes\n\n40,M\n50,X,no,n\n")
        ds = load_csv(str(path), schema)
        assert ds.n_dropped == 1
        np.testing.assert_array_equal(ds.S[:, 0], [0, 1])

    def test_repeated_column_read_from_its_last_copy(self, tmp_path):
        """ProPublica's COMPAS file names priors_count and decile_score twice,
        with equal values; it loads as the file without the second copies."""
        header = ("sex,age,age_cat,race,juv_fel_count,decile_score,juv_misd_count,juv_other_count,priors_count,"
                  "days_b_screening_arrest,c_charge_degree,two_year_recid,decile_score,priors_count")
        rows = ["Male,69,Greater than 45,Other,0,1,0,0,0,-1,F,0,1,0",
                "Male,34,25 - 45,African-American,0,3,0,0,0,-1,F,1,3,0",
                "Female,24,Less than 25,Caucasian,0,4,0,1,4,-1,M,1,4,4"]
        twice, once = tmp_path / "twice.csv", tmp_path / "once.csv"
        twice.write_text("\n".join([header] + rows) + "\n")
        once.write_text("\n".join(line.rsplit(",", 2)[0] for line in [header] + rows) + "\n")
        schema = DatasetSchema.load("compas")
        a, b = load_csv(str(twice), schema), load_csv(str(once), schema)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.S, b.S)
        assert a.feature_names == b.feature_names
        assert a.X[2, schema.numeric_features.index("priors_count")] == 4.0

    def test_repeated_column_last_copy_wins(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("age,color,sex,outcome,sex\n30,red,F,yes,M\n")
        assert load_csv(str(path), SCHEMA).S[0, 0] == 1

    @pytest.mark.parametrize("ref", ["adult", "adult_multi", "compas", "bank", "path"])
    def test_schema_load_by_name_or_path(self, tmp_path, ref):
        if ref == "path":
            ref = str(tmp_path / "bank.json")
            (tmp_path / "bank.json").write_text(resources.files("fairfedsim.schemas").joinpath("bank.json").read_text())
        schema = DatasetSchema.load(ref)
        assert schema.label
        assert schema.sensitive

    def test_misspelled_shipped_schema_refused_with_the_shipped_names(self):
        with pytest.raises(ValueError, match=r"'compass' is neither a shipped schema "
                                             r"\['adult', 'adult_multi', 'bank', 'compas'\]"):
            DatasetSchema.load("compass")

    @pytest.mark.parametrize(
        "over, refusal",
        [
            ({"categorical_features": [{"column": "color", "categories": ["red", "blue", "red"]}]},
             r"categorical color: declared values \['red', 'blue', 'red'\] repeat or hold 'other'"),
            ({"categorical_features": [{"column": "color", "categories": ["red", "other"]}]},
             r"categorical color: declared values \['red', 'other'\] repeat or hold 'other'"),
            ({"sensitive": [{"column": "sex", "categories": ["F", "M", "F"]}]},
             r"sensitive sex: group names \['F', 'M', 'F'\] repeat"),
            ({"sensitive": [{"column": "age", "bins": [{"name": "young", "lo": 0, "hi": 30},
                                                       {"name": "young", "lo": 31, "hi": 60}]}]},
             r"sensitive age: group names \['young', 'young', 'other'\] repeat"),
            ({"sensitive": [{"column": "age", "bins": [{"name": "old", "lo": 61, "hi": 99}], "rest_name": "old"}]},
             r"sensitive age: group names \['old', 'old'\] repeat"),
            *[({key: None}, rf"missing required keys \['{key}'\]")
              for key in ("name", "sensitive", "label", "positive_values")],
            ({"sensitive": [{}]}, r"sensitive entry: missing required keys \['column'\]"),
            ({"categorical_features": [{"categories": ["red"]}]},
             r"categorical entry: missing required keys \['column'\]"),
            *[({"sensitive": [{"column": "age", "bins": [{k: v for k, v in {"name": "young", "lo": 0, "hi": 30}.items()
                                                           if k != key}]}]},
               rf"sensitive age: bin: missing required keys \['{key}'\]")
              for key in ("name", "lo", "hi")],
        ],
        ids=["categorical-repeat", "categorical-other", "sensitive-repeat", "bin-repeat", "bin-is-rest",
             "no-name", "no-sensitive", "no-label", "no-positive-values", "sensitive-without-column",
             "categorical-without-column", "bin-without-name", "bin-without-lo", "bin-without-hi"],
    )
    def test_schema_that_cannot_encode_refused_naming_it(self, over, refusal):
        d = {"name": "fixture", "numeric_features": ["age"],
             "categorical_features": [{"column": "color", "categories": ["blue", "red"]}],
             "sensitive": [{"column": "sex", "categories": ["F", "M"]}], "label": "outcome",
             "positive_values": ["yes"], **over}
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ValueError, match=refusal) as refused:
            DatasetSchema.from_json(d)
        assert str(refused.value).startswith(f"schema {d.get('name', '?')!r}: ")


FUZZ_SCHEMA = DatasetSchema.from_json(
    {
        "name": "fuzz",
        "numeric_features": ["age"],
        "categorical_features": [{"column": "color", "categories": ["blue", "red"]}, {"column": "shape"}],
        "sensitive": [
            {"column": "sex", "categories": ["F", "M"]},
            {"column": "band", "bins": [{"name": "low", "lo": 0, "hi": 10}]},
        ],
        "label": "outcome",
        "positive_values": ["yes"],
    }
)
# per column: legal values, including a category or bin outside the declared
# ones that has a home (color "green", band "12"), then the values that spoil a row
LEGAL = {
    "age": ["30", " 41.5", "-2", "1e3"], "color": ["red", "blue ", "green"], "shape": ["round", "flat"],
    "sex": ["F", "M"], "band": ["3", "12"], "outcome": ["yes", "no", "maybe"], "note": ["a", "b,c"],
}
SPOILED = {"missing": ["", "?", "NA", "N/A", " ? "], "bad": ["nan", "inf", "-inf", "old", "X", "1,5"]}


@st.composite
def csv_texts(draw):
    """CSV text over FUZZ_SCHEMA's columns: permuted, missing and repeated
    header columns, rows that are short, long or blank, or that hold a
    missing token, an unknown group or a nan, inf or non-numeric number."""
    header = draw(st.permutations(list(LEGAL)))
    header = header[draw(st.integers(0, 1)):] + draw(st.lists(st.sampled_from(list(LEGAL)), max_size=1))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["ok", "ok", "ok", "missing", "bad", "short", "long", "blank"]))
        cells = [draw(st.sampled_from(LEGAL[col])) for col in header]
        if kind in SPOILED:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(SPOILED[kind]))
        width = {"short": len(cells) - 1, "long": len(cells) + 1, "blank": 0}.get(kind, len(cells))
        lines.append(",".join(f'"{c}"' if "," in c else c for c in (cells + ["extra"])[:width]))
    return "\n".join(lines) + "\n"


class TestLoadCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_loads_a_valid_dataset_or_refuses_naming_the_file(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_text(text)
            try:
                ds = load_csv(str(path), FUZZ_SCHEMA)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), exc
                return
        assert np.isfinite(ds.X).all()
        assert set(ds.y.tolist()) <= {0, 1}
        for a, names in enumerate(ds.group_names):
            assert 0 <= ds.S[:, a].min() and ds.S[:, a].max() < len(names)
        assert len(ds.feature_names) == ds.X.shape[1]
        assert len(ds) + ds.n_dropped == sum(1 for line in text.splitlines()[1:] if line)


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
        got_g0 = [int((s.S[:, 0] == 0).sum()) for s in shards]
        assert got_g0 == expected_g0

    def test_conservation_and_disjointness(self):
        ds = synthetic_dataset(333, seed=8, input_dim=3)
        shards = partition(ds, self.spec(), seed=2)
        all_rows = np.concatenate([s.row_ids for s in shards])
        assert len(all_rows) == len(ds)
        assert len(set(all_rows.tolist())) == len(ds)

    def test_determinism(self):
        ds = synthetic_dataset(200, seed=9, input_dim=3)
        a = partition(ds, self.spec(), seed=3)
        b = partition(ds, self.spec(), seed=3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.row_ids, sb.row_ids)

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

    def test_unknown_attribute_rejected(self):
        ds = synthetic_dataset(50, seed=12, input_dim=3)
        spec = PartitionSpec("sex", {"g0": (0.5, 0.5), "g1": (0.5, 0.5)})
        with pytest.raises(ValueError, match="partition attribute 'sex'"):
            partition(ds, spec, seed=0)

    @staticmethod
    def per_client_shards(train, spec, seed):
        """Each client's rows gathered by its own mask, in the order of
        ``train``, after the same per-group shuffle and apportionment as
        ``partition``."""
        a = train.attr_names.index(spec.attribute)
        rng = make_rng(seed, 0xFA)
        client = np.full(len(train), -1, dtype=np.int64)
        for value in sorted(spec.fractions):
            members = np.flatnonzero(train.S[:, a] == train.group_names[a].index(value))
            members = members[rng.permutation(members.size)]
            counts = largest_remainder_counts(members.size, spec.fractions[value])
            client[members] = np.repeat(np.arange(spec.n_clients), counts)
        return [train.take(np.flatnonzero(client == k)) for k in range(spec.n_clients)]

    @staticmethod
    def random_spec(rng, attribute, names):
        """1-12 clients with Dirichlet fractions of every group in ``names``,
        and the mask of the clients (a random set, never all) that get none."""
        K = int(rng.integers(1, 13))
        empty = rng.random(K) < 0.3
        empty[rng.integers(K)] = False
        fractions = {}
        for name in names:
            raw = np.where(empty, 0.0, rng.dirichlet(np.ones(K)) + 1e-3)
            fractions[name] = tuple((raw / raw.sum()).tolist())
        return PartitionSpec(attribute, fractions), empty

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shards_match_the_per_client_formula(self, seed):
        rng = make_rng(seed)
        share = float(rng.uniform(0.2, 0.8))
        ds = synthetic_dataset(int(rng.integers(5, 300)), seed=seed, input_dim=3, group_fractions=(share, 1.0 - share))
        spec, empty = self.random_spec(rng, "group", ("g0", "g1"))
        shards = partition(ds, spec, seed=seed)
        want = self.per_client_shards(ds, spec, seed)
        assert len(shards) == len(want) == len(empty)
        assert all(len(s) == 0 for s, none in zip(shards, empty) if none)
        client = assign_clients(ds, spec, seed)  # the synthetic rows' ids are their indices
        assert [sorted(s.row_ids.tolist()) for s in shards] == [
            np.flatnonzero(client == k).tolist() for k in range(len(shards))
        ]
        for shard, ref in zip(shards, want):
            for field in ("X", "y", "S", "row_ids"):
                got, expected = getattr(shard, field), getattr(ref, field)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(["dp", "eo", "ap"]), by=st.sampled_from(["group", "s1"])
    )
    def test_every_first_attribute_key_is_one_run(self, seed, metric, by):
        """Whichever attribute the clients are split by, every block a run
        trains on (the shards under ``mfairfl``, ``cenfair``'s pooled shard,
        ``indfair``'s single shards) holds every key of the first attribute
        as a slice, empty ones included, and every key selects exactly its
        members."""
        rng = make_rng(seed)
        n_groups = int(rng.integers(2, 5))
        raw = rng.dirichlet(np.ones(n_groups)) + 0.05
        ds = synthetic_dataset(
            int(rng.integers(20, 300)), seed=seed, input_dim=3, group_fractions=tuple(raw / raw.sum()),
            pos_rate_by_group=tuple(rng.uniform(0.2, 0.8, n_groups)),
        )
        second = rng.integers(0, 3, len(ds))
        ds = Dataset(ds.X, ds.y, np.column_stack([ds.S[:, 0], second]), ("group", "s1"),
                     (ds.group_names[0], ("h0", "h1", "h2")), ds.feature_names, ds.row_ids)
        a = ds.attr_names.index(by)
        spec, _ = self.random_spec(rng, by, [ds.group_names[a][c] for c in np.unique(ds.S[:, a])])
        shards = [s for s in partition(ds, spec, seed=seed) if len(s)]
        blocks = []  # (shard, keys, rows) of every client step

        def recorded(params, lam, shard, table, k, **kwargs):
            blocks.append((shard, table.keys, table.rows[k]))
            return compute_statistics(params, lam, shard, table, k, **kwargs)

        cfg = TrainConfig(hidden_dims=(2,), rounds=1, local_epochs=1, constraint=metric)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(client, "compute_statistics", recorded)
            for regime in ("mfairfl", "cenfair", "indfair"):
                train(regime, shards, cfg)
        assert len(blocks) == 2 * len(shards) + 1
        for shard, keys, rows in blocks:
            for key, r in zip(keys, rows):
                member = shard.S[:, key.attribute] == ds.group_names[key.attribute].index(key.value)
                if key.label is not None:
                    member &= shard.y == key.label
                assert np.arange(len(shard))[r].tolist() == np.flatnonzero(member).tolist()
                assert isinstance(r, slice) or key.attribute == 1

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

    @pytest.mark.parametrize(
        "over, refusal",
        [
            ({"pos_rate_by_group": (1.5, 0.35)}, r"pos_rate_by_group \(1.5, 0.35\) must lie in \[0, 1\]"),
            ({"pos_rate_by_group": (0.5, -0.1)}, r"must lie in \[0, 1\]"),
            ({"group_fractions": (0.7, 0.5)}, r"group_fractions \(0.7, 0.5\) must be non-negative and sum to 1"),
            ({"group_fractions": (1.2, -0.2)}, "must be non-negative"),
            ({"group_fractions": (float("nan"), 0.5)}, "must be non-negative"),
        ],
    )
    def test_rates_and_fractions_checked(self, over, refusal):
        with pytest.raises(ValueError, match=refusal):
            synthetic_dataset(300, seed=1, **over)

    def test_group_conditional_base_rates(self):
        ds = synthetic_dataset(4000, seed=16, pos_rate_by_group=(0.7, 0.3))
        g0 = ds.y[ds.S[:, 0] == 0].mean()
        g1 = ds.y[ds.S[:, 0] == 1].mean()
        np.testing.assert_allclose(g0, 0.7, atol=0.02)
        np.testing.assert_allclose(g1, 0.3, atol=0.02)
