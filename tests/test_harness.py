"""Experiment harness: config, determinism, t-tests, reports, CLI."""

import csv
import json
import logging
import math
import tempfile
import warnings
from collections import Counter
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from fairfedsim import harness
from fairfedsim.baselines import REGIMES, TrainConfig
from fairfedsim.cli import main as cli_main
from fairfedsim.client import _check_shard
from fairfedsim.data import DatasetSchema
from fairfedsim.harness import (
    ExperimentConfig,
    _t_test_p,
    build_data,
    load_records,
    paired_ttest,
    run,
    run_cell,
)


def compas_rows_csv(tmp_path, n_rows: int = 80) -> Path:
    """Rows under the built-in ``compas`` schema, sex alternating and the
    label changing every two rows: at 80 rows, 20 per (sex, label)."""
    schema = DatasetSchema.load("compas")
    columns = schema.required_columns()
    rows = []
    for r in range(n_rows):
        row = {col: str((r * (j + 3)) % 17) for j, col in enumerate(schema.numeric_features)}
        row.update({col: f"v{(r + j) % 3}" for j, col in enumerate(schema.categorical_features)})
        row.update({"sex": ("Female", "Male")[r % 2], schema.label: str(r // 2 % 2)})
        rows.append(row)
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def compas_fields(csv_path, schema: str = "compas", **fractions) -> dict:
    """The dataset and partition of a CSV config over ``csv_path``: each
    sex split in halves over two clients, unless ``fractions`` says else."""
    return {"dataset": {"schema": schema, "csv": str(csv_path)},
            "partition": {"attribute": "sex", "fractions": {"Female": (0.5, 0.5), "Male": (0.5, 0.5), **fractions}}}


def malformed_csv(tmp_path) -> Path:
    path = tmp_path / "malformed.csv"
    path.write_text("sex,two_year_recid\nMale,1\n")
    return path


# CSV configs that no cell can run: their fields over a directory, and the refusal
CSV_REFUSALS = {
    "csv-group-without-rows": (lambda d: compas_fields(compas_rows_csv(d), zzz=(0.5, 0.5)),
                               "partition group 'zzz' missing from data"),
    "csv-client-without-rows": (lambda d: compas_fields(compas_rows_csv(d), Female=(0.5, 0.5, 0.0),
                                                        Male=(0.5, 0.5, 0.0)),
                                "client 2: empty shard"),
    "csv-one-sample-stratum": (lambda d: compas_fields(compas_rows_csv(d, n_rows=5)),
                               r"stratum \(\(0,\), 1\) has 1 sample"),
    "csv-misspelled-schema": (lambda d: compas_fields(compas_rows_csv(d), schema="compass"),
                              r"'compass' is neither a shipped schema \['adult', 'adult_multi', 'bank', 'compas'\]"),
    "csv-missing-file": (lambda d: compas_fields(d / "absent.csv"), "No such file or directory"),
    "csv-malformed-file": (lambda d: compas_fields(malformed_csv(d)), r"malformed.csv: header missing columns"),
}


@st.composite
def fuzz_partitions(draw, attribute: str, groups: tuple[str, ...]) -> dict:
    """A partition of ``groups`` over 1-8 clients, with Dirichlet fractions
    per group at concentration 0.05-5."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_clients = draw(st.integers(1, 8))
    concentration = draw(st.floats(0.05, 5.0))
    fractions = {g: tuple(rng.dirichlet(np.full(n_clients, concentration)).tolist()) for g in groups}
    return {"attribute": attribute, "fractions": fractions}


@st.composite
def fuzz_fields(draw):
    """ExperimentConfig fields over the data-stage fuzz space: synthetic
    n in {40, 200}, 2-3 groups of Dirichlet sizes, a ``fuzz_partitions``
    partition, and two short cells whose training settings sit at their
    edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(2, 3))
    synthetic = {
        "n": draw(st.sampled_from((40, 200))),
        "group_fractions": tuple(rng.dirichlet(np.ones(n_groups)).tolist()),
        "pos_rate_by_group": tuple(rng.uniform(0.2, 0.8, n_groups).tolist()),
    }
    return dict(
        dataset={"synthetic": synthetic},
        partition=draw(fuzz_partitions("group", tuple(f"g{g}" for g in range(n_groups)))),
        constraint=draw(st.sampled_from(("dp", "eo", "ap"))),
        beta=draw(st.sampled_from((0.0, 0.2, 1.0))),
        delta=draw(st.sampled_from((0.0, 0.01, 1.0))),
        gamma=draw(st.sampled_from((0.0, 0.5, 50.0))),
        regimes=tuple(draw(st.lists(st.sampled_from(sorted(REGIMES)), min_size=2, max_size=2, unique=True))),
        seeds=(draw(st.integers(0, 999)),),
        rounds=2,
        local_epochs=2,
        hidden_dims=(8, 8),
    )


def data_stage_outcome(dataset: dict, partition: dict, seed: int):
    """What the data stage makes of a dataset and partition at one seed:
    its error, or the per-(group, label) stratum sizes of both splits and
    the sizes of every training and test shard."""
    cfg = ExperimentConfig()
    cfg.dataset, cfg.partition = dataset, partition  # set after construction: no check
    try:
        prepared = build_data(cfg, seed)
        for shard in prepared.shards:
            _check_shard(shard)
    except ValueError as exc:
        return str(exc)

    def strata(ds):
        return sorted(Counter(zip(ds.S[:, 0].tolist(), ds.y.tolist())).items())

    return (strata(prepared.train), strata(prepared.test),
            [len(s) for s in prepared.shards], [len(s) for s in prepared.test_shards])


def assert_refused_or_finishes_every_cell(fields: dict) -> None:
    try:
        cfg = ExperimentConfig(**fields)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as out:
        records = run(cfg, out)
    for r in records:
        assert r.error is None, f"{r.regime}-{r.seed}: {r.error}"
        assert all(math.isfinite(v) for v in r.report.scores().values()), r.report.scores()


def tiny_config(**over):
    fields = dict(
        regimes=("mfairfl", "fedavg"),
        seeds=(1, 2),
        rounds=2,
        local_epochs=2,
        hidden_dims=(8, 8),
    )
    fields.update(over)
    cfg = replace(ExperimentConfig(), **fields)
    cfg.dataset["synthetic"]["n"] = 300
    return cfg


class TestPairedTTest:
    def test_identical_is_degenerate(self):
        res = paired_ttest([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert not res.significant
        assert "identical" in res.note

    def test_constant_shift_rule(self):
        a = [0.1, 0.2, 0.3, 0.4, 0.5]
        b = [x + 0.1 for x in a]
        res = paired_ttest(a, b)
        assert res.significant
        assert math.isinf(res.t) and res.t < 0
        assert res.p == 0.0

    def test_textbook_strong_effect(self):
        # differences (1.2, 0.8, 1.1, 0.9, 1.0): mean 1.0, sd 0.1581
        b = [0.0] * 5
        a = [1.2, 0.8, 1.1, 0.9, 1.0]
        res = paired_ttest(a, b)
        np.testing.assert_allclose(res.t, math.sqrt(200.0), rtol=1e-12)
        assert res.p < 0.001
        assert res.significant

    def test_textbook_weak_effect_vs_critical_value(self):
        # t = 0.5345 < t_crit(4 dof, 95% two-sided) = 2.776
        b = [0.0] * 5
        a = [0.1, -0.1, 0.05, -0.05, 0.0]
        res = paired_ttest(a, b)
        assert abs(res.t) < 2.776
        assert not res.significant
        assert res.p > 0.05

    def test_length_validation(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_p_value_matches_scipy_ttest_rel(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 10, 40):
            a, b = rng.normal(size=n), rng.normal(0.3, 1.0, size=n)
            res = paired_ttest(a, b)
            ref = scipy_stats.ttest_rel(a, b)
            np.testing.assert_allclose(res.t, ref.statistic, rtol=1e-12)
            np.testing.assert_allclose(res.p, ref.pvalue, rtol=1e-9)


# scipy's t.sf loses these at df = 1: it reads 3.1e-9 relative low at
# t = 1e-8 and 0 at t = 1e200, where p = (2/pi) atan(1/t) = 6.4e-201
SCIPY_LOSES = {(1, 1e-8), (1, 1e200)}


class TestTTestPValue:
    FIXED_T = (0.0, 1e-8, 50.0, 1e3, 1e200)

    def test_matches_scipy(self):
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for df in range(1, 60):
                rng = np.random.default_rng(df)
                for t in [*rng.exponential(3.0, size=20), *self.FIXED_T]:
                    if (df, t) in SCIPY_LOSES:
                        continue
                    got, want = _t_test_p(float(t), df), 2.0 * float(scipy_stats.t.sf(abs(t), df))
                    assert f"{got:.6g}" == f"{want:.6g}", (df, t, got, want)
                    if want >= 1e-300:
                        assert abs(got - want) <= 1e-9 * want, (df, t, got, want)
                    checked += 1
        assert checked == 59 * 25 - len(SCIPY_LOSES)

    @pytest.mark.parametrize("t", [0.0, 1e-8, 0.3, 1.0, 7.0, 50.0, 1e3, 1e200])
    def test_cauchy_closed_form_at_one_degree_of_freedom(self, t):
        want = 2.0 / math.pi * math.atan2(1.0, t)
        np.testing.assert_allclose(_t_test_p(t, 1), want, rtol=1e-13)
        np.testing.assert_allclose(_t_test_p(-t, 1), want, rtol=1e-13)

    def test_p_falls_from_one_as_t_grows(self):
        ts = [0.0, 1e-8, 0.5, 1.0, 2.0, 5.0, 50.0, 1e3, 1e100]
        for df in (1, 2, 7, 59, 1000):
            ps = [_t_test_p(t, df) for t in ts]
            assert ps[0] == 1.0
            assert all(0.0 <= q <= p <= 1.0 and (q < p or q == 0.0) for p, q in zip(ps, ps[1:]))


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again.config_hash() == cfg.config_hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig()
        b = replace(ExperimentConfig(), eta=0.123)
        assert a.config_hash() != b.config_hash()

    def test_grid_warning(self):
        with pytest.warns(UserWarning, match="beta"):
            replace(ExperimentConfig(), beta=0.37)
        with pytest.warns(UserWarning, match="delta"):
            replace(ExperimentConfig(), delta=0.5)

    @pytest.mark.parametrize(
        "name, value",
        [("beta", -0.1), ("beta", 1.5), ("delta", -0.5), ("delta", 2.0), ("gamma", -1.0), ("eta", 0.0), ("eta", -0.05),
         ("eta", math.nan), ("eta", math.inf), ("gamma", math.nan), ("alpha", math.nan), ("alpha", -0.1),
         ("constraint", "xx"), ("local_epochs", 0), ("rounds", 0), ("hidden_dims", ()), ("hidden_dims", (8, 0)),
         # ExperimentConfig only
         ("partition", {"attribute": "group", "fractions": {"g0": (0.5, 0.4), "g1": (0.5, 0.5)}}),
         ("partition", {"attribute": "sex", "fractions": {"g0": (0.5, 0.5), "g1": (0.5, 0.5)}}),
         ("dataset", {}),
         ("dataset", {"csv": "rows.csv"}),
         ("dataset", {"synthetic": {"n": 200, "bogus": 1}}),
         ("dataset", {"synthetic": {"input_dim": 4}}),
         ("dataset", {"synthetic": {"n": 200, "pos_rate_by_group": (0.5,)}}),
         # four groups against the default partition's g0 and g1
         ("dataset", {"synthetic": {"n": 200, "group_fractions": (0.25,) * 4, "pos_rate_by_group": (0.5,) * 4}}),
         ("test_fraction", 1.5)],
    )
    def test_out_of_range_round_values_rejected_at_construction(self, name, value):
        if name in {f.name for f in fields(TrainConfig)}:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
        for seeds in ((1, 2), ()):
            with pytest.raises(ValueError, match=name):
                replace(ExperimentConfig(), seeds=seeds, **{name: value})

    @pytest.mark.parametrize("name, values", [("seeds", (1, 1, 2)), ("regimes", ("fedavg", "fedavg"))])
    def test_repeated_seed_or_regime_rejected(self, name, values):
        with pytest.raises(ValueError, match=f"{name}=.* repeats"):
            replace(ExperimentConfig(), **{name: values})

    @pytest.mark.parametrize(
        "over, reason",
        [
            ({"dataset": {"synthetic": {"n": 300, "pos_rate_by_group": (0.005, 0.35)}}},
             r"stratum \(\(0,\), 1\) has 1 sample"),
            ({"dataset": {"synthetic": {"n": 300, "group_fractions": (1.0, 0.0)}}},
             "partition group 'g1' missing from data"),
            ({"partition": {"attribute": "group", "fractions": {"g0": (0.5, 0.5, 0.0), "g1": (0.5, 0.5, 0.0)}}},
             "client 2: empty shard"),
            ({"dataset": {"synthetic": {"n": 300, "pos_rate_by_group": (1.5, 0.35)}}},
             r"pos_rate_by_group \(1.5, 0.35\) must lie in \[0, 1\]"),
            ({"dataset": {"synthetic": {"n": 300, "group_fractions": (0.7, 0.5)}}},
             r"group_fractions \(0.7, 0.5\) must be non-negative and sum to 1"),
            *CSV_REFUSALS.values(),
        ],
        ids=["one-sample-stratum", "group-without-rows", "client-without-rows", "rate-above-one",
             "fractions-sum-above-one", *CSV_REFUSALS],
    )
    def test_data_stage_failure_refused_at_construction(self, tmp_path, over, reason):
        if callable(over):  # a CSV case: its files go in tmp_path
            over = over(tmp_path)
        with pytest.raises(ValueError, match=reason) as refused:
            replace(ExperimentConfig(), **over)
        assert str(refused.value).startswith("dataset and partition: no cell can run: ")

    def test_client_without_test_rows_builds_silently(self, caplog):
        """A client with training rows but no test rows is legal (the
        report skips its empty test shard), so building it logs nothing."""
        caplog.set_level(logging.DEBUG)
        fractions = (0.49, 0.49, 0.02)
        cfg = tiny_config(partition={"attribute": "group", "fractions": {"g0": fractions, "g1": fractions}})
        prepared = build_data(cfg, 0)
        assert len(prepared.shards[2]) > 0 and len(prepared.test_shards[2]) == 0
        assert caplog.records == []

    def test_synthetic_groups_g0_to_g11_with_their_partition_build(self):
        groups = 12
        cfg = replace(
            ExperimentConfig(),
            dataset={"synthetic": {"n": 600, "group_fractions": (1 / groups,) * groups,
                                   "pos_rate_by_group": (0.5,) * groups}},
            partition={"attribute": "group", "fractions": {f"g{g}": (0.5, 0.5) for g in range(groups)}},
        )
        assert len(build_data(cfg, 1).shards) == 2

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            replace(ExperimentConfig(), regimes=("nope",))

    def test_unknown_client_mode_rejected(self):
        with pytest.raises(ValueError, match="client mode"):
            replace(ExperimentConfig(), client_mode="two_step")

    @pytest.mark.parametrize(
        "key, value", [("weighted_mean", False), ("out", "results"), ("reference_regime", "mfairfl")]
    )
    def test_removed_key_rejected(self, key, value):
        d = ExperimentConfig().to_json()
        d[key] = value
        with pytest.raises(TypeError, match=key):
            ExperimentConfig.from_json(d)

    def test_single_step_trains_as_one_local_epoch(self, tmp_path):
        single = replace(ExperimentConfig(), client_mode="single_step", local_epochs=20, rounds=3)
        one = replace(ExperimentConfig(), local_epochs=1, rounds=3)
        assert single.train_config(1) == one.train_config(1)
        a = run_cell(single, "mfairfl", 1, tmp_path / "single")
        b = run_cell(one, "mfairfl", 1, tmp_path / "one")
        assert a.error is None and a.report.to_json() == b.report.to_json()


class TestRun:
    def test_single_cell(self, tmp_path):
        cfg = tiny_config(regimes=("fedavg",), seeds=(1,))
        records = run(cfg, tmp_path / "o")
        assert len(records) == 1
        assert records[0].error is None
        assert records[0].report is not None

    def test_grid_outputs_and_determinism(self, tmp_path):
        rec1 = run(tiny_config(), tmp_path / "a")
        rec2 = run(tiny_config(), tmp_path / "b")
        by_cell1 = {(r.regime, r.seed): r.report.to_json() for r in rec1}
        by_cell2 = {(r.regime, r.seed): r.report.to_json() for r in rec2}
        assert by_cell1 == by_cell2
        csv1 = (tmp_path / "a" / "results.csv").read_text()
        csv2 = (tmp_path / "b" / "results.csv").read_text()
        assert csv1 == csv2
        for name in ("results.txt", "records.json", "meta.json"):
            assert (tmp_path / "a" / name).exists()
        assert (tmp_path / "a" / "trace" / "mfairfl-1.jsonl").exists()

    def test_beta_zero_mfairfl_cell_equals_fedavg_cell(self, tmp_path):
        cfg = tiny_config(beta=0.0, gamma=0.0, alpha=1.0, seeds=(3,))
        records = run(cfg, tmp_path / "c")
        by_regime = {r.regime: r.report for r in records}
        assert by_regime["mfairfl"].to_json() == by_regime["fedavg"].to_json()

    def test_failed_cell_recorded_not_fatal(self, tmp_path, monkeypatch):
        """A cell that fails at run time is recorded; the grid goes on."""
        def train_failing_fedavg(regime, shards, config):
            if regime == "fedavg":
                raise RuntimeError("fedavg diverged")
            return train(regime, shards, config)

        train = harness.train
        monkeypatch.setattr(harness, "train", train_failing_fedavg)
        records = run(tiny_config(seeds=(1,)), tmp_path / "d")
        assert [(r.regime, r.error) for r in records] == [("mfairfl", None), ("fedavg", "RuntimeError: fedavg diverged")]
        assert records[0].report is not None

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg, _: cfg.dataset["synthetic"].update(bogus=1),
            lambda cfg, _: cfg.dataset["synthetic"].update(pos_rate_by_group=(0.5,)),
            lambda cfg, _: cfg.partition["fractions"].update(zzz=[1.0]),
            lambda cfg, _: cfg.dataset["synthetic"].update(pos_rate_by_group=(0.005, 0.35)),
            lambda cfg, _: cfg.dataset["synthetic"].update(group_fractions=(1.0, 0.0)),
            lambda cfg, _: cfg.partition.update(fractions={"g0": [0.5, 0.5, 0.0], "g1": [0.5, 0.5, 0.0]}),
            lambda cfg, _: setattr(cfg, "seeds", (1, 1)),
            lambda cfg, _: setattr(cfg, "eta", -1.0),
            *[lambda cfg, d, make=make: vars(cfg).update(make(d)) for make, _ in CSV_REFUSALS.values()],
        ],
        ids=["synthetic-key", "synthetic-value", "partition-group", "one-sample-stratum", "group-without-rows",
             "client-without-rows", "repeated-seed", "eta", *CSV_REFUSALS],
    )
    def test_edit_after_construction_refused_before_any_file(self, tmp_path, edit):
        out = tmp_path / "x"
        cfg = tiny_config(regimes=("fedavg",), seeds=(1,))
        edit(cfg, tmp_path)
        with pytest.raises(ValueError):
            run(cfg, out)
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["seeds", "regimes"])
    def test_empty_grid_refused_before_any_file(self, tmp_path, empty):
        out = tmp_path / "e"
        cfg = replace(tiny_config(), **{empty: ()})  # allowed at construction
        with pytest.raises(ValueError, match="empty grid"):
            run(cfg, out)
        assert not out.exists()

    def test_phase_times_in_meta_only(self, tmp_path):
        out = tmp_path / "p"
        records = run(tiny_config(regimes=("mfairfl", "fedavg_f", "indfair"), seeds=(1,)), out)
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta["phase_times"]) == set(meta["wall_times"]) == {"mfairfl-1", "fedavg_f-1", "indfair-1"}
        for cell, phases in meta["phase_times"].items():
            assert set(phases) == {"client_s", "server_s"}
            assert phases["client_s"] > 0.0 and phases["server_s"] > 0.0
            assert phases["client_s"] + phases["server_s"] <= meta["wall_times"][cell]
        assert all(r.phase_times == meta["phase_times"][f"{r.regime}-{r.seed}"] for r in records)
        # the byte-stable outputs do not carry them
        assert "client_s" not in (out / "records.json").read_text()
        for trace in (out / "trace").iterdir():
            assert "client_s" not in trace.read_text()

    def test_records_reload(self, tmp_path):
        out = tmp_path / "e"
        run(tiny_config(regimes=("fedavg",), seeds=(1, 2)), out)
        records = load_records(str(out))
        assert len(records) == 2
        assert all(r.report is not None for r in records)

    def test_failed_cell_keeps_its_traceback(self, tmp_path, monkeypatch):
        def train_diverging(regime, shards, config):
            raise FloatingPointError("client 2 diverged")

        monkeypatch.setattr(harness, "train", train_diverging)
        out = tmp_path / "f"
        (record,) = run(tiny_config(regimes=("mfairfl",), seeds=(1,)), out)
        assert record.error == "FloatingPointError: client 2 diverged"
        assert record.traceback.startswith("Traceback (most recent call last):")
        assert "in train_diverging" in record.traceback
        assert record.traceback.rstrip().endswith(record.error)
        (reloaded,) = load_records(str(out))
        assert (reloaded.error, reloaded.traceback) == (record.error, record.traceback)
        failed = [line for line in (out / "results.txt").read_text().splitlines() if "diverged" in line]
        assert failed == ["  mfairfl-1: FloatingPointError: client 2 diverged"]

    @pytest.mark.parametrize("schema_ref", ["compas", "schema.json"])
    def test_csv_dataset(self, tmp_path, schema_ref):
        """A {"schema", "csv"} dataset, by built-in schema name or .json path."""
        if schema_ref.endswith(".json"):
            schema_ref = str(tmp_path / schema_ref)
            Path(schema_ref).write_text(resources.files("fairfedsim.schemas").joinpath("compas.json").read_text())
        cfg = replace(
            ExperimentConfig(),
            dataset={"schema": schema_ref, "csv": str(compas_rows_csv(tmp_path))},
            partition={"attribute": "sex", "fractions": {"Female": (0.5, 0.5), "Male": (0.5, 0.5)}},
            regimes=("fedavg", "mfairfl"),
            seeds=(1,),
            rounds=1,
            local_epochs=1,
            hidden_dims=(8, 8),
        )
        assert [r.error for r in run(cfg, tmp_path / "o")] == [None, None]

    def test_threads_other_than_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="threads"):
            tiny_config(threads=2)


@pytest.fixture(scope="module")
def compas_csv(tmp_path_factory) -> Path:
    return compas_rows_csv(tmp_path_factory.mktemp("compas"))


class TestDataStageCheck:
    @settings(max_examples=30, deadline=None)
    @given(fields=fuzz_fields(), seed=st.integers(1, 2**31 - 1))
    def test_one_build_decides_for_every_seed(self, fields, seed):
        """The seed only permutes rows: the check's build at seed 0 meets
        every size, and every error, that a cell's build meets."""
        dataset, partition = fields["dataset"], fields["partition"]
        assert data_stage_outcome(dataset, partition, 0) == data_stage_outcome(dataset, partition, seed)

    @pytest.mark.filterwarnings("ignore:.*outside the default grid:UserWarning")
    @settings(max_examples=30, deadline=None)
    @given(fields=fuzz_fields())
    def test_every_config_is_refused_or_finishes_every_cell(self, fields):
        assert_refused_or_finishes_every_cell(fields)

    @settings(max_examples=50, deadline=None)
    @given(partition=fuzz_partitions("sex", ("Female", "Male")), seed=st.integers(1, 2**31 - 1))
    def test_one_csv_build_decides_for_every_seed(self, compas_csv, partition, seed):
        dataset = {"schema": "compas", "csv": str(compas_csv)}
        assert data_stage_outcome(dataset, partition, 0) == data_stage_outcome(dataset, partition, seed)

    @pytest.mark.filterwarnings("ignore:.*outside the default grid:UserWarning")
    @settings(max_examples=8, deadline=None)
    @given(fields=fuzz_fields(), partition=fuzz_partitions("sex", ("Female", "Male")))
    def test_every_csv_config_is_refused_or_finishes_every_cell(self, compas_csv, fields, partition):
        fields.update(dataset={"schema": "compas", "csv": str(compas_csv)}, partition=partition,
                      rounds=1, local_epochs=1)
        assert_refused_or_finishes_every_cell(fields)


class TestBuildData:
    def test_deterministic_per_seed(self):
        cfg = ExperimentConfig()
        cfg.dataset["synthetic"]["n"] = 200
        a = build_data(cfg, 5)
        b = build_data(cfg, 5)
        np.testing.assert_array_equal(a.train.X, b.train.X)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa.data.row_ids, sb.data.row_ids)

    def test_test_shards_mirror_partition(self):
        cfg = ExperimentConfig()
        cfg.dataset["synthetic"]["n"] = 500
        prepared = build_data(cfg, 1)
        assert len(prepared.test_shards) == len(prepared.shards) == 5
        test_rows = set()
        for s in prepared.test_shards:
            test_rows.update(s.data.row_ids.tolist())
        assert test_rows == set(prepared.test.row_ids.tolist())


class TestCli:
    def test_print_defaults(self, tmp_path, capsys):
        assert cli_main(["config", "--print-defaults"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["rounds"] == 10
        path = tmp_path / "defaults.json"
        path.write_text(out)
        assert ExperimentConfig.from_file(str(path)).config_hash() == ExperimentConfig().config_hash()

    def test_partition_dry_run(self, tmp_path, capsys):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert cli_main(["partition", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "client" in out and "g0" in out

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tiny_config(regimes=("fedavg",), seeds=(1,))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "j")])
        assert code == 0
        assert (tmp_path / "j" / "results.csv").exists()

    def test_run_writes_under_results_by_default(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(regimes=("fedavg",), seeds=(1,)).to_json()))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert "outputs in results" in capsys.readouterr().out
        assert (tmp_path / "results" / "results.csv").exists()
        assert (tmp_path / "results" / "trace" / "fedavg-1.jsonl").exists()

    def test_verify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert cli_main(["verify", "--instances", "12", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("PASS") == 2
        assert (out / "bound_campaign.csv").is_file()
        report = json.loads((out / "bound_report.json").read_text())
        assert report["all_ok"] is True

    @pytest.mark.parametrize("instances", ["0", "-5"])
    def test_verify_refuses_fewer_than_one_instance(self, tmp_path, instances, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--instances", instances, "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "k"
        run(tiny_config(regimes=("fedavg",), seeds=(1, 2)), out)
        assert cli_main(["report", "--records", str(out), "--reference", "fedavg"]) == 0
        assert "fedavg" in capsys.readouterr().out
