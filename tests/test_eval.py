import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import toy_table
from fairtree import eval as ev
from fairtree.data import group_counts
from fairtree.errors import ConfigError, DataError
from fairtree.eval import (
    SweepResult,
    TrainConfig,
    _sigmoid,
    kfold,
    one_hot,
    split,
    sweep,
    train_linear,
    training_losses,
)
from fairtree.metrics import fairness_report
from fairtree.relabel import census, plan
from fairtree.tree import build


def separable_table():
    return toy_table(
        {"x": [0, 0, 1, 1], "y": [0, 1, 0, 1]},
        favored=[1, 0, 1, 0],
        positive=[1, 1, 0, 0],
    )


def masked_sigmoid(z):
    """The boolean-mask form ``_sigmoid`` replaced, kept as its bitwise reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_form():
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                         746.0, -746.0, 5e-324, -5e-324])
    payload_nans = np.array([0x7FF8000000000123, -0x7FF00000000001], dtype=np.int64).view(float)
    rng = np.random.default_rng(0)
    z = np.concatenate([specials, payload_nans, rng.normal(0, 5, 5000), rng.normal(0, 800, 500)])
    assert np.array_equal(_sigmoid(z).view(np.int64), masked_sigmoid(z).view(np.int64),
                          equal_nan=True)


class TestTrainLinear:
    def test_separable_toy_reaches_perfect_training_accuracy(self):
        t = separable_table()
        model = train_linear(t, TrainConfig(epochs=600, learning_rate=0.5, seed=0))
        assert (model.predict(t) == t.positive_mask).all()

    def test_label_independent_features_collapse_to_majority(self):
        t = toy_table(
            {"x": [0, 1, 0, 1, 0, 1]},
            favored=[1, 0] * 3,
            positive=[1, 1, 1, 1, 0, 0],
        )
        model = train_linear(t, TrainConfig(epochs=400, learning_rate=0.3, seed=1))
        assert model.predict(t).all()

    def test_fixed_seed_identical_weights(self):
        t = separable_table()
        m1 = train_linear(t, TrainConfig(seed=5))
        m2 = train_linear(t, TrainConfig(seed=5))
        assert (m1.weights == m2.weights).all() and m1.bias == m2.bias

    def test_loss_non_increasing(self, german):
        losses = training_losses(german, TrainConfig(epochs=150, learning_rate=0.1, seed=0))
        diffs = np.diff(losses)
        assert (diffs <= 1e-9).all()

    def test_single_class_rejected(self):
        t = toy_table({"x": [0, 1]}, favored=[1, 0], positive=[1, 1])
        with pytest.raises(DataError, match="single class"):
            train_linear(t)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0, -0.1])
    def test_learning_rate_not_finite_and_positive_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=rate)


@pytest.fixture(scope="module")
def german_folds(german):
    return kfold(german, 2, seed=3)


class TestBatchedFit:
    """A label matrix is fitted in one descent; each column matches its own fit."""

    CFG = TrainConfig(seed=11)

    def test_one_vector_fit_is_bitwise_the_reference_loop(self, german_folds):
        train = german_folds[0][0]
        cfg = TrainConfig(epochs=150, learning_rate=0.1, seed=7)
        model = train_linear(train, cfg)
        w, b, losses = oracle.logistic_descent(
            one_hot(train)[0], train.positive_mask.astype(float), cfg.epochs, cfg.learning_rate,
            cfg.seed,
        )
        assert np.array_equal(model.weights.view(np.int64), w.view(np.int64))
        assert np.float64(model.bias).view(np.int64) == np.float64(b).view(np.int64)
        assert np.array_equal(training_losses(train, cfg), np.array(losses))

    @given(fold=st.integers(0, 1), m=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           rate=st.floats(0.0, 0.5))
    @settings(max_examples=12)
    def test_every_column_matches_its_one_vector_fit(self, german_folds, fold, m, seed, rate):
        train, test = german_folds[fold]
        flips = np.random.default_rng(seed).random((train.n_rows, m)) < rate
        labels = train.positive_mask[:, None] ^ flips
        batched = train_linear(train, self.CFG, labels)
        preds = batched.predict(test)
        assert batched.weights.shape == (len(batched.feature_names), m)
        assert preds.shape == (test.n_rows, m)
        for j in range(m):
            single = train_linear(train, self.CFG, labels[:, j])
            assert np.abs(batched.weights[:, j] - single.weights).max() <= 1e-12
            assert abs(batched.bias[j] - single.bias) <= 1e-12
            assert np.array_equal(preds[:, j], single.predict(test))

    def test_batched_losses_match_one_vector_losses(self, german_folds):
        train = german_folds[0][0]
        labels = np.stack([train.positive_mask, ~train.positive_mask], axis=1)
        batched = training_losses(train, self.CFG, labels)
        assert batched.shape == (self.CFG.epochs, 2)
        for j in range(2):
            alone = training_losses(train, self.CFG, labels[:, j])
            assert np.abs(batched[:, j] - alone).max() <= 1e-12

    @pytest.mark.parametrize("column", [0, 2])
    def test_a_single_class_column_is_rejected(self, german_folds, column):
        train = german_folds[0][0]
        labels = np.stack([train.positive_mask] * 3, axis=1)
        labels[:, column] = column == 0
        with pytest.raises(DataError, match=f"single class \\(label column {column}\\)"):
            train_linear(train, self.CFG, labels)

    def test_labels_must_be_a_boolean_row_mask(self, german_folds):
        train = german_folds[0][0]
        with pytest.raises(ConfigError):
            train_linear(train, self.CFG, train.positive_mask.astype(int))
        with pytest.raises(ConfigError):
            train_linear(train, self.CFG, train.positive_mask[1:])

    def test_too_few_rows_rejected(self):
        t = toy_table({"x": [0]}, favored=[1], positive=[1])
        with pytest.raises(DataError, match="at least two rows"):
            train_linear(t, labels=np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("m", [None, 1, 5])
    def test_buffered_descent_is_bitwise_the_allocating_loop(self, german_folds, m):
        train, test = german_folds[1]
        cfg = TrainConfig(epochs=80, learning_rate=0.3, seed=2)
        if m is None:
            labels = train.positive_mask
        else:
            flips = np.random.default_rng(m).random((train.n_rows, m)) < 0.3
            labels = train.positive_mask[:, None] ^ flips
        X, y = one_hot(train)[0], labels.astype(float)
        seen = []
        w, b = oracle.descend_by_epoch(X, y, cfg.epochs, cfg.learning_rate, cfg.seed, seen.append)
        model = train_linear(train, cfg, labels)
        assert np.array_equal(model.weights.view(np.int64), w.view(np.int64))
        assert np.array_equal(np.asarray(model.bias).view(np.int64), np.asarray(b).view(np.int64))
        assert type(model.bias) is type(b)
        expected = oracle.sigmoid_by_where(one_hot(test)[0] @ w + b) >= 0.5
        assert np.array_equal(model.predict(test), expected)
        pc = [np.clip(q, 1e-12, 1.0 - 1e-12) for q in seen]
        losses = np.array([-np.mean(y * np.log(c) + (1.0 - y) * np.log(1.0 - c), axis=0) for c in pc])
        assert np.array_equal(training_losses(train, cfg, labels).view(np.int64), losses.view(np.int64))

    def test_sigmoid_out_is_bitwise_the_allocating_form(self):
        rng = np.random.default_rng(4)
        z = np.concatenate([np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -746.0]),
                            rng.normal(0, 20, 993)]).reshape(100, 10)
        out = np.full_like(z, 7.0)
        assert _sigmoid(z, out=out) is out
        assert np.array_equal(out.view(np.int64), oracle.sigmoid_by_where(z).view(np.int64))
        # with the descent's scratch buffers, stale contents and all
        scratch = np.ones(z.shape, dtype=bool), np.full_like(z, np.nan)
        out = np.full_like(z, 7.0)
        assert _sigmoid(z, out=out, scratch=scratch) is out
        assert np.array_equal(out.view(np.int64), oracle.sigmoid_by_where(z).view(np.int64))


class TestSplits:
    def test_quarter_split_sizes(self, german):
        train, test = split(german, 0.25, seed=0)
        assert test.n_rows == 250 and train.n_rows == 750

    def test_kfold_even_sizes(self):
        t = toy_table({"x": list(range(8))}, favored=[1, 0] * 4, positive=[1, 1, 0, 0] * 2)
        folds = kfold(t, 4, seed=1)
        assert [test.n_rows for _, test in folds] == [2, 2, 2, 2]
        assert all(train.n_rows == 6 for train, _ in folds)

    def test_same_seed_identical_partition(self, german):
        a = split(german, 0.25, seed=9)[1].fingerprint
        b = split(german, 0.25, seed=9)[1].fingerprint
        assert a == b

    def test_folds_disjoint_and_exhaustive(self, german):
        folds = kfold(german, 5, seed=3)
        seen = []
        for _, test in folds:
            seen += list(test.column("credit_amount"))
        assert len(seen) == german.n_rows
        assert sorted(seen) == sorted(german.column("credit_amount"))

    def test_bad_parameters(self, german):
        with pytest.raises(ConfigError):
            split(german, 0.0, seed=0)
        with pytest.raises(ConfigError):
            kfold(german, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold(german.subset(np.arange(3)), 4, seed=0)

    def test_negative_seeds_rejected(self, german):
        with pytest.raises(ConfigError, match="non-negative"):
            split(german, 0.25, seed=-1)
        with pytest.raises(ConfigError, match="non-negative"):
            kfold(german, 2, seed=-1)
        with pytest.raises(ConfigError, match="non-negative"):
            TrainConfig(seed=-1)


@pytest.fixture(scope="module")
def mini_sweep(german):
    small = german.subset(np.arange(300))
    grid = [0.0, 1.0, 2.0]
    cfg = TrainConfig(epochs=120, learning_rate=0.2, seed=0)
    return small, grid, cfg, sweep(small, "kl", grid, seed=4, train_config=cfg, folds=3)


class TestSweep:
    def test_row_layout(self, mini_sweep):
        _, grid, _, result = mini_sweep
        assert len(result.variant_rows("raw")) == len(grid)
        assert len(result.variant_rows("relabeled")) == len(grid)
        assert result.baseline().sigma is None
        assert all(r.folds == 3 for r in result.rows)

    def test_baseline_equals_direct_computation(self, mini_sweep):
        small, _, cfg, result = mini_sweep
        from dataclasses import replace

        from fairtree.eval import _fold_seed

        dps = []
        for f, (train, test) in enumerate(kfold(small, 3, seed=4)):
            model = train_linear(train, replace(cfg, seed=_fold_seed(cfg.seed, f, 0)))
            rep = fairness_report(test.positive_mask, model.predict(test), test.favored_mask)
            dps.append(rep.dp)
        assert result.baseline().dp_mean == np.array(dps).mean()

    def test_one_fit_per_fold(self, mini_sweep, monkeypatch):
        small, grid, cfg, result = mini_sweep
        widths = []

        def counted(table, config=None, labels=None):
            widths.append(labels.shape[1])
            return train_linear(table, config, labels)

        monkeypatch.setattr(ev, "train_linear", counted)
        again = sweep(small, "kl", grid, seed=4, train_config=cfg, folds=3)
        assert again.rows == result.rows
        assert len(widths) == 3
        assert all(1 <= w <= 1 + len(grid) for w in widths)

    def test_reproducible(self, mini_sweep):
        small, grid, cfg, result = mini_sweep
        again = sweep(small, "kl", grid, seed=4, train_config=cfg, folds=3)
        assert again.rows == result.rows

    def test_sigma_near_two_approaches_baseline(self, mini_sweep):
        # with only maximal-discrimination leaves relabeled, few labels move
        small, _, _, result = mini_sweep
        raw_at_2 = [r for r in result.variant_rows("raw") if r.sigma == 2.0][0]
        assert abs(raw_at_2.acc_mean - result.baseline().acc_mean) <= 0.15

    def test_monotone_scope_across_sigma(self, mini_sweep):
        small, _, _, _ = mini_sweep
        tree = build(small, "kl")
        low = {a.leaf_id for a in plan(census(tree, small), 0.5, seed=1).actions}
        high = {a.leaf_id for a in plan(census(tree, small), 1.0, seed=1).actions}
        assert high <= low

    def test_bad_grid_rejected(self, german):
        with pytest.raises(ConfigError):
            sweep(german, "kl", [0.0, 2.5], seed=1, folds=2)

    @pytest.mark.parametrize("grid", [[0.5, 0.5], [0.0, 1.0, -0.0]])
    def test_repeated_sigma_rejected(self, german, grid):
        with pytest.raises(ConfigError, match=f"repeats the value {grid[-1]!r}"):
            sweep(german, "kl", grid, seed=1, train_config=TrainConfig(epochs=5), folds=2)

    def test_one_metrics_call_per_fold_scores_every_column(self, mini_sweep, monkeypatch):
        small, grid, cfg, result = mini_sweep
        widths = []

        def counted(labels, preds, groups):
            widths.append(labels.shape[1])
            return fairness_report(labels, preds, groups)

        monkeypatch.setattr(ev, "fairness_report", counted)
        assert sweep(small, "kl", grid, seed=4, train_config=cfg, folds=3).rows == result.rows
        assert widths == [1 + 2 * len(grid)] * 3

    def test_std_nonnegative_and_manifest(self, mini_sweep, tmp_path):
        _, _, _, result = mini_sweep
        assert all(r.dp_std >= 0 and r.acc_std >= 0 for r in result.rows)
        assert result.manifest["folds"] == 3
        out = tmp_path / "sweep.csv"
        result.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.rows)
        assert lines[0].startswith("sigma,variant,dp_mean")
