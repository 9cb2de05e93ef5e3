from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from fairtree.errors import DataError, UndefinedMetricError
from fairtree.metrics import confusion, fairness_report, roc_points


def arrays(*seqs):
    return [np.array(s, dtype=bool) for s in seqs]


def alternating(groups):
    """Labels alternating positive, negative within each group, so every group
    of two or more rows holds both classes."""
    labels = np.zeros(groups.size, dtype=bool)
    for g in (groups, ~groups):
        labels[np.flatnonzero(g)[::2]] = True
    return labels


class TestDemographicParity:
    def test_identical_rates_are_parity(self):
        labels, preds, groups = arrays([1, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0])
        assert fairness_report(labels, preds, groups).dp == 0.0

    def test_complete_unfairness(self):
        labels, preds, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0])
        assert fairness_report(labels, preds, groups).dp == 1.0

    def test_hand_value(self):
        labels, preds, groups = arrays([1, 0, 1, 0, 1, 0], [1, 1, 1, 0, 1, 0], [1, 1, 1, 1, 0, 0])
        assert fairness_report(labels, preds, groups).dp == pytest.approx(0.25)

    def test_empty_group_raises(self):
        labels, preds, groups = arrays([1, 0], [1, 0], [1, 1])
        with pytest.raises(UndefinedMetricError, match="demographic parity"):
            fairness_report(labels, preds, groups)

    @given(
        preds=st.lists(st.booleans(), min_size=4, max_size=20),
        groups=st.lists(st.booleans(), min_size=4, max_size=20),
    )
    def test_swapping_groups_negates(self, preds, groups):
        n = min(len(preds), len(groups))
        preds, groups = arrays(preds[:n], groups[:n])
        if groups.sum() < 2 or (~groups).sum() < 2:
            return
        labels = alternating(groups)
        assert fairness_report(labels, preds, ~groups).dp == pytest.approx(
            -fairness_report(labels, preds, groups).dp
        )


class TestAverageOdds:
    def test_equal_rates_zero(self):
        labels, preds, groups = arrays(
            [1, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]
        )
        assert fairness_report(labels, preds, groups).aod == 0.0

    def test_hand_value(self):
        # favored: TPR 0.9, FPR 0.2; deprived: TPR 0.7, FPR 0.2
        fav_l = [1] * 10 + [0] * 10
        fav_p = [1] * 9 + [0] + [1] * 2 + [0] * 8
        dep_l = [1] * 10 + [0] * 10
        dep_p = [1] * 7 + [0] * 3 + [1] * 2 + [0] * 8
        labels, preds, groups = arrays(
            fav_l + dep_l, fav_p + dep_p, [1] * 20 + [0] * 20
        )
        assert fairness_report(labels, preds, groups).aod == pytest.approx(0.1)

    def test_perfect_classifier_zero(self):
        labels, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0])
        assert fairness_report(labels, labels, groups).aod == 0.0

    def test_undefined_rate_names_the_group(self):
        labels, preds, groups = arrays([1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 0, 0])
        with pytest.raises(UndefinedMetricError, match="favored FPR"):
            fairness_report(labels, preds, groups)

    @given(
        labels=st.lists(st.booleans(), min_size=8, max_size=8),
        preds=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=60)
    def test_swapping_groups_negates(self, labels, preds):
        groups = np.array([1, 0] * 4, dtype=bool)
        labels, preds = arrays(labels, preds)
        try:
            a = fairness_report(labels, preds, groups).aod
            b = fairness_report(labels, preds, ~groups).aod
        except UndefinedMetricError:
            return
        assert b == pytest.approx(-a)


class TestBalancedAccuracy:
    def test_perfect(self):
        labels, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0])
        assert fairness_report(labels, labels, groups).ba == 1.0

    def test_all_positive_on_balanced_labels(self):
        labels, preds, groups = arrays([1, 0, 1, 0], [1, 1, 1, 1], [1, 1, 0, 0])
        assert fairness_report(labels, preds, groups).ba == 0.5

    def test_hand_value(self):
        # TPR 0.8 (4/5), TNR 0.6 (3/5)
        labels = [1] * 5 + [0] * 5
        preds = [1, 1, 1, 1, 0] + [0, 0, 0, 1, 1]
        groups = [1, 0] * 5
        assert fairness_report(*arrays(labels, preds, groups)).ba == pytest.approx(0.7)

    def test_single_class_raises(self):
        # a favored TPR or FPR without support fails before BA could
        labels, preds, groups = arrays([1, 1], [1, 0], [1, 0])
        with pytest.raises(UndefinedMetricError):
            fairness_report(labels, preds, groups)

    def test_equals_accuracy_on_balanced_group_agnostic_data(self):
        labels = np.array([1, 0] * 10, dtype=bool)
        preds = np.array([1, 0, 0, 1] * 5, dtype=bool)
        groups = np.array([1, 1, 0, 0] * 5, dtype=bool)
        rep = fairness_report(labels, preds, groups)
        assert rep.ba == pytest.approx(rep.acc)


class TestAccuracy:
    def test_all_correct(self):
        labels, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0])
        assert fairness_report(labels, labels, groups).acc == 1.0

    def test_all_wrong(self):
        labels, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0])
        assert fairness_report(labels, ~labels, groups).acc == 0.0

    def test_three_of_four(self):
        labels, preds, groups = arrays([1, 1, 0, 0], [1, 1, 0, 1], [1, 0, 1, 0])
        assert fairness_report(labels, preds, groups).acc == 0.75


class TestReport:
    def test_report_fields_and_text(self):
        labels, preds, groups = arrays(
            [1, 0, 1, 0, 1, 0], [1, 0, 1, 1, 0, 0], [1, 1, 1, 1, 0, 0]
        )
        rep = fairness_report(labels, preds, groups)
        assert rep.sign_note == "favored-minus-deprived"
        assert abs(rep.dp) <= 1.0
        assert rep.ba == pytest.approx(
            (rep.confusion.fav_tp + rep.confusion.dep_tp)
            / (rep.confusion.fav_tp + rep.confusion.fav_fn + rep.confusion.dep_tp + rep.confusion.dep_fn)
            / 2
            + (rep.confusion.fav_tn + rep.confusion.dep_tn)
            / (rep.confusion.fav_tn + rep.confusion.fav_fp + rep.confusion.dep_tn + rep.confusion.dep_fp)
            / 2,
            abs=1e-12,
        )
        text = rep.to_text()
        assert "demographic parity" in text and "sign convention" in text
        assert len(rep.csv_row()) == len(rep.csv_header())


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def _outcome(fn, *args):
    """A report's per-column values, or the error it raised."""
    try:
        return fn(*args)
    except UndefinedMetricError as exc:
        return repr(exc)


class TestColumnReport:
    """A report over label and prediction matrices is the one-column report of each column."""

    @given(data=st.data(), rows=st.integers(0, 12), m=st.integers(1, 5))
    @settings(max_examples=300)
    def test_matrix_report_is_bitwise_the_column_loop(self, data, rows, m):
        cells = st.lists(st.booleans(), min_size=rows * m, max_size=rows * m)
        labels = np.array(data.draw(cells), dtype=bool).reshape(rows, m)
        preds = np.array(data.draw(cells), dtype=bool).reshape(rows, m)
        groups = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        expected = _outcome(oracle.fairness_report_by_column, labels, preds, groups)

        def columns(labels, preds, groups):
            rep = fairness_report(labels, preds, groups)
            c = rep.confusion
            counts = [c.fav_tp, c.fav_fp, c.fav_tn, c.fav_fn, c.dep_tp, c.dep_fp, c.dep_tn, c.dep_fn]
            return [(rep.dp[j], rep.aod[j], rep.ba[j], rep.acc[j], *(int(k[j]) for k in counts))
                    for j in range(m)]

        found = _outcome(columns, labels, preds, groups)
        if isinstance(expected, str):
            assert found == expected
            return
        assert [[_bits(v) for v in col[:4]] + list(col[4:]) for col in found] == \
            [[_bits(v) for v in col[:4]] + list(col[4:]) for col in expected]
        one = _outcome(fairness_report, labels[:, 0], preds[:, 0], groups)
        assert (type(one.dp), type(one.confusion.fav_tp)) == (float, int)
        assert [_bits(v) for v in (one.dp, one.aod, one.ba, one.acc)] == \
            [_bits(v) for v in expected[0][:4]]

    def test_first_undefined_column_raises_its_first_error(self):
        labels = np.array([[1, 1, 1], [0, 1, 1], [1, 1, 0], [0, 1, 0]], dtype=bool)
        preds = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0], [0, 1, 0]], dtype=bool)
        groups = np.array([1, 1, 0, 0], dtype=bool)
        # column 1 has no negatives, so its favored FPR is the first undefined rate
        with pytest.raises(UndefinedMetricError, match="favored FPR has no support"):
            fairness_report(labels, preds, groups)
        with pytest.raises(UndefinedMetricError, match="favored FPR has no support"):
            oracle.fairness_report_by_column(labels, preds, groups)

    def test_confusion_counts_a_vector_as_one_column(self):
        labels, preds, groups = arrays([1, 0, 1, 0, 1], [1, 1, 0, 0, 1], [1, 1, 0, 0, 0])
        one = astuple(confusion(labels, preds, groups))
        matrix = astuple(confusion(labels[:, None], preds[:, None], groups))
        assert one == (1, 1, 0, 0, 1, 0, 1, 1)
        assert [type(c) for c in one] == [int] * 8
        assert [c.tolist() for c in matrix] == [[c] for c in one]

    def test_mismatched_shapes_rejected(self):
        labels = np.zeros((4, 2), dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            fairness_report(labels, labels[:, 0], np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            fairness_report(labels, labels, np.ones(3, dtype=bool))


class TestRoc:
    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, score):
        labels, groups = arrays([1, 0, 1], [1, 1, 1])
        with pytest.raises(DataError, match="finite"):
            roc_points([0.2, score, 0.7], labels, groups)

    def test_perfect_scorer_hits_corner(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels, groups = arrays([1, 1, 0, 0], [1, 0, 1, 0])
        fav, dep = roc_points(scores, labels, groups)
        assert (0.0, 0.0) == (fav.tpr[0], fav.fpr[0])
        assert (1.0, 0.0) in zip(fav.tpr, fav.fpr)
        assert (1.0, 1.0) == (fav.tpr[-1], fav.fpr[-1])

    def test_constant_scores_degenerate_staircase(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels, groups = arrays([1, 0, 1, 0], [1, 1, 0, 0])
        fav, _ = roc_points(scores, labels, groups)
        assert len(fav.thresholds) == 3  # +inf, 0.5, -inf
        assert fav.tpr == (0.0, 1.0, 1.0) and fav.fpr == (0.0, 1.0, 1.0)

    def test_staircase_matches_threshold_enumeration(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 1, 0, 1], dtype=bool)
        groups = np.ones(4, dtype=bool)
        fav, dep = roc_points(scores, labels, groups)
        assert dep.single_class  # no deprived rows at all -> flagged
        for t, tpr, fpr in zip(fav.thresholds, fav.tpr, fav.fpr):
            pred = scores >= t
            assert tpr == pytest.approx(pred[labels].mean())
            assert fpr == pytest.approx(pred[~labels].mean())

    def test_single_class_group_flagged(self):
        scores = np.array([0.2, 0.4, 0.6, 0.8])
        labels, groups = arrays([1, 1, 1, 0], [1, 1, 0, 0])
        fav, dep = roc_points(scores, labels, groups)
        assert fav.single_class and not dep.single_class

    @given(cells=st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1e300]), st.floats(allow_nan=False, allow_infinity=False)),
        st.booleans(),
        st.booleans(),
    ), max_size=16))
    # ties of 0.0 and -0.0 in either order, an empty deprived group and a single-class one
    @example(cells=[(0.0, True, True), (-0.0, True, True), (0.5, True, True),
                    (-0.0, False, True), (0.0, False, True), (0.5, True, True)])
    @example(cells=[(-0.0, True, False), (0.0, True, False), (1.0, True, True), (0.0, False, True)])
    @settings(max_examples=300)
    def test_staircase_is_bitwise_the_threshold_loop(self, cells):
        scores = np.array([c[0] for c in cells], dtype=float)
        labels, groups = arrays([c[1] for c in cells], [c[2] for c in cells])
        found = [(s.group, s.thresholds, s.tpr, s.fpr, s.single_class)
                 for s in roc_points(scores, labels, groups)]
        expected = oracle.roc_by_threshold(scores, labels, groups)
        assert [(g, [_bits(v) for v in (*t, *tp, *fp)], one) for g, t, tp, fp, one in found] == \
            [(g, [_bits(v) for v in (*t, *tp, *fp)], one) for g, t, tp, fp, one in expected]
