"""Fairness and performance metrics over (label, prediction, group) triples.

Sign convention: group differences are favored minus deprived, recorded in
every report. Undefined rates raise instead of silently returning 0.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import UndefinedMetricError

SIGN_CONVENTION = "favored-minus-deprived"

_AOD_UNDEFINED = "average odds difference undefined: {} has no support"


@dataclass(frozen=True)
class GroupConfusion:
    """Per-group confusion counts with derived rates (None when undefined).

    The counts of a report over (rows, m) matrices are arrays of one entry per
    column; the rates are defined for one column only.
    """

    fav_tp: int
    fav_fp: int
    fav_tn: int
    fav_fn: int
    dep_tp: int
    dep_fp: int
    dep_tn: int
    dep_fn: int

    @staticmethod
    def _rate(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    @property
    def fav_tpr(self):
        return self._rate(self.fav_tp, self.fav_tp + self.fav_fn)

    @property
    def fav_fpr(self):
        return self._rate(self.fav_fp, self.fav_fp + self.fav_tn)

    @property
    def fav_tnr(self):
        return self._rate(self.fav_tn, self.fav_tn + self.fav_fp)

    @property
    def dep_tpr(self):
        return self._rate(self.dep_tp, self.dep_tp + self.dep_fn)

    @property
    def dep_fpr(self):
        return self._rate(self.dep_fp, self.dep_fp + self.dep_tn)

    @property
    def dep_tnr(self):
        return self._rate(self.dep_tn, self.dep_tn + self.dep_fp)


def _as_bool(x) -> np.ndarray:
    return np.asarray(x, dtype=bool)


def confusion(labels, preds, groups) -> GroupConfusion:
    """Per-group confusion counts; for (rows, m) label and prediction matrices
    each count is an array with one entry per column."""
    labels, preds, groups = _as_bool(labels), _as_bool(preds), _as_bool(groups)
    if labels.shape != preds.shape or labels.ndim not in (1, 2) or groups.shape != labels.shape[:1]:
        raise ValueError(
            f"labels and predictions must share one (rows,) or (rows, m) shape over the groups' rows, "
            f"got {labels.shape}, {preds.shape} and {groups.shape}"
        )
    if labels.ndim == 2:
        groups = groups[:, None]
    counts = []
    for g in (groups, ~groups):
        counts += [
            np.sum(g & labels & preds, axis=0),
            np.sum(g & ~labels & preds, axis=0),
            np.sum(g & ~labels & ~preds, axis=0),
            np.sum(g & labels & ~preds, axis=0),
        ]
    if labels.ndim == 1:
        counts = [int(c) for c in counts]
    return GroupConfusion(*counts)


def demographic_parity(preds, groups) -> float:
    """Positive-prediction rate gap, favored minus deprived."""
    preds, groups = _as_bool(preds), _as_bool(groups)
    n_fav, n_dep = int(groups.sum()), int((~groups).sum())
    if n_fav == 0 or n_dep == 0:
        raise UndefinedMetricError("demographic parity needs at least one member per group")
    return float(preds[groups].mean() - preds[~groups].mean())


def average_odds_difference(conf: GroupConfusion) -> float:
    """Mean of the TPR and FPR gaps, favored minus deprived; 0 means equalized odds."""
    rates = {
        "favored TPR": conf.fav_tpr,
        "favored FPR": conf.fav_fpr,
        "deprived TPR": conf.dep_tpr,
        "deprived FPR": conf.dep_fpr,
    }
    for name, value in rates.items():
        if value is None:
            raise UndefinedMetricError(_AOD_UNDEFINED.format(name))
    return ((conf.fav_tpr - conf.dep_tpr) + (conf.fav_fpr - conf.dep_fpr)) / 2.0


def balanced_accuracy(labels, preds) -> float:
    """Mean of TPR and TNR over the whole sample."""
    labels, preds = _as_bool(labels), _as_bool(preds)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("balanced accuracy needs both classes in the labels")
    tpr = float(preds[labels].mean())
    tnr = float((~preds[~labels]).mean())
    return (tpr + tnr) / 2.0


def accuracy(labels, preds) -> float:
    labels, preds = _as_bool(labels), _as_bool(preds)
    if labels.size == 0:
        raise UndefinedMetricError("accuracy undefined on an empty sample")
    return float((labels == preds).mean())


@dataclass(frozen=True)
class FairnessReport:
    """One prediction vector's scores; arrays of one entry per column for a
    report over (rows, m) matrices."""

    dp: float | np.ndarray
    aod: float | np.ndarray
    ba: float | np.ndarray
    acc: float | np.ndarray
    confusion: GroupConfusion
    sign_note: str = SIGN_CONVENTION

    def to_text(self) -> str:
        c = self.confusion
        return "\n".join(
            [
                f"demographic parity (DP): {self.dp:+.4f}",
                f"average odds difference (AOD): {self.aod:+.4f}",
                f"balanced accuracy (BA): {self.ba:.4f}",
                f"accuracy (Acc): {self.acc:.4f}",
                f"sign convention: {self.sign_note}",
                f"favored confusion TP/FP/TN/FN: {c.fav_tp}/{c.fav_fp}/{c.fav_tn}/{c.fav_fn}",
                f"deprived confusion TP/FP/TN/FN: {c.dep_tp}/{c.dep_fp}/{c.dep_tn}/{c.dep_fn}",
            ]
        )

    @staticmethod
    def csv_header() -> list[str]:
        return [
            "dp", "aod", "ba", "acc", "sign_convention",
            "fav_tp", "fav_fp", "fav_tn", "fav_fn",
            "dep_tp", "dep_fp", "dep_tn", "dep_fn",
        ]

    def csv_row(self) -> list[str]:
        c = self.confusion
        return [
            repr(self.dp), repr(self.aod), repr(self.ba), repr(self.acc), self.sign_note,
            str(c.fav_tp), str(c.fav_fp), str(c.fav_tn), str(c.fav_fn),
            str(c.dep_tp), str(c.dep_fp), str(c.dep_tn), str(c.dep_fn),
        ]


def fairness_report(labels, preds, groups) -> FairnessReport:
    """DP, AOD, BA and accuracy of one prediction vector against its labels.

    For (rows, m) label and prediction matrices every field holds one entry
    per column, each computed with the float operations of its one-column
    report; if a column is undefined, the error its one-column report raises
    is raised for the first such column.
    """
    conf = confusion(labels, preds, groups)
    fav_tp, fav_fp, fav_tn, fav_fn, dep_tp, dep_fp, dep_tn, dep_fn = (
        np.atleast_1d(np.asarray(c, dtype=np.int64)) for c in astuple(conf)
    )
    n_fav, n_dep = fav_tp + fav_fp + fav_tn + fav_fn, dep_tp + dep_fp + dep_tn + dep_fn
    n_pos, n_neg = fav_tp + fav_fn + dep_tp + dep_fn, fav_fp + fav_tn + dep_fp + dep_tn
    # each column's checks, in the order its one-column report makes them (an
    # empty sample, undefined for accuracy, already fails the first)
    undefined = [
        ((n_fav == 0) | (n_dep == 0), "demographic parity needs at least one member per group"),
        (fav_tp + fav_fn == 0, _AOD_UNDEFINED.format("favored TPR")),
        (fav_fp + fav_tn == 0, _AOD_UNDEFINED.format("favored FPR")),
        (dep_tp + dep_fn == 0, _AOD_UNDEFINED.format("deprived TPR")),
        (dep_fp + dep_tn == 0, _AOD_UNDEFINED.format("deprived FPR")),
        ((n_pos == 0) | (n_neg == 0), "balanced accuracy needs both classes in the labels"),
    ]
    failed = np.stack([bad for bad, _ in undefined])
    if failed.any():
        column = np.flatnonzero(failed.any(axis=0))[0]
        raise UndefinedMetricError(undefined[np.flatnonzero(failed[:, column])[0]][1])
    dp = (fav_tp + fav_fp) / n_fav - (dep_tp + dep_fp) / n_dep
    aod = ((fav_tp / (fav_tp + fav_fn) - dep_tp / (dep_tp + dep_fn))
           + (fav_fp / (fav_fp + fav_tn) - dep_fp / (dep_fp + dep_tn))) / 2.0
    ba = ((fav_tp + dep_tp) / n_pos + (fav_tn + dep_tn) / n_neg) / 2.0
    acc = (fav_tp + fav_tn + dep_tp + dep_tn) / (n_fav + n_dep)
    if np.ndim(labels) == 1:
        dp, aod, ba, acc = float(dp[0]), float(aod[0]), float(ba[0]), float(acc[0])
    return FairnessReport(dp=dp, aod=aod, ba=ba, acc=acc, confusion=conf)


@dataclass(frozen=True)
class RocSeries:
    """Staircase of (threshold, TPR, FPR) for one group; predict positive at score >= t."""

    group: str
    thresholds: tuple[float, ...]
    tpr: tuple[float, ...]
    fpr: tuple[float, ...]
    single_class: bool = False


def _roc_one(scores: np.ndarray, labels: np.ndarray, name: str) -> RocSeries:
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    single = n_pos == 0 or n_neg == 0
    thresholds = [float("inf")] + sorted(set(float(s) for s in scores), reverse=True) + [float("-inf")]
    tpr, fpr = [], []
    for t in thresholds:
        pred = scores >= t
        tpr.append(float(pred[labels].sum() / n_pos) if n_pos else float("nan"))
        fpr.append(float(pred[~labels].sum() / n_neg) if n_neg else float("nan"))
    return RocSeries(name, tuple(thresholds), tuple(tpr), tuple(fpr), single)


def roc_points(scores, labels, groups) -> tuple[RocSeries, RocSeries]:
    """Per-group ROC staircases with thresholds at distinct scores plus +-inf."""
    scores = np.asarray(scores, dtype=float)
    labels, groups = _as_bool(labels), _as_bool(groups)
    return (
        _roc_one(scores[groups], labels[groups], "favored"),
        _roc_one(scores[~groups], labels[~groups], "deprived"),
    )


def roc_csv_rows(series: tuple[RocSeries, RocSeries]) -> list[list[str]]:
    rows = [["group", "threshold", "tpr", "fpr"]]
    for s in series:
        for t, tp, fp in zip(s.thresholds, s.tpr, s.fpr):
            rows.append([s.group, repr(t), repr(tp), repr(fp)])
    return rows
