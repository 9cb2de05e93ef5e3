"""Fairness and performance metrics over (label, prediction, group) triples.

Sign convention: group differences are favored minus deprived, recorded in
every report. Undefined rates raise instead of silently returning 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError

SIGN_CONVENTION = "favored-minus-deprived"

_AOD_UNDEFINED = "average odds difference undefined: {} has no support"


@dataclass(frozen=True)
class GroupConfusion:
    """Per-group confusion counts; arrays of one entry per column for a
    report over (rows, m) matrices."""

    fav_tp: int | np.ndarray
    fav_fp: int | np.ndarray
    fav_tn: int | np.ndarray
    fav_fn: int | np.ndarray
    dep_tp: int | np.ndarray
    dep_fp: int | np.ndarray
    dep_tn: int | np.ndarray
    dep_fn: int | np.ndarray


def _as_bool(x) -> np.ndarray:
    return np.asarray(x, dtype=bool)


def _counts(labels, preds, groups) -> tuple[bool, list[np.ndarray]]:
    """Whether the labels are one vector, and the eight confusion counts with
    one entry per column; a vector is counted as a one-column matrix."""
    labels, preds, groups = _as_bool(labels), _as_bool(preds), _as_bool(groups)
    if labels.shape != preds.shape or labels.ndim not in (1, 2) or groups.shape != labels.shape[:1]:
        raise ValueError(
            f"labels and predictions must share one (rows,) or (rows, m) shape over the groups' rows, "
            f"got {labels.shape}, {preds.shape} and {groups.shape}"
        )
    vector = labels.ndim == 1
    if vector:
        labels, preds = labels[:, None], preds[:, None]
    counts = []
    for g in (groups[:, None], ~groups[:, None]):
        counts += [
            np.sum(g & labels & preds, axis=0),
            np.sum(g & ~labels & preds, axis=0),
            np.sum(g & ~labels & ~preds, axis=0),
            np.sum(g & labels & ~preds, axis=0),
        ]
    return vector, counts


def _per_column(vector: bool, values: list[np.ndarray]) -> list:
    """``values`` of one entry per column, or a vector's Python ints and floats."""
    return [v.item() for v in values] if vector else values


def confusion(labels, preds, groups) -> GroupConfusion:
    """Per-group confusion counts; for (rows, m) label and prediction matrices
    each count is an array with one entry per column."""
    return GroupConfusion(*_per_column(*_counts(labels, preds, groups)))


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
    per column. If a column is undefined, the error of its first undefined
    score is raised for the first such column.
    """
    vector, counts = _counts(labels, preds, groups)
    fav_tp, fav_fp, fav_tn, fav_fn, dep_tp, dep_fp, dep_tn, dep_fn = counts
    n_fav, n_dep = fav_tp + fav_fp + fav_tn + fav_fn, dep_tp + dep_fp + dep_tn + dep_fn
    n_pos, n_neg = fav_tp + fav_fn + dep_tp + dep_fn, fav_fp + fav_tn + dep_fp + dep_tn
    # each column's checks in order; the four AOD rates need every group and
    # class that BA and accuracy need, so those two can never fail first
    undefined = [
        ((n_fav == 0) | (n_dep == 0), "demographic parity needs at least one member per group"),
        (fav_tp + fav_fn == 0, _AOD_UNDEFINED.format("favored TPR")),
        (fav_fp + fav_tn == 0, _AOD_UNDEFINED.format("favored FPR")),
        (dep_tp + dep_fn == 0, _AOD_UNDEFINED.format("deprived TPR")),
        (dep_fp + dep_tn == 0, _AOD_UNDEFINED.format("deprived FPR")),
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
    dp, aod, ba, acc, *counts = _per_column(vector, [dp, aod, ba, acc, *counts])
    return FairnessReport(dp=dp, aod=aod, ba=ba, acc=acc, confusion=GroupConfusion(*counts))


@dataclass(frozen=True)
class RocSeries:
    """Staircase of (threshold, TPR, FPR) for one group; predict positive at score >= t."""

    group: str
    thresholds: tuple[float, ...]
    tpr: tuple[float, ...]
    fpr: tuple[float, ...]
    single_class: bool = False


def _roc_one(scores: np.ndarray, labels: np.ndarray, name: str) -> RocSeries:
    # descending scores with ties in reverse row order: the last row of a distinct
    # score, where its point is counted, is its first occurrence (0.0 or -0.0)
    order = np.argsort(scores, kind="stable")[::-1]
    scores, labels = scores[order], labels[order]
    last = np.flatnonzero(np.append(scores[:-1] != scores[1:], scores.size > 0))
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    tpr, fpr = (
        (0.0, *(np.cumsum(hits)[last] / n).tolist(), 1.0) if n else (float("nan"),) * (last.size + 2)
        for hits, n in ((labels, n_pos), (~labels, n_neg))
    )
    thresholds = (float("inf"), *scores[last].tolist(), float("-inf"))
    return RocSeries(name, thresholds, tpr, fpr, n_pos == 0 or n_neg == 0)


def roc_points(scores, labels, groups) -> tuple[RocSeries, RocSeries]:
    """Per-group ROC staircases with thresholds at distinct scores plus +-inf.

    Every score must be finite: NaN orders with no threshold and an infinite
    score would sit on the staircase's own end points."""
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise DataError("ROC scores must be finite numbers")
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
