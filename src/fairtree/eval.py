"""Desk-scale experiment harness: reference classifier, splits, threshold sweeps.

The built-in classifier is logistic regression over one-hot encoded columns,
fitted by full-batch gradient descent with fixed defaults, so runs have no
external ML dependencies and are reproducible bit-for-bit from the recorded
configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import relabel as rl
from .data import DataTable, group_counts, write_rows
from .errors import ConfigError, DataError
from .metrics import fairness_report
from .tree import build

SWEEP_FORMAT = "fairtree-sweep/1"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or not 0 < self.learning_rate < math.inf:
            raise ConfigError("epochs must be >= 1 and learning_rate positive and finite")
        rl.check_seed(self.seed)


@dataclass
class LinearModel:
    """Logistic model over one-hot features; predicts positive at probability >= 0.5.

    Fitted on one label vector, ``weights`` has one entry per feature and
    ``bias`` is a scalar. Fitted on a matrix of m label vectors, ``weights`` is
    (features, m), ``bias`` has m entries, and scores and predictions have one
    column per label vector.
    """

    weights: np.ndarray
    bias: float | np.ndarray
    feature_names: tuple[str, ...]
    schema_fingerprint: str
    config: TrainConfig

    def scores(self, table: DataTable) -> np.ndarray:
        if table.schema.fingerprint != self.schema_fingerprint:
            raise DataError("table schema does not match the model's schema")
        X = one_hot(table)[0]
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, table: DataTable) -> np.ndarray:
        return self.scores(table) >= 0.5


def one_hot(table: DataTable) -> tuple[np.ndarray, tuple[str, ...]]:
    """Indicator matrix over every non-label column's outcomes, schema order."""
    specs = [s for s in table.schema.attributes if s.name != table.schema.label.column]
    widths = [len(s.outcomes) for s in specs]
    X = np.zeros((table.n_rows, sum(widths)))
    # each column's indicators start past those of the columns before it
    first = np.cumsum([0] + widths[:-1])
    X[np.arange(table.n_rows)[:, None], table.code_matrix([s.name for s in specs]) + first] = 1.0
    return X, tuple(f"{s.name}={o}" for s in specs for o in s.outcomes)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """Overflow-free logistic: exp is only ever taken of -|z|.

    ``minimum(z, -z)`` is -|z| that keeps a NaN's sign and payload, so every
    element goes through the same IEEE operations as 1/(1+exp(-z)) for z >= 0
    and exp(z)/(1+exp(z)) otherwise. The result is written to ``out`` if given.
    ``scratch``, a boolean and a float array of ``z``'s shape, holds the
    intermediates when given, so that a caller's loop allocates nothing.
    """
    if scratch is None:
        scratch = np.empty(np.shape(z), dtype=bool), np.empty(np.shape(z))
    pos, d = scratch
    np.greater_equal(z, 0, out=pos)
    ez = np.negative(z, out=out)
    np.minimum(z, ez, out=ez)
    np.exp(ez, out=ez)
    np.add(1.0, ez, out=d)
    # the numerator, 1 where z >= 0 and exp(-|z|) elsewhere: exp(-|z|) <= 1, and
    # maximum returns a NaN as it is; unlike a masked copy, it does not branch
    np.maximum(ez, pos, out=ez)
    return np.divide(ez, d, out=ez)


def train_linear(
    table: DataTable, config: TrainConfig | None = None, labels: np.ndarray | None = None
) -> LinearModel:
    """Fit by full-batch gradient descent; loss is non-increasing at the default rate.

    ``labels`` is a boolean mask of positive rows (default: the table's own
    labels) or a (rows, m) boolean matrix whose m columns are fitted at once,
    each from the same seeded start. The descent is shape-agnostic, so every
    column follows its own one-vector fit up to the rounding of the matrix
    products. A descent that ends on a weight or bias that is not finite has
    diverged, and is refused with a ``DataError`` naming the learning rate.
    """
    config = config or TrainConfig()
    X, names, y = _fit_inputs(table, labels)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging descent is refused below
        w, b = _descend(X, y, config)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise DataError(
            f"the descent diverged at learning rate {config.learning_rate!r}: "
            "its weights or bias are not finite; use a smaller learning rate"
        )
    return LinearModel(w, b, names, table.schema.fingerprint, config)


def training_losses(
    table: DataTable, config: TrainConfig | None = None, labels: np.ndarray | None = None
) -> np.ndarray:
    """Mean cross-entropy before each epoch's update of ``train_linear``'s descent.

    The fit itself never computes it; this replays the same descent and
    returns one value per epoch, or an (epochs, m) array for a label matrix.
    """
    config = config or TrainConfig()
    X, _, y = _fit_inputs(table, labels)
    losses = []

    def record(p: np.ndarray) -> None:
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)
        losses.append(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc), axis=0))

    _descend(X, y, config, record)
    return np.array(losses)


def _fit_inputs(table: DataTable, labels) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """One-hot features, their names, and the checked labels as floats."""
    if table.n_rows < 2:
        raise DataError("training needs at least two rows")
    labels = table.positive_mask if labels is None else np.asarray(labels)
    if labels.dtype != bool or labels.ndim not in (1, 2) or labels.shape[0] != table.n_rows:
        raise ConfigError(
            f"labels must be a boolean vector or matrix with {table.n_rows} rows, "
            f"got {labels.dtype} of shape {labels.shape}"
        )
    y = labels.astype(float)
    single = np.flatnonzero(np.atleast_1d(y.min(axis=0) == y.max(axis=0)))
    if single.size:
        where = f" (label column {single[0]})" if y.ndim == 2 else ""
        raise DataError(f"training data has a single class{where}")
    X, names = one_hot(table)
    return X, names, y


def _descend(X: np.ndarray, y: np.ndarray, config: TrainConfig, per_epoch=None):
    """Gradient descent on the mean cross-entropy from seeded start weights.

    ``y`` is one label vector or a (rows, m) matrix; every column starts from
    the same weights, and the products and means below serve both shapes.
    ``per_epoch`` sees each epoch's probabilities before its update, in a
    buffer that the next epoch overwrites. Every epoch runs in the buffers
    allocated here, with the operations of ``p = sigmoid(X @ w + b)``,
    ``w -= rate * (X.T @ (p - y)) / n`` and ``b -= rate * (p - y).mean(axis=0)``.
    """
    n = X.shape[0]
    rate = config.learning_rate
    w0 = np.random.default_rng(config.seed).normal(0.0, 0.01, X.shape[1])
    w = np.empty(w0.shape + y.shape[1:])
    w.T[...] = w0  # every column starts from w0
    b = np.zeros(y.shape[1:])
    z, p, step, db = np.empty(y.shape), np.empty(y.shape), np.empty(w.shape), np.empty(b.shape)
    scratch = np.empty(y.shape, dtype=bool), np.empty(y.shape)
    for _ in range(config.epochs):
        np.matmul(X, w, out=z)
        z += b
        _sigmoid(z, out=p, scratch=scratch)
        if per_epoch is not None:
            per_epoch(p)
        grad = np.subtract(p, y, out=z)
        np.matmul(X.T, grad, out=step)
        step *= rate
        step /= n
        w -= step
        np.mean(grad, axis=0, out=db)
        db *= rate
        b -= db
    return w, b[()]  # a scalar bias for one label vector


# -- deterministic partitions --------------------------------------------------


def kfold(table: DataTable, k: int, seed: int) -> list[tuple[DataTable, DataTable]]:
    """Seed-deterministic k disjoint, exhaustive (train, test) fold pairs."""
    if k < 2:
        raise ConfigError("k must be at least 2")
    if k > table.n_rows:
        raise ConfigError(f"k={k} exceeds the number of rows ({table.n_rows})")
    rl.check_seed(seed)
    perm = np.random.default_rng(seed).permutation(table.n_rows)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((table.subset(train), table.subset(test)))
    return out


# -- sigma sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    sigma: float | None  # None marks the no-preprocessing baseline
    variant: str  # "baseline" | "raw" | "relabeled"
    dp_mean: float
    dp_std: float
    aod_mean: float
    aod_std: float
    ba_mean: float
    ba_std: float
    acc_mean: float
    acc_std: float
    folds: int


@dataclass
class SweepResult:
    rows: list[SweepRow]
    manifest: dict

    def baseline(self) -> SweepRow:
        return next(r for r in self.rows if r.variant == "baseline")

    def variant_rows(self, variant: str) -> list[SweepRow]:
        return [r for r in self.rows if r.variant == variant]

    def to_csv(self, path) -> None:
        names = [f.name for f in fields(SweepRow)]
        write_rows(path, [names] + [[_cell(getattr(r, name)) for name in names] for r in self.rows])

    def manifest_json(self) -> str:
        return json.dumps(self.manifest, indent=1, sort_keys=True) + "\n"


def _cell(value) -> str:
    """A sweep.csv cell: empty for None, ``repr`` for a float (round-trips exactly)."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _fold_seed(seed: int, fold: int, tag: int) -> int:
    return (seed * 1_000_003 + fold * 1_009 + tag) % 2**31


def sweep(
    table: DataTable,
    criterion: str,
    sigma_grid: list[float],
    seed: int,
    train_config: TrainConfig | None = None,
    folds: int = 10,
) -> SweepResult:
    """Cross-validated relabeling sweep over the discrimination threshold.

    Per fold: grow one tree on the training portion and take one census of
    each portion through it (neither depends on sigma), then relabel both
    portions at every sigma. One fit covers the unrelabeled training labels
    and every distinct relabeling of them; each sigma's classifier is
    evaluated on the untouched test fold ("raw") and on the test fold
    relabeled through the same tree ("relabeled"). The baseline row is the
    classifier with no preprocessing at all.
    """
    train_config = train_config or TrainConfig()
    if any(not 0.0 <= s <= 2.0 for s in sigma_grid):
        raise ConfigError("sigma grid values must lie in [0, 2]")
    seen: set[float] = set()
    for sigma in sigma_grid:
        if sigma in seen:
            raise ConfigError(f"sigma grid repeats the value {sigma!r}")
        seen.add(sigma)

    reports = []  # one per fold, over the columns baseline, then raw and relabeled per sigma
    fold_pairs = kfold(table, folds, seed)
    for f, (train, test) in enumerate(fold_pairs):
        tree = build(train, criterion)
        train_census, test_census = rl.census(tree, train), rl.census(tree, test)
        train_labels, test_labels = [], []
        for i, sigma in enumerate(sigma_grid):
            p_train = rl.plan(train_census, sigma, _fold_seed(seed, f, 100 + i))
            train_labels.append(rl.relabeled_mask(p_train, train))
            p_test = rl.plan(test_census, sigma, _fold_seed(seed, f, 500 + i))
            test_labels.append(rl.relabeled_mask(p_test, test))

        # Features and cfg are fixed within a fold and the fit is deterministic,
        # so one column per distinct set of training labels (the baseline's
        # first) gives every prediction, all fitted in one descent.
        column_of: dict[bytes, int] = {}
        for labels in [train.positive_mask] + train_labels:
            column_of.setdefault(labels.tobytes(), len(column_of))
        Y = np.stack([np.frombuffer(key, dtype=bool) for key in column_of], axis=1)
        cfg = replace(train_config, seed=_fold_seed(train_config.seed, f, 0))
        preds = train_linear(train, cfg, Y).predict(test)

        fits, truths = [0], [test.positive_mask]
        for train_y, test_y in zip(train_labels, test_labels):
            fits += [column_of[train_y.tobytes()]] * 2
            truths += [test.positive_mask, test_y]
        reports.append(fairness_report(np.stack(truths, axis=1), preds[:, fits], test.favored_mask))

    rows = [_aggregate("baseline", None, reports, 0)]
    for i, sigma in enumerate(sigma_grid):
        rows.append(_aggregate("raw", sigma, reports, 1 + 2 * i))
        rows.append(_aggregate("relabeled", sigma, reports, 2 + 2 * i))

    manifest = {
        "format": SWEEP_FORMAT,
        "criterion": criterion,
        "sigma_grid": list(sigma_grid),
        "folds": folds,
        "seed": seed,
        "train_config": asdict(train_config),
        "row_picker": rl.ROW_PICKER,
        "numpy_version": np.__version__,
        "table_fingerprint": table.fingerprint,
        "n_rows": table.n_rows,
        "group_counts": list(group_counts(table).as_tuple()),
    }
    return SweepResult(rows, manifest)


def _aggregate(variant: str, sigma: float | None, reports: list, column: int) -> SweepRow:
    def agg(key: str) -> tuple[float, float]:
        vals = np.array([getattr(rep, key)[column] for rep in reports])
        return float(vals.mean()), float(vals.std())

    dp, aod, ba, acc = agg("dp"), agg("aod"), agg("ba"), agg("acc")
    return SweepRow(
        sigma, variant, dp[0], dp[1], aod[0], aod[1], ba[0], ba[1], acc[0], acc[1], len(reports)
    )
