"""Independent brute-force reference implementations used to check split scoring.

Everything here is written from the contract, not from the package code: plain
dict/list arithmetic with math.log2, no numpy, no shared helpers. Conventions
mirrored from the contract: base-2 logs, add-one smoothing in KL mode (classes
and outcome distributions), raw frequencies in Euclid mode, empty groups as
uniform distributions, the 1e-9 normalizer guard, and eligibility at or above
the mean raw gain.

The exceptions are frozen copies of earlier package code, kept as bitwise
references: ``logistic_descent``, the reference classifier's one-vector
gradient descent loop with its per-epoch loss (for ``train_linear`` and
``training_losses`` on one label vector); ``encode_by_unique``, the column
encoder over ``np.unique`` (for ``data._encode``); ``write_csv_by_row``, the
row-at-a-time CSV writer (for ``data.write_csv``); ``table_by_cell``, the
per-cell type inference loop (for ``data.table_from_columns``); and
``serialize_by_dict``, the tree writer over one dict per node and the indenting
``json`` encoder (for ``tree.serialize``; ``tree_from_root`` reads its text
back, so that tests can hand-build a tree from records); ``load_csv_by_row``, the CSV reader
that kept every row's own cell strings (for ``data.load_csv``);
``route_by_node``, the router with its numpy calls at every node (for
``tree.route``); ``descend_by_epoch``, the descent that allocated its arrays
every epoch (for ``eval._descend``); ``fairness_report_by_column``, the
one-vector metric functions (for ``metrics.fairness_report`` over label and
prediction matrices); ``apply_by_action``, the action-by-action ``apply``
(for ``relabel.relabeled_mask``); ``draws_by_generator``, the plan that drew
every leaf's rows with its generator (for ``relabel.plan``);
``plan_to_json_by_dict``, the plan writer over the indenting ``json`` encoder
(for ``relabel.plan_to_json``); ``fit_cut_points_by_unique``, the cut
points over ``np.unique`` (for ``data.fit_cut_points``); and
``roc_by_threshold``, the ROC staircase that compared every score with every
threshold (for ``metrics.roc_points``).
"""

import csv
import json
import math

import numpy as np

from fairtree.data import (
    DEFAULT_MISSING_TOKENS,
    MISSING,
    AttributeSpec,
    DataTable,
    TableSchema,
    _resolve_binary,
    table_from_columns,
)
from fairtree.errors import ConfigError, DataError
from fairtree.tree import BuildConfig, Leaf, deserialize

NORM_EPS = 1e-9


def class_probs(pos, neg, laplace):
    n = pos + neg
    if laplace:
        return [(pos + 1) / (n + 2), (neg + 1) / (n + 2)]
    if n == 0:
        return [0.5, 0.5]
    return [pos / n, neg / n]


def kl2(p, q):
    return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def euclid2(p, q):
    return sum((pi - qi) ** 2 for pi, qi in zip(p, q))


def entropy(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


def gini_index(ps):
    return 1.0 - sum(p * p for p in ps)


def node_divergence(counts, measure, laplace):
    fp, fn, dp, dn = counts
    f = class_probs(fp, fn, laplace)
    d = class_probs(dp, dn, laplace)
    return kl2(f, d) if measure == "kl" else euclid2(f, d)


def conditional(children, measure, laplace):
    total = sum(sum(c) for c in children)
    if total == 0:
        return 0.0
    return sum(
        (sum(c) / total) * node_divergence(c, measure, laplace) for c in children if sum(c)
    )


def gain(parent, children, measure, laplace=None):
    if laplace is None:
        laplace = measure == "kl"
    return conditional(children, measure, laplace) - node_divergence(parent, measure, laplace)


def outcome_probs(counts, laplace):
    n = sum(counts)
    k = len(counts)
    if laplace:
        return [(c + 1) / (n + k) for c in counts]
    if n == 0:
        return [1.0 / k] * k
    return [c / n for c in counts]


def normalizer(parent, children, measure):
    fp, fn, dp, dn = parent
    nf, nd, n = fp + fn, dp + dn, fp + fn + dp + dn
    wf, wd = nf / n, nd / n
    fav_out = [c[0] + c[1] for c in children]
    dep_out = [c[2] + c[3] for c in children]
    if measure == "kl":
        f = outcome_probs(fav_out, True)
        d = outcome_probs(dep_out, True)
        h = entropy([wf, wd])
        value = h * kl2(f, d) if h > 0 else 0.0
        if wf > 0:
            value += wf * entropy(f)
        if wd > 0:
            value += wd * entropy(d)
        return value
    f = outcome_probs(fav_out, False)
    d = outcome_probs(dep_out, False)
    g = gini_index([wf, wd])
    value = g * euclid2(f, d) if g > 0 else 0.0
    if wf > 0:
        value += wf * gini_index(f)
    if wd > 0:
        value += wd * gini_index(d)
    return value


def entropy_gain(parent_pair, child_pairs):
    """Classical entropy gain over one group's (pos, neg) counts."""
    n = sum(parent_pair)

    def h(pair):
        m = sum(pair)
        return entropy([pair[0] / m, pair[1] / m]) if m else 0.0

    return h(parent_pair) - sum(sum(c) / n * h(c) for c in child_pairs if sum(c))


def gini_gain(parent_pair, child_pairs):
    n = sum(parent_pair)

    def g(pair):
        m = sum(pair)
        return gini_index([pair[0] / m, pair[1] / m]) if m else 0.0

    return g(parent_pair) - sum(sum(c) / n * g(c) for c in child_pairs if sum(c))


def split_metrics(rows, attr_index, n_attrs, criterion):
    """Raw gain, normalizer, and ratio for one candidate on raw row tuples.

    ``rows`` are tuples (a_0, ..., a_{k-1}, favored, positive) with hashable
    attribute values and boolean group/class flags.
    """
    parent = [0, 0, 0, 0]
    by_outcome = {}
    for row in rows:
        fav, pos = row[n_attrs], row[n_attrs + 1]
        slot = (0 if pos else 1) if fav else (2 if pos else 3)
        parent[slot] += 1
        child = by_outcome.setdefault(row[attr_index], [0, 0, 0, 0])
        child[slot] += 1
    children = [by_outcome[o] for o in sorted(by_outcome)]
    fav_empty = parent[0] + parent[1] == 0
    dep_empty = parent[2] + parent[3] == 0
    if fav_empty or dep_empty:
        pick = (lambda c: (c[2], c[3])) if fav_empty else (lambda c: (c[0], c[1]))
        fn = entropy_gain if criterion == "kl" else gini_gain
        raw = fn(pick(parent), [pick(c) for c in children])
    else:
        raw = gain(tuple(parent), children, criterion)
    norm = normalizer(parent, children, criterion)
    ratio = raw / norm if norm >= NORM_EPS else float("-inf")
    return {"raw_gain": raw, "normalizer": norm, "ratio": ratio}


def best_attribute(rows, n_attrs, criterion):
    """Brute-force argmax of the gain ratio with mean-gain eligibility and tie rules."""
    metrics = [split_metrics(rows, j, n_attrs, criterion) for j in range(n_attrs)]
    mean_gain = sum(m["raw_gain"] for m in metrics) / n_attrs
    best = float("-inf")
    for m in metrics:
        if m["raw_gain"] >= mean_gain:
            best = max(best, m["ratio"])
    if best <= 0.0:
        return None, metrics
    for j, m in enumerate(metrics):
        if m["raw_gain"] >= mean_gain and m["ratio"] > 0.0 and m["ratio"] >= best - 1e-12:
            return j, metrics
    return None, metrics


# -- reference classifier --------------------------------------------------------


def logistic_descent(X, y, epochs, learning_rate, seed):
    """The one-vector logistic regression loop, verbatim: (weights, bias, losses)."""

    def sigmoid(z):  # the masked form, bitwise equal to the package's sigmoid
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    n = X.shape[0]
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, X.shape[1])
    b = 0.0
    losses = []
    for _ in range(epochs):
        p = sigmoid(X @ w + b)
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)
        losses.append(float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
        grad = p - y
        w -= learning_rate * (X.T @ grad) / n
        b -= learning_rate * float(grad.mean())
    return w, b, losses


# -- tables ----------------------------------------------------------------------


def encode_by_unique(spec, missing_tokens, values):
    """The column encoder over ``np.unique``, verbatim: codes into ``spec.outcomes``."""
    lut = {o: i for i, o in enumerate(spec.outcomes)}
    if MISSING in lut:
        for tok in missing_tokens:
            lut.setdefault(tok, lut[MISSING])
    uniq, inverse = np.unique(values, return_inverse=True)
    try:
        uniq_codes = np.array([lut[u] for u in uniq], dtype=np.int64)
    except KeyError as exc:
        raise DataError(
            f"value {exc.args[0]!r} in column {spec.name!r} is not among its declared outcomes"
        ) from exc
    return uniq_codes[inverse]


def write_csv_by_row(table, path):
    """The row-at-a-time CSV writer, verbatim."""
    names = table.schema.column_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(names)
        cols = [table.column(name) for name in names]
        for i in range(table.n_rows):
            writer.writerow([col[i] for col in cols])


def load_csv_by_row(
    path,
    label,
    sensitive,
    *,
    numeric_columns=(),
    categorical_columns=(),
    missing_tokens=DEFAULT_MISSING_TOKENS,
):
    """``load_csv`` reading one row at a time, each cell its own string, verbatim."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header and header[0][:1] == "\ufeff":
                raise DataError(
                    f"{path}: the file begins with a UTF-8 byte-order mark, which would be read as part "
                    f"of column name {header[0][1:]!r}; save it as UTF-8 without a byte-order mark"
                )
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            raw_rows = []
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
                raw_rows.append(row)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    columns = {
        name: np.array([row[j] for row in raw_rows], dtype=object) for j, name in enumerate(header)
    }
    return table_from_columns(
        columns,
        label,
        sensitive,
        numeric_columns=numeric_columns,
        categorical_columns=categorical_columns,
        missing_tokens=missing_tokens,
        source=str(path),
    )


def table_by_cell(
    columns,
    label,
    sensitive,
    *,
    numeric_columns=(),
    categorical_columns=(),
    missing_tokens=DEFAULT_MISSING_TOKENS,
    source="<memory>",
):
    """``table_from_columns`` with its per-cell type inference loop, verbatim."""
    header = list(columns)
    for col, role in ((label.column, "label"), (sensitive.column, "sensitive")):
        if col not in header:
            raise ConfigError(f"{role} column {col!r} not found in {source}")

    n = len(next(iter(columns.values()))) if columns else 0
    columns = {name: np.asarray(col, dtype=object) for name, col in columns.items()}

    missing = set(missing_tokens)
    label = _resolve_binary(label, "positive", "negative", columns[label.column], missing, "label")
    sensitive = _resolve_binary(
        sensitive, "favored", "deprived", columns[sensitive.column], missing, "sensitive"
    )

    specs = []
    for name in header:
        values = columns[name]
        if name == label.column:
            specs.append(AttributeSpec(name, "categorical", (label.positive, label.negative)))
            continue
        if name == sensitive.column:
            specs.append(AttributeSpec(name, "categorical", (sensitive.favored, sensitive.deprived)))
            continue
        non_missing = [v for v in values if v not in missing]
        declared_numeric = name in numeric_columns
        if declared_numeric:
            for i, v in enumerate(values):
                if v not in missing:
                    try:
                        float(v)
                    except ValueError:
                        raise DataError(
                            f"{source}: row {i + 1}: cannot parse {v!r} in declared numeric column {name!r}"
                        ) from None
        is_numeric = declared_numeric or (
            name not in categorical_columns and bool(non_missing) and _all_float(non_missing)
        )
        if is_numeric:
            specs.append(AttributeSpec(name, "numeric"))
        else:
            outcomes = sorted(set(non_missing))
            if len(non_missing) < len(values):
                outcomes.append(MISSING)
            if not outcomes:
                outcomes = [MISSING] if n else []
            specs.append(AttributeSpec(name, "categorical", tuple(outcomes)))

    schema = TableSchema(tuple(specs), label, sensitive, tuple(missing_tokens))
    return DataTable(schema, columns)


def _all_float(values) -> bool:
    try:
        for v in values:
            float(v)
    except ValueError:
        return False
    return True


# -- trees -----------------------------------------------------------------------


def _node_to_json(node):
    """One node as a dict, verbatim."""
    if hasattr(node, "counts"):
        return {
            "kind": "leaf",
            "id": node.id,
            "counts": list(node.counts.as_tuple()),
            "disc": node.disc,
            "majority": "positive" if node.majority_positive else "negative",
            "depth": node.depth,
        }
    return {
        "kind": "internal",
        "attribute": node.attribute,
        "fallback": node.fallback_outcome,
        "children": {o: _node_to_json(c) for o, c in node.children.items()},
    }


def _document_by_dict(root, criterion, config, schema):
    doc = {
        "format": "fairtree/1",
        "criterion": criterion,
        "config": {"min_rows": config.min_rows, "attribute_reuse": "consume"},
        "schema_fingerprint": schema.fingerprint,
        "schema": schema.to_json(),
        "root": _node_to_json(root),
    }
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def serialize_by_dict(tree):
    """The tree writer over one dict per node, verbatim."""
    return _document_by_dict(tree.root, tree.criterion, tree.config, tree.schema)


def tree_from_root(root, schema, criterion="kl", config=BuildConfig()):
    """The tree of hand-built ``Leaf``/``Internal`` records: their document,
    read back. The records must form a valid tree over ``schema``."""
    return deserialize(_document_by_dict(root, criterion, config, schema))


def route_by_node(tree, table):
    """``route`` over one stack entry per node, verbatim (the schema check aside)."""
    out = np.empty(table.n_rows, dtype=np.int64)
    stack = [(tree.root, np.arange(table.n_rows))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = node.id
            continue
        outcomes = tree.schema.spec(node.attribute).outcomes
        codes = table.codes(node.attribute)[rows]
        routed = np.zeros(rows.size, dtype=bool)
        for code, outcome in enumerate(outcomes):
            child = node.children.get(outcome)
            if child is None:
                continue
            mask = codes == code
            if mask.any():
                stack.append((child, rows[mask]))
                routed |= mask
        if not routed.all():
            stack.append((node.children[node.fallback_outcome], rows[~routed]))
    return out


# -- sweep folds -----------------------------------------------------------------


def sigmoid_by_where(z):
    """The allocating logistic, verbatim."""
    ez = np.exp(np.minimum(z, -z))
    d = 1.0 + ez
    return np.where(z >= 0, 1.0 / d, ez / d)


def descend_by_epoch(X, y, epochs, learning_rate, seed, per_epoch=None):
    """The descent with fresh arrays every epoch, verbatim: (weights, bias)."""
    n = X.shape[0]
    w0 = np.random.default_rng(seed).normal(0.0, 0.01, X.shape[1])
    w = np.empty(w0.shape + y.shape[1:])
    w.T[...] = w0
    b = np.zeros(y.shape[1:])
    for _ in range(epochs):
        p = sigmoid_by_where(X @ w + b)
        if per_epoch is not None:
            per_epoch(p)
        grad = p - y
        w -= learning_rate * (X.T @ grad) / n
        b -= learning_rate * grad.mean(axis=0)
    return w, b[()]


def fairness_report_by_column(labels, preds, groups):
    """One report per column from the one-vector metric functions, verbatim:
    a list of (dp, aod, ba, acc, eight confusion counts) tuples."""
    from fairtree.errors import UndefinedMetricError

    groups = np.asarray(groups, dtype=bool)
    out = []
    for labels_j, preds_j in zip(np.asarray(labels, dtype=bool).T, np.asarray(preds, dtype=bool).T):
        counts = []
        for g in (groups, ~groups):
            counts += [
                int(np.sum(g & labels_j & preds_j)),
                int(np.sum(g & ~labels_j & preds_j)),
                int(np.sum(g & ~labels_j & ~preds_j)),
                int(np.sum(g & labels_j & ~preds_j)),
            ]
        fav_tp, fav_fp, fav_tn, fav_fn, dep_tp, dep_fp, dep_tn, dep_fn = counts
        if int(groups.sum()) == 0 or int((~groups).sum()) == 0:
            raise UndefinedMetricError("demographic parity needs at least one member per group")
        dp = float(preds_j[groups].mean() - preds_j[~groups].mean())
        rates = {
            "favored TPR": fav_tp / (fav_tp + fav_fn) if fav_tp + fav_fn > 0 else None,
            "favored FPR": fav_fp / (fav_fp + fav_tn) if fav_fp + fav_tn > 0 else None,
            "deprived TPR": dep_tp / (dep_tp + dep_fn) if dep_tp + dep_fn > 0 else None,
            "deprived FPR": dep_fp / (dep_fp + dep_tn) if dep_fp + dep_tn > 0 else None,
        }
        for name, value in rates.items():
            if value is None:
                raise UndefinedMetricError(f"average odds difference undefined: {name} has no support")
        aod = ((rates["favored TPR"] - rates["deprived TPR"])
               + (rates["favored FPR"] - rates["deprived FPR"])) / 2.0
        if int(labels_j.sum()) == 0 or int((~labels_j).sum()) == 0:
            raise UndefinedMetricError("balanced accuracy needs both classes in the labels")
        ba = (float(preds_j[labels_j].mean()) + float((~preds_j[~labels_j]).mean())) / 2.0
        if labels_j.size == 0:
            raise UndefinedMetricError("accuracy undefined on an empty sample")
        acc = float((labels_j == preds_j).mean())
        out.append((dp, aod, ba, acc, *counts))
    return out


def apply_by_action(plan_, table):
    """``apply``'s checks and flips, one action at a time, verbatim: the new
    positive mask."""
    if plan_.table_fingerprint != table.fingerprint:
        raise DataError(
            "refusing to apply: the plan was built against a different table "
            f"(plan {plan_.table_fingerprint}, table {table.fingerprint})"
        )
    listed = np.array([r for act in plan_.actions for r in act.row_ids], dtype=np.int64)
    bad = listed[(listed < 0) | (listed >= table.n_rows)]
    if bad.size:
        raise DataError(f"plan row {int(bad[0])} is outside the table's {table.n_rows} rows")
    uniq, seen = np.unique(listed, return_counts=True)
    if (seen > 1).any():
        raise DataError(f"plan lists row {int(uniq[seen > 1][0])} more than once")
    positive = table.positive_mask.copy()
    favored = table.favored_mask
    for act in plan_.actions:
        rows = np.array(act.row_ids, dtype=np.int64)
        if act.action == "promote":
            wrong = rows[favored[rows] | positive[rows]]
            if wrong.size:
                raise DataError(f"row {int(wrong[0])}: promote target is not a deprived negative")
            positive[rows] = True
        elif act.action == "demote":
            wrong = rows[~favored[rows] | ~positive[rows]]
            if wrong.size:
                raise DataError(f"row {int(wrong[0])}: demote target is not a favored positive")
            positive[rows] = False
        else:
            raise DataError(f"unknown action {act.action!r}")
    return positive


def draws_by_generator(census_, sigma, seed):
    """Every planned leaf's rows drawn by its seeded generator, verbatim:
    (leaf id, action, count, rows) per action."""
    actions = []
    for leaf in census_.leaves:
        if leaf.disc < sigma:
            continue
        rng = np.random.default_rng([seed, leaf.leaf_id])
        selected = np.sort(rng.choice(leaf.candidates, size=leaf.count, replace=False))
        actions.append((leaf.leaf_id, leaf.action, leaf.count, tuple(int(r) for r in selected)))
    return actions


def plan_to_json_by_dict(plan_):
    """The plan writer over one dict and the indenting ``json`` encoder, verbatim."""
    doc = {
        "format": "fairtree-plan/1",
        "sigma": plan_.sigma,
        "seed": plan_.seed,
        "row_picker": plan_.row_picker,
        "table_fingerprint": plan_.table_fingerprint,
        "tree_digest": plan_.tree_digest,
        "actions": [
            {"leaf": a.leaf_id, "action": a.action, "count": a.count, "rows": list(a.row_ids)}
            for a in plan_.actions
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def fit_cut_points_by_unique(table, rule):
    """Cut points with the distinct values counted by ``np.unique``, verbatim."""
    import warnings

    values = table.floats(rule.column)
    values = np.sort(values[~np.isnan(values)])
    if values.size == 0:
        raise DataError(f"column {rule.column!r} has no numeric values to discretize")
    distinct = np.unique(values)
    if distinct.size == 1:
        warnings.warn(f"column {rule.column!r} is constant; emitting a single bin")
        return ()
    k = rule.bin_count
    if k > distinct.size:
        warnings.warn(
            f"column {rule.column!r} has only {distinct.size} distinct values; "
            f"reducing bin count from {k}"
        )
        k = distinct.size
    cuts = []
    if rule.strategy == "equal-frequency":
        n = values.size
        bounds = np.nonzero(values[1:] > values[:-1])[0] + 1
        for i in range(1, k):
            r = i * n / k
            j = int(bounds[np.argmin(np.abs(bounds - r))])
            cuts.append(float(values[j - 1] + values[j]) / 2.0)
    else:
        lo, hi = float(values[0]), float(values[-1])
        width = (hi - lo) / k
        cuts = [lo + width * i for i in range(1, k)]
    cuts = sorted(set(cuts))
    if len(cuts) + 1 < k:
        warnings.warn(f"column {rule.column!r}: ties reduced bins to {len(cuts) + 1}")
    return tuple(cuts)


def roc_by_threshold(scores, labels, groups):
    """Per-group staircases, verbatim: a (group, thresholds, tpr, fpr,
    single_class) tuple for the favored, then the deprived group."""
    scores = np.asarray(scores, dtype=float)
    labels, groups = np.asarray(labels, dtype=bool), np.asarray(groups, dtype=bool)
    out = []
    for name, g in (("favored", groups), ("deprived", ~groups)):
        scores_g, labels_g = scores[g], labels[g]
        n_pos, n_neg = int(labels_g.sum()), int((~labels_g).sum())
        thresholds = [float("inf")] + sorted(set(float(s) for s in scores_g), reverse=True) + [float("-inf")]
        tpr, fpr = [], []
        for t in thresholds:
            pred = scores_g >= t
            tpr.append(float(pred[labels_g].sum() / n_pos) if n_pos else float("nan"))
            fpr.append(float(pred[~labels_g].sum() / n_neg) if n_neg else float("nan"))
        out.append((name, tuple(thresholds), tuple(tpr), tuple(fpr), n_pos == 0 or n_neg == 0))
    return out
