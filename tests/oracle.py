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
``json`` encoder (for ``tree.serialize``); ``load_csv_by_row``, the CSV reader
that kept every row's own cell strings (for ``data.load_csv``); and
``route_by_node``, the router with its numpy calls at every node (for
``tree.route``).
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
from fairtree.tree import Leaf

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
    if header and header[0][:1] == "\ufeff" and header[0][1:] in (label.column, sensitive.column):
        raise DataError(
            f"{path}: the file begins with a byte-order mark, read as part of column name {header[0][1:]!r}"
        )

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


def serialize_by_dict(tree):
    """The tree writer over one dict per node, verbatim."""
    doc = {
        "format": "fairtree/1",
        "criterion": tree.criterion,
        "config": {"min_rows": tree.config.min_rows, "attribute_reuse": "consume"},
        "schema_fingerprint": tree.schema.fingerprint,
        "schema": tree.schema.to_json(),
        "root": _node_to_json(tree.root),
    }
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


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
