"""Greedy multiway tree construction over divergence gain ratios.

Trees grow to full depth: a categorical attribute is consumed along its path,
and recursion stops only when no eligible candidate has a strictly positive
gain ratio, when a node falls below the row floor, or when attributes run
out. Leaves carry exact group counts and their discrimination score.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import divergence as dv
from .data import DataTable, GroupCounts, TableSchema, group_counts
from .errors import ConfigError, DataError
from .divergence import SplitEvaluation

TREE_FORMAT = "fairtree/1"

#: Ratio differences at or below this are ties, broken by declaration order.
TIE_EPS = 1e-12

CRITERIA = dv.MEASURES

#: The only attribute reuse policy: a categorical attribute is consumed along
#: its path. Written into every tree document and required when reading one.
ATTRIBUTE_REUSE = "consume"


@dataclass(frozen=True)
class Leaf:
    id: int
    counts: GroupCounts
    disc: float
    majority_positive: bool
    depth: int


@dataclass(frozen=True)
class Internal:
    attribute: str
    children: dict[str, "TreeNode"]  # keyed by outcome, declaration order
    fallback_outcome: str  # routes outcomes unseen at this node


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class BuildConfig:
    min_rows: int = 1

    def __post_init__(self):
        if self.min_rows < 1:
            raise ConfigError("min_rows must be at least 1")


@dataclass(frozen=True)
class InterpretabilityStats:
    node_count: int
    sparsity: int  # number of leaves
    depth: int  # max root-to-leaf edges


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A leaf rendered as the conjunction of conditions along its path."""

    leaf_id: int
    path: tuple[tuple[str, str], ...]  # (attribute, outcome) pairs, root first
    counts: GroupCounts
    disc: float

    @property
    def size(self) -> int:
        return self.counts.n

    def conditions(self) -> str:
        return " AND ".join(f"{a}={o}" for a, o in self.path) if self.path else "(root)"

    def tally(self) -> str:
        c = self.counts
        return f"{c.fav_pos}:{c.fav_neg} / {c.dep_pos}:{c.dep_neg}"


@dataclass(frozen=True)
class FairTree:
    root: TreeNode
    criterion: str
    config: BuildConfig
    schema: TableSchema

    @property
    def schema_fingerprint(self) -> str:
        return self.schema.fingerprint

    @cached_property
    def digest(self) -> str:
        """Hash of the serialized document, computed once per tree."""
        return hashlib.sha256(serialize(self).encode("utf-8")).hexdigest()[:16]

    def leaves(self) -> list[Leaf]:
        return [node for node, _ in walk(self.root) if isinstance(node, Leaf)]


def walk(root: TreeNode):
    """Preorder ``(node, path)`` pairs, children in dict (declaration) order.

    ``path`` holds the (attribute, outcome) conditions from the root to the
    node, so ``len(path)`` is its depth.
    """
    stack: list[tuple[TreeNode, tuple[tuple[str, str], ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, Internal):
            stack.extend(
                (child, path + ((node.attribute, outcome),))
                for outcome, child in reversed(node.children.items())
            )


def leaf_disc(counts: GroupCounts) -> float:
    """Per-leaf discrimination: positive-class gap plus negative-class gap.

    Uses raw frequencies (it describes the actual subgroup, not an estimate);
    range [-2, 2]. Zero when either group is absent: there is nothing to
    equalize in a one-group leaf.
    """
    if counts.n_fav == 0 or counts.n_dep == 0:
        return 0.0
    f_pos = counts.fav_pos / counts.n_fav
    d_pos = counts.dep_pos / counts.n_dep
    return (f_pos - d_pos) + ((1.0 - d_pos) - (1.0 - f_pos))


def evaluate_splits(
    table: DataTable, rows: np.ndarray, attributes: tuple[str, ...], criterion: str
) -> list[SplitEvaluation]:
    """Score every candidate attribute at a node, in declaration order.

    A candidate is eligible only when its raw gain reaches the average raw
    gain over all candidates, which stops near-zero normalizers from
    inflating weak tests. Nodes where one group is absent fall back to the
    single-group entropy/Gini gain.
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}")
    if len(attributes) == 0:
        return []
    parent = group_counts(table, rows)
    fallback_mode = parent.n_fav == 0 or parent.n_dep == 0
    gc = table.gc_codes[rows]
    laplace = dv.LAPLACE[criterion]

    scored = []
    for attr in attributes:
        k = len(table.schema.spec(attr).outcomes)
        codes = table.codes(attr)[rows]
        joint = np.bincount(codes * 4 + gc, minlength=4 * k).reshape(k, 4)
        observed = np.nonzero(joint.sum(axis=1))[0]
        children = [
            GroupCounts(int(joint[i, 0]), int(joint[i, 1]), int(joint[i, 2]), int(joint[i, 3]))
            for i in observed
        ]
        if fallback_mode:
            raw_gain = dv.fallback_gain(parent, children, criterion)
        else:
            raw_gain = dv.divergence_gain(parent, children, criterion)
        fav_out = joint[observed, 0] + joint[observed, 1]
        dep_out = joint[observed, 2] + joint[observed, 3]
        fav_dist, dep_dist = dv.outcome_distributions(fav_out, dep_out, laplace=laplace)
        if criterion == "kl":
            normalizer = dv.kl_normalizer(parent, fav_dist, dep_dist)
        else:
            normalizer = dv.e_normalizer(parent, fav_dist, dep_dist)
        scored.append((attr, raw_gain, normalizer))

    mean_gain = sum(g for _, g, _ in scored) / len(scored)
    return [
        SplitEvaluation(attr, g, nrm, dv.gain_ratio(g, nrm), eligible=g >= mean_gain)
        for attr, g, nrm in scored
    ]


def choose_split(evaluations: list[SplitEvaluation]) -> str | None:
    """Pick the eligible candidate with the best strictly positive ratio.

    Ties within TIE_EPS go to the earlier-declared attribute. None means the
    node becomes a leaf.
    """
    best = max((e.ratio for e in evaluations if e.eligible), default=dv.INELIGIBLE_RATIO)
    if best <= 0.0:
        return None
    for e in evaluations:
        if e.eligible and e.ratio > 0.0 and e.ratio >= best - TIE_EPS:
            return e.attribute
    return None


def build(table: DataTable, criterion: str = "kl", config: BuildConfig | None = None) -> FairTree:
    """Grow a tree over the table's feature columns (label and sensitive excluded)."""
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}")
    config = config or BuildConfig()
    if table.n_rows == 0:
        raise DataError("cannot build a tree on an empty table")
    pending = [s.name for s in table.schema.attributes if s.kind == "numeric" and not s.finalized]
    if pending:
        raise DataError(f"numeric columns must be discretized before building: {pending}")

    next_id = iter(range(table.n_rows * 2 + 1))

    def make_leaf(counts: GroupCounts, depth: int) -> Leaf:
        return Leaf(next(next_id), counts, leaf_disc(counts), counts.pos >= counts.neg, depth)

    def grow(rows: np.ndarray, attrs: tuple[str, ...], depth: int) -> TreeNode:
        counts = group_counts(table, rows)
        attribute = None
        if len(rows) >= config.min_rows and attrs:
            attribute = choose_split(evaluate_splits(table, rows, attrs, criterion))
        if attribute is None:
            return make_leaf(counts, depth)
        codes = table.codes(attribute)[rows]
        remaining = tuple(a for a in attrs if a != attribute)
        children: dict[str, TreeNode] = {}
        fallback, fallback_size = None, -1
        for code, outcome in enumerate(table.schema.spec(attribute).outcomes):
            sel = rows[codes == code]
            if sel.size == 0:
                continue
            if sel.size > fallback_size:
                fallback, fallback_size = outcome, sel.size
            children[outcome] = grow(sel, remaining, depth + 1)
        return Internal(attribute, children, fallback)

    root = grow(np.arange(table.n_rows), table.schema.feature_names, 0)
    return FairTree(root, criterion, config, table.schema)


def route(tree: FairTree, table: DataTable) -> np.ndarray:
    """Leaf id per row. Outcomes unseen at a node follow its fallback child."""
    if table.schema.fingerprint != tree.schema_fingerprint:
        raise DataError("table schema does not match the tree's schema")
    out = np.empty(table.n_rows, dtype=np.int64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(tree.root, np.arange(table.n_rows))]
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


def stats(tree: FairTree) -> InterpretabilityStats:
    nodes = leaves = depth = 0
    for node, path in walk(tree.root):
        nodes += 1
        if isinstance(node, Leaf):
            leaves += 1
            depth = max(depth, len(path))
    return InterpretabilityStats(nodes, leaves, depth)


def extract_subgroups(
    tree: FairTree, min_disc: float = 0.0, top_k: int | None = None
) -> list[SubgroupDescriptor]:
    """Discriminatory leaves (disc > 0) at or above the threshold, rendered as paths.

    Sorted by discrimination descending, then leaf size descending.
    """
    found = [
        SubgroupDescriptor(node.id, path, node.counts, node.disc)
        for node, path in walk(tree.root)
        if isinstance(node, Leaf) and node.disc > 0.0 and node.disc >= min_disc
    ]
    found.sort(key=lambda s: (-s.disc, -s.size, s.leaf_id))
    return found[:top_k] if top_k is not None else found


# -- serialization ------------------------------------------------------------


def _node_to_json(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
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


def serialize(tree: FairTree) -> str:
    """Self-describing, versioned document with stable key order for diffing."""
    doc = {
        "format": TREE_FORMAT,
        "criterion": tree.criterion,
        "config": {"min_rows": tree.config.min_rows, "attribute_reuse": ATTRIBUTE_REUSE},
        "schema_fingerprint": tree.schema.fingerprint,
        "schema": tree.schema.to_json(),
        "root": _node_to_json(tree.root),
    }
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def _node_from_json(doc: dict, depth: int) -> TreeNode:
    kind = doc.get("kind")
    if kind == "leaf":
        counts = GroupCounts(*(int(c) for c in doc["counts"]))
        if min(counts.as_tuple()) < 0:
            raise DataError(f"leaf {doc['id']}: negative counts {counts.as_tuple()}")
        disc = float(doc["disc"])
        expected = leaf_disc(counts)
        if abs(disc - expected) > 1e-9:
            raise DataError(
                f"leaf {doc['id']}: stored disc {disc} does not match its counts "
                f"(expected {expected})"
            )
        majority = doc["majority"]
        if majority not in ("positive", "negative"):
            raise DataError(f"leaf {doc['id']}: unknown majority tag {majority!r}")
        if (majority == "positive") != (counts.pos >= counts.neg):
            raise DataError(f"leaf {doc['id']}: stored majority does not match its counts")
        if int(doc["depth"]) != depth:
            raise DataError(f"leaf {doc['id']}: stored depth {doc['depth']} != structural depth {depth}")
        return Leaf(int(doc["id"]), counts, expected, majority == "positive", depth)
    if kind == "internal":
        children = {o: _node_from_json(c, depth + 1) for o, c in doc["children"].items()}
        if not children:
            raise DataError("internal node with no children")
        if doc["fallback"] not in children:
            raise DataError(f"fallback outcome {doc['fallback']!r} is not a child")
        return Internal(doc["attribute"], children, doc["fallback"])
    raise DataError(f"unknown node kind {kind!r}")


def _check_against_schema(root: TreeNode, schema: TableSchema) -> None:
    """Reject trees that split on anything but a finalized feature column, split
    on one twice along a path, name undeclared outcomes, or repeat a leaf id."""
    features = {name: schema.spec(name) for name in schema.feature_names}
    leaf_ids: set[int] = set()
    for node, path in walk(root):
        if isinstance(node, Leaf):
            if node.id in leaf_ids:
                raise DataError(f"duplicate leaf id {node.id}")
            leaf_ids.add(node.id)
            continue
        spec = features.get(node.attribute) if isinstance(node.attribute, str) else None
        if spec is None or not spec.finalized:
            raise DataError(f"split attribute {node.attribute!r} is not a finalized feature column")
        if any(a == node.attribute for a, _ in path):
            raise DataError(f"attribute {node.attribute!r} is split on twice along one path")
        undeclared = [o for o in node.children if o not in spec.outcomes]
        if undeclared:
            raise DataError(f"attribute {node.attribute!r} has undeclared outcomes {undeclared}")


def deserialize(text: str, expected_schema_fingerprint: str | None = None) -> FairTree:
    """Parse and validate a tree document; rejects corrupted or mismatched input."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != TREE_FORMAT:
        raise DataError(f"unsupported tree document format {fmt!r}")
    criterion = doc.get("criterion")
    if criterion not in CRITERIA:
        raise DataError(f"unknown criterion tag {criterion!r}")
    try:
        schema = TableSchema.from_json(doc["schema"])
        config = BuildConfig(int(doc["config"]["min_rows"]))
        reuse = doc["config"]["attribute_reuse"]
        root = _node_from_json(doc["root"], 0)
        stored_fp = doc["schema_fingerprint"]
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError, RecursionError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    if reuse != ATTRIBUTE_REUSE:
        raise DataError(f"unsupported attribute reuse policy {reuse!r}")
    if schema.fingerprint != stored_fp:
        raise DataError("schema fingerprint does not match the embedded schema")
    if expected_schema_fingerprint is not None and stored_fp != expected_schema_fingerprint:
        raise DataError("tree was built against a different schema than expected")
    _check_against_schema(root, schema)
    return FairTree(root, criterion, config, schema)
