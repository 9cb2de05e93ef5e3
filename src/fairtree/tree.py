"""Greedy multiway tree construction over divergence gain ratios.

Trees grow to full depth: a categorical attribute is consumed along its path,
and a node stops growing only when no eligible candidate has a strictly positive
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
from .data import DataTable, GroupCounts, TableSchema, json_typed
from .errors import ConfigError, DataError
from .divergence import SplitEvaluation

TREE_FORMAT = "fairtree/1"

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
        """Hash of the tree document: of the text ``deserialize`` read, or else
        of ``serialize``'s text, computed once per tree."""
        return _text_digest(serialize(self))

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


#: Open nodes are scored in blocks of at most this many count cells (nodes x
#: attributes x outcomes x 4 group-class slots), which bounds the kernel's
#: temporaries whatever the number of nodes at a depth.
SCORE_CELLS = 1 << 14


def evaluate_splits(
    table: DataTable, rows: np.ndarray, attributes: tuple[str, ...], criterion: str
) -> list[SplitEvaluation]:
    """Score every candidate attribute at one node, in the given order: a
    one-node view of ``divergence.score_splits``, which ``build`` calls once
    per block of open nodes."""
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}")
    if len(attributes) == 0:
        return []
    codes = np.stack([table.codes(a)[rows] for a in attributes], axis=1)
    width = max(len(table.schema.spec(a).outcomes) for a in attributes)
    gc = table.gc_codes[rows]
    counts = dv.histogram(codes, gc, np.zeros(len(rows), dtype=np.intp), 1, width)
    parent = np.bincount(gc, minlength=4)[:, None]
    s = dv.score_splits(parent, counts, np.ones((1, len(attributes)), dtype=bool), criterion)
    return [
        SplitEvaluation(a, float(s.raw_gain[0, j]), float(s.normalizer[0, j]),
                        float(s.ratio[0, j]), bool(s.eligible[0, j]))
        for j, a in enumerate(attributes)
    ]


def choose_split(evaluations: list[SplitEvaluation]) -> str | None:
    """Pick the eligible candidate with the best strictly positive ratio.

    Ties within TIE_EPS go to the earlier-declared attribute. None means the
    node becomes a leaf. A one-node view of ``divergence.choose``.
    """
    if not evaluations:
        return None
    ratio = np.array([e.ratio for e in evaluations])
    j = int(dv.choose(ratio, np.array([e.eligible for e in evaluations])))
    return evaluations[j].attribute if j >= 0 else None


def build(table: DataTable, criterion: str = "kl", config: BuildConfig | None = None) -> FairTree:
    """Grow a tree over the table's feature columns (label and sensitive excluded).

    Growth is level-wise: one histogram per depth scores every open node of
    that depth through ``divergence.score_splits``. Leaf ids are assigned
    afterwards in a preorder walk, so the tree is the one a depth-first
    recursion would grow, leaf ids included.
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}")
    config = config or BuildConfig()
    if table.n_rows == 0:
        raise DataError("cannot build a tree on an empty table")
    pending = [s.name for s in table.schema.attributes if s.kind == "numeric" and not s.finalized]
    if pending:
        raise DataError(f"numeric columns must be discretized before building: {pending}")

    features = table.schema.feature_names
    outcomes = [table.schema.spec(a).outcomes for a in features]
    width = max((len(o) for o in outcomes), default=1)
    codes = np.zeros((table.n_rows, 0), dtype=np.intp)
    if features:
        codes = np.stack([table.codes(a) for a in features], axis=1)
    gc = table.gc_codes
    block = max(1, SCORE_CELLS // (len(features) * width * 4 or 1))

    # per grown node, in creation order (parents before children)
    node_counts: list[GroupCounts] = []
    node_depth: list[int] = []
    node_split: list[tuple[int, int] | None] = []  # (attribute index, fallback code)
    node_children: list[list[tuple[int, int]]] = []  # (outcome code, node index)

    rows = np.arange(table.n_rows)
    node_of = np.zeros(table.n_rows, dtype=np.intp)  # each row's node among the open ones
    open_attrs = np.ones((1, len(features)), dtype=bool)
    depth = 0
    while rows.size:
        first, n_open = len(node_counts), len(open_attrs)
        row_gc = gc[rows]
        counts = np.bincount(node_of * 4 + row_gc, minlength=n_open * 4).reshape(n_open, 4)
        scored = np.nonzero((counts.sum(1) >= config.min_rows) & open_attrs.any(1))[0]
        choice = np.full(n_open, -1)
        fallback = np.zeros(n_open, dtype=np.intp)
        # rows grouped by the scored node they belong to (rows of other nodes first),
        # so that each block of scored nodes owns one run of ``order``
        slot = np.full(n_open, -1)
        slot[scored] = np.arange(scored.size)
        row_slot = slot[node_of]
        order = np.argsort(row_slot, kind="stable")
        bounds = np.searchsorted(row_slot[order], np.arange(0, scored.size + block, block))
        for b, start in enumerate(range(0, scored.size, block)):
            nodes = scored[start:start + block]
            sel = order[bounds[b]:bounds[b + 1]]
            hist = dv.histogram(codes[rows[sel]], row_gc[sel], row_slot[sel] - start, nodes.size, width)
            scores = dv.score_splits(counts[nodes].T, hist, open_attrs[nodes], criterion)
            choice[nodes] = scores.choice
            chosen = hist[:, :, np.arange(nodes.size), np.maximum(scores.choice, 0)].sum(0)
            fallback[nodes] = chosen.argmax(0)
        for c, a, f in zip(counts.tolist(), choice.tolist(), fallback.tolist()):
            node_counts.append(GroupCounts(*c))
            node_depth.append(depth)
            node_split.append((a, f) if a >= 0 else None)
            node_children.append([])

        # rows of split nodes move to their children, numbered by (parent, outcome)
        keep = choice[node_of] >= 0
        rows, node_of = rows[keep], node_of[keep]
        split_attr = choice[node_of]
        keys, node_of = np.unique(node_of * width + codes[rows, split_attr], return_inverse=True)
        node_of = node_of.reshape(-1)
        parents, child_codes = np.divmod(keys, width)
        open_attrs = open_attrs[parents]
        open_attrs[np.arange(keys.size), choice[parents]] = False
        for j, (p, code) in enumerate(zip(parents.tolist(), child_codes.tolist())):
            node_children[first + p].append((code, first + n_open + j))
        depth += 1

    # leaf ids in preorder: depth-first, children in outcome (declaration) order
    leaf_id: dict[int, int] = {}
    stack = [0]
    while stack:
        i = stack.pop()
        if node_children[i]:
            stack.extend(child for _, child in reversed(node_children[i]))
        else:
            leaf_id[i] = len(leaf_id)
    built: list[TreeNode | None] = [None] * len(node_counts)
    for i in reversed(range(len(node_counts))):
        if node_split[i] is None:
            c = node_counts[i]
            built[i] = Leaf(leaf_id[i], c, leaf_disc(c), c.pos >= c.neg, node_depth[i])
        else:
            attr, fallback_code = node_split[i]
            names = outcomes[attr]
            children = {names[code]: built[child] for code, child in node_children[i]}
            built[i] = Internal(features[attr], children, names[fallback_code])
    return FairTree(built[0], criterion, config, table.schema)


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
    if top_k is not None and top_k < 1:
        raise ConfigError(f"top_k must be at least 1, got {top_k}")
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


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _node_from_json(doc: dict, path: tuple[str, ...], features: dict, leaf_ids: set[int]) -> TreeNode:
    """A node and its subtree, each node checked as it is built. ``path`` holds
    the attributes split on above it; ``features`` maps each finalized feature
    column to its declared outcomes; ``leaf_ids`` gathers the ids read so far."""
    kind = doc.get("kind")
    if kind == "leaf":
        counts = GroupCounts(*(json_typed(c, int, "leaf count") for c in doc["counts"]))
        if min(counts.as_tuple()) < 0:
            raise DataError(f"leaf {doc['id']}: negative counts {counts.as_tuple()}")
        disc = doc["disc"]
        if type(disc) not in (int, float):
            raise DataError(f"leaf {doc['id']}: disc must be a JSON number, got {disc!r:.40}")
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
        if json_typed(doc["depth"], int, "leaf depth") != len(path):
            raise DataError(f"leaf {doc['id']}: stored depth {doc['depth']} != structural depth {len(path)}")
        leaf_id = json_typed(doc["id"], int, "leaf id")
        if leaf_id in leaf_ids:
            raise DataError(f"duplicate leaf id {leaf_id}")
        leaf_ids.add(leaf_id)
        return Leaf(leaf_id, counts, expected, majority == "positive", len(path))
    if kind == "internal":
        attribute = doc["attribute"]
        declared = features.get(attribute) if isinstance(attribute, str) else None
        if declared is None:
            raise DataError(f"split attribute {attribute!r} is not a finalized feature column")
        if attribute in path:
            raise DataError(f"attribute {attribute!r} is split on twice along one path")
        undeclared = [o for o in doc["children"] if o not in declared]
        if undeclared:
            raise DataError(f"attribute {attribute!r} has undeclared outcomes {undeclared}")
        path += (attribute,)
        children = {o: _node_from_json(c, path, features, leaf_ids) for o, c in doc["children"].items()}
        if not children:
            raise DataError("internal node with no children")
        if doc["fallback"] not in children:
            raise DataError(f"fallback outcome {doc['fallback']!r} is not a child")
        return Internal(attribute, children, doc["fallback"])
    raise DataError(f"unknown node kind {kind!r}")


def deserialize(text: str, expected_schema_fingerprint: str | None = None) -> FairTree:
    """Parse and validate a tree document; rejects corrupted or mismatched input.

    The tree's digest is the hash of ``text`` itself, so plans bind to the
    document as read. ``serialize`` reproduces the text of every document it
    wrote, so such a tree keeps the digest it had when it was built.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != TREE_FORMAT:
        raise DataError(f"unsupported tree document format {fmt!r}")
    criterion = doc.get("criterion")
    if criterion not in CRITERIA:
        raise DataError(f"unknown criterion tag {criterion!r}")
    try:
        schema = TableSchema.from_json(doc["schema"])
        config = BuildConfig(json_typed(doc["config"]["min_rows"], int, "min_rows"))
        reuse = doc["config"]["attribute_reuse"]
        specs = [schema.spec(a) for a in schema.feature_names]
        features = {s.name: frozenset(s.outcomes) for s in specs if s.finalized}
        root = _node_from_json(doc["root"], (), features, set())
        stored_fp = doc["schema_fingerprint"]
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError, RecursionError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    if reuse != ATTRIBUTE_REUSE:
        raise DataError(f"unsupported attribute reuse policy {reuse!r}")
    if schema.fingerprint != stored_fp:
        raise DataError("schema fingerprint does not match the embedded schema")
    if expected_schema_fingerprint is not None and stored_fp != expected_schema_fingerprint:
        raise DataError("tree was built against a different schema than expected")
    tree = FairTree(root, criterion, config, schema)
    vars(tree)["digest"] = _text_digest(text)  # fills the cached property
    return tree
