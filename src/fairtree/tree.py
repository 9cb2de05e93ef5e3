"""Greedy multiway tree construction over divergence gain ratios.

Trees grow to full depth: a categorical attribute is consumed along its path,
and a node stops growing only when no eligible candidate has a strictly positive
gain ratio, when a node falls below the row floor, or when attributes run
out. Leaves carry exact group counts and their discrimination score.

A tree is one set of per-node arrays in preorder, a ``NodeTable``: ``build``
fills them from the nodes it grows depth by depth, ``deserialize`` from one
walk over the document, whose nodes the parser hands over as tuples of their
values, and everything that reads a tree reads them. Each node keeps its
parent, so a reader finds a node's ancestry by climbing ``parent`` rather
than keeping a stack of its own. The ``Leaf``/``Internal`` records of
``FairTree.root`` are a read-only view of the arrays, built on first use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring as _encode_text

import numpy as np

from . import divergence as dv
from .data import DataTable, GroupCounts, TableSchema, json_typed
from .errors import ConfigError, DataError

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
    children: dict[str, "TreeNode"]  # keyed by outcome, in the tree's child order
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


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Every node of a tree, numbered in preorder (the root is node 0): each
    internal node is followed by its children in their order, each child by
    its own subtree. ``parent`` gives the shape: a node's ancestors are found
    by climbing it, and its key at its parent is ``outcome``.

    Outcome codes index an attribute's declared outcomes in the tree's schema.
    An internal node owns one slot of ``child`` per declared outcome of its
    attribute, from ``offset``; the slot of an outcome with no child of its own
    holds the fallback child. A row at node ``i`` with outcome code ``c`` moves
    to ``child[offset[i] + c]``.
    """

    attribute: np.ndarray  # index into ``attributes``, -1 at a leaf
    fallback: np.ndarray  # code of the outcome whose child takes unseen outcomes, -1 at a leaf
    parent: np.ndarray  # the parent's node number, -1 at the root
    outcome: np.ndarray  # code of the node's own outcome at its parent, -1 at the root
    depth: np.ndarray  # edges from the root
    offset: np.ndarray  # start of the node's slots in ``child``, -1 at a leaf
    child: np.ndarray  # node number per slot
    counts: np.ndarray  # (nodes, 4): fav_pos, fav_neg, dep_pos, dep_neg; zeros at an internal node
    disc: np.ndarray  # ``leaf_disc`` of the counts
    majority: np.ndarray  # positives at least negatives
    leaf_id: np.ndarray  # the leaf's id, -1 at an internal node
    attributes: tuple[str, ...]  # the split attributes, in order of first use


def _node_arrays(
    attributes, widths, attribute, fallback, parent, outcome, depth, counts, leaf_id
) -> NodeTable:
    """The table of a tree given as preorder arrays; ``widths`` holds each
    attribute's count of declared outcomes and ``parent`` each node's parent
    (-1 at the root). The routing slots, disc and majority are derived here."""
    width = np.append(np.asarray(widths, dtype=np.intp), 0)[attribute]  # 0 at a leaf
    offset = np.where(attribute >= 0, np.cumsum(width) - width, -1)
    child = np.full(int(width.sum()), -1, dtype=np.intp)
    below = np.flatnonzero(parent >= 0)
    child[offset[parent[below]] + outcome[below]] = below
    # a slot with no child of its own takes its node's fallback child
    owner = np.repeat(np.arange(attribute.size), width)[child < 0]
    child[child < 0] = child[offset[owner] + fallback[owner]]
    majority = counts[:, 0] + counts[:, 2] >= counts[:, 1] + counts[:, 3]
    return NodeTable(
        attribute, fallback, parent, outcome, depth, offset, child, counts, leaf_discs(counts), majority,
        leaf_id, tuple(attributes),
    )


@dataclass(frozen=True)
class FairTree:
    nodes: NodeTable
    criterion: str
    config: BuildConfig
    schema: TableSchema

    @cached_property
    def digest(self) -> str:
        """Hash of the tree document: of the bytes ``deserialize`` read, or else
        of ``serialize``'s text in UTF-8, computed once per tree."""
        return _digest(serialize(self).encode("utf-8"))

    def leaves(self) -> list[Leaf]:
        """The leaves in preorder, as records."""
        return [Leaf(i, GroupCounts(*c), d, m, k) for i, c, d, m, k in _leaf_fields(self.nodes)]

    @cached_property
    def root(self) -> TreeNode:
        """The tree as ``Leaf`` and ``Internal`` records, built once on first
        use; ``nodes`` stays the tree."""
        n = self.nodes
        outcomes = [self.schema.spec(a).outcomes for a in n.attributes]
        attribute = n.attribute.tolist()
        leaves = iter(self.leaves())
        records = [next(leaves) if a < 0 else Internal(n.attributes[a], {}, outcomes[a][f])
                   for a, f in zip(attribute, n.fallback.tolist())]
        # preorder lists each node's children in their order
        for node, p, o in zip(records[1:], n.parent[1:].tolist(), n.outcome[1:].tolist()):
            records[p].children[outcomes[attribute[p]][o]] = node
        return records[0]


def _leaf_fields(n: NodeTable):
    """(id, counts, disc, majority, depth) of each leaf in preorder, as Python values."""
    at = n.attribute < 0
    return zip(*(x[at].tolist() for x in (n.leaf_id, n.counts, n.disc, n.majority, n.depth)))


def leaf_disc(counts: GroupCounts) -> float:
    """One leaf's ``leaf_discs``."""
    return float(leaf_discs(np.array([counts.as_tuple()]))[0])


def leaf_discs(counts: np.ndarray) -> np.ndarray:
    """Per-leaf discrimination of every row of an (n, 4) count array: the
    positive-class gap plus the negative-class gap.

    Uses raw frequencies (it describes the actual subgroup, not an estimate);
    range [-2, 2]. Zero when either group is absent: there is nothing to
    equalize in a one-group leaf.
    """
    fav_pos, fav_neg, dep_pos, dep_neg = counts.T
    n_fav, n_dep = fav_pos + fav_neg, dep_pos + dep_neg
    f_pos = fav_pos / np.maximum(n_fav, 1)
    d_pos = dep_pos / np.maximum(n_dep, 1)
    return np.where((n_fav > 0) & (n_dep > 0), (f_pos - d_pos) + ((1.0 - d_pos) - (1.0 - f_pos)), 0.0)


#: Open nodes are scored in blocks of at most this many count cells (open
#: (node, attribute) pairs x outcomes x 4 group-class slots), which bounds the
#: kernel's temporaries whatever the number of nodes at a depth; a block is
#: sized by its open pairs, so a deep level, with few open, takes few blocks.
SCORE_CELLS = 1 << 15


def _score_block(codes, gc, node, parent, candidates, width: int, criterion: str):
    """Scores of a block of nodes, and each node's fallback outcome code (the
    chosen attribute's largest child, -1 at a leaf). ``codes[r]`` holds row
    r's outcome code per attribute (below ``width``), ``gc[r]`` its
    group-class slot and ``node[r]`` its node in the block; ``parent[i]``
    counts node i's rows per slot and ``candidates[i, a]`` marks the
    attributes still open at node i. Only the open (node, attribute) pairs
    are counted and scored, numbered node by node."""
    node_i, attr_i = np.nonzero(candidates)
    pair_of = np.full(candidates.shape, -1, dtype=np.int32)
    pair_of[node_i, attr_i] = np.arange(node_i.size)
    hist = dv.histogram(codes, gc, pair_of[node], node_i.size, width)
    raw_gain, normalizer = np.zeros((2, *candidates.shape))
    raw_gain[node_i, attr_i], normalizer[node_i, attr_i] = dv.pair_scores(parent[node_i].T, hist, criterion)
    scores = dv.select(raw_gain, normalizer, candidates)
    chosen = hist[:, :, pair_of[np.arange(len(candidates)), np.maximum(scores.choice, 0)]].sum(0)
    return scores, np.where(scores.choice >= 0, chosen.argmax(0), -1)


def evaluate_splits(
    table: DataTable, rows: np.ndarray, attributes: tuple[str, ...], criterion: str
) -> dv.SplitScores:
    """Score the given attributes, all open, at the one node of ``rows``:
    ``build``'s block scorer run on a block of that node alone. The scores
    are indexed [0, attribute], in the given order."""
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}")
    if len(attributes) == 0:  # nothing to split on: a leaf
        empty = np.zeros((1, 0))
        return dv.SplitScores(empty, empty, empty, empty.astype(bool), np.array([-1]))
    if len(rows) == 0:
        raise DataError("cannot score splits of an empty row set")
    codes = table.code_matrix(attributes)[rows]
    width = max(len(table.schema.spec(a).outcomes) for a in attributes)
    gc = table.gc_codes[rows]
    parent = np.bincount(gc, minlength=4)[None]
    node = np.zeros(len(gc), dtype=np.intp)
    return _score_block(codes, gc, node, parent, np.ones((1, len(attributes)), dtype=bool), width, criterion)[0]


def build(table: DataTable, criterion: str = "kl", config: BuildConfig | None = None) -> FairTree:
    """Grow a tree over the table's feature columns (label and sensitive excluded).

    Growth is level-wise: the open nodes of a depth are scored in blocks by
    ``_score_block``, which counts and scores only the attributes still open
    at each of the block's nodes, the others being consumed on its path. The
    nodes are then numbered in preorder and leaf ids given in that order, so
    the tree is the one a depth-first recursion would grow, leaf ids included.
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
    widths = [len(table.schema.spec(a).outcomes) for a in features]
    width = max(widths, default=1)
    codes = table.code_matrix(features)
    gc = table.gc_codes
    cap = max(1, SCORE_CELLS // (width * 4) - len(features))

    # per grown node, one array per depth, in creation order (parents before children)
    grown_counts, grown_split, grown_fallback, grown_depth = [], [], [], []
    grown_parent, grown_outcome = [np.array([-1])], [np.array([-1])]

    rows = np.arange(table.n_rows)
    node_of = np.zeros(table.n_rows, dtype=np.intp)  # each row's node among the open ones
    open_attrs = np.ones((1, len(features)), dtype=bool)
    first = 0  # creation number of the depth's first node
    while rows.size:
        n_open = len(open_attrs)
        row_gc = gc[rows]
        counts = np.bincount(node_of * 4 + row_gc, minlength=n_open * 4).reshape(n_open, 4)
        scored = np.nonzero((counts.sum(1) >= config.min_rows) & open_attrs.any(1))[0]
        choice = np.full(n_open, -1)
        fallback = np.full(n_open, -1)
        # rows grouped by the scored node they belong to (rows of other nodes first),
        # so that each block of scored nodes owns one run of ``order``
        slot = np.full(n_open, -1)
        slot[scored] = np.arange(scored.size)
        row_slot = slot[node_of]
        order = np.argsort(row_slot, kind="stable")
        # a block opens at each node whose first open pair begins a new run of ``cap``
        # pairs, so it ends past the run by less than one node's attributes
        pairs = open_attrs[scored].sum(1)
        starts = np.flatnonzero(np.diff((np.cumsum(pairs) - pairs) // cap, prepend=-1)).tolist() + [scored.size]
        bounds = np.searchsorted(row_slot[order], starts)
        for b, (start, stop) in enumerate(zip(starts, starts[1:])):
            nodes = scored[start:stop]
            sel = order[bounds[b]:bounds[b + 1]]
            scores, fallback[nodes] = _score_block(codes[rows[sel]], row_gc[sel], row_slot[sel] - start,
                                                   counts[nodes], open_attrs[nodes], width, criterion)
            choice[nodes] = scores.choice
        grown_counts.append(counts)
        grown_split.append(choice)
        grown_fallback.append(fallback)
        grown_depth.append(np.full(n_open, len(grown_depth)))

        # rows of split nodes move to their children, numbered by (parent, outcome)
        keep = choice[node_of] >= 0
        rows, node_of = rows[keep], node_of[keep]
        split_attr = choice[node_of]
        keys, node_of = np.unique(node_of * width + codes[rows, split_attr], return_inverse=True)
        node_of = node_of.reshape(-1)
        parents, child_codes = np.divmod(keys, width)
        open_attrs = open_attrs[parents]
        open_attrs[np.arange(keys.size), choice[parents]] = False
        grown_parent.append(first + parents)
        grown_outcome.append(child_codes)
        first += n_open

    split = np.concatenate(grown_split)
    parent = np.concatenate(grown_parent)
    # preorder: depth-first, children in outcome (declaration) order
    children: list[list[int]] = [[] for _ in split]
    for c, p in enumerate(parent[1:].tolist(), start=1):
        children[p].append(c)
    preorder, stack = [], [0]
    while stack:
        i = stack.pop()
        preorder.append(i)
        stack.extend(reversed(children[i]))
    preorder = np.array(preorder)
    number = np.empty_like(preorder)
    number[preorder] = np.arange(preorder.size)
    # the split attributes, numbered in order of first use
    split = split[preorder]
    used = split[split >= 0]
    used = used[np.sort(np.unique(used, return_index=True)[1])]
    local = np.full(len(features) + 1, -1)
    local[used] = np.arange(used.size)
    attribute = local[split]
    leaf = attribute < 0
    parent = parent[preorder]
    return FairTree(
        _node_arrays(
            [features[a] for a in used.tolist()],
            [widths[a] for a in used.tolist()],
            attribute,
            np.concatenate(grown_fallback)[preorder],
            np.where(parent >= 0, number[parent], -1),
            np.concatenate(grown_outcome)[preorder],
            np.concatenate(grown_depth)[preorder],
            np.where(leaf[:, None], np.concatenate(grown_counts)[preorder], 0),
            np.where(leaf, np.cumsum(leaf) - 1, -1),
        ),
        criterion, config, table.schema,
    )


def route(tree: FairTree, table: DataTable) -> np.ndarray:
    """Leaf id per row. Outcomes unseen at a node follow its fallback child.

    Every row still above a leaf steps one depth per turn through the tree's
    node table, so the numpy calls grow with the depth, not the node count.
    """
    if table.schema.fingerprint != tree.schema.fingerprint:
        raise DataError("table schema does not match the tree's schema")
    nodes = tree.nodes
    codes = table.code_matrix(nodes.attributes)  # ``offset`` (intp) widens the sum below
    out = np.empty(table.n_rows, dtype=np.int64)
    rows = np.arange(table.n_rows)
    node = np.zeros(table.n_rows, dtype=np.intp)
    while rows.size:
        attr = nodes.attribute[node]
        at_leaf = attr < 0
        out[rows[at_leaf]] = nodes.leaf_id[node[at_leaf]]
        inner = ~at_leaf
        rows, node, attr = rows[inner], node[inner], attr[inner]
        node = nodes.child[nodes.offset[node] + codes[rows, attr]]
    return out


def stats(tree: FairTree) -> InterpretabilityStats:
    leaf = tree.nodes.attribute < 0
    return InterpretabilityStats(leaf.size, int(leaf.sum()), int(tree.nodes.depth[leaf].max()))


def extract_subgroups(
    tree: FairTree, min_disc: float = 0.0, top_k: int | None = None
) -> list[SubgroupDescriptor]:
    """Discriminatory leaves (disc > 0) at or above the threshold, rendered as paths.

    Sorted by discrimination descending, then leaf size descending.
    """
    if top_k is not None and top_k < 1:
        raise ConfigError(f"top_k must be at least 1, got {top_k}")
    if min_disc != min_disc:
        raise ConfigError("min_disc must be a number, got NaN")
    n = tree.nodes
    outcomes = [tree.schema.spec(a).outcomes for a in n.attributes]
    attribute, parent, outcome = (x.tolist() for x in (n.attribute, n.parent, n.outcome))
    found = []
    for i in np.flatnonzero((n.attribute < 0) & (n.disc > 0.0) & (n.disc >= min_disc)).tolist():
        path, j = [], i
        while parent[j] >= 0:
            a = attribute[parent[j]]
            path.append((n.attributes[a], outcomes[a][outcome[j]]))
            j = parent[j]
        found.append(SubgroupDescriptor(
            int(n.leaf_id[i]), tuple(reversed(path)), GroupCounts(*n.counts[i].tolist()), float(n.disc[i])
        ))
    found.sort(key=lambda s: (-s.disc, -s.size, s.leaf_id))
    return found[:top_k] if top_k is not None else found


# -- serialization ------------------------------------------------------------


def serialize(tree: FairTree) -> str:
    """Self-describing, versioned document with stable key order for diffing.

    The text is exactly ``json.dumps(doc, indent=1, ensure_ascii=False)`` plus a
    newline: ``json`` writes the head, and the nodes are written directly from
    the node table, which is many times faster than the indenting encoder,
    pure Python in CPython. A node's closing brace is indented by one space
    plus two per depth.
    """
    doc = {
        "format": TREE_FORMAT,
        "criterion": tree.criterion,
        "config": {"min_rows": tree.config.min_rows, "attribute_reuse": ATTRIBUTE_REUSE},
        "schema_fingerprint": tree.schema.fingerprint,
        "schema": tree.schema.to_json(),
        "root": None,
    }
    out = [json.dumps(doc, indent=1, ensure_ascii=False).removesuffix("null\n}")]
    n = tree.nodes
    names = [_encode_text(a) for a in n.attributes]
    outcomes = [[_encode_text(o) for o in tree.schema.spec(a).outcomes] for a in n.attributes]
    pads = [" " * (1 + 2 * d) for d in range(int(n.depth.max()) + 1)]
    # per depth: a first child's key, a later child's key, the texts of a leaf
    # and of an internal node, and what follows an internal node's last child
    first, later = ["\n" + pad for pad in pads], [",\n" + pad for pad in pads]
    leaf_text = [
        f'{{\n{pad} "kind": "leaf",\n{pad} "id": %d,\n{pad} "counts": [\n{pad}  %d,\n{pad}  %d,\n'
        f'{pad}  %d,\n{pad}  %d\n{pad} ],\n{pad} "disc": %r,\n{pad} "majority": "%s",\n'
        f'{pad} "depth": %d\n{pad}}}'
        for pad in pads
    ]
    inner_text = [
        f'{{\n{pad} "kind": "internal",\n{pad} "attribute": %s,\n{pad} "fallback": %s,\n{pad} "children": {{'
        for pad in pads
    ]
    ends = [f"\n{pad} }}\n{pad}}}" for pad in pads]
    leaves = iter([
        leaf_text[d] % (i, *c, disc, "positive" if m else "negative", d)
        for i, c, disc, m, d in _leaf_fields(n)
    ])
    attribute = n.attribute.tolist()
    last = 0  # the previous node's depth
    for a, f, p, o, d in zip(attribute, *(x.tolist() for x in (n.fallback, n.parent, n.outcome, n.depth))):
        # a node at depth d after a leaf at ``last`` >= d ends the subtrees of
        # that leaf's ancestors from depth d down
        out += reversed(ends[d:last])
        if d:  # a first child follows its parent, a later one its sibling's subtree
            out += ((later if last >= d else first)[d], outcomes[attribute[p]][o], ": ")
        out.append(next(leaves) if a < 0 else inner_text[d] % (names[a], outcomes[a][f]))
        last = d
    out += reversed(ends[:last])  # the last node in preorder is a leaf
    out.append("\n}\n")
    return "".join(out)


def _digest(document: bytes) -> str:
    return hashlib.sha256(document).hexdigest()[:16]


def _json_ints(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64, with the mask of those that are not a JSON integer
    in the int64 range (zero in the array)."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64), np.zeros(len(values), dtype=bool)
        except OverflowError:
            pass
    bad = [type(v) is not int or not -(2**63) <= v < 2**63 for v in values]
    return np.array([0 if b else v for v, b in zip(values, bad)], dtype=np.int64), np.array(bad, dtype=bool)


def _int_fault(value, what: str) -> str:
    """Why ``value`` is not a stored integer: not a JSON integer, or outside int64."""
    try:
        json_typed(value, int, what)
    except DataError as exc:
        return str(exc)
    return f"{what} {value} is outside the int64 range"


def _node_hook():
    """A ``json.loads`` ``object_hook`` for one tree document.

    It turns a node object, as the parser closes it, into ``_node_record``'s
    tuple of its values, so the parsed document holds no dict per node; no
    JSON value is a tuple. Every other object is returned as it is, and so is
    a node object that ``_node_record`` finds faulty, for ``_read_nodes`` to
    reject. The hook never raises: an exception would escape ``json.loads``'s
    error handling.
    """
    texts: dict[str, str] = {}

    def shared(value):
        # one string per distinct text, where the parser makes one per value it reads
        return texts.setdefault(value, value) if type(value) is str else value

    def node_values(obj: dict):
        if obj.get("kind") in ("leaf", "internal"):
            try:
                return _node_record(obj, shared)
            except Exception:  # a fault, which ``_read_nodes`` reports
                pass
        return obj

    return node_values


def _node_record(node, text=lambda value: value) -> tuple:
    """The tuple of a node object's values, ``(*counts, disc, majority, depth,
    id)`` for a leaf and ``(attribute, fallback, children)`` for an internal
    node, with ``text`` applied to its texts; or the fault there: not an
    object, a missing key (in the order the tuple lists them, leaf counts
    that are not a list of four straight after a missing ``counts``) or an
    unknown kind. ``_read_nodes`` makes it of every node that ``_node_hook``
    left as it was (every node of a document parsed without it)."""
    kind = node.get("kind")
    if kind == "leaf":
        counts = node["counts"]
        if type(counts) is not list or len(counts) != 4:
            raise DataError(f"malformed tree document: leaf counts {counts!r:.40} are not a list of four")
        return (*counts, node["disc"], text(node["majority"]), node["depth"], node["id"])
    if kind == "internal":
        return text(node["attribute"]), text(node["fallback"]), node["children"]
    raise DataError(f"unknown node kind {kind!r}")


def _read_nodes(doc: dict, schema: TableSchema) -> tuple:
    """The arguments of ``_node_arrays`` for the ``root`` of a document,
    parsed with or without ``_node_hook``.

    The root is taken out of ``doc``, so that the walk holds the only
    reference to each node and frees it once read; and the gathered values
    are freed on return, before ``_node_arrays`` builds the table. One
    preorder walk checks the document's shape and gathers every node's fields
    into lists. Every other check then runs over the gathered values; the
    first faulty node in preorder is reported, and of its faults the one
    listed first below.
    """
    parent, key, depth = [], [], []  # per node
    leaf_at, raw_counts, raw_disc, raw_majority, raw_depth, raw_id = [], [], [], [], [], []
    inner_at, raw_attribute, raw_fallback = [], [], []
    stack = [(doc.pop("root"), -1, None, 0)]
    while stack:
        node, up, outcome, d = stack.pop()
        i = len(parent)
        parent.append(up)
        key.append(outcome)
        depth.append(d)
        if type(node) is not tuple:  # an object the hook left as it was
            node = _node_record(node)
        if len(node) == 8:
            disc, majority, stated, leaf_id = node[4:]
            leaf_at.append(i)
            raw_counts += node[:4]
            raw_disc.append(disc)
            raw_majority.append(majority)
            raw_depth.append(stated)
            raw_id.append(leaf_id)
        else:
            attribute, fallback, children = node
            inner_at.append(i)
            raw_attribute.append(attribute)
            raw_fallback.append(fallback)
            stack += [(c, i, o, d + 1) for o, c in reversed(children.items())]
    n = len(parent)
    parent, depth = np.array(parent, dtype=np.intp), np.array(depth, dtype=np.intp)
    leaf_at, inner_at = np.array(leaf_at, dtype=np.intp), np.array(inner_at, dtype=np.intp)

    # leaves
    counts, bad_count = _json_ints(raw_counts)
    counts, bad_count = counts.reshape(-1, 4), bad_count.reshape(-1, 4)
    number = np.array([type(x) in (int, float) for x in raw_disc], dtype=bool)
    stored = np.array([x if ok else 0.0 for x, ok in zip(raw_disc, number.tolist())], dtype=float)
    expected = leaf_discs(counts)
    tagged = np.array([m in ("positive", "negative") for m in raw_majority], dtype=bool)
    positive = np.array([m == "positive" for m in raw_majority], dtype=bool)
    stated, bad_depth = _json_ints(raw_depth)
    ids, bad_id = _json_ints(raw_id)
    repeated = np.ones(ids.size, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False

    # internal nodes; an attribute is numbered by its first use
    features = {s.name: s for s in map(schema.spec, schema.feature_names) if s.finalized}
    index: dict[str, int] = {}
    split = [index.setdefault(a, len(index)) if isinstance(a, str) and a in features else -1
             for a in raw_attribute]
    codes = [{o: c for c, o in enumerate(features[a].outcomes)} for a in index] + [{}]
    attribute = np.full(n, -1, dtype=np.intp)
    attribute[inner_at] = split
    parent_split = attribute[parent].tolist()
    outcome = np.array([-1] + [codes[a].get(o, -1) for a, o in zip(parent_split[1:], key[1:])], dtype=np.intp)
    fallback = np.full(n, -1, dtype=np.intp)
    fallback[inner_at] = [codes[a].get(f, -1) if isinstance(f, str) else -1
                          for a, f in zip(split, raw_fallback)]
    # whether an internal node's attribute splits one of its ancestors too
    twice, up = np.zeros(inner_at.size, dtype=bool), parent[inner_at]
    while (up >= 0).any():
        twice |= (up >= 0) & (attribute[up] == attribute[inner_at]) & (attribute[inner_at] >= 0)
        up = np.where(up >= 0, parent[up], -1)
    undeclared = np.zeros(n, dtype=bool)
    undeclared[parent[1:][outcome[1:] < 0]] = True
    # per (node, outcome code): whether the node has a child of its own there
    width = 1 + max((len(s.outcomes) for s in features.values()), default=0)
    own = np.zeros(n * width, dtype=bool)
    own[(parent * width + outcome)[outcome >= 0]] = True

    faults = [
        (leaf_at, bad_count.any(1),
         lambda j: _int_fault(raw_counts[4 * j + bad_count[j].argmax()], "leaf count")),
        (leaf_at, (counts < 0).any(1),
         lambda j: f"leaf {raw_id[j]}: negative counts {tuple(counts[j].tolist())}"),
        (leaf_at, ~number,
         lambda j: f"leaf {raw_id[j]}: disc must be a JSON number, got {raw_disc[j]!r:.40}"),
        (leaf_at, ~(np.abs(stored - expected) <= 1e-9),  # so NaN matches no counts
         lambda j: f"leaf {raw_id[j]}: stored disc {raw_disc[j]} does not match its counts "
         f"(expected {expected[j]})"),
        (leaf_at, ~tagged, lambda j: f"leaf {raw_id[j]}: unknown majority tag {raw_majority[j]!r}"),
        (leaf_at, tagged & (positive != (counts[:, 0] + counts[:, 2] >= counts[:, 1] + counts[:, 3])),
         lambda j: f"leaf {raw_id[j]}: stored majority does not match its counts"),
        (leaf_at, bad_depth | (stated != depth[leaf_at]), lambda j: _int_fault(raw_depth[j], "leaf depth")
         if type(raw_depth[j]) is not int else
         f"leaf {raw_id[j]}: stored depth {raw_depth[j]} != structural depth {depth[leaf_at[j]]}"),
        (leaf_at, bad_id, lambda j: _int_fault(raw_id[j], "leaf id")),
        (leaf_at, repeated, lambda j: f"duplicate leaf id {raw_id[j]}"),
        (inner_at, np.array(split, dtype=np.intp) < 0,
         lambda j: f"split attribute {raw_attribute[j]!r} is not a finalized feature column"),
        (inner_at, twice,
         lambda j: f"attribute {raw_attribute[j]!r} is split on twice along one path"),
        (inner_at, undeclared[inner_at], lambda j: f"attribute {raw_attribute[j]!r} has undeclared outcomes "
         f"{[key[c] for c in np.flatnonzero((parent == inner_at[j]) & (outcome < 0)).tolist()]}"),
        (inner_at, np.bincount(parent[1:], minlength=n)[inner_at] == 0,
         lambda j: "internal node with no children"),
        (inner_at, (fallback[inner_at] < 0) | ~own[inner_at * width + fallback[inner_at]],
         lambda j: f"fallback outcome {raw_fallback[j]!r} is not a child"),
    ]
    first = min((at[bad][0] for at, bad, _ in faults if bad.any()), default=-1)
    for at, bad, message in faults:
        if first in at[bad]:
            raise DataError(message(int(np.searchsorted(at, first))))

    full_counts = np.zeros((n, 4), dtype=np.int64)
    full_counts[leaf_at] = counts
    leaf_id = np.full(n, -1, dtype=np.int64)
    leaf_id[leaf_at] = ids
    names = [features[a].name for a in index]  # the schema's strings, not the document's
    widths = [len(features[a].outcomes) for a in index]
    return names, widths, attribute, fallback, parent, outcome, depth, full_counts, leaf_id


def deserialize(document: bytes | str) -> FairTree:
    """Parse and validate a tree document, given as the bytes read (or as
    their text); rejects bytes that are not UTF-8 and corrupted or mismatched
    input.

    The tree's digest is the hash of the document's bytes, so plans bind to
    the document as read; bytes are hashed as given and their text is never
    encoded again. ``serialize`` reproduces the text of every document it
    wrote, so such a tree keeps the digest it had when it was built.

    The document is parsed with ``_node_hook``, so that it holds no dict per
    node. A document found faulty is parsed and checked once more without it,
    so that a fault quotes its values as written.
    """
    if isinstance(document, str):
        text, digest = document, _digest(document.encode("utf-8"))
    else:
        digest = _digest(document)
        try:
            text = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text ({exc.reason})") from None
    try:
        tree = _read_tree(text, _node_hook())
    except DataError:
        # a node-shaped object outside the nodes is a tuple by then, and would
        # show as one in the fault; the fault is found again with every object a dict
        tree = None
    if tree is None:
        tree = _read_tree(text, None)
    vars(tree)["digest"] = digest  # fills the cached property
    return tree


def _read_tree(text: str, object_hook) -> FairTree:
    try:
        doc = json.loads(text, object_hook=object_hook)
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
        nodes = _node_arrays(*_read_nodes(doc, schema))
        stored_fp = doc["schema_fingerprint"]
        fingerprint = schema.fingerprint  # a text that UTF-8 cannot encode raises a ValueError
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, ConfigError,
            RecursionError) as exc:
        raise DataError(f"malformed tree document: {exc}") from exc
    if reuse != ATTRIBUTE_REUSE:
        raise DataError(f"unsupported attribute reuse policy {reuse!r}")
    if fingerprint != stored_fp:
        raise DataError("schema fingerprint does not match the embedded schema")
    return FairTree(nodes, criterion, config, schema)
