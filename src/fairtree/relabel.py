"""Promote/demote relabeling of discriminatory leaves.

A census routes a table through a tree once and records, for every leaf
whose discrimination is positive, the direction from the leaf's majority
class (ties prefer promotion), how many rows to flip so the per-group class
rates meet, and which rows may flip. None of that depends on sigma. A plan
keeps the censused leaves at or above the threshold sigma and picks their
rows uniformly without replacement with a seeded generator. Applying a plan
touches only the label column.

Leaves with discrimination at or below zero are never planned. In a
reverse-discriminated leaf (disc < 0, the deprived group already has the
higher positive rate) the only legal flips, deprived negative to positive and
favored positive to negative, can only widen the gap, so such leaves are left
unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_text

import numpy as np

from .data import DataTable, GroupCounts, json_typed
from .errors import ConfigError, DataError
from .tree import FairTree, leaf_discs, route

PLAN_FORMAT = "fairtree-plan/1"

#: Row selection RNG, recorded in plan provenance so runs are replayable.
ROW_PICKER = "numpy.Generator(PCG64)"

PROMOTE = "promote"
DEMOTE = "demote"


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def promote_count(counts: GroupCounts) -> int:
    """Deprived negatives to flip positive so deprived matches the favored rate.

    The nearest-integer count is clamped to availability; exact rate equality
    is generally unattainable with whole rows, so the residual discrimination
    is bounded by the rounding, at most 1/n_dep. The clamp never binds for a
    planned leaf: disc > 0 puts the unrounded count in (0, dep_neg].
    """
    if counts.n_dep == 0 or counts.n_fav == 0:
        return 0
    target = counts.n_dep * counts.fav_pos / counts.n_fav - counts.dep_pos
    return min(max(_round_half_away(target), 0), counts.dep_neg)


def demote_count(counts: GroupCounts) -> int:
    """Favored positives to flip negative so favored matches the deprived negative rate.

    The nearest-integer count is clamped to availability; the residual
    discrimination is bounded by the rounding, at most 1/n_fav. The clamp
    never binds for a planned leaf: disc > 0 puts the unrounded count in
    (0, fav_pos].
    """
    if counts.n_dep == 0 or counts.n_fav == 0:
        return 0
    target = counts.n_fav * counts.dep_neg / counts.n_dep - counts.fav_neg
    return min(max(_round_half_away(target), 0), counts.fav_pos)


@dataclass(frozen=True)
class LeafAction:
    leaf_id: int
    action: str  # PROMOTE | DEMOTE
    count: int
    row_ids: tuple[int, ...]


@dataclass(frozen=True)
class RelabelPlan:
    sigma: float
    seed: int
    actions: tuple[LeafAction, ...]
    table_fingerprint: str
    tree_digest: str
    row_picker: str = ROW_PICKER


@dataclass(frozen=True)
class LeafCensus:
    """A leaf with disc > 0 on one table: what any plan at sigma <= disc does there."""

    leaf_id: int
    disc: float
    action: str  # PROMOTE | DEMOTE
    count: int
    candidates: np.ndarray  # ascending row ids eligible for the flip


@dataclass(frozen=True)
class Census:
    """The sigma-independent part of planning one tree against one table."""

    leaves: tuple[LeafCensus, ...]  # tree leaf order
    table_fingerprint: str
    tree_digest: str


def census(tree: FairTree, table: DataTable) -> Census:
    """Route the table once and record every discriminatory leaf's repair.

    Leaf statistics (counts, discrimination, majority) are recomputed from the
    rows of the given table routed through the tree, so the same tree can plan
    against held-out data; on its training table this reproduces the stored
    leaf counts exactly.
    """
    leaf_of = route(tree, table)  # also checks the schema pairing
    ids, slot, sizes = np.unique(leaf_of, return_inverse=True, return_counts=True)
    joint = np.bincount(slot * 4 + table.gc_codes, minlength=4 * ids.size).reshape(-1, 4)
    disc = leaf_discs(joint)
    # discriminatory leaves in tree leaf order
    nodes = tree.nodes
    order = nodes.leaf_id[nodes.attribute < 0]
    by_id = np.argsort(order)
    rank = by_id[np.searchsorted(order, ids, sorter=by_id)]
    repaired = np.flatnonzero(disc > 0.0)
    repaired = repaired[np.argsort(rank[repaired], kind="stable")]
    # a stable sort keeps each leaf's rows ascending
    by_leaf = np.argsort(slot, kind="stable")
    ends = np.cumsum(sizes)
    leaves: list[LeafCensus] = []
    for k in repaired.tolist():
        counts = GroupCounts(*joint[k].tolist())
        rows = by_leaf[ends[k] - sizes[k] : ends[k]]
        gc = table.gc_codes[rows]
        if counts.pos >= counts.neg:
            action, p = PROMOTE, promote_count(counts)
            candidates = rows[gc == 3]  # deprived negatives
        else:
            action, p = DEMOTE, demote_count(counts)
            candidates = rows[gc == 0]  # favored positives
        leaves.append(LeafCensus(int(ids[k]), float(disc[k]), action, p, candidates))
    return Census(tuple(leaves), table.fingerprint, tree.digest)


def check_seed(seed: int) -> None:
    """Seeds feed ``np.random.default_rng``, which takes only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def plan(census_: Census, sigma: float, seed: int) -> RelabelPlan:
    """Relabel every censused leaf whose discrimination reaches sigma.

    Each leaf's rows are drawn uniformly without replacement by a generator
    seeded with ``(seed, leaf id)``. A leaf that flips none or all of its
    candidates needs no generator: the sorted draw is then exactly none or all
    of its ascending candidate rows.
    """
    if not 0.0 <= sigma <= 2.0:
        raise ConfigError(f"sigma must lie in [0, 2], got {sigma}")
    check_seed(seed)
    actions: list[LeafAction] = []
    for leaf in census_.leaves:
        if leaf.disc < sigma:
            continue
        if 0 < leaf.count < leaf.candidates.size:
            rng = np.random.default_rng([seed, leaf.leaf_id])
            selected = np.sort(rng.choice(leaf.candidates, size=leaf.count, replace=False))
        else:
            selected = leaf.candidates[: leaf.count]
        actions.append(LeafAction(leaf.leaf_id, leaf.action, leaf.count, tuple(selected.tolist())))
    return RelabelPlan(
        float(sigma), int(seed), tuple(actions), census_.table_fingerprint, census_.tree_digest
    )


def _check_table(plan_: RelabelPlan, fingerprint: str) -> None:
    if plan_.table_fingerprint != fingerprint:
        raise DataError(
            "refusing to apply: the plan was built against a different table "
            f"(plan {plan_.table_fingerprint}, table {fingerprint})"
        )


def relabeled_mask(plan_: RelabelPlan, table: DataTable) -> np.ndarray:
    """The table's positive mask after the plan's flips; any plan error raises DataError.

    The first error in plan order is raised: a plan built against another
    table, a row outside the table or listed twice, then, action by action, an
    unknown action or a row that is not the action's source class.
    """
    _check_table(plan_, table.fingerprint)
    return _flipped(plan_, table)


def _flipped(plan_: RelabelPlan, table: DataTable) -> np.ndarray:
    """``relabeled_mask`` of a plan whose table fingerprint is checked."""
    acts = plan_.actions
    sizes = [len(act.row_ids) for act in acts]
    listed = [r for act in acts for r in act.row_ids]
    # checked before numpy holds the ids, since a read plan's ids can exceed int64
    bad = next((r for r in listed if not 0 <= r < table.n_rows), None)
    if bad is not None:
        raise DataError(f"plan row {bad} is outside the table's {table.n_rows} rows")
    listed = np.array(listed, dtype=np.int64)
    uniq, seen = np.unique(listed, return_counts=True)
    if (seen > 1).any():
        raise DataError(f"plan lists row {int(uniq[seen > 1][0])} more than once")
    known = np.array([act.action in (PROMOTE, DEMOTE) for act in acts], dtype=bool)
    promoted = np.repeat(np.array([act.action == PROMOTE for act in acts], dtype=bool), sizes)
    favored, positive = table.favored_mask[listed], table.positive_mask[listed]
    # only a deprived negative may be promoted and only a favored positive demoted
    illegal = np.repeat(known, sizes) & np.where(promoted, favored | positive, ~(favored & positive))
    if illegal.any() or not known.all():
        row, unknown = np.flatnonzero(illegal)[:1].tolist(), np.flatnonzero(~known)[:1].tolist()
        # an unknown action comes first unless an illegal row is listed before its rows
        if unknown and (not row or sum(sizes[: unknown[0]]) <= row[0]):
            raise DataError(f"unknown action {acts[unknown[0]].action!r}")
        i = row[0]
        which = "promote target is not a deprived negative" if promoted[i] else \
            "demote target is not a favored positive"
        raise DataError(f"row {int(listed[i])}: {which}")
    out = table.positive_mask.copy()
    out[listed] = promoted
    return out


def check_plan(plan_: RelabelPlan, tree: FairTree, table: DataTable) -> np.ndarray:
    """The relabeled mask of a read plan that passes, else a DataError naming
    its first fault, in this order: the tree digest, the table fingerprint, a
    leaf not of the tree, the rows as ``relabeled_mask`` checks them, then the
    census: each action's leaf must reach the plan's sigma and be listed once
    with the census's action and count, its rows ascending and among the leaf's
    candidates, and no such leaf left out. Any ``count`` candidates are a legal
    repair, whatever the seed."""
    if plan_.tree_digest != tree.digest:
        raise DataError(f"the plan was built from a different tree (plan {plan_.tree_digest}, tree {tree.digest})")
    _check_table(plan_, table.fingerprint)
    leaf_ids = set(tree.nodes.leaf_id.tolist()) - {-1}  # an internal node's leaf id is -1
    for i, act in enumerate(plan_.actions):
        if act.leaf_id not in leaf_ids:
            raise DataError(f"plan action {i} names leaf {act.leaf_id}, which is not a leaf of the tree")
    mask = _flipped(plan_, table)
    selected = {leaf.leaf_id: leaf for leaf in census(tree, table).leaves if leaf.disc >= plan_.sigma}
    listed: set[int] = set()
    for i, act in enumerate(plan_.actions):
        where = f"plan action {i} (leaf {act.leaf_id})"
        leaf = selected.get(act.leaf_id)
        if act.leaf_id in listed:
            raise DataError(f"{where} lists a leaf that an earlier action lists")
        if leaf is None:
            raise DataError(f"{where}: the plan's sigma {plan_.sigma} does not relabel the leaf "
                            "(needs disc > 0 and >= sigma)")
        listed.add(act.leaf_id)
        if act.action != leaf.action:
            raise DataError(f"{where}: the leaf needs {leaf.action}, not {act.action}")
        if act.count != leaf.count:
            raise DataError(f"{where}: the leaf needs {leaf.count} flips, not {act.count}")
        if any(a >= b for a, b in zip(act.row_ids, act.row_ids[1:])):
            raise DataError(f"{where}: rows are not in strictly ascending order")
        candidates = set(leaf.candidates.tolist())
        stray = next((r for r in act.row_ids if r not in candidates), None)
        if stray is not None:
            which = "deprived negatives" if leaf.action == PROMOTE else "favored positives"
            raise DataError(f"{where}: row {stray} is not one of the leaf's {which}")
    left_out = [leaf_id for leaf_id in selected if leaf_id not in listed]
    if left_out:
        raise DataError(f"the plan leaves out leaf {left_out[0]}, whose discrimination reaches its sigma "
                        f"{plan_.sigma}")
    return mask


def apply(plan_: RelabelPlan, table: DataTable) -> DataTable:
    """Execute a plan: flip the selected labels, leaving every other cell untouched."""
    return table.with_positive_mask(relabeled_mask(plan_, table))


def plan_to_json(plan_: RelabelPlan) -> str:
    """The plan document, exactly ``json.dumps(doc, indent=1)`` plus a newline:
    ``json`` writes the head, and the actions are written directly, which is
    many times faster than the indenting encoder, pure Python in CPython."""
    doc = {
        "format": PLAN_FORMAT,
        "sigma": plan_.sigma,
        "seed": plan_.seed,
        "row_picker": plan_.row_picker,
        "table_fingerprint": plan_.table_fingerprint,
        "tree_digest": plan_.tree_digest,
        "actions": None,
    }
    head = json.dumps(doc, indent=1).removesuffix("null\n}")
    if not plan_.actions:
        return head + "[]\n}\n"
    return head + "[\n" + ",\n".join(map(_action_json, plan_.actions)) + "\n ]\n}\n"


def _action_json(act: LeafAction) -> str:
    rows = "[\n    " + ",\n    ".join(map(int.__repr__, act.row_ids)) + "\n   ]" if act.row_ids else "[]"
    return (
        f'  {{\n   "leaf": {int.__repr__(act.leaf_id)},\n   "action": {_encode_text(act.action)},\n'
        f'   "count": {int.__repr__(act.count)},\n   "rows": {rows}\n  }}'
    )


def plan_from_json(text: str) -> RelabelPlan:
    """Parse an untrusted plan document; anything malformed raises DataError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed plan document: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != PLAN_FORMAT:
        raise DataError(f"unsupported plan document format {fmt!r}")
    try:
        actions = tuple(
            LeafAction(
                json_typed(a["leaf"], int, "leaf id"),
                json_typed(a["action"], str, "action"),
                json_typed(a["count"], int, "count"),
                tuple(json_typed(r, int, "row id") for r in json_typed(a["rows"], list, "rows")),
            )
            for a in json_typed(doc["actions"], list, "actions")
        )
        sigma = doc["sigma"]
        if type(sigma) not in (int, float) or not 0.0 <= sigma <= 2.0:
            raise DataError(f"plan sigma must be a number in [0, 2], got {sigma!r:.40}")
        plan_ = RelabelPlan(
            float(sigma),
            json_typed(doc["seed"], int, "seed"),
            actions,
            json_typed(doc["table_fingerprint"], str, "table_fingerprint"),
            json_typed(doc["tree_digest"], str, "tree_digest"),
            json_typed(doc["row_picker"], str, "row_picker"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed plan document: {exc}") from exc
    if plan_.seed < 0:  # ``plan`` draws with non-negative seeds only
        raise DataError(f"plan seed must be a non-negative integer, got {plan_.seed}")
    if plan_.row_picker != ROW_PICKER:
        raise DataError(f"unknown row_picker {plan_.row_picker!r:.40}; plans are drawn with {ROW_PICKER}")
    for act in plan_.actions:
        if act.count != len(act.row_ids):
            raise DataError(f"leaf {act.leaf_id}: count does not match listed rows")
    return plan_
