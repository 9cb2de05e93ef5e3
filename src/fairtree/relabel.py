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

import numpy as np

from .data import DataTable, GroupCounts, json_typed
from .errors import ConfigError, DataError
from .tree import FairTree, route

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
    # leaf_disc over every routed leaf at once, in its operation order
    fav_pos, fav_neg, dep_pos, dep_neg = joint.T
    n_fav, n_dep = fav_pos + fav_neg, dep_pos + dep_neg
    f_pos = fav_pos / np.maximum(n_fav, 1)
    d_pos = dep_pos / np.maximum(n_dep, 1)
    disc = np.where((n_fav > 0) & (n_dep > 0), (f_pos - d_pos) + ((1.0 - d_pos) - (1.0 - f_pos)), 0.0)
    # discriminatory leaves in tree leaf order
    order = np.fromiter((leaf.id for leaf in tree.leaves()), np.int64)
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
    seeded with ``(seed, leaf id)``.
    """
    if not 0.0 <= sigma <= 2.0:
        raise ConfigError(f"sigma must lie in [0, 2], got {sigma}")
    check_seed(seed)
    actions: list[LeafAction] = []
    for leaf in census_.leaves:
        if leaf.disc < sigma:
            continue
        rng = np.random.default_rng([seed, leaf.leaf_id])
        selected = np.sort(rng.choice(leaf.candidates, size=leaf.count, replace=False))
        actions.append(LeafAction(leaf.leaf_id, leaf.action, leaf.count, tuple(int(r) for r in selected)))
    return RelabelPlan(
        float(sigma), int(seed), tuple(actions), census_.table_fingerprint, census_.tree_digest
    )


def apply(plan_: RelabelPlan, table: DataTable) -> DataTable:
    """Execute a plan: flip the selected labels, leaving every other cell untouched."""
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
        if act.action == PROMOTE:
            wrong = rows[favored[rows] | positive[rows]]
            if wrong.size:
                raise DataError(f"row {int(wrong[0])}: promote target is not a deprived negative")
            positive[rows] = True
        elif act.action == DEMOTE:
            wrong = rows[~favored[rows] | ~positive[rows]]
            if wrong.size:
                raise DataError(f"row {int(wrong[0])}: demote target is not a favored positive")
            positive[rows] = False
        else:
            raise DataError(f"unknown action {act.action!r}")
    return table.with_positive_mask(positive)


def plan_to_json(plan_: RelabelPlan) -> str:
    doc = {
        "format": PLAN_FORMAT,
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
                a["action"],
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
    if plan_.row_picker != ROW_PICKER:
        raise DataError(f"unknown row_picker {plan_.row_picker!r:.40}; plans are drawn with {ROW_PICKER}")
    for act in plan_.actions:
        if act.action not in (PROMOTE, DEMOTE):
            raise DataError(f"unknown action {act.action!r} in plan")
        if act.count != len(act.row_ids):
            raise DataError(f"leaf {act.leaf_id}: count does not match listed rows")
    return plan_
