"""Divergence kernels and split scoring for favored/deprived group distributions.

All logarithms are base 2, so entropies and KL values are in bits. ``LAPLACE``
says which measures estimate distributions with add-one smoothing, which keeps
every probability strictly inside (0, 1); the others use raw frequencies. An
empty group yields the uniform distribution, the zero-support limit of add-one
smoothing; this is also what makes the empty-group fallbacks coincide with
classical entropy/Gini gain.

Everything here works on arrays. ``pair_scores`` scores any set of
(node, attribute) pairs at once, ``select`` makes each node's choice from
those scores, and ``score_splits`` runs both over every attribute of many
nodes from one count tensor; the single-node
helpers below it (``divergence_gain``, ``fallback_gain``, the normalizers)
are views over the same functions. Categories come first: a distribution
runs over axis 0 (classes or outcomes), and a count array's axis 0 is the
group-class slot (fav_pos, fav_neg, dep_pos, dep_neg). Every sum over
classes, outcomes or attributes adds in index order, as Python's ``sum``
does: numpy's pairwise reductions round differently, and a last-bit change
can move a gain across the mean-gain test or a ratio across ``TIE_EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupCounts
from .errors import IntegrityError

#: Whether each measure estimates class distributions with add-one smoothing.
#: KL must smooth: a raw zero where the other group's frequency is positive
#: makes it infinite. Squared Euclid is finite on raw frequencies.
LAPLACE = {"kl": True, "euclid": False}

MEASURES = tuple(LAPLACE)

#: Normalizers below this are treated as zero and make a candidate ineligible,
#: since dividing by a vanishing normalizer would inflate worthless tests.
NORMALIZER_EPS = 1e-9

#: Ratio assigned to candidates whose normalizer vanished.
INELIGIBLE_RATIO = float("-inf")

#: Ratio differences at or below this are ties, broken by declaration order.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class SplitEvaluation:
    """Scored candidate attribute at a node."""

    attribute: str
    raw_gain: float
    normalizer: float
    ratio: float
    eligible: bool


@dataclass(frozen=True)
class SplitScores:
    """Scores of every candidate attribute at a batch of nodes, indexed [node, attribute]."""

    raw_gain: np.ndarray
    normalizer: np.ndarray
    ratio: np.ndarray
    eligible: np.ndarray
    choice: np.ndarray  # [node]: index of the chosen attribute, -1 for a leaf


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise IntegrityError(f"unknown divergence measure {measure!r}")


def _ordered_sum(terms) -> np.ndarray:
    """Sum over axis 0, adding in index order."""
    return np.add.accumulate(np.asarray(terms, dtype=float), axis=0)[-1]


def class_probs(pos, n, laplace: bool):
    """One group's (p_pos, p_neg) per entry; add-one over the two classes when smoothing."""
    pos, n = np.asarray(pos), np.asarray(n)
    if laplace:
        probs = ((pos + 1) / (n + 2), (n - pos + 1) / (n + 2))
    else:
        safe = np.maximum(n, 1)
        probs = (np.where(n == 0, 0.5, pos / safe), np.where(n == 0, 0.5, (n - pos) / safe))
    if (np.abs(probs[0] + probs[1] - 1.0) > 1e-12).any():
        raise IntegrityError("class distribution does not sum to 1")
    return probs


def kl(p, q):
    """Directed divergence sum p_i * log2(p_i / q_i); nonnegative, 0 iff p == q."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    support = p > 0.0
    if (support & (q <= 0.0)).any():
        raise ValueError(
            "KL divergence is infinite when q has a zero where p is positive; "
            "apply Laplace correction to the distributions"
        )
    return _ordered_sum(p * np.log2(np.divide(p, q, out=np.ones_like(p), where=support)))


def sq_euclid(p, q):
    """Squared Euclidean distance between the distributions; symmetric, in [0, 2]."""
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return _ordered_sum(d * d)


def entropy_bits(probs):
    """Shannon entropy in bits; zero-probability terms contribute nothing."""
    p = np.asarray(probs, dtype=float)
    return -_ordered_sum(p * np.log2(np.where(p > 0.0, p, 1.0)))


def gini(probs):
    p = np.asarray(probs, dtype=float)
    return 1.0 - _ordered_sum(p * p)


#: Per measure: the distance between two distributions, and the impurity of one.
_DISTANCE = {"kl": kl, "euclid": sq_euclid}
_IMPURITY = {"kl": entropy_bits, "euclid": gini}


# -- gains: parent counts are [4, ...], children [4, outcome, ...] ----------------


def _group_divergence(counts: np.ndarray, measure: str, laplace: bool) -> np.ndarray:
    fav_pos, fav_neg, dep_pos, dep_neg = counts
    fav = class_probs(fav_pos, fav_pos + fav_neg, laplace)
    dep = class_probs(dep_pos, dep_pos + dep_neg, laplace)
    return _DISTANCE[measure](fav, dep)


def _conditional_divergence(children: np.ndarray, measure: str, laplace: bool) -> np.ndarray:
    """Child divergences weighted by their share of the rows."""
    sizes = children.sum(0)
    weights = sizes / np.maximum(sizes.sum(0), 1)
    terms = np.where(sizes > 0, weights * _group_divergence(children, measure, laplace), 0.0)
    return _ordered_sum(terms)


def _two_group_gain(parent, children, measure: str, laplace: bool) -> np.ndarray:
    """Divergence after the split minus divergence before; may be negative."""
    after = _conditional_divergence(children, measure, laplace)
    return after - _group_divergence(parent, measure, laplace)


def _single_group_gain(parent, children, measure: str) -> np.ndarray:
    """Entropy (KL) or Gini (Euclid) gain over the one present group's class
    labels, on raw frequencies; the absent group's counts are all zero."""

    def impurity(counts):
        fav_pos, fav_neg, dep_pos, dep_neg = counts
        pos, neg = fav_pos + dep_pos, fav_neg + dep_neg
        n = pos + neg
        safe = np.maximum(n, 1)
        return n, np.where(n > 0, _IMPURITY[measure]((pos / safe, neg / safe)), 0.0)

    n, before = impurity(parent)
    sizes, after = impurity(children)
    return before - _ordered_sum(np.where(sizes > 0, sizes / n * after, 0.0))


# -- outcome distributions and normalizers -------------------------------------


def outcome_distributions(fav_counts, dep_counts, laplace: bool, observed=None):
    """Per-group distributions over a test's observed outcomes (add-one over the
    k observed ones); outcomes outside ``observed`` get probability 0."""
    fav = np.asarray(fav_counts, dtype=float)
    dep = np.asarray(dep_counts, dtype=float)
    if observed is None:
        observed = np.ones(fav.shape, dtype=bool)
    k = observed.sum(0)

    def norm(c: np.ndarray) -> np.ndarray:
        n = c.sum(0)
        if laplace:
            dist = (c + 1.0) / (n + k)
        else:
            dist = np.where(n == 0, 1.0 / k, c / np.maximum(n, 1))
        return np.where(observed, dist, 0.0)

    return norm(fav), norm(dep)


def _normalizer(measure: str, n_fav, n_dep, fav_dist, dep_dist) -> np.ndarray:
    """Split-information denominator. The node sizes broadcast against the
    distributions' axes after the outcome axis.

    For KL, the group-proportion entropy weight damps the group-separation
    penalty when one group dominates the node; the remaining terms charge
    tests for their branching factor, per group. Euclid uses Gini throughout.
    """
    n = n_fav + n_dep
    wf, wd = n_fav / n, n_dep / n
    impurity = _IMPURITY[measure]
    spread = impurity((wf, wd))
    value = np.where(spread > 0.0, spread * _DISTANCE[measure](fav_dist, dep_dist), 0.0)
    value = np.where(wf > 0.0, value + wf * impurity(fav_dist), value)
    return np.where(wd > 0.0, value + wd * impurity(dep_dist), value)


def gain_ratio(raw_gain, normalizer):
    """Normalized gain; a vanishing normalizer marks the candidate ineligible."""
    vanished = np.asarray(normalizer) < NORMALIZER_EPS
    return np.where(vanished, INELIGIBLE_RATIO, raw_gain / np.where(vanished, 1.0, normalizer))[()]


# -- the batch kernel -----------------------------------------------------------


def choose(ratio: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Per node, the first eligible attribute whose strictly positive ratio is
    within TIE_EPS of the best eligible ratio; -1 when no eligible ratio is positive."""
    best = np.where(eligible, ratio, INELIGIBLE_RATIO).max(axis=-1)
    picked = eligible & (ratio > 0.0) & (ratio >= np.asarray(best - TIE_EPS)[..., None])
    return np.where(best > 0.0, picked.argmax(axis=-1), -1)


def histogram(codes: np.ndarray, gc: np.ndarray, node: np.ndarray, n_nodes: int, width: int):
    """The count tensor ``score_splits`` takes, from one bincount over rows.

    ``codes[r, a]`` is row r's outcome code on attribute a (below ``width``),
    ``gc[r]`` its group-class slot and ``node[r]`` its node in 0..n_nodes-1.
    """
    n_attrs = codes.shape[1]
    keys = ((gc[:, None] * width + codes) * n_nodes + node[:, None]) * n_attrs + np.arange(n_attrs)
    counts = np.bincount(keys.ravel(), minlength=4 * width * n_nodes * n_attrs)
    return counts.reshape(4, width, n_nodes, n_attrs)


def pair_scores(parent, counts, measure: str) -> tuple[np.ndarray, np.ndarray]:
    """Raw gain and normalizer of candidate tests, one per pair (node, attribute).

    ``counts[s, k, p]`` counts the rows of pair p's node in group-class slot s
    (fav_pos, fav_neg, dep_pos, dep_neg) whose attribute takes outcome k, and
    ``parent[s, p]`` counts the node's own rows. Each pair is scored on its
    own, so a subset of pairs scores as it does among all of them. Nodes where
    one group is absent fall back to the single-group entropy/Gini gain.
    """
    _check_measure(measure)
    if (counts.sum(axis=1) != parent).any():
        raise IntegrityError("children do not partition the parent's rows")
    laplace = LAPLACE[measure]
    n_fav, n_dep = parent[0] + parent[1], parent[2] + parent[3]
    one = (n_fav == 0) | (n_dep == 0)
    raw_gain = np.empty(one.shape)
    if one.any():
        raw_gain[one] = _single_group_gain(parent[:, one], counts[:, :, one], measure)
    if not one.all():
        two = ~one
        raw_gain[two] = _two_group_gain(parent[:, two], counts[:, :, two], measure, laplace)

    fav_out, dep_out = counts[0] + counts[1], counts[2] + counts[3]
    dists = outcome_distributions(fav_out, dep_out, laplace, observed=(fav_out + dep_out) > 0)
    return raw_gain, _normalizer(measure, n_fav, n_dep, *dists)


def select(raw_gain, normalizer, candidates) -> SplitScores:
    """Gain ratios, eligibility and the choice per node, from scores indexed
    [node, attribute]; only the entries of ``candidates`` are read. A
    candidate is eligible only when its raw gain reaches the average raw gain
    over the node's candidates, which stops near-zero normalizers from
    inflating weak tests."""
    ratio = gain_ratio(raw_gain, normalizer)
    mean_gain = _ordered_sum(np.where(candidates, raw_gain, 0.0).T) / candidates.sum(-1)
    eligible = candidates & (raw_gain >= mean_gain[:, None])
    return SplitScores(raw_gain, normalizer, ratio, eligible, choose(ratio, eligible))


def score_splits(parent, counts, candidates, measure: str) -> SplitScores:
    """Score every attribute of many nodes at once: ``counts[s, k, i, a]``
    counts node i's rows in slot s whose attribute a takes outcome k,
    ``parent[s, i]`` node i's own rows, and ``candidates[i, a]`` marks the
    attributes still open at node i, in declaration order."""
    n_nodes, n_attrs = candidates.shape
    raw_gain, normalizer = pair_scores(
        np.repeat(parent, n_attrs, axis=1), counts.reshape(4, counts.shape[1], -1), measure
    )
    return select(raw_gain.reshape(n_nodes, n_attrs), normalizer.reshape(n_nodes, n_attrs), candidates)


# -- one-node views --------------------------------------------------------------


def _stacked(groups: list[GroupCounts]) -> np.ndarray:
    """[4, len(groups)] counts, group-class slot first."""
    return np.array([g.as_tuple() for g in groups], dtype=np.int64).reshape(-1, 4).T


def _children_counts(parent: GroupCounts, children: list[GroupCounts]) -> np.ndarray:
    counts = _stacked(children)
    if tuple(counts.sum(axis=1)) != parent.as_tuple():
        raise IntegrityError("children do not partition the parent's rows")
    return counts


def conditional_divergence(
    children: list[GroupCounts], measure: str, laplace: bool | None = None
) -> float:
    """Divergence after a split: child divergences weighted by combined row share."""
    _check_measure(measure)
    laplace = LAPLACE[measure] if laplace is None else laplace
    return float(_conditional_divergence(_stacked(children), measure, laplace))


def divergence_gain(
    parent: GroupCounts, children: list[GroupCounts], measure: str, laplace: bool | None = None
) -> float:
    """Divergence after the split minus divergence before; may be negative."""
    _check_measure(measure)
    laplace = LAPLACE[measure] if laplace is None else laplace
    counts = _children_counts(parent, children)
    return float(_two_group_gain(np.array(parent.as_tuple()), counts, measure, laplace))


def fallback_gain(parent: GroupCounts, children: list[GroupCounts], measure: str) -> float:
    """Single-group gain used when exactly one group is absent at a node.

    Reduces the criterion to classical entropy gain (KL mode) or Gini gain
    (Euclid mode) over the present group's class labels, on raw frequencies.
    """
    _check_measure(measure)
    if (parent.n_fav == 0) == (parent.n_dep == 0):
        raise IntegrityError("fallback gain requires exactly one empty group")
    counts = _children_counts(parent, children)
    return float(_single_group_gain(np.array(parent.as_tuple()), counts, measure))


def kl_normalizer(parent: GroupCounts, fav_dist, dep_dist) -> float:
    """Split-information denominator for the KL criterion."""
    return float(_normalizer("kl", parent.n_fav, parent.n_dep, fav_dist, dep_dist)) if parent.n else 0.0


def e_normalizer(parent: GroupCounts, fav_dist, dep_dist) -> float:
    """Split-information denominator for the Euclid criterion (Gini throughout)."""
    return float(_normalizer("euclid", parent.n_fav, parent.n_dep, fav_dist, dep_dist)) if parent.n else 0.0
