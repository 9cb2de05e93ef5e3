"""Divergence kernels and split scoring for favored/deprived group distributions.

All logarithms are base 2, so entropies and KL values are in bits. ``LAPLACE``
says which measures estimate distributions with add-one smoothing, which keeps
every probability strictly inside (0, 1); the others use raw frequencies. An
empty group yields the uniform distribution, the zero-support limit of add-one
smoothing; this is also what makes the empty-group fallbacks coincide with
classical entropy/Gini gain.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class SplitEvaluation:
    """Scored candidate attribute at a node."""

    attribute: str
    raw_gain: float
    normalizer: float
    ratio: float
    eligible: bool


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise IntegrityError(f"unknown divergence measure {measure!r}")


def class_probs(pos: int, n: int, laplace: bool) -> tuple[float, float]:
    """One group's (p_pos, p_neg); add-one over the two classes when smoothing."""
    if laplace:
        probs = ((pos + 1) / (n + 2), (n - pos + 1) / (n + 2))
    elif n == 0:
        probs = (0.5, 0.5)
    else:
        probs = (pos / n, (n - pos) / n)
    if abs(probs[0] + probs[1] - 1.0) > 1e-12:
        raise IntegrityError(f"class distribution does not sum to 1: {probs}")
    return probs


def kl(p, q) -> float:
    """Directed divergence sum p_i * log2(p_i / q_i); nonnegative, 0 iff p == q."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                raise ValueError(
                    "KL divergence is infinite when q has a zero where p is positive; "
                    "apply Laplace correction to the distributions"
                )
            total += pi * math.log2(pi / qi)
    return total


def sq_euclid(p, q) -> float:
    """Squared Euclidean distance between the distributions; symmetric, in [0, 2]."""
    return float(sum((pi - qi) ** 2 for pi, qi in zip(p, q)))


def _divergence(counts: GroupCounts, measure: str, laplace: bool) -> float:
    fav = class_probs(counts.fav_pos, counts.n_fav, laplace)
    dep = class_probs(counts.dep_pos, counts.n_dep, laplace)
    return kl(fav, dep) if measure == "kl" else sq_euclid(fav, dep)


def conditional_divergence(
    children: list[GroupCounts], measure: str, laplace: bool | None = None
) -> float:
    """Divergence after a split: child divergences weighted by combined row share."""
    _check_measure(measure)
    if laplace is None:
        laplace = LAPLACE[measure]
    total = sum(c.n for c in children)
    if total == 0:
        return 0.0
    return sum((c.n / total) * _divergence(c, measure, laplace) for c in children if c.n > 0)


def divergence_gain(
    parent: GroupCounts, children: list[GroupCounts], measure: str, laplace: bool | None = None
) -> float:
    """Divergence after the split minus divergence before; may be negative."""
    _check_measure(measure)
    if laplace is None:
        laplace = LAPLACE[measure]
    summed = GroupCounts(0, 0, 0, 0)
    for c in children:
        summed = summed + c
    if summed != parent:
        raise IntegrityError("children do not partition the parent's rows")
    return conditional_divergence(children, measure, laplace) - _divergence(parent, measure, laplace)


# -- outcome distributions and normalizers -------------------------------------


def entropy_bits(probs) -> float:
    """Shannon entropy in bits; zero-probability terms contribute nothing."""
    return float(-sum(p * math.log2(p) for p in probs if p > 0.0))


def gini(probs) -> float:
    return float(1.0 - sum(p * p for p in probs))


def outcome_distributions(
    fav_counts: np.ndarray, dep_counts: np.ndarray, laplace: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group distributions over a test's outcomes (add-one over k outcomes)."""
    fav = np.asarray(fav_counts, dtype=float)
    dep = np.asarray(dep_counts, dtype=float)
    k = fav.size

    def norm(c: np.ndarray) -> np.ndarray:
        n = c.sum()
        if laplace:
            return (c + 1.0) / (n + k)
        if n == 0:
            return np.full(k, 1.0 / k)
        return c / n

    return norm(fav), norm(dep)


def kl_normalizer(parent: GroupCounts, fav_dist: np.ndarray, dep_dist: np.ndarray) -> float:
    """Split-information denominator for the KL criterion.

    The group-proportion entropy weight damps the group-separation penalty
    when one group dominates the node; the remaining terms charge tests for
    their branching factor, per group.
    """
    n = parent.n
    if n == 0:
        return 0.0
    wf, wd = parent.n_fav / n, parent.n_dep / n
    h_groups = entropy_bits((wf, wd))
    value = h_groups * kl(fav_dist, dep_dist) if h_groups > 0.0 else 0.0
    if wf > 0.0:
        value += wf * entropy_bits(fav_dist)
    if wd > 0.0:
        value += wd * entropy_bits(dep_dist)
    return value


def e_normalizer(parent: GroupCounts, fav_dist: np.ndarray, dep_dist: np.ndarray) -> float:
    """Split-information denominator for the Euclid criterion (Gini throughout)."""
    n = parent.n
    if n == 0:
        return 0.0
    wf, wd = parent.n_fav / n, parent.n_dep / n
    g_groups = gini((wf, wd))
    value = g_groups * sq_euclid(fav_dist, dep_dist) if g_groups > 0.0 else 0.0
    if wf > 0.0:
        value += wf * gini(fav_dist)
    if wd > 0.0:
        value += wd * gini(dep_dist)
    return value


def gain_ratio(raw_gain: float, normalizer: float) -> float:
    """Normalized gain; a vanishing normalizer marks the candidate ineligible."""
    if normalizer < NORMALIZER_EPS:
        return INELIGIBLE_RATIO
    return raw_gain / normalizer


def fallback_gain(parent: GroupCounts, children: list[GroupCounts], measure: str) -> float:
    """Single-group gain used when exactly one group is absent at a node.

    Reduces the criterion to classical entropy gain (KL mode) or Gini gain
    (Euclid mode) over the present group's class labels, on raw frequencies.
    """
    _check_measure(measure)
    fav_empty, dep_empty = parent.n_fav == 0, parent.n_dep == 0
    if fav_empty == dep_empty:
        raise IntegrityError("fallback gain requires exactly one empty group")

    def pair(c: GroupCounts) -> tuple[int, int]:
        return (c.dep_pos, c.dep_neg) if fav_empty else (c.fav_pos, c.fav_neg)

    impurity = entropy_bits if measure == "kl" else gini

    def node_impurity(pos: int, neg: int) -> float:
        n = pos + neg
        return impurity((pos / n, neg / n)) if n else 0.0

    pos, neg = pair(parent)
    n = pos + neg
    before = node_impurity(pos, neg)
    after = 0.0
    for c in children:
        cp, cn = pair(c)
        if cp + cn:
            after += (cp + cn) / n * node_impurity(cp, cn)
    return before - after
