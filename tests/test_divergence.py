import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fairtree.data import GroupCounts
from fairtree.divergence import (
    INELIGIBLE_RATIO,
    LAPLACE,
    TIE_EPS,
    class_probs,
    conditional_divergence,
    divergence_gain,
    e_normalizer,
    entropy_bits,
    fallback_gain,
    gain_ratio,
    histogram,
    kl,
    kl_normalizer,
    outcome_distributions,
    sq_euclid,
)
from fairtree.errors import IntegrityError
from fairtree.tree import _score_block

# Frozen with an arbitrary-precision evaluation of the termwise definition.
KL_75_25_VS_UNIFORM = 0.18872187554086714
KL_90_10_VS_10_90 = 2.535940001153850


def dist(p_pos):
    return (p_pos, 1.0 - p_pos)


def group_probs(counts, laplace):
    return (
        class_probs(counts.fav_pos, counts.n_fav, laplace),
        class_probs(counts.dep_pos, counts.n_dep, laplace),
    )


counts_st = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
).map(lambda t: GroupCounts(*t))


class TestKl:
    def test_identical_distributions_are_zero(self):
        assert kl(dist(0.5), dist(0.5)) == 0.0

    def test_frozen_skewed_vs_uniform(self):
        assert kl(dist(0.75), dist(0.5)) == pytest.approx(KL_75_25_VS_UNIFORM, abs=1e-12)

    def test_frozen_opposed(self):
        assert kl(dist(0.9), dist(0.1)) == pytest.approx(KL_90_10_VS_10_90, abs=1e-12)
        assert kl(dist(0.9), dist(0.1)) == pytest.approx(0.8 * math.log2(9), abs=1e-12)

    def test_zero_in_q_raises_with_laplace_hint(self):
        with pytest.raises(ValueError, match="Laplace"):
            kl(dist(1.0), dist(0.0))

    @given(counts=counts_st)
    def test_gibbs_inequality_on_smoothed_estimates(self, counts):
        f, d = group_probs(counts, laplace=True)
        value = kl(f, d)
        assert value >= 0.0
        if abs(f[0] - d[0]) <= 1e-12:
            assert value <= 1e-12
        else:
            assert value > 0.0

    def test_asymmetric_pairs_exist(self):
        rng = np.random.default_rng(7)
        found = False
        for _ in range(100):
            p, q = dist(rng.uniform(0.05, 0.95)), dist(rng.uniform(0.05, 0.95))
            if abs(kl(p, q) - kl(q, p)) > 1e-6:
                found = True
                break
        assert found


class TestSqEuclid:
    def test_identical(self):
        assert sq_euclid(dist(0.3), dist(0.3)) == 0.0

    def test_maximal_separation(self):
        assert sq_euclid(dist(1.0), dist(0.0)) == 2.0

    def test_hand_value(self):
        assert sq_euclid(dist(0.9), dist(0.6)) == pytest.approx(0.18, abs=1e-12)

    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    def test_symmetry(self, p, q):
        assert sq_euclid(dist(p), dist(q)) == sq_euclid(dist(q), dist(p))


def test_kernels_take_k_outcome_distributions():
    p, q = np.array([0.5, 0.25, 0.25]), np.array([0.25, 0.25, 0.5])
    assert kl(p, q) == pytest.approx(0.25, abs=1e-12)
    assert sq_euclid(p, q) == pytest.approx(0.125, abs=1e-12)


class TestClassProbs:
    def test_raw_pure_groups(self):
        f, d = group_probs(GroupCounts(6, 0, 0, 1), laplace=False)
        assert f == (1.0, 0.0)
        assert d == (0.0, 1.0)

    def test_laplace_add_one(self):
        f, d = group_probs(GroupCounts(6, 0, 0, 1), laplace=True)
        assert f == (7 / 8, 1 / 8)
        assert d == (1 / 3, 2 / 3)

    def test_empty_counts_give_uniform_prior(self):
        f, d = group_probs(GroupCounts(0, 0, 0, 0), laplace=True)
        assert (f[0], d[0]) == (0.5, 0.5)

    def test_empty_group_without_laplace_is_uniform(self):
        _, d = group_probs(GroupCounts(2, 2, 0, 0), laplace=False)
        assert d == (0.5, 0.5)


class TestConditionalDivergence:
    def test_identical_children_zero(self):
        children = [GroupCounts(2, 2, 1, 1), GroupCounts(3, 3, 2, 2)]
        assert conditional_divergence(children, "euclid") == 0.0

    def test_single_child_equals_unconditional(self):
        parent = GroupCounts(5, 2, 1, 3)
        assert conditional_divergence([parent], "kl") == pytest.approx(
            divergence_gain(parent, [parent], "kl") + conditional_divergence([parent], "kl")
        )
        assert divergence_gain(parent, [parent], "kl") == pytest.approx(0.0, abs=1e-15)

    def test_weighted_euclid_hand_value(self):
        children = [GroupCounts(2, 0, 0, 2), GroupCounts(0, 2, 2, 0)]
        assert conditional_divergence(children, "euclid", laplace=False) == pytest.approx(2.0)

    def test_all_empty_children(self):
        assert conditional_divergence([GroupCounts(0, 0, 0, 0)], "euclid") == 0.0


class TestDivergenceGain:
    def test_euclid_hand_value(self):
        parent = GroupCounts(2, 2, 2, 2)
        children = [GroupCounts(2, 0, 0, 2), GroupCounts(0, 2, 2, 0)]
        assert divergence_gain(parent, children, "euclid", laplace=False) == pytest.approx(2.0)

    def test_identical_group_distributions_everywhere(self):
        parent = GroupCounts(4, 4, 2, 2)
        children = [GroupCounts(2, 2, 1, 1), GroupCounts(2, 2, 1, 1)]
        assert divergence_gain(parent, children, "euclid", laplace=False) == 0.0

    def test_non_partition_rejected(self):
        with pytest.raises(IntegrityError):
            divergence_gain(GroupCounts(2, 2, 2, 2), [GroupCounts(1, 1, 1, 1)], "kl")

    @given(
        base=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        mults=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        measure=st.sampled_from(["kl", "euclid"]),
    )
    def test_independent_test_has_zero_gain_raw(self, base, mults, measure):
        # children proportional to the parent: the test carries no class information
        children = [GroupCounts(*(m * b for b in base)) for m in mults]
        parent = GroupCounts(*(sum(mults) * b for b in base))
        assert divergence_gain(parent, children, measure, laplace=False) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_independent_with_laplace_symmetric_supports(self):
        parent = GroupCounts(4, 4, 4, 4)
        children = [GroupCounts(2, 2, 2, 2), GroupCounts(2, 2, 2, 2)]
        assert divergence_gain(parent, children, "kl") == pytest.approx(0.0, abs=1e-12)

    @given(counts=counts_st, measure=st.sampled_from(["kl", "euclid"]))
    def test_unequal_group_distributions_give_positive_divergence(self, counts, measure):
        f, d = group_probs(counts, laplace=True)
        if abs(f[0] - d[0]) < 1e-9:
            return
        assert conditional_divergence([counts], measure, laplace=True) > 0.0


class TestNormalizers:
    def test_kl_deprived_absent_reduces_to_split_information(self):
        parent = GroupCounts(6, 2, 0, 0)
        fav, dep = outcome_distributions(np.array([4, 4]), np.array([0, 0]), laplace=LAPLACE["kl"])
        value = kl_normalizer(parent, fav, dep)
        assert value == pytest.approx(entropy_bits(fav))

    def test_kl_identical_even_split_is_one(self):
        parent = GroupCounts(2, 2, 2, 2)
        fav, dep = outcome_distributions(np.array([2, 2]), np.array([2, 2]), laplace=LAPLACE["kl"])
        assert kl_normalizer(parent, fav, dep) == pytest.approx(1.0)

    def test_single_outcome_normalizer_zero_skips_candidate(self):
        parent = GroupCounts(3, 1, 2, 2)
        fav, dep = outcome_distributions(np.array([4]), np.array([4]), laplace=LAPLACE["kl"])
        value = kl_normalizer(parent, fav, dep)
        assert value == pytest.approx(0.0)
        assert gain_ratio(0.3, value) == INELIGIBLE_RATIO

    def test_e_identical_even_split(self):
        parent = GroupCounts(2, 2, 2, 2)
        fav, dep = outcome_distributions(np.array([2, 2]), np.array([2, 2]), laplace=LAPLACE["euclid"])
        assert e_normalizer(parent, fav, dep) == pytest.approx(0.5)

    def test_e_deprived_absent(self):
        parent = GroupCounts(5, 3, 0, 0)
        fav, dep = outcome_distributions(np.array([5, 3]), np.array([0, 0]), laplace=LAPLACE["euclid"])
        from fairtree.divergence import gini

        assert e_normalizer(parent, fav, dep) == pytest.approx(gini(fav))

    def test_e_single_outcome_zero(self):
        parent = GroupCounts(3, 1, 2, 2)
        fav, dep = outcome_distributions(np.array([4]), np.array([4]), laplace=LAPLACE["euclid"])
        assert e_normalizer(parent, fav, dep) == pytest.approx(0.0)


class TestGainRatio:
    def test_plain_division(self):
        assert gain_ratio(0.4, 0.8) == 0.5

    def test_vanishing_normalizer_guard(self):
        assert gain_ratio(0.4, 1e-12) == INELIGIBLE_RATIO

    def test_zero_gain(self):
        assert gain_ratio(0.0, 0.7) == 0.0


class TestFallbackGain:
    def test_perfect_split_equals_parent_entropy(self):
        parent = GroupCounts(0, 0, 2, 2)
        children = [GroupCounts(0, 0, 2, 0), GroupCounts(0, 0, 0, 2)]
        assert fallback_gain(parent, children, "kl") == pytest.approx(1.0)

    def test_class_independent_split_is_zero(self):
        parent = GroupCounts(0, 0, 4, 4)
        children = [GroupCounts(0, 0, 2, 2), GroupCounts(0, 0, 2, 2)]
        assert fallback_gain(parent, children, "kl") == pytest.approx(0.0)

    def test_euclid_mode_gini_gain(self):
        parent = GroupCounts(2, 2, 0, 0)
        children = [GroupCounts(2, 0, 0, 0), GroupCounts(0, 2, 0, 0)]
        assert fallback_gain(parent, children, "euclid") == pytest.approx(0.5)

    def test_both_groups_present_is_contract_violation(self):
        with pytest.raises(IntegrityError):
            fallback_gain(GroupCounts(1, 1, 1, 1), [GroupCounts(1, 1, 1, 1)], "kl")


# -- oracle equivalence --------------------------------------------------------


@st.composite
def children_partitions(draw):
    n_children = draw(st.integers(1, 3))
    children = []
    for _ in range(n_children):
        children.append(
            GroupCounts(
                draw(st.integers(0, 4)),
                draw(st.integers(0, 4)),
                draw(st.integers(0, 4)),
                draw(st.integers(0, 4)),
            )
        )
    total = GroupCounts(0, 0, 0, 0)
    for c in children:
        total = total + c
    return total, children


@given(part=children_partitions(), measure=st.sampled_from(["kl", "euclid"]))
@settings(max_examples=300)
def test_gain_matches_termwise_oracle(part, measure):
    parent, children = part
    if parent.n == 0:
        return
    if parent.n_fav == 0 or parent.n_dep == 0:
        return  # fallback regime, covered elsewhere
    ours = divergence_gain(parent, children, measure)
    ref = oracle.gain(parent.as_tuple(), [c.as_tuple() for c in children], measure)
    assert ours == pytest.approx(ref, abs=1e-10)


@given(part=children_partitions(), measure=st.sampled_from(["kl", "euclid"]))
@settings(max_examples=300)
def test_normalizer_matches_termwise_oracle(part, measure):
    parent, children = part
    if parent.n == 0:
        return
    fav = np.array([c.n_fav for c in children])
    dep = np.array([c.n_dep for c in children])
    fav_dist, dep_dist = outcome_distributions(fav, dep, laplace=LAPLACE[measure])
    if measure == "kl":
        ours = kl_normalizer(parent, fav_dist, dep_dist)
    else:
        ours = e_normalizer(parent, fav_dist, dep_dist)
    ref = oracle.normalizer(parent.as_tuple(), [c.as_tuple() for c in children], measure)
    assert ours == pytest.approx(ref, abs=1e-10)


# -- the batch kernel against the oracle ----------------------------------------

GROUP_SLOTS = {"both": (0, 1, 2, 3), "favored only": (0, 1), "deprived only": (2, 3)}


@st.composite
def node_batches(draw):
    """Rows of a few nodes as (group-class slot, outcome code per attribute).

    Attributes declare 1-4 outcomes and are padded to the widest, so the
    count tensor has single-outcome attributes, padded outcomes no row takes,
    one-group (fallback) nodes and children where a group is empty.
    """
    outcome_counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        slots = GROUP_SLOTS[draw(st.sampled_from(sorted(GROUP_SLOTS)))]
        rows = draw(st.lists(
            st.tuples(st.sampled_from(slots), st.tuples(*(st.integers(0, k - 1) for k in outcome_counts))),
            min_size=1, max_size=12,
        ))
        candidates = draw(st.lists(st.booleans(), min_size=len(outcome_counts),
                                   max_size=len(outcome_counts)).filter(any))
        nodes.append((rows, candidates))
    return outcome_counts, nodes


@given(batch=node_batches(), measure=st.sampled_from(["kl", "euclid"]))
@settings(max_examples=300)
def test_score_splits_matches_the_oracle(batch, measure):
    # ``build``'s block scorer, run on the batch's rows once with every
    # attribute open and once with each node's candidates only
    outcome_counts, nodes = batch
    n_attrs, width = len(outcome_counts), max(outcome_counts)
    gc = np.array([slot for rows, _ in nodes for slot, _ in rows])
    codes = np.array([c for rows, _ in nodes for _, c in rows])
    node = np.repeat(np.arange(len(nodes)), [len(rows) for rows, _ in nodes])
    parent = np.bincount(node * 4 + gc, minlength=4 * len(nodes)).reshape(-1, 4)
    candidates = np.array([c for _, c in nodes])
    every = _score_block(codes, gc, node, parent, np.ones_like(candidates), width, measure)[0]
    scores = _score_block(codes, gc, node, parent, candidates, width, measure)[0]

    for i, (rows, cand) in enumerate(nodes):
        oracle_rows = [codes + (slot < 2, slot % 2 == 0) for slot, codes in rows]
        for a in range(n_attrs):
            ref = oracle.split_metrics(oracle_rows, a, n_attrs, measure)
            for s in (every, scores) if cand[a] else (every,):
                assert s.raw_gain[i, a] == pytest.approx(ref["raw_gain"], abs=1e-10)
                assert s.normalizer[i, a] == pytest.approx(ref["normalizer"], abs=1e-10)
        # eligibility and the choice follow the contract's rules on the kernel's own scores
        gains = [scores.raw_gain[i, a] for a in range(n_attrs) if cand[a]]
        mean_gain = sum(gains) / len(gains)
        eligible = [cand[a] and scores.raw_gain[i, a] >= mean_gain for a in range(n_attrs)]
        assert scores.eligible[i].tolist() == eligible
        for a in range(n_attrs):
            assert scores.ratio[i, a] == gain_ratio(scores.raw_gain[i, a], scores.normalizer[i, a])
        best = max((scores.ratio[i, a] for a in range(n_attrs) if eligible[a]), default=INELIGIBLE_RATIO)
        picks = [a for a in range(n_attrs)
                 if eligible[a] and scores.ratio[i, a] > 0.0 and scores.ratio[i, a] >= best - TIE_EPS]
        assert scores.choice[i] == (picks[0] if best > 0.0 else -1)


@given(data=st.data())
def test_histogram_counts_each_marked_cell_toward_its_pair(data):
    rows, attrs, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n_pairs = data.draw(st.integers(1, 6))
    cell = st.lists(st.integers(0, width - 1), min_size=attrs, max_size=attrs)
    codes = np.array(data.draw(st.lists(cell, min_size=rows, max_size=rows)), dtype=np.uint8)
    gc = np.array(data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))
    marks = st.lists(st.integers(-1, n_pairs - 1), min_size=attrs, max_size=attrs)
    pair = np.array(data.draw(st.lists(marks, min_size=rows, max_size=rows)), dtype=np.int32)
    expected = np.zeros((4, width, n_pairs), dtype=np.int64)
    for r in range(rows):
        for a in range(attrs):
            if pair[r, a] >= 0:  # an unmarked cell belongs to no scored pair
                expected[gc[r], codes[r, a], pair[r, a]] += 1
    assert np.array_equal(histogram(codes, gc, pair, n_pairs, width), expected)
