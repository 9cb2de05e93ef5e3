import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import relabel_bound, toy_table
from fairtree.data import GroupCounts, group_counts
from fairtree.errors import ConfigError, DataError
from fairtree.relabel import (
    DEMOTE,
    PROMOTE,
    Census,
    LeafAction,
    LeafCensus,
    RelabelPlan,
    apply,
    census,
    demote_count,
    plan,
    plan_from_json,
    plan_to_json,
    promote_count,
    relabeled_mask,
)
from fairtree.tree import build, deserialize, leaf_disc, route, serialize
from test_tree import small_tables


class TestPromoteCount:
    def test_pure_leaf_promotes_the_single_negative(self):
        c = GroupCounts(6, 0, 0, 1)
        assert promote_count(c) == 1
        after = GroupCounts(c.fav_pos, c.fav_neg, c.dep_pos + 1, c.dep_neg - 1)
        assert leaf_disc(after) == 0.0

    def test_partial_gap_rounds_to_one(self):
        c = GroupCounts(11, 9, 0, 2)
        assert promote_count(c) == 1
        after = GroupCounts(11, 9, 1, 1)
        assert abs(leaf_disc(after)) == pytest.approx(0.1, abs=1e-12)

    def test_rate_equal_groups_need_nothing(self):
        assert promote_count(GroupCounts(3, 1, 3, 1)) == 0

    def test_empty_group_is_noop(self):
        assert promote_count(GroupCounts(0, 0, 0, 3)) == 0
        assert promote_count(GroupCounts(3, 1, 0, 0)) == 0

    @given(
        c=st.tuples(st.integers(0, 15), st.integers(0, 15),
                    st.integers(0, 15), st.integers(0, 15)).map(lambda t: GroupCounts(*t))
    )
    def test_residual_disc_within_rounding_bound(self, c):
        if c.n_fav == 0 or c.n_dep == 0 or leaf_disc(c) <= 0:
            return
        if c.pos < c.neg:
            return  # demotion leaf
        p = promote_count(c)
        assert 0 <= p <= c.dep_neg
        after = GroupCounts(c.fav_pos, c.fav_neg, c.dep_pos + p, c.dep_neg - p)
        assert abs(leaf_disc(after)) <= relabel_bound(c) + 1e-12


class TestDemoteCount:
    def test_mirror_arithmetic(self):
        assert demote_count(GroupCounts(2, 0, 0, 2)) == 2

    def test_hand_value_with_residual(self):
        c = GroupCounts(4, 4, 1, 3)
        assert demote_count(c) == 2
        after = GroupCounts(2, 6, 1, 3)
        assert leaf_disc(after) == pytest.approx(0.0, abs=1e-12)

    def test_rate_equal_groups(self):
        assert demote_count(GroupCounts(2, 2, 2, 2)) == 0

    def test_empty_group_is_noop(self):
        assert demote_count(GroupCounts(0, 0, 2, 2)) == 0


def strong_table():
    """Two opposed pure cells plus a reversed cell and a balanced cell."""
    a = [0] * 7 + [1] * 4 + [2] * 4
    favored = [1] * 6 + [0] + [1, 1, 0, 0] + [1, 0, 1, 0]
    positive = [1] * 6 + [0] + [0, 0, 1, 1] + [1, 1, 0, 0]
    return toy_table({"a": a}, favored, positive)


class TestPlan:
    def test_sigma_out_of_range_rejected(self, german):
        tree = build(german, "kl")
        with pytest.raises(ConfigError):
            plan(census(tree, german), -0.1, seed=1)
        with pytest.raises(ConfigError):
            plan(census(tree, german), 2.01, seed=1)

    def test_negative_seed_rejected(self, german):
        with pytest.raises(ConfigError, match="non-negative"):
            plan(census(build(german, "kl"), german), 0.0, seed=-1)

    def test_sigma_two_keeps_only_perfect_discrimination(self):
        t = strong_table()
        tree = build(t, "euclid")
        p = plan(census(tree, t), 2.0, seed=0)
        leaf_of = route(tree, t)
        for act in p.actions:
            rows = np.nonzero(leaf_of == act.leaf_id)[0]
            assert leaf_disc(group_counts(t, rows)) == 2.0

    def test_pure_leaf_promotes_single_deprived_negative(self):
        # the a=0 cell is (6,0,0,1): majority positive, promote exactly one row
        t = strong_table()
        tree = build(t, "euclid")
        p = plan(census(tree, t), 2.0, seed=3)
        leaf_of = route(tree, t)
        acts = [a for a in p.actions if leaf_of[6] == a.leaf_id]
        assert len(acts) == 1
        assert acts[0].action == PROMOTE
        assert acts[0].count == 1
        assert acts[0].row_ids == (6,)

    def test_zero_disc_leaf_never_planned(self):
        t = toy_table({"a": [0, 0, 0, 0]}, favored=[1, 1, 0, 0], positive=[1, 0, 1, 0])
        tree = build(t, "kl")
        p = plan(census(tree, t), 0.0, seed=0)
        assert p.actions == ()

    @given(t=small_tables(), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 99))
    @settings(max_examples=80)
    def test_plan_invariants(self, t, sigma, seed):
        tree = build(t, "kl")
        p = plan(census(tree, t), sigma, seed)
        leaf_of = route(tree, t)
        fav, pos = t.favored_mask, t.positive_mask
        for act in p.actions:
            rows = np.nonzero(leaf_of == act.leaf_id)[0]
            disc = leaf_disc(group_counts(t, rows))
            assert disc > 0.0 and disc >= sigma
            assert act.count == len(act.row_ids) <= rows.size
            for r in act.row_ids:
                assert leaf_of[r] == act.leaf_id
                if act.action == PROMOTE:
                    assert not fav[r] and not pos[r]
                else:
                    assert fav[r] and pos[r]

    @given(t=small_tables(), s=st.tuples(st.floats(0, 2), st.floats(0, 2)))
    @settings(max_examples=60)
    def test_monotone_scope(self, t, s):
        lo, hi = min(s), max(s)
        tree = build(t, "euclid")
        leaves_lo = {a.leaf_id for a in plan(census(tree, t), lo, seed=1).actions}
        leaves_hi = {a.leaf_id for a in plan(census(tree, t), hi, seed=1).actions}
        assert leaves_hi <= leaves_lo

    @given(t=small_tables(), seeds=st.tuples(st.integers(0, 9), st.integers(10, 19)))
    @settings(max_examples=60)
    def test_seed_changes_selection_never_counts(self, t, seeds):
        tree = build(t, "kl")
        p1 = plan(census(tree, t), 0.0, seeds[0])
        p2 = plan(census(tree, t), 0.0, seeds[1])
        assert [(a.leaf_id, a.action, a.count) for a in p1.actions] == [
            (a.leaf_id, a.action, a.count) for a in p2.actions
        ]

    def test_same_seed_is_deterministic(self, german):
        tree = build(german, "kl")
        p1 = plan(census(tree, german), 0.5, seed=7)
        p2 = plan(census(tree, german), 0.5, seed=7)
        assert plan_to_json(p1) == plan_to_json(p2)

    @given(data=st.data(), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_forced_draws_equal_the_generator_draws(self, data, sigma, seed):
        leaves = []
        for leaf_id in data.draw(st.lists(st.integers(0, 50), unique=True, max_size=6)):
            rows = np.array(sorted(data.draw(st.sets(st.integers(0, 99), max_size=12))), dtype=np.int64)
            count = data.draw(st.sampled_from([0, rows.size, None]))
            if count is None:
                count = data.draw(st.integers(0, rows.size))
            disc = data.draw(st.floats(0.0, 2.0, exclude_min=True))
            leaves.append(LeafCensus(leaf_id, disc, data.draw(st.sampled_from([PROMOTE, DEMOTE])), count, rows))
        c = Census(tuple(leaves), "t" * 16, "d" * 16)
        found = [(a.leaf_id, a.action, a.count, a.row_ids) for a in plan(c, sigma, seed).actions]
        assert found == oracle.draws_by_generator(c, sigma, seed)
        assert all(type(r) is int for a in found for r in a[3])

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
    def test_german_plans_equal_the_generator_draws(self, german, sigma):
        c = census(build(german, "euclid"), german)
        found = [(a.leaf_id, a.action, a.count, a.row_ids) for a in plan(c, sigma, seed=9).actions]
        assert found == oracle.draws_by_generator(c, sigma, 9)


class TestCensus:
    @given(t=small_tables())
    @settings(max_examples=80)
    def test_matches_a_per_leaf_scan(self, t):
        # reference: scan the routed rows once per leaf
        tree = build(t, "kl")
        leaf_of = route(tree, t)
        expected = []
        for leaf in tree.leaves():
            rows = np.nonzero(leaf_of == leaf.id)[0]
            counts = group_counts(t, rows)
            if rows.size and leaf_disc(counts) > 0.0:
                expected.append((leaf.id, leaf_disc(counts), rows))
        found = census(tree, t)
        assert [(c.leaf_id, c.disc) for c in found.leaves] == [(i, d) for i, d, _ in expected]
        for c, (_, _, rows) in zip(found.leaves, expected):
            wanted = 3 if c.action == PROMOTE else 0
            assert np.array_equal(c.candidates, rows[t.gc_codes[rows] == wanted])
        assert (found.table_fingerprint, found.tree_digest) == (t.fingerprint, tree.digest)

    def test_keeps_tree_leaf_order_when_leaf_ids_are_not_ascending(self, german):
        built = build(german, "kl")
        doc = json.loads(serialize(built))
        stack, n_leaves = [doc["root"]], len(built.leaves())
        while stack:
            node = stack.pop()
            if node["kind"] == "leaf":
                node["id"] = n_leaves - 1 - node["id"]
            else:
                stack.extend(node["children"].values())
        renumbered = deserialize(json.dumps(doc))
        assert [leaf.id for leaf in renumbered.leaves()] == list(range(n_leaves))[::-1]
        before, after = census(built, german), census(renumbered, german)
        assert len(after.leaves) == len(before.leaves) > 1
        for b, a in zip(before.leaves, after.leaves):
            assert (a.leaf_id, a.disc, a.action, a.count) == \
                (n_leaves - 1 - b.leaf_id, b.disc, b.action, b.count)
            assert np.array_equal(a.candidates, b.candidates)

    def test_routes_once_for_every_sigma(self, german, monkeypatch):
        import fairtree.relabel as rl

        routed = []
        monkeypatch.setattr(rl, "route", lambda tree, table: routed.append(1) or route(tree, table))
        c = census(build(german, "kl"), german)
        for sigma in (0.0, 0.5, 1.0, 2.0):
            plan(c, sigma, seed=1)
        assert routed == [1]


@pytest.fixture(scope="module")
def german_plan(german):
    return plan(census(build(german, "kl"), german), 0.0, seed=42)


def with_rows(p, index, rows):
    acts = list(p.actions)
    acts[index] = replace(acts[index], count=len(rows), row_ids=tuple(rows))
    return replace(p, actions=tuple(acts))


class TestApply:
    @pytest.mark.parametrize("case", ["negative", "past_the_end", "repeated_in_action",
                                      "repeated_across_actions"])
    def test_bad_row_ids_rejected(self, german, german_plan, case):
        first = german_plan.actions[0].row_ids
        second = german_plan.actions[1].row_ids
        bad = {
            "negative": with_rows(german_plan, 0, (-1,) + first[1:]),
            "past_the_end": with_rows(german_plan, 0, first[:-1] + (german.n_rows,)),
            "repeated_in_action": with_rows(german_plan, 0, first + first[:1]),
            "repeated_across_actions": with_rows(german_plan, 1, second + first[:1]),
        }[case]
        with pytest.raises(DataError, match="outside|more than once"):
            apply(bad, german)

    @pytest.mark.parametrize("huge", [10**30, -(2**63) - 1])
    def test_row_beyond_int64_rejected_in_plan_order(self, german, german_plan, huge):
        first = german_plan.actions[0].row_ids
        second = german_plan.actions[1].row_ids
        bad = with_rows(with_rows(german_plan, 0, (huge,) + first[1:]), 1, second + (-1,))
        for fn in (relabeled_mask, apply):
            with pytest.raises(DataError) as info:
                fn(bad, german)
            assert str(info.value) == f"plan row {huge} is outside the table's {german.n_rows} rows"

    def test_empty_plan_is_identity(self):
        t = toy_table({"a": [0, 0, 0, 0]}, favored=[1, 1, 0, 0], positive=[1, 0, 1, 0])
        tree = build(t, "kl")
        out = apply(plan(census(tree, t), 2.0, seed=0), t)
        assert list(out.column("cls")) == list(t.column("cls"))
        assert out.fingerprint == t.fingerprint

    def test_fingerprint_mismatch_refused(self, german):
        tree = build(german, "kl")
        p = plan(census(tree, german), 1.0, seed=0)
        other = german.subset(np.arange(german.n_rows - 1))
        with pytest.raises(DataError, match="different table"):
            apply(p, other)

    @given(t=small_tables(), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 50))
    @settings(max_examples=80)
    def test_label_only_mutation_and_direction(self, t, sigma, seed):
        tree = build(t, "euclid")
        p = plan(census(tree, t), sigma, seed)
        out = apply(p, t)
        for name in t.schema.column_names:
            if name == t.schema.label.column:
                continue
            assert list(out.column(name)) == list(t.column(name))
        before, after = t.positive_mask, out.positive_mask
        changed = np.nonzero(before != after)[0]
        fav = t.favored_mask
        promoted = {r for a in p.actions if a.action == PROMOTE for r in a.row_ids}
        demoted = {r for a in p.actions if a.action == DEMOTE for r in a.row_ids}
        assert set(changed) == promoted | demoted
        for r in changed:
            if r in promoted:
                assert not fav[r] and not before[r] and after[r]
            else:
                assert fav[r] and before[r] and not after[r]

    @given(data=st.data())
    @settings(max_examples=200)
    def test_mask_path_raises_every_apply_error_with_its_message(self, german, german_plan, data):
        acts = list(german_plan.actions)
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(acts) - 1))
            rows = list(acts[i].row_ids)
            edit = data.draw(st.sampled_from(["action", "row", "append", "empty"]))
            if edit == "action":
                acts[i] = replace(acts[i], action=data.draw(st.sampled_from([PROMOTE, DEMOTE, "flip"])))
            elif edit == "row" and rows:
                rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(st.integers(-2, german.n_rows + 1))
            elif edit == "append":
                rows.append(data.draw(st.integers(-2, german.n_rows + 1)))
            else:
                rows = []
            acts[i] = replace(acts[i], row_ids=tuple(rows))
        p = replace(german_plan, actions=tuple(acts))
        if data.draw(st.booleans()):
            p = replace(p, table_fingerprint="0" * 16)

        def outcome(fn):
            try:
                return fn(p, german)
            except DataError as exc:
                return str(exc)

        expected = outcome(oracle.apply_by_action)
        for fn in (relabeled_mask, lambda p, t: apply(p, t).positive_mask):
            found = outcome(fn)
            if isinstance(expected, str):
                assert found == expected
            else:
                assert np.array_equal(found, expected)

    @pytest.mark.parametrize("order", ["unknown_first", "wrong_first"])
    def test_the_first_failing_action_names_the_error(self, german, german_plan, order):
        promote = next(a for a in german_plan.actions if a.action == PROMOTE and a.row_ids)
        favored = int(np.flatnonzero(german.favored_mask)[0])
        wrong = LeafAction(-1, PROMOTE, 1, (favored,))
        unknown = LeafAction(-2, "flip", 0, ())
        acts = (promote, unknown, wrong) if order == "unknown_first" else (promote, wrong, unknown)
        p = replace(german_plan, actions=acts)
        message = "unknown action 'flip'" if order == "unknown_first" else \
            f"row {favored}: promote target is not a deprived negative"
        for fn in (relabeled_mask, apply, oracle.apply_by_action):
            with pytest.raises(DataError) as info:
                fn(p, german)
            assert str(info.value) == message

    @given(t=small_tables())
    @settings(max_examples=80)
    def test_sigma_zero_equalizes_every_nonreversed_leaf(self, t):
        # leaves the algorithm owns (disc >= 0 before relabeling) end within the
        # rounding bound; reversed leaves (disc < 0) are untouched by design
        tree = build(t, "kl")
        p = plan(census(tree, t), 0.0, seed=5)
        out = apply(p, t)
        leaf_of = route(tree, t)
        for leaf in tree.leaves():
            rows = np.nonzero(leaf_of == leaf.id)[0]
            if rows.size == 0:
                continue
            before = group_counts(t, rows)
            if before.n_fav == 0 or before.n_dep == 0:
                continue
            after = group_counts(out, rows)
            if leaf_disc(before) >= 0.0:
                assert abs(leaf_disc(after)) <= relabel_bound(before) + 1e-12
            else:
                assert after == before


def _first_action(doc: dict, **fields) -> dict:
    doc["actions"][0].update(fields)
    return doc


# each mutation of a valid plan document, with the message it must raise
UNTRUSTED_PLANS = {
    "not-an-object": (lambda doc: [doc], "format"),
    "actions-not-a-list": (lambda doc: dict(doc, actions={}), "actions"),
    "float-row-id": (
        lambda doc: _first_action(doc, rows=[r + 0.5 for r in doc["actions"][0]["rows"]]),
        "row id",
    ),
    "float-leaf-id": (lambda doc: _first_action(doc, leaf=doc["actions"][0]["leaf"] + 0.5), "leaf id"),
    "numeric-action": (lambda doc: _first_action(doc, action=7), "action must be a JSON str, got 7"),
    "float-count": (lambda doc: _first_action(doc, count=float(doc["actions"][0]["count"])), "count"),
    "boolean-seed": (lambda doc: dict(doc, seed=True), "seed"),
    "negative-seed": (lambda doc: dict(doc, seed=-1), "plan seed must be a non-negative integer, got -1"),
    "sigma-above-two": (lambda doc: dict(doc, sigma=2.5), "sigma"),
    "negative-sigma": (lambda doc: dict(doc, sigma=-0.1), "sigma"),
    "sigma-as-text": (lambda doc: dict(doc, sigma="0.5"), "sigma"),
    "numeric-table-fingerprint": (lambda doc: dict(doc, table_fingerprint=123), "table_fingerprint"),
    "list-tree-digest": (lambda doc: dict(doc, tree_digest=[doc["tree_digest"]]), "tree_digest"),
    "numeric-row-picker": (lambda doc: dict(doc, row_picker=7), "row_picker"),
    "unknown-row-picker": (lambda doc: dict(doc, row_picker="random.Random"), "row_picker"),
}


@pytest.fixture(scope="module")
def german_plan_text(german):
    return plan_to_json(plan(census(build(german, "kl"), german), 0.0, seed=11))


class TestPlanDocuments:
    @pytest.mark.parametrize("mutation", sorted(UNTRUSTED_PLANS))
    def test_untrusted_plan_rejected(self, german_plan_text, mutation):
        mutate, message = UNTRUSTED_PLANS[mutation]
        assert plan_from_json(german_plan_text).actions
        with pytest.raises(DataError, match=message):
            plan_from_json(json.dumps(mutate(json.loads(german_plan_text))))

    def test_round_trip(self, german):
        tree = build(german, "kl")
        p = plan(census(tree, german), 0.8, seed=11)
        again = plan_from_json(plan_to_json(p))
        assert again == p
        assert plan_to_json(again) == plan_to_json(p)

    @given(data=st.data())
    @settings(max_examples=150)
    def test_text_equals_the_indenting_json_writer(self, data):
        words = st.text(max_size=6)
        actions = tuple(
            LeafAction(
                data.draw(st.integers(-5, 10**6)),
                data.draw(st.one_of(st.sampled_from([PROMOTE, DEMOTE]), words)),
                data.draw(st.integers(0, 9)),
                tuple(data.draw(st.lists(st.integers(-(2**63), 2**63), max_size=5))),
            )
            for _ in range(data.draw(st.integers(0, 4)))
        )
        p = RelabelPlan(
            data.draw(st.floats(0.0, 2.0)), data.draw(st.integers(0, 2**64)), actions,
            data.draw(words), data.draw(words), data.draw(words),
        )
        assert plan_to_json(p) == oracle.plan_to_json_by_dict(p)

    def test_empty_plan_and_empty_action_text(self, german_plan):
        for acts in ((), (LeafAction(3, DEMOTE, 0, ()),)):
            p = replace(german_plan, actions=acts)
            assert plan_to_json(p) == oracle.plan_to_json_by_dict(p)
        assert plan_to_json(german_plan) == oracle.plan_to_json_by_dict(german_plan)

    def test_malformed_rejected(self):
        with pytest.raises(DataError):
            plan_from_json("{")
        with pytest.raises(DataError, match="format"):
            plan_from_json('{"format": "bogus/1"}')

    def test_count_row_mismatch_rejected(self, german):
        tree = build(german, "kl")
        p = plan(census(tree, german), 0.8, seed=11)
        text = plan_to_json(p)
        bad = text.replace('"count": 1,', '"count": 7,', 1)
        if bad != text:
            with pytest.raises(DataError, match="count"):
                plan_from_json(bad)
