import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairtree.divergence
import fairtree.tree
import oracle
from conftest import table_rows, toy_table
from fairtree.data import (
    MISSING,
    AttributeSpec,
    GroupCounts,
    LabelSpec,
    SensitiveSpec,
    TableSchema,
    conform_to_schema,
    discretize_all,
    group_counts,
)
from fairtree.datasets import make_adult
from fairtree.divergence import choose
from fairtree.errors import ConfigError, DataError
from fairtree.relabel import census
from fairtree.tree import (
    BuildConfig,
    Internal,
    Leaf,
    NodeTable,
    build,
    deserialize,
    evaluate_splits,
    extract_subgroups,
    leaf_disc,
    route,
    serialize,
    stats,
)


@st.composite
def small_tables(draw, max_rows=14, max_attrs=3, max_outcomes=3):
    n = draw(st.integers(2, max_rows))
    n_attrs = draw(st.integers(1, max_attrs))
    cols = {}
    for j in range(n_attrs):
        k = draw(st.integers(1, max_outcomes))
        cols[f"a{j}"] = [draw(st.integers(0, k - 1)) for _ in range(n)]
    favored = [draw(st.booleans()) for _ in range(n)]
    positive = [draw(st.booleans()) for _ in range(n)]
    return toy_table(cols, favored, positive)


class TestLeafDisc:
    def test_pure_opposed_groups(self):
        assert leaf_disc(GroupCounts(6, 0, 0, 1)) == 2.0

    def test_partial_gap(self):
        assert leaf_disc(GroupCounts(11, 9, 0, 2)) == pytest.approx(1.1, abs=1e-12)

    def test_equal_rates(self):
        assert leaf_disc(GroupCounts(3, 1, 6, 2)) == 0.0

    def test_empty_group_is_zero(self):
        assert leaf_disc(GroupCounts(4, 2, 0, 0)) == 0.0
        assert leaf_disc(GroupCounts(0, 0, 4, 2)) == 0.0

    @given(
        c=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    )
    def test_bounds_and_extremes(self, c):
        counts = GroupCounts(*c)
        d = leaf_disc(counts)
        assert -2.0 <= d <= 2.0
        both = counts.n_fav > 0 and counts.n_dep > 0
        if both and counts.fav_neg == 0 and counts.dep_pos == 0:
            assert d == 2.0
        if d == 2.0:
            assert both and counts.fav_neg == 0 and counts.dep_pos == 0


class TestEvaluateAndChoose:
    def test_single_candidate_always_eligible(self):
        t = toy_table({"a": [0, 0, 1, 1]}, favored=[1, 0, 1, 0], positive=[1, 1, 0, 0])
        scores = evaluate_splits(t, np.arange(4), ("a",), "kl")
        assert scores.eligible.shape == (1, 1) and scores.eligible[0, 0]

    def test_zero_gain_candidate_below_mean(self):
        # b separates the group-opposed classes; c is constant (single outcome, zero gain)
        t = toy_table(
            {"b": [0, 0, 1, 1], "c": [0, 0, 0, 0]},
            favored=[1, 0, 1, 0],
            positive=[1, 0, 0, 1],
        )
        scores = evaluate_splits(t, np.arange(4), ("b", "c"), "euclid")
        assert scores.raw_gain[0, 0] > 0
        assert scores.raw_gain[0, 1] == 0
        assert scores.eligible[0].tolist() == [True, False]

    def test_group_separating_test_pays_normalizer_penalty(self):
        # a sends every favored row one way and every deprived row the other;
        # b splits both groups evenly while separating the class pattern
        favored = [1, 1, 1, 1, 0, 0, 0, 0]
        positive = [1, 1, 0, 0, 1, 0, 0, 0]
        a = [0, 0, 0, 0, 1, 1, 1, 1]
        b = [0, 0, 1, 1, 0, 0, 1, 1]
        t = toy_table({"a": a, "b": b}, favored, positive)
        scores = evaluate_splits(t, np.arange(8), ("a", "b"), "kl")
        assert scores.normalizer[0, 0] > scores.normalizer[0, 1]
        assert scores.ratio[0, 0] < scores.ratio[0, 1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the refusal comes before any score is divided
    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_empty_row_set_refused(self, criterion):
        t = toy_table({"a": [0, 0, 1, 1]}, favored=[1, 0, 1, 0], positive=[1, 1, 0, 0])
        with pytest.raises(DataError, match="empty row set"):
            evaluate_splits(t, np.array([], dtype=int), ("a",), criterion)

    # ``divergence.choose`` is the choice ``select`` makes, per node, from
    # the candidates' ratios and eligibility; -1 makes the node a leaf
    def test_all_nonpositive_gains_make_a_leaf(self):
        assert choose(np.array([-0.1, -0.4]), np.array([True, False])) == -1

    def test_unique_positive_candidate_chosen(self):
        assert choose(np.array([0.0, 0.4]), np.array([False, True])) == 1

    def test_tie_goes_to_earlier_declared(self):
        assert choose(np.array([0.4, 0.4 + 5e-13]), np.array([True, True])) == 0


class TestBuild:
    def test_separating_attribute_is_root(self):
        # the parent mixes groups evenly; "key" isolates a favored-positive /
        # deprived-negative cluster (and its mirror image), "noise" does not
        key = [0] * 10 + [1] * 10
        noise = [0, 1] * 10
        favored = ([1] * 5 + [0] * 5) * 2
        positive = [1] * 5 + [0] * 5 + [0] * 5 + [1] * 5
        t = toy_table({"noise": noise, "key": key}, favored, positive)
        for criterion in ("kl", "euclid"):
            tree = build(t, criterion)
            assert isinstance(tree.root, Internal)
            assert tree.root.attribute == "key"
            j, _ = oracle.best_attribute(table_rows(t), 2, criterion)
            assert t.schema.feature_names[j] == "key"

    def test_identical_group_distributions_single_leaf(self):
        # every attribute cell holds matching favored/deprived class rates
        t = toy_table(
            {"a": [0, 0, 1, 1, 0, 0, 1, 1], "b": [0, 1, 0, 1, 0, 1, 0, 1]},
            favored=[1, 1, 1, 1, 0, 0, 0, 0],
            positive=[1, 0, 1, 0, 1, 0, 1, 0],
        )
        tree = build(t, "kl")
        assert isinstance(tree.root, Leaf)
        assert tree.root.disc == 0.0

    def test_empty_table_rejected(self):
        t = toy_table({"a": [0, 1]}, favored=[1, 0], positive=[1, 0])
        empty = t.subset(np.array([], dtype=int))
        with pytest.raises(DataError, match="empty"):
            build(empty, "kl")

    @given(t=small_tables(), criterion=st.sampled_from(["kl", "euclid"]))
    @settings(max_examples=120)
    def test_leaves_partition_the_table(self, t, criterion):
        tree = build(t, criterion)
        leaves = tree.leaves()
        ids = [l.id for l in leaves]
        assert len(set(ids)) == len(ids)
        total = GroupCounts(0, 0, 0, 0)
        for leaf in leaves:
            total = total + leaf.counts
        assert total == group_counts(t)
        # routing the training table reproduces the stored leaf counts
        leaf_of = route(tree, t)
        for leaf in leaves:
            rows = np.nonzero(leaf_of == leaf.id)[0]
            assert group_counts(t, rows) == leaf.counts
            assert abs(leaf.disc - leaf_disc(leaf.counts)) <= 1e-12
            assert leaf.majority_positive == (leaf.counts.pos >= leaf.counts.neg)

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_row_order_does_not_change_the_tree(self, german, criterion):
        shuffled = german.subset(np.random.default_rng(5).permutation(german.n_rows))
        assert build(shuffled, criterion).digest == build(german, criterion).digest

    def test_duplicated_rows_double_euclid_leaf_counts(self, german):
        # euclid estimates every distribution from raw frequencies, so doubling
        # each row leaves every score, and with them the tree's shape, unchanged
        once = build(german, "euclid")
        twice = build(german.subset(np.repeat(np.arange(german.n_rows), 2)), "euclid")
        a, b = once.nodes, twice.nodes
        assert a.parent.size == b.parent.size > 1 and b.attributes == a.attributes
        # the same paths and kinds of node, split attributes, fallbacks, leaf ids, discs and depths
        for field in ("parent", "outcome", "attribute", "fallback", "leaf_id", "disc", "depth"):
            assert np.array_equal(getattr(b, field), getattr(a, field)), field
        assert np.array_equal(b.counts, 2 * a.counts)

    @given(t=small_tables(), criterion=st.sampled_from(["kl", "euclid"]))
    @settings(max_examples=60)
    def test_identical_input_gives_identical_tree(self, t, criterion):
        assert serialize(build(t, criterion)) == serialize(build(t, criterion))

    @given(t=small_tables(max_rows=10))
    @settings(max_examples=100)
    def test_swap_symmetry_euclid(self, t):
        swapped_sensitive = toy_table(
            {f: t.column(f) for f in t.schema.feature_names},
            favored=~t.favored_mask,
            positive=t.positive_mask,
        )
        a, b = build(t, "euclid"), build(swapped_sensitive, "euclid")

        def strip(node):
            if isinstance(node, Leaf):
                return ("leaf", node.counts.n, round(node.disc, 12))
            return (
                "internal",
                node.attribute,
                node.fallback_outcome,
                tuple((o, strip(c)) for o, c in node.children.items()),
            )

        def negate(node):
            if isinstance(node, Leaf):
                return ("leaf", node.counts.n, round(-node.disc, 12))
            return (
                "internal",
                node.attribute,
                node.fallback_outcome,
                tuple((o, negate(c)) for o, c in node.children.items()),
            )

        assert strip(a.root) == negate(b.root)

    @given(t=small_tables(max_rows=10, max_attrs=3, max_outcomes=2),
           criterion=st.sampled_from(["kl", "euclid"]))
    @settings(max_examples=150)
    def test_root_matches_brute_force(self, t, criterion):
        tree = build(t, criterion)
        j, _ = oracle.best_attribute(table_rows(t), len(t.schema.feature_names), criterion)
        if j is None:
            assert isinstance(tree.root, Leaf)
        else:
            assert isinstance(tree.root, Internal)
            assert tree.root.attribute == t.schema.feature_names[j]


class TestRouting:
    def test_training_rows_reach_their_leaf(self):
        t = toy_table({"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]},
                      favored=[1, 0, 1, 0], positive=[1, 1, 0, 0])
        tree = build(t, "kl")
        leaf_of = route(tree, t)
        for leaf in tree.leaves():
            rows = np.nonzero(leaf_of == leaf.id)[0]
            assert group_counts(t, rows) == leaf.counts

    def test_unseen_outcome_uses_fallback(self):
        # hand-built node whose children cover outcomes 0 and 1 only; the
        # schema also declares outcome 2, which must route to the fallback
        reference = toy_table({"a": [0, 1, 2, 0]}, favored=[1, 0, 1, 0], positive=[1, 0, 1, 0])
        leaf0 = Leaf(0, GroupCounts(1, 0, 0, 1), 2.0, True, 1)
        leaf1 = Leaf(1, GroupCounts(1, 0, 0, 1), 2.0, True, 1)
        tree = oracle.tree_from_root(
            Internal("a", {"0": leaf0, "1": leaf1}, fallback_outcome="1"), reference.schema
        )
        ids = route(tree, reference)
        assert list(ids) == [0, 1, 1, 0]  # the a=2 row lands on the fallback child

    def test_missing_tokens_route_to_the_missing_child(self):
        # "?" and "" are missing tokens: their rows belong to the node's
        # MISSING child, not to the fallback child that covers unseen outcomes
        reference = toy_table(
            {"a": ["x", "x", "x", "y", "?", ""]},
            favored=[1, 0, 1, 0, 1, 0], positive=[1, 0, 1, 0, 1, 0],
        )
        assert reference.schema.spec("a").outcomes == ("x", "y", MISSING)
        leaves = [Leaf(i, GroupCounts(1, 0, 0, 1), 2.0, True, 1) for i in range(3)]
        tree = oracle.tree_from_root(
            Internal("a", {"x": leaves[0], "y": leaves[1], MISSING: leaves[2]}, fallback_outcome="x"),
            reference.schema,
        )
        assert list(route(tree, reference)) == [0, 0, 0, 1, 2, 2]

    def test_identical_rows_same_leaf(self, german):
        tree = build(german.subset(np.arange(120)), "kl")
        doubled = german.subset(np.array([5, 5]))
        ids = route(tree, doubled)
        assert ids[0] == ids[1]


@st.composite
def trees_over_tables(draw):
    """A table of categorical columns, some with missing cells, and a random
    tree over its schema: each internal node has children for some of its
    attribute's declared outcomes only (the rest take its fallback child), and
    a ``MISSING`` child wherever that outcome is declared and drawn."""
    n = draw(st.integers(1, 30))
    cols = {f"a{j}": draw(st.lists(st.sampled_from(["x", "y", "z", "?", ""][: draw(st.integers(1, 5))]),
                                   min_size=n, max_size=n))
            for j in range(draw(st.integers(1, 4)))}
    table = toy_table(cols, favored=[i % 2 for i in range(n)], positive=[i % 3 == 0 for i in range(n)])
    leaf_ids = iter(draw(st.permutations(range(64))))

    def node(depth, unused):
        if not unused or depth >= 3 or draw(st.booleans()):
            return Leaf(next(leaf_ids), GroupCounts(0, 0, 0, 0), 0.0, True, depth)
        attribute = draw(st.sampled_from(sorted(unused)))
        declared = table.schema.spec(attribute).outcomes
        kept = draw(st.lists(st.sampled_from(declared), min_size=1, unique=True))
        children = {o: node(depth + 1, unused - {attribute}) for o in declared if o in kept}
        return Internal(attribute, children, draw(st.sampled_from(sorted(children))))

    root = node(0, set(table.schema.feature_names))
    return oracle.tree_from_root(root, table.schema), table


class TestNodeTableRouting:
    """``route`` steps every row down one depth at a time over the tree's node
    table; it must agree with the per-node router row for row."""

    @given(case=trees_over_tables())
    def test_random_trees_route_like_the_per_node_router(self, case):
        tree, table = case
        for rows in (table, table.subset(np.arange(0))):
            assert np.array_equal(route(tree, rows), oracle.route_by_node(tree, rows))

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_adult_sample_trees_route_like_the_per_node_router(self, adult_sample, criterion):
        sample = discretize_all(adult_sample)
        tree = build(sample, criterion)
        # the full table holds rows whose outcomes some nodes never saw: fallbacks
        for table in (sample, conform_to_schema(make_adult(seed=42), sample.schema)):
            assert np.array_equal(route(tree, table), oracle.route_by_node(tree, table))

    def test_node_table_is_built_once_per_tree(self, german):
        # the node table is the tree; its record view is built once, on first use
        tree = build(german.subset(np.arange(200)), "kl")
        assert "root" not in vars(tree)
        assert tree.root is tree.root
        nodes = tree.nodes
        # preorder numbering: the table's leaves are the record view's leaves in preorder
        def leaf_ids(node):
            if isinstance(node, Leaf):
                return [node.id]
            return [i for c in node.children.values() for i in leaf_ids(c)]

        assert nodes.leaf_id[nodes.attribute < 0].tolist() == leaf_ids(tree.root)


class TestArrayTree:
    """A tree is its preorder node arrays, whether grown or read."""

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    @pytest.mark.parametrize("dataset", ["german", "compas"])
    def test_read_arrays_equal_the_grown_ones(self, request, dataset, criterion):
        built = build(request.getfixturevalue(dataset), criterion)
        read = deserialize(serialize(built))
        assert read.nodes.attributes == built.nodes.attributes
        for field in dataclasses.fields(NodeTable):
            if field.name != "attributes":
                grown, again = getattr(built.nodes, field.name), getattr(read.nodes, field.name)
                assert grown.dtype == again.dtype and np.array_equal(grown, again), field.name

    def test_reading_and_a_census_build_no_records(self, german):
        tree = deserialize(serialize(build(german, "kl")))
        census(tree, german)
        assert "root" not in vars(tree)

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_record_view_holds_every_node(self, german, criterion):
        # counted the way perfbench/traced.py counts the nodes a run grew
        tree = build(german, criterion)
        nodes, stack = 0, [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            if isinstance(node, Internal):
                stack.extend(node.children.values())
        assert nodes == stats(tree).node_count > 1


class TestScoreBlocks:
    """``build`` counts and scores a depth's open nodes in blocks of at most
    ``SCORE_CELLS`` count cells; how the nodes are blocked changes no byte."""

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    @pytest.mark.parametrize("dataset", ["german", "compas"])
    def test_block_size_changes_no_byte(self, request, monkeypatch, dataset, criterion):
        table = request.getfixturevalue(dataset)
        text = serialize(build(table, criterion))
        for cells in (1, 2000):  # one node per block, and a few dozen
            monkeypatch.setattr(fairtree.tree, "SCORE_CELLS", cells)
            assert serialize(build(table, criterion)) == text, cells

    def test_a_block_counts_only_its_open_pairs(self, german, monkeypatch):
        # each block's count tensor has one column per open (node, attribute)
        # pair, and counts each row once per attribute still open at its node
        blocks = []
        real = fairtree.divergence.histogram

        def spy(codes, gc, pair, n_pairs, width):
            counts = real(codes, gc, pair, n_pairs, width)
            marked = pair[pair >= 0]
            blocks.append((counts.shape, int(counts.sum()), marked.size, np.unique(marked).size))
            return counts

        monkeypatch.setattr(fairtree.divergence, "histogram", spy)
        build(german, "kl")
        n_features = len(german.schema.feature_names)
        assert blocks[0][0][2] == n_features  # the root, where every attribute is open
        assert len(blocks) > 1 and all(len(shape) == 3 for shape, *_ in blocks)
        for shape, total, open_cells, distinct in blocks:
            assert total == open_cells and shape[2] == distinct

    @pytest.mark.parametrize("cells", [2000, fairtree.tree.SCORE_CELLS])
    def test_a_block_holds_at_most_score_cells(self, german, monkeypatch, cells):
        # blocks are packed by open (node, attribute) pairs, up to the cap
        sizes = []
        real = fairtree.divergence.histogram

        def spy(*args):
            counts = real(*args)
            sizes.append(counts.size)
            return counts

        monkeypatch.setattr(fairtree.divergence, "histogram", spy)
        monkeypatch.setattr(fairtree.tree, "SCORE_CELLS", cells)
        build(german, "euclid")
        assert len(sizes) > 1 and max(sizes) <= cells

    def test_evaluate_splits_scores_the_root_as_build_does(self, german, monkeypatch):
        # one split scorer: evaluate_splits runs build's block scorer on a block of one node
        results = []
        real = fairtree.tree._score_block
        monkeypatch.setattr(fairtree.tree, "_score_block", lambda *args: results.append(real(*args)) or results[-1])
        tree = build(german, "kl")
        root, grown = results[0][0], len(results)
        features = german.schema.feature_names
        scores = evaluate_splits(german, np.arange(german.n_rows), features, "kl")
        assert len(results) == grown + 1
        for field in ("raw_gain", "normalizer", "ratio", "eligible", "choice"):
            assert np.array_equal(getattr(scores, field), getattr(root, field)), field
        assert tree.nodes.attributes[0] == features[scores.choice[0]]


class TestMemoryShape:
    """Reading a tree builds no dict per node: the parser hands each node over
    as a tuple of its values, and the walk frees each node once it is read."""

    def test_deserialize_peaks_under_500_bytes_per_node(self, adult_sample):
        # CPython 3.11: 884 B/node with a dict per node, 336 without. Without
        # numpy, on 3.10/3.11/3.12: a document parsed into dicts holds
        # 624/532/514 B/node; the hooked parse and walk peak at 228/219/218.
        import gc
        import tracemalloc

        text = serialize(build(discretize_all(adult_sample), "euclid"))
        deserialize(text)  # first-use allocations are not the reading's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tree = deserialize(text)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nodes = stats(tree).node_count
        assert nodes > 5000
        print(f"[MEMORY] deserialize peak {peak / nodes:.0f} B/node over {nodes} nodes")
        assert peak / nodes < 500

    def test_a_tree_file_is_held_once_while_it_is_parsed(self, adult_sample, tmp_path):
        # the CLI hands ``deserialize`` the decoded text, so the bytes read are
        # freed before parsing: the peak is one document copy plus the parse
        import gc
        import tracemalloc

        from fairtree.cli import _load_tree

        path = tmp_path / "tree.json"
        path.write_bytes(serialize(build(discretize_all(adult_sample), "euclid")).encode("utf-8"))
        _load_tree(str(path))  # first-use allocations are not the reading's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tree = _load_tree(str(path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size, nodes = path.stat().st_size, stats(tree).node_count
        print(f"[MEMORY] tree file of {size / nodes:.0f} B/node read at a peak of {peak / nodes:.0f} B/node")
        assert peak < size + 500 * nodes


class TestStats:
    def test_single_leaf(self):
        t = toy_table({"a": [0, 0]}, favored=[1, 0], positive=[1, 1])
        s = stats(build(t, "kl"))
        assert (s.node_count, s.sparsity, s.depth) == (1, 1, 0)

    def test_root_with_three_leaves(self):
        t = toy_table({"a": [0, 1, 2, 0, 1, 2]},
                      favored=[1, 1, 1, 0, 0, 0], positive=[1, 0, 1, 0, 1, 0])
        tree = build(t, "euclid")
        if isinstance(tree.root, Internal):
            s = stats(tree)
            assert s.node_count == 1 + s.sparsity
            assert s.depth == 1


class TestSubgroups:
    def _tree(self):
        # one perfectly discriminating cell (a=0), one reversed, one mixed
        a = [0, 0, 0, 1, 1, 2, 2, 2]
        favored = [1, 1, 0, 1, 0, 1, 0, 0]
        positive = [1, 1, 0, 0, 1, 1, 1, 0]
        return build(toy_table({"a": a}, favored, positive), "euclid")

    def test_threshold_and_ordering(self):
        tree = self._tree()
        subs = extract_subgroups(tree, min_disc=2.0)
        assert [s.disc for s in subs] == [2.0]
        assert subs[0].path == (("a", "0"),)
        assert subs[0].tally() == "2:0 / 0:1"

    def test_above_maximum_empty(self):
        assert extract_subgroups(self._tree(), min_disc=2.1) == []

    def test_zero_threshold_lists_every_discriminatory_leaf(self):
        tree = self._tree()
        subs = extract_subgroups(tree, min_disc=0.0)
        assert all(s.disc > 0 for s in subs)
        assert [s.disc for s in subs] == sorted((s.disc for s in subs), reverse=True)

    def test_top_k(self):
        assert len(extract_subgroups(self._tree(), 0.0, top_k=1)) == 1

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(ConfigError, match="top_k must be at least 1"):
            extract_subgroups(self._tree(), 0.0, top_k=top_k)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigError, match="min_disc"):
            extract_subgroups(self._tree(), float("nan"))


def _document_subgroups(tree) -> dict:
    """Leaf id -> (path, counts, disc) of every leaf with disc > 0, from a
    plain walk of the tree's document."""
    found = {}
    stack = [(json.loads(serialize(tree))["root"], ())]
    while stack:
        node, path = stack.pop()
        if node["kind"] == "internal":
            stack += [(child, path + ((node["attribute"], o),)) for o, child in node["children"].items()]
        elif node["disc"] > 0:
            found[node["id"]] = (path, tuple(node["counts"]), node["disc"])
    return found


class TestSubgroupPaths:
    """Every subgroup's path, counts and disc are those of its leaf in the
    tree's document, at every depth."""

    @staticmethod
    def _check(tree):
        subs = extract_subgroups(tree, 0.0)
        assert {s.leaf_id: (s.path, s.counts.as_tuple(), s.disc) for s in subs} == _document_subgroups(tree)
        assert len(subs) == len({s.leaf_id for s in subs})
        return subs

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_german_paths_match_the_document(self, german, criterion):
        subs = self._check(build(german, criterion))
        assert max(len(s.path) for s in subs) > 1

    @given(case=trees_over_tables(), data=st.data())
    def test_random_tree_paths_match_the_document(self, case, data):
        # the drawn trees' leaves are empty; give each some counts, so that some have disc > 0
        doc = json.loads(serialize(case[0]))
        for node in _json_nodes(doc["root"]):
            if node["kind"] == "leaf":
                counts = GroupCounts(*data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4)))
                node.update(counts=list(counts.as_tuple()), disc=leaf_disc(counts),
                            majority="positive" if counts.fav_pos + counts.dep_pos
                            >= counts.fav_neg + counts.dep_neg else "negative")
        self._check(deserialize(json.dumps(doc)))


def _edited(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _json_nodes(node: dict):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node["kind"] == "internal":
            stack.extend(node["children"].values())


def _split_root_attribute_twice(doc):
    # a new root on the old root's attribute, with the old root as its child
    root = doc["root"]
    for node in _json_nodes(root):
        if node["kind"] == "leaf":
            node["depth"] += 1
    outcome = next(iter(root["children"]))
    doc["root"] = {
        "kind": "internal", "attribute": root["attribute"],
        "fallback": outcome, "children": {outcome: root},
    }


def _undeclared_outcome(doc):
    root = doc["root"]
    root["children"]["no-such-outcome"] = root["children"].pop(root["fallback"])
    root["fallback"] = "no-such-outcome"


def _first_leaf(doc) -> dict:
    return next(n for n in _json_nodes(doc["root"]) if n["kind"] == "leaf")


def _negative_leaf_counts(doc):
    _make_counts_negative(_first_leaf(doc))


def _make_counts_negative(leaf):
    # consistent disc and majority, so only the sign of the counts is wrong
    counts = GroupCounts(*leaf["counts"]) + GroupCounts(3, -(leaf["counts"][1] + 2), 0, 0)
    leaf["counts"] = list(counts.as_tuple())
    leaf["disc"] = leaf_disc(counts)
    leaf["majority"] = "positive" if counts.pos >= counts.neg else "negative"


def _float_leaf_counts(doc):
    leaf = _first_leaf(doc)
    leaf["counts"] = [float(c) for c in leaf["counts"]]


def _boolean_disc(doc):
    leaf = next(n for n in _json_nodes(doc["root"]) if n["kind"] == "leaf" and n["disc"] == 0.0)
    leaf["disc"] = False


def _duplicate_leaf_id(doc):
    leaves = [n for n in _json_nodes(doc["root"]) if n["kind"] == "leaf"]
    leaves[1]["id"] = leaves[0]["id"]


def _schema_edited(change):
    """A schema edit with the stored fingerprint recomputed, so only the value
    types are wrong."""

    def edit(doc):
        change(doc["schema"])
        blob = json.dumps(doc["schema"], sort_keys=True, ensure_ascii=False).encode("utf-8")
        doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]

    return lambda text: _edited(text, edit)


def _binned(schema) -> dict:
    return next(a for a in schema["attributes"] if a["cut_points"])


def _deeply_nested(text: str) -> str:
    nested = '{"kind": "leaf", "id": 0, "counts": [1, 0, 0, 0], "disc": 0.0, ' \
             '"majority": "positive", "depth": 900}'
    for _ in range(900):
        nested = '{"kind": "internal", "attribute": "a", "fallback": "0", "children": {"0": ' \
                 + nested + "}}"
    return _edited(text, lambda d: d.update(root="ROOT")).replace('"ROOT"', nested)


# each mutation of a valid tree document, with the message it must raise
UNTRUSTED_DOCUMENTS = {
    "reuse-policy": (
        lambda text: _edited(text, lambda d: d["config"].update(attribute_reuse="share")),
        "reuse policy",
    ),
    "min-rows": (lambda text: _edited(text, lambda d: d["config"].update(min_rows=0)), "min_rows"),
    "schema-kind": (
        lambda text: _edited(text, lambda d: d["schema"]["attributes"][0].update(kind="ordinal")),
        "kind",
    ),
    "unknown-attribute": (
        lambda text: _edited(text, lambda d: d["root"].update(attribute="no_such_column")),
        "not a finalized feature",
    ),
    "label-attribute": (
        lambda text: _edited(text, lambda d: d["root"].update(attribute=d["schema"]["label"]["column"])),
        "not a finalized feature",
    ),
    "sensitive-attribute": (
        lambda text: _edited(
            text, lambda d: d["root"].update(attribute=d["schema"]["sensitive"]["column"])
        ),
        "not a finalized feature",
    ),
    "attribute-twice-on-path": (lambda text: _edited(text, _split_root_attribute_twice), "twice"),
    "undeclared-outcome": (lambda text: _edited(text, _undeclared_outcome), "undeclared"),
    "duplicate-leaf-id": (lambda text: _edited(text, _duplicate_leaf_id), "duplicate leaf id"),
    "negative-leaf-counts": (lambda text: _edited(text, _negative_leaf_counts), "negative counts"),
    "deep-nesting": (_deeply_nested, "malformed"),
    # integers come only from JSON integers, never by truncating a float or boolean
    "float-min-rows": (lambda text: _edited(text, lambda d: d["config"].update(min_rows=1.9)), "min_rows"),
    "boolean-min-rows": (lambda text: _edited(text, lambda d: d["config"].update(min_rows=True)), "min_rows"),
    "float-leaf-id": (
        lambda text: _edited(text, lambda d: _first_leaf(d).update(id=_first_leaf(d)["id"] + 0.5)),
        "leaf id",
    ),
    "float-leaf-counts": (lambda text: _edited(text, _float_leaf_counts), "leaf count"),
    # a leaf id is stored as an int64 wherever the tree routes rows
    "leaf-id-past-int64": (lambda text: _edited(text, lambda d: _first_leaf(d).update(id=2**63)), "int64 range"),
    "leaf-id-below-int64": (
        lambda text: _edited(text, lambda d: _first_leaf(d).update(id=-(2**63) - 1)),
        "int64 range",
    ),
    # a leaf's disc comes only from a JSON number, even when its value matches the counts
    "disc-as-text": (
        lambda text: _edited(text, lambda d: _first_leaf(d).update(disc=str(_first_leaf(d)["disc"]))),
        "disc",
    ),
    "boolean-disc": (lambda text: _edited(text, _boolean_disc), "disc"),
    # schema values come only from their own JSON types, even under a matching fingerprint
    "cut-points-as-text": (
        _schema_edited(lambda s: _binned(s).update(cut_points=[str(c) for c in _binned(s)["cut_points"]])),
        "cut point",
    ),
    "boolean-cut-point": (_schema_edited(lambda s: _binned(s)["cut_points"].__setitem__(0, True)), "cut point"),
    "numeric-outcome": (_schema_edited(lambda s: s["attributes"][0]["outcomes"].__setitem__(0, 1)), "outcome"),
    "numeric-missing-token": (_schema_edited(lambda s: s["missing_tokens"].__setitem__(0, 0)), "missing token"),
}


@pytest.fixture(scope="module")
def tree_text(german):
    return serialize(build(german.subset(np.arange(200)), "kl"))


class TestFairTree:
    def test_frozen_and_digest_serializes_once(self, monkeypatch):
        import dataclasses

        import fairtree.tree as tr

        t = toy_table({"a": [0, 0, 1, 1]}, favored=[1, 0, 1, 0], positive=[1, 0, 0, 1])
        tree = build(t, "kl")
        texts = []
        monkeypatch.setattr(tr, "serialize", lambda x: texts.append(serialize(x)) or texts[-1])
        assert tree.digest == tree.digest
        assert len(texts) == 1
        assert tree.digest == hashlib.sha256(texts[0].encode("utf-8")).hexdigest()[:16]
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.criterion = "euclid"


    def test_deserialized_digest_hashes_the_text_without_serializing(self, tree_text, monkeypatch):
        import fairtree.tree as tr

        monkeypatch.setattr(tr, "serialize", lambda x: pytest.fail("serialize called"))
        for text in (tree_text, tree_text.replace("\n", "\r\n")):
            assert deserialize(text).digest == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Text that JSON must escape or may pass through: quotes, backslashes,
#: control characters, non-ASCII text and the two JavaScript line separators.
#: A lone surrogate is left out: UTF-8 cannot encode it, so no tree holding one
#: can be written (``test_cli`` checks that a document spelling one is refused).
_awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\t\n\r\u2028\u2029é日🙂'), st.characters(codec="utf-8")),
    max_size=6,
)


def _schema(features: dict) -> TableSchema:
    """A schema of categorical feature columns (name to outcomes) plus the group and class columns."""
    return TableSchema(
        (*(AttributeSpec(a, "categorical", o) for a, o in features.items()),
         AttributeSpec("grp", "categorical", ("fav", "dep")),
         AttributeSpec("cls", "categorical", ("yes", "no"))),
        LabelSpec("cls", "yes", "no"),
        SensitiveSpec("grp", "fav", "dep"),
    )


@st.composite
def awkward_trees(draw):
    """A tree over feature columns whose names and outcomes are awkward text:
    each internal node has children for some of its attribute's outcomes, in
    a drawn order, and each leaf drawn counts with their own disc and majority."""
    names = draw(st.lists(_awkward_text.filter(lambda a: a not in ("grp", "cls")), min_size=1, max_size=3,
                          unique=True))
    features = {a: tuple(draw(st.lists(_awkward_text, min_size=1, max_size=3, unique=True))) for a in names}
    leaf_ids = iter(draw(st.permutations(range(64))))

    def node(depth, unused):
        if not unused or draw(st.booleans()):
            counts = GroupCounts(*draw(st.tuples(*[st.integers(0, 10**4)] * 4)))
            return Leaf(next(leaf_ids), counts, leaf_disc(counts), counts.pos >= counts.neg, depth)
        attribute = draw(st.sampled_from(sorted(unused)))
        kept = draw(st.lists(st.sampled_from(features[attribute]), min_size=1, unique=True))
        children = {o: node(depth + 1, unused - {attribute}) for o in kept}
        return Internal(attribute, children, draw(st.sampled_from(kept)))

    return node(0, set(names)), _schema(features)


@given(case=awkward_trees(), min_rows=st.integers(1, 50))
@example(case=(Leaf(0, GroupCounts(1, 0, 0, 1), 2.0, True, 0), _schema({"a": ("0", "1")})), min_rows=1)
def test_emitter_text_equals_the_dict_and_json_writer(case, min_rows):
    root, schema = case
    tree = oracle.tree_from_root(root, schema, config=BuildConfig(min_rows))
    assert serialize(tree) == oracle.serialize_by_dict(tree)


class TestSerialization:
    @pytest.mark.parametrize("mutation", sorted(UNTRUSTED_DOCUMENTS))
    def test_untrusted_document_rejected(self, tree_text, mutation):
        mutate, message = UNTRUSTED_DOCUMENTS[mutation]
        assert isinstance(deserialize(tree_text).root, Internal)
        with pytest.raises(DataError, match=message):
            deserialize(mutate(tree_text))

    def test_first_faulty_node_in_preorder_is_reported(self, tree_text):
        def leaves(node):
            if node["kind"] == "leaf":
                return [node]
            return [x for c in node["children"].values() for x in leaves(c)]

        def wrong_disc(leaf):
            leaf["disc"] += 0.5

        # two faulty leaves: the earlier one in preorder is named, whichever check finds the other
        for early_fault, late_fault, message in ((wrong_disc, _make_counts_negative, "stored disc"),
                                                 (_make_counts_negative, wrong_disc, "negative counts")):
            doc = json.loads(tree_text)
            early, late = leaves(doc["root"])[0], leaves(doc["root"])[-1]
            early_fault(early)
            late_fault(late)
            with pytest.raises(DataError, match=f"leaf {early['id']}: {message}"):
                deserialize(json.dumps(doc))
        # an internal node comes before every node of its subtree
        doc = json.loads(tree_text)
        doc["root"]["fallback"] = "no-such-outcome"
        _make_counts_negative(leaves(doc["root"])[0])
        with pytest.raises(DataError, match="fallback outcome 'no-such-outcome' is not a child"):
            deserialize(json.dumps(doc))

    def test_node_shaped_value_is_quoted_as_written(self, tree_text):
        doc = json.loads(tree_text)
        doc["root"]["attribute"] = {"kind": "leaf", "id": 0, "counts": [1, 0, 0, 1], "disc": 2.0,
                                    "majority": "positive", "depth": 0}
        with pytest.raises(DataError, match=r"split attribute \{'kind': 'leaf', 'id': 0, .* is not a finalized"):
            deserialize(json.dumps(doc))

    def test_key_order_does_not_matter(self, german, tree_text):
        # sorted keys also reorder each node's children, and so the preorder
        tree = deserialize(tree_text)
        resorted = deserialize(json.dumps(json.loads(tree_text), sort_keys=True, indent=2))
        assert {x.id: x for x in resorted.leaves()} == {x.id: x for x in tree.leaves()}
        assert np.array_equal(route(resorted, german), route(tree, german))

    def test_deserialize_walks_the_document_once(self, tree_text, monkeypatch):
        import fairtree.tree as tr

        read, calls = tr._read_nodes, []
        monkeypatch.setattr(tr, "_read_nodes", lambda *args: calls.append(args) or read(*args))
        assert isinstance(deserialize(tree_text).root, Internal)
        assert len(calls) == 1

    @pytest.mark.parametrize("criterion", ["kl", "euclid"])
    def test_outcomes_named_like_node_keys_round_trip(self, criterion):
        # a children object keyed by such outcomes has a node's keys, with nodes for values
        n = 60
        fav = [(i * 7) % 5 < 2 for i in range(n)]
        table = toy_table(
            {"kind": [("kind", "leaf", "internal")[i % 3] for i in range(n)],
             "counts": [("kind", "attribute", "fallback", "children")[(i // 3) % 4] for i in range(n)]},
            favored=fav, positive=[(i % 3 == 0) ^ fav[i] or (i // 3) % 4 == 1 for i in range(n)],
        )
        tree = build(table, criterion)
        assert tree.nodes.attributes[0] == "kind" and sorted(tree.root.children) == ["internal", "kind", "leaf"]
        if criterion == "euclid":  # one level down, each split is keyed by an internal node's keys
            assert sorted(tree.root.children["kind"].children) == ["attribute", "children", "fallback", "kind"]
        text = serialize(tree)
        again = deserialize(text)
        assert serialize(again) == text and again.digest == tree.digest
        assert np.array_equal(route(again, table), route(tree, table))

    def test_round_trip(self, german):
        tree = build(german.subset(np.arange(200)), "kl")
        text = serialize(tree)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.criterion == tree.criterion
        assert again.config == tree.config
        assert again.schema == tree.schema

    def test_unknown_criterion_named_in_error(self):
        t = toy_table({"a": [0, 1]}, favored=[1, 0], positive=[1, 0])
        text = serialize(build(t, "kl")).replace('"criterion": "kl"', '"criterion": "chi2"')
        with pytest.raises(DataError, match="chi2"):
            deserialize(text)

    def test_corrupted_disc_rejected(self):
        t = toy_table({"a": [0, 0, 1, 1]}, favored=[1, 0, 1, 0], positive=[1, 1, 0, 0])
        tree = build(t, "euclid")
        leaf = tree.leaves()[0]
        text = serialize(tree).replace(f'"disc": {leaf.disc}', '"disc": 1.2345')
        with pytest.raises(DataError, match="disc"):
            deserialize(text)

    def test_malformed_document(self):
        with pytest.raises(DataError, match="malformed|format"):
            deserialize("{not json")
        with pytest.raises(DataError, match="format"):
            deserialize('{"format": "other/9"}')

    def test_min_rows_config_respected(self):
        t = toy_table({"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]},
                      favored=[1, 0, 1, 0], positive=[1, 1, 0, 0])
        tree = build(t, "kl", BuildConfig(min_rows=5))
        assert isinstance(tree.root, Leaf)
