"""Pinned tree and plan digests: the tree core must reproduce these bytes.

The digests hash the serialized tree and the serialized sigma-0 plan, so any
change in split scoring, tie-breaking, leaf order or document layout shows up
here. Re-pin only with a change that says which bytes move and why.
"""

import pytest

from fairtree.relabel import plan
from fairtree.tree import build

GOLDEN = {
    ("german", "kl"): ("8fadbe8f1ebdd7cf", "ecf48ab0176bc509"),
    ("german", "euclid"): ("23f81ec5d361b210", "2ee018d13030c7f3"),
    ("compas", "kl"): ("0abba9131cc8521f", "59e70f0ad7ba3b1c"),
    ("compas", "euclid"): ("e6be341717015ab2", "5160494f971af289"),
}


@pytest.mark.parametrize("dataset,criterion", sorted(GOLDEN))
def test_tree_and_plan_digests_are_pinned(request, dataset, criterion):
    table = request.getfixturevalue(dataset)
    tree = build(table, criterion)
    assert (tree.digest, plan(tree, table, 0.0, 42).digest) == GOLDEN[dataset, criterion]
