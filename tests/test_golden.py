"""Pinned tree, plan and sweep digests: the pipeline must reproduce these bytes.

The digests hash the serialized tree, the serialized sigma-0 plan and the
sweep CSV, so any change in split scoring, tie-breaking, leaf order, row
picking, classifier arithmetic or document layout shows up here. Re-pin only
with a change that says which bytes move and why.
"""

import hashlib

import pytest

from fairtree.cli import _parse_grid
from fairtree.eval import TrainConfig, sweep
from fairtree.relabel import census, plan
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
    assert (tree.digest, plan(census(tree, table), 0.0, 42).digest) == GOLDEN[dataset, criterion]


SWEEP_GOLDEN = {"kl": "72b2db2d55fd0db1", "euclid": "fa7fc6cfb608bc06"}


@pytest.mark.parametrize("criterion", sorted(SWEEP_GOLDEN))
def test_sweep_bytes_are_pinned(german, criterion, tmp_path):
    result = sweep(german, criterion, _parse_grid("0:2:0.1"), seed=42,
                   train_config=TrainConfig(), folds=2)
    out = tmp_path / "sweep.csv"
    result.to_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == SWEEP_GOLDEN[criterion]
