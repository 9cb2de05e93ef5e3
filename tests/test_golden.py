"""Pinned table, tree, plan and sweep digests: the pipeline must reproduce these bytes.

The digests hash the discretized and conformed tables (schema and every
cell), the serialized tree, the serialized sigma-0 plan and the sweep CSV, so
any change in binning, split scoring, tie-breaking, leaf order, row picking,
classifier arithmetic or document layout shows up here. Re-pin only with a
change that says which bytes move and why.
"""

import hashlib

import pytest

from fairtree.cli import _parse_grid
from fairtree.data import conform_to_schema, discretize_all, load_csv, write_csv
from fairtree.datasets import GENERATORS, make_compas, make_german
from fairtree.eval import TrainConfig, sweep
from fairtree.relabel import census, plan, plan_to_json
from fairtree.tree import build

TABLE_GOLDEN = {"german": "1cd57f5bc5a2bb9a", "compas": "31995cc50cfe4ce6"}


@pytest.mark.parametrize("dataset", sorted(TABLE_GOLDEN))
def test_discretized_and_conformed_table_fingerprints_are_pinned(request, dataset):
    raw = {"german": make_german, "compas": make_compas}[dataset]()
    discretized = request.getfixturevalue(dataset)
    assert discretize_all(raw).fingerprint == TABLE_GOLDEN[dataset]
    assert discretized.fingerprint == TABLE_GOLDEN[dataset]
    assert conform_to_schema(raw, discretized.schema).fingerprint == TABLE_GOLDEN[dataset]


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
    plan_text = plan_to_json(plan(census(tree, table), 0.0, 42))
    plan_digest = hashlib.sha256(plan_text.encode("utf-8")).hexdigest()[:16]
    assert (tree.digest, plan_digest) == GOLDEN[dataset, criterion]


SWEEP_GOLDEN = {"kl": "72b2db2d55fd0db1", "euclid": "fa7fc6cfb608bc06"}


@pytest.mark.parametrize("criterion", sorted(SWEEP_GOLDEN))
def test_sweep_bytes_are_pinned(german, criterion, tmp_path):
    result = sweep(german, criterion, _parse_grid("0:2:0.1"), seed=42,
                   train_config=TrainConfig(), folds=2)
    out = tmp_path / "sweep.csv"
    result.to_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == SWEEP_GOLDEN[criterion]


ADULT_GOLDEN = {"kl": "6d0da3830e85c056", "euclid": "fc02c3d99eae3c70"}


@pytest.mark.parametrize("criterion", sorted(ADULT_GOLDEN))
def test_adult_sample_tree_digests_are_pinned(adult_sample, criterion, tmp_path):
    in_memory = discretize_all(adult_sample)
    assert build(in_memory, criterion).digest == ADULT_GOLDEN[criterion]
    # the same table read back from CSV, as the benchmark and the CLI see it
    path = tmp_path / "adult.csv"
    write_csv(adult_sample, path)
    schema = adult_sample.schema
    assert discretize_all(load_csv(path, schema.label, schema.sensitive)).fingerprint == in_memory.fingerprint


#: sha256 of ``write_csv(GENERATORS[dataset](seed))``, recorded before the
#: generators formatted their integer columns once per distinct value.
STANDIN_CSV_GOLDEN = {
    ("german", 42): "a64b8dad4ce172912b2fabf8366454e61a8ce396bb922beb11cc3c5a20f9fd73",
    ("german", 7): "82c80fbac9db50a254de39eba6f5d3000d8c10650a47d235f06953cedc525f24",
    ("compas", 42): "8806e56dc0a26f98dde9e29c4e54ef505b8d91ee0d88230be5a1882a7b818e1e",
    ("compas", 7): "e771769e74be292661c739c8614e86805ca62b6a9e577da8e58c02f2b5f47d48",
    ("adult", 42): "5a7e6c32fa97909db8a0456a9cac0f3fb6ee97d6a7d5d2edf638761ad4fb899f",
    ("adult", 7): "51d7860eb3b45ddf228548ea9464c94ee9673c79950608eb000975fa0ead4b67",
}


@pytest.mark.parametrize("dataset,seed", sorted(STANDIN_CSV_GOLDEN))
def test_standin_csv_bytes_are_pinned(dataset, seed, tmp_path):
    path = tmp_path / f"{dataset}.csv"
    write_csv(GENERATORS[dataset](seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STANDIN_CSV_GOLDEN[dataset, seed]
