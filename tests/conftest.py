import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fairtree.data import (
    DataTable,
    LabelSpec,
    SensitiveSpec,
    discretize_all,
    table_from_columns,
)
from fairtree.datasets import make_adult, make_compas, make_german

# scripts/smoke.py's output checks and scenario are imported as ``smoke``
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)
settings.load_profile("ci")

warnings.filterwarnings("ignore", message="column .* has only")
warnings.filterwarnings("ignore", message="column .* is constant")
warnings.filterwarnings("ignore", message="column .*: ties reduced")


def toy_table(attr_columns: dict, favored, positive) -> DataTable:
    """Small in-memory table from attribute columns plus boolean group/class flags."""
    cols = {name: np.array([str(v) for v in vals], dtype=object) for name, vals in attr_columns.items()}
    cols["grp"] = np.where(np.asarray(favored, dtype=bool), "fav", "dep").astype(object)
    cols["cls"] = np.where(np.asarray(positive, dtype=bool), "yes", "no").astype(object)
    return table_from_columns(
        cols,
        LabelSpec("cls", "yes", "no"),
        SensitiveSpec("grp", "fav", "dep"),
        categorical_columns=tuple(attr_columns),
    )


def table_rows(table: DataTable) -> list[tuple]:
    """Rows as (attr values..., favored, positive) tuples for the brute-force oracle."""
    feats = table.schema.feature_names
    cols = [table.column(f) for f in feats]
    fav, pos = table.favored_mask, table.positive_mask
    return [
        tuple(col[i] for col in cols) + (bool(fav[i]), bool(pos[i]))
        for i in range(table.n_rows)
    ]


def relabel_bound(counts) -> float:
    """Rounding bound on |disc| after promote/demote repairs a two-group leaf.

    The plan promotes when the leaf's positives are at least its negatives and
    demotes otherwise. Rounding the flip count to whole rows is off by at most
    half a row, a rate gap of 0.5/n in the moved group of n rows; disc, twice
    that gap, ends within 1/n_dep after promotion and within 1/n_fav after
    demotion (see promote_count and demote_count).
    """
    return 1.0 / (counts.n_dep if counts.pos >= counts.neg else counts.n_fav)


def _quiet_discretize(table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return discretize_all(table)


@pytest.fixture(scope="session")
def german():
    return _quiet_discretize(make_german())


@pytest.fixture(scope="session")
def compas():
    return _quiet_discretize(make_compas())


@pytest.fixture(scope="session")
def adult_sample():
    """The seed-42 8,000-row adult sample, drawn as the benchmark's stand-in is."""
    raw = make_adult(seed=42)
    keep = np.random.default_rng([42, 7]).permutation(raw.n_rows)[:8000]
    return raw.subset(np.sort(keep))
