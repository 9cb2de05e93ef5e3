"""Divergence-based decision trees for locating and relabeling discriminatory subgroups.

The names of ``eval``, ``metrics`` and ``relabel`` are loaded on first use
(PEP 562), so a command that does not run those modules does not import them.
"""

import importlib

from .data import (
    AttributeSpec,
    DataTable,
    DiscretizationRule,
    GroupCounts,
    LabelSpec,
    SensitiveSpec,
    TableSchema,
    discretize_all,
    group_counts,
    load_csv,
    write_csv,
)
from .errors import ConfigError, DataError, FairtreeError, IntegrityError, UndefinedMetricError
from .tree import (
    BuildConfig,
    FairTree,
    InterpretabilityStats,
    build,
    deserialize,
    extract_subgroups,
    leaf_disc,
    serialize,
    stats,
)

_LAZY = {
    "eval": ("LinearModel", "TrainConfig", "kfold", "sweep", "train_linear", "training_losses"),
    "metrics": ("FairnessReport", "GroupConfusion", "fairness_report", "roc_points"),
    "relabel": ("RelabelPlan", "apply", "census", "demote_count", "plan", "promote_count", "relabeled_mask"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
