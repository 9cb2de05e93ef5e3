"""Divergence-based decision trees for locating and relabeling discriminatory subgroups."""

from .data import (
    AttributeSpec,
    DataTable,
    DiscretizationRule,
    GroupCounts,
    LabelSpec,
    SensitiveSpec,
    TableSchema,
    discretize,
    discretize_all,
    group_counts,
    load_csv,
    write_csv,
)
from .errors import ConfigError, DataError, FairtreeError, IntegrityError, UndefinedMetricError
from .eval import LinearModel, TrainConfig, kfold, split, sweep, train_linear, training_losses
from .metrics import (
    FairnessReport,
    GroupConfusion,
    accuracy,
    average_odds_difference,
    balanced_accuracy,
    demographic_parity,
    fairness_report,
    roc_points,
)
from .relabel import (
    RelabelPlan,
    apply,
    census,
    demote_count,
    plan,
    promote_count,
)
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

__version__ = "0.1.0"
