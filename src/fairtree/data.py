"""Tabular dataset handling: schemas, CSV I/O, discretization, group counts.

Tables are immutable; every transformation constructs a new ``DataTable``.
Cell values are kept as the exact strings read from disk, so writing a table
back out reproduces the input bytes for untouched columns. Numeric columns
additionally cache parsed floats, which feed discretization; after
discretization the column holds categorical range codes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError

#: Category code used for missing cells. Raw missing tokens (see
#: ``TableSchema.missing_tokens``) are mapped onto this code but the original
#: token is preserved in the stored cell text.
MISSING = "␀missing"

DEFAULT_MISSING_TOKENS = ("", "?")

SCHEMA_FORMAT = "fairtree-schema/1"


@dataclass(frozen=True)
class LabelSpec:
    """Binary label contract: the column and which value counts as positive."""

    column: str
    positive: str
    negative: str | None = None


@dataclass(frozen=True)
class SensitiveSpec:
    """Binary sensitive-attribute contract: column plus favored/deprived values."""

    column: str
    favored: str
    deprived: str | None = None


@dataclass(frozen=True)
class AttributeSpec:
    """One column's declaration: name, kind, and its finalized outcome codes.

    Numeric columns start with no outcomes; discretization finalizes them into
    ordered range codes and records the cut points used.
    """

    name: str
    kind: str  # "categorical" | "numeric"
    outcomes: tuple[str, ...] = ()
    cut_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ConfigError(f"unknown attribute kind {self.kind!r} for column {self.name!r}")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ConfigError(f"duplicate outcomes declared for column {self.name!r}")
        if any(b <= a for a, b in zip(self.cut_points, self.cut_points[1:])):
            raise ConfigError(f"cut points for column {self.name!r} must be strictly increasing")

    @property
    def finalized(self) -> bool:
        return bool(self.outcomes)


@dataclass(frozen=True)
class DiscretizationRule:
    """How to bin one numeric column.

    ``cut_points`` may pre-specify boundaries (e.g. replaying a recorded
    schema); when empty they are fitted from the data by ``strategy``.
    """

    column: str
    strategy: str = "equal-frequency"  # "equal-frequency" | "equal-width"
    bin_count: int = 4
    cut_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.strategy not in ("equal-frequency", "equal-width"):
            raise ConfigError(f"unknown discretization strategy {self.strategy!r}")
        if self.bin_count < 2:
            raise ConfigError("bin_count must be at least 2")


@dataclass(frozen=True)
class GroupCounts:
    """The four group-by-class counts at any subset of rows."""

    fav_pos: int
    fav_neg: int
    dep_pos: int
    dep_neg: int

    @property
    def n_fav(self) -> int:
        return self.fav_pos + self.fav_neg

    @property
    def n_dep(self) -> int:
        return self.dep_pos + self.dep_neg

    @property
    def pos(self) -> int:
        return self.fav_pos + self.dep_pos

    @property
    def neg(self) -> int:
        return self.fav_neg + self.dep_neg

    @property
    def n(self) -> int:
        return self.n_fav + self.n_dep

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.fav_pos, self.fav_neg, self.dep_pos, self.dep_neg)

    def __add__(self, other: "GroupCounts") -> "GroupCounts":
        return GroupCounts(
            self.fav_pos + other.fav_pos,
            self.fav_neg + other.fav_neg,
            self.dep_pos + other.dep_pos,
            self.dep_neg + other.dep_neg,
        )


@dataclass(frozen=True)
class TableSchema:
    """Full table contract: column specs plus label/sensitive declarations."""

    attributes: tuple[AttributeSpec, ...]
    label: LabelSpec
    sensitive: SensitiveSpec
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate column names in schema")
        for spec, role in ((self.label, "label"), (self.sensitive, "sensitive")):
            if spec.column not in names:
                raise ConfigError(f"{role} column {spec.column!r} not present in schema")

    def spec(self, name: str) -> AttributeSpec:
        for a in self.attributes:
            if a.name == name:
                return a
        raise ConfigError(f"no column named {name!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Candidate split columns: everything but label and sensitive, in declaration order."""
        skip = {self.label.column, self.sensitive.column}
        return tuple(a.name for a in self.attributes if a.name not in skip)

    def to_json(self) -> dict:
        return {
            "label": asdict(self.label),
            "sensitive": asdict(self.sensitive),
            "missing_tokens": list(self.missing_tokens),
            "attributes": [asdict(a) for a in self.attributes],
        }

    @staticmethod
    def from_json(doc: dict) -> "TableSchema":
        """The schema a document records. Values are taken only from their own
        JSON types: text compared as a number would bin cells silently wrong."""

        def text(value, what):
            return json_typed(value, str, f"schema {what}")

        def texts(values, what):
            return tuple(text(v, what) for v in json_typed(values, list, f"schema {what}s"))

        try:
            label = LabelSpec(
                *(text(doc["label"][k], "label value") for k in ("column", "positive", "negative"))
            )
            sens = SensitiveSpec(
                *(text(doc["sensitive"][k], "sensitive value") for k in ("column", "favored", "deprived"))
            )
            attrs = tuple(
                AttributeSpec(
                    text(a["name"], "column name"),
                    text(a["kind"], "kind"),
                    texts(a["outcomes"], "outcome"),
                    tuple(
                        json_typed(c, (int, float), "schema cut point")
                        for c in json_typed(a["cut_points"], list, "schema cut points")
                    ),
                )
                for a in json_typed(doc["attributes"], list, "schema attributes")
            )
            missing = texts(doc.get("missing_tokens", list(DEFAULT_MISSING_TOKENS)), "missing token")
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema document: {exc}") from exc
        return TableSchema(attrs, label, sens, missing)

    @cached_property
    def fingerprint(self) -> str:
        """Hash of the schema document, computed once per schema."""
        blob = json.dumps(self.to_json(), sort_keys=True, ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


class DataTable:
    """Immutable table of string cells with a binary label and sensitive attribute.

    Finalized (categorical or discretized) columns carry integer code arrays
    indexing into their spec's outcomes; numeric columns carry parsed floats
    (NaN where missing) until discretized. A table built from cells encodes
    every column. A derived table (``subset``, ``with_positive_mask``,
    ``discretize``, ``conform_to_schema``) shares or slices the arrays of
    every column whose cells and spec it keeps, takes a binned column's codes
    from its bin index, and encodes only the rest: a replaced label column and
    any column whose spec differs from the source's.
    """

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.column_names):
            raise ConfigError("columns do not match schema")
        n = None
        cells: dict[str, np.ndarray] = {}
        for name in schema.column_names:
            col = np.asarray(columns[name], dtype=object)
            if n is None:
                n = col.shape[0]
            elif col.shape[0] != n:
                raise DataError(f"column {name!r} has {col.shape[0]} rows, expected {n}")
            cells[name] = col
        self._fill(schema, cells, {}, {})

    def _fill(self, schema, cells, codes, floats) -> None:
        """Encode every column that has no codes or floats yet, check the label
        and sensitive declarations, and take the arrays, frozen, as this table's."""
        for spec in schema.attributes:
            if spec.finalized and spec.name not in codes:
                codes[spec.name] = _encode(spec, schema.missing_tokens, cells[spec.name])
            elif spec.kind == "numeric" and not spec.finalized and spec.name not in floats:
                floats[spec.name] = _parse_floats(spec.name, schema.missing_tokens, cells[spec.name])
        for arrays in (cells, codes, floats):
            for col in arrays.values():
                _frozen(col)

        for role, spec_col, values in (
            ("label", schema.label.column, (schema.label.positive, schema.label.negative)),
            ("sensitive", schema.sensitive.column, (schema.sensitive.favored, schema.sensitive.deprived)),
        ):
            outcomes = schema.spec(spec_col).outcomes
            if None in values or len(set(values)) != 2:
                raise ConfigError(f"{role} column {spec_col!r} needs two distinct declared values")
            if not set(outcomes) <= set(values):
                extra = sorted(set(outcomes) - set(values))
                raise ConfigError(f"{role} column {spec_col!r} has undeclared values {extra}")

        self.schema = schema
        self._columns = cells
        self._n = int(cells[schema.label.column].shape[0])
        self._codes = codes
        self._floats = floats
        self._positive = _frozen(cells[schema.label.column] == schema.label.positive)
        self._favored = _frozen(cells[schema.sensitive.column] == schema.sensitive.favored)
        # group-class code per row: 0 = favored+, 1 = favored-, 2 = deprived+, 3 = deprived-
        self.gc_codes = _frozen(np.where(self._favored, 0, 2) + np.where(self._positive, 0, 1))
        self._fingerprint: str | None = None

    def _derive(self, schema: TableSchema, rows: np.ndarray | None = None, replaced=None) -> "DataTable":
        """This table under ``schema``, restricted to ``rows`` (all when None),
        with the cells of each ``replaced`` column swapped for a pair
        ``(cells, codes)``, where codes may be None.

        A column keeps its codes and floats when its cells stay and its spec
        and the missing tokens are the source's; ``_fill`` encodes the rest.
        """
        replaced = replaced or {}
        same = set(self.schema.attributes) if schema.missing_tokens == self.schema.missing_tokens else set()
        kept = [a.name for a in schema.attributes if a in same and a.name not in replaced]
        cells = {a.name: self._columns[a.name] for a in schema.attributes}
        cells.update((name, col) for name, (col, _) in replaced.items())
        codes = {name: self._codes[name] for name in kept if name in self._codes}
        codes.update((name, col) for name, (_, col) in replaced.items() if col is not None)
        floats = {name: self._floats[name] for name in kept if name in self._floats}
        if rows is not None:
            cells, codes, floats = ({n: col[rows] for n, col in d.items()} for d in (cells, codes, floats))
        table = DataTable.__new__(DataTable)
        table._fill(schema, cells, codes, floats)
        return table

    # -- accessors ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def codes(self, name: str) -> np.ndarray:
        if name not in self._codes:
            raise DataError(f"column {name!r} is not finalized; discretize it first")
        return self._codes[name]

    def floats(self, name: str) -> np.ndarray:
        if name not in self._floats:
            raise DataError(f"column {name!r} has no numeric values")
        return self._floats[name]

    @property
    def positive_mask(self) -> np.ndarray:
        return self._positive

    @property
    def favored_mask(self) -> np.ndarray:
        return self._favored

    @property
    def finalized(self) -> bool:
        return all(spec.finalized for spec in self.schema.attributes)

    @property
    def fingerprint(self) -> str:
        """Digest over schema and every cell; identifies this exact table."""
        if self._fingerprint is None:
            h = hashlib.sha256(self.schema.fingerprint.encode("ascii"))
            for name in self.schema.column_names:
                h.update(b"\x1e")
                h.update("\x1f".join(self._columns[name]).encode("utf-8"))
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # -- construction of derived tables -------------------------------------

    def subset(self, indices: np.ndarray) -> "DataTable":
        return self._derive(self.schema, rows=np.asarray(indices))

    def with_positive_mask(self, positive: np.ndarray) -> "DataTable":
        """New table whose label column encodes the given positive/negative flags."""
        positive = np.asarray(positive, dtype=bool)
        if positive.shape != (self._n,):
            raise ConfigError("label mask has wrong length")
        lbl = self.schema.label
        cells = np.where(positive, lbl.positive, lbl.negative).astype(object)
        return self._derive(self.schema, replaced={lbl.column: (cells, None)})


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def json_typed(value, kind, what: str):
    """``value`` when its JSON type is ``kind`` (a type or a tuple of types),
    else DataError. Documents are untrusted: a float or boolean where an integer
    belongs is not truncated, and text where a number belongs is not compared."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise DataError(f"{what} must be a JSON {names}, got {value!r:.40}")
    return value


def _encode(spec: AttributeSpec, missing_tokens, values: np.ndarray) -> np.ndarray:
    lut = {o: i for i, o in enumerate(spec.outcomes)}
    if MISSING in lut:
        for tok in missing_tokens:
            lut.setdefault(tok, lut[MISSING])
    try:
        return np.fromiter(map(lut.__getitem__, values.tolist()), np.int64, count=values.shape[0])
    except KeyError as exc:
        raise DataError(
            f"value {exc.args[0]!r} in column {spec.name!r} is not among its declared outcomes"
        ) from exc


def _parse_floats(name: str, missing_tokens, values: np.ndarray) -> np.ndarray:
    missing = set(missing_tokens)
    out = np.empty(values.shape[0], dtype=float)
    for i, v in enumerate(values):
        if v in missing:
            out[i] = np.nan
        else:
            try:
                out[i] = float(v)
            except ValueError:
                raise DataError(f"row {i + 1}: cannot parse {v!r} in numeric column {name!r}") from None
    return out


def group_counts(table: DataTable, rows: np.ndarray | None = None) -> GroupCounts:
    """Exact (favored/deprived x positive/negative) counts over a row subset."""
    gc = table.gc_codes if rows is None else table.gc_codes[rows]
    c = np.bincount(gc, minlength=4)
    return GroupCounts(int(c[0]), int(c[1]), int(c[2]), int(c[3]))


# -- CSV I/O ----------------------------------------------------------------


def load_csv(
    path,
    label: LabelSpec,
    sensitive: SensitiveSpec,
    *,
    numeric_columns: tuple[str, ...] = (),
    categorical_columns: tuple[str, ...] = (),
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
) -> DataTable:
    """Load an RFC-4180-style CSV (header required, UTF-8) into a DataTable.

    Columns listed in ``numeric_columns`` must parse as floats; columns in
    ``categorical_columns`` are never treated as numeric. Everything else is
    inferred from each column's set of distinct values, taken once: a column
    whose distinct non-missing values all parse as floats is numeric and left
    unfinalized for discretization; otherwise its sorted distinct values (plus
    ``MISSING`` when a missing token occurs) are its outcomes. The label and
    sensitive columns are always categorical. Unresolved ``negative``/``deprived``
    values are inferred when the column has exactly one other observed value.
    A byte-order mark that hides the label or sensitive column name is a data
    error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            raw_rows = []
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DataError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
                raw_rows.append(row)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header and header[0][:1] == "\ufeff" and header[0][1:] in (label.column, sensitive.column):
        raise DataError(
            f"{path}: the file begins with a byte-order mark, read as part of column name {header[0][1:]!r}"
        )

    columns = {
        name: np.array([row[j] for row in raw_rows], dtype=object) for j, name in enumerate(header)
    }
    return table_from_columns(
        columns,
        label,
        sensitive,
        numeric_columns=numeric_columns,
        categorical_columns=categorical_columns,
        missing_tokens=missing_tokens,
        source=str(path),
    )


def table_from_columns(
    columns: dict[str, np.ndarray],
    label: LabelSpec,
    sensitive: SensitiveSpec,
    *,
    numeric_columns: tuple[str, ...] = (),
    categorical_columns: tuple[str, ...] = (),
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS,
    source: str = "<memory>",
) -> DataTable:
    """Build a table from ordered string columns with the same inference as load_csv."""
    header = list(columns)
    for col, role in ((label.column, "label"), (sensitive.column, "sensitive")):
        if col not in header:
            raise ConfigError(f"{role} column {col!r} not found in {source}")

    columns = {name: np.asarray(col, dtype=object) for name, col in columns.items()}

    missing = set(missing_tokens)
    label = _resolve_binary(label, "positive", "negative", columns[label.column], missing, "label")
    sensitive = _resolve_binary(
        sensitive, "favored", "deprived", columns[sensitive.column], missing, "sensitive"
    )

    specs = []
    for name, values in columns.items():
        if name == label.column:
            specs.append(AttributeSpec(name, "categorical", (label.positive, label.negative)))
            continue
        if name == sensitive.column:
            specs.append(AttributeSpec(name, "categorical", (sensitive.favored, sensitive.deprived)))
            continue
        distinct = set(values.tolist())
        present = distinct - missing
        if name in numeric_columns or (name not in categorical_columns and present and _all_float(present)):
            specs.append(AttributeSpec(name, "numeric"))
        else:
            outcomes = sorted(present) + ([MISSING] if distinct & missing else [])
            specs.append(AttributeSpec(name, "categorical", tuple(outcomes)))

    schema = TableSchema(tuple(specs), label, sensitive, tuple(missing_tokens))
    try:
        return DataTable(schema, columns)
    except DataError as exc:  # a declared numeric cell that does not parse, or a short column
        raise DataError(f"{source}: {exc}") from None


def _all_float(values) -> bool:
    try:
        for v in values:
            float(v)
    except ValueError:
        return False
    return True


def _resolve_binary(spec, pos_field, neg_field, values, missing, role):
    declared = getattr(spec, pos_field)
    other = getattr(spec, neg_field)
    observed = sorted(set(values))
    bad_missing = [v for v in observed if v in missing]
    if bad_missing:
        raise DataError(f"{role} column {spec.column!r} contains missing values")
    if other is None:
        rest = [v for v in observed if v != declared]
        if len(rest) != 1:
            raise ConfigError(
                f"cannot infer the second {role} value for column {spec.column!r}: "
                f"observed values {observed}"
            )
        spec = replace(spec, **{neg_field: rest[0]})
        other = rest[0]
    if declared == other:
        raise ConfigError(f"{role} column {spec.column!r}: declared values must differ")
    extra = sorted(set(observed) - {declared, other})
    if extra:
        raise ConfigError(f"{role} column {spec.column!r} has undeclared values {extra}")
    return spec


def write_csv(table: DataTable, path) -> None:
    """Write the table; stored cell strings are emitted verbatim (RFC-4180 quoting)."""
    names = table.schema.column_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*(table.column(name).tolist() for name in names)))


def write_schema_sidecar(table: DataTable, path) -> None:
    """Human-readable key-value record of specs, outcomes, and cut points."""
    s = table.schema
    lines = [
        f"format: {SCHEMA_FORMAT}",
        f"fingerprint: {s.fingerprint}",
        f"label.column: {s.label.column}",
        f"label.positive: {s.label.positive}",
        f"label.negative: {s.label.negative}",
        f"sensitive.column: {s.sensitive.column}",
        f"sensitive.favored: {s.sensitive.favored}",
        f"sensitive.deprived: {s.sensitive.deprived}",
        "missing.tokens: " + " | ".join(repr(t) for t in s.missing_tokens),
    ]
    for a in s.attributes:
        lines.append(f"column.{a.name}.kind: {a.kind}")
        if a.cut_points:
            lines.append(f"column.{a.name}.cut_points: " + ", ".join(_fmt(c) for c in a.cut_points))
        if a.outcomes:
            lines.append(f"column.{a.name}.outcomes: " + " | ".join(a.outcomes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- discretization -----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def fit_cut_points(table: DataTable, rule: DiscretizationRule) -> tuple[float, ...]:
    """Fit bin boundaries on the combined (favored plus deprived) column values.

    Deterministic and row-order independent: equal-frequency cuts are midpoints
    between consecutive sorted values at the bin-size ranks; ties that cannot
    be separated collapse, reducing the bin count.
    """
    values = table.floats(rule.column)
    values = np.sort(values[~np.isnan(values)])
    if values.size == 0:
        raise DataError(f"column {rule.column!r} has no numeric values to discretize")
    distinct = np.unique(values)
    if distinct.size == 1:
        warnings.warn(f"column {rule.column!r} is constant; emitting a single bin")
        return ()
    k = rule.bin_count
    if k > distinct.size:
        warnings.warn(
            f"column {rule.column!r} has only {distinct.size} distinct values; "
            f"reducing bin count from {k}"
        )
        k = distinct.size
    cuts: list[float] = []
    if rule.strategy == "equal-frequency":
        n = values.size
        # feasible cut positions: between consecutive distinct sorted values
        bounds = np.nonzero(values[1:] > values[:-1])[0] + 1
        for i in range(1, k):
            r = i * n / k
            j = int(bounds[np.argmin(np.abs(bounds - r))])  # nearest boundary to the rank
            cuts.append(float(values[j - 1] + values[j]) / 2.0)
    else:
        lo, hi = float(values[0]), float(values[-1])
        width = (hi - lo) / k
        cuts = [lo + width * i for i in range(1, k)]
    cuts = sorted(set(cuts))
    if len(cuts) + 1 < k:
        warnings.warn(f"column {rule.column!r}: ties reduced bins to {len(cuts) + 1}")
    return tuple(cuts)


def _bin_labels(cuts: tuple[float, ...]) -> list[str]:
    if not cuts:
        return ["all"]
    labels = [f"<={_fmt(cuts[0])}"]
    labels += [f"{_fmt(a)}-{_fmt(b)}" for a, b in zip(cuts, cuts[1:])]
    labels.append(f">{_fmt(cuts[-1])}")
    return labels


def _bin_cells(values: np.ndarray, cuts: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Bin label and bin index per value; NaN becomes ``MISSING`` at index
    ``len(_bin_labels(cuts))``, which is ``MISSING``'s code when the outcomes
    are the bin labels then ``MISSING``, so the index is the column's codes."""
    labels = np.array(_bin_labels(cuts) + [MISSING], dtype=object)
    idx = np.searchsorted(np.asarray(cuts), values, side="left")
    idx[np.isnan(values)] = len(labels) - 1
    return labels[idx], idx


def discretize(table: DataTable, rule: DiscretizationRule) -> DataTable:
    """Replace a numeric column's values by categorical range codes.

    Bins are (-inf, c1], (c1, c2], ..., (ck, inf); cut points are recorded in
    the schema. Missing cells become their own trailing category.
    """
    spec = table.schema.spec(rule.column)
    if spec.kind != "numeric":
        raise ConfigError(f"column {rule.column!r} is not numeric")
    if spec.finalized:
        raise ConfigError(f"column {rule.column!r} is already discretized")
    if table.n_rows == 0:
        raise DataError("cannot discretize an empty table")
    cuts = rule.cut_points or fit_cut_points(table, rule)
    values = table.floats(rule.column)
    labels = _bin_labels(cuts)
    outcomes = tuple(labels + [MISSING]) if np.isnan(values).any() else tuple(labels)

    new_spec = AttributeSpec(rule.column, "numeric", outcomes, tuple(cuts))
    attrs = tuple(new_spec if a.name == rule.column else a for a in table.schema.attributes)
    binned = {rule.column: _bin_cells(values, cuts)}
    return table._derive(replace(table.schema, attributes=attrs), replaced=binned)


def discretize_all(
    table: DataTable, *, strategy: str = "equal-frequency", bin_count: int = 4
) -> DataTable:
    """Apply a common rule to every unfinalized numeric column."""
    if table.n_rows == 0:
        return table
    for spec in table.schema.attributes:
        if spec.kind == "numeric" and not spec.finalized:
            table = discretize(table, DiscretizationRule(spec.name, strategy, bin_count))
    return table


def conform_to_schema(table: DataTable, schema: TableSchema) -> DataTable:
    """Re-express a freshly loaded table under a reference schema.

    Numeric columns are binned with the reference cut points; categorical
    values must already be members of the reference outcomes. Used to route
    new data through a tree built on previously discretized data.
    """
    if tuple(table.schema.column_names) != tuple(schema.column_names):
        raise DataError("column names do not match the reference schema")
    binned = {}
    for spec in schema.attributes:
        if spec.kind == "numeric" and spec.finalized and not table.schema.spec(spec.name).finalized:
            values = table.floats(spec.name)
            if MISSING not in spec.outcomes and np.isnan(values).any():
                raise DataError(
                    f"column {spec.name!r} has missing values unseen when the schema was built"
                )
            cells, idx = _bin_cells(values, spec.cut_points)
            labels = _bin_labels(spec.cut_points)
            # outcomes out of bin order (a hand-edited schema) are encoded from the cells
            in_bin_order = list(spec.outcomes) in (labels, labels + [MISSING])
            binned[spec.name] = (cells, idx if in_bin_order else None)
    return table._derive(schema, replaced=binned)


def transplant_labels(destination: DataTable, source: DataTable) -> DataTable:
    """Copy the label column of ``source`` onto ``destination`` row-for-row.

    Lets a relabeling computed on a discretized view be written back onto the
    original table so that all non-label cells stay byte-identical.
    """
    if destination.n_rows != source.n_rows:
        raise DataError("tables have different row counts")
    return destination.with_positive_mask(source.positive_mask)
