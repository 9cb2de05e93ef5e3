"""Tabular dataset handling: schemas, CSV I/O, discretization, group counts.

Tables are immutable; every transformation constructs a new ``DataTable``.
A column is stored as one integer code per row, in the narrowest unsigned
type that holds its count of distinct texts, and one string per distinct
text, and every cell's text is the exact string read from disk, so writing a
table back out reproduces the input bytes for untouched columns. A numeric
column keeps one parsed float per distinct text, which feeds discretization;
after discretization the column holds categorical range codes.

Three encoding decisions have one owner each here: the CSV dialect of every
file the package writes (``write_rows``), the type of outcome codes, alone or
as a rows x columns matrix (``_code_type``, ``DataTable.code_matrix``), and
coding cells by their texts in order of first appearance (``_coded``).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError

#: Category code used for missing cells. Raw missing tokens (see
#: ``TableSchema.missing_tokens``) are mapped onto this code but the original
#: token is kept as the cell's text.
MISSING = "␀missing"

DEFAULT_MISSING_TOKENS = ("", "?")

SCHEMA_FORMAT = "fairtree-schema/1"

#: Rows ``load_csv`` reads per step, each step's cells coded by their
#: column's distinct texts; also the rows whose text ``write_csv`` and
#: ``DataTable.fingerprint`` rebuild per step. A step's cells are one string
#: each until they are coded, so this bounds the strings alive at once: on the
#: 1,000-row german stand-in, reading peaks at about 0.33 MB with 128 rows per
#: step and 1.35 MB with 1,024 (the whole file), against 0.11 MB kept.
CSV_CHUNK_ROWS = 128


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
        if not all(abs(c) <= sys.float_info.max for c in self.cut_points):  # NaN, inf and huge ints fail
            raise ConfigError(f"cut points for column {self.name!r} must be finite")

    @property
    def finalized(self) -> bool:
        return bool(self.outcomes)


@dataclass(frozen=True)
class DiscretizationRule:
    """How to fit one numeric column's bins; ``conform_to_schema`` replays them."""

    column: str
    strategy: str = "equal-frequency"  # "equal-frequency" | "equal-width"
    bin_count: int = 4

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
        if self.label.column == self.sensitive.column:
            raise ConfigError(f"column {self.label.column!r} cannot be both label and sensitive column")
        for role, spec_col, values in (
            ("label", self.label.column, (self.label.positive, self.label.negative)),
            ("sensitive", self.sensitive.column, (self.sensitive.favored, self.sensitive.deprived)),
        ):
            if None in values or len(set(values)) != 2:
                raise ConfigError(f"{role} column {spec_col!r} needs two distinct declared values")
            extra = sorted(set(self.spec(spec_col).outcomes) - set(values))
            if extra:
                raise ConfigError(f"{role} column {spec_col!r} has undeclared values {extra}")

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
    """Immutable table of text cells with a binary label and sensitive attribute.

    Each column is one integer code per row and a short list of texts, one per
    code (see ``_Column``). A finalized (categorical or discretized) column is
    coded by its spec's outcomes, and ``codes`` reads a missing token coded
    past them as ``MISSING``; a numeric column is coded by its distinct
    spellings, each parsed once to a float (NaN where missing), until it is
    discretized. A derived table (``subset``, ``with_positive_mask``,
    ``conform_to_schema``) shares or slices the codes of every
    column whose cells and spec it keeps, takes a binned column's codes from
    its bin index, and binds only the rest: a replaced label column and any
    column whose spec differs from the source's.
    """

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.column_names):
            raise ConfigError("columns do not match schema")
        self._fill(schema, {name: _factorize(columns[name]) for name in schema.column_names}, set())

    def _fill(self, schema, columns: dict[str, _Column], kept) -> None:
        """Bind every column not in ``kept`` to its spec (a finalized column is
        coded by its outcomes unless its texts are them already, a numeric
        one's texts are parsed), and take the columns as this table's.

        ``columns`` becomes the table's own: each column bound is replaced in
        it, so the codes it held are freed as soon as nothing else holds them.
        """
        n = columns[schema.column_names[0]].codes.shape[0]
        for name in schema.column_names:
            if columns[name].codes.shape[0] != n:
                raise DataError(f"column {name!r} has {columns[name].codes.shape[0]} rows, expected {n}")
        for spec in schema.attributes:
            if spec.name in kept:
                continue
            col = columns[spec.name]
            if spec.finalized and col.texts != spec.outcomes:
                columns[spec.name] = _encode(spec, schema.missing_tokens, col)
            elif spec.kind == "numeric" and not spec.finalized and col.values is None:
                columns[spec.name] = _parse_floats(spec.name, schema.missing_tokens, col)

        self.schema = schema
        self._columns = columns
        self._n = int(columns[schema.label.column].codes.shape[0])
        self._positive = columns[schema.label.column].holds(schema.label.positive)
        self._favored = columns[schema.sensitive.column].holds(schema.sensitive.favored)
        # group-class code per row: 0 = favored+, 1 = favored-, 2 = deprived+, 3 = deprived-
        self.gc_codes = _frozen(np.where(self._favored, 0, 2) + np.where(self._positive, 0, 1))
        self._fingerprint: str | None = None

    def _derive(self, schema: TableSchema, rows: np.ndarray | None = None, replaced=None) -> "DataTable":
        """This table under ``schema``, restricted to ``rows`` (all when None),
        with each ``replaced`` column swapped for the ``_Column`` given.

        A column stays bound, its codes shared or sliced, when it is not
        replaced and its spec and the missing tokens are the source's;
        ``_fill`` binds the rest.
        """
        replaced = replaced or {}
        same = set(self.schema.attributes) if schema.missing_tokens == self.schema.missing_tokens else set()
        kept = {a.name for a in schema.attributes if a in same and a.name not in replaced}
        columns = {}
        for a in schema.attributes:
            col = replaced[a.name] if a.name in replaced else self._columns[a.name]
            if a.name not in kept and col.values is not None:
                col = replace(col, values=None)  # parsed again under the new missing tokens
            columns[a.name] = col if rows is None else col.take(rows)
        table = DataTable.__new__(DataTable)
        table._fill(schema, columns, kept)
        return table

    # -- accessors ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """The column's cell texts, built on each call as a read-only array."""
        return _frozen(self._columns[name].text_array(0, self._n))

    def codes(self, name: str) -> np.ndarray:
        """The column's outcome codes, in the column's own narrow unsigned type
        (widen before arithmetic that may leave it); a missing token coded past
        the outcomes reads as ``MISSING``'s code."""
        if name not in self._columns or not self.schema.spec(name).finalized:
            raise DataError(f"column {name!r} is not finalized; discretize it first")
        col, outcomes = self._columns[name], self.schema.spec(name).outcomes
        if len(col.texts) == len(outcomes):
            return col.codes
        return _frozen(np.where(col.codes < len(outcomes), col.codes, outcomes.index(MISSING)))

    def code_matrix(self, names) -> np.ndarray:
        """The ``codes`` of ``names`` as a rows x names array, in the code
        type of the column with the most outcomes."""
        width = max((len(self.schema.spec(name).outcomes) for name in names), default=0)
        matrix = np.empty((self._n, len(names)), dtype=_code_type(width))
        for j, name in enumerate(names):
            matrix[:, j] = self.codes(name)
        return matrix

    def floats(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None or col.values is None:
            raise DataError(f"column {name!r} has no numeric values")
        return _frozen(col.values[col.codes])

    @property
    def positive_mask(self) -> np.ndarray:
        return self._positive

    @property
    def favored_mask(self) -> np.ndarray:
        return self._favored

    @property
    def fingerprint(self) -> str:
        """Digest over schema and every cell; identifies this exact table."""
        if self._fingerprint is None:
            h = hashlib.sha256(self.schema.fingerprint.encode("ascii"))
            for name in self.schema.column_names:
                h.update(b"\x1e")
                col = self._columns[name]
                for lo in range(0, self._n, CSV_CHUNK_ROWS):
                    if lo:
                        h.update(b"\x1f")
                    h.update("\x1f".join(col.text_array(lo, lo + CSV_CHUNK_ROWS).tolist()).encode("utf-8"))
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # -- construction of derived tables -------------------------------------

    def subset(self, indices: np.ndarray) -> "DataTable":
        """The rows at ``indices`` (integer row numbers), in that order."""
        return self._derive(self.schema, rows=np.asarray(indices))

    def with_positive_mask(self, positive: np.ndarray) -> "DataTable":
        """New table whose label column encodes the given positive/negative flags."""
        positive = np.asarray(positive, dtype=bool)
        if positive.shape != (self._n,):
            raise ConfigError("label mask has wrong length")
        lbl = self.schema.label
        labels = _Column((~positive).astype(_code_type(2)), (lbl.positive, lbl.negative))
        return self._derive(self.schema, replaced={lbl.column: labels})


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_NO_ROWS = _frozen(np.zeros(0, dtype=np.int64))


def _code_type(count: int) -> np.dtype:
    """The type of a column's codes when it has ``count`` texts: the narrowest
    unsigned integer type that holds ``count``."""
    return np.min_scalar_type(count)


@dataclass(frozen=True, eq=False)
class _Column:
    """One column's cells: row ``r`` holds ``texts[codes[r]]``, and ``codes``
    is of ``_code_type(len(texts))``.

    A finalized column's texts start with its outcomes, in order, but for
    ``MISSING``'s, which is the token of the first row coded ``MISSING``; each
    other missing token a row holds has its own code past the outcomes. Any
    other column is coded by its distinct texts; a numeric one keeps each
    text's float, NaN for a missing token, in ``values``. The arrays are made
    read-only.
    """

    codes: np.ndarray
    texts: tuple[str, ...]
    values: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.codes, self.values):
            if array is not None:
                _frozen(array)

    @cached_property
    def _text_lut(self) -> np.ndarray:
        return np.array(self.texts, dtype=object)

    def text_array(self, lo: int, hi: int) -> np.ndarray:
        """The texts of rows ``lo`` to ``hi``, as an object array."""
        return self._text_lut[self.codes[lo:hi]]

    def holds(self, text: str) -> np.ndarray:
        """Per row, whether its cell is ``text``."""
        return _frozen(np.array([t == text for t in self.texts], dtype=bool)[self.codes])

    def take(self, rows: np.ndarray) -> "_Column":
        """The cells of ``rows``, in that order."""
        return _Column(self.codes[rows], self.texts, self.values)


def _factorize(values) -> _Column:
    """Cells coded by their distinct texts, in order of first appearance; a
    ``_Column`` is returned as it is."""
    if isinstance(values, _Column):
        return values
    lut: dict[str, int] = {}
    codes = _coded(lut, np.asarray(values, dtype=object).tolist())
    return _Column(codes, tuple(lut))


def _coded(lut: dict[str, int], cells) -> np.ndarray:
    """Add the texts of ``cells`` that ``lut`` lacks to it, in order of first
    appearance, and give each cell's code in ``lut``, of the type of a column
    of ``len(lut)`` texts."""
    for text in dict.fromkeys(cells):
        lut.setdefault(text, len(lut))
    return np.fromiter(map(lut.__getitem__, cells), _code_type(len(lut)), count=len(cells))


def json_typed(value, kind, what: str):
    """``value`` when its JSON type is ``kind`` (a type or a tuple of types),
    else DataError. Documents are untrusted: a float or boolean where an integer
    belongs is not truncated, and text where a number belongs is not compared."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise DataError(f"{what} must be a JSON {names}, got {value!r:.40}")
    return value


def _encode(spec: AttributeSpec, missing_tokens, col: _Column) -> _Column:
    """The column coded by ``spec.outcomes``; each distinct text is looked up
    once, and a text that is not an outcome is named by the first row holding it."""
    lut = {o: i for i, o in enumerate(spec.outcomes)}
    missing = lut.get(MISSING, -1)
    if missing >= 0:
        for tok in missing_tokens:
            lut.setdefault(tok, missing)
    of_text = np.array([lut.get(t, -2) for t in col.texts], dtype=np.int64)
    undeclared = of_text == -2
    if undeclared.any():
        bad = np.flatnonzero(undeclared[col.codes])[:1]  # a text no row holds is no fault
        if bad.size:
            value = col.texts[col.codes[bad[0]]]
            raise DataError(f"value {value!r} in column {spec.name!r} is not among its declared outcomes")
        of_text[undeclared] = 0
    texts = list(spec.outcomes)
    is_missing = of_text == missing
    rows = np.flatnonzero(is_missing[col.codes]) if is_missing.any() else _NO_ROWS
    extra = at = _NO_ROWS
    if rows.size:  # MISSING's text is its first row's token; another token is coded past the outcomes
        held = col.codes[rows]
        texts[missing] = col.texts[held[0]]
        rows = rows[held != held[0]]
        if rows.size:
            extra, at = np.unique(col.codes[rows], return_inverse=True)
    codes = of_text.astype(_code_type(len(texts) + extra.size))[col.codes]
    codes[rows] = len(texts) + at
    texts += [col.texts[t] for t in extra.tolist()]
    return _Column(codes, tuple(texts))


def _floats_of(texts, missing_tokens) -> np.ndarray | None:
    """Each text as a float, NaN for a missing token; None once one does not parse."""
    try:
        return np.array([np.nan if t in missing_tokens else float(t) for t in texts], dtype=float)
    except ValueError:
        return None


def _parse_floats(name: str, missing_tokens, col: _Column) -> _Column:
    """The column with each distinct text parsed once; a text that does not
    parse is named by the first row holding it."""
    values = _floats_of(col.texts, missing_tokens)
    if values is None:
        each = [_floats_of((t,), missing_tokens) for t in col.texts]
        held = np.array([v is None for v in each], dtype=bool)[col.codes]
        if held.any():
            row = int(held.argmax())
            text = col.texts[col.codes[row]]
            raise DataError(f"row {row + 1}: cannot parse {text!r} in numeric column {name!r}")
        values = np.array([np.nan if v is None else v[0] for v in each], dtype=float)  # a text no row holds
    return replace(col, values=values)


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
    ``categorical_columns`` are never treated as numeric. A listed column that
    is not in the header, one listed as both, and a label or sensitive column
    listed as numeric are configuration errors. Everything else is
    inferred from each column's set of distinct values, taken once: a column
    whose distinct non-missing values all parse as floats is numeric and left
    unfinalized for discretization; otherwise its sorted distinct values (plus
    ``MISSING`` when a missing token occurs) are its outcomes. The label and
    sensitive columns are always categorical. Unresolved ``negative``/``deprived``
    values are inferred when the column has exactly one other observed value.
    A file that begins with a UTF-8 byte-order mark is a data error: the mark
    would be read as part of the first column's name.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header and header[0][:1] == "\ufeff":
                raise DataError(
                    f"{path}: the file begins with a UTF-8 byte-order mark, which would be read as part "
                    f"of column name {header[0][1:]!r}; save it as UTF-8 without a byte-order mark"
                )
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            columns = dict(zip(header, _read_columns(reader, len(header), path)))
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    return _table_of(
        columns,
        label,
        sensitive,
        numeric_columns=numeric_columns,
        categorical_columns=categorical_columns,
        missing_tokens=missing_tokens,
        source=str(path),
    )


def _read_columns(reader, width: int, path) -> list[_Column]:
    """The cells of every row after the header, column by column, each coded
    by its distinct texts in order of first appearance. Rows are read
    ``CSV_CHUNK_ROWS`` at a time, and a column keeps only the first string
    read of each text, so only one chunk's own strings are alive at a time.
    A chunk's codes take the type of the texts seen so far, which the final
    type holds, so no column's codes are ever wider than it."""
    seen: list[dict[str, int]] = [{} for _ in range(width)]
    parts: list[list[np.ndarray]] = [[] for _ in range(width)]
    n = 0
    while True:
        rows: list[list[str]] = []
        try:
            rows.extend(itertools.islice(reader, CSV_CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            _check_widths(rows, width, n, path)  # a row read before the error is named first
            raise
        _check_widths(rows, width, n, path)
        if not rows:
            break
        for lut, part, cells in zip(seen, parts, zip(*rows)):
            part.append(_coded(lut, cells))
        n += len(rows)
    columns = []
    for lut, part in zip(seen, parts):
        code_type = _code_type(len(lut))
        codes = np.concatenate(part, dtype=code_type) if part else np.zeros(0, code_type)
        columns.append(_Column(codes, tuple(lut)))
        part.clear()  # so that only one column's codes are held twice at a time
    return columns


def _check_widths(rows: list[list[str]], width: int, n: int, path) -> None:
    """DataError naming the first of ``rows``, rows ``n + 1`` on, that has not ``width`` fields."""
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise DataError(f"{path}: row {n + i + 1} has {len(rows[i])} fields, expected {width}")


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
    """Build a table from ordered string columns with the same inference and
    the same checks of the column options as load_csv. Types are inferred
    from each column's distinct texts, and a numeric column's texts are
    parsed once, there."""
    return _table_of(
        {name: _factorize(col) for name, col in columns.items()},
        label,
        sensitive,
        numeric_columns=numeric_columns,
        categorical_columns=categorical_columns,
        missing_tokens=missing_tokens,
        source=source,
    )


def _table_of(
    columns: dict[str, _Column],
    label: LabelSpec,
    sensitive: SensitiveSpec,
    *,
    numeric_columns: tuple[str, ...],
    categorical_columns: tuple[str, ...],
    missing_tokens: tuple[str, ...],
    source: str,
) -> DataTable:
    """``table_from_columns`` over coded columns. The table takes ``columns``
    as its own dict and replaces each column it re-encodes there, so a
    column's codes as read are freed once it is encoded."""
    header = list(columns)
    for col, role in ((label.column, "label"), (sensitive.column, "sensitive")):
        if col not in header:
            raise ConfigError(f"{role} column {col!r} not found in {source}")
        if col in numeric_columns:
            raise ConfigError(f"{role} column {col!r} is always categorical; it cannot be declared numeric")
    for names, kind in ((numeric_columns, "numeric"), (categorical_columns, "categorical")):
        for name in names:
            if name not in columns:
                raise ConfigError(f"{kind} column {name!r} not found in {source}")
    for name in numeric_columns:
        if name in categorical_columns:
            raise ConfigError(f"column {name!r} is declared both numeric and categorical")

    missing = set(missing_tokens)
    label = _resolve_binary(label, "positive", "negative", columns[label.column].texts, missing, "label")
    sensitive = _resolve_binary(
        sensitive, "favored", "deprived", columns[sensitive.column].texts, missing, "sensitive"
    )

    specs = []
    for name, col in columns.items():
        if name == label.column:
            specs.append(AttributeSpec(name, "categorical", (label.positive, label.negative)))
            continue
        if name == sensitive.column:
            specs.append(AttributeSpec(name, "categorical", (sensitive.favored, sensitive.deprived)))
            continue
        distinct = set(col.texts)
        present = distinct - missing
        values = None if name in categorical_columns else _floats_of(col.texts, missing)
        if name in numeric_columns or (values is not None and present):
            specs.append(AttributeSpec(name, "numeric"))
            if values is not None:  # else the table names the first row that does not parse
                columns[name] = replace(col, values=values)
        else:
            outcomes = sorted(present) + ([MISSING] if distinct & missing else [])
            specs.append(AttributeSpec(name, "categorical", tuple(outcomes)))
    del col  # the last column read is freed when the table re-encodes it

    schema = TableSchema(tuple(specs), label, sensitive, tuple(missing_tokens))
    table = DataTable.__new__(DataTable)
    try:
        table._fill(schema, columns, set())
        return table
    except DataError as exc:  # a declared numeric cell that does not parse, or a short column
        raise DataError(f"{source}: {exc}") from None


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


def write_rows(path, rows) -> None:
    """Write ``rows`` (read one at a time, so a generator will do) as CSV:
    UTF-8, LF line ends, minimal RFC-4180 quoting. The package's only CSV writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_csv(table: DataTable, path) -> None:
    """Write the table; stored cell texts are emitted verbatim, rebuilt from
    their codes ``CSV_CHUNK_ROWS`` rows at a time."""
    columns = [table._columns[name] for name in table.schema.column_names]
    chunks = (zip(*(col.text_array(lo, lo + CSV_CHUNK_ROWS).tolist() for col in columns))
              for lo in range(0, table.n_rows, CSV_CHUNK_ROWS))
    write_rows(path, itertools.chain([table.schema.column_names], itertools.chain.from_iterable(chunks)))


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
    be separated collapse, reducing the bin count. Only finite values are
    fitted on; an infinite one bins into the first or last bin.
    """
    values = table.floats(rule.column)
    values = np.sort(values[np.isfinite(values)])
    if values.size == 0:
        raise DataError(f"column {rule.column!r} has no finite values to discretize")
    # feasible cut positions: between consecutive distinct sorted values
    bounds = np.nonzero(values[1:] > values[:-1])[0] + 1
    n_distinct = bounds.size + 1
    if n_distinct == 1:
        warnings.warn(f"column {rule.column!r} is constant; emitting a single bin")
        return ()
    k = rule.bin_count
    if k > n_distinct:
        warnings.warn(
            f"column {rule.column!r} has only {n_distinct} distinct values; "
            f"reducing bin count from {k}"
        )
        k = n_distinct
    cuts: list[float] = []
    if rule.strategy == "equal-frequency":
        n = values.size
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


def _binned(col: _Column, cuts: tuple[float, ...], outcomes: tuple[str, ...]) -> _Column:
    """The numeric column binned, each distinct text once: its bin index, the
    text of ``_bin_labels(cuts)`` at that index, and NaN at the next index,
    ``MISSING``. When the outcomes are those texts (with or without
    ``MISSING``), the index is their codes."""
    texts = tuple(_bin_labels(cuts)) + (MISSING,)
    of_text = np.searchsorted(np.asarray(cuts), col.values, side="left")
    of_text[np.isnan(col.values)] = len(texts) - 1
    if outcomes in (texts, texts[:-1]):
        texts = outcomes
    return _Column(of_text.astype(_code_type(len(texts)))[col.codes], texts)


def discretize_all(
    table: DataTable, *, strategy: str = "equal-frequency", bin_count: int = 4
) -> DataTable:
    """Bin every unfinalized numeric column by a common rule.

    Bins are (-inf, c1], (c1, c2], ..., (ck, inf); each column's fitted cut
    points are recorded in the schema, which ``conform_to_schema`` then
    applies. Missing cells become their own trailing category. The strategy
    and bin count are checked whatever the columns are.
    """
    rule = DiscretizationRule("", strategy, bin_count)
    if table.n_rows == 0:
        return table
    attrs = []
    for spec in table.schema.attributes:
        if spec.kind == "numeric" and not spec.finalized:
            cuts = fit_cut_points(table, replace(rule, column=spec.name))
            missing = [MISSING] if np.isnan(table.floats(spec.name)).any() else []
            spec = AttributeSpec(spec.name, "numeric", tuple(_bin_labels(cuts) + missing), cuts)
        attrs.append(spec)
    return conform_to_schema(table, replace(table.schema, attributes=tuple(attrs)))


def conform_to_schema(table: DataTable, schema: TableSchema) -> DataTable:
    """Re-express a freshly loaded table under a reference schema.

    Numeric columns are binned with the reference cut points; categorical
    values must already be members of the reference outcomes. It is the only
    binning: ``discretize_all`` applies the cut points it fitted through it,
    and new data is routed through a tree built on discretized data with it.
    """
    if tuple(table.schema.column_names) != tuple(schema.column_names):
        raise DataError("column names do not match the reference schema")
    binned = {}
    for spec in schema.attributes:
        if spec.kind == "numeric" and spec.finalized and not table.schema.spec(spec.name).finalized:
            col = table._columns[spec.name]
            if col.values is None:  # with no rows a column loads as categorical, with no texts
                col = replace(col, values=np.empty(0))
            if MISSING not in spec.outcomes and np.isnan(col.values)[col.codes].any():
                raise DataError(
                    f"column {spec.name!r} has missing values unseen when the schema was built"
                )
            # outcomes out of bin order (a hand-edited schema) are encoded from the texts
            binned[spec.name] = _binned(col, spec.cut_points, spec.outcomes)
    return table._derive(schema, replaced=binned)


def transplant_labels(destination: DataTable, source: DataTable) -> DataTable:
    """Copy the label column of ``source`` onto ``destination`` row-for-row.

    Lets a relabeling computed on a discretized view be written back onto the
    original table so that all non-label cells stay byte-identical.
    """
    if destination.n_rows != source.n_rows:
        raise DataError("tables have different row counts")
    return destination.with_positive_mask(source.positive_mask)
