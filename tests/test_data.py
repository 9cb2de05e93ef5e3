import csv
import io
import json
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import fairtree.data
import oracle
from conftest import toy_table
from fairtree.data import (
    MISSING,
    AttributeSpec,
    DataTable,
    DiscretizationRule,
    GroupCounts,
    LabelSpec,
    SensitiveSpec,
    TableSchema,
    conform_to_schema,
    discretize_all,
    fit_cut_points,
    group_counts,
    load_csv,
    table_from_columns,
    write_csv,
    write_schema_sidecar,
)
from fairtree.datasets import make_german
from fairtree.errors import ConfigError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GERMAN_MINI = [
    "age,housing,duration,credit",
    ">25,own,12,good",
    ">25,rent,30,bad",
    "<=25,own,18,good",
    "<=25,rent,48,bad",
    ">25,own,6,good",
]


@pytest.fixture
def mini_csv(tmp_path):
    p = tmp_path / "mini.csv"
    write_lines(p, GERMAN_MINI)
    return p


LABEL = LabelSpec("credit", "good", "bad")
SENSITIVE = SensitiveSpec("age", ">25", "<=25")


class TestLoadCsv:
    def test_basic_load(self, mini_csv):
        t = load_csv(mini_csv, LABEL, SENSITIVE)
        assert t.n_rows == 5
        c = group_counts(t)
        assert (c.n_fav, c.n_dep) == (3, 2)
        assert t.schema.spec("duration").kind == "numeric"
        assert not t.schema.spec("duration").finalized
        assert t.schema.spec("housing").outcomes == ("own", "rent")

    def test_missing_label_column_is_config_error(self, mini_csv):
        with pytest.raises(ConfigError, match="nope"):
            load_csv(mini_csv, LabelSpec("nope", "good"), SENSITIVE)

    def test_ragged_row_rejected_with_index(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["age,credit", ">25,good", ">25,good,extra"])
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, LabelSpec("credit", "good", "bad"), SensitiveSpec("age", ">25", "<=25"))

    def test_unparseable_declared_numeric_rejected_with_index(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["age,hours,credit", ">25,40,good", "<=25,forty,bad"])
        with pytest.raises(DataError, match="row 2"):
            load_csv(
                p,
                LabelSpec("credit", "good", "bad"),
                SensitiveSpec("age", ">25", "<=25"),
                numeric_columns=("hours",),
            )

    def test_label_with_three_values_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["age,credit", ">25,good", "<=25,bad", ">25,meh"])
        with pytest.raises(ConfigError, match="credit"):
            load_csv(p, LabelSpec("credit", "good", "bad"), SensitiveSpec("age", ">25", "<=25"))

    @pytest.mark.parametrize("first", ["age", "housing"])
    def test_a_byte_order_mark_before_any_first_column_is_refused(self, tmp_path, first):
        # refused, not stripped: the mark would be read as part of the first column's name
        rows = [line.split(",") for line in GERMAN_MINI]
        j = rows[0].index(first)
        p = tmp_path / "bom.csv"
        write_lines(p, [",".join([r[j]] + r[:j] + r[j + 1:]) for r in rows])
        p.write_bytes("\ufeff".encode("utf-8") + p.read_bytes())
        with pytest.raises(DataError, match=f"byte-order mark, which would be read as part of column name {first!r}"):
            load_csv(p, LABEL, SENSITIVE)

    def test_negative_value_inferred(self, mini_csv):
        t = load_csv(mini_csv, LabelSpec("credit", "good"), SENSITIVE)
        assert t.schema.label.negative == "bad"

    def test_header_only_loads_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_lines(p, ["age,housing,credit"])
        t = load_csv(p, LabelSpec("credit", "good", "bad"), SensitiveSpec("age", ">25", "<=25"))
        assert t.n_rows == 0

    def test_loading_never_alters_labels(self, mini_csv):
        t = load_csv(mini_csv, LABEL, SENSITIVE)
        pairs = sorted(zip(t.column("age"), t.column("credit")))
        expected = sorted(
            (line.split(",")[0], line.split(",")[3]) for line in GERMAN_MINI[1:]
        )
        assert pairs == expected

    def test_missing_tokens_become_their_own_category(self, tmp_path):
        p = tmp_path / "miss.csv"
        write_lines(p, ["age,job,credit", ">25,a,good", "<=25,?,bad", ">25,,good"])
        t = load_csv(p, LabelSpec("credit", "good", "bad"), SensitiveSpec("age", ">25", "<=25"))
        spec = t.schema.spec("job")
        assert spec.outcomes == ("a", MISSING)
        assert list(t.codes("job")) == [0, 1, 1]
        # original tokens survive in the stored cells
        assert list(t.column("job")) == ["a", "?", ""]


#: Cells that CSV quoting must handle: separators, quotes, line breaks,
#: missing tokens and non-ASCII text.
TRICKY_CELLS = ["x,y", 'say "hi"', '"', "two\nlines", "crlf\r\nline", "\r", "", "?",
                "Zürich", "東京", "naïve, \"quoted\"\r\n"]
TRICKY_CHARS = st.sampled_from([",", '"', "\n", "\r", " ", "a", "?", "é", "東", "\u2400"])


class TestWriteCsv:
    def test_round_trip(self, mini_csv, tmp_path):
        t = load_csv(mini_csv, LABEL, SENSITIVE)
        out = tmp_path / "out.csv"
        write_csv(t, out)
        t2 = load_csv(out, LABEL, SENSITIVE)
        assert t2.n_rows == t.n_rows
        assert t2.schema == t.schema
        assert t2.fingerprint == t.fingerprint

    def test_untouched_write_is_byte_identical(self, mini_csv, tmp_path):
        t = load_csv(mini_csv, LABEL, SENSITIVE)
        out = tmp_path / "copy.csv"
        write_csv(t, out)
        assert out.read_bytes() == mini_csv.read_bytes()

    def test_commas_in_category_text_quoted(self, tmp_path):
        t = toy_table({"a": ["x,y", "plain"]}, favored=[1, 0], positive=[1, 0])
        out = tmp_path / "q.csv"
        write_csv(t, out)
        assert '"x,y"' in out.read_text(encoding="utf-8")
        t2 = load_csv(out, t.schema.label, t.schema.sensitive)
        assert list(t2.column("a")) == ["x,y", "plain"]

    @given(cells=st.lists(st.one_of(st.sampled_from(TRICKY_CELLS), st.text(TRICKY_CHARS)),
                          min_size=1, max_size=12))
    def test_bytes_equal_the_row_at_a_time_writer(self, tmp_path_factory, cells):
        n = len(cells)
        t = toy_table({"a": cells, "b": cells[::-1]}, favored=[i % 2 for i in range(n)],
                      positive=[i % 3 == 0 for i in range(n)])
        out = tmp_path_factory.mktemp("csv")
        write_csv(t, out / "new.csv")
        oracle.write_csv_by_row(t, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    def test_sidecar_records_cuts_and_specs(self, mini_csv, tmp_path):
        t = discretize_all(load_csv(mini_csv, LABEL, SENSITIVE), bin_count=2)
        side = tmp_path / "out.schema.txt"
        write_schema_sidecar(t, side)
        text = side.read_text(encoding="utf-8")
        assert "label.positive: good" in text
        assert "column.duration.cut_points:" in text


#: Cells of the reader test's feature columns: CSV quoting cases, numbers,
#: missing tokens and short text.
READER_CELLS = st.one_of(
    st.sampled_from(TRICKY_CELLS),
    st.sampled_from(["1", "2.5", "-3", "1e3", "", "?", "NA"]),
    st.text(TRICKY_CHARS, max_size=3),
)


@st.composite
def csv_files(draw):
    """CSV bytes as ``csv.writer`` lays them out (quotes, embedded line breaks,
    CRLF or LF line ends, empty fields, missing tokens), maybe spoiled: a row
    a field short or long, a duplicate header name, a stray quote, a byte that
    is not UTF-8, a byte-order mark, a cut, or no bytes at all."""
    features = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True))
    header = draw(st.permutations(["grp", "cls", *features]))
    cells = {"grp": st.sampled_from(["fav", "dep"]), "cls": st.sampled_from(["yes", "no"])}
    rows = [[draw(cells.get(name, READER_CELLS)) for name in header] for _ in range(draw(st.integers(0, 12)))]
    if rows and draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
    if draw(st.integers(0, 9)) == 9:
        header = header + [header[0]]
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows([header, *rows])
    data = buf.getvalue().encode("utf-8")
    at = draw(st.integers(0, len(data)))
    spoil = draw(st.sampled_from(["none"] * 4 + ["quote", "byte", "bom", "cut", "empty"]))
    return {
        "none": data,
        "quote": data[:at] + b'"' + data[at:],
        "byte": data[:at] + b"\xff" + data[at:],
        "bom": "\ufeff".encode("utf-8") + data,
        "cut": data[:at],
        "empty": b"",
    }[spoil]


def _load_or_error(loader, path):
    """The table ``loader`` reads from ``path``, or its error's type and message."""
    try:
        return loader(path, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


class TestChunkedReader:
    """``load_csv`` reads ``CSV_CHUNK_ROWS`` rows at a time and keeps one string
    per distinct text of a column; it must read what the row-at-a-time reader
    read, or fail with the same error and message."""

    @given(data=csv_files(), chunk=st.integers(1, 4), field_limit=st.sampled_from([None, 4]))
    def test_chunks_read_what_the_row_reader_read(self, tmp_path_factory, data, chunk, field_limit):
        path = tmp_path_factory.mktemp("read") / "in.csv"
        path.write_bytes(data)
        # a low field size limit makes csv.Error at a row the strategy chose
        default_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
        try:
            with mock.patch.object(fairtree.data, "CSV_CHUNK_ROWS", chunk):
                table = _load_or_error(load_csv, path)
            expected = _load_or_error(oracle.load_csv_by_row, path)
        finally:
            csv.field_size_limit(default_limit)
        if isinstance(expected, tuple):
            assert table == expected
            return
        assert table.schema == expected.schema
        assert table.fingerprint == expected.fingerprint
        for spec in table.schema.attributes:
            assert table.column(spec.name).tolist() == expected.column(spec.name).tolist()
            if spec.finalized:
                assert np.array_equal(table.codes(spec.name), expected.codes(spec.name))
            elif spec.kind == "numeric":
                assert np.array_equal(table.floats(spec.name), expected.floats(spec.name), equal_nan=True)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
    def test_wrong_width_before_a_reader_error_is_named_first(self, tmp_path, chunk):
        # row 2 is short and row 3 holds a field over the limit, in one chunk or two
        p = tmp_path / "bad.csv"
        write_lines(p, ["grp,cls", "fav,yes", "dep", "fav," + "y" * 10, "dep,no"])
        default_limit = csv.field_size_limit(5)
        try:
            with mock.patch.object(fairtree.data, "CSV_CHUNK_ROWS", chunk):
                table = _load_or_error(load_csv, p)
            expected = _load_or_error(oracle.load_csv_by_row, p)
        finally:
            csv.field_size_limit(default_limit)
        assert table == expected == (DataError, f"{p}: row 2 has 1 fields, expected 2")

    def test_each_column_holds_one_string_per_distinct_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fairtree.data, "CSV_CHUNK_ROWS", 7)  # texts repeat across chunks
        path = tmp_path / "german.csv"
        write_csv(make_german(), path)
        table = load_csv(path, LabelSpec("credit_risk", "good"), SensitiveSpec("age", ">25"))
        for name in table.schema.column_names:
            cells = table.column(name).tolist()
            assert len({id(v) for v in cells}) == len(set(cells)), name


class TestMemoryShape:
    """A table holds one integer code per cell and a short text list per column,
    and writing it rebuilds its text one chunk of rows at a time."""

    ROWS, COLUMNS = 20_000, 10

    @pytest.fixture
    def few_texts_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        pools = [["fav", "dep"], ["yes", "no"], ["1", "2", "3"], ["0.5", "?", "7"],
                 ["a", "b", "c"], ["x,y", "", "?"], ["own", "rent"], ["é", "ü", "ß"],
                 ["10", "20"], ["p", "q", "r"]]
        header = ["grp", "cls", *(f"c{j}" for j in range(2, self.COLUMNS))]
        columns = [np.array(pool, dtype=object)[rng.integers(0, len(pool), self.ROWS)] for pool in pools]
        path = tmp_path / "few.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*(col.tolist() for col in columns)))
        return path

    def test_a_table_holds_under_12_bytes_per_cell_and_writes_in_under_2(self, few_texts_csv, tmp_path):
        import gc
        import tracemalloc

        cells = self.ROWS * self.COLUMNS
        label, sensitive = LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
        load_csv(few_texts_csv, label, sensitive)  # first-use allocations are not the table's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = load_csv(few_texts_csv, label, sensitive)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
            assert {spec.kind for spec in table.schema.attributes} == {"numeric", "categorical"}
            write_csv(table, tmp_path / "warm.csv")
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_csv(table, tmp_path / "out.csv")
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.csv").read_bytes() == few_texts_csv.read_bytes()
        print(f"[MEMORY] held {held / cells:.2f} B/cell, write_csv transient {transient / cells:.2f} B/cell")
        assert held / cells < 12
        assert transient / cells < 2
        # one uint8 code per cell, and per row the group-class code and two masks: about 2.0
        assert held / cells < 3

    def test_loading_peaks_under_6_bytes_per_cell(self, few_texts_csv):
        # CPython 3.11: about 3.8 B/cell. With int64 codes, and the read codes of
        # every re-encoded column held until the table was built, 14.0.
        import gc
        import tracemalloc

        cells = self.ROWS * self.COLUMNS
        label, sensitive = LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
        load_csv(few_texts_csv, label, sensitive)  # first-use allocations are not the reading's
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = load_csv(few_texts_csv, label, sensitive)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert table.n_rows == self.ROWS
        print(f"[MEMORY] load_csv peak {peak / cells:.2f} B/cell")
        assert peak / cells < 6

    def test_each_read_column_is_freed_once_it_is_encoded(self, few_texts_csv, monkeypatch):
        # the table's dict is the one read into: nothing else holds a read column
        import weakref

        encode, read = fairtree.data._encode, []

        def encode_tracked(spec, missing_tokens, col):
            assert [r() for r in read] == [None] * len(read), "a column read before is still held"
            read.append(weakref.ref(col))
            return encode(spec, missing_tokens, col)

        monkeypatch.setattr(fairtree.data, "_encode", encode_tracked)
        load_csv(few_texts_csv, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        assert len(read) > 2

    def test_reading_german_peaks_under_40_bytes_per_cell(self, tmp_path):
        # The 1,000-row german stand-in fits in one chunk of 1,024 rows, so
        # reading it that way holds every cell as its own string at once: about
        # 64 B/cell at the peak, against about 16 with 128 rows per chunk and
        # 5 kept in the table (CPython 3.11).
        import gc
        import tracemalloc

        path = tmp_path / "german.csv"
        write_csv(make_german(), path)
        label, sensitive = LabelSpec("credit_risk", "good"), SensitiveSpec("age", ">25")
        table = load_csv(path, label, sensitive)  # first-use allocations are not the reading's
        cells = table.n_rows * len(table.schema.attributes)
        del table
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = load_csv(path, label, sensitive)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        print(f"[MEMORY] load_csv peak {peak / cells:.1f} B/cell over {cells} cells")
        assert peak / cells < 40


def _with_bins(schema, name, cuts, outcomes):
    """``schema`` with column ``name`` binned at ``cuts`` into ``outcomes``."""
    spec = AttributeSpec(name, "numeric", outcomes, cuts)
    return replace(schema, attributes=tuple(spec if a.name == name else a for a in schema.attributes))


class TestDiscretize:
    def test_equal_frequency_quartiles_by_hand(self):
        # sorted {20,25,30,40,50,60,70,80}: quartile cuts 27.5 / 45 / 65
        t = toy_table({"age_years": [20, 25, 30, 40, 50, 60, 70, 80]},
                      favored=[1] * 8, positive=[1, 0] * 4)
        # toy_table forces categorical; rebuild with numeric inference
        cols = {n: t.column(n) for n in t.schema.column_names}
        t = table_from_columns(cols, t.schema.label, t.schema.sensitive)
        cuts = fit_cut_points(t, DiscretizationRule("age_years", "equal-frequency", 4))
        assert cuts == (27.5, 45.0, 65.0)
        d = discretize_all(t, strategy="equal-frequency", bin_count=4)
        spec = d.schema.spec("age_years")
        assert spec.outcomes == ("<=27.5", "27.5-45.0", "45.0-65.0", ">65.0")
        assert list(np.bincount(d.codes("age_years"))) == [2, 2, 2, 2]

    def test_constant_column_single_bin(self):
        cols = {
            "x": np.array(["5", "5", "5"], dtype=object),
            "grp": np.array(["fav", "fav", "dep"], dtype=object),
            "cls": np.array(["yes", "no", "yes"], dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        with pytest.warns(UserWarning, match="constant"):
            d = discretize_all(t, strategy="equal-frequency", bin_count=4)
        assert d.schema.spec("x").outcomes == ("all",)

    def test_bin_count_above_distinct_values_reduced(self):
        cols = {
            "x": np.array(["1", "2", "1", "2"], dtype=object),
            "grp": np.array(["fav"] * 4, dtype=object),
            "cls": np.array(["yes", "no", "yes", "no"], dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        with pytest.warns(UserWarning, match="distinct"):
            d = discretize_all(t, strategy="equal-frequency", bin_count=4)
        assert len(d.schema.spec("x").outcomes) == 2

    def test_row_order_does_not_change_cuts(self):
        rng = np.random.default_rng(3)
        values = rng.normal(50, 12, 60)
        for perm_seed in (0, 1):
            order = np.random.default_rng(perm_seed).permutation(60)
            cols = {
                "x": np.array([repr(float(v)) for v in values[order]], dtype=object),
                "grp": np.array(["fav", "dep"] * 30, dtype=object)[order],
                "cls": np.array(["yes", "no"] * 30, dtype=object)[order],
            }
            t = table_from_columns(
                cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
            )
            cuts = fit_cut_points(t, DiscretizationRule("x", "equal-frequency", 4))
            if perm_seed == 0:
                first = cuts
        assert cuts == first

    def test_missing_values_get_their_own_bin(self):
        cols = {
            "x": np.array(["1", "2", "?", "4"], dtype=object),
            "grp": np.array(["fav", "dep", "fav", "dep"], dtype=object),
            "cls": np.array(["yes", "no", "yes", "no"], dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        d = discretize_all(t, strategy="equal-frequency", bin_count=2)
        assert d.schema.spec("x").outcomes[-1] == MISSING
        assert d.column("x")[2] == MISSING

    def test_conform_bins_like_discretize(self):
        # boundary values fall in the lower bin; missing tokens in the MISSING bin
        cols = {
            "x": np.array(["1", "2", "?", "4", "", "2.5"], dtype=object),
            "grp": np.array(["fav", "dep"] * 3, dtype=object),
            "cls": np.array(["yes", "no"] * 3, dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        d = conform_to_schema(t, _with_bins(t.schema, "x", (2.0, 3.0), ("<=2.0", "2.0-3.0", ">3.0", MISSING)))
        expected = ["<=2.0", "<=2.0", MISSING, ">3.0", MISSING, "2.0-3.0"]
        assert list(d.column("x")) == expected
        conformed = conform_to_schema(t, d.schema)
        assert list(conformed.column("x")) == expected
        assert conformed.fingerprint == d.fingerprint
        # a reference schema listing the bins out of order still codes by outcome
        shuffled = tuple(reversed(d.schema.spec("x").outcomes))
        attrs = tuple(replace(a, outcomes=shuffled) if a.name == "x" else a for a in d.schema.attributes)
        conformed = conform_to_schema(t, replace(d.schema, attributes=attrs))
        assert list(conformed.column("x")) == expected
        assert [shuffled[c] for c in conformed.codes("x")] == expected

    def test_conform_rejects_missing_values_unseen_by_the_schema(self):
        def table(x):
            cols = {
                "x": np.array(x, dtype=object),
                "grp": np.array(["fav", "dep", "fav"], dtype=object),
                "cls": np.array(["yes", "no", "yes"], dtype=object),
            }
            return table_from_columns(
                cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
            )

        reference = _with_bins(table(["1", "2", "3"]).schema, "x", (2.0,), ("<=2.0", ">2.0"))
        with pytest.raises(DataError, match="missing values unseen"):
            conform_to_schema(table(["1", "?", "3"]), reference)

    def test_equal_width(self):
        cols = {
            "x": np.array(["0", "1", "2", "3", "4", "5", "6", "7"], dtype=object),
            "grp": np.array(["fav", "dep"] * 4, dtype=object),
            "cls": np.array(["yes", "no"] * 4, dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        cuts = fit_cut_points(t, DiscretizationRule("x", "equal-width", 4))
        assert cuts == (1.75, 3.5, 5.25)

    @pytest.mark.parametrize("strategy, cuts", [("equal-frequency", (1.5, 2.5, 4.0)),
                                                ("equal-width", (2.0, 3.0, 4.0))])
    def test_cut_points_are_fitted_on_finite_values_only(self, strategy, cuts):
        x = ["1", "2", "3", "inf", "5", "-inf", "?"]
        cols = {
            "x": np.array(x, dtype=object),
            "grp": np.array(["fav", "dep"] * 3 + ["fav"], dtype=object),
            "cls": np.array(["yes", "no"] * 3 + ["yes"], dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        assert fit_cut_points(t, DiscretizationRule("x", strategy, 4)) == cuts
        d = discretize_all(t, strategy=strategy, bin_count=4)
        outcomes = d.schema.spec("x").outcomes
        assert outcomes[:-1] == tuple(fairtree.data._bin_labels(cuts)) and outcomes[-1] == MISSING
        # an infinity bins into the first or last bin
        assert [outcomes[c] for c in d.codes("x")[[3, 5]]] == [outcomes[-2], outcomes[0]]

    @pytest.mark.parametrize("strategy, x, codes", [
        ("equal-frequency", ["1", "2", "1e308", "1.7976931348623157e308"], [0, 1, 2, 3]),
        ("equal-width", ["-1.7e308", "0", "1.7e308", "5"], [0, 1, 3, 2]),
    ])
    def test_extreme_finite_values_give_finite_increasing_cuts(self, strategy, x, codes):
        # a midpoint sum or a range past the largest float once made the cuts inf
        cols = {
            "x": np.array(x, dtype=object),
            "grp": np.array(["fav", "dep"] * 2, dtype=object),
            "cls": np.array(["yes", "no"] * 2, dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cuts = fit_cut_points(t, DiscretizationRule("x", strategy, 4))
            d = discretize_all(t, strategy=strategy, bin_count=4)
        assert len(cuts) == 3 and all(np.isfinite(cuts)) and list(cuts) == sorted(set(cuts))
        assert d.schema.spec("x").cut_points == cuts and list(d.codes("x")) == codes

    @given(
        values=st.lists(
            st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, 2.0, -3.25]),
                      st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=1, max_size=30,
        ),
        strategy=st.sampled_from(["equal-frequency", "equal-width"]),
        bins=st.integers(2, 8),
    )
    def test_cut_points_and_warnings_equal_the_unique_version(self, values, strategy, bins):
        assume(any(v is not None for v in values))
        n = len(values)
        cols = {
            "x": np.array(["?" if v is None else repr(v) for v in values], dtype=object),
            "grp": np.array(["fav", "dep"] * n, dtype=object)[:n],
            "cls": np.array(["yes", "no", "no"] * n, dtype=object)[:n],
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"),
                               numeric_columns=("x",))
        rule = DiscretizationRule("x", strategy, bins)
        results = []
        for fn in (fit_cut_points, oracle.fit_cut_points_by_unique):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                cuts = fn(t, rule)
            results.append((cuts, [str(w.message) for w in seen]))
        assert results[0] == results[1]


class TestBenchmarkShapes:
    def test_credit_csv_counts_via_loader(self, tmp_path):
        from fairtree.datasets import make_german

        path = tmp_path / "german.csv"
        write_csv(make_german(), path)
        t = load_csv(path, LabelSpec("credit_risk", "good", "bad"), SensitiveSpec("age", ">25", "<=25"))
        c = group_counts(t)
        assert (t.n_rows, c.n_fav, c.n_dep) == (1000, 810, 190)
        assert len(t.schema.attributes) == 21  # 20 attributes + label

    def test_income_and_recidivism_counts(self, compas):
        from fairtree.data import group_counts as gc
        from fairtree.datasets import make_adult

        c = gc(compas)
        assert (c.n, c.n_fav, c.n_dep) == (6167, 2100, 4067)
        a = gc(make_adult())
        assert (a.n, a.n_fav, a.n_dep) == (45222, 30527, 14695)


class TestGroupCounts:
    def test_full_table(self, german):
        c = group_counts(german)
        assert c.n_fav + c.n_dep == 1000

    def test_empty_subset(self, german):
        assert group_counts(german, np.array([], dtype=int)) == GroupCounts(0, 0, 0, 0)

    def test_small_leaf_pattern(self):
        t = toy_table({"a": list("xxxxxxy")}, favored=[1, 1, 1, 1, 1, 1, 0],
                      positive=[1, 1, 1, 1, 1, 1, 0])
        assert group_counts(t) == GroupCounts(6, 0, 0, 1)

    @given(split_at=st.integers(0, 10))
    def test_additive_over_partitions(self, split_at):
        rng = np.random.default_rng(split_at)
        t = toy_table({"a": rng.integers(0, 3, 10)},
                      favored=rng.integers(0, 2, 10), positive=rng.integers(0, 2, 10))
        left = group_counts(t, np.arange(split_at))
        right = group_counts(t, np.arange(split_at, 10))
        assert left + right == group_counts(t)


@st.composite
def encodable_columns(draw):
    """A categorical spec, missing tokens, and cells drawn from the declared
    outcomes, the missing tokens and (sometimes) undeclared values."""
    declared = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        declared.append(MISSING)
    tokens = tuple(draw(st.lists(st.sampled_from(["", "?", "NA"]), unique=True)))
    undeclared = draw(st.lists(st.text(max_size=3), max_size=2))
    pool = declared + list(tokens) + undeclared
    cells = draw(st.lists(st.sampled_from(pool), max_size=30))
    spec = AttributeSpec("col", "categorical", tuple(declared))
    return spec, tokens, np.array(cells, dtype=object)


class TestEncode:
    @given(column=encodable_columns())
    def test_lookup_equals_the_unique_encoder(self, column):
        spec, tokens, cells = column
        try:
            expected = oracle.encode_by_unique(spec, tokens, cells)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                fairtree.data._encode(spec, tokens, fairtree.data._factorize(cells))
            for message in (str(exc), str(raised.value)):
                named = [v for v in set(cells.tolist()) if f"value {v!r} in column 'col'" in message]
                assert named, message
            return
        column = fairtree.data._encode(spec, tokens, fairtree.data._factorize(cells))
        assert list(column.text_array(0, len(cells))) == list(cells)
        # a missing token other than the first one met is coded past the outcomes
        missing = spec.outcomes.index(MISSING) if MISSING in spec.outcomes else -1
        codes = np.where(column.codes < len(spec.outcomes), column.codes, missing)
        assert column.codes.dtype == expected.dtype == np.min_scalar_type(len(column.texts))
        assert np.array_equal(codes, expected)


def _assert_narrow_codes(table):
    """Every column's codes are of the narrowest unsigned type that holds its
    count of texts, and ``codes`` reads them in that type."""
    for spec in table.schema.attributes:
        col = table._columns[spec.name]
        assert col.codes.dtype == np.min_scalar_type(len(col.texts)), spec.name
        if spec.finalized:
            assert table.codes(spec.name).dtype == col.codes.dtype, spec.name


def _wide_columns(seed, present, tokens, n):
    """Columns of ``n`` rows: ``wide`` holds ``present`` texts and the missing
    ``tokens``, each at least once; ``num`` holds up to 280 numbers and ``?``;
    ``few`` holds three texts. Also the generator that drew them."""
    rng = np.random.default_rng(seed)
    wide = np.array([f"w{i:03d}" for i in range(present)] + list(tokens), dtype=object)
    num = np.array([repr(float(v)) for v in rng.integers(0, 280, n)], dtype=object)
    num[rng.random(n) < 0.05] = "?"
    return {
        "grp": np.array(["fav", "dep"], dtype=object)[rng.integers(0, 2, n)],
        "wide": wide[rng.permutation(np.arange(n) % wide.size)],
        "num": num,
        "few": np.array(["a", "b", "?"], dtype=object)[rng.integers(0, 3, n)],
        "cls": np.array(["yes", "no"], dtype=object)[np.arange(n) % 2],
    }, rng


class TestCodeTypes:
    """A column's codes take the narrowest unsigned type that holds its count of
    texts, however the table was made; the cells they code stay the same."""

    @given(case=st.builds(_wide_columns, st.integers(0, 2**32 - 1), st.integers(250, 258),
                          st.sampled_from([(), ("?",), ("", "?"), ("?", "")]), st.integers(270, 290)))
    # 254 texts and MISSING are 255 outcomes; "?" coded past them makes 256 texts
    @example(case=_wide_columns(0, 254, ("", "?"), 280))
    def test_every_table_keeps_codes_narrow(self, tmp_path_factory, case):
        columns, rng = case
        label, sensitive = LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
        built = table_from_columns(columns, label, sensitive)
        path = tmp_path_factory.mktemp("wide") / "wide.csv"
        write_csv(built, path)
        loaded = load_csv(path, label, sensitive)
        discretized = discretize_all(loaded)
        tables = [built, loaded, discretized, conform_to_schema(built, discretized.schema),
                  loaded.subset(rng.permutation(loaded.n_rows)[: loaded.n_rows // 2]),
                  discretized.subset(np.arange(discretized.n_rows)[::-1]),
                  discretized.with_positive_mask(rng.random(discretized.n_rows) < 0.5)]
        for table in tables:
            _assert_narrow_codes(table)
        assert len(loaded._columns["wide"].texts) == len(set(columns["wide"].tolist()))
        assert loaded.column("wide").tolist() == columns["wide"].tolist()
        assert discretized.fingerprint == discretize_all(built).fingerprint


#: Cells a column may hold: numbers in several spellings, missing tokens,
#: text, NUL and non-ASCII characters.
NUMBER_CELLS = st.one_of(
    st.sampled_from(["", "?", "NA", "nan", "-inf", "1e3", " 7 ", "1_0"]),
    st.integers(-99, 99).map(str),
    st.floats(allow_nan=False).map(repr),
)
ANY_CELLS = st.one_of(NUMBER_CELLS, st.sampled_from(["\x00", "1\x00", "0x1", "é", "東京"]), st.text(max_size=3))


@st.composite
def inference_inputs(draw):
    """Feature columns of string cells beside a binary label and sensitive
    column, each feature declared numeric, categorical, both or neither."""
    n = draw(st.integers(0, 8))
    columns = {
        "grp": np.array(draw(st.lists(st.sampled_from(["fav", "dep"]), min_size=n, max_size=n)), dtype=object),
        "cls": np.array(draw(st.lists(st.sampled_from(["yes", "no"]), min_size=n, max_size=n)), dtype=object),
    }
    numeric, categorical = [], []
    for j in range(draw(st.integers(1, 4))):
        cells = draw(st.sampled_from([NUMBER_CELLS, ANY_CELLS]))
        columns[f"f{j}"] = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=object)
        declared = draw(st.sampled_from(["numeric", "categorical", "both", "neither"]))
        if declared in ("numeric", "both"):
            numeric.append(f"f{j}")
        if declared in ("categorical", "both"):
            categorical.append(f"f{j}")
    order = draw(st.permutations(list(columns)))
    options = dict(
        numeric_columns=tuple(numeric),
        categorical_columns=tuple(categorical),
        missing_tokens=tuple(draw(st.lists(st.sampled_from(["", "?", "NA"]), unique=True))),
    )
    return {name: columns[name] for name in order}, options


class TestTypeInference:
    @given(case=inference_inputs())
    def test_distinct_values_infer_what_the_cell_loop_inferred(self, case):
        columns, options = case
        label, sensitive = LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep")
        both = [name for name in options["numeric_columns"] if name in options["categorical_columns"]]
        if both:
            with pytest.raises(ConfigError, match=f"column {both[0]!r} is declared both numeric and categorical"):
                table_from_columns(columns, label, sensitive, **options)
            return
        try:
            expected = oracle.table_by_cell(columns, label, sensitive, **options)
        except (ConfigError, DataError) as exc:
            with pytest.raises((ConfigError, DataError)) as raised:
                table_from_columns(columns, label, sensitive, **options)
            assert type(raised.value) is type(exc)
            # the same file, row, value and column
            assert str(raised.value) == str(exc).replace(" declared numeric ", " numeric ")
            return
        table = table_from_columns(columns, label, sensitive, **options)
        assert table.schema.attributes == expected.schema.attributes
        assert table.schema.fingerprint == expected.schema.fingerprint
        assert table.fingerprint == expected.fingerprint

    @pytest.mark.parametrize("cells,named", [
        (["1", "zz", "?", "aa", "zz"], "row 2: cannot parse 'zz'"),
        (["1", "?", "aa", "2", "zz"], "row 3: cannot parse 'aa'"),
    ])
    def test_first_bad_cell_in_row_order_is_named(self, cells, named):
        columns = {
            "num": np.array(cells, dtype=object),
            "grp": np.array(["fav", "dep"] * 2 + ["fav"], dtype=object),
            "cls": np.array(["yes", "no"] * 2 + ["no"], dtype=object),
        }
        with pytest.raises(DataError) as raised:
            table_from_columns(columns, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"),
                               numeric_columns=("num",))
        assert str(raised.value) == f"<memory>: {named} in numeric column 'num'"


class TestColumnOptions:
    COLUMNS = {
        "num": np.array(["1", "2", "3"], dtype=object),
        "grp": np.array(["fav", "dep", "fav"], dtype=object),
        "cls": np.array(["yes", "no", "no"], dtype=object),
    }

    @pytest.mark.parametrize("options,named", [
        ({"numeric_columns": ("nope",)}, "numeric column 'nope' not found in <memory>"),
        ({"categorical_columns": ("nope",)}, "categorical column 'nope' not found in <memory>"),
        ({"numeric_columns": ("num",), "categorical_columns": ("num",)},
         "column 'num' is declared both numeric and categorical"),
        ({"numeric_columns": ("cls",)}, "label column 'cls' is always categorical; it cannot be declared numeric"),
        ({"numeric_columns": ("grp",)}, "sensitive column 'grp' is always categorical; it cannot be declared numeric"),
    ])
    def test_unknown_or_conflicting_columns_are_config_errors(self, options, named):
        with pytest.raises(ConfigError) as raised:
            table_from_columns(self.COLUMNS, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"),
                               **options)
        assert str(raised.value) == named

    def test_one_column_as_label_and_sensitive_is_a_config_error(self):
        # the tree would split nothing but the label, and relabeling would flip every negative
        with pytest.raises(ConfigError, match="column 'cls' cannot be both label and sensitive column"):
            table_from_columns(self.COLUMNS, LabelSpec("cls", "yes", "no"), SensitiveSpec("cls", "yes", "no"))
        schema = table_from_columns(self.COLUMNS, LabelSpec("cls", "yes", "no"),
                                    SensitiveSpec("grp", "fav", "dep")).schema
        doc = json.loads(json.dumps(schema.to_json()))
        doc["sensitive"] = {"column": "cls", "favored": "yes", "deprived": "no"}
        with pytest.raises(ConfigError, match="cannot be both label and sensitive"):
            TableSchema.from_json(doc)

    def test_label_and_sensitive_may_be_declared_categorical(self):
        table = table_from_columns(self.COLUMNS, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"),
                                   categorical_columns=("cls", "grp", "num"))
        assert table.schema.spec("num").outcomes == ("1", "2", "3")


class TestDataTableInvariants:
    def test_undeclared_value_rejected(self):
        schema_table = toy_table({"a": ["x", "y"]}, favored=[1, 0], positive=[1, 0])
        cols = {n: schema_table.column(n).copy() for n in schema_table.schema.column_names}
        cols["a"] = np.array(["x", "z"], dtype=object)
        with pytest.raises(DataError, match="'z'"):
            DataTable(schema_table.schema, cols)

    def test_tables_are_immutable(self, german):
        with pytest.raises(ValueError):
            german.column("purpose")[0] = "hacked"

    def test_subset_keeps_schema_and_codes(self, german):
        sub = german.subset(np.arange(10))
        assert sub.n_rows == 10
        assert sub.schema == german.schema

    def test_undeclared_label_value_rejected_in_a_derived_table(self):
        t = toy_table({"a": ["x", "y"]}, favored=[1, 0], positive=[1, 1])
        attrs = tuple(
            replace(a, outcomes=("yes",)) if a.name == "cls" else a for a in t.schema.attributes
        )
        yes_only = DataTable(replace(t.schema, attributes=attrs),
                             {n: t.column(n) for n in t.schema.column_names})
        with pytest.raises(DataError, match="'no'"):
            yes_only.with_positive_mask(np.array([True, False]))


@st.composite
def raw_tables(draw):
    """Tables as loaded: a numeric column still unfinalized, with missing cells."""
    n = draw(st.integers(1, 25))
    cells = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["0.5", "?", ""]))
    num = draw(st.lists(cells, min_size=n, max_size=n))
    assume(any(v not in ("?", "") for v in num))
    cat = draw(st.lists(st.sampled_from(["a", "b", "c,d", "?", ""]), min_size=n, max_size=n))
    favored = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cols = {
        "num": np.array(num, dtype=object),
        "cat": np.array(cat, dtype=object),
        "grp": np.where(favored, "fav", "dep").astype(object),
        "cls": np.where(positive, "yes", "no").astype(object),
    }
    return table_from_columns(cols, LabelSpec("cls", "yes", "no"),
                              SensitiveSpec("grp", "fav", "dep"), numeric_columns=("num",))


def assert_same_table(derived: DataTable, built: DataTable) -> None:
    assert derived.schema == built.schema and derived.n_rows == built.n_rows
    for spec in built.schema.attributes:
        assert list(derived.column(spec.name)) == list(built.column(spec.name))
        if spec.finalized:
            for codes in (derived.codes(spec.name), built.codes(spec.name)):
                assert not codes.flags.writeable
                assert ((0 <= codes) & (codes < len(spec.outcomes))).all()
            assert derived.codes(spec.name).dtype == built.codes(spec.name).dtype
            assert np.array_equal(derived.codes(spec.name), built.codes(spec.name))
        elif spec.kind == "numeric":
            assert np.array_equal(derived.floats(spec.name), built.floats(spec.name), equal_nan=True)
    assert np.array_equal(derived.positive_mask, built.positive_mask)
    assert np.array_equal(derived.favored_mask, built.favored_mask)
    assert np.array_equal(derived.gc_codes, built.gc_codes)
    assert derived.fingerprint == built.fingerprint


def bin_by_hand(values: np.ndarray, spec) -> np.ndarray:
    """Cells of ``values`` binned under a discretized spec: a value's outcome is
    picked by how many cut points lie below it; NaN is ``MISSING``."""
    return np.array([MISSING if np.isnan(v) else spec.outcomes[sum(c < v for c in spec.cut_points)]
                     for v in values], dtype=object)


class TestDerivedTables:
    """Derived tables share or slice arrays; they must equal a table built afresh."""

    @given(raw=raw_tables(), data=st.data())
    def test_with_positive_mask_equals_a_built_table(self, raw, data):
        for table in (raw, discretize_all(raw)):
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=table.n_rows,
                                               max_size=table.n_rows)), dtype=bool)
            cols = {n: table.column(n) for n in table.schema.column_names}
            cols["cls"] = np.where(mask, "yes", "no").astype(object)
            assert_same_table(table.with_positive_mask(mask), DataTable(table.schema, cols))

    @given(raw=raw_tables(), data=st.data())
    def test_subset_equals_a_built_table(self, raw, data):
        for table in (raw, discretize_all(raw)):
            idx = np.array(data.draw(st.lists(st.integers(0, table.n_rows - 1), max_size=30)),
                           dtype=np.int64)
            cols = {n: table.column(n)[idx] for n in table.schema.column_names}
            assert_same_table(table.subset(idx), DataTable(table.schema, cols))

    @given(raw=raw_tables(), other=raw_tables())
    def test_discretize_and_conform_equal_a_built_table(self, raw, other):
        discretized = discretize_all(raw)
        cols = {n: discretized.column(n) for n in discretized.schema.column_names}
        assert_same_table(discretized, DataTable(discretized.schema, cols))
        # under another draw's schema the categorical column is encoded again
        for schema in (discretized.schema, discretize_all(other).schema):
            cols = {n: raw.column(n) for n in schema.column_names}
            cols["num"] = bin_by_hand(raw.floats("num"), schema.spec("num"))
            try:
                built = DataTable(schema, cols)
            except DataError:
                with pytest.raises(DataError):
                    conform_to_schema(raw, schema)
                continue
            assert_same_table(conform_to_schema(raw, schema), built)

    def test_derived_tables_share_unchanged_codes(self, german, monkeypatch):
        relabeled = german.with_positive_mask(~german.positive_mask)
        assert relabeled.codes("purpose") is german.codes("purpose")
        assert relabeled.codes("credit_risk") is not german.codes("credit_risk")
        raw = make_german()

        def not_called(*args):
            raise AssertionError("a derived table encoded a column it already held")

        monkeypatch.setattr(fairtree.data, "_encode", not_called)
        monkeypatch.setattr(fairtree.data, "_parse_floats", not_called)
        discretized = discretize_all(raw)
        conformed = conform_to_schema(raw, discretized.schema)
        assert discretized.codes("purpose") is raw.codes("purpose")
        assert conformed.codes("purpose") is raw.codes("purpose")
        assert conformed.codes("duration_months") is not discretized.codes("duration_months")
        assert np.array_equal(conformed.codes("duration_months"), discretized.codes("duration_months"))
