from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import toy_table
from fairtree.data import (
    MISSING,
    DataTable,
    DiscretizationRule,
    GroupCounts,
    LabelSpec,
    SensitiveSpec,
    conform_to_schema,
    discretize,
    discretize_all,
    fit_cut_points,
    group_counts,
    load_csv,
    table_from_columns,
    write_csv,
    write_schema_sidecar,
)
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

    def test_sidecar_records_cuts_and_specs(self, mini_csv, tmp_path):
        t = discretize_all(load_csv(mini_csv, LABEL, SENSITIVE), bin_count=2)
        side = tmp_path / "out.schema.txt"
        write_schema_sidecar(t, side)
        text = side.read_text(encoding="utf-8")
        assert "label.positive: good" in text
        assert "column.duration.cut_points:" in text


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
        d = discretize(t, DiscretizationRule("age_years", "equal-frequency", 4))
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
            d = discretize(t, DiscretizationRule("x", "equal-frequency", 4))
        assert d.schema.spec("x").outcomes == ("all",)

    def test_bin_count_above_distinct_values_reduced(self):
        cols = {
            "x": np.array(["1", "2", "1", "2"], dtype=object),
            "grp": np.array(["fav"] * 4, dtype=object),
            "cls": np.array(["yes", "no", "yes", "no"], dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        with pytest.warns(UserWarning, match="distinct"):
            d = discretize(t, DiscretizationRule("x", "equal-frequency", 4))
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
        d = discretize(t, DiscretizationRule("x", "equal-frequency", 2))
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
        d = discretize(t, DiscretizationRule("x", cut_points=(2.0, 3.0)))
        expected = ["<=2.0", "<=2.0", MISSING, ">3.0", MISSING, "2.0-3.0"]
        assert list(d.column("x")) == expected
        conformed = conform_to_schema(t, d.schema)
        assert list(conformed.column("x")) == expected
        assert conformed.fingerprint == d.fingerprint

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

        reference = discretize(table(["1", "2", "3"]), DiscretizationRule("x", cut_points=(2.0,)))
        with pytest.raises(DataError, match="missing values unseen"):
            conform_to_schema(table(["1", "?", "3"]), reference.schema)

    def test_equal_width(self):
        cols = {
            "x": np.array(["0", "1", "2", "3", "4", "5", "6", "7"], dtype=object),
            "grp": np.array(["fav", "dep"] * 4, dtype=object),
            "cls": np.array(["yes", "no"] * 4, dtype=object),
        }
        t = table_from_columns(cols, LabelSpec("cls", "yes", "no"), SensitiveSpec("grp", "fav", "dep"))
        cuts = fit_cut_points(t, DiscretizationRule("x", "equal-width", 4))
        assert cuts == (1.75, 3.5, 5.25)


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
    cat = draw(st.lists(st.sampled_from(["a", "b", "c,d", "?"]), min_size=n, max_size=n))
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
            assert derived.codes(spec.name).dtype == built.codes(spec.name).dtype
            assert np.array_equal(derived.codes(spec.name), built.codes(spec.name))
        elif spec.kind == "numeric":
            assert np.array_equal(derived.floats(spec.name), built.floats(spec.name), equal_nan=True)
    assert np.array_equal(derived.positive_mask, built.positive_mask)
    assert np.array_equal(derived.favored_mask, built.favored_mask)
    assert np.array_equal(derived.gc_codes, built.gc_codes)
    assert derived.fingerprint == built.fingerprint


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

    def test_derived_tables_share_unchanged_codes(self, german):
        relabeled = german.with_positive_mask(~german.positive_mask)
        assert relabeled.codes("purpose") is german.codes("purpose")
        assert relabeled.codes("credit_risk") is not german.codes("credit_risk")
