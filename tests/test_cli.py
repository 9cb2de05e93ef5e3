import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtree import cli
from fairtree.cli import main
from fairtree.data import LabelSpec, SensitiveSpec, load_csv, write_csv
from fairtree.datasets import make_german
from fairtree.tree import deserialize, serialize


@pytest.fixture(scope="module")
def german_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "german.csv"
    write_csv(make_german(), path)
    return path


SPEC_FLAGS = [
    "--label", "credit_risk", "--positive", "good",
    "--sensitive", "age", "--favored", ">25",
]


def run(*argv):
    return main(list(argv))


class TestBuild:
    def test_happy_path_writes_tree_and_stats(self, german_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("build", "--data", str(german_csv), *SPEC_FLAGS,
                   "--criterion", "kl", "--out", str(out))
        assert code == 0
        tree = deserialize((out / "tree.json").read_text(encoding="utf-8"))
        assert tree.criterion == "kl"
        stats = json.loads((out / "stats.json").read_text())
        assert stats["sparsity"] <= stats["node_count"]
        assert "nodes=" in capsys.readouterr().out

    def test_missing_favored_flag_exits_2(self, german_csv, capsys):
        code = run("build", "--data", str(german_csv),
                   "--label", "credit_risk", "--positive", "good", "--sensitive", "age")
        assert code == 2

    def test_euclid_criterion(self, german_csv, tmp_path):
        out = tmp_path / "run"
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS,
                   "--criterion", "euclid", "--out", str(out)) == 0
        assert deserialize((out / "tree.json").read_text(encoding="utf-8")).criterion == "euclid"

    def test_locked_out_dir_names_its_owner_and_stays_locked(self, german_csv, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".fairtree.lock").write_text("4242@elsewhere\n", encoding="utf-8")
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(out)) == 2
        assert "locked by 4242@elsewhere" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [".fairtree.lock"]
        assert (out / ".fairtree.lock").read_text(encoding="utf-8") == "4242@elsewhere\n"

    @pytest.mark.parametrize("first", ["credit_risk", "age"])
    def test_byte_order_mark_before_label_or_sensitive_exits_3(self, german_csv, tmp_path, capsys, first):
        lines = german_csv.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines]
        j = rows[0].index(first)
        bad = tmp_path / "bom.csv"
        bad.write_text("\ufeff" + "".join(",".join([r[j]] + r[:j] + r[j + 1:]) + "\n" for r in rows),
                       encoding="utf-8")
        assert run("build", "--data", str(bad), *SPEC_FLAGS, "--out", str(tmp_path / "o")) == 3
        assert "byte-order mark" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_warnings_print_one_line_each(self, german_csv, tmp_path, capsys):
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(tmp_path / "o")) == 0
        err = capsys.readouterr().err
        assert [line.split(" ")[0] for line in err.splitlines()] == ["warning:", "warning:"]
        assert ".py:" not in err and "warnings.warn(" not in err

    def test_unreadable_data_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1\n", encoding="utf-8")
        assert run("build", "--data", str(bad), "--label", "b", "--positive", "x",
                   "--sensitive", "a", "--favored", "1") == 3


@pytest.fixture(scope="module")
def built(german_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("tree")
    assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(out)) == 0
    return out / "tree.json"


class TestRelabel:
    def test_sigma_zero_relabels_and_preserves_other_columns(self, german_csv, built, tmp_path):
        out = tmp_path / "rel"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--seed", "7", "--out", str(out)) == 0
        plan_doc = json.loads((out / "plan.json").read_text())
        assert plan_doc["sigma"] == 0.0 and plan_doc["actions"]
        original = german_csv.read_text(encoding="utf-8").splitlines()
        relabeled = (out / "relabeled.csv").read_text(encoding="utf-8").splitlines()
        assert len(original) == len(relabeled)
        changed = 0
        for a, b in zip(original, relabeled):
            if a != b:
                changed += 1
                fa, fb = a.split(","), b.split(",")
                assert fa[:-1] == fb[:-1]  # only the trailing label cell moved
        assert changed == sum(a["count"] for a in plan_doc["actions"])

    def test_tree_splitting_on_the_label_exits_3(self, german_csv, built, tmp_path):
        doc = json.loads(built.read_text(encoding="utf-8"))
        doc["root"]["attribute"] = doc["schema"]["label"]["column"]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv),
                   "--sigma", "0", "--out", str(tmp_path / "rel")) == 3
        assert not (tmp_path / "rel").exists()

    def test_tree_with_cut_points_as_text_exits_3(self, german_csv, built, tmp_path, capsys):
        # text cut points would be compared as text when binning, so the tree is refused
        # even with its schema fingerprint recomputed
        doc = json.loads(built.read_text(encoding="utf-8"))
        for spec in doc["schema"]["attributes"]:
            spec["cut_points"] = [str(c) for c in spec["cut_points"]]
        blob = json.dumps(doc["schema"], sort_keys=True, ensure_ascii=False).encode("utf-8")
        doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv),
                   "--sigma", "0", "--out", str(tmp_path / "rel")) == 3
        assert "cut point" in capsys.readouterr().err
        assert not (tmp_path / "rel").exists()

    def test_sigma_out_of_range_exits_2(self, german_csv, built, tmp_path):
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "2.01", "--out", str(tmp_path / "x")) == 2

    def test_sigma_is_checked_before_the_data_is_read(self, built, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        for extra in ([], ["--from-plan", str(tmp_path / "plan.json")]):
            assert run("relabel", "--tree", str(built), "--data", str(missing),
                       "--sigma", "-0.5", *extra, "--out", str(tmp_path / "x")) == 2
            assert "sigma must lie in [0, 2], got -0.5" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, german_csv, built, tmp_path, capsys):
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--seed", "-1", "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_plan_only_touches_no_data(self, german_csv, built, tmp_path):
        out = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "1.5", "--plan-only", "--out", str(out)) == 0
        assert (out / "plan.json").exists()
        assert not (out / "relabeled.csv").exists()

    def test_apply_previous_plan(self, german_csv, built, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "1.0", "--seed", "3", "--out", str(a)) == 0
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(a / "plan.json"), "--out", str(b)) == 0
        assert (a / "relabeled.csv").read_bytes() == (b / "relabeled.csv").read_bytes()

    def test_plan_from_another_tree_exits_3(self, german_csv, built, tmp_path, capsys):
        other, planned = tmp_path / "euclid", tmp_path / "plan"
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--criterion", "euclid",
                   "--out", str(other)) == 0
        assert run("relabel", "--tree", str(other / "tree.json"), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(planned / "plan.json"), "--out", str(tmp_path / "b")) == 3
        assert "different tree" in capsys.readouterr().err

    def test_undeclared_category_exits_3_naming_the_column(self, german_csv, built, tmp_path, capsys):
        lines = german_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        column = lines[0].rstrip("\n").split(",").index("purpose")
        cells = lines[1].split(",")
        cells[column] = "time_machine"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines[:1] + [",".join(cells)] + lines[2:]), encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(bad),
                   "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "'time_machine' in column 'purpose'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[]", '"x"', "5", "[" * 100_000 + "]" * 100_000],
                             ids=["list", "string", "number", "deep-nesting"])
    def test_plan_that_is_not_a_plan_object_exits_3(self, german_csv, built, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), "--out", str(tmp_path / "b")) == 3

    def test_plan_with_an_illegal_target_exits_3(self, german_csv, built, tmp_path, capsys):
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        doc = json.loads((planned / "plan.json").read_text(encoding="utf-8"))
        favored = load_csv(german_csv, LabelSpec("credit_risk", "good", "bad"),
                           SensitiveSpec("age", ">25", "<=25")).favored_mask
        listed = {r for act in doc["actions"] for r in act["rows"]}
        act = doc["actions"][0]
        # only a deprived row may be promoted, only a favored row demoted
        wrong_group = favored if act["action"] == "promote" else ~favored
        act["rows"][0] = next(int(r) for r in np.flatnonzero(wrong_group) if r not in listed)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), "--out", str(tmp_path / "b")) == 3
        assert "target is not" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_failed_write_keeps_the_previous_output(self, german_csv, built, tmp_path, monkeypatch):
        out = tmp_path / "rel"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--out", str(out)) == 0
        before = (out / "relabeled.csv").read_bytes()
        plan_before = (out / "plan.json").read_bytes()
        locks = []

        def write_partway(table, path):
            locks.append((out / ".fairtree.lock").read_text(encoding="utf-8"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("credit_risk,age\ngood,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_csv", write_partway)
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "1.0", "--out", str(out)) == 3
        assert locks == [f"{os.getpid()}@{platform.node()}\n"]
        assert (out / "relabeled.csv").read_bytes() == before
        # the outputs are replaced as one set: no new plan beside the old data
        assert (out / "plan.json").read_bytes() == plan_before
        assert sorted(p.name for p in out.iterdir()) == ["plan.json", "relabeled.csv", "relabeled.schema.txt"]

    def test_plan_with_out_of_range_row_exits_3(self, german_csv, built, tmp_path, capsys):
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        doc = json.loads((planned / "plan.json").read_text(encoding="utf-8"))
        doc["actions"][0]["rows"][0] = 1_000_000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), "--out", str(tmp_path / "b")) == 3
        assert "outside" in capsys.readouterr().err


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestTreeDigest:
    """A tree's digest is the hash of its ``tree.json`` bytes as read."""

    def test_build_written_tree_digests_its_file_bytes(self, built):
        tree = deserialize(cli._read_document(str(built)))
        assert tree.digest == _digest(built.read_bytes())
        assert tree.digest == _digest(serialize(tree).encode("utf-8"))

    @pytest.mark.parametrize("reformat", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: json.dumps(json.loads(data), indent=2).encode("utf-8"),
    ], ids=["crlf", "reindented"])
    def test_a_reformatted_copy_is_another_tree(self, german_csv, built, tmp_path, capsys, reformat):
        copy = tmp_path / "tree.json"
        copy.write_bytes(reformat(built.read_bytes()))
        assert copy.read_bytes() != built.read_bytes()
        assert deserialize(cli._read_document(str(copy))).digest == _digest(copy.read_bytes())
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        capsys.readouterr()
        assert run("relabel", "--tree", str(copy), "--data", str(german_csv),
                   "--from-plan", str(planned / "plan.json"), "--out", str(tmp_path / "b")) == 3
        assert "different tree" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


def _with_invalid_utf8(src: Path, dst: Path) -> Path:
    """A copy of ``src`` with a 0xff byte, which no UTF-8 text contains, in its middle."""
    data = src.read_bytes()
    dst.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    return dst


class TestInvalidUtf8:
    """Input that is not UTF-8 is bad data: exit 3 naming the file, no traceback."""

    def _assert_rejected(self, capsys, path, *argv):
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8" in err and "Traceback" not in err

    def test_build_data(self, german_csv, tmp_path, capsys):
        bad = _with_invalid_utf8(german_csv, tmp_path / "bad.csv")
        self._assert_rejected(capsys, bad, "build", "--data", str(bad), *SPEC_FLAGS,
                              "--out", str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_relabel_data(self, german_csv, built, tmp_path, capsys):
        bad = _with_invalid_utf8(german_csv, tmp_path / "bad.csv")
        self._assert_rejected(capsys, bad, "relabel", "--tree", str(built), "--data", str(bad),
                              "--out", str(tmp_path / "o"))

    def test_relabel_tree(self, german_csv, built, tmp_path, capsys):
        bad = _with_invalid_utf8(built, tmp_path / "tree.json")
        self._assert_rejected(capsys, bad, "relabel", "--tree", str(bad), "--data",
                              str(german_csv), "--out", str(tmp_path / "o"))

    def test_relabel_from_plan(self, german_csv, built, tmp_path, capsys):
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        bad = _with_invalid_utf8(planned / "plan.json", tmp_path / "plan.json")
        self._assert_rejected(capsys, bad, "relabel", "--tree", str(built), "--data",
                              str(german_csv), "--from-plan", str(bad), "--out", str(tmp_path / "o"))

    def test_report_tree(self, built, tmp_path, capsys):
        bad = _with_invalid_utf8(built, tmp_path / "tree.json")
        self._assert_rejected(capsys, bad, "report", "--tree", str(bad))


#: CSV faults a fuzzed input carries, with the exit codes each may give. A BOM
#: or NUL byte that lands in a feature name or cell is only data, so the run may
#: succeed; every other fault is a configuration or data error.
CSV_FAULTS = {
    "ragged": (3,),
    "bom": (0, 2, 3),
    "duplicate_header": (3,),
    "nul": (0, 2, 3),
    "invalid_utf8": (3,),
    "empty": (3,),
    "third_label_value": (2, 3),
}


@st.composite
def faulty_csv(draw):
    names = draw(st.permutations(["a", "b", "grp", "cls"]))
    n = draw(st.integers(4, 12))
    cells = {
        "a": draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n)),
        "b": draw(st.lists(st.integers(0, 9).map(str), min_size=n, max_size=n)),
        "grp": ["fav", "dep"] * (n // 2) + ["fav"] * (n % 2),
        "cls": ["yes", "no", "no"] * n,
    }
    rows = [list(names)] + [[cells[c][i] for c in names] for i in range(n)]
    fault = draw(st.sampled_from(sorted(CSV_FAULTS)))
    i = draw(st.integers(1, n))
    if fault == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
    elif fault == "duplicate_header":
        rows[0][draw(st.integers(1, 3))] = rows[0][0]
    elif fault == "third_label_value":
        rows[i][names.index("cls")] = "maybe"
    text = "".join(",".join(row) + "\n" for row in rows)
    if fault == "bom":
        text = "\ufeff" + text
    elif fault == "nul":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\x00" + text[at:]
    data = text.encode("utf-8")
    if fault == "invalid_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + data[at:]
    elif fault == "empty":
        data = b""
    return fault, data


@given(case=faulty_csv())
def test_fuzzed_csv_exits_2_or_3_never_4(case):
    fault, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("build", "--data", str(path), "--label", "cls", "--positive", "yes",
                       "--sensitive", "grp", "--favored", "fav", "--out", str(Path(tmp) / "o"))
    assert code in CSV_FAULTS[fault], (fault, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def audit_csv(german_csv, tmp_path_factory):
    # add a noisy self-prediction column and a score column
    table = load_csv(
        german_csv, LabelSpec("credit_risk", "good", "bad"), SensitiveSpec("age", ">25", "<=25")
    )
    rng = np.random.default_rng(0)
    rows = german_csv.read_text(encoding="utf-8").splitlines()
    out = [rows[0] + ",pred,score"]
    labels = table.column("credit_risk")
    for i, line in enumerate(rows[1:]):
        flip = rng.random() < 0.2
        pred = ("bad" if labels[i] == "good" else "good") if flip else labels[i]
        out.append(f"{line},{pred},{round(rng.random(), 6)}")
    path = tmp_path_factory.mktemp("audit") / "german_preds.csv"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


class TestAudit:
    def test_report_emitted(self, audit_csv, capsys):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred") == 0
        text = capsys.readouterr().out
        assert "demographic parity" in text and "accuracy" in text

    def test_missing_predictions_column_exits_2(self, audit_csv):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "nope") == 2

    def test_roc_csv(self, audit_csv, tmp_path):
        out = tmp_path / "roc"
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--scores", "score", "--roc", "--out", str(out)) == 0
        lines = (out / "roc.csv").read_text().splitlines()
        assert lines[0] == "group,threshold,tpr,fpr"
        assert any(line.startswith("deprived,") for line in lines)

    def test_roc_without_scores_exits_2(self, audit_csv, tmp_path):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--roc", "--out", str(tmp_path / "x")) == 2


class TestReport:
    def test_top_k_table(self, german_csv, tmp_path, capsys):
        out = tmp_path / "t"
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(out)) == 0
        assert run("report", "--tree", str(out / "tree.json"), "--min-disc", "0.5",
                   "--top-k", "5", "--out", str(tmp_path / "subs.csv")) == 0
        printed = capsys.readouterr().out
        assert "conditions" in printed
        lines = (tmp_path / "subs.csv").read_text().splitlines()
        assert 2 <= len(lines) <= 6

    def test_min_disc_two_only_maximal(self, german_csv, tmp_path, capsys):
        out = tmp_path / "t"
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(out)) == 0
        capsys.readouterr()
        assert run("report", "--tree", str(out / "tree.json"), "--min-disc", "2.0") == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            if line and not line.startswith("("):
                assert line.split()[1] == "2.000"

    def test_empty_result_exits_0(self, german_csv, tmp_path, capsys):
        out = tmp_path / "t"
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(out)) == 0
        assert run("report", "--tree", str(out / "tree.json"), "--min-disc", "2.1") == 0
        assert "no subgroups" in capsys.readouterr().out

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_exits_2(self, built, capsys, top_k):
        assert run("report", "--tree", str(built), "--top-k", top_k) == 2
        assert "top_k must be at least 1" in capsys.readouterr().err


class TestSweep:
    def test_small_sweep_csv(self, german_csv, tmp_path):
        out = tmp_path / "sweep"
        code = run("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                   "--grid", "0:2:1", "--folds", "2", "--epochs", "60",
                   "--seed", "5", "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        # header + baseline + 3 sigmas x 2 variants
        assert len(lines) == 1 + 1 + 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5 and manifest["folds"] == 2

    def test_bad_grid_exits_2(self, german_csv, tmp_path):
        assert run("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                   "--grid", "0..2", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:1"])
    def test_non_finite_grid_exits_2(self, german_csv, tmp_path, capsys, grid):
        assert run("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                   "--grid", grid, "--out", str(tmp_path / "x")) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, german_csv, tmp_path, capsys):
        assert run("sweep", "--data", str(german_csv), *SPEC_FLAGS, "--folds", "2",
                   "--grid", "0:2:1", "--seed", "-3", "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "Traceback" not in err

    def test_idempotent_rerun_bytes(self, german_csv, tmp_path):
        out = tmp_path / "sweep"
        args = ("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                "--grid", "0:1:0.5", "--folds", "2", "--epochs", "40",
                "--seed", "5", "--out", str(out))
        assert run(*args) == 0
        first = (out / "sweep.csv").read_bytes()
        assert run(*args) == 0
        assert (out / "sweep.csv").read_bytes() == first
