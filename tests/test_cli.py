import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fairtree import cli
from fairtree.cli import main
from fairtree.data import MISSING, LabelSpec, SensitiveSpec, load_csv, write_csv
from fairtree.datasets import make_german
from fairtree.errors import ConfigError
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

    def test_byte_order_mark_before_a_feature_column_exits_3(self, german_csv, tmp_path, capsys):
        # the mark would otherwise be written into tree.json as part of the column's name
        first = german_csv.read_text(encoding="utf-8").split(",", 1)[0]
        bad = tmp_path / "bom.csv"
        bad.write_bytes("\ufeff".encode("utf-8") + german_csv.read_bytes())
        assert run("build", "--data", str(bad), *SPEC_FLAGS, "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "byte-order mark" in err and f"column name {first!r}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["build", "audit", "sweep"])
    def test_label_column_as_sensitive_exits_2(self, german_csv, tmp_path, capsys, command):
        extra = ["--predictions", "credit_risk"] if command == "audit" else []
        assert run(command, "--data", str(german_csv), "--label", "credit_risk", "--positive", "good",
                   "--sensitive", "credit_risk", "--favored", "good", *extra, "--out", str(tmp_path / "o")) == 2
        assert "column 'credit_risk' cannot be both label and sensitive column" in capsys.readouterr().err
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

    def test_header_only_csv_gives_an_empty_plan(self, german_csv, built, tmp_path):
        header = tmp_path / "header.csv"
        header.write_bytes(german_csv.read_bytes().split(b"\n", 1)[0] + b"\n")
        out = tmp_path / "rel"
        assert run("relabel", "--tree", str(built), "--data", str(header), "--out", str(out)) == 0
        assert json.loads((out / "plan.json").read_text())["actions"] == []
        assert (out / "relabeled.csv").read_bytes() == header.read_bytes()
        again = tmp_path / "again"
        assert run("relabel", "--tree", str(built), "--data", str(header),
                   "--from-plan", str(out / "plan.json"), "--out", str(again)) == 0
        assert (again / "relabeled.csv").read_bytes() == header.read_bytes()

    def test_tree_splitting_on_the_label_exits_3(self, german_csv, built, tmp_path):
        doc = json.loads(built.read_text(encoding="utf-8"))
        doc["root"]["attribute"] = doc["schema"]["label"]["column"]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv),
                   "--sigma", "0", "--out", str(tmp_path / "rel")) == 3
        assert not (tmp_path / "rel").exists()

    def test_tree_pairing_label_and_sensitive_exits_3(self, german_csv, built, tmp_path, capsys):
        doc = json.loads(built.read_text(encoding="utf-8"))
        doc["schema"]["sensitive"] = {"column": "credit_risk", "favored": "good", "deprived": "bad"}
        blob = json.dumps(doc["schema"], sort_keys=True, ensure_ascii=False).encode("utf-8")
        doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv), "--out", str(tmp_path / "rel")) == 3
        assert "cannot be both label and sensitive column" in capsys.readouterr().err
        assert not (tmp_path / "rel").exists()

    @pytest.mark.parametrize("command", ["relabel", "report"])
    def test_tree_with_an_undeclared_label_outcome_exits_3(self, german_csv, built, tmp_path, capsys, command):
        # the schema's label column lists an outcome beside its declared pair
        doc = json.loads(built.read_text(encoding="utf-8"))
        label = doc["schema"]["label"]["column"]
        next(s for s in doc["schema"]["attributes"] if s["name"] == label)["outcomes"].append("meh")
        blob = json.dumps(doc["schema"], sort_keys=True, ensure_ascii=False).encode("utf-8")
        doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        data = ("--data", str(german_csv), "--out", str(tmp_path / "rel")) if command == "relabel" else ()
        assert run(command, "--tree", str(bad), *data) == 3
        err = capsys.readouterr().err
        assert "malformed tree document: label column 'credit_risk' has undeclared values ['meh']" in err
        assert not (tmp_path / "rel").exists()

    @pytest.mark.parametrize("command", ["relabel", "report"])
    def test_tree_with_text_utf8_cannot_encode_exits_3(self, german_csv, built, tmp_path, capsys, command):
        # an escaped lone surrogate is valid JSON, but the schema fingerprint hashes UTF-8
        doc = json.loads(built.read_text(encoding="utf-8"))
        doc["schema"]["missing_tokens"].append("\ud800")
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert b"\\ud800" in bad.read_bytes()
        data = ("--data", str(german_csv), "--out", str(tmp_path / "rel")) if command == "relabel" else ()
        assert run(command, "--tree", str(bad), *data) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}: malformed tree document:" in err and "surrogates not allowed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "rel").exists()

    def test_crlf_fully_quoted_input_gives_equal_cells_in_lf(self, german_csv, built, tmp_path):
        # "non-label bytes untouched" holds per cell: relabeled.csv is always
        # written with LF line ends and minimal quoting, whatever the input used
        rows = _csv_rows(german_csv)
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        for data, out in ((german_csv, tmp_path / "plain"), (quoted, tmp_path / "quoted")):
            assert run("relabel", "--tree", str(built), "--data", str(data), "--out", str(out)) == 0
        written = (tmp_path / "quoted" / "relabeled.csv").read_bytes()
        assert written == (tmp_path / "plain" / "relabeled.csv").read_bytes()
        assert b"\r" not in written and not written.startswith(b'"')
        j = rows[0].index("credit_risk")
        after = _csv_rows(tmp_path / "quoted" / "relabeled.csv")
        assert [r[:j] + r[j + 1:] for r in after] == [r[:j] + r[j + 1:] for r in rows]

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

    @pytest.mark.parametrize("at, cut", [(-1, float("nan")), (-1, float("inf")), (0, float("-inf")),
                                         (-1, 10**400)], ids=["nan", "inf", "-inf", "huge-int"])
    def test_tree_with_a_non_finite_cut_point_exits_3(self, german_csv, built, tmp_path, capsys, at, cut):
        doc = json.loads(built.read_text(encoding="utf-8"))
        spec = next(s for s in doc["schema"]["attributes"] if s["cut_points"])
        spec["cut_points"][at] = cut
        blob = json.dumps(doc["schema"], sort_keys=True, ensure_ascii=False).encode("utf-8")
        doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv), "--out", str(tmp_path / "rel")) == 3
        assert f"cut points for column {spec['name']!r} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rel").exists()

    @pytest.mark.parametrize("place", ["spec-kind", "spec", "label", "config", "document"])
    def test_node_shaped_object_outside_the_root_exits_3(self, german_csv, built, tmp_path, capsys, place):
        # the parser reads any object with exactly a node's keys as a node
        leaf = {"kind": "leaf", "id": 0, "counts": [1, 0, 0, 1], "disc": 2.0, "majority": "positive", "depth": 0}
        internal = {"kind": "internal", "attribute": "purpose", "fallback": "car", "children": {"car": leaf}}
        doc = json.loads(built.read_text(encoding="utf-8"))
        if place == "spec-kind":
            doc["schema"]["attributes"][0]["kind"] = "leaf"
        elif place == "spec":
            doc["schema"]["attributes"][0] = leaf
        elif place == "label":
            doc["schema"]["label"] = leaf
        elif place == "config":
            doc["config"] = internal
        else:
            doc = internal
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run("relabel", "--tree", str(bad), "--data", str(german_csv), "--out", str(tmp_path / "rel")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
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

    @pytest.mark.parametrize("option, value", [("--sigma", "1.5"), ("--sigma", "0.5"), ("--seed", "9"),
                                               ("--seed", "42"), ("--seed", "-1")])
    def test_an_option_the_plan_contradicts_exits_2(self, german_csv, built, tmp_path, capsys,
                                                     option, value):
        # the plan was drawn at sigma 1.0 and seed 3
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "1.0", "--seed", "3", "--out", str(a)) == 0
        capsys.readouterr()
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(a / "plan.json"), option, value, "--out", str(b)) == 2
        err = capsys.readouterr().err
        assert f"{option} {value} conflicts with the plan's {option[2:]}" in err and "Traceback" not in err
        assert not b.exists()

    def test_an_option_the_plan_agrees_with_applies_it(self, german_csv, built, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "1.0", "--seed", "3", "--out", str(a)) == 0
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(a / "plan.json"), "--sigma", "1", "--seed", "3", "--out", str(b)) == 0
        for name in ("plan.json", "relabeled.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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

    def test_plan_naming_a_leaf_not_in_the_tree_exits_3(self, german_csv, built, tmp_path, capsys):
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        doc = json.loads((planned / "plan.json").read_text(encoding="utf-8"))
        assert len(doc["actions"]) > 1
        doc["actions"][1]["leaf"] = 999999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), "--out", str(tmp_path / "b")) == 3
        assert "plan action 1 names leaf 999999" in capsys.readouterr().err
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

    def test_plan_row_beyond_int64_exits_3(self, german_csv, built, tmp_path, capsys):
        planned = tmp_path / "plan"
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(planned)) == 0
        doc = json.loads((planned / "plan.json").read_text(encoding="utf-8"))
        doc["actions"][0]["rows"][0] = 10**30
        doc["actions"][-1]["rows"].append(-1)
        doc["actions"][-1]["count"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), "--out", str(tmp_path / "b")) == 3
        err = capsys.readouterr().err
        assert f"plan row {10**30} is outside the table's 1000 rows" in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["relabel", "report"])
    def test_tree_leaf_id_beyond_int64_exits_3(self, german_csv, built, tmp_path, capsys, command):
        doc = json.loads(built.read_text(encoding="utf-8"))
        node = doc["root"]
        while node["kind"] != "leaf":
            node = next(iter(node["children"].values()))
        node["id"] = 10**30
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--data", str(german_csv), "--out", str(tmp_path / "o")] if command == "relabel" else []
        assert run(command, "--tree", str(bad), *argv) == 3
        err = capsys.readouterr().err
        assert f"leaf id {10**30} is outside the int64 range" in err and "Traceback" not in err


def _moved_rows(doc, census_, table, leaf_of):
    # deprived negatives of later promote actions moved into the first one
    promotes = [a for a in doc["actions"] if a["action"] == "promote"]
    first, moved = promotes[0], []
    for act in promotes[1:]:
        while act["rows"] and len(moved) < 24:
            moved.append(act["rows"].pop())
            act["count"] -= 1
    first["count"] += len(moved)
    first["rows"] = sorted(first["rows"] + moved)
    return f"plan action {doc['actions'].index(first)} (leaf {first['leaf']}): the leaf needs"


def _below_sigma(doc, census_, table, leaf_of):
    doc["sigma"] = 1.0
    i, act = next((i, a) for i, a in enumerate(doc["actions"])
                  if next(c for c in census_.leaves if c.leaf_id == a["leaf"]).disc < 1.0)
    return f"plan action {i} (leaf {act['leaf']}): the plan's sigma 1.0 does not relabel the leaf"


def _wrong_direction(doc, census_, table, leaf_of):
    # the other action, with as many legal rows of the leaf's other class
    listed = {r for a in doc["actions"] for r in a["rows"]}
    for i, act in enumerate(doc["actions"]):
        other = "demote" if act["action"] == "promote" else "promote"
        wanted = 0 if other == "demote" else 3  # favored positives, deprived negatives
        rows = [int(r) for r in np.flatnonzero((leaf_of == act["leaf"]) & (table.gc_codes == wanted))
                if r not in listed]
        if act["count"] and len(rows) >= act["count"]:
            needed, act["action"], act["rows"] = act["action"], other, rows[: act["count"]]
            return f"plan action {i} (leaf {act['leaf']}): the leaf needs {needed}, not {other}"
    raise AssertionError("no action can be turned around")


def _fewer_rows(doc, census_, table, leaf_of):
    i, act = next((i, a) for i, a in enumerate(doc["actions"]) if a["count"] >= 2)
    act["rows"].pop()
    act["count"] -= 1
    return f"plan action {i} (leaf {act['leaf']}): the leaf needs {act['count'] + 1} flips, not {act['count']}"


def _descending_rows(doc, census_, table, leaf_of):
    i, act = next((i, a) for i, a in enumerate(doc["actions"]) if a["count"] >= 2)
    act["rows"].reverse()
    return f"plan action {i} (leaf {act['leaf']}): rows are not in strictly ascending order"


def _stray_row(doc, census_, table, leaf_of):
    # a deprived negative of another leaf, which no action lists
    listed = {r for a in doc["actions"] for r in a["rows"]}
    i, act = next((i, a) for i, a in enumerate(doc["actions"]) if a["action"] == "promote" and a["count"])
    stray = next(int(r) for r in np.flatnonzero((leaf_of != act["leaf"]) & (table.gc_codes == 3))
                 if r not in listed)
    act["rows"] = sorted(act["rows"][1:] + [stray])
    return f"plan action {i} (leaf {act['leaf']}): row {stray} is not one of the leaf's deprived negatives"


def _repeated_leaf(doc, census_, table, leaf_of):
    act = doc["actions"][0]
    doc["actions"].insert(1, {"leaf": act["leaf"], "action": act["action"], "count": 0, "rows": []})
    return f"plan action 1 (leaf {act['leaf']}) lists a leaf that an earlier action lists"


def _left_out(doc, census_, table, leaf_of):
    act = doc["actions"].pop()
    return f"the plan leaves out leaf {act['leaf']}, whose discrimination reaches its sigma 0.0"


def _another_tree(doc, census_, table, leaf_of):
    digest = doc["tree_digest"]
    doc["tree_digest"] = "0" * 16
    return f"the plan was built from a different tree (plan {'0' * 16}, tree {digest})"


def _another_table(doc, census_, table, leaf_of):
    doc["table_fingerprint"] = "0" * 16
    return "refusing to apply: the plan was built against a different table (plan 0000000000000000, table "


def _foreign_leaf(doc, census_, table, leaf_of):
    doc["actions"][1]["leaf"] = 999999
    return "plan action 1 names leaf 999999, which is not a leaf of the tree"


def _row_out_of_range(doc, census_, table, leaf_of):
    doc["actions"][0]["rows"][0] = 1_000_000
    return "plan row 1000000 is outside the table's 1000 rows"


def _row_beyond_int64(doc, census_, table, leaf_of):
    doc["actions"][0]["rows"][0] = 10**30
    return f"plan row {10**30} is outside the table's 1000 rows"


def _repeated_row(doc, census_, table, leaf_of):
    act = next(a for a in doc["actions"] if a["count"] >= 2)
    act["rows"][1] = act["rows"][0]
    return f"plan lists row {act['rows'][0]} more than once"


def _illegal_target(doc, census_, table, leaf_of):
    # a row of the wrong group, which no action lists: only a deprived row may
    # be promoted, only a favored row demoted
    listed = {r for a in doc["actions"] for r in a["rows"]}
    act = doc["actions"][0]
    wrong_group = table.favored_mask if act["action"] == "promote" else ~table.favored_mask
    act["rows"][0] = next(int(r) for r in np.flatnonzero(wrong_group) if r not in listed)
    which = "promote target is not a deprived negative" if act["action"] == "promote" else \
        "demote target is not a favored positive"
    return f"row {act['rows'][0]}: {which}"


def _unknown_action(doc, census_, table, leaf_of):
    doc["actions"][0]["action"] = "flip"
    return "data error: unknown action 'flip'\n"


def _negative_seed(doc, census_, table, leaf_of):
    doc["seed"] = -1
    return "plan seed must be a non-negative integer, got -1"


def _several_faults(doc, census_, table, leaf_of):
    # the table is checked before the leaves, and the leaves before the rows
    _row_out_of_range(doc, census_, table, leaf_of)
    _foreign_leaf(doc, census_, table, leaf_of)
    return _another_table(doc, census_, table, leaf_of)


class TestForgedPlans:
    """A read plan must be one that planning could give at its own sigma; each
    forgery below applied with exit 0 before the plan was checked against the census."""

    @pytest.fixture(scope="class")
    def planned(self, german_csv, built, tmp_path_factory):
        from fairtree import relabel
        from fairtree.data import conform_to_schema
        from fairtree.tree import route

        out = tmp_path_factory.mktemp("planned")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "0", "--plan-only", "--out", str(out)) == 0
        tree = deserialize(cli._read_document(str(built)))
        table = conform_to_schema(load_csv(german_csv, tree.schema.label, tree.schema.sensitive), tree.schema)
        return out / "plan.json", relabel.census(tree, table), table, route(tree, table)

    @pytest.mark.parametrize("forge", [_moved_rows, _below_sigma, _wrong_direction, _fewer_rows,
                                       _descending_rows, _stray_row, _repeated_leaf, _left_out],
                             ids=lambda f: f.__name__.strip("_"))
    @pytest.mark.parametrize("plan_only", [False, True], ids=["apply", "plan-only"])
    def test_forged_plan_exits_3_naming_the_fault(self, german_csv, built, planned, tmp_path, capsys,
                                                  forge, plan_only):
        plan_path, census_, table, leaf_of = planned
        doc = json.loads(plan_path.read_text(encoding="utf-8"))
        named = forge(doc, census_, table, leaf_of)
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        extra = ["--plan-only"] if plan_only else []
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(bad), *extra, "--out", str(tmp_path / "b")) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("forge", [_another_tree, _another_table, _foreign_leaf, _row_out_of_range,
                                       _row_beyond_int64, _repeated_row, _unknown_action, _illegal_target,
                                       _left_out, _negative_seed, _several_faults],
                             ids=lambda f: f.__name__.strip("_"))
    def test_both_paths_name_the_same_first_fault(self, german_csv, built, planned, tmp_path, capsys, forge):
        # --plan-only applies nothing, yet it passes the same checks in the same order
        plan_path, census_, table, leaf_of = planned
        doc = json.loads(plan_path.read_text(encoding="utf-8"))
        named = forge(doc, census_, table, leaf_of)
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        errs = []
        for extra in ([], ["--plan-only"]):
            assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                       "--from-plan", str(bad), *extra, "--out", str(tmp_path / "b")) == 3
            errs.append(capsys.readouterr().err)
            assert named in errs[-1] and "Traceback" not in errs[-1]
            assert not (tmp_path / "b").exists()
        assert errs[0] == errs[1]

    def test_another_draw_of_the_same_candidates_is_legal(self, german_csv, built, planned, tmp_path):
        # the seed's own draw is not required: any count of the leaf's candidates is a repair
        plan_path, census_, table, leaf_of = planned
        doc = json.loads(plan_path.read_text(encoding="utf-8"))
        leaf = next(c for c in census_.leaves if 0 < c.count < c.candidates.size)
        act = next(a for a in doc["actions"] if a["leaf"] == leaf.leaf_id)
        drawn = act["rows"]
        other = sorted(set(leaf.candidates.tolist()) - set(drawn))[: leaf.count]
        act["rows"] = sorted(drawn[: leaf.count - len(other)] + other)
        assert act["rows"] != drawn
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--from-plan", str(edited), "--out", str(tmp_path / "b")) == 0


#: Feature cells whose text a table must keep although they share a code: the
#: two missing tokens of a categorical column, a quoted comma, and one value
#: spelled three ways beside both missing tokens in a numeric column.
AWKWARD_NOTES = ["", "?", "a,b", "plain", "?", "a,b", ""]
AWKWARD_AMOUNTS = ["1", "1.0", "01", "?", "", "2", "3.5", "01", "10"]


def write_awkward_csv(german_csv: Path, path: Path) -> Path:
    """The german stand-in with a ``note`` and an ``amount`` column before its label."""
    rows = _csv_rows(german_csv)
    rows[0][-1:-1] = ["note", "amount"]
    for i, row in enumerate(rows[1:]):
        row[-1:-1] = [AWKWARD_NOTES[i % len(AWKWARD_NOTES)], AWKWARD_AMOUNTS[i % len(AWKWARD_AMOUNTS)]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_relabel_keeps_every_awkward_cell(german_csv, tmp_path):
    data = write_awkward_csv(german_csv, tmp_path / "awkward.csv")
    assert b'"a,b"' in data.read_bytes()
    label, sensitive = LabelSpec("credit_risk", "good", "bad"), SensitiveSpec("age", ">25", "<=25")
    table = load_csv(data, label, sensitive)
    assert table.schema.spec("amount").kind == "numeric"
    assert MISSING in table.schema.spec("note").outcomes
    assert table.fingerprint == oracle.load_csv_by_row(data, label, sensitive).fingerprint
    assert run("build", "--data", str(data), *SPEC_FLAGS, "--out", str(tmp_path / "tree")) == 0
    out = tmp_path / "rel"
    assert run("relabel", "--tree", str(tmp_path / "tree" / "tree.json"), "--data", str(data),
               "--sigma", "0", "--out", str(out)) == 0
    flips = sum(a["count"] for a in json.loads((out / "plan.json").read_text())["actions"])
    assert flips > 0
    before, after = (_csv_rows(p) for p in (data, out / "relabeled.csv"))
    j = before[0].index("credit_risk")
    assert len(after) == len(before)
    assert [r[:j] + r[j + 1:] for r in after] == [r[:j] + r[j + 1:] for r in before]
    assert sum(a[j] != b[j] for a, b in zip(before, after)) == flips
    relabeled = load_csv(out / "relabeled.csv", label, sensitive)
    assert relabeled.fingerprint == oracle.load_csv_by_row(out / "relabeled.csv", label, sensitive).fingerprint


@pytest.fixture(scope="module")
def quoted_german(german_csv, tmp_path_factory):
    """The german stand-in with the kl tree's root attribute renamed ``x,y`` and
    its outcome ``none`` renamed ``none, "really"``: renaming a column or an
    outcome does not change a split's gain, so every subgroup's conditions name ``x,y``."""
    rows = _csv_rows(german_csv)
    tree = _built_tree(german_csv, tmp_path_factory.mktemp("tree"))
    j = rows[0].index(json.loads(tree.read_text(encoding="utf-8"))["root"]["attribute"])
    rows[0][j] = "x,y"
    for row in rows[1:]:
        row[j] = 'none, "really"' if row[j] == "none" else row[j]
    path = tmp_path_factory.mktemp("quoted") / "quoted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _built_tree(data: Path, out: Path) -> Path:
    assert run("build", "--data", str(data), *SPEC_FLAGS, "--out", str(out)) == 0
    return out / "tree.json"


def _relabeled_csv(data, tmp_path):
    tree = _built_tree(data, tmp_path)
    assert run("relabel", "--tree", str(tree), "--data", str(data), "--sigma", "0", "--out", str(tmp_path)) == 0
    rows = _csv_rows(data)
    j = rows[0].index("credit_risk")
    for action in json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))["actions"]:
        for r in action["rows"]:
            rows[1 + r][j] = "good" if action["action"] == "promote" else "bad"
    assert any('"' in cell for row in rows for cell in row) and "x,y" in rows[0]
    return tmp_path / "relabeled.csv", rows


def _sweep_csv(data, tmp_path):
    from dataclasses import fields

    from fairtree import eval as ev
    from fairtree.data import discretize_all

    assert run("sweep", "--data", str(data), *SPEC_FLAGS, "--grid", "0:2:1", "--folds", "2",
               "--epochs", "20", "--seed", "5", "--out", str(tmp_path)) == 0
    table = discretize_all(load_csv(data, LabelSpec("credit_risk", "good"), SensitiveSpec("age", ">25")))
    result = ev.sweep(table, "kl", [0.0, 1.0, 2.0], 5, ev.TrainConfig(epochs=20, seed=5), folds=2)
    names = [f.name for f in fields(ev.SweepRow)]
    return tmp_path / "sweep.csv", [names] + [
        ["" if v is None else str(v) for v in (getattr(r, name) for name in names)] for r in result.rows
    ]


def _audit_tables(data, tmp_path):
    from fairtree.metrics import fairness_report

    rows = _csv_rows(data)
    rng = np.random.default_rng(0)
    rows[0] += ["pred", "score"]
    for row in rows[1:]:
        row += [rng.choice(["good", "bad"]), repr(round(rng.random(), 3))]
    scored = tmp_path / "scored.csv"
    with open(scored, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert run("audit", "--data", str(scored), *SPEC_FLAGS, "--predictions", "pred", "--scores", "score",
               "--roc", "--out", str(tmp_path)) == 0
    table = load_csv(scored, LabelSpec("credit_risk", "good"), SensitiveSpec("age", ">25"))
    report = fairness_report(table.positive_mask, table.column("pred") == "good", table.favored_mask)
    return table, report


def _report_csv(data, tmp_path):
    from fairtree.metrics import FairnessReport

    _, report = _audit_tables(data, tmp_path)
    return tmp_path / "report.csv", [FairnessReport.csv_header(), report.csv_row()]


def _roc_csv(data, tmp_path):
    from fairtree.metrics import roc_csv_rows, roc_points

    table, _ = _audit_tables(data, tmp_path)
    series = roc_points(table.floats("score"), table.positive_mask, table.favored_mask)
    return tmp_path / "roc.csv", roc_csv_rows(series)


def _subgroups_csv(data, tmp_path):
    from fairtree.tree import extract_subgroups

    tree = _built_tree(data, tmp_path)
    out = tmp_path / "subgroups.csv"
    assert run("report", "--tree", str(tree), "--out", str(out)) == 0
    rows = [["leaf_id", "disc", "fav_pos", "fav_neg", "dep_pos", "dep_neg", "conditions"]]
    for s in extract_subgroups(deserialize(tree.read_bytes())):
        rows.append([str(s.leaf_id), repr(s.disc), *map(str, s.counts.as_tuple()), s.conditions()])
    assert all(row[-1].startswith("x,y=") for row in rows[1:]) and any('"' in row[-1] for row in rows[1:])
    return out, rows


def _minimal_quoting(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell


@pytest.mark.parametrize("written", [_relabeled_csv, _sweep_csv, _report_csv, _roc_csv, _subgroups_csv],
                         ids=["relabeled.csv", "sweep.csv", "report.csv", "roc.csv", "report --out"])
def test_every_csv_is_utf8_lf_minimally_quoted(quoted_german, tmp_path, written):
    path, rows = written(quoted_german, tmp_path)
    data = path.read_bytes()
    assert b"\r" not in data
    # line by line: pytest's diff of two whole files takes minutes to render
    lines, meant = data.decode("utf-8").split("\n"), [",".join(map(_minimal_quoting, row)) for row in rows]
    for line, expected in itertools.zip_longest(lines, meant + [""]):
        assert line == expected
    for row, expected in itertools.zip_longest(_csv_rows(path), rows):
        assert row == expected


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


    @pytest.mark.parametrize("rewrite", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: json.dumps(json.loads(data), sort_keys=True, indent=3).encode("utf-8"),
    ], ids=["crlf", "sorted-keys"])
    @pytest.mark.parametrize("command", ["relabel", "report"])
    def test_a_read_tree_digests_its_file_bytes(self, german_csv, built, tmp_path, monkeypatch,
                                                command, rewrite):
        import fairtree.tree as tr

        copy = tmp_path / "tree.json"
        copy.write_bytes(rewrite(built.read_bytes()))
        read, trees = tr.deserialize, []
        monkeypatch.setattr(tr, "deserialize", lambda document: trees.append(read(document)) or trees[-1])
        if command == "relabel":
            assert run("relabel", "--tree", str(copy), "--data", str(german_csv),
                       "--sigma", "0", "--plan-only", "--out", str(tmp_path / "o")) == 0
        else:
            assert run("report", "--tree", str(copy)) == 0
        digest = hashlib.sha256(copy.read_bytes()).hexdigest()[:16]
        assert [tree.digest for tree in trees] == [digest]
        assert digest != _digest(built.read_bytes())
        if command == "relabel":
            assert json.loads((tmp_path / "o" / "plan.json").read_text())["tree_digest"] == digest


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


#: CSV faults a fuzzed input carries, with the exit codes each may give. A NUL
#: byte that lands in a feature name or cell is only data, so the run may
#: succeed; every other fault is a configuration or data error.
CSV_FAULTS = {
    "ragged": (3,),
    "bom": (3,),
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

    def test_missing_predictions_column_exits_2(self, audit_csv, capsys):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "nope") == 2
        assert f"predictions column 'nope' not found in {audit_csv}" in capsys.readouterr().err

    def test_unknown_numeric_column_exits_2(self, audit_csv, capsys):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--numeric", "nope") == 2
        assert "numeric column 'nope' not found" in capsys.readouterr().err

    def test_roc_csv(self, audit_csv, tmp_path):
        out = tmp_path / "roc"
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--scores", "score", "--roc", "--out", str(out)) == 0
        lines = (out / "roc.csv").read_text().splitlines()
        assert lines[0] == "group,threshold,tpr,fpr"
        assert any(line.startswith("deprived,") for line in lines)

    def test_roc_without_scores_exits_2(self, audit_csv, tmp_path, capsys):
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--roc", "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--roc"], ["--scores", "score"]])
    def test_roc_and_scores_without_each_other_exit_2_before_reading(self, tmp_path, capsys, flags):
        # the CSV does not exist: the options are refused before it is opened
        assert run("audit", "--data", str(tmp_path / "absent.csv"), *SPEC_FLAGS,
                   "--predictions", "pred", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--roc requires --scores" if flags == ["--roc"] else "--scores is read only with --roc") \
            in captured.err

    def test_unknown_scores_column_exits_2(self, audit_csv, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--scores", "nope", "--roc", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"scores column 'nope' not found in {audit_csv}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_non_numeric_scores_column_exits_3_before_the_report(self, audit_csv, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("audit", "--data", str(audit_csv), *SPEC_FLAGS, "--predictions", "pred",
                   "--scores", "pred", "--roc", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert "column 'pred' has no numeric values" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("cell", ["", "?", "nan", "inf", "-inf"])
    def test_roc_with_a_non_finite_score_exits_3(self, audit_csv, tmp_path, capsys, cell):
        lines = audit_csv.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "x"
        assert run("audit", "--data", str(bad), *SPEC_FLAGS, "--predictions", "pred",
                   "--scores", "score", "--roc", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert "scores column 'score' holds a missing or non-finite score" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


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


class TestColumnOptions:
    """--numeric and --categorical must name columns of the file, and not the same
    one twice or the label or sensitive column as numeric."""

    @pytest.mark.parametrize("flags,named", [
        (["--numeric", "no_such_column", "--categorical", "also_missing"],
         "numeric column 'no_such_column' not found"),
        (["--categorical", "also_missing"], "categorical column 'also_missing' not found"),
        (["--numeric", "duration_months", "--categorical", "duration_months"],
         "column 'duration_months' is declared both numeric and categorical"),
        (["--numeric", "credit_risk"], "label column 'credit_risk' is always categorical"),
        (["--numeric", "age"], "sensitive column 'age' is always categorical"),
    ])
    @pytest.mark.parametrize("command", ["build", "audit"])
    def test_bad_column_option_exits_2(self, german_csv, tmp_path, capsys, command, flags, named):
        extra = ["--predictions", "credit_risk"] if command == "audit" else []
        assert run(command, "--data", str(german_csv), *SPEC_FLAGS, *extra, *flags,
                   "--out", str(tmp_path / "x")) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_declared_columns_still_build(self, german_csv, tmp_path):
        assert run("build", "--data", str(german_csv), *SPEC_FLAGS, "--numeric", "duration_months",
                   "--categorical", "installment_rate", "--out", str(tmp_path / "x")) == 0


class TestBinsOption:
    """--bins below 2 is refused (exit 2) whatever the columns are, before any output."""

    @pytest.fixture(scope="class")
    def categorical_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("categorical") / "toy.csv"
        path.write_text("grp,job,cls\nfav,a,yes\ndep,b,no\nfav,b,no\ndep,a,yes\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    @pytest.mark.parametrize("command", ["build", "sweep"])
    @pytest.mark.parametrize("data", ["categorical-only", "german"])
    def test_bins_below_two_exits_2(self, categorical_csv, german_csv, tmp_path, capsys, data, command, bins):
        if data == "german":
            path, flags = german_csv, SPEC_FLAGS
        else:
            path, flags = categorical_csv, ["--label", "cls", "--positive", "yes",
                                            "--sensitive", "grp", "--favored", "fav"]
        assert run(command, "--data", str(path), *flags, "--bins", bins, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "bin_count must be at least 2" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


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

    def test_grid_over_the_value_limit_exits_2_at_once(self, german_csv, tmp_path, capsys, monkeypatch):
        # 2e9 values: refused from its length alone, before the data is read
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("the data was read"))
        assert run("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                   "--grid", "0:2:1e-9", "--out", str(tmp_path / "x")) == 2
        assert f"a grid holds at most {cli.MAX_GRID_VALUES} values" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,length", [("0:2:0.0002", 10_001), ("0:2:0.00019998", None),
                                             ("0:2:5e-324", None), ("0:2:0.1", 21), ("1:1:0.5", 1)])
    def test_grid_length_limit(self, spec, length):
        if length is None:
            with pytest.raises(ConfigError, match="at most 10001 values"):
                cli._parse_grid(spec)
        else:
            assert len(cli._parse_grid(spec)) == length

    @given(start=st.integers(0, 200), width=st.integers(0, 200), step=st.integers(1, 300),
           scale=st.sampled_from([1e-2, 1e-3, 7e-3]))
    def test_grid_values_equal_the_stepping_loop(self, start, width, step, scale):
        start, stop = start * 1e-2, min((start + width) * 1e-2, 2.0)
        assume(start <= stop)
        step *= scale
        values, i = [], 0
        while (v := round(start + i * step, 12)) <= stop + 1e-9:
            values.append(min(v, stop))
            i += 1
        assert cli._parse_grid(f"{start!r}:{stop!r}:{step!r}") == values

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

    def test_diverging_descent_exits_3_naming_the_learning_rate(self, german_csv, tmp_path, capsys):
        # at 1e308 the weights overflow, and the fit would predict negative everywhere
        assert run("sweep", "--data", str(german_csv), *SPEC_FLAGS, "--folds", "2", "--grid", "0:2:1",
                   "--epochs", "5", "--learning-rate", "1e308", "--out", str(tmp_path / "x")) == 3
        err = capsys.readouterr().err
        assert "diverged at learning rate 1e+308" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_idempotent_rerun_bytes(self, german_csv, tmp_path):
        out = tmp_path / "sweep"
        args = ("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                "--grid", "0:1:0.5", "--folds", "2", "--epochs", "40",
                "--seed", "5", "--out", str(out))
        assert run(*args) == 0
        first = (out / "sweep.csv").read_bytes()
        assert run(*args) == 0
        assert (out / "sweep.csv").read_bytes() == first


def _float_options():
    """(subcommand, option, required options) for every option that takes a float."""
    subs = next(a for a in cli._build_parser()._actions if a.dest == "command")
    found = []
    for name, sub in subs.choices.items():
        required = [a.option_strings[0] for a in sub._actions if a.required]
        for action in sub._actions:
            assert action.type is not float, f"{name} {action.option_strings}: use the finite-float type"
            if action.type is cli._finite_float:
                found.append((name, action.option_strings[0], required))
    return found


def test_float_options_are_the_declared_three():
    assert sorted(opt for _, opt, _ in _float_options()) == ["--learning-rate", "--min-disc", "--sigma"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_every_float_option_rejects_non_finite_values_with_exit_2(tmp_path, capsys, value):
    for command, option, required in _float_options():
        argv = [command]
        for flag in required:
            argv += [flag, str(tmp_path / "absent")]
        # with a finite value the command runs and fails on the absent files (exit 3)
        assert run(*argv, option, "0.5") == 3
        capsys.readouterr()
        assert run(*argv, f"{option}={value}") == 2, (command, option)
        assert "must be a finite number" in capsys.readouterr().err


def test_every_lazy_name_resolves():
    import fairtree

    for module, names in fairtree._LAZY.items():
        for name in names:
            assert getattr(fairtree, name) is getattr(importlib.import_module(f"fairtree.{module}"), name)


def test_importing_the_cli_loads_neither_eval_nor_relabel():
    code = "import sys, fairtree.cli; print(sorted(m for m in sys.modules if m.startswith('fairtree')))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env).stdout
    assert "fairtree.cli" in out
    assert "fairtree.eval" not in out and "fairtree.relabel" not in out


def test_commands_load_only_the_modules_they_use(german_csv, tmp_path):
    # numpy.ma is loaded by a plain np.unique; relabel needs neither it nor eval
    code = (
        "import sys, warnings; from fairtree.cli import main; warnings.simplefilter('ignore'); "
        "code = main(sys.argv[1:]); "
        "print(code, 'numpy.ma' in sys.modules, 'fairtree.eval' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    tree = tmp_path / "tree"
    commands = {
        "build": (["build", "--data", str(german_csv), *SPEC_FLAGS, "--out", str(tree)], "0 False False"),
        "sweep": (["sweep", "--data", str(german_csv), *SPEC_FLAGS, "--folds", "2", "--grid", "0:2:1",
                   "--epochs", "20", "--out", str(tmp_path / "sweep")], "0 False True"),
        "relabel": (["relabel", "--tree", str(tree / "tree.json"), "--data", str(german_csv),
                     "--out", str(tmp_path / "rel")], "0 False False"),
    }
    for name, (argv, expected) in commands.items():
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.splitlines()[-1] == expected, name
