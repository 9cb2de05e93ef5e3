import json

import numpy as np
import pytest

from fairtree.cli import main
from fairtree.data import LabelSpec, SensitiveSpec, load_csv, write_csv
from fairtree.datasets import make_german
from fairtree.tree import deserialize


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

    def test_sigma_out_of_range_exits_2(self, german_csv, built, tmp_path):
        assert run("relabel", "--tree", str(built), "--data", str(german_csv),
                   "--sigma", "2.01", "--out", str(tmp_path / "x")) == 2

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
        tree_text = (out / "tree.json").read_text(encoding="utf-8")
        assert run("report", "--tree", str(out / "tree.json"), "--min-disc", "2.0",
                   "--top-k", "0") == 0
        assert "no subgroups" in capsys.readouterr().out


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

    def test_idempotent_rerun_bytes(self, german_csv, tmp_path):
        out = tmp_path / "sweep"
        args = ("sweep", "--data", str(german_csv), *SPEC_FLAGS,
                "--grid", "0:1:0.5", "--folds", "2", "--epochs", "40",
                "--seed", "5", "--out", str(out))
        assert run(*args) == 0
        first = (out / "sweep.csv").read_bytes()
        assert run(*args) == 0
        assert (out / "sweep.csv").read_bytes() == first
