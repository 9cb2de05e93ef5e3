#!/usr/bin/env python3
"""Smoke test of the fairtree command line: one scenario of commands on the
seed-42 stand-in data, and one stdlib check per invariant of what they write.

  python scripts/smoke.py --fairtree "python -m fairtree.cli" --out /tmp/smoke

Each ``check_*`` function takes file paths, returns a list of problems (empty
when the files pass) and imports nothing of fairtree.
"""

import argparse
import csv
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from unittest import mock

SPEC = ["--label", "credit_risk", "--positive", "good", "--sensitive", "age", "--favored", ">25"]


def _refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def _read_json(path) -> tuple[str, object]:
    """A JSON file's text and document; NaN and Infinity raise ValueError."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    return text, json.loads(text, parse_constant=_refuse)


def _leaves(node: dict, path: tuple = ()) -> dict[str, dict]:
    """Each leaf under a tree.json node, keyed by its conditions as ``report`` writes them."""
    if node["kind"] == "leaf":
        return {" AND ".join(path) or "(root)": node}
    return {key: leaf for outcome, child in node["children"].items()
            for key, leaf in _leaves(child, path + (f"{node['attribute']}={outcome}",)).items()}


def _records(path):
    """Each CSV record of a file as (its text with its line end, its cells)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines: list[str] = []  # the lines the reader has taken for the record it parses
        for cells in csv.reader(lines.append(line) or line for line in fh):
            yield "".join(lines), cells
            lines.clear()


def _write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check_json_text(path, ensure_ascii: bool = True) -> list[str]:
    """A document is the json module's text of itself, with no NaN or Infinity:
    ``plan.json`` as ``json.dumps`` writes it, ``tree.json`` with ``ensure_ascii=False``."""
    try:
        text, doc = _read_json(path)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    if json.dumps(doc, indent=1, ensure_ascii=ensure_ascii) + "\n" != text:
        return [f"{path}: differs from the json module's text of its document"]
    return []


def check_non_label_cells(source, output, label: str) -> list[str]:
    """Relabeling rewrites label cells only: the output has the input's header
    and record count, every other cell is the input's, and a record whose label
    cell is the input's is the input's record byte for byte."""
    before, after = list(_records(source)), list(_records(output))
    problems = [] if after[:1] == before[:1] else [f"{output}: header differs from {source}'s"]
    if len(after) != len(before):
        problems.append(f"{output}: {len(after)} records, {source} has {len(before)}")
    j = before[0][1].index(label)
    for i, ((a_text, a), (b_text, b)) in enumerate(zip(before, after)):
        if a[:j] + a[j + 1:] != b[:j] + b[j + 1:]:
            problems.append(f"{output} record {i}: a non-label cell differs from the input's")
        elif a[j] == b[j] and a_text != b_text:
            problems.append(f"{output} record {i}: label untouched, yet its bytes differ from the input's")
    return problems


def check_plan_leaves(tree_path, plan_path) -> list[str]:
    """A sigma-0 plan repairs exactly the tree's leaves with disc > 0, each once."""
    positive = {leaf["id"] for leaf in _leaves(_read_json(tree_path)[1]["root"]).values() if leaf["disc"] > 0}
    planned = [action["leaf"] for action in _read_json(plan_path)[1]["actions"]]
    if len(planned) != len(set(planned)) or set(planned) != positive:
        return [f"{plan_path}: plans leaves {sorted(planned)}, the disc > 0 leaves are {sorted(positive)}"]
    return []


def check_report_rows(tree_path, report_path) -> list[str]:
    """Each ``report --out`` row's conditions lead through the tree to its own
    leaf, with that leaf's disc and counts, and each disc > 0 leaf is listed once."""
    leaves = _leaves(_read_json(tree_path)[1]["root"])
    with open(report_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for row in rows:
        leaf = leaves.get(row["conditions"], {})
        if [leaf.get("id"), repr(leaf.get("disc")), leaf.get("counts")] != [
                int(row["leaf_id"]), row["disc"], [int(row[k]) for k in ("fav_pos", "fav_neg", "dep_pos", "dep_neg")]]:
            problems.append(f"{report_path}: row {row} does not lead to its leaf")
    positive = sum(leaf["disc"] > 0 for leaf in leaves.values())
    if not len(rows) == positive == len({row["leaf_id"] for row in rows}):
        problems.append(f"{report_path}: {len(rows)} rows for {positive} leaves with disc > 0")
    return problems


def check_roc(path) -> list[str]:
    """Each group's ROC staircase runs from (0, 0) to (1, 1) and never decreases."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    staircases = {group: [(float(r["tpr"]), float(r["fpr"])) for r in rows if r["group"] == group]
                  for group in ("favored", "deprived")}
    return [f"{path}: the {group} staircase is not a rising path from (0, 0) to (1, 1)"
            for group, points in staircases.items() if points[:1] != [(0.0, 0.0)] or points[-1:] != [(1.0, 1.0)]
            or any(a[0] > b[0] or a[1] > b[1] for a, b in zip(points, points[1:]))]


def check_line_ends(paths) -> list[str]:
    """Each CSV ends its lines with LF alone: it holds no CR byte."""
    return [f"{path}: holds a CR byte" for path in paths if b"\r" in Path(path).read_bytes()]


def scenario(run, out: Path) -> list[str]:
    """Every problem found running the commands into the directory ``out``
    through ``run(argv, env) -> (exit code, stderr)``, ``env`` holding extra
    environment variables. A file that a failed command left missing stops it."""
    problems: list[str] = []
    try:
        _steps(run, out, problems)
    except Exception:
        problems.append(f"the scenario stopped:\n{traceback.format_exc()}")
    return problems


def _steps(run, out: Path, problems: list[str]) -> None:
    from fairtree import eval as ev
    from fairtree.data import LabelSpec, SensitiveSpec, discretize_all, load_csv
    from fairtree.tree import deserialize, serialize

    def check(ok: bool, problem: str) -> None:
        if not ok:
            problems.append(problem)

    def expect(code: int, *argv, env=None) -> str:
        """Run fairtree: it must exit ``code`` with no traceback. Returns its stderr."""
        argv = [str(a) for a in argv]
        got, err = run(argv, env)
        check(got == code and "Traceback" not in err, f"fairtree {shlex.join(argv)}: exit {got}, not {code}:\n{err}")
        return err

    def build(name: str, data: Path, *options, code=0) -> str:
        return expect(code, "build", "--data", data, *SPEC, *options, "--out", out / name)

    def relabel(name: str, tree: Path, data: Path, *options, code=0) -> None:
        expect(code, "relabel", "--tree", tree, "--data", data, *options, "--out", out / name)

    def same(a: str, b: str) -> None:
        check((out / a).read_bytes() == (out / b).read_bytes(), f"{a} and {b} differ")

    def plan_leaves(name: str, data: Path) -> None:
        problems.extend(check_json_text(out / name / "tree.json", ensure_ascii=False))
        relabel(f"{name}/plan-only", out / name / "tree.json", data, "--plan-only")
        problems.extend(check_plan_leaves(out / name / "tree.json", out / name / "plan-only/plan.json"))

    german, tree, awkward = out / "data/german.csv", out / "tree/tree.json", out / "awkward.csv"
    done = subprocess.run([sys.executable, Path(__file__).resolve().with_name("make_datasets.py"), "--seed", "42",
                           "--out", out / "data"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    check(done.returncode == 0, f"make_datasets.py exit {done.returncode}:\n{done.stderr}")
    for name, criterion in (("tree", "kl"), ("tree-euclid", "euclid")):
        err = build(name, german, "--criterion", criterion)
        check("warnings.warn(" not in err, f"build printed a warning with its source line:\n{err}")
        # a tree read from its text writes that text again, and read from its bytes digests them
        text, raw = _read_json(out / name / "tree.json")[0], (out / name / "tree.json").read_bytes()
        check(serialize(deserialize(text)) == text, f"{name}/tree.json does not round-trip")
        check(deserialize(raw).digest == hashlib.sha256(raw).hexdigest()[:16], f"{name}/tree.json: wrong digest")
    relabel("a", tree, german)
    relabel("b", tree, german, "--from-plan", out / "a/plan.json")
    same("a/relabeled.csv", "b/relabeled.csv")
    # a tree.json with its keys sorted and another indent relabels the same rows
    doc = _read_json(tree)[1]
    (out / "sorted.json").write_text(json.dumps(doc, sort_keys=True, indent=3), encoding="utf-8")
    relabel("sorted", out / "sorted.json", german)
    same("a/relabeled.csv", "sorted/relabeled.csv")
    relabel("e", out / "tree-euclid/tree.json", german)
    relabel("f", out / "tree-euclid/tree.json", german, "--from-plan", out / "e/plan.json")
    same("e/relabeled.csv", "f/relabeled.csv")
    for name in ("a", "e"):
        problems += check_json_text(out / name / "plan.json")
        problems += check_non_label_cells(german, out / name / "relabeled.csv", "credit_risk")
    # awkward cells: both missing tokens in a categorical column, one number spelled
    # 1, 1.0 and 01 beside both missing tokens and inf, and a quoted comma
    rows = [cells for _, cells in _records(german)]
    notes, amounts = ["", "?", "a,b", "plain"], ["1", "1.0", "01", "?", "", "2", "3.5", "inf"]
    rows[0][-1:-1] = ["note", "amount"]
    for i, row in enumerate(rows[1:]):
        row[-1:-1] = [notes[i % len(notes)], amounts[i % len(amounts)]]
    _write_rows(awkward, rows)
    build("tree-awkward", awkward)
    relabel("awkward-out", out / "tree-awkward/tree.json", awkward)
    problems += check_non_label_cells(awkward, out / "awkward-out/relabeled.csv", "credit_risk")
    build("tree-awkward-width", awkward, "--binning", "equal-width")  # cuts fitted on the finite amounts only
    # relabel bins each training CSV with the cut points build fitted: routed through
    # its own tree, the sigma-0 plan repairs exactly the tree.json leaves with disc > 0
    for name in ("tree", "tree-euclid"):
        plan_leaves(name, german)
    for name in ("tree-awkward", "tree-awkward-width"):
        plan_leaves(name, awkward)
    for name in ("tree", "tree-euclid"):
        expect(0, "report", "--tree", out / name / "tree.json", "--top-k", 5)
        expect(0, "report", "--tree", out / name / "tree.json", "--out", out / name / "subgroups.csv")
        problems += check_report_rows(out / name / "tree.json", out / name / "subgroups.csv")

    expect(0, "sweep", "--data", german, *SPEC, "--folds", 2, "--grid", "0:2:1", "--out", out / "sweep")
    # a 3-fold sweep runs its folds on a process pool: its sweep.csv equals a one-process
    # sweep's, and Python 3.12's warning on forking a multi-threaded process is not printed
    err = expect(0, "sweep", "--data", german, *SPEC, "--folds", 3, "--grid", "0:2:1", "--out", out / "sweep3",
                 env={"PYTHONWARNINGS": "default::DeprecationWarning"})
    check("DeprecationWarning" not in err and "multi-threaded" not in err, f"the pooled sweep warned:\n{err}")
    with mock.patch.object(ev, "_pool_size", lambda folds: 1), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        table = discretize_all(load_csv(german, LabelSpec("credit_risk", "good", "bad"),
                                        SensitiveSpec("age", ">25", "<=25")))
        ev.sweep(table, "kl", [0.0, 1.0, 2.0], 42, ev.TrainConfig(seed=42), folds=3).to_csv(out / "one.csv")
    same("sweep3/sweep.csv", "one.csv")

    expect(0, "audit", "--data", german, *SPEC, "--predictions", "credit_risk", "--out", out / "audit")
    # a predictions-and-scores copy of german, and one with a blank score, which is bad data
    rows, rng = [cells for _, cells in _records(german)], random.Random(42)
    rows[0] += ["pred", "score"]
    for row in rows[1:]:
        row += [rng.choice(["good", "bad"]), repr(round(rng.random(), 3))]
    for name, code in (("scored", 0), ("blank", 3)):
        _write_rows(out / f"{name}.csv", rows)
        rows[1][-1] = ""
        expect(code, "audit", "--data", out / f"{name}.csv", *SPEC, "--predictions", "pred", "--scores", "score",
               "--roc", "--out", out / f"roc-{name}")
    problems += check_roc(out / "roc-scored/roc.csv")

    # runs that used to exit 0 with a wrong answer: one column as both label and
    # sensitive, --bins below 2 where no column is numeric, a descent that diverges
    # (its data error, not numpy's overflow warnings) and a byte-order mark
    expect(2, "build", "--data", german, "--label", "credit_risk", "--positive", "good",
           "--sensitive", "credit_risk", "--favored", "good", "--out", out / "same-column")
    (out / "categorical.csv").write_bytes(b"grp,job,cls\nfav,a,yes\ndep,b,no\nfav,b,no\ndep,a,yes\n")
    expect(2, "build", "--data", out / "categorical.csv", "--label", "cls", "--positive", "yes",
           "--sensitive", "grp", "--favored", "fav", "--bins", 1, "--out", out / "one-bin")
    err = expect(3, "sweep", "--data", german, *SPEC, "--folds", 2, "--learning-rate", "1e308",
                 "--out", out / "diverged")
    check("encountered" not in err, f"the diverging sweep printed numpy's warnings:\n{err}")
    (out / "bom.csv").write_bytes(b"\xef\xbb\xbf" + german.read_bytes())
    build("bom", out / "bom.csv", code=3)
    # forged plans (a leaf left out, a negative seed) exit 3, with or without --plan-only
    plan = _read_json(out / "a/plan.json")[1]
    (out / "left-out.json").write_text(json.dumps(dict(plan, actions=plan["actions"][:-1])), encoding="utf-8")
    (out / "seed.json").write_text(json.dumps(dict(plan, seed=-1)), encoding="utf-8")
    for forged in ("left-out.json", "seed.json"):
        for only in ([], ["--plan-only"]):
            relabel("forged", tree, german, "--from-plan", out / forged, *only, code=3)
    relabel("c", tree, german, "--seed", -1, code=2)
    # malformed documents: a schema giving the label column an outcome beside its declared
    # pair, with the fingerprint recomputed, and one holding an escaped lone surrogate
    doc = _read_json(tree)[1]
    schema = doc["schema"]
    next(a for a in schema["attributes"] if a["name"] == schema["label"]["column"])["outcomes"].append("meh")
    blob = json.dumps(schema, sort_keys=True, ensure_ascii=False).encode("utf-8")
    doc["schema_fingerprint"] = hashlib.sha256(blob).hexdigest()[:16]
    (out / "meh.json").write_text(json.dumps(doc), encoding="utf-8")
    doc = _read_json(tree)[1]
    doc["schema"]["missing_tokens"].append("\ud800")
    (out / "surrogate.json").write_text(json.dumps(doc), encoding="utf-8")
    check("\\ud800" in (out / "surrogate.json").read_text(encoding="utf-8"), "surrogate.json lacks \\ud800")
    for name in ("meh", "surrogate"):
        expect(3, "report", "--tree", out / f"{name}.json")
        relabel(name, out / f"{name}.json", german, code=3)

    # every CSV the commands wrote, and only those, ends its lines with LF alone
    written = {out / name for name in """a/relabeled.csv b/relabeled.csv sorted/relabeled.csv e/relabeled.csv
               f/relabeled.csv awkward-out/relabeled.csv tree/subgroups.csv tree-euclid/subgroups.csv sweep/sweep.csv
               sweep3/sweep.csv audit/report.csv roc-scored/report.csv roc-scored/roc.csv""".split()}
    found = {path for path in out.rglob("*.csv") if path.parent not in (out, out / "data")}
    check(found == written, f"the commands wrote {sorted(map(str, found ^ written))} unexpectedly or not at all")
    problems += check_line_ends(sorted(found))

    # finite numbers whose midpoint sums and range pass the largest float bin without numpy's warnings
    extremes = ["-1.7e308", "1e308", "1.7976931348623157e308"]
    _write_rows(out / "extreme.csv", [cells + [extremes[i % 3] if i else "extreme"]
                                      for i, (_, cells) in enumerate(_records(german))])
    for binning in ("equal-frequency", "equal-width"):
        err = build(f"tree-extreme-{binning}", out / "extreme.csv", "--binning", binning)
        check("encountered" not in err, f"build printed numpy's warnings:\n{err}")
        plan_leaves(f"tree-extreme-{binning}", out / "extreme.csv")

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--fairtree", default="fairtree", help="the command under test, split as a shell splits it")
    ap.add_argument("--out", required=True, help="the directory for the scenario's files")
    args = ap.parse_args(argv)
    out, command = Path(args.out).resolve(), shlex.split(args.fairtree)
    out.mkdir(parents=True, exist_ok=True)

    def run(argv, env=None):
        done = subprocess.run(command + argv, env={**os.environ, **(env or {})}, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, encoding="utf-8", errors="replace")
        return done.returncode, done.stderr

    problems = scenario(run, out)
    print("".join(f"FAIL: {problem}\n" for problem in problems) + f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
