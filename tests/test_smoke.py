"""The scenario of ``scripts/smoke.py``, run on ``fairtree.cli.main`` in this
process (CI runs it on the installed console script), and one tampered copy of
a good artifact per output check, which that check must report."""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import warnings

import pytest

import smoke
from fairtree.cli import main


def run_in_process(argv, env=None):
    """``main(argv)``'s exit code and all written to stderr, forked sweep workers'
    writes included. A warning that ``main`` does not show itself is shown as Python
    shows it, once per place, as under ``python -X dev``; ``env`` adds nothing here."""
    with tempfile.TemporaryFile() as log, warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: sys.stderr.write(
            warnings.formatwarning(message, category, filename, lineno, line))
        saved = os.dup(2)
        os.dup2(log.fileno(), 2)
        try:
            with open(2, "w", encoding="utf-8", errors="backslashreplace", buffering=1, closefd=False) as err, \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        log.seek(0)
        return code, log.read().decode("utf-8", "replace")


@pytest.fixture(scope="module")
def smoked(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return out, smoke.scenario(run_in_process, out)


def test_smoke_scenario_finds_no_problem(smoked):
    assert smoked[1] == []


def _redump(edit=lambda doc: None, **dumps):
    """An edit of a JSON text: its document edited in place, then written by ``json.dumps``."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, **{"indent": 1, **dumps}) + "\n"
    return apply


def _nan_disc(doc):
    node = doc["root"]
    while node["kind"] == "internal":
        node = next(iter(node["children"].values()))
    node["disc"] = float("nan")


def _csv_edit(edit):
    """An edit of a CSV text: its rows edited in place, then written as LF-ended CSV."""
    def apply(text):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        edit(rows)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    return apply


def _swap_leaf_ids(rows):
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]


def _reorder_staircase(rows):
    favored = [i for i, row in enumerate(rows) if row[0] == "favored"]
    rows[favored[1]], rows[favored[-2]] = rows[favored[-2]], rows[favored[1]]


#: mutant -> (artifact under the scenario's output, its edit, the check run on it)
MUTANTS = {
    "a non-label cell changed": ("a/relabeled.csv", lambda text: text.replace("\n", "\nx", 1),
                                 lambda out, p: smoke.check_non_label_cells(out / "data/german.csv", p, "credit_risk")),
    "a plan action dropped": ("tree/plan-only/plan.json", _redump(lambda doc: doc["actions"].pop()),
                              lambda out, p: smoke.check_plan_leaves(out / "tree/tree.json", p)),
    "a report row's leaf_id swapped": ("tree/subgroups.csv", _csv_edit(_swap_leaf_ids),
                                       lambda out, p: smoke.check_report_rows(out / "tree/tree.json", p)),
    "a CR added to a CSV": ("a/relabeled.csv", lambda text: text.replace("\n", "\r\n", 1),
                            lambda out, p: smoke.check_line_ends([p])),
    "a NaN disc": ("tree/tree.json", _redump(_nan_disc, ensure_ascii=False),
                   lambda out, p: smoke.check_json_text(p, ensure_ascii=False)),
    "a decreasing ROC point": ("roc-scored/roc.csv", _csv_edit(_reorder_staircase),
                               lambda out, p: smoke.check_roc(p)),
    "tree.json re-indented": ("tree/tree.json", _redump(indent=2, ensure_ascii=False),
                              lambda out, p: smoke.check_json_text(p, ensure_ascii=False)),
    "plan.json re-indented": ("a/plan.json", _redump(indent=2), lambda out, p: smoke.check_json_text(p)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_check_reports_a_tampered_copy(smoked, tmp_path, mutant):
    out = smoked[0]
    name, edit, check = MUTANTS[mutant]
    with open(out / name, encoding="utf-8", newline="") as fh:
        text = fh.read()
    tampered = tmp_path / os.path.basename(name)
    with open(tampered, "w", encoding="utf-8", newline="") as fh:
        fh.write(edit(text))
    assert check(out, out / name) == []
    assert check(out, tampered) != []
