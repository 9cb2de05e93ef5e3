"""Output checks on every benchmark operation, written with the stdlib only.

Each check returns a list of problems; an empty list means the output passed.
The checks hold for any seed. At seed 42 the artifacts are also compared with
``golden.json``: tree, plan and relabeled CSV byte for byte, the sweep CSV
numerically within SWEEP_ABS_TOL, because the sweep's floating-point results
may change in their low-order bits when the classifier's arithmetic is
reordered.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import SWEEP_FOLDS, SWEEP_GRID_LEN, Dataset

GOLDEN_SEED = 42
GOLDEN_PATH = Path(__file__).with_name("golden.json")
SWEEP_ABS_TOL = 1e-9
SWEEP_HEADER = ["sigma", "variant", "dp_mean", "dp_std", "aod_mean", "aod_std",
                "ba_mean", "ba_std", "acc_mean", "acc_std", "folds"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def group_counts(csv_path: Path, ds: Dataset) -> tuple[int, int, int, int]:
    """(favored+, favored-, deprived+, deprived-) counted straight from the CSV."""
    counts = [0, 0, 0, 0]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        li, si = header.index(ds.label), header.index(ds.sensitive)
        for row in reader:
            counts[(0 if row[si] == ds.favored else 2) + (0 if row[li] == ds.positive else 1)] += 1
    return tuple(counts)


def leaf_disc(fp: int, fn: int, dp: int, dn: int) -> float:
    if fp + fn == 0 or dp + dn == 0:
        return 0.0
    f_pos, d_pos = fp / (fp + fn), dp / (dp + dn)
    return (f_pos - d_pos) + ((1.0 - d_pos) - (1.0 - f_pos))


def check_tree(out_dir: Path, totals: tuple[int, int, int, int]) -> tuple[list[str], int]:
    """Leaves partition the input rows, every disc lies in [-2, 2] and matches its counts."""
    problems = []
    doc = json.loads((out_dir / "tree.json").read_text(encoding="utf-8"))
    summed = [0, 0, 0, 0]
    nodes = 0
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        nodes += 1
        if node["kind"] == "internal":
            stack.extend(node["children"].values())
            continue
        counts = node["counts"]
        if len(counts) != 4 or any(not isinstance(c, int) or c < 0 for c in counts):
            problems.append(f"leaf {node['id']}: bad counts {counts}")
            continue
        summed = [a + b for a, b in zip(summed, counts)]
        disc = node["disc"]
        if not -2.0 <= disc <= 2.0:
            problems.append(f"leaf {node['id']}: disc {disc} outside [-2, 2]")
        if abs(disc - leaf_disc(*counts)) > 1e-9:
            problems.append(f"leaf {node['id']}: disc {disc} does not match counts {counts}")
    if tuple(summed) != tuple(totals):
        problems.append(f"leaf counts sum to {summed}, input has {list(totals)}")
    stats_path = out_dir / "stats.json"
    if stats_path.exists():
        recorded = json.loads(stats_path.read_text(encoding="utf-8"))["node_count"]
        if recorded != nodes:
            problems.append(f"stats.json node_count {recorded} != {nodes} nodes in tree.json")
    return problems, nodes


def check_relabel(input_csv: Path, out_dir: Path, ds: Dataset) -> list[str]:
    """Only legal flips, exactly the planned rows, and non-label bytes untouched."""
    problems = []
    plan = json.loads((out_dir / "plan.json").read_text(encoding="utf-8"))
    planned: dict[int, str] = {}
    for action in plan["actions"]:
        if action["action"] not in ("promote", "demote"):
            problems.append(f"leaf {action['leaf']}: unknown action {action['action']!r}")
        if action["count"] != len(action["rows"]):
            problems.append(f"leaf {action['leaf']}: count {action['count']} != listed rows")
        for r in action["rows"]:
            if r in planned:
                problems.append(f"row {r} planned twice")
            planned[r] = action["action"]
    planned_flips = sum(a["count"] for a in plan["actions"])

    src = input_csv.read_bytes().split(b"\n")
    out = (out_dir / "relabeled.csv").read_bytes().split(b"\n")
    if len(src) != len(out):
        return problems + [f"relabeled.csv has {len(out)} lines, input has {len(src)}"]
    if src[0] != out[0]:
        problems.append("relabeled.csv header differs from the input")
    header = src[0].decode("utf-8").split(",")
    li, si = header.index(ds.label), header.index(ds.sensitive)
    flips = 0
    for i, (a, b) in enumerate(zip(src[1:], out[1:])):
        if a == b:
            continue
        fa, fb = a.decode("utf-8").split(","), b.decode("utf-8").split(",")
        if b'"' in a or b'"' in b or len(fa) != len(fb) or fa[:li] + fa[li + 1:] != fb[:li] + fb[li + 1:]:
            problems.append(f"row {i}: non-label bytes changed")
            continue
        flips += 1
        favored = fa[si] == ds.favored
        if fa[li] == ds.negative and fb[li] == ds.positive and not favored:
            kind = "promote"
        elif fa[li] == ds.positive and fb[li] == ds.negative and favored:
            kind = "demote"
        else:
            problems.append(f"row {i}: illegal transition {fa[li]!r} -> {fb[li]!r}")
            continue
        if planned.get(i) != kind:
            problems.append(f"row {i}: {kind} not in plan.json")
    if flips != planned_flips:
        problems.append(f"{flips} labels flipped, plan.json counts {planned_flips}")
    return problems


def read_sweep(out_dir: Path) -> list[list[str]]:
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_sweep(out_dir: Path) -> list[str]:
    """Shape and ranges of the sweep table: one baseline row, raw/relabeled per sigma."""
    problems = []
    rows = read_sweep(out_dir)
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep.csv header is wrong"]
    body = rows[1:]
    if len(body) != 1 + 2 * SWEEP_GRID_LEN:
        problems.append(f"sweep.csv has {len(body)} rows, expected {1 + 2 * SWEEP_GRID_LEN}")
    for i, row in enumerate(body):
        variant = "baseline" if i == 0 else ("raw", "relabeled")[(i - 1) % 2]
        if row[1] != variant:
            problems.append(f"sweep row {i}: variant {row[1]!r}, expected {variant!r}")
        values = [float(v) for v in row[2:10]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"sweep row {i}: non-finite value")
            continue
        dp, dp_sd, aod, aod_sd, ba, ba_sd, acc, acc_sd = values
        if not (-1 <= dp <= 1 and -1 <= aod <= 1 and 0 <= ba <= 1 and 0 <= acc <= 1):
            problems.append(f"sweep row {i}: metric out of range {values}")
        if min(dp_sd, aod_sd, ba_sd, acc_sd) < 0:
            problems.append(f"sweep row {i}: negative standard deviation")
        if row[10] != str(SWEEP_FOLDS):
            problems.append(f"sweep row {i}: folds {row[10]!r}, expected {SWEEP_FOLDS}")
    return problems


def artifact_record(kind: str, out_dir: Path) -> dict:
    """What the golden file stores for one operation's outputs."""
    if kind == "build":
        return {"tree.json": sha256(out_dir / "tree.json")}
    if kind == "relabel":
        return {name: sha256(out_dir / name) for name in ("plan.json", "relabeled.csv")}
    return {"sweep.csv": read_sweep(out_dir)}


def check_golden(record: dict, golden: dict) -> list[str]:
    problems = []
    for name, expected in golden.items():
        got = record.get(name)
        if name != "sweep.csv":
            if got != expected:
                problems.append(f"{name} digest {got} != golden {expected}")
            continue
        if len(got) != len(expected):
            problems.append("sweep.csv row count differs from golden")
            continue
        for i, (g, e) in enumerate(zip(got, expected)):
            if i == 0:
                same = g == e
            else:
                same = g[:2] + g[10:] == e[:2] + e[10:] and all(
                    abs(float(a) - float(b)) <= SWEEP_ABS_TOL for a, b in zip(g[2:10], e[2:10])
                )
            if not same:
                problems.append(f"sweep.csv row {i} differs from golden by more than {SWEEP_ABS_TOL}")
    return problems
