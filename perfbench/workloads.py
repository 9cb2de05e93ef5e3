"""The benchmark's datasets and workloads: what each runs and why.

Every operation is a ``fairtree`` CLI command with the argv a user would type.
The adult stand-in is sampled down to ADULT_ROWS rows and the german sweep
uses SWEEP_FOLDS folds, so that one benchmark run holds ten or more passes of
every workload (at full size, growing both adult trees takes 31 s and one
sweep 24 s on a 2-core machine; the 2-fold sweep takes 3-4 s). The sigma grid
keeps the 21 values of the default, so each sweep tree is still planned 42
times.

How much work a german sweep does depends on the data: its kl tree has 324 to
439 nodes over seeds 1-20, and the sweep's time follows that size. So
sweep-german generates SWEEP_INPUTS stand-ins from one seed and its passes
take turns over them; its time is the mean over those inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

ADULT_ROWS = 8000
SWEEP_FOLDS = 2
SWEEP_GRID = "0:2:0.1"
SWEEP_GRID_LEN = 21
SWEEP_INPUTS = 3
CRITERIA = ("kl", "euclid")


@dataclass(frozen=True)
class Dataset:
    name: str
    rows: int  # rows kept from the stand-in; 0 keeps all of them
    label: str
    positive: str
    negative: str
    sensitive: str
    favored: str
    deprived: str

    def spec_args(self, csv_path: str) -> list[str]:
        return ["--data", csv_path, "--label", self.label, "--positive", self.positive,
                "--sensitive", self.sensitive, "--favored", self.favored]


DATASETS = {
    "adult": Dataset("adult", ADULT_ROWS, "income", ">50K", "<=50K", "gender", "male", "female"),
    "german": Dataset("german", 0, "credit_risk", "good", "bad", "age", ">25", "<=25"),
}


@dataclass(frozen=True)
class Op:
    """One timed CLI command of a pass: its metric name, kind and criterion."""

    name: str
    kind: str  # "build" | "relabel" | "sweep"
    criterion: str

    def argv(self, dataset: Dataset, csv_path: str, trees_dir: str, out_dir: str) -> list[str]:
        if self.kind == "build":
            return ["build", *dataset.spec_args(csv_path), "--criterion", self.criterion,
                    "--out", out_dir]
        if self.kind == "relabel":
            return ["relabel", "--tree", f"{trees_dir}/{self.criterion}/tree.json",
                    "--data", csv_path, "--sigma", "0", "--out", out_dir]
        return ["sweep", *dataset.spec_args(csv_path), "--criterion", self.criterion,
                "--grid", SWEEP_GRID, "--folds", str(SWEEP_FOLDS), "--out", out_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Dataset
    ops: tuple[Op, ...]
    setup_trees: bool  # set-up grows one tree per criterion with `fairtree build`
    inputs: int = 1  # stand-ins generated from one seed; passes take turns over them

    def input_seed(self, seed: int, index: int) -> int:
        """The stand-in seed of input ``index``; with one input, the seed itself."""
        return seed * self.inputs + index


WORKLOADS = {
    "relabel-adult": Workload(
        "relabel-adult", DATASETS["adult"],
        tuple(Op(f"relabel_{c}_s", "relabel", c) for c in CRITERIA), setup_trees=True,
    ),
    "sweep-german": Workload(
        "sweep-german", DATASETS["german"], (Op("sweep_s", "sweep", "kl"),), setup_trees=False,
        inputs=SWEEP_INPUTS,
    ),
}
