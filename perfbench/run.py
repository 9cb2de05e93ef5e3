#!/usr/bin/env python3
"""fairtree benchmark: one workload, closed loop, one client, one command at a time.

Usage:
  python3 perfbench/run.py --workload relabel-adult [--seed 42] [--seconds N] [--trace 0|1]

Run from the root of a checkout; the program under test is ``src/fairtree``.
Set-up generates the workload's stand-in CSVs from ``--seed`` (one for
relabel-adult, SWEEP_INPUTS for sweep-german; relabel-adult also grows its
trees with ``fairtree build``); it is repeated at least three times and for
at least three seconds, and its median reported as ``setup_s``. Then passes
over the workload's commands repeat, taking turns over the inputs, until
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) are used up. Every
command runs in a fresh child process, so start-up and peak RSS are what a
user pays, and every output is checked (see checks.py). The digests of the
run's outputs are written to
``.perfbench-out/<workload>/records.json``; at seed 42 they are what
golden.json holds.

With ``--trace 0`` the last line of output holds the end-to-end metrics: per
input the median over its passes, then the mean over the inputs. With
``--trace 1`` only the first input is used, untraced and traced passes
alternate, the traced ones run each command under traced.py, and the last
line holds the per-layer metrics, including the tracing overhead. The line
before it, ``detail {...}``, holds per-command timings, the input properties,
the environment and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import CRITERIA, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-out"
#: Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed,
#: so that the median of a short set-up (sweep-german's takes 0.3 s) rests on
#: more than three samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
#: Every child is killed once the run has lasted this long, so that a run ends
#: within 180 s even when the program under test hangs.
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

FUNCTION_BUSY = (
    "data.load_csv", "data.discretize_all", "data.conform_to_schema", "data.transplant_labels",
    "data.write_csv", "data.with_positive_mask", "tree.build", "tree.evaluate_splits",
    "tree.serialize", "tree.deserialize", "tree.route", "relabel.plan", "relabel.apply",
    "eval.train_linear", "eval.kfold", "metrics.fairness_report",
)
FUNCTION_CALLS = (
    "data.with_positive_mask", "data.subset", "tree.evaluate_splits", "tree.serialize",
    "tree.route", "relabel.plan", "eval.train_linear", "metrics.fairness_report",
)
LAYERS = ("data", "divergence", "tree", "relabel", "eval", "metrics")
#: Layers whose self time is reported. No other layer's span nests inside a
#: divergence span, so its self time equals divergence.busy_s and is not
#: reported twice.
SELF_TIMED = ("data", "tree", "relabel", "eval", "metrics")


class Failure(Exception):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Input:
    """One stand-in CSV of a run, and the trees set-up grew from it."""

    index: int
    seed: int
    csv: Path
    trees: Path
    totals: tuple[int, int, int, int] = (0, 0, 0, 0)

    def key(self, op_name: str) -> str:
        """Name of an operation's outputs in records.json and golden.json."""
        return f"{op_name}@{self.index}"


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.1, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildProcessError:  # reaped by the timer's kill at the deadline
                proc.wait()
                return time.perf_counter() - t0, -9, 0.0
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def cli(self, argv: list[str], log: Path):
        return self.child([sys.executable, "-m", "fairtree.cli", *argv], log)

    def traced(self, argv: list[str], summary: Path, log: Path):
        return self.child([sys.executable, str(HERE / "traced.py"), str(summary), "--", *argv], log)


def median(values):
    return statistics.median(values) if values else 0.0


def timing(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= 10:
            tail = {"p": p, "value": ordered[n - beyond - 1]}
            break
    return {"median": median(ordered), "tail": tail, "n": n, "samples": values}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.runner = Runner(self.started + RUN_LIMIT_S)
        self.work = WORK / workload.name
        setup = self.work / "setup"
        self.inputs = [
            Input(i, workload.input_seed(seed, i), setup / f"{workload.dataset.name}-{i}.csv",
                  setup / f"trees-{i}")
            for i in range(1 if trace else workload.inputs)
        ]
        self.golden = None
        if seed == checks.GOLDEN_SEED and checks.GOLDEN_PATH.exists():
            golden = json.loads(checks.GOLDEN_PATH.read_text(encoding="utf-8"))
            self.golden = golden.get(workload.name)
        self.records: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.node_counts: dict[tuple[int, str], int] = {}

    # -- set-up ----------------------------------------------------------------

    def setup_once(self, tree_walls: dict[str, list[float]]) -> float:
        setup = self.work / "setup"
        if setup.exists():
            shutil.rmtree(setup)
        setup.mkdir(parents=True)
        ds = self.wl.dataset
        t0 = time.perf_counter()
        for inp in self.inputs:
            log = setup / f"standin-{inp.index}.log"
            _, code, _ = self.runner.child(
                [sys.executable, str(HERE / "standin.py"), "write", ds.name, str(ds.rows),
                 str(inp.seed), str(inp.csv)],
                log,
            )
            if code != 0:
                raise Failure(f"stand-in generation exited {code}; see {log}")
            if self.wl.setup_trees:
                for criterion in CRITERIA:
                    op = Op(f"setup_{criterion}", "build", criterion)
                    argv = op.argv(ds, str(inp.csv), str(inp.trees), str(inp.trees / criterion))
                    wall, code, _ = self.runner.cli(argv, setup / f"build-{criterion}.log")
                    if code != 0:
                        raise Failure(f"`fairtree build` for set-up exited {code}")
                    tree_walls.setdefault(f"setup_build_{criterion}_s", []).append(wall)
        return time.perf_counter() - t0

    def setup(self) -> tuple[list[float], dict[str, list[float]]]:
        """Set-up times, and the wall times of the tree builds inside them."""
        tree_walls: dict[str, list[float]] = {}
        times = [self.setup_once(tree_walls)]
        while not self.trace and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S):
            times.append(self.setup_once(tree_walls))
        for inp in self.inputs:
            inp.totals = checks.group_counts(inp.csv, self.wl.dataset)
            if self.wl.setup_trees:
                for criterion in CRITERIA:
                    self.check(Op(f"setup_{criterion}", "build", criterion), inp, inp.trees / criterion, 0)
        return times, tree_walls

    # -- checks ------------------------------------------------------------------

    def check(self, op: Op, inp: Input, out: Path, code: int) -> None:
        self.attempted += 1
        key = inp.key(op.name)
        problems = [f"exited {code}"] if code != 0 else []
        if not problems:
            try:
                if op.kind == "build":
                    found, nodes = checks.check_tree(out, inp.totals)
                    problems += found
                    self.node_counts[(inp.index, op.criterion)] = nodes
                elif op.kind == "relabel":
                    problems += checks.check_relabel(inp.csv, out, self.wl.dataset)
                else:
                    problems += checks.check_sweep(out)
                record = checks.artifact_record(op.kind, out)
                self.records.setdefault(key, record)
                if self.golden is not None:
                    if key in self.golden:
                        problems += checks.check_golden(record, self.golden[key])
                    else:
                        problems.append(f"no golden record for {key}")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems[:5]]

    # -- passes --------------------------------------------------------------------

    def one_pass(self, inp: Input, traced: bool) -> dict:
        ds = self.wl.dataset
        result = {"input": inp.index, "wall": 0.0, "rss": 0.0, "ops": {}, "summaries": []}
        for op in self.wl.ops:
            out = self.work / ("traced" if traced else "run") / op.name
            if out.exists():
                shutil.rmtree(out)
            argv = op.argv(ds, str(inp.csv), str(inp.trees), str(out))
            log = self.work / f"{op.name}.log"
            if traced:
                summary_path = self.work / f"{op.name}.trace.json"
                t_spawn = time.perf_counter()
                wall, code, rss = self.runner.traced(argv, summary_path, log)
                if code == 0:
                    summary = json.loads(summary_path.read_text(encoding="utf-8"))
                    summary["wall"] = wall
                    summary["import_s"] = summary["imported_at"] - t_spawn
                    summary["bytes_written"] = sum(
                        p.stat().st_size for p in out.rglob("*") if p.is_file()
                    )
                    result["summaries"].append(summary)
            else:
                wall, code, rss = self.runner.cli(argv, log)
            self.check(op, inp, out, code)
            result["wall"] += wall
            result["rss"] = max(result["rss"], rss)
            result["ops"][op.name] = wall
        return result

    def measure(self) -> tuple[list[dict], list[dict]]:
        """Passes until the time is used up and every input has had one."""
        plain, traced = [], []
        end = time.perf_counter() + self.seconds
        while True:
            inp = self.inputs[len(plain) % len(self.inputs)]
            plain.append(self.one_pass(inp, False))
            if self.trace:
                traced.append(self.one_pass(inp, True))
            if self.failed or (time.perf_counter() >= end and len(plain) >= len(self.inputs)):
                return plain, traced

    # -- metrics --------------------------------------------------------------------

    def end_to_end(self, setup_times: list[float], passes: list[dict]) -> dict:
        """Per input the median over its passes, then the mean over the inputs."""
        walls, rates = [], []
        for inp in self.inputs:
            own = [p["wall"] for p in passes if p["input"] == inp.index]
            walls.append(median(own))
            rates.append(median([sum(inp.totals) * len(self.wl.ops) / w for w in own]))
        return {
            "setup_s": (median(setup_times), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "rows_per_s": (statistics.fmean(rates), "rows/s"),
            "peak_rss_mb": (median([p["rss"] for p in passes]), "MB"),
        }

    @staticmethod
    def layer_metrics(p: dict) -> dict:
        """Per-layer metrics of one traced pass: sums over its commands."""

        def total(field, key):
            return sum(s[field].get(key, 0) for s in p["summaries"])

        def count(key):
            return sum(s["counters"].get(key, 0) for s in p["summaries"])

        m = {}
        for key in FUNCTION_BUSY:
            m[f"{key}.busy_s"] = (total("busy_s", key), "s")
        for key in FUNCTION_CALLS:
            m[f"{key}.calls"] = (total("calls", key), "count")
        layer_self = {layer: total("layer_self_s", layer) for layer in LAYERS}
        for layer in SELF_TIMED:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        candidates = total("calls", "divergence.divergence_gain") + total("calls", "divergence.fallback_gain")
        epoch_rows = count("eval.epoch_rows")
        m.update({
            "data.tables_built": (count("data.tables_built"), "count"),
            "data.column_encodes": (count("data.column_encodes"), "count"),
            "divergence.candidates_scored": (candidates, "count"),
            "divergence.fallback_share": (ratio(total("calls", "divergence.fallback_gain"), candidates), "ratio"),
            "divergence.busy_s": (total("layer_busy_s", "divergence"), "s"),
            "tree.nodes_grown": (count("tree.nodes_grown"), "count"),
            "tree.split_yield": (ratio(count("tree.nodes_split"), total("calls", "tree.evaluate_splits")), "ratio"),
            "tree.serialize_per_tree": (ratio(total("calls", "tree.serialize"), count("tree.distinct_serialized")), "ratio"),
            "tree.route.rows": (count("tree.route.rows"), "count"),
            "relabel.flips": (count("relabel.flips"), "count"),
            "relabel.leaves_repaired": (count("relabel.leaves_repaired"), "count"),
            "relabel.routes_per_table": (ratio(total("calls", "tree.route"), count("relabel.tables_routed")), "ratio"),
            "eval.epoch_rows": (epoch_rows, "count"),
            "eval.fit_rows_per_s": (ratio(epoch_rows, total("busy_s", "eval.train_linear")), "rows/s"),
            "cli.import_s": (sum(s["import_s"] for s in p["summaries"]), "s"),
            "cli.self_s": (p["wall"] - sum(layer_self.values()), "s"),
            "cli.bytes_written": (sum(s["bytes_written"] for s in p["summaries"]), "bytes"),
        })
        return m

    def per_layer(self, plain: list[dict], traced: list[dict]) -> dict:
        per_pass = [self.layer_metrics(p) for p in traced]
        metrics = {}
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            if unit in ("count", "bytes", "ratio") and len(set(values)) > 1:
                self.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (median(values) if unit in ("s", "rows/s") else values[0], unit)
        traced_wall = median([p["wall"] for p in traced])
        plain_wall = median([p["wall"] for p in plain])
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        return metrics

    # -- run ---------------------------------------------------------------------------

    def describe(self) -> dict:
        argv = [sys.executable, str(HERE / "standin.py"), "describe", self.wl.dataset.name]
        if not self.wl.setup_trees:
            argv.append("--grow-trees")
        argv += [str(inp.csv) for inp in self.inputs]
        log = self.work / "describe.log"
        _, code, _ = self.runner.child(argv, log)
        if code != 0:
            raise Failure(f"describing the inputs failed; see {log}")
        return json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])

    def run(self) -> int:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            loadavg = [float(x) for x in fh.read().split()[:3]]
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        setup_times, tree_walls = self.setup()
        plain, traced = self.measure()
        described = self.describe()
        props = [dict(seed=inp.seed, **found) for inp, found in zip(self.inputs, described["properties"])]
        for (index, criterion), nodes in self.node_counts.items():
            props[index].setdefault(f"nodes_{criterion}", nodes)
        (self.work / "records.json").write_text(
            json.dumps(self.records, indent=1, sort_keys=True) + "\n", encoding="utf-8")

        samples = {op.name: [p["ops"][op.name] for p in plain] for op in self.wl.ops}
        samples["wall_s"] = [p["wall"] for p in plain]
        samples["setup_s"] = setup_times
        samples.update(tree_walls)
        env = described["environment"]
        env["loadavg_start"] = loadavg
        detail = {
            "workload": self.wl.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "passes": len(plain),
            "passes_per_input": [sum(p["input"] == inp.index for p in plain) for inp in self.inputs],
            "timings_s": {name: timing(v) for name, v in samples.items()},
            "failed_ratio": ratio(self.failed, self.attempted),
            "properties": props, "environment": env, "problems": self.problems[:20],
        }
        metrics = self.per_layer(plain, traced) if self.trace else self.end_to_end(setup_times, plain)
        correct = not self.problems and self.failed == 0
        for name, (value, unit) in metrics.items():
            print(f"{self.wl.name:14} {name:34} {value:>16.6g} {unit}")
        for problem in self.problems[:20]:
            print(f"CHECK FAILED: {problem}")
        print("detail " + json.dumps(detail))
        print(json.dumps({
            "correct": correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fairtree" / "cli.py").is_file():
        print(f"error: no fairtree sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    bench = Bench(WORKLOADS[args.workload], args.seed, max(1, args.seconds), bool(args.trace))
    try:
        return bench.run()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
