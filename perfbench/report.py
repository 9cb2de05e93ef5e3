#!/usr/bin/env python3
"""Print every end-to-end metric by name and unit, for each workload.

Usage:
  python3 perfbench/report.py [--seed 42] [--seconds 10] [--workload NAME ...] [--trace]

Runs run.py once per workload (with ``--trace`` also a traced run, whose
per-layer table shows each layer's share of the traced pass and the tracing
overhead) and prints, per workload: the end-to-end metrics of BENCHMARK.json,
the per-command timings as median, tail percentile and sample count, the
failed-operation ratio, the input properties and the environment. Exits 1
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None, int]:
    """Run one benchmark run: (result, detail, exit code); None where nothing was printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    result = detail = None
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result, detail, proc.returncode


def fmt_timing(t: dict) -> str:
    tail = f"p{t['tail']['p']:g} {t['tail']['value']:.4f}" if t["tail"] else "no tail (n < 20)"
    return f"median {t['median']:.4f} s, {tail}, n={t['n']}"


def report(benchmark: dict, workload: str, seed: int, seconds: int, trace: bool) -> bool:
    ok = True
    result, detail, code = invoke(workload, seed, seconds, 0)
    print(f"== {workload} (seed {seed}, {seconds} s)")
    if result is None or detail is None:
        print(f"   run failed with exit code {code} and printed no result")
        return False
    for m in benchmark["end_to_end"]:
        value = result["metrics"].get(m["name"], {}).get("value")
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else "MISSING"
        ok &= shown != "MISSING"
        print(f"   {m['name']:24} {shown:>14} {m['unit']:8} ({m['better']} is better, bound {m['bound']})")
    for name, t in detail["timings_s"].items():
        print(f"   {name:24} {fmt_timing(t)}")
    print(f"   {'failed_ratio':24} {detail['failed_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"   properties  {json.dumps(detail['properties'])}")
    print(f"   environment {json.dumps(detail['environment'])}")
    for problem in detail["problems"]:
        print(f"   CHECK FAILED: {problem}")
    ok &= result["correct"] and result["failed"] == 0 and code == 0
    if trace:
        result, detail, code = invoke(workload, seed, seconds, 1)
        if result is None:
            print(f"   traced run failed with exit code {code}")
            return False
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        wall = metrics["trace.traced_wall_s"]
        print(f"   per layer (traced pass {wall:.4f} s, untraced {metrics['trace.untraced_wall_s']:.4f} s, "
              f"overhead {metrics['trace.overhead_s']:+.4f} s):")
        for m in benchmark["per_layer"]:
            value = metrics.get(m["name"])
            share = f"{100 * value / wall:5.1f}%" if m["unit"] == "s" and wall and value is not None else ""
            shown = "MISSING" if value is None else f"{value:.6g}"
            print(f"     {m['name']:34} {shown:>16} {m['unit']:7} {share}")
        ok &= result["correct"] and code == 0
    return ok


def main() -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", action="store_true", help="also print the per-layer table")
    args = ap.parse_args()
    ok = True
    for name in args.workload or names:
        ok &= report(benchmark, name, args.seed, args.seconds, args.trace)
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
