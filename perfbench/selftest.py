#!/usr/bin/env python3
"""Check that the traced run's work counters repeat exactly across two runs.

Usage:
  python3 perfbench/selftest.py [--seed 42] [--workload NAME ...]

Runs the traced run of each workload twice with the same seed and compares
every per-layer metric that counts work (unit count, ratio or bytes). Exits 1
when any of them differs or a run fails.
"""

from __future__ import annotations

import argparse
import sys

from report import invoke, load_benchmark

COUNTED_UNITS = ("count", "ratio", "bytes")


def main() -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    counted = [m["name"] for m in benchmark["per_layer"] if m["unit"] in COUNTED_UNITS]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    ok = True
    for name in args.workload or names:
        runs = [invoke(name, args.seed, 1, 1) for _ in range(2)]
        if any(result is None or not result["correct"] for result, _, _ in runs):
            print(f"{name}: a traced run failed")
            ok = False
            continue
        first, second = ({k: result["metrics"][k]["value"] for k in counted} for result, _, _ in runs)
        differing = [k for k in counted if first[k] != second[k]]
        for k in counted:
            mark = "DIFFERS" if k in differing else "same"
            print(f"{name:14} {k:34} {first[k]:>14} {second[k]:>14} {mark}")
        ok &= not differing
    print("counters repeat exactly" if ok else "COUNTERS DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
