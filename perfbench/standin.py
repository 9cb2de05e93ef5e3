"""Write a seeded stand-in CSV, or describe one together with the environment.

Usage:
  python3 standin.py write DATASET ROWS SEED OUT.csv
  python3 standin.py describe DATASET [--grow-trees] CSV...

``write`` generates the stand-in with ``fairtree.datasets`` and keeps a seeded
sample of ROWS rows (all rows when ROWS is 0 or not smaller). ``describe``
prints one JSON object with, per CSV, the input properties a workload's
numbers depend on, and the Python, numpy and OpenBLAS versions, the BLAS
thread count and the CPU count; with ``--grow-trees`` it also grows a tree per
criterion to report node counts.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import warnings

import numpy as np

from fairtree.data import LabelSpec, SensitiveSpec, discretize_all, load_csv, write_csv
from fairtree.datasets import GENERATORS
from fairtree.tree import CRITERIA, build, stats
from workloads import DATASETS


def write(dataset: str, rows: int, seed: int, out: str) -> None:
    table = GENERATORS[dataset](seed=seed)
    if 0 < rows < table.n_rows:
        keep = np.random.default_rng([seed, 7]).permutation(table.n_rows)[:rows]
        table = table.subset(np.sort(keep))
    write_csv(table, out)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def describe(dataset: str, path: str, grow_trees: bool) -> dict:
    ds = DATASETS[dataset]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        raw = load_csv(path, LabelSpec(ds.label, ds.positive, ds.negative),
                       SensitiveSpec(ds.sensitive, ds.favored, ds.deprived))
        table = discretize_all(raw)
    schema = table.schema
    one_hot_columns = [a.name for a in schema.attributes if a.name != schema.label.column]
    codes = np.stack([table.codes(name) for name in one_hot_columns], axis=1)
    distinct = np.unique(codes, axis=0).shape[0]
    props = {
        "rows": table.n_rows,
        "columns": len(schema.attributes),
        "features": len(schema.feature_names),
        "numeric_columns": sum(1 for a in raw.schema.attributes if a.kind == "numeric"),
        "distinct_one_hot_rows": int(distinct),
        "distinct_one_hot_share": distinct / table.n_rows,
        "csv_bytes": os.path.getsize(path),
    }
    if grow_trees:
        for criterion in CRITERIA:
            props[f"nodes_{criterion}"] = stats(build(table, criterion)).node_count
    return props


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[0] == "write":
        write(argv[1], int(argv[2]), int(argv[3]), argv[4])
        return 0
    if len(argv) >= 3 and argv[0] == "describe":
        grow = argv[2] == "--grow-trees"
        paths = argv[3:] if grow else argv[2:]
        doc = {"properties": [describe(argv[1], path, grow) for path in paths],
               "environment": environment()}
        print(json.dumps(doc))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
