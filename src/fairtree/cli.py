"""Command-line surface binding the pipeline: build, relabel, audit, report, sweep.

Each subcommand is one stage of the preprocessing pipeline, so every arrow in
the flow (data -> tree -> plan -> relabeled data -> metrics) is a separate,
auditable invocation. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import traceback
import warnings
from dataclasses import asdict
from pathlib import Path

from . import tree as tr
from .data import (
    LabelSpec,
    SensitiveSpec,
    conform_to_schema,
    discretize_all,
    load_csv,
    transplant_labels,
    write_csv,
    write_rows,
    write_schema_sidecar,
)
from .errors import ConfigError, DataError, FairtreeError, UndefinedMetricError
from .metrics import FairnessReport, fairness_report, roc_csv_rows, roc_points

OUT_DIR_ENV = "FAIRTREE_OUT"


@contextlib.contextmanager
def _locked_out_dir(out_dir: Path):
    """Guard an output directory against concurrent writers with a lockfile
    naming its owner as ``pid@host``. A stale lock is reported, never taken over."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".fairtree.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            owner = lock.read_text(encoding="utf-8", errors="replace").strip()
        except OSError:
            owner = ""
        raise ConfigError(
            f"output directory {out_dir} is locked by {owner or 'another run'} "
            f"(remove {lock} if that run is gone)"
        ) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}@{platform.node()}\n")
        yield out_dir
    finally:
        lock.unlink(missing_ok=True)


@contextlib.contextmanager
def _replacing(*paths: Path):
    """Yield a temporary path beside each of ``paths`` and move them onto
    ``paths`` only once the block has written all of them, so a failed run
    leaves the previous outputs, never a partial file or a mixed set."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _read_document(path: str) -> str:
    """A ``tree.json`` or ``plan.json`` as text, decoded as it is read: freeing a
    large copy of its bytes before the parse would raise glibc's mmap threshold
    under the parse's allocations. Bytes that are not UTF-8 are a data error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return "".join(iter(lambda: fh.read(1 << 16), ""))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_tree(path: str) -> tr.FairTree:
    """The tree of a ``tree.json``, handed to ``deserialize`` as text, the one
    copy held while it is parsed (strict UTF-8 text encodes to the bytes read,
    so the digest is theirs); a fault is a data error naming the file."""
    text = _read_document(path)
    try:
        return tr.deserialize(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get(OUT_DIR_ENV, ".")).resolve()


def _add_spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument("--label", required=True, help="label column name")
    sub.add_argument("--positive", required=True, help="label value treated as positive")
    sub.add_argument("--negative", help="label value treated as negative (inferred when binary)")
    sub.add_argument("--sensitive", required=True, help="sensitive attribute column name")
    sub.add_argument("--favored", required=True, help="sensitive value of the favored group")
    sub.add_argument("--deprived", help="sensitive value of the deprived group (inferred when binary)")
    sub.add_argument("--numeric", action="append", default=[], metavar="COL",
                     help="force a column to be treated as numeric (repeatable)")
    sub.add_argument("--categorical", action="append", default=[], metavar="COL",
                     help="force a column to be treated as categorical (repeatable)")


def _add_binning_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bins", type=int, default=4, help="bins per numeric column (default 4)")
    sub.add_argument("--binning", choices=["equal-frequency", "equal-width"],
                     default="equal-frequency", help="discretization strategy")


def _load_table(args):
    return load_csv(
        Path(args.data).resolve(),
        LabelSpec(args.label, args.positive, args.negative),
        SensitiveSpec(args.sensitive, args.favored, args.deprived),
        numeric_columns=tuple(args.numeric),
        categorical_columns=tuple(args.categorical),
    )


def _finite_float(text: str) -> float:
    """The argparse type of every float option: NaN and infinities exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


#: The most values a sweep grid may hold (0:2:0.0002 holds exactly this many).
MAX_GRID_VALUES = 10_001


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected start:stop:step") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"bad grid spec {spec!r}; start, stop and step must be finite")
    if not 0.0 <= start <= stop <= 2.0 or step <= 0:
        raise ConfigError(f"bad grid spec {spec!r}; need 0 <= start <= stop <= 2 and step > 0")
    # the grid is the i >= 0 with round(start + i * step, 12) <= stop + 1e-9; every
    # i <= (stop - start) / step is one, and rounding may admit one or two more
    n = math.floor(min((stop - start) / step, MAX_GRID_VALUES)) + 1
    while n <= MAX_GRID_VALUES and round(start + n * step, 12) <= stop + 1e-9:
        n += 1
    if n > MAX_GRID_VALUES:
        raise ConfigError(f"bad grid spec {spec!r}; a grid holds at most {MAX_GRID_VALUES} values")
    return [min(round(start + i * step, 12), stop) for i in range(n)]


# -- subcommands ---------------------------------------------------------------


def _cmd_build(args) -> int:
    table = discretize_all(_load_table(args), strategy=args.binning, bin_count=args.bins)
    fair_tree = tr.build(table, args.criterion, tr.BuildConfig(min_rows=args.min_rows))
    st = tr.stats(fair_tree)
    with _locked_out_dir(_out_dir(args)) as out:
        with _replacing(out / "tree.json", out / "stats.json", out / "tree.schema.txt") as tmps:
            # the exact bytes that ``deserialize`` digests when the tree is read back
            tmps[0].write_bytes(tr.serialize(fair_tree).encode("utf-8"))
            tmps[1].write_text(json.dumps(asdict(st), indent=1) + "\n", encoding="utf-8")
            write_schema_sidecar(table, tmps[2])
    print(f"tree: {out / 'tree.json'}")
    print(f"nodes={st.node_count} sparsity={st.sparsity} depth={st.depth}")
    return 0


def _cmd_relabel(args) -> int:
    from . import relabel as rl

    fair_tree = _load_tree(args.tree)
    schema = fair_tree.schema
    if args.sigma is not None and not 0.0 <= args.sigma <= 2.0:
        raise ConfigError(f"sigma must lie in [0, 2], got {args.sigma}")
    if args.from_plan:
        plan_ = rl.plan_from_json(_read_document(args.from_plan))
        # a plan is applied as it was drawn: an option that asks for another draw is refused
        for option, given, planned in (("--sigma", args.sigma, plan_.sigma), ("--seed", args.seed, plan_.seed)):
            if given is not None and given != planned:
                raise ConfigError(f"{option} {given} conflicts with the plan's {option[2:]} {planned}")
    raw = load_csv(Path(args.data).resolve(), schema.label, schema.sensitive,
                   missing_tokens=schema.missing_tokens)
    routing = conform_to_schema(raw, schema)
    if args.from_plan:
        # one gate, with or without --plan-only, before any output is written
        rl.check_plan(plan_, fair_tree, routing)
    else:
        plan_ = rl.plan(rl.census(fair_tree, routing), 0.0 if args.sigma is None else args.sigma,
                        42 if args.seed is None else args.seed)
    relabeled = None if args.plan_only else rl.apply(plan_, routing)
    with _locked_out_dir(_out_dir(args)) as out:
        names = ["plan.json"] if relabeled is None else ["plan.json", "relabeled.csv", "relabeled.schema.txt"]
        with _replacing(*(out / name for name in names)) as tmps:
            tmps[0].write_text(rl.plan_to_json(plan_), encoding="utf-8")
            if relabeled is not None:
                write_csv(transplant_labels(raw, relabeled), tmps[1])
                write_schema_sidecar(relabeled, tmps[2])
        if relabeled is not None:
            print(f"relabeled data: {out / 'relabeled.csv'}")
    flips = sum(a.count for a in plan_.actions)
    print(f"plan: {out / 'plan.json'} (leaves={len(plan_.actions)} flips={flips})")
    return 0


def _cmd_audit(args) -> int:
    # every input is checked before the report is printed
    if args.roc and not args.scores:
        raise ConfigError("--roc requires --scores naming a numeric score column")
    if args.scores is not None and not args.roc:
        raise ConfigError("--scores is read only with --roc")
    table = _load_table(args)
    for option, column in (("predictions", args.predictions), ("scores", args.scores)):
        if column is not None and column not in table.schema.column_names:
            raise ConfigError(f"{option} column {column!r} not found in {args.data}")
    pred_values = table.column(args.predictions)
    lbl = table.schema.label
    bad = sorted(set(pred_values) - {lbl.positive, lbl.negative})
    if bad:
        raise DataError(f"predictions column contains non-label values {bad}")
    preds = pred_values == lbl.positive
    report = fairness_report(table.positive_mask, preds, table.favored_mask)
    if args.roc:
        scores = table.floats(args.scores)
        if not all(map(math.isfinite, scores.tolist())):
            raise DataError(
                f"scores column {args.scores!r} holds a missing or non-finite score; --roc needs finite scores"
            )
        series = roc_points(scores, table.positive_mask, table.favored_mask)
    print(report.to_text())
    out = _out_dir(args)
    if args.out or args.roc:
        names = ["report.csv", "roc.csv"] if args.roc else ["report.csv"]
        with _locked_out_dir(out), _replacing(*(out / name for name in names)) as tmps:
            write_rows(tmps[0], [FairnessReport.csv_header(), report.csv_row()])
            if args.roc:
                write_rows(tmps[1], roc_csv_rows(series))
        if args.roc:
            print(f"roc: {out / 'roc.csv'}")
    return 0


def _cmd_report(args) -> int:
    fair_tree = _load_tree(args.tree)
    subgroups = tr.extract_subgroups(fair_tree, args.min_disc, args.top_k)
    print(f"{'No.':>4}  {'disc':>6}  {'fav+:fav- / dep+:dep-':>22}  conditions")
    for i, s in enumerate(subgroups, start=1):
        print(f"{i:>4}  {s.disc:>6.3f}  {s.tally():>22}  {s.conditions()}")
    if not subgroups:
        print("(no subgroups at or above the threshold)")
    if args.out:
        header = ["leaf_id", "disc", "fav_pos", "fav_neg", "dep_pos", "dep_neg", "conditions"]
        with _replacing(Path(args.out)) as (tmp,):
            write_rows(tmp, [header] + [[s.leaf_id, repr(s.disc), *s.counts.as_tuple(), s.conditions()]
                                        for s in subgroups])
    return 0


def _cmd_sweep(args) -> int:
    from . import eval as ev

    grid = _parse_grid(args.grid)
    table = discretize_all(_load_table(args), strategy=args.binning, bin_count=args.bins)
    cfg = ev.TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate, seed=args.seed)
    result = ev.sweep(table, args.criterion, grid, args.seed, cfg, folds=args.folds)
    with _locked_out_dir(_out_dir(args)) as out:
        with _replacing(out / "sweep.csv", out / "manifest.json") as tmps:
            result.to_csv(tmps[0])
            tmps[1].write_text(result.manifest_json(), encoding="utf-8")
    base = result.baseline()
    best = min(result.variant_rows("raw"), key=lambda r: abs(r.dp_mean))
    print(f"baseline: dp={base.dp_mean:+.4f} aod={base.aod_mean:+.4f} "
          f"ba={base.ba_mean:.4f} acc={base.acc_mean:.4f}")
    print(f"best |dp| at sigma={best.sigma}: dp={best.dp_mean:+.4f} aod={best.aod_mean:+.4f} "
          f"ba={best.ba_mean:.4f} acc={best.acc_mean:.4f}")
    print(f"sweep: {out / 'sweep.csv'}")
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairtree",
        description="Locate discriminatory subgroups with a divergence tree and relabel them.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="grow a tree and write its document plus stats")
    _add_spec_args(b)
    _add_binning_args(b)
    b.add_argument("--criterion", choices=list(tr.CRITERIA), default="kl")
    b.add_argument("--min-rows", type=int, default=1, help="row floor below which a node is a leaf")
    b.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    b.set_defaults(func=_cmd_build)

    r = subs.add_parser("relabel", help="plan and apply promote/demote relabeling")
    r.add_argument("--tree", required=True, help="tree document from `build`")
    r.add_argument("--data", required=True, help="input CSV path")
    r.add_argument("--sigma", type=_finite_float,
                   help="discrimination threshold in [0, 2] (default 0, or the --from-plan plan's)")
    r.add_argument("--seed", type=int, help="row selection seed (default 42, or the --from-plan plan's)")
    r.add_argument("--plan-only", action="store_true", help="emit the plan without touching data")
    r.add_argument("--from-plan", help="apply a previously emitted plan document")
    r.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    r.set_defaults(func=_cmd_relabel)

    a = subs.add_parser("audit", help="fairness report for a predictions column")
    _add_spec_args(a)
    a.add_argument("--predictions", required=True, help="column holding predicted labels")
    a.add_argument("--scores", help="column holding real-valued scores (for --roc)")
    a.add_argument("--roc", action="store_true", help="also emit per-group ROC points")
    a.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    a.set_defaults(func=_cmd_audit)

    p = subs.add_parser("report", help="list discriminatory subgroups from a tree")
    p.add_argument("--tree", required=True, help="tree document from `build`")
    p.add_argument("--min-disc", type=_finite_float, default=0.0, help="minimum discrimination")
    p.add_argument("--top-k", type=int, help="keep only the top K subgroups")
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=_cmd_report)

    s = subs.add_parser("sweep", help="cross-validated threshold sweep with the built-in classifier")
    _add_spec_args(s)
    _add_binning_args(s)
    s.add_argument("--criterion", choices=list(tr.CRITERIA), default="kl")
    s.add_argument("--grid", default="0:2:0.1", help="sigma grid as start:stop:step")
    s.add_argument("--folds", type=int, default=10)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--epochs", type=int, default=400)
    s.add_argument("--learning-rate", type=_finite_float, default=0.1)
    s.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    s.set_defaults(func=_cmd_sweep)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, UndefinedMetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except FairtreeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
