"""Run one ``fairtree`` CLI command with its public layer calls timed from outside.

Usage: python3 traced.py SUMMARY.json -- <fairtree argv>

The package's public functions are replaced by timing wrappers before the
command runs; nothing in the package itself changes. Every wrapped call
becomes a span (name, start, end, parent span), kept in memory and written to
``SUMMARY.spans.npz`` when the command ends. The summary JSON holds, per
function, calls and busy time (wall time inside the outermost call); per
layer, busy time (wall time inside the layer's outermost spans) and self time
(span time minus the time of nested spans); and the
deterministic work counters. Times come from ``time.perf_counter``, which on
Linux reads CLOCK_MONOTONIC, so they compare with the parent's clock.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: (layer, owner, attribute) of every wrapped callable; an owner is a module
#: or ``module:Class``. Helpers that a module imported by name are wrapped
#: where the caller looks them up too.
WRAPPED = (
    ("data", "fairtree.cli", "load_csv"),
    ("data", "fairtree.cli", "discretize_all"),
    ("data", "fairtree.cli", "conform_to_schema"),
    ("data", "fairtree.cli", "transplant_labels"),
    ("data", "fairtree.cli", "write_csv"),
    ("data", "fairtree.data:DataTable", "with_positive_mask"),
    ("data", "fairtree.data:DataTable", "subset"),
    ("divergence", "fairtree.divergence", "divergence_gain"),
    ("divergence", "fairtree.divergence", "fallback_gain"),
    ("divergence", "fairtree.divergence", "outcome_distributions"),
    ("divergence", "fairtree.divergence", "kl_normalizer"),
    ("divergence", "fairtree.divergence", "e_normalizer"),
    ("divergence", "fairtree.divergence", "gain_ratio"),
    ("tree", "fairtree.tree", "build"),
    ("tree", "fairtree.eval", "build"),
    ("tree", "fairtree.tree", "evaluate_splits"),
    ("tree", "fairtree.tree", "serialize"),
    ("tree", "fairtree.tree", "deserialize"),
    ("tree", "fairtree.tree", "route"),
    ("tree", "fairtree.relabel", "route"),
    ("relabel", "fairtree.relabel", "plan"),
    ("relabel", "fairtree.relabel", "apply"),
    ("eval", "fairtree.eval", "sweep"),
    ("eval", "fairtree.eval", "train_linear"),
    ("eval", "fairtree.eval", "kfold"),
    ("metrics", "fairtree.eval", "fairness_report"),
    ("metrics", "fairtree.cli", "fairness_report"),
)


class Tracer:
    """Span recorder and per-function/per-layer accumulator for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[list] = []  # [span index, time covered by child spans]
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.layer_depth: Counter = Counter()
        self.counters: Counter = Counter()
        # Results and inputs kept alive until exit, so that counting them adds
        # no time inside any span and object ids are never reused.
        self.trees: dict[int, object] = {}
        self.routed_tables: dict[int, object] = {}
        self.serialized_trees: dict[int, object] = {}
        self.plans: list = []

    def wrap(self, layer: str, fn, note=None):
        key = f"{layer}.{fn.__name__}"
        if key not in self.names:
            self.names.append(key)
        name_id = self.names.index(key)
        perf_counter = time.perf_counter
        stack, calls, busy, layer_self, depth = (
            self.stack, self.calls, self.busy, self.layer_self, self.depth
        )
        layer_busy, layer_depth = self.layer_busy, self.layer_depth
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            depth[key] += 1
            layer_depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[key] -= 1
                layer_depth[layer] -= 1
                elapsed = t1 - t0
                span_start[index] = t0
                span_end[index] = t1
                calls[key] += 1
                if not depth[key]:
                    busy[key] += elapsed
                if not layer_depth[layer]:
                    layer_busy[layer] += elapsed
                layer_self[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if note is not None:
                note(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- notes: cheap bookkeeping on results, counted at exit ------------------

    def _note_build(self, tree, *args, **kwargs):
        self.trees[id(tree)] = tree

    def _note_serialize(self, text, tree, *args, **kwargs):
        self.serialized_trees[id(tree)] = tree

    def _note_route(self, leaf_of, tree, table, *args, **kwargs):
        self.routed_tables[id(table)] = table
        self.counters["tree.route.rows"] += table.n_rows

    def _note_plan(self, plan, *args, **kwargs):
        self.plans.append(plan)

    def _note_train(self, model, table, config=None, *args, **kwargs):
        self.counters["eval.epoch_rows"] += model.config.epochs * table.n_rows

    def install(self) -> None:
        import importlib

        notes = {
            "build": self._note_build,
            "serialize": self._note_serialize,
            "route": self._note_route,
            "plan": self._note_plan,
            "train_linear": self._note_train,
        }
        wrappers: dict[int, object] = {}
        for layer, where, attr in WRAPPED:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(layer, fn, notes.get(attr))
            setattr(owner, attr, wrappers[id(fn)])

        from fairtree.data import DataTable

        init = DataTable.__init__
        counters = self.counters

        def counted_init(table, schema, columns):
            counters["data.tables_built"] += 1
            counters["data.column_encodes"] += sum(1 for s in schema.attributes if s.finalized)
            init(table, schema, columns)

        DataTable.__init__ = counted_init

    def summary(self) -> dict:
        from fairtree.tree import Internal

        nodes = internal = 0
        for tree in self.trees.values():
            stack = [tree.root]
            while stack:
                node = stack.pop()
                nodes += 1
                if isinstance(node, Internal):
                    internal += 1
                    stack.extend(node.children.values())
        counters = dict(self.counters)
        counters["tree.nodes_grown"] = nodes
        counters["tree.nodes_split"] = internal
        counters["tree.distinct_serialized"] = len(self.serialized_trees)
        counters["relabel.tables_routed"] = len(self.routed_tables)
        counters["relabel.flips"] = sum(a.count for p in self.plans for a in p.actions)
        counters["relabel.leaves_repaired"] = sum(len(p.actions) for p in self.plans)
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "layer_self_s": dict(self.layer_self),
            "layer_busy_s": dict(self.layer_busy),
            "counters": counters,
            "spans": len(self.span_start),
        }

    def write_spans(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced.py SUMMARY.json -- <fairtree argv>", file=sys.stderr)
        return 2
    summary_path, argv = sys.argv[1], sys.argv[3:]
    import fairtree.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    code = fairtree.cli.main(argv)
    done = time.perf_counter()
    doc = tracer.summary()
    doc.update(imported_at=imported, done_at=done, exit_code=code)
    tracer.write_spans(summary_path.removesuffix(".json") + ".spans.npz")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
