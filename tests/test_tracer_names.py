"""The names ``perfbench/traced.py`` wraps and reads must exist in the package.

The tracer looks its functions up by name when ``run.py --trace`` starts, so a
renamed or deleted public function would break tracing without failing any
other test. The module is imported from its file and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fairtree import tree

_spec = importlib.util.spec_from_file_location(
    "perfbench_traced", Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
)
traced = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traced)
WRAPPED = traced.WRAPPED


@pytest.mark.parametrize("layer, where, attr", WRAPPED, ids=[f"{w}.{a}" for _, w, a in WRAPPED])
def test_every_wrapped_name_resolves_to_a_callable(layer, where, attr):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None))


def test_names_the_summary_reads_exist(german):
    # ``Tracer.summary`` walks ``FairTree.root`` through ``Internal.children``
    root = tree.build(german, "kl").root
    assert isinstance(root, tree.Internal) and root.children
