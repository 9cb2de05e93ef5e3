"""Fuzzed tree and plan documents: a parser must either return a document
whose re-serialization parses again or raise DataError, never anything else.

Each example takes a valid german kl ``tree.json`` or its sigma-0
``plan.json`` and applies one mutation: drop a key (or a list element),
replace a value by one of another JSON type, or truncate the text.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtree.errors import DataError
from fairtree.relabel import census, plan, plan_from_json, plan_to_json
from fairtree.tree import build, deserialize, serialize

#: One value of each JSON type; ``True`` and ``1`` differ in type, as in JSON.
JSON_VALUES = (None, True, 0, 7, -1, 1.5, "", "x", [], {}, [1], {"a": 1})

PARSERS = {
    "tree": (deserialize, serialize),
    "plan": (plan_from_json, plan_to_json),
}


@pytest.fixture(scope="module")
def documents(german):
    tree = build(german, "kl")
    texts = {"tree": serialize(tree), "plan": plan_to_json(plan(census(tree, german), 0.0, 42))}
    return {kind: (text, list(_paths(json.loads(text)))) for kind, text in texts.items()}


def _paths(value, prefix=()):
    """Every key path into a JSON value, the root's ``()`` first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutated(text: str, paths: list, data) -> str:
    mutation = data.draw(st.sampled_from(["drop", "retype", "truncate"]))
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = data.draw(st.sampled_from(paths[1:] if mutation == "drop" else paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    if mutation == "drop":
        del parent[path[-1]]
        return json.dumps(doc)
    new = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    if not path:
        return json.dumps(new)
    parent[path[-1]] = new
    return json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(data=st.data())
def test_mutated_document_round_trips_or_raises_data_error(documents, kind, data):
    parse, write = PARSERS[kind]
    text, paths = documents[kind]
    try:
        parsed = parse(_mutated(text, paths, data))
    except DataError:
        return
    parse(write(parsed))
