"""The scenario schema interpreter against jsonschema, its reference.

`dmflow.scenario` checks documents with its own interpreter of the keywords
SCENARIO_SCHEMA uses.  jsonschema's Draft 2020-12 validator is the oracle
here: on mutated copies of the committed scenarios both must report the same
(path, message) list in the same order.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow.scenario import SCENARIO_SCHEMA, _schema_errors

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
DOCUMENTS = [yaml.safe_load(p.read_text()) for p in SCENARIOS]
ORACLE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)

# YAML keys need not be strings: 1 and null are unexpected keys too.
NAMES = ["network", "diagram", "simulation", "initial", "output", "kind",
         "capacities", "lengths", "beta", "xi", "n", "pairs", "dt", "flow",
         "horizon", "shape", "format", "directory", "a", "b", 1, None]
SCALARS = st.one_of(
    st.booleans(), st.none(),
    st.integers(-3, 30),
    st.integers(-3, 30).map(float),          # integral floats
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["dm", "dmn", "beltway", "auto", "csv", "json", "empty",
                     "ring_flow", "triangular", "x", ""]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=6),
    st.dictionaries(st.sampled_from(NAMES), SCALARS, max_size=3),
)


def oracle_errors(doc) -> list:
    errors = sorted(ORACLE.iter_errors(doc), key=lambda e: list(e.path))
    return [(tuple(e.path), e.message) for e in errors]


def interpreter_errors(doc) -> list:
    return sorted(_schema_errors(doc, SCENARIO_SCHEMA), key=lambda e: e[0])


def containers(node):
    """Every dict and list in `node`, itself included."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(list(containers(doc))))
        if isinstance(target, list):
            if target and draw(st.booleans()):
                target.pop()                  # short list
            else:
                target.append(draw(SCALARS))
            continue
        action = draw(st.sampled_from(["set", "delete", "add"]))
        if action == "add" or not target:
            target[draw(st.sampled_from(NAMES))] = draw(VALUES)
        else:
            key = draw(st.sampled_from(sorted(target, key=str)))
            if action == "set":
                target[key] = draw(VALUES)
            else:
                del target[key]
    return doc


def test_committed_scenarios_are_valid():
    for doc in DOCUMENTS:
        assert oracle_errors(doc) == interpreter_errors(doc) == []


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated_documents())
def test_errors_match_jsonschema(doc):
    assert interpreter_errors(doc) == oracle_errors(doc)


@pytest.mark.parametrize("doc,expected", [
    ({"network": {"kind": "x"}},
     [(("network", "kind"), "'x' is not one of ['dm', 'dmn', 'beltway']")]),
    ({"network": {"kind": "dm", "b": 1, "a": 2}},
     [(("network",), "Additional properties are not allowed "
                     "('a', 'b' were unexpected)")]),
    ({"network": {"kind": "dmn", "n": 20.0, "xi": True}},
     [(("network", "xi"), "True is not of type 'number'")]),
    ({"network": {"kind": "dm", "beta": True, "capacities": "1"}},
     [(("network", "beta"), "True is not of type 'number'"),
      (("network", "capacities"), "'1' is not of type 'array'")]),
    ({"network": {"kind": "dm"}, "simulation": {"dt": -1}},
     [(("simulation", "dt"),
       "-1 is not valid under any of the given schemas")]),
], ids=["enum", "additional", "bool-and-integral-float", "type-only",
        "any-of"])
def test_draft_2020_12_semantics(doc, expected):
    assert interpreter_errors(doc) == oracle_errors(doc) == expected


@pytest.mark.parametrize("schema", [
    {"enum": [0, 1.5, None]}, {"const": 1}, {"required": ["a", "b"]},
    {"type": ["integer", "string"]}, {"minItems": 1}, {"maxItems": 0},
])
@pytest.mark.parametrize("instance", [
    True, False, 0, 1.0, 1.5, None, "a", [], [0], {}, {"b": 0}])
def test_keyword_values_beyond_the_scenario_schema(schema, instance):
    # Values SCENARIO_SCHEMA does not use yet, so a schema edit that starts
    # using them keeps jsonschema's meaning.
    expected = [(tuple(e.path), e.message) for e in
                jsonschema.Draft202012Validator(schema).iter_errors(instance)]
    assert list(_schema_errors(instance, schema)) == expected


@pytest.mark.parametrize("keyword", [
    {"pattern": "^d"}, {"exclusiveMaximum": 1}, {"$ref": "#"},
    {"additionalProperties": {"type": "number"}}])
def test_unknown_keyword_is_refused(keyword):
    schema = {"type": "object", "properties": {"kind": {"type": "string"}},
              **keyword}
    with pytest.raises(NotImplementedError, match="not supported"):
        list(_schema_errors({"kind": "dm", "extra": 1}, schema))


def test_cli_start_up_does_not_import_jsonschema():
    code = ("import sys, dmflow.cli; "
            "from dmflow.scenario import load_scenario; "
            f"load_scenario({str(SCENARIOS[0])!r}); "
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path}, timeout=60)
