"""Malformed scenario fields are named input errors, never tracebacks.

Each example takes a bundled document and either replaces one field (any
node of the JSON tree, from a single number up to a whole block) with
arbitrary JSON, or draws one of its objects that a field table reads
(``scenario.SECTIONS``, or an audit's ``audit_params`` fields) and puts
into it a field of the table that it lacks, or a key that is not in the
table, with arbitrary JSON. It then runs the input checks that
``invarlab run`` makes before it integrates anything: ``parse_scenario``
and then ``check_audit_inputs``. Either the document is accepted or a
``ScenarioError`` is raised; anything else escapes as a traceback and
fails the test. A key that is not in the table is always the error, named
by its path.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarlab.audits import CATALOG, check_audit_inputs
from invarlab.cli import resolve_scenario_path
from invarlab.scenario import SECTIONS, ScenarioError, parse_scenario

BUNDLED = ["addition.json", "kepler.json", "perp-demo.json", "spring.json"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 10**400, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["v1", "rk4", "verlet", "lorentz", "gravity", "momentum", "count"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


def paths(node, prefix=()):
    """Every path into a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


@pytest.mark.parametrize("name", BUNDLED)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_mutated_field_parses_or_is_a_scenario_error(name, data):
    doc = json.loads(resolve_scenario_path(name).read_text())
    path = data.draw(st.sampled_from(sorted(paths(doc), key=repr)))
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(json_values)
    try:
        check_audit_inputs(parse_scenario(mutated))
    except ScenarioError:
        pass


PARAMS = {spec.name: spec.params for spec in CATALOG}


def sections(doc):
    """(path, object, field table) of every object in ``doc`` that a
    table reads."""
    for section, table in SECTIONS.items():
        name = section.removesuffix("[i]")
        node = doc.get(name) if name else doc
        if section.endswith("[i]") and isinstance(node, list):
            yield from ((f"{name}[{i}]", item, table) for i, item in enumerate(node))
        elif not section.endswith("[i]") and isinstance(node, dict):
            yield section, node, table
    for audit, params in doc.get("audit_params", {}).items():
        yield f"audit_params.{audit}", params, PARAMS[audit]


@pytest.mark.parametrize("name", BUNDLED)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_key_put_into_a_section_parses_or_is_a_scenario_error(name, data):
    doc = json.loads(resolve_scenario_path(name).read_text())
    path, section, table = data.draw(st.sampled_from(list(sections(doc))))
    names = [field.name for field in table]
    unknown = st.text(max_size=8).filter(lambda key: key not in names)
    absent = [key for key in names if key not in section]
    key = data.draw(st.one_of(st.sampled_from(absent), unknown) if absent else unknown)
    section[key] = data.draw(json_values)
    try:
        check_audit_inputs(parse_scenario(doc))
    except ScenarioError as exc:
        if key not in names:
            where = f"{path}.{key}" if path else key
            assert str(exc).startswith(f"{where}: unknown key; "), exc
    else:
        assert key in names
