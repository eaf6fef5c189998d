"""Malformed scenario fields are named input errors, never tracebacks.

Each example takes a bundled document, replaces one field (any node of
the JSON tree, from a single number up to a whole block) with arbitrary
JSON, and runs the input checks that ``invarlab run`` makes before it
integrates anything: ``parse_scenario`` and then ``check_audit_inputs``.
Either the document is accepted or a ``ScenarioError`` is raised;
anything else escapes as a traceback and fails the test.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarlab.audits import check_audit_inputs
from invarlab.cli import resolve_scenario_path
from invarlab.scenario import ScenarioError, parse_scenario

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
