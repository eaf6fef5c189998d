"""Whole runs of drawn documents end in a report or a named input error.

Each example takes a bundled document, or ``CHARGED``, which carries the
leaves none of them has, shrunk so that a run takes a few milliseconds:
every integer leaf (a count, ``samples``, ``steps``) is drawn from 2 to 5,
and every ``t_end`` is 2 to 5 integrator steps. One to three of its other
float leaves are drawn: a log-uniform double of either sign over the
whole float range, or one of a few values at its edges. The document runs
through ``main``. It must end in exit 0 or 2 with
``report.json`` written, or in exit 1 with one ``error:`` line on
stderr; an exception out of ``main`` is a traceback and fails the test.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invarlab.cli import main, resolve_scenario_path

BUNDLED = ["addition.json", "kepler.json", "perp-demo.json", "spring.json"]

# perp-demo.json's pair under the laws no bundled document runs, with a
# softening and a charge on each body.
CHARGED = {
    "schema": "v1",
    "name": "charged",
    "bodies": [
        {"id": "A", "mass": 1.0, "position": [0.5, 0.0, 0.0], "velocity": [0.0, 0.4, 0.0],
         "properties": {"charge": 1.0}},
        {"id": "B", "mass": 2.0, "position": [-0.5, 0.0, 0.0], "velocity": [0.0, -0.2, 0.0],
         "properties": {"charge": -0.5}},
    ],
    "laws": [
        {"preset": "coulomb", "params": {"k": 1.0}},
        {"preset": "linear-drag", "params": {"gamma": 0.1}},
        {"preset": "charge-squared", "params": {"k": 0.5}},
    ],
    "softening": 0.01,
    "integrator": {"method": "rk4", "step": 0.002, "t_end": 2.0},
    "audits": ["exchange", "momentum", "momentum-rate", "superposition", "additivity"],
    "audit_params": {"additivity": {"property": "charge"}},
}

DOCUMENTS = {name: resolve_scenario_path(name).read_text() for name in BUNDLED}
DOCUMENTS["charged"] = json.dumps(CHARGED)

EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e308, sys.float_info.max]

# 2 ** e for e over the float range, subnormals included, of either sign.
log_uniform = st.builds(
    lambda sign, exponent: sign * 2.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-1074.0, 1023.99),
)
floats = st.one_of(st.sampled_from(EDGES), log_uniform)

small_counts = st.integers(2, 5)


def leaves(node, path=()):
    """(path, value) of every number in a JSON tree, ``t_end`` excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from leaves(child, path + (key,))
        elif isinstance(child, (int, float)) and not isinstance(child, bool) and key != "t_end":
            yield path + (key,), child


def put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def shrunk_document(draw, name):
    doc = json.loads(DOCUMENTS[name])
    numbers = list(leaves(doc))
    for path, value in numbers:
        if isinstance(value, int):
            put(doc, path, draw(small_counts))
    float_paths = [path for path, value in numbers if isinstance(value, float)]
    for path in draw(st.lists(st.sampled_from(float_paths), min_size=1, max_size=3, unique=True)):
        put(doc, path, draw(floats))
    if "integrator" in doc:
        step = doc["integrator"]["step"]
        doc["integrator"]["t_end"] = draw(small_counts) * step
        for params in doc.get("audit_params", {}).values():
            if "t_end" in params:
                params["t_end"] = draw(small_counts) * step
    return doc


@pytest.mark.parametrize("name", DOCUMENTS)
@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_drawn_run_ends_in_a_report_or_an_input_error(tmp_path, capsys, name, data):
    doc = shrunk_document(data.draw, name)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work / "scenario.json"
    path.write_text(json.dumps(doc))
    out = work / "out"
    capsys.readouterr()
    code = main(["run", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    else:
        assert code in (0, 2) and (out / "report.json").is_file()
