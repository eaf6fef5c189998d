"""Module layout: which package modules import which."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import invarlab
import invarlab.report

PACKAGE = Path(invarlab.__file__).parent


def imported_modules(path):
    """Names of the invarlab modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("invarlab."):
                names.add(node.module.split(".")[1])
            elif node.module == "invarlab":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("invarlab."):
                    names.add(alias.name.split(".")[1])
    return names


def test_only_the_audit_runner_and_the_cli_import_report():
    # The library checks return measurements and verdicts are built in one
    # place; the package __init__ only re-exports the report types, through
    # its table of exports.
    importers = {
        path.stem for path in PACKAGE.glob("*.py") if "report" in imported_modules(path)
    }
    assert importers == {"audits", "cli"}
    assert sorted(invarlab._EXPORTS["report"]) == sorted(invarlab.report.__all__)


# Run in a fresh interpreter, as bench/run.py times setup_s: from
# ``import invarlab`` through parsing one document, which modules were
# loaded and which package classes the dataclass decorator built.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import invarlab
from invarlab.scenario import load_scenario
load_scenario(sys.argv[2])
print(*sorted({"array", "dataclasses", "inspect"} & set(sys.modules)))
print(*sorted(name for name in sys.modules if name.startswith("invarlab.")))
print(*sorted(
    f"{name}.{cls.__name__}"
    for name, module in list(sys.modules.items())
    if name == "invarlab" or name.startswith("invarlab.")
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == name and "__dataclass_fields__" in vars(cls)
))
"""

# The package modules that parsing each bundled document loads: core and
# scenario, and the module of each section the document has (forces for
# its laws, velocity_addition and its root solver for velocity_addition).
PARSE_LOADS = {
    "addition.json": ["core", "rootfind", "scenario", "velocity_addition"],
    "kepler.json": ["core", "forces", "scenario"],
    "perp-demo.json": ["core", "forces", "scenario"],
    "spring.json": ["core", "forces", "scenario"],
}


def test_every_bundled_document_is_listed_with_what_parsing_it_loads():
    bundled = sorted(path.name for path in (PACKAGE / "scenarios").glob("*.json"))
    assert bundled == sorted(PARSE_LOADS)


@pytest.mark.parametrize("document", sorted(PARSE_LOADS))
def test_parsing_a_document_loads_only_the_modules_of_its_sections(document):
    # Importing dataclasses (which imports inspect, ast, dis and tokenize)
    # took about half of setup_s. The plain records on this path are
    # NamedTuples and the checked values slot classes on core._Value; of the
    # package, only audits (audits.AuditSpec) still imports dataclasses.
    # The package imports a module when one of its names is first read, and
    # scenario imports a section's module where it parses that section, so
    # no document loads the integrators (dynamics, and with it array).
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(PACKAGE.parent),
         str(PACKAGE / "scenarios" / document)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # Line 1: array, dataclasses or inspect if loaded; line 2: the package
    # modules loaded; line 3: any package dataclass.
    loaded = " ".join(f"invarlab.{name}" for name in PARSE_LOADS[document])
    assert proc.stdout.splitlines() == ["", loaded, ""]


# Parses every bundled document, then one with a misspelled key: whether
# difflib is loaded after each.
DIFFLIB_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from invarlab.scenario import ScenarioError, load_scenario, parse_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print("difflib" in sys.modules)
doc = json.loads(open(sys.argv[2]).read())
doc["softenning"] = doc.pop("softening", 0.0)
try:
    parse_scenario(doc)
except ScenarioError:
    print("difflib" in sys.modules)
"""


def test_only_an_unknown_key_loads_difflib():
    documents = sorted(str(path) for path in (PACKAGE / "scenarios").glob("*.json"))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", DIFFLIB_PROBE, str(PACKAGE.parent), *documents],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["False", "True"]


def test_every_exported_name_is_the_object_its_module_defines():
    assert len(invarlab.__all__) == len(set(invarlab.__all__)) == 65
    assert sorted(invarlab.__all__) == sorted(
        name for names in invarlab._EXPORTS.values() for name in names
    )
    for module, names in invarlab._EXPORTS.items():
        source = importlib.import_module(f"invarlab.{module}")
        for name in names:
            assert getattr(invarlab, name) is getattr(source, name), name


def test_a_star_import_binds_every_exported_name_and_dir_lists_them():
    namespace = {}
    exec("from invarlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(invarlab.__all__)
    for name in invarlab.__all__:
        assert namespace[name] is getattr(invarlab, name)
    assert set(invarlab.__all__) <= set(dir(invarlab))
    assert "__version__" in dir(invarlab)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        invarlab.no_such_name  # noqa: B018
    assert not hasattr(invarlab, "no_such_name")


# In a fresh interpreter: import invarlab loads no package module, a
# submodule is still importable by name from the package, and reading one
# exported name loads its module alone.
SUBMODULE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import invarlab
def loaded():
    return sorted(name for name in sys.modules if name.startswith("invarlab."))
print(*loaded())
from invarlab import forces
print(forces.__name__, forces is sys.modules["invarlab.forces"], *loaded())
print(invarlab.inverse.__module__, *loaded())
"""


def test_a_submodule_imports_by_name_and_a_read_name_loads_its_module_alone():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SUBMODULE_PROBE, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == [
        "",
        "invarlab.forces True invarlab.core invarlab.forces",
        "invarlab.frames invarlab.core invarlab.forces invarlab.frames",
    ]


def loaded_names(path):
    """Names a source file reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used_outside_the_tests():
    # No public API that only the tests call: each name the package exports
    # is read by another package module or by a script, not just defined.
    init = PACKAGE / "__init__.py"
    exported = {name for names in invarlab._EXPORTS.values() for name in names}
    assert len(exported) > 60
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    sources = [path for path in PACKAGE.glob("*.py") if path != init] + scripts
    used = set().union(*map(loaded_names, sources))
    assert sorted(exported - used) == []


def test_every_public_class_member_is_used_outside_the_tests():
    # The same rule for the methods and properties of the package's
    # classes: each is read as an attribute by a package module or a
    # script, not just defined. Dunders are called by the language.
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"] + scripts
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    members = [
        f"{path.stem}.{node.name}.{item.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert len(members) > 20
    assert [member for member in members if member.rsplit(".", 1)[1] not in read] == []
