"""Module layout: which package modules import which."""

import ast
import subprocess
import sys
from pathlib import Path

import invarlab

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
    # place; the package __init__ only re-exports the report types.
    importers = {
        path.stem for path in PACKAGE.glob("*.py") if "report" in imported_modules(path)
    }
    assert importers == {"__init__", "audits", "cli"}


# Run in a fresh interpreter, as bench/run.py times setup_s: from
# ``import invarlab`` through parsing every bundled document, which modules
# were loaded and which package classes the dataclass decorator built.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import invarlab
from invarlab.scenario import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(*sorted({"dataclasses", "inspect"} & set(sys.modules)))
print(*sorted(
    f"{name}.{cls.__name__}"
    for name, module in list(sys.modules.items())
    if name == "invarlab" or name.startswith("invarlab.")
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == name and "__dataclass_fields__" in vars(cls)
))
"""


def test_the_import_path_loads_neither_dataclasses_nor_inspect():
    # Importing dataclasses (which imports inspect, ast, dis and tokenize)
    # took about half of setup_s. The plain records on this path are
    # NamedTuples and the checked values slot classes on core._Value; of the
    # package, only audits (audits.AuditSpec) still imports dataclasses.
    documents = sorted(str(path) for path in (PACKAGE / "scenarios").glob("*.json"))
    assert len(documents) == 4
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(PACKAGE.parent), *documents],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # Line 1: dataclasses or inspect if loaded; line 2: any package dataclass.
    assert proc.stdout.splitlines() == ["", ""]


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
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
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
