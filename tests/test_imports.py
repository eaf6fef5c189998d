"""Module layout: which package modules import which."""

import ast
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
