"""Packaging checks: every third-party module ``src/repro`` imports is declared.

A clean ``pip install`` pulls in only what ``[project].dependencies`` lists,
so a module imported by the package but missing there makes the installed
package fail on import.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PYPROJECT = ROOT / "pyproject.toml"


def third_party_imports() -> dict[str, set[str]]:
    """Top-level non-stdlib modules imported under ``src/repro``, with importers."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _project_name(requirement: str) -> str:
    """The normalised distribution name of one requirement string."""
    return re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower().replace("-", "_")


def declared_dependencies() -> set[str]:
    """Normalised names in ``[project].dependencies``.

    Read with a small scan rather than ``tomllib``, which Python 3.10 lacks.
    Every declared distribution is imported under its own name today; a
    name map belongs here once one is not.
    """
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    return {_project_name(requirement) for requirement in re.findall(r'"([^"]+)"', array)}


def test_scan_sees_the_numeric_stack():
    # Guards the scan itself: one that found nothing would pass vacuously.
    assert {"numpy", "scipy"} <= set(third_party_imports())


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {
        module: sorted(paths)
        for module, paths in third_party_imports().items()
        if module not in declared
    }
    assert undeclared == {}


def test_dependency_scan_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    assert declared_dependencies() == {_project_name(item) for item in requirements}
