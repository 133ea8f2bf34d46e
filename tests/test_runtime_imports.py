"""Runtime dependencies: the package imports only the standard library,
itself, and what ``[project].dependencies`` declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import tickrng

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(tickrng.__file__).parent
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules an absolute import in ``source`` loads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def undeclared(source: str, declared: set[str]) -> set[str]:
    allowed = set(sys.stdlib_module_names) | {"tickrng"} | declared
    return imported_modules(source) - allowed


def declared_dependencies() -> set[str]:
    with PYPROJECT.open("rb") as fh:
        specs = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}


def test_the_scanner_flags_an_undeclared_import():
    source = "import math\nimport numpy as np\nfrom . import sim\nfrom scipy.special import erfc\n"
    assert imported_modules(source) == {"math", "numpy", "scipy"}
    assert undeclared(source, {"numpy"}) == {"scipy"}


def test_every_runtime_import_is_declared():
    declared = declared_dependencies()
    assert "numpy" in declared
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := undeclared(path.read_text(), declared))
    }
    assert offenders == {}
