"""Package layout: no module reaches into another module's private names, and every
name a module exports in ``__all__`` resolves, once."""

import ast
import importlib
import pkgutil
from pathlib import Path

import tickrng

PACKAGE = Path(tickrng.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """``module.name`` for each private name one module takes from another."""
    tree = ast.parse(source)
    found = []
    sibling_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tickrng")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                if not node.module or node.module == "tickrng":
                    sibling_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_checker_sees_both_forms_of_private_access():
    source = "from .suite import _bit_array\nfrom . import sim\nsim._MAX_TOPUP_BATCHES\n"
    assert private_imports(source) == ["suite._bit_array", "sim._MAX_TOPUP_BATCHES"]
    assert private_imports("from . import __version__\nfrom .sim import rng\n") == []


def test_no_module_uses_another_modules_private_names():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_every_modules_public_names_resolve_once():
    submodules = [f"tickrng.{m.name}" for m in pkgutil.iter_modules(tickrng.__path__)]
    modules = [tickrng] + [importlib.import_module(name) for name in submodules]
    exported = [(module, module.__all__) for module in modules if hasattr(module, "__all__")]
    assert len(exported) >= 9
    for module, public in exported:
        assert len(set(public)) == len(public), module.__name__
        assert [name for name in public if not hasattr(module, name)] == [], module.__name__
