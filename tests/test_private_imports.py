"""Package layout: no module reaches into another module's private names;
every name a module exports in ``__all__`` resolves, once, is exported by no
other module or the package root, and is read by the package, the benchmark
or the README; every name a module or a test file imports is used; and the
package reads every top-level private name it defines."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import tickrng

PACKAGE = Path(tickrng.__file__).parent
REPO = Path(__file__).parents[1]


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


def exported_names() -> list[tuple[object, list[str]]]:
    """``(module, __all__)`` for the package and each of its modules that has one."""
    submodules = [f"tickrng.{m.name}" for m in pkgutil.iter_modules(tickrng.__path__)]
    modules = [tickrng] + [importlib.import_module(name) for name in submodules]
    return [(module, module.__all__) for module in modules if hasattr(module, "__all__")]


def test_every_modules_public_names_resolve_once():
    exported = exported_names()
    assert len(exported) >= 9
    for module, public in exported:
        assert len(set(public)) == len(public), module.__name__
        assert [name for name in public if not hasattr(module, name)] == [], module.__name__


def test_every_public_name_has_one_home():
    """No name is exported by two ``__all__`` lists, the package root's included."""
    homes = {}
    for module, public in exported_names():
        for name in public:
            homes.setdefault(name, []).append(module.__name__)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def names_read(source: str, imports: bool = False) -> set[str]:
    """Each name ``source`` reads as a ``Name`` or an attribute; with ``imports``,
    also each name it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return read


def test_the_checker_sees_reads_and_imports():
    source = "from .sim import rng\nx = check_slots(rng)\ny.bits = report.entries\nimport os\n"
    assert names_read(source) == {"check_slots", "rng", "report", "entries", "y"}
    assert names_read(source, imports=True) == {"check_slots", "rng", "report", "entries", "y", "os"}


def test_every_public_name_is_read():
    """By a module of the package other than ``__init__.py``, or by the
    benchmark or a python block of the README."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            read |= names_read(path.read_text())
    outside = [path.read_text() for path in sorted((REPO / "bench").glob("*.py"))]
    outside += re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    for source in outside:
        read |= names_read(source, imports=True)
    unread = {
        f"{module.__name__}.{name}"
        for module, public in exported_names()
        for name in public
        if name not in read
    }
    assert unread == set()


def test_the_test_oracles_take_no_private_names():
    """The slow oracles in ``conftest.py`` share no private constant or
    helper with the code they check."""
    assert private_imports(Path(__file__).with_name("conftest.py").read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(scope: ast.AST):
    """The nodes under ``scope``, in source order, but not those of the
    functions defined inside it."""
    for node in ast.iter_child_nodes(scope):
        yield node
        if not isinstance(node, FUNCTIONS):
            yield from own_nodes(node)


def unused_imports(source: str) -> list[str]:
    """Each name a module imports and neither reads nor lists in ``__all__``.

    A name imported inside a function must be read inside that function,
    the functions nested in it included."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]:
        imported, used = [], set()
        for node in own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [name for name in imported if name not in used]
    return unused


def test_the_checker_sees_unused_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .sim import rng, check_slots\n__all__ = ['check_slots']\nnp.zeros(0)\n"
    )
    assert unused_imports(source) == ["os", "rng"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_the_checker_reads_a_function_level_import_in_its_own_function():
    source = (
        "import math\n"
        "def f():\n    import numpy as np\n    from .sim import rng\n    return rng\n"
        "def g():\n    from .suite import TestId\n    def h():\n        return TestId\n    return np, math\n"
        "class C:\n    def m(self):\n        import os\n        return lambda: os\n"
    )
    assert unused_imports(source) == ["np"]
    assert unused_imports("def f():\n    import os\n\ndef g():\n    return os\n") == ["os"]


def test_no_module_imports_a_name_it_does_not_use():
    """Neither the package's modules nor the test files."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    offenders = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := unused_imports(path.read_text()))
    }
    assert offenders == {}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``file:name`` for each top-level private name that no module of ``sources`` reads."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{file}:{name}" for name in names if _is_private(name)]
        read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return [entry for entry in defined if entry.split(":")[1] not in read]


def test_the_checker_sees_dead_private_names():
    sources = {
        "a.py": "_TABLE = 2\n_DEAD, _PAIR = 1, 2\ndef _helper(x):\n    return x * _TABLE\nclass _Unused:\n    pass\n",
        "b.py": "from .a import *\n_note: str = 'x'\nprint(_helper(1), __name__)\n",
    }
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_PAIR", "a.py:_Unused", "b.py:_note"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []
