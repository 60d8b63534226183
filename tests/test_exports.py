import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zopt


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(zopt.__path__)))
def test_all_names_resolve(name):
    # a stale string left in __all__ would break `from zopt.<name> import *`
    module = importlib.import_module(f"zopt.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from zopt.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_star_import_of_the_package():
    # everything the package re-exports is public in the module it comes from
    namespace = {}
    exec("from zopt import *", namespace)
    assert {"OracleConfig", "random_search", "verify_oracle_inequalities"} <= set(namespace)
    for attr, value in namespace.items():
        home = getattr(value, "__module__", "")
        if home.startswith("zopt."):
            assert attr in importlib.import_module(home).__all__, f"{attr} not in {home}.__all__"


def imported_but_unused(source: str) -> list[str]:
    """Names a module imports and never reads (its __all__ counts as a read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\n"
    source += "__all__ = ['c']\nnp.zeros(os.sep)\n"
    assert imported_but_unused(source) == ["b (line 3)"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(zopt.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    # the package's __init__ imports only to re-export, so it is exempt
    assert imported_but_unused(path.read_text(encoding="utf-8")) == []
