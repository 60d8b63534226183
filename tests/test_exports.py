import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zopt

ROOT = Path(__file__).resolve().parent.parent


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
    assert set(zopt.__all__) <= set(namespace)
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


def scipy_on_import(source: str) -> list[str]:
    """The imports in a module's source, outside any function body, that
    load scipy: of scipy itself, or of zopt.analysis, which imports it."""
    found = set()
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs when called, not when the module is imported
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["zopt" if node.level else None, node.module]))
            found |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(
        name for name in found
        if name.split(".")[0] == "scipy" or name.startswith("zopt.analysis")
    )


def test_scipy_import_detector():
    source = "import os\nfrom scipy.optimize import f\nclass C:\n    from . import analysis\n"
    source += "def g():\n    import scipy\n    from .analysis import h\n"
    assert scipy_on_import(source) == ["scipy.optimize", "scipy.optimize.f", "zopt.analysis"]


@pytest.mark.parametrize(
    "path", sorted(Path(zopt.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_only_analysis_imports_scipy(path):
    # scipy costs every process that loads it about half a second and 50 MB;
    # only the box reference optimum in zopt.analysis needs it, so every other
    # module imports analysis inside the function that needs it
    found = scipy_on_import(path.read_text(encoding="utf-8"))
    assert (found != []) == (path.stem == "analysis"), found


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of the sources
    (module name -> text) that no other top-level statement in them reads,
    by name, attribute or import."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(module, name, stmt) for name in private]
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read |= {alias.name for alias in node.names}
            reads.append((stmt, read))
    return [
        f"{module}.{name}"
        for module, name, stmt in defined
        if not any(name in read for other, read in reads if other is not stmt)
    ]


def test_unreferenced_private_name_detector():
    a = "_A = 1\n_B = 2\ndef _f():\n    return _f()\nclass _C:\n    pass\nprint(_A)\n"
    b = "from a import _C\n__all__ = []\n"
    assert unreferenced_private_names({"a": a, "b": b}) == ["a._B", "a._f"]


def test_no_private_name_is_left_without_a_reader():
    # a private helper that nothing in the package reads is code with no caller
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(Path(zopt.__file__).parent.glob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


def test_readme_quick_start_runs(capsys):
    # the README's Python must keep running against the current API
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.startswith("best value ")
