import importlib
import pkgutil

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
