"""The package surface: what ``import calamity`` exports."""

import importlib
import pkgutil
import types

import calamity


def test_star_import_binds_exactly_all():
    namespace: dict[str, object] = {}
    exec("from calamity import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(calamity.__all__)


def test_all_is_sorted_unique_and_public():
    names = calamity.__all__
    assert names == sorted(set(names))
    assert [name for name in names if name.startswith("_")] == []
    modules = [name for name in names if isinstance(getattr(calamity, name), types.ModuleType)]
    assert modules == []


def test_every_export_is_defined_in_a_submodule():
    # Defined, not merely imported there: a class or function must name
    # the submodule as its home, so a stray ``from typing import Any`` in
    # the package fails even though ``calamity.cli`` imports ``Any`` too.
    submodules = [
        importlib.import_module(f"calamity.{info.name}")
        for info in pkgutil.iter_modules(calamity.__path__)
    ]
    strays = []
    for name in calamity.__all__:
        value = getattr(calamity, name)
        if not any(
            getattr(module, name, None) is value
            and getattr(value, "__module__", module.__name__) == module.__name__
            for module in submodules
        ):
            strays.append(name)
    assert strays == []
