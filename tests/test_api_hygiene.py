"""API hygiene: docstrings everywhere, exports resolve, no cycles.

Deliverable-level checks: every public module, class and function in
``repro`` carries a docstring; every ``__all__`` entry exists; the
package imports without circular-import surprises from any entry point.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _all_modules():
    walked = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return sorted({"repro"} | {info.name for info in walked})


MODULES = _all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if inspect.isfunction(method) and not (
                    method.__doc__ and method.__doc__.strip()
                ):
                    missing.append(f"{name}.{method_name}")
    assert not missing, f"{module_name}: undocumented public items {missing}"


@pytest.mark.parametrize("module_name", MODULES)
def test_dunder_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_top_level_all_is_sorted_sections_and_complete():
    # Every name in repro.__all__ is importable from repro.
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_string():
    assert isinstance(repro.__version__, str)
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
