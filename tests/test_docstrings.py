"""Every public item must carry a doc comment (deliverable e)."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.events",
    "repro.poset",
    "repro.runs",
    "repro.predicates",
    "repro.predicates.catalog",
    "repro.predicates.algebra",
    "repro.predicates.normalize",
    "repro.graphs",
    "repro.core",
    "repro.core.report",
    "repro.core.selftest",
    "repro.clocks",
    "repro.protocols",
    "repro.protocols.reliable",
    "repro.faults",
    "repro.simulation",
    "repro.simulation.persistence",
    "repro.verification",
    "repro.broadcast",
    "repro.apps",
    "repro.obs",
    "repro.mc",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert inspect.getdoc(module), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_symbols_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        value = getattr(module, name, None)
        if value is None or not (inspect.isclass(value) or inspect.isfunction(value)):
            continue
        if not inspect.getdoc(value):
            undocumented.append(name)
    assert not undocumented, "%s: %s" % (module_name, undocumented)


@pytest.mark.parametrize("module_name", MODULES)
def test_public_class_methods_documented(module_name):
    """Public methods of public classes need docstrings too (dunder and
    dataclass-generated members excepted)."""
    module = importlib.import_module(module_name)
    missing = []
    for name in getattr(module, "__all__", []):
        value = getattr(module, name, None)
        if not inspect.isclass(value):
            continue
        for method_name, method in inspect.getmembers(value, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != value.__name__:
                continue  # inherited
            if not inspect.getdoc(method):
                missing.append("%s.%s" % (name, method_name))
    assert not missing, "%s: %s" % (module_name, sorted(set(missing)))
