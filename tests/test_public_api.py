"""The public names: every `__all__` entry exists, and what a package
`__init__` re-exports is public in the module it comes from."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import comex

MODULES = sorted(info.name for info in pkgutil.walk_packages(comex.__path__, "comex."))
PACKAGES = ["comex", "comex.benchmarks"]


def test_modules_are_found():
    assert {"comex.harness", "comex.basis", "comex.benchmarks.registry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_reexports_are_public_in_their_module(package):
    init = Path(importlib.import_module(package).__file__)
    private = []
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = importlib.import_module(f"{package}.{node.module}")
            private += [f"{source.__name__}.{alias.name}" for alias in node.names
                        if alias.name not in getattr(source, "__all__", ())]
    assert not private, f"{package} re-exports names outside their module's __all__: {private}"
