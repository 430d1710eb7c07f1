import ast
import importlib
import inspect

import multidom

MODULES = ("exact", "generators", "graph", "graphio", "harness", "ledger", "solvers")


def _top_level_names(module):
    """Names a module binds by def, class or assignment at its top level."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_package_exports_exactly_the_module_interfaces():
    modules = [importlib.import_module(f"multidom.{name}") for name in MODULES]
    assert multidom.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(multidom.__all__)) == len(multidom.__all__) == 57
    for module in modules:
        defined = _top_level_names(module)
        for name in module.__all__:
            assert name in defined, f"{module.__name__}.__all__ names {name}, defined elsewhere"
            assert not name.startswith("_")
            assert getattr(multidom, name) is getattr(module, name)


def test_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from multidom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(multidom.__all__)
