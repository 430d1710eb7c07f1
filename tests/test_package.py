import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import multidom

MODULES = ("exact", "generators", "graph", "graphio", "harness", "ledger", "solvers")
# Dependencies run one way: a module imports only modules before it.
LAYER_ORDER = ("graph", "generators", "solvers", "ledger", "exact", "harness", "graphio", "cli")


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
    assert len(set(multidom.__all__)) == len(multidom.__all__) == 58
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


def _relative_imports(module):
    """The sibling modules a module imports, by from-relative imports anywhere
    in its source."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize("name", LAYER_ORDER)
def test_modules_import_only_earlier_layers(name):
    imported = _relative_imports(importlib.import_module(f"multidom.{name}"))
    assert imported <= set(LAYER_ORDER), imported - set(LAYER_ORDER)
    later = [m for m in imported if LAYER_ORDER.index(m) >= LAYER_ORDER.index(name)]
    assert not later, f"multidom.{name} imports {later}, not before it in {LAYER_ORDER}"


# The only functions that may name a Mode member.  Everywhere else the
# variant is read through solvers.self_gain, or passed on as a value.
MODE_MEMBER_SITES = {
    "solvers": {
        "check_k", "check_multiplicity", "is_trivial", "problem_key", "self_gain",
        "apply_step",  # the trace's tokens_placed format
    },
    "harness": {"default_corpus"},
}


def _mode_member_uses(module):
    """(qualified name of the enclosing def or class, line) for each
    Mode.DOM, Mode.KTUPLE or Mode.KDOM in the module's code."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "Mode"
                and child.attr in ("DOM", "KTUPLE", "KDOM")
            ):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(inspect.getsource(module)), None)
    return found


@pytest.mark.parametrize("name", LAYER_ORDER)
def test_mode_members_are_named_only_where_the_variant_is_defined(name):
    allowed = MODE_MEMBER_SITES.get(name, set())
    uses = _mode_member_uses(importlib.import_module(f"multidom.{name}"))
    stray = [(scope, line) for scope, line in uses if scope not in allowed]
    assert not stray, f"multidom.{name} names a Mode member at {stray}; read self_gain instead"
    # Each listed site does name one, so the walk finds them and the list stays tight.
    assert {scope for scope, _ in uses} == allowed


def test_import_loads_no_process_pool_or_logging():
    # threading is left out: site already loads it on some interpreters.
    src = str(Path(multidom.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import multidom; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "multidom" in added
    assert not {m for m in added if m.split(".")[0] in ("concurrent", "logging")}
