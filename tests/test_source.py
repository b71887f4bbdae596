"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

from tests.test_bench_names import load_wraps

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "svdgcl").glob("*.py"))
# (module, name) pairs that bench/run.py's tracer patches
TRACED_BY_BENCH = set(load_wraps())


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert, so invariants must raise explicit errors
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"


def test_export_list_matches_the_imports():
    import svdgcl

    star = {}
    exec("from svdgcl import *", star)
    assert set(star) - {"__builtins__"} == set(svdgcl.__all__)
    assert all(hasattr(svdgcl, name) for name in svdgcl.__all__)
    init = next(p for p in SOURCES if p.name == "__init__.py")
    imported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(svdgcl.__all__)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_imported_names_are_used_or_traced(path):
    # a name imported but never read is dead, unless bench/run.py's tracer
    # patches it in this module, which is what keeps it bound there
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = sorted(name for name in imported - read if (f"svdgcl.{path.stem}", name) not in TRACED_BY_BENCH)
    assert not dead, f"{path.name} imports {dead} and never uses them"


def _is_get_logger(node):
    """Whether node is a logging.getLogger(...) call."""
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and func.attr == "getLogger" and getattr(func.value, "id", None) == "logging"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_loggers_sit_under_the_package_logger(path):
    # configure_logging puts its handlers on "svdgcl"; a record from any
    # other logger never reaches them
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [
        call.args[0].value if len(call.args) == 1 and isinstance(call.args[0], ast.Constant) else None
        for call in ast.walk(tree)
        if _is_get_logger(call)
    ]
    stray = [n for n in names if not (n == "svdgcl" or (isinstance(n, str) and n.startswith("svdgcl.") and n[7:]))]
    assert not stray, f"{path.name} asks for loggers {stray} outside svdgcl"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_loggers_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and _is_get_logger(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert not bound - read, f"{path.name} binds loggers {sorted(bound - read)} and never logs to them"
