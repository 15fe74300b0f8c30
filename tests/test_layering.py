"""The package's import structure, read from the source: every import is at
module level, and the graph of imports between the package's modules has no
cycle."""

import ast
import pathlib

import pytest

import spinscreen

PACKAGE = pathlib.Path(spinscreen.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _internal_imports(tree):
    """The package modules one module's source imports: "from .m import x"
    and "from . import m" name module m; "from . import x" with x no module
    reads the package's __init__."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0:
            if node.module == "spinscreen":
                found.add("__init__")
            elif (node.module or "").startswith("spinscreen."):
                found.add(node.module.split(".")[1])
        elif node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(a.name if a.name in MODULES else "__init__"
                         for a in node.names)
    return found


GRAPH = {name: _internal_imports(tree) for name, tree in MODULES.items()}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    inner = [node.lineno
             for func in ast.walk(MODULES[name])
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == [], "%s.py imports inside a function at lines %s" % (
        name, inner)


def test_internal_imports_are_acyclic():
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for imported in sorted(GRAPH[name]):
            visit(imported)
        path.pop()
        done.add(name)

    for name in sorted(GRAPH):
        visit(name)


@pytest.mark.parametrize("name", ["screen", "exact", "geometry", "semiclassics"])
def test_the_screen_contract_does_not_reach_recursion(name):
    reached, todo = set(), [name]
    while todo:
        for imported in GRAPH[todo.pop()] - reached:
            reached.add(imported)
            todo.append(imported)
    assert "recursion" not in reached, sorted(reached)


def test_the_graph_sees_every_module():
    assert set().union(*GRAPH.values()) <= set(MODULES)
    assert {"screen", "spins", "errors"} <= GRAPH["recursion"]
    assert "screen" in GRAPH["exact"] and "screen" in GRAPH["geometry"]
