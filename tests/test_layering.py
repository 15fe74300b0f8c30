"""The package's import structure, read from the source: every import is at
module level, and the graph of imports between the package's modules has no
cycle.  What a fresh interpreter loads: SciPy's linear algebra only once an
eigensolve or a threeterm row needs it."""

import ast
import os
import pathlib
import subprocess
import sys

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


# each step runs in one fresh interpreter, in order; after each,
# scipy.linalg is still unloaded
_LINALG_FREE = [
    "import spinscreen as ss",
    "import spinscreen.cli",
    "p = ss.screen_ranges(8, 10, 12, 10)",
    "ss.screen_oracle(p)",
    "ss.screen_by_2d(p)",
    "twisted = ss.screen_by_threeterm(p)",
    "ss.u_exact(10, 10, p)",
    "ss.ridges_and_caustics(p)",
    "ss.pr_compare(twisted)",
    "ss.ninej.reduction_check(p)",
]


def _fresh(steps):
    """Run steps in a fresh interpreter; after each, print whether
    scipy.linalg is loaded."""
    lines = ["import sys"]
    for step in steps:
        lines += [step, "print('scipy.linalg' in sys.modules)"]
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [line == "True" for line in done.stdout.split()]


def test_only_an_eigensolve_or_a_row_loads_scipy_linalg():
    loaded = _fresh(_LINALG_FREE)
    assert loaded == [False] * len(_LINALG_FREE), [
        step for step, hit in zip(_LINALG_FREE, loaded) if hit]
    for call in ("ss.screen_by_eigensolve(p)", "ss.row_by_threeterm(10, p)"):
        steps = ["import spinscreen as ss", "p = ss.screen_ranges(8, 10, 12, 10)",
                 call]
        assert _fresh(steps) == [False, False, True], call
