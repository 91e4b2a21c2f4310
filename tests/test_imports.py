"""Every module of the package uses each name it imports, and every
function reads each plain local it binds.

Read with the standard library's ``ast`` alone, so it runs without numpy.  A
name counts as used when the module loads it anywhere, or names it inside a
string annotation.  The package ``__init__`` re-exports what it imports from
its own modules, so only its other imports are checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tcbundles"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(path, tree):
    """(name, line) for each name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level and path.name == "__init__.py":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(path, tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse("import os\nfrom typing import Sequence\ndef f(x: 'Sequence[int]'): ...")
    unused = [name for name, _ in imported_names(Path("m.py"), tree)
              if name not in used_names(tree)]
    assert unused == ["os"]


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(function):
    """The nodes of ``function``'s own scope: nested functions and classes
    are left out, as their names are their own."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree):
    """(name, line) for each plain name a function binds and never reads,
    itself or in a nested function; names that start with ``_`` and names
    declared ``global`` or ``nonlocal`` are exempt."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef | ast.AsyncFunctionDef):
            continue
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        declared = {name for node in own_nodes(function)
                    if isinstance(node, ast.Global | ast.Nonlocal) for name in node.names}
        for node in own_nodes(function):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_")
                    and node.id not in read | declared):
                yield node.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_binds_a_local_it_never_reads(path):
    dead = [f"{name} (line {line})"
            for name, line in dead_locals(ast.parse(path.read_text(encoding="utf-8")))]
    assert not dead, f"{path.name} binds locals it never reads: {', '.join(dead)}"


def test_the_check_sees_a_dead_local_and_reads_in_a_nested_function():
    tree = ast.parse("def f(a):\n    n = 1\n    k, _skip = a\n    def g():\n        return k\n"
                     "    return g")
    assert list(dead_locals(tree)) == [("n", 2)]
