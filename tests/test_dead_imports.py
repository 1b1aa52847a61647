"""Every name a molpol module imports is read somewhere in that module, and
every private helper is read somewhere in the package.

An import nothing reads is dead code that still runs, and it hides which
module a name's users depend on. `from __future__` imports and the names a
module lists in its `__all__` (a re-export) are exempt. A module-level
function or class named with one leading underscore is private to the
package, so one that no package code reads outside its own definition is
dead: only a test could still call it.
"""

import ast
from pathlib import Path

import molpol

SRC = Path(molpol.__file__).parent


def _exported(tree) -> set[str]:
    """The strings of a module-level `__all__ = [...]`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unread_imports(tree) -> list[str]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read and name not in _exported(tree)]


def test_no_module_imports_a_name_it_never_reads():
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        names = _unread_imports(ast.parse(path.read_text()))
        if names:
            unread[path.name] = names
    assert unread == {}


def _private_definitions(tree) -> dict[str, ast.AST]:
    """The module-level functions and classes whose names start with one underscore."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def _names_read(node, modules: set[str]) -> set[str]:
    """The names node reads: loaded names, imported names, and attributes
    read off a molpol module (`rovib._store`)."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            read.add(sub.attr)
    return read


def test_every_private_helper_is_read_outside_its_own_definition():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = [(stmt, _names_read(stmt, set(trees))) for tree in trees.values() for stmt in tree.body]
    helpers = [(name, helper, node) for name, tree in trees.items() for helper, node in _private_definitions(tree).items()]
    assert helpers
    unread = [
        f"{name}.{helper}"
        for name, helper, node in helpers
        if not any(helper in names for stmt, names in reads if stmt is not node)
    ]
    assert unread == []
