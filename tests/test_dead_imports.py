"""Every name a molpol module imports is read somewhere in that module.

An import nothing reads is dead code that still runs, and it hides which
module a name's users depend on. `from __future__` imports and the names a
module lists in its `__all__` (a re-export) are exempt.
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
