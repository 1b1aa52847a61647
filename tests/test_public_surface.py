"""Every callable molpol exports has a user beyond the unit tests.

A public callable must be used by package code (a use outside its own
definition; imports and __all__ lists do not count), by a script under
scripts/, by the benchmark's tracer (perfbench/tracing.py's TRACED list) or by
the acceptance battery (tests/test_acceptance.py). Names are resolved to
molpol's objects, not matched as text: perfbench/checks.py, for one, defines a
rotational_constant of its own.
"""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import molpol

ROOT = Path(__file__).resolve().parents[1]


def _resolve(node, namespace):
    """The object a name or a chain of module attributes refers to, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace)
        if isinstance(base, types.ModuleType):
            return getattr(base, node.attr, None)
    return None


def _uses(tree, namespace) -> set[int]:
    """ids of the objects the tree reads by name; a top-level def or class
    reading its own name does not count."""
    used = set()

    def visit(node, own):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            obj = _resolve(node, namespace)
            if obj is not None and obj is not own:
                used.add(id(obj))
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in tree.body:
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        visit(node, namespace.get(node.name) if defines else None)
    return used


def _import_namespace(tree) -> dict:
    """What a file outside the package binds with `from molpol... import`."""
    namespace = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "molpol":
            module = importlib.import_module(node.module)
            for alias in node.names:
                namespace[alias.asname or alias.name] = getattr(module, alias.name)
    return namespace


def _package_uses() -> set[int]:
    used = set()
    modules = [molpol] + [importlib.import_module(f"molpol.{m.name}") for m in pkgutil.iter_modules(molpol.__path__)]
    for module in modules:
        used |= _uses(ast.parse(Path(module.__file__).read_text()), vars(module))
    return used


def _file_uses(path: Path) -> set[int]:
    tree = ast.parse(path.read_text())
    return _uses(tree, _import_namespace(tree))


def _traced() -> set[int]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    used = set()
    for module_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        used.add(id(target))
    return used


def test_every_public_callable_has_a_user_outside_the_unit_tests():
    used = _package_uses() | _traced() | _file_uses(ROOT / "tests" / "test_acceptance.py")
    for script in sorted((ROOT / "scripts").glob("*.py")):
        used |= _file_uses(script)
    public = {name: getattr(molpol, name) for name in molpol.__all__}
    unused = [name for name, obj in public.items() if callable(obj) and id(obj) not in used]
    assert unused == []
