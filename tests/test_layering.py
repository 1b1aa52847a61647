"""Platform code stays in one module.

molpol reaches numpy's LAPACK and OpenBLAS through ctypes in molpol._lapack
alone, and the modules that pin the BLAS thread count share _lapack's one pin.
"""

import ast
from pathlib import Path

import molpol
from molpol import _lapack, coupling, rovib

SRC = Path(molpol.__file__).parent


def _imported(tree) -> set[str]:
    """Top-level names of the absolute imports in a module's tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _resolve(node, namespace):
    """The object a name or a chain of module attributes refers to, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace)
        return None if base is None else getattr(base, node.attr, None)
    return None


def test_only_lapack_imports_ctypes():
    importers = sorted(path.name for path in SRC.glob("*.py") if "ctypes" in _imported(ast.parse(path.read_text())))
    assert importers == ["_lapack.py"]


def test_rovib_and_coupling_pin_through_lapacks_one_pin():
    # every BLAS pin either module enters is _lapack's one object
    for module in (rovib, coupling):
        tree = ast.parse(Path(module.__file__).read_text())
        held = [
            _resolve(item.context_expr, vars(module))
            for node in ast.walk(tree)
            if isinstance(node, ast.With)
            for item in node.items
        ]
        pins = [obj for obj in held if isinstance(obj, _lapack._OneBlasThread)]
        assert pins and all(pin is _lapack.one_blas_thread for pin in pins), module.__name__
