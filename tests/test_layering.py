"""Platform code and the block store each stay in one module.

molpol reaches numpy's LAPACK and OpenBLAS through ctypes in molpol._lapack
alone, and the modules that pin the BLAS thread count share _lapack's one pin.
A dataset's store is read and written by rovib alone: other modules reach it
through rovib._store.
"""

import ast
import importlib
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


def test_only_rovib_reads_or_writes_a_datasets_store():
    # ds._store in rovib alone; any other module goes through rovib._store(ds)
    for path in SRC.glob("*.py"):
        if path.name == "rovib.py":
            continue
        module = importlib.import_module("molpol" if path.stem == "__init__" else f"molpol.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_store":
                assert _resolve(node.value, vars(module)) is rovib, f"{path.name}:{node.lineno}"
    rovib_tree = ast.parse(Path(rovib.__file__).read_text())
    assert any(isinstance(node, ast.Attribute) and node.attr == "_store" for node in ast.walk(rovib_tree))
