"""Names that code outside the package reaches for must keep resolving.

molpol.__all__ is the public surface. perfbench/tracing.py wraps molpol
functions by (module, attribute) and reads solve_radial's arguments by name,
so deleting or renaming one of those breaks the benchmark's traced pass.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import molpol

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_public_name_resolves():
    missing = [name for name in molpol.__all__ if not hasattr(molpol, name)]
    assert missing == []


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    tracing = _tracing_module()
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{module_name}.{attr}"
        assert callable(target), f"{module_name}.{attr}"
    # the tracer binds these by name to count (state, J, grid, max_levels) solves
    params = inspect.signature(importlib.import_module("molpol.rovib").solve_radial).parameters
    assert {"state", "J", "grid", "max_levels"} <= set(params)
