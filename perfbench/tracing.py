"""Span tracing for the benchmark's traced pass.

`install` replaces every binding of the traced molpol functions, in every
molpol module that imports them by name, with a wrapper that records a span:
its name, the span that caused it, the request it belongs to, and its start
and end times. Spans stay in memory; `summarize` turns them into per-layer
counts and times when the pass is over. Nothing in molpol itself changes.

A span's self time is its duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (module, attribute) of each traced function, with the span name it records.
# A dotted attribute names a method, patched on its class.
TRACED = [
    ("molpol.cli", "main", "cli.main"),
    ("molpol.dataset", "load_dataset", "dataset.load_dataset"),
    ("molpol.dataset", "DipoleCurve.__call__", "dataset.dipole_eval"),
    ("molpol.dataset", "PotentialCurve.__call__", "dataset.potential_eval"),
    ("molpol.rovib", "solve_radial", "rovib.solve_radial"),
    ("molpol.coupling", "vibronic_dipole", "coupling.vibronic_dipole"),
    ("molpol.coupling", "natural_linewidth", "coupling.natural_linewidth"),
    ("molpol.coupling", "angular_weight", "coupling.angular_weight"),
    ("molpol.coupling", "wigner3j", "coupling.wigner3j"),
    ("molpol.polarizability", "build_line_list", "polarizability.build_line_list"),
    ("molpol.polarizability", "solve_initial", "polarizability.solve_initial"),
    ("molpol.polarizability", "scan_spectrum", "polarizability.scan_spectrum"),
    ("molpol.polarizability", "alpha_at", "polarizability.alpha_at"),
    ("molpol.control", "find_magic", "control.find_magic"),
    ("molpol.control", "find_windows", "control.find_windows"),
    ("molpol.control", "microwave_plan", "control.microwave_plan"),
    ("molpol.control", "lattice_plan", "control.lattice_plan"),
]

LAYERS = ("cli", "dataset", "rovib", "coupling", "polarizability", "control")

# span record fields
NAME, PARENT, REQUEST, START, END = range(5)


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.solve_keys: list[tuple] = []
        self.lines = 0
        self.kernel_line_points = 0

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.request, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters, fed from the arguments and results of the traced calls

    def _counter(self, name, fn):
        if name == "rovib.solve_radial":
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self.solve_keys.append((a["state"], a["J"], repr(a["grid"]), a["max_levels"]))

            return after
        if name == "polarizability.build_line_list":
            def after(args, kwargs, result):
                self.lines += len(result)

            return after
        if name == "polarizability.scan_spectrum":
            def after(args, kwargs, result):
                self.kernel_line_points += len(result.lines) * len(result.nu)

            return after
        if name == "polarizability.alpha_at":
            def after(args, kwargs, result):
                lines = args[0] if args else kwargs["lines"]
                self.kernel_line_points += len(lines)

            return after
        return None


def install(tracer: Tracer) -> int:
    """Wrap every binding of the TRACED functions; returns the number replaced."""
    molpol_modules = [m for k, m in sys.modules.items() if k == "molpol" or k.startswith("molpol.")]
    replaced = 0
    for module_name, attr, span_name in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span_name, fn, tracer._counter(span_name, fn)))
            replaced += 1
            continue
        fn = getattr(owner, attr)
        wrapper = tracer.wrap(span_name, fn, tracer._counter(span_name, fn))
        for mod in molpol_modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    replaced += 1
    return replaced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append(i)
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            c_lo, c_hi = max(spans[c][START], lo), min(spans[c][END], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-function and per-layer counts and times for one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    stats: dict[str, float] = {}
    for _, _, name in TRACED:
        stats[f"{name}.calls"] = 0
        stats[f"{name}.s"] = 0.0
        stats[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        stats[f"{layer}.self_s"] = 0.0
    root_s = 0.0
    bisect_evals = 0
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.s"] += dur
        stats[f"{name}.self_s"] += own
        stats[f"{name.split('.')[0]}.self_s"] += own
        if rec[PARENT] < 0:
            root_s += dur
        elif name == "polarizability.alpha_at" and spans[rec[PARENT]][NAME] == "control.find_magic":
            bisect_evals += 1
    calls = len(tracer.solve_keys)
    stats["rovib.solve_radial.repeat_frac"] = (
        1.0 - len(set(tracer.solve_keys)) / calls if calls else 0.0
    )
    stats["polarizability.lines"] = tracer.lines
    stats["polarizability.kernel_line_points"] = tracer.kernel_line_points
    stats["control.bisect_alpha_evals"] = bisect_evals
    stats["trace.spans"] = len(spans)
    stats["trace.requests"] = len({rec[REQUEST] for rec in spans})
    stats["trace.pass_s"] = pass_s
    stats["unattributed_s"] = pass_s - root_s
    return stats
