"""molpol benchmark: CLI workloads timed end to end, with a traced per-layer run.

    python3 perfbench/run.py --workload optical-scan --seed 1 --seconds 30 --trace 0

Run from the root of a molpol checkout. Each pass runs in a fresh interpreter
(perfbench/worker.py), one pass at a time from this single process, in a
closed loop: a request starts when the previous one has returned. A pass
imports molpol.cli, loads the workload's first dataset (set-up), then sends
every request of the workload through `molpol.cli.main(argv)` with `--out` in
a scratch directory under perfbench/_work. Passes repeat until the next one
would overrun --seconds (at least MIN_PASSES). Every request's output is
checked after its pass (checks.py); a request fails when it exits non-zero
or its check finds a problem.

--trace 0 reports the end-to-end metrics: medians over passes of pass time,
request latency, set-up time and peak RSS. --trace 1 alternates untraced and
traced passes and reports per-layer counts and times from spans recorded
around the package's public functions (tracing.py), the set-up split from
`python -X importtime`, the time no span covers, and the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATASETS = ROOT / "datasets"

MIN_PASSES = 3          # untraced runs; a traced run needs one pass of each kind
SETUP_PROBES = 2        # extra set-up-only interpreters per untraced run
RUN_LIMIT_S = 170.0     # no pass starts that could end past this
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = [
    ("pass_s", "s"),
    ("request_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER_NAMES = [
    "rovib.solve_radial.calls",
    "rovib.solve_radial.s",
    "rovib.solve_radial.repeat_frac",
    "rovib.self_s",
    "coupling.vibronic_dipole.calls",
    "coupling.vibronic_dipole.s",
    "coupling.natural_linewidth.calls",
    "coupling.self_s",
    "dataset.dipole_eval.calls",
    "dataset.dipole_eval.s",
    "dataset.self_s",
    "polarizability.alpha_at.calls",
    "polarizability.alpha_at.s",
    "polarizability.kernel_line_points",
    "polarizability.build_line_list.self_s",
    "polarizability.scan_spectrum.self_s",
    "polarizability.solve_initial.calls",
    "polarizability.lines",
    "polarizability.self_s",
    "control.bisect_alpha_evals",
    "control.self_s",
    "cli.main.self_s",
    "cli.bytes_written",
    "setup.import_s",
    "setup.load_s",
    "setup.import.numpy_s",
    "setup.import.scipy_constants_s",
    "setup.import.scipy_interpolate_s",
    "unattributed_s",
    "trace.overhead_s",
]


def unit_of(name: str) -> str:
    """Unit of a per-layer statistic, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER = [(name, unit_of(name)) for name in PER_LAYER_NAMES]

# modules whose cumulative import time -X importtime reports as setup.import.*
IMPORT_SPLIT = {"numpy": "numpy", "scipy.constants": "scipy_constants", "scipy.interpolate": "scipy_interpolate"}


class BenchError(Exception):
    """The benchmark cannot measure: missing sources or a pass that did not finish."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    def __init__(self, workload: str, requests: list[dict], work: Path, deadline: float):
        self.workload = workload
        self.requests = requests
        self.work = work
        self.deadline = deadline
        self.refs = checks.load_refs()
        self.count = 0

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a pass could start")
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not finish within {timeout:.0f} s")

    def run_pass(self, requests: list[dict], trace: bool = False, machine: bool = False) -> dict:
        """One fresh interpreter: set-up, then each request; outputs checked afterwards."""
        self.count += 1
        pass_dir = self.work / f"pass{self.count}"
        pass_dir.mkdir(parents=True)
        spec = {
            "src": str(ROOT / "src"),
            "setup_dataset": str(DATASETS / workloads.SETUP_DATASET[self.workload]),
            "trace": trace,
            "machine": machine,
            "result": str(pass_dir / "result.json"),
            "requests": [
                {"argv": [r["argv"][0], str(DATASETS / r["dataset"]), *r["argv"][1:], "--out", str(pass_dir / f"r{i}")]}
                for i, r in enumerate(requests)
            ],
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = self._spawn([sys.executable, str(HERE / "worker.py"), str(spec_path)])
        if proc.returncode != 0 or not (pass_dir / "result.json").is_file():
            raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads((pass_dir / "result.json").read_text())
        result["trace_on"] = trace
        result["bytes_written"] = 0
        for i, (req, res) in enumerate(zip(requests, result["requests"])):
            out = pass_dir / f"r{i}"
            if res["rc"] != 0:
                res["problems"] = [f"exit {res['rc']}: {res['stderr'].strip()}"]
            else:
                res["problems"] = checks.check_request(req, out, self.refs, DATASETS)
            if out.is_dir():
                result["bytes_written"] += dir_bytes(out)
            res["key"] = req["key"]
        shutil.rmtree(pass_dir)
        return result

    def import_split(self) -> dict[str, float]:
        """Cumulative import times of the largest imports, from -X importtime."""
        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import molpol.cli"
        proc = self._spawn([sys.executable, "-X", "importtime", "-c", code])
        if proc.returncode != 0:
            raise BenchError(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return import_split(proc.stderr)


def import_split(importtime: str) -> dict[str, float]:
    """Cumulative time of each IMPORT_SPLIT package and its submodules.

    -X importtime prints a module after its children, indented by depth.
    scipy loads subpackages lazily, so `scipy.constants` may appear only
    through its submodules. An entry counts once, for the outermost listed
    package on its path, so numpy modules that scipy.constants pulls in count
    for scipy.constants.
    """
    entries = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            field = parts[2].rstrip()
            entries.append((len(field) - len(field.lstrip()), field.strip(), int(parts[1]) * 1e-6))
    split = {f"setup.import.{short}_s": 0.0 for short in IMPORT_SPLIT.values()}
    stack: list[tuple[int, bool]] = []    # (depth, whether it or an ancestor counted)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        counted = bool(stack) and stack[-1][1]
        package = next((p for p in IMPORT_SPLIT if name == p or name.startswith(p + ".")), None)
        if package is not None and not counted:
            split[f"setup.import.{IMPORT_SPLIT[package]}_s"] += cumulative
            counted = True
        stack.append((depth, counted))
    return split


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"q1 {q[0]:.4g}, q3 {q[2]:.4g}, n={len(values)}"


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[str]]:
    """Run the passes; returns the summary and the human-readable report lines."""
    start = time.monotonic()
    runner = Runner(workload, workloads.make_requests(workload, seed), work, start + RUN_LIMIT_S)
    passes: list[dict] = []
    walls: list[float] = []
    need = 2 if trace else MIN_PASSES
    while True:
        t = time.monotonic()
        passes.append(runner.run_pass(runner.requests, trace=trace and len(passes) % 2 == 1, machine=not passes))
        walls.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if elapsed + max(walls) > RUN_LIMIT_S - 10.0:
            break
        if len(passes) >= need and elapsed + statistics.median(walls) > seconds:
            break
    if len(passes) < need:
        raise BenchError(f"only {len(passes)} passes fit in {RUN_LIMIT_S:.0f} s")

    setups = list(passes)
    split: dict[str, float] = {}
    if trace:
        split = runner.import_split()
    else:
        for _ in range(SETUP_PROBES):
            setups.append(runner.run_pass([]))

    plain = [p for p in passes if not p["trace_on"]]
    traced = [p for p in passes if p["trace_on"]]
    all_requests = [r for p in passes for r in p["requests"]]
    failed = [r for r in all_requests if r["problems"]]
    latencies = [r["s"] for p in plain for r in p["requests"]]
    summary = {
        "attempted": len(all_requests),
        "failed": len(failed),
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "request_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }

    lines = [
        f"workload {workload}, seed {seed}, {len(runner.requests)} requests per pass, "
        f"{len(plain)} untraced + {len(traced)} traced passes in {time.monotonic() - start:.1f} s",
        "load: one process, one pass at a time, closed loop (next request after the previous returns)",
        "machine: " + json.dumps(passes[0]["machine"]) + f"; BLAS threads set to {BLAS_THREADS}",
        f"requests: {' '.join(r['key'] for r in runner.requests[:6])}{' ...' if len(runner.requests) > 6 else ''}",
        f"pass_s {summary['pass_s']:.6g} s  (median; {quartiles([p['pass_s'] for p in plain])})",
        f"request_p50_s {summary['request_p50_s']:.6g} s  (median; {quartiles(latencies)})",
    ]
    p90_line = f"request_p90_s not reported: n={len(latencies)} leaves fewer than 10 samples beyond it"
    if len(latencies) >= 11:
        p90 = statistics.quantiles(latencies, n=10)[8]
        beyond = sum(1 for x in latencies if x > p90)
        if beyond >= 10:
            p90_line = f"request_p90_s {p90:.6g} s  (n={len(latencies)}, {beyond} samples beyond)"
    lines.append(p90_line)
    lines += [
        f"setup_s {summary['setup_s']:.6g} s  (median; {quartiles([p['setup_s'] for p in setups])})",
        f"peak_rss_mb {summary['peak_rss_mb']:.6g} MB  (median; {quartiles([p['peak_rss_mb'] for p in plain])})",
        f"error_rate {summary['failed'] / summary['attempted']:.6g} ratio  ({summary['failed']} of {summary['attempted']} requests failed)",
    ]
    for r in failed[:5]:
        lines.append(f"  failed {r['key']}: {'; '.join(r['problems'])[:300]}")

    if trace:
        layer = {}
        names = sorted({k for p in traced for k in p["trace"]})
        for name in names:
            layer[name] = statistics.median(p["trace"][name] for p in traced)
        layer["cli.bytes_written"] = statistics.median(p["bytes_written"] for p in traced)
        layer["setup.import_s"] = statistics.median(p["import_s"] for p in passes)
        layer["setup.load_s"] = statistics.median(p["load_s"] for p in passes)
        layer.update(split)
        layer["trace.overhead_s"] = layer["trace.pass_s"] - summary["pass_s"]
        summary["layer"] = layer
        lines.append("per-layer (median over traced passes; *.s inclusive, *.self_s minus child spans):")
        for name in sorted(layer):
            lines.append(f"  {name} {layer[name]:.6g} {unit_of(name)}")
        lines.append(
            f"traced pass_s {layer['trace.pass_s']:.6g} s vs untraced {summary['pass_s']:.6g} s: "
            f"overhead {layer['trace.overhead_s']:.6g} s; unattributed {layer['unattributed_s']:.6g} s"
        )
    return summary, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "molpol" / "cli.py", DATASETS) if not p.exists()]
    if missing:
        sys.stderr.write(f"perfbench: not a molpol checkout, missing {', '.join(map(str, missing))}\n")
        return 2

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        summary, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run is using it

    if args.trace:
        metrics = {name: {"value": summary["layer"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    sys.stdout.write("\n".join(lines) + "\n")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
