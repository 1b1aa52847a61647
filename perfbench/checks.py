"""Output checks for benchmark requests.

Every request's `--out` directory is checked after its pass; a request whose
check finds a problem counts as failed. References live in perfbench/refs:

- optical_alpha.dat and optical_report.txt are copies of the committed
  out/optical tables. alpha.csv must match the first to 1e-7 relative per
  value: the seed itself differs from it by up to 2.1e-9 near the 9336.5
  cm^-1 resonance, so a tighter tolerance fails on correct output.
  windows.csv must list the report's 20 windows.
- recorded.json holds the magic.json, plan.json and dress.json of every
  optical-magic and rotor-sweep request, recorded by record_refs.py. Numbers
  must agree to 1e-7 relative.
- The rotor J0 M0 sigma_z magic root must equal 8B with the rotational
  constant B = hbar^2 / (2 mu r_e^2) taken from molecule.json: a closed form
  that shares no code with molpol.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

RTOL = 1e-7
ATOL = 0.0          # zeros (Im alpha at --gamma 0) must stay exactly zero
B_RTOL = 1e-9

# CODATA 2022, SI
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2.0 * math.pi)
C_CM = 2.99792458e10
AMU = 1.66053906892e-27
BOHR = 5.29177210544e-11

_WINDOW = re.compile(r"^window ([0-9.]+)\.\.([0-9.]+) cm\^-1 .*min \|Re/Im\| ([0-9.e+-]+),")


def load_refs() -> dict:
    alpha = []
    for line in (REFS / "optical_alpha.dat").read_text().splitlines():
        if line and not line.startswith("#"):
            alpha.append(tuple(float(x) for x in line.split()))
    report = (REFS / "optical_report.txt").read_text().splitlines()
    windows = [tuple(float(g) for g in m.groups()) for m in map(_WINDOW.match, report) if m]
    resonances = next(int(l.split(":")[1]) for l in report if l.startswith("resonances in range"))
    recorded = json.loads((REFS / "recorded.json").read_text())
    return {"alpha": alpha, "windows": windows, "resonances": resonances, "recorded": recorded}


def close(got: float, ref: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= rtol * max(abs(ref), abs(got)) + atol


def compare(got, ref, where: str = "") -> list[str]:
    """Recursive comparison of parsed JSON: numbers within tolerance, the rest equal."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        return [p for k in ref for p in compare(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {len(got) if isinstance(got, list) else got!r} items, expected {len(ref)}"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare(g, r, f"{where}[{i}]")]
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if isinstance(got, numeric) and not isinstance(got, bool) and close(float(got), float(ref)):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def _rows(path: Path, sep: str | None) -> list[list[float]]:
    rows = []
    for line in path.read_text().splitlines()[1:]:
        rows.append([float(x) for x in line.split(sep)])
    return rows


def check_alpha(out: Path, refs: dict) -> list[str]:
    ref = refs["alpha"]
    rows = _rows(out / "alpha.csv", ",")
    if len(rows) != len(ref):
        return [f"alpha.csv: {len(rows)} rows, expected {len(ref)}"]
    problems = []
    for row, r in zip(rows, ref):
        if row[0] != r[0] or not (close(row[1], r[1]) and close(row[2], r[2])):
            problems.append(f"alpha.csv at {row[0]}: {row[1:]} vs {list(r[1:])}")
    if _rows(out / "alpha_plot.dat", None) != rows:
        problems.append("alpha_plot.dat does not repeat alpha.csv")
    report = json.loads((out / "alpha_report.json").read_text())
    if report["points"] != len(ref) or report["resonances_in_range"] != refs["resonances"]:
        problems.append(f"alpha_report.json: {report['points']} points, {report['resonances_in_range']} resonances")
    return problems[:5]


def _three_digits(got: float, ref: float) -> bool:
    """got rounds to ref, which the report prints with 3 significant digits."""
    if ref <= 0.0:
        return got == ref
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(ref)) - 2)
    return abs(got - ref) <= 1.001 * half_ulp


def check_windows(out: Path, refs: dict) -> list[str]:
    ref = refs["windows"]
    rows = _rows(out / "windows.csv", ",")
    if len(rows) != len(ref):
        return [f"windows.csv: {len(rows)} windows, expected {len(ref)}"]
    problems = []
    for row, (lo, hi, ratio) in zip(rows, ref):
        if abs(row[0] - lo) > 1e-6 or abs(row[1] - hi) > 1e-6 or not _three_digits(row[4], ratio):
            problems.append(f"windows.csv: {row[0]}..{row[1]} ratio {row[4]} vs {lo}..{hi} ratio {ratio}")
    if len(json.loads((out / "windows.json").read_text())["windows"]) != len(ref):
        problems.append("windows.json disagrees with windows.csv")
    return problems[:5]


def rotational_constant(dataset_dir: Path) -> float:
    """B in cm^-1 from the rotor block of molecule.json."""
    meta = json.loads((dataset_dir / "molecule.json").read_text())
    mu = meta["reduced_mass"] * AMU
    r_e = meta["rotor"]["r_e"] * BOHR
    return HBAR**2 / (2.0 * mu * r_e**2) / (PLANCK * C_CM)


def check_eight_b(magic: dict, b_rot: float) -> list[str]:
    roots = [r["nu_cm1"] for r in magic["roots"]]
    if any(close(nu, 8.0 * b_rot, B_RTOL, 0.0) for nu in roots):
        return []
    return [f"magic roots {roots} miss 8B = {8.0 * b_rot!r} cm^-1"]


def check_request(req: dict, out: Path, refs: dict, datasets: Path) -> list[str]:
    """Problems found in one request's output directory; empty when it is correct."""
    try:
        if req["kind"] == "alpha":
            return check_alpha(out, refs)
        if req["kind"] == "windows":
            return check_windows(out, refs)
        got = json.loads((out / f"{req['kind']}.json").read_text())
        problems = compare(got, refs["recorded"][req["key"]], req["kind"])
        if req["kind"] == "magic" and req.get("J") == 0 and req.get("M") == 0 and req.get("pol") == "sigma_z":
            problems += check_eight_b(got, rotational_constant(datasets / req["dataset"]))
        return problems[:5]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
