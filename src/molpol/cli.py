"""Command-line interface.

Subcommands: validate, levels, fcf, alpha, magic, dress, plan, windows.
Exit codes: 0 success, 2 usage, 3 bad data, 4 numerical failure.

All numeric output is formatted to 12 significant digits with fixed field and
row order, so identical inputs produce byte-identical files. Frequency ranges
are lo:hi:step in cm^-1 (inclusive endpoints when the step divides evenly);
pass --nm to give the same range in nanometers. A range may hold at most
MAX_SCAN_POINTS points; a longer one is a data error, raised before any grid
is allocated, and so is one whose step is too small to keep its points
distinct. A radial --grid rmin:rmax:n needs finite bounds and at most
rovib.MAX_GRID_POINTS points, checked before any matrix is built. The
line-list options and the initial level (--v/--J/--M) are checked by the
LineListOptions and LevelId a request builds, before any solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .control import (
    MAGIC_TOL,
    dd_interaction,
    find_magic,
    find_windows,
    induced_dipole,
    lattice_plan,
    microwave_plan,
)
from .coupling import POLARIZATIONS, Polarization, dipole_matrix
from .dataset import load_dataset
from .errors import DataError, NumericalError
from .polarizability import (
    LevelId,
    LineListOptions,
    alpha_at,
    build_line_list,
    default_grid,
    scan_spectrum,
    solve_initial,
)
from .rovib import MAX_LEVELS, RadialGrid, convergence_check, sampled_curve, solved_block


def _fmt(x) -> str:
    """One value as _rendered renders a cell; nan, inf and -inf come out as those words."""
    return _rendered([x])[0]


def _jclean(obj):
    """Round floats to the CSV precision and keep JSON strictly valid."""
    if isinstance(obj, dict):
        return {k: _jclean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jclean(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return _fmt(x)
        return float(_fmt(x))
    if isinstance(obj, complex):
        return {"re": _jclean(obj.real), "im": _jclean(obj.imag)}
    return obj


def _write(path: Path, text: str) -> None:
    """Write one output file, making its directory first; a path the OS
    refuses is a data error naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}")


def _rendered(column) -> list[str]:
    """A column's cells as strings, in the format its first cell picks: a
    string as is, an integer exact, a float to 12 significant digits."""
    col = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if not col or isinstance(col[0], str):
        return col
    fmt = "%d" if isinstance(col[0], (int, np.integer)) else "%.12g"
    return [fmt % x for x in col]


def _write_table(path: Path, head: str, sep: str, columns) -> None:
    """One line per row, its cells joined by sep; a caller that writes the
    same values twice passes the _rendered columns."""
    _write(path, "\n".join([head, *map(sep.join, zip(*map(_rendered, columns)))]) + "\n")


def _write_csv(path: Path, header: list[str], columns) -> None:
    _write_table(path, ",".join(header), ",", columns)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(_jclean(obj), indent=2) + "\n")


def _write_plot(path: Path, axis_names: list[str], columns) -> None:
    """Plot-ready whitespace table; header names the axes and units."""
    _write_table(path, "# " + "  ".join(axis_names), " ", columns)


MAX_SCAN_POINTS = 1_000_000


def _parse_range(text: str, in_nm: bool) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise DataError(f"range must be lo:hi:step, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise DataError(f"range needs finite values, hi >= lo and step > 0, got {text!r}")
    if in_nm and (lo <= 0 or math.isinf(1.0e7 / lo)):
        raise DataError(f"a wavelength range needs lo > 0 nm with 1e7/lo finite, got {text!r}")
    steps = (hi - lo) / step + 1e-9
    if steps >= MAX_SCAN_POINTS:   # also catches an overflow to inf
        raise DataError(f"range {text!r} has more than MAX_SCAN_POINTS = {MAX_SCAN_POINTS} points")
    count = int(math.floor(steps)) + 1
    grid = lo + step * np.arange(count)
    return np.sort(1.0e7 / grid) if in_nm else grid


def _parse_radial_grid(text: str) -> RadialGrid:
    try:
        rmin, rmax, n = text.split(":")
        return RadialGrid(float(rmin), float(rmax), int(n))
    except ValueError as exc:
        raise DataError(f"grid must be rmin:rmax:n (Bohr), got {text!r}: {exc}")


def _parse_gamma(text: str):
    """--gamma as a number where the text reads as one, else the text; LineListOptions checks either."""
    try:
        return float(text)
    except ValueError:
        return text


def _nonnegative(args, *names: str) -> None:
    """Raise a DataError unless each named criterion flag is >= 0 (inf passes, NaN fails)."""
    for name in names:
        value = getattr(args, name)
        if not value >= 0.0:
            raise DataError(f"--{name.replace('_', '-')} must be >= 0, got {value!r}")


def _frequency(args) -> tuple[float, float]:
    """(nu [cm^-1], wavelength [nm]) of a plan or dress, from --nm if given, else --nu.

    Either must be finite and > 0, with a finite 1e7/value; a finite --intensity
    >= 0 and a finite --d-ind (where given) are checked here too.
    """
    flag, value = ("--nm", args.nm) if args.nm is not None else ("--nu", args.nu)
    if value is None:
        raise DataError(f"{args.command} needs --nu (cm^-1) or --nm (nanometers)")
    if not 0.0 < value < math.inf or math.isinf(1.0e7 / value):
        raise DataError(f"{flag} must be finite and > 0 with 1e7/{flag[2:]} finite, got {value!r}")
    if not 0.0 <= args.intensity < math.inf:
        raise DataError(f"--intensity must be finite and >= 0, got {args.intensity!r}")
    d_ind = getattr(args, "d_ind", None)
    if d_ind is not None and not math.isfinite(d_ind):
        raise DataError(f"--d-ind must be finite, got {d_ind!r}")
    return (1.0e7 / value, value) if args.nm is not None else (value, 1.0e7 / value)


def _dataset(args):
    path = args.dataset if args.dataset is not None else os.environ.get("MOLPOL_DATASET")
    if path is None:
        raise DataError("no dataset given and MOLPOL_DATASET is not set")
    return load_dataset(path)


def _grid(args, ds) -> RadialGrid:
    return _parse_radial_grid(args.grid) if args.grid else default_grid(ds)


def _level(args, ds) -> tuple[LevelId, Polarization]:
    """The initial level (--state, default the ground state, --v/--J/--M) and its --pol."""
    return LevelId(args.state or ds.ground_label, args.v, args.J, args.M), Polarization.parse(args.pol)


def _options(args, ds) -> LineListOptions:
    return LineListOptions(
        grid=_grid(args, ds),
        max_levels=args.max_levels,
        gamma=_parse_gamma(args.gamma),
        d_floor=args.d_floor,
        j_max_branch=args.j_max_branch,
        v_max=args.v_max,
    )


def _outdir(args) -> Path:
    """--out, checked but not made: the deepest part of it that exists must be
    a writable directory. _write makes the rest at the first file, so a
    request that fails before it writes leaves no directory behind."""
    out = Path(args.out)
    base = out
    try:
        while not base.exists():
            base = base.parent
    except OSError as exc:
        raise DataError(f"--out {out} is not a usable directory: {exc.strerror or exc}")
    if not base.is_dir():
        raise DataError(f"--out {out} is not a usable directory: {base} is not a directory")
    if not os.access(base, os.W_OK | os.X_OK):
        raise DataError(f"--out {out} is not a usable directory: {base} is not writable")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    ds = _dataset(args)
    report = {
        "name": ds.name,
        "reduced_mass_amu": ds.reduced_mass,
        "ground": ds.ground_label,
        "default_gamma_mhz": ds.default_gamma,
        "rotor": None if ds.rotor is None else {"r_e_bohr": ds.rotor.r_e},
        "states": [
            {
                "label": s.label,
                "omega": s.omega,
                "asymptote_cm1": s.asymptote_energy if math.isfinite(s.asymptote_energy) else "inf",
                "potential_points": len(ds.potentials[s.label].r),
                "has_interior_minimum": ds.potentials[s.label].has_interior_minimum,
            }
            for s in ds.states
        ],
        "dipole_curves": [f"{d.bra}->{d.ket}" for d in ds.dipoles],
    }
    sys.stdout.write(json.dumps(_jclean(report), indent=2) + "\n")
    return 0


def cmd_levels(args) -> int:
    ds = _dataset(args)
    state = args.state or ds.ground_label
    grid = _grid(args, ds)
    out = _outdir(args)
    levels = solved_block(ds, state, args.J, grid, args.max_levels).levels
    _write_csv(
        out / "levels.csv",
        ["state", "v", "J", "E_cm1"],
        zip(*[(l.state, l.v, l.J, l.energy) for l in levels]),
    )
    if args.check:
        rep = convergence_check(ds, state, args.J, grid, args.max_levels)
        if not rep.converged:
            raise NumericalError(
                f"levels not converged (refine {_fmt(rep.shift_refine)}, extend {_fmt(rep.shift_extend)}, "
                f"trim {_fmt(rep.shift_trim)}, contract {_fmt(rep.shift_contract)} cm-1)"
            )
    sys.stdout.write(f"{len(levels)} bound levels for {state} J={args.J} -> {out / 'levels.csv'}\n")
    return 0


def cmd_fcf(args) -> int:
    ds = _dataset(args)
    lower = args.initial_state or ds.ground_label
    upper = args.final_state
    if args.max_v < 0:
        raise DataError(f"--max-v must be at least 0, got {args.max_v}")
    grid = _grid(args, ds)
    out = _outdir(args)
    lev_i = solved_block(ds, lower, args.J, grid, args.max_v + 1).levels
    lev_f = solved_block(ds, upper, args.Jp, grid, args.max_v + 1).levels
    dip = ds.dipole_between(lower, upper)
    # both tables as (v', v) block products: the overlaps are the d(R) = 1 case
    overlap = dipole_matrix(lev_f, lev_i, np.ones(grid.n))
    fcf = overlap * overlap
    d_vib = dipole_matrix(lev_f, lev_i, sampled_curve(ds, dip, grid)) if dip is not None else np.full_like(fcf, math.nan)
    rows = [
        (li.v, li.J, lf.v, lf.J, fcf[f, i], d_vib[f, i])
        for i, li in enumerate(lev_i)
        for f, lf in enumerate(lev_f)
    ]
    _write_csv(out / "fcf.csv", ["v", "J", "vp", "Jp", "FCF", "d_vib"], zip(*rows))
    sys.stdout.write(f"{len(rows)} rows -> {out / 'fcf.csv'}\n")
    return 0


def cmd_alpha(args) -> int:
    ds = _dataset(args)
    opts = _options(args, ds)
    initial, pol = _level(args, ds)
    nus = _parse_range(args.nu, args.nm)
    out = _outdir(args)
    spec = scan_spectrum(ds, initial, pol, nus, opts)
    table = [_rendered(col) for col in (nus, spec.values.real, spec.values.imag)]
    _write_csv(out / "alpha.csv", ["nu_cm1", "re_alpha_Hz_per_Wcm2", "im_alpha_Hz_per_Wcm2"], table)
    _write_csv(
        out / "resonances.csv",
        ["nu_res", "state", "v", "J", "peak"],
        zip(*[(r.nu, r.state, r.v, r.J, r.peak) for r in spec.resonances]),
    )
    _write_json(
        out / "alpha_report.json",
        {
            "initial": dataclasses.asdict(initial),
            "polarization": pol.name,
            "points": len(nus),
            "poles": int(np.count_nonzero(np.isnan(spec.values.real))),
            "resonances_in_range": len(spec.resonances),
            "strength_capture": spec.capture,
            "options": spec.options,
        },
    )
    if args.plot:
        _write_plot(
            out / "alpha_plot.dat",
            ["nu [cm^-1]", "Re alpha/h [Hz/(W/cm^2)]", "Im alpha/h [Hz/(W/cm^2)]"],
            table,
        )
    sys.stdout.write(f"{len(nus)} points, {len(spec.resonances)} resonances -> {out / 'alpha.csv'}\n")
    return 0


def cmd_magic(args) -> int:
    _nonnegative(args, "tol")
    ds = _dataset(args)
    opts = _options(args, ds)
    state = args.state or ds.ground_label
    nus = _parse_range(args.nu, args.nm)
    pol_a = Polarization.parse(args.pol_a)
    pol_b = Polarization.parse(args.pol_b)
    ida = LevelId(state, args.va, args.Ja, args.Ma)
    idb = LevelId(state, args.vb, args.Jb, args.Mb)
    out = _outdir(args)
    spec_a = scan_spectrum(ds, ida, pol_a, nus, opts)
    spec_b = scan_spectrum(ds, idb, pol_b, nus, opts)
    roots = find_magic(spec_a, spec_b, tol=args.tol)
    _write_json(
        out / "magic.json",
        {
            "level_a": dataclasses.asdict(ida) | {"polarization": pol_a.name},
            "level_b": dataclasses.asdict(idb) | {"polarization": pol_b.name},
            "scan": {"lo_cm1": float(nus[0]), "hi_cm1": float(nus[-1]), "points": len(nus)},
            "tol_cm1": args.tol,
            "roots": [{"nu_cm1": r.nu, "alpha_hz_per_wcm2": r.alpha} for r in roots],
            "options": spec_a.options,
        },
    )
    if args.plot:
        for tag, spec in (("a", spec_a), ("b", spec_b)):
            _write_plot(out / f"magic_{tag}.dat", ["nu [cm^-1]", f"Re alpha/h ({tag}) [Hz/(W/cm^2)]"], (nus, spec.values.real))
        _write_plot(
            out / "magic_roots.dat",
            ["nu [cm^-1]", "Re alpha/h [Hz/(W/cm^2)]"],
            ([r.nu for r in roots], [r.alpha.real for r in roots]),
        )
    sys.stdout.write(f"{len(roots)} magic crossings -> {out / 'magic.json'}\n")
    return 0


def cmd_dress(args) -> int:
    nu, _ = _frequency(args)
    ds = _dataset(args)
    opts = _options(args, ds)
    out = _outdir(args)
    plan = microwave_plan(ds, nu, args.intensity, v=args.v, options=opts)
    _write_json(
        out / "dress.json",
        {
            "nu_cm1": plan.nu,
            "intensity_wcm2": plan.intensity,
            "delta_e_cm1": plan.delta_e,
            "detuning_cm1": plan.detuning,
            "rabi_cm1": plan.rabi,
            "d_permanent_debye": plan.d_permanent,
            "d_induced_debye": plan.d_induced,
            "saturation": plan.d_induced / (0.5 * plan.d_permanent) if plan.d_permanent else 0.0,
        },
    )
    sys.stdout.write(
        f"induced dipole {_fmt(plan.d_induced)} D "
        f"({_fmt(plan.d_induced / plan.d_permanent if plan.d_permanent else 0.0)} of permanent) "
        f"-> {out / 'dress.json'}\n"
    )
    return 0


def cmd_plan(args) -> int:
    _, wavelength = _frequency(args)
    nu = 1.0e7 / wavelength
    ds = _dataset(args)
    opts = _options(args, ds)
    initial, pol = _level(args, ds)
    out = _outdir(args)
    lines = build_line_list(ds, initial, pol, opts)
    alpha = alpha_at(lines, nu)
    trap = lattice_plan(alpha, args.intensity, wavelength)
    d_ind = args.d_ind
    if d_ind is None:
        lev0 = solve_initial(ds, initial, opts)
        dip = ds.permanent_dipole(initial.state)
        d_perm = dipole_matrix([lev0], [lev0], sampled_curve(ds, dip, lev0.grid))[0, 0] if dip is not None else 0.0
        d_ind = 0.5 * abs(float(d_perm))
    inter = dd_interaction(d_ind, trap.r_l)
    _write_json(
        out / "plan.json",
        {
            "initial": dataclasses.asdict(initial) | {"polarization": pol.name},
            "wavelength_nm": trap.wavelength_nm,
            "nu_cm1": trap.nu,
            "intensity_wcm2": trap.intensity,
            "alpha_hz_per_wcm2": alpha,
            "v0_over_h_hz": trap.v0_over_h,
            "decoherence_rate_per_s": trap.decoherence_rate,
            "coherent_ratio": trap.coherent_ratio,
            "site_spacing_nm": trap.r_l,
            "interaction": {
                "d_induced_debye": inter.d_induced,
                "v_dd_over_h_hz": inter.v_dd_over_h,
                "delta_t_s": inter.delta_t,
            },
        },
    )
    sys.stdout.write(
        f"V0/h {_fmt(trap.v0_over_h)} Hz, interaction time {_fmt(inter.delta_t)} s -> {out / 'plan.json'}\n"
    )
    return 0


def cmd_windows(args) -> int:
    _nonnegative(args, "min_width", "flatness_cap", "ratio_floor")
    ds = _dataset(args)
    opts = _options(args, ds)
    initial, pol = _level(args, ds)
    nus = _parse_range(args.nu, args.nm)
    out = _outdir(args)
    spec = scan_spectrum(ds, initial, pol, nus, opts)
    wins = find_windows(spec, args.min_width, args.flatness_cap, args.ratio_floor)
    # one row per window: windows.csv lists its values, windows.json names them
    # (the CSV header names the last column max_flatness, without the unit)
    keys = ["nu_lo_cm1", "nu_hi_cm1", "lambda_lo_nm", "lambda_hi_nm", "min_ratio", "max_flatness_per_cm1"]
    # a window from nu = 0 reaches an infinite wavelength
    rows = [
        (w.nu_lo, w.nu_hi, 1.0e7 / w.nu_hi, 1.0e7 / w.nu_lo if w.nu_lo else math.inf, w.min_ratio, w.max_flatness)
        for w in wins
    ]
    _write_csv(out / "windows.csv", [*keys[:-1], "max_flatness"], zip(*rows))
    _write_json(
        out / "windows.json",
        {
            "initial": dataclasses.asdict(initial) | {"polarization": pol.name},
            "criteria": {
                "min_width_cm1": args.min_width,
                "flatness_cap_per_cm1": args.flatness_cap,
                "ratio_floor": args.ratio_floor,
            },
            "windows": [
                dict(zip(keys, row), resonances_excluded_cm1=list(w.resonances_excluded))
                for w, row in zip(wins, rows)
            ],
            "resonances_in_range": len(spec.resonances),
            "strength_capture": spec.capture,
            "options": spec.options,
        },
    )
    if args.plot:
        _write_plot(
            out / "windows_plot.dat",
            ["nu_lo [cm^-1]", "nu_hi [cm^-1]", "min |Re/Im|"],
            ([w.nu_lo for w in wins], [w.nu_hi for w in wins], [w.min_ratio for w in wins]),
        )
    sys.stdout.write(f"{len(wins)} windows -> {out / 'windows.csv'}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_dataset_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", nargs="?", default=None, help="dataset directory (default: $MOLPOL_DATASET)")


def _add_state_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", default=None, help="electronic state label (default: ground state)")


def _add_grid_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", default=None, help="radial grid rmin:rmax:n in Bohr (default: auto)")


def _add_level_args(p: argparse.ArgumentParser, tag: str = "", J: int = 0) -> None:
    """--state plus one level's --v/--J/--M/--pol; magic adds two tagged levels (--va ... --pol-a)."""
    if not tag:
        _add_state_arg(p)
    about = f"level {tag}: " if tag else ""
    p.add_argument(f"--v{tag}", type=int, default=0, help=f"{about}vibrational index (default: 0)")
    p.add_argument(f"--J{tag}", type=int, default=J, help=f"{about}rotational quantum number (default: {J})")
    p.add_argument(f"--M{tag}", type=int, default=0, help=f"{about}magnetic quantum number (default: 0)")
    p.add_argument(
        f"--pol-{tag}" if tag else "--pol",
        default="sigma_z",
        choices=list(POLARIZATIONS),
        help=f"{about}lab polarization (default: sigma_z)",
    )


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    _add_grid_arg(p)
    p.add_argument("--max-levels", type=int, default=MAX_LEVELS, help="bound levels kept per state and J (default: %(default)s)")
    p.add_argument(
        "--gamma",
        default=LineListOptions.gamma,
        help="linewidths: 'computed', 'default', or a value in MHz (default: %(default)s)",
    )
    p.add_argument("--d-floor", type=float, default=LineListOptions.d_floor, help="drop lines below this |d_vib| in Debye (default: %(default)s)")
    p.add_argument("--j-max-branch", type=int, default=None, help="cap on final J (default: J+1)")
    p.add_argument("--v-max", type=int, default=None, help="cap on final v per state (default: all bound)")


def _add_scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", required=True, help="scan range lo:hi:step in cm^-1 (or nm with --nm)")
    p.add_argument("--nm", action="store_true", help="interpret --nu as wavelengths in nm")


def _add_frequency_args(p: argparse.ArgumentParser, what: str) -> None:
    """One frequency as --nu or --nm; _frequency reads --nm when given, else --nu."""
    p.add_argument("--nu", type=float, default=None, help=f"{what} frequency in cm^-1")
    p.add_argument("--nm", type=float, default=None, help=f"{what} wavelength in nm (wins over --nu)")


def _add_out_args(p: argparse.ArgumentParser, plot: bool = True) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current directory)")
    if plot:
        p.add_argument("--plot", action="store_true", help="also write plot-ready .dat files")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no per-request state."""
    ap = argparse.ArgumentParser(
        prog="molpol",
        description="Rovibrational structure, dynamic polarizability, and trap planning for polar diatomics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a dataset and report its contents")
    _add_dataset_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("levels", help="bound rovibrational levels at fixed J")
    _add_dataset_arg(p)
    _add_state_arg(p)
    p.add_argument("--J", type=int, default=0, help="rotational quantum number (default: 0)")
    _add_grid_arg(p)
    p.add_argument("--max-levels", type=int, default=MAX_LEVELS, help="maximum levels returned (default: %(default)s)")
    p.add_argument("--check", action="store_true", help="fail (exit 4) unless grid-converged to 1e-3 cm^-1")
    _add_out_args(p, plot=False)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("fcf", help="Franck-Condon factors and vibronic dipoles between two states")
    _add_dataset_arg(p)
    p.add_argument("--initial-state", default=None, help="lower state label (default: ground state)")
    p.add_argument("--final-state", required=True, help="upper state label")
    p.add_argument("--J", type=int, default=0, help="lower rotational quantum number (default: 0)")
    p.add_argument("--Jp", type=int, default=1, help="upper rotational quantum number (default: 1)")
    p.add_argument("--max-v", type=int, default=10, help="highest v and v' listed (default: 10)")
    _add_grid_arg(p)
    _add_out_args(p, plot=False)
    p.set_defaults(func=cmd_fcf)

    p = sub.add_parser("alpha", help="scan the complex polarizability over a frequency range")
    _add_dataset_arg(p)
    _add_level_args(p)
    _add_engine_args(p)
    _add_scan_args(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("magic", help="frequencies where two levels' Re alpha cross")
    _add_dataset_arg(p)
    _add_state_arg(p)
    _add_level_args(p, "a")
    _add_level_args(p, "b", J=1)
    _add_scan_args(p)
    p.add_argument("--tol", type=float, default=MAGIC_TOL, help="drop a crossing within this many cm^-1 of the previous one (default: %(default)s)")
    _add_engine_args(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser("dress", help="microwave dressing plan on the J=0 -> 1 line")
    _add_dataset_arg(p)
    _add_frequency_args(p, "drive")
    p.add_argument("--intensity", type=float, required=True, help="drive intensity in W/cm^2")
    p.add_argument("--v", type=int, default=0, help="vibrational index to dress (default: 0)")
    _add_engine_args(p)
    _add_out_args(p, plot=False)
    p.set_defaults(func=cmd_dress)

    p = sub.add_parser("plan", help="optical-lattice trap plan at one wavelength")
    _add_dataset_arg(p)
    _add_level_args(p)
    _add_engine_args(p)
    _add_frequency_args(p, "trap")
    p.add_argument("--intensity", type=float, required=True, help="peak intensity in W/cm^2")
    p.add_argument("--d-ind", type=float, default=None, help="induced dipole in Debye (default: d_perm/2)")
    _add_out_args(p, plot=False)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("windows", help="clean trapping windows inside a frequency scan")
    _add_dataset_arg(p)
    _add_level_args(p)
    _add_engine_args(p)
    _add_scan_args(p)
    p.add_argument("--min-width", type=float, default=10.0, help="minimum window width in cm^-1 (default: 10)")
    p.add_argument("--flatness-cap", type=float, default=0.1, help="max |d ln|alpha||/d nu in 1/cm^-1 (default: 0.1)")
    p.add_argument("--ratio-floor", type=float, default=1e6, help="min |Re alpha|/|Im alpha| (default: 1e6)")
    _add_out_args(p)
    p.set_defaults(func=cmd_windows)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        sys.stderr.write(f"molpol: data: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"molpol: numerical: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
