"""Control planning: microwave dressing, trap plans, magic frequencies, windows.

The microwave-induced dipole uses the exact two-level dressed-state result

    d_ind = (d_perm / 2) * Omega / sqrt(Omega^2 + delta^2),
    hbar Omega = d_perm * E * sqrt(w_ang),   delta = h nu - Delta E,

which saturates at d_perm/2 on resonance and reduces to the perturbative
first-order mixing form for |delta| >> Omega. The drive is always the J=0 -> 1
line, whose angular weight w_ang = (2J+1)(2J'+1) [3j]^2 is 1/3 for every lab
polarization (each spherical component q feeds M' = q with the same weight),
so w_ang is the constant DEFAULT_ANGULAR_WEIGHT, not a setting.

find_magic and find_windows share one resonance screen: link i of a scan grid,
[nu_i, nu_(i+1)], is clear when no listed resonance lies in it. A root is only
bracketed on a clear link. A window is a maximal run of clear links that are
flat (|Delta ln|alpha|| / Delta nu <= flatness_cap) and join points with finite
alpha != 0 and |Re alpha|/|Im alpha| >= ratio_floor, spanning >= min_width; its
flanks are the nearest listed resonances below and above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEBYE_CM, EPS0_SI, H_SI, J_PER_CM1, field_from_intensity
from .dataset import MoleculeDataset
from .errors import DataError, DegenerateSpectraError
from .polarizability import (
    LevelId,
    LineListOptions,
    PolarizabilitySpectrum,
    alpha_kernel,
    solve_initial,
)
from .coupling import dipole_matrix
from .rovib import sampled_curve

__all__ = [
    "MicrowavePlan",
    "InteractionEstimate",
    "LatticePlan",
    "MagicPoint",
    "FrequencyWindow",
    "rabi_energy",
    "induced_dipole",
    "microwave_plan",
    "dd_interaction",
    "lattice_plan",
    "find_magic",
    "find_windows",
]

DEFAULT_ANGULAR_WEIGHT = 1.0 / 3.0    # the J=0 -> 1 line's weight, the same for every polarization
MAGIC_TOL = 1e-6    # cm^-1, radius within which find_magic merges nearby roots


def rabi_energy(d_perm: float, intensity: float) -> float:
    """hbar * Rabi frequency in cm^-1 for a dipole [Debye] on the J=0 -> 1 line in a wave of I [W/cm^2]."""
    e_field = field_from_intensity(intensity)
    return abs(d_perm) * DEBYE_CM * e_field * math.sqrt(DEFAULT_ANGULAR_WEIGHT) / J_PER_CM1


def induced_dipole(d_perm: float, delta_e: float, nu: float, intensity: float) -> float:
    """Lab-frame dipole [Debye] induced by a microwave near the delta_e transition.

    Exactly d_perm/2 on resonance (nu = delta_e); 0 for zero drive.
    """
    if intensity == 0.0 or d_perm == 0.0:
        return 0.0
    om = rabi_energy(d_perm, intensity)
    det = nu - delta_e
    return 0.5 * abs(d_perm) * om / math.hypot(om, det)


@dataclass(frozen=True)
class MicrowavePlan:
    """A microwave dressing configuration and its induced dipole."""

    nu: float              # drive frequency, cm^-1
    intensity: float       # W/cm^2
    delta_e: float         # rotational transition energy, cm^-1
    detuning: float        # nu - delta_e, cm^-1
    rabi: float            # hbar*Omega, cm^-1
    d_permanent: float     # Debye
    d_induced: float       # Debye


def microwave_plan(
    ds: MoleculeDataset,
    nu: float,
    intensity: float,
    v: int = 0,
    options: LineListOptions | None = None,
) -> MicrowavePlan:
    """Dress the v-th ground level on its J=0 -> 1 rotational line."""
    opts = options or LineListOptions()
    g = ds.ground_label
    dip = ds.permanent_dipole(g)
    if dip is None:
        raise DataError(f"dataset {ds.name!r} has no permanent dipole for {g!r}")
    lev0 = solve_initial(ds, LevelId(g, v, 0, 0), opts)
    lev1 = solve_initial(ds, LevelId(g, v, 1, 0), opts)
    # <J=1| d |J=0>: which level is the row fixes the product's rounding
    d_perm = abs(float(dipole_matrix([lev1], [lev0], sampled_curve(ds, dip, lev0.grid))[0, 0]))
    delta_e = lev1.energy - lev0.energy
    return MicrowavePlan(
        nu=nu,
        intensity=intensity,
        delta_e=delta_e,
        detuning=nu - delta_e,
        rabi=rabi_energy(d_perm, intensity),
        d_permanent=d_perm,
        d_induced=induced_dipole(d_perm, delta_e, nu, intensity),
    )


@dataclass(frozen=True)
class InteractionEstimate:
    """Dipole-dipole interaction of two molecules one lattice site apart."""

    d_induced: float       # Debye
    r_l: float             # site spacing, nm
    v_dd_over_h: float     # Hz
    delta_t: float         # shortest entanglement/exchange time 1/(V/h), s; inf for d=0


def dd_interaction(d_induced: float, r_l_nm: float) -> InteractionEstimate:
    """V_dd = d^2/(4 pi eps0 R^3) at spacing R [nm], and the implied gate time.

    Raises DataError when d^2, R^3 or V_dd leaves the float range.
    """
    if r_l_nm <= 0.0:
        raise ValueError("site spacing must be positive")
    d_si = abs(d_induced) * DEBYE_CM
    try:
        v_over_h = d_si**2 / (4.0 * math.pi * EPS0_SI * (r_l_nm * 1e-9) ** 3) / H_SI
    except (OverflowError, ZeroDivisionError):
        v_over_h = math.nan
    if not math.isfinite(v_over_h):
        raise DataError(f"dipole-dipole estimate out of float range for d = {d_induced!r} D at {r_l_nm!r} nm spacing")
    delta_t = math.inf if v_over_h == 0.0 else 1.0 / v_over_h
    return InteractionEstimate(d_induced=abs(d_induced), r_l=r_l_nm, v_dd_over_h=v_over_h, delta_t=delta_t)


@dataclass(frozen=True)
class LatticePlan:
    """Optical trap figures at one frequency and intensity."""

    wavelength_nm: float
    nu: float                  # cm^-1
    intensity: float           # W/cm^2
    v0_over_h: float           # trap depth, Hz (positive = trapping for Re alpha < 0 convention below)
    decoherence_rate: float    # photon-scattering decoherence, 1/s
    coherent_ratio: float      # |Re alpha| / |Im alpha|
    r_l: float                 # site spacing lambda/2, nm


def lattice_plan(alpha: complex, intensity: float, wavelength_nm: float) -> LatticePlan:
    """Build a LatticePlan from alpha/h [Hz/(W/cm^2)] at the trap frequency.

    V0/h = -Re(alpha) * I; the decoherence rate is 2 Im(alpha) I / hbar with
    alpha = h * (alpha/h), i.e. 4 pi Im(alpha/h) I in 1/s (declared convention).
    """
    value = complex(alpha)
    re, im = value.real, value.imag
    ratio = math.inf if im == 0.0 else abs(re) / abs(im)
    return LatticePlan(
        wavelength_nm=wavelength_nm,
        nu=1.0e7 / wavelength_nm,
        intensity=intensity,
        v0_over_h=0.0 - re * intensity,   # +0.0, not -0.0, at zero intensity
        decoherence_rate=4.0 * math.pi * im * intensity,
        coherent_ratio=ratio,
        r_l=wavelength_nm / 2.0,
    )


@dataclass(frozen=True)
class MagicPoint:
    """A frequency where two levels' Re(alpha) cross."""

    nu: float
    alpha: complex     # alpha/h of spectrum a at the root


def _resonance_screen(nus: np.ndarray, resonances) -> np.ndarray:
    """clear[i]: the first resonance at or above nus[i] lies above nus[i + 1] (ascending nus)."""
    res = np.sort(np.asarray(resonances, dtype=float))
    first = np.append(res, math.inf)[np.searchsorted(res, nus)]
    return first[:-1] > nus[1:]


def _bisect_all(g, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Roots of g in the brackets [a_i, b_i] (g(a_i) = fa_i, opposite in sign
    to g(b_i)), bisected in lockstep: each step evaluates g, a function of a
    frequency array, once on the midpoints of every bracket still open.

    Each bracket follows its own midpoints and stops on its own: on an exact
    zero of g, within max(1e-15, 1e-14 max(|a_i|, |b_i|)) of width (far past
    the reporting tolerance, so that a root still satisfies the crossing when
    re-evaluated off-grid), or when the midpoint is not inside the bracket
    (which that width limit leaves only to an overflowing a + b). The root is
    then that midpoint, 0.5 (a + b).
    """
    limit = np.maximum(1e-15, 1e-14 * np.maximum(np.abs(a), np.abs(b)))
    root = np.empty(len(a))
    i = np.arange(len(a))   # the open brackets
    while True:
        m = 0.5 * (a + b)
        go = (b - a > limit) & (m > a) & (m < b)
        root[i[~go]] = m[~go]
        if not go.any():
            return root
        i, a, b, fa, limit, m = i[go], a[go], b[go], fa[go], limit[go], m[go]
        fm = g(m)
        zero = fm == 0.0
        root[i[zero]] = m[zero]
        go = ~zero
        i, a, b, fa, limit, m, fm = i[go], a[go], b[go], fa[go], limit[go], m[go], fm[go]
        left = (fa < 0.0) != (fm < 0.0)
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)


def find_magic(
    spec_a: PolarizabilitySpectrum,
    spec_b: PolarizabilitySpectrum,
    tol: float = MAGIC_TOL,
) -> list[MagicPoint]:
    """All crossings of Re alpha_a and Re alpha_b on the scan grid.

    Sign changes are bracketed on the shared grid and polished by bisection of
    the off-grid difference, every bracket in lockstep (_bisect_all: one
    kernel call per spectrum and step, each bracket on its own midpoints);
    `tol` (cm^-1) sets the radius within which nearby roots are merged.
    Brackets containing a listed resonance of either spectrum are skipped
    (those sign flips are poles, not crossings). Raises DegenerateSpectraError
    when the spectra agree to 1e-12 (relative) everywhere.
    """
    if not np.array_equal(spec_a.nu, spec_b.nu):
        raise ValueError("spectra must share a frequency grid")
    nus = spec_a.nu
    ra = spec_a.values.real
    rb = spec_b.values.real
    diff = ra - rb
    finite = np.isfinite(ra) & np.isfinite(rb)
    scale = max(
        float(np.max(np.abs(ra[finite]), initial=0.0)),
        float(np.max(np.abs(rb[finite]), initial=0.0)),
    )
    if scale == 0.0 or float(np.max(np.abs(diff[finite]), initial=0.0)) <= 1e-12 * scale:
        raise DegenerateSpectraError("the two spectra are identical; no magic crossing is defined")

    # bracket i is [nus[i], nus[i + 1]]: both ends finite, a zero at its low
    # end or a sign change across it, and no resonance inside
    lo, hi = nus[:-1], nus[1:]
    d1, d2 = diff[:-1], diff[1:]
    clear = _resonance_screen(nus, [r.nu for spec in (spec_a, spec_b) for r in spec.resonances])
    crossing = finite[:-1] & finite[1:] & ((d1 == 0.0) | (d1 * d2 < 0.0)) & clear

    # each spectrum's line arrays are built once for the whole bisection; the
    # kernels return alpha_at's bits at every frequency, each column on its own
    kernel_a, kernel_b = alpha_kernel(spec_a.lines), alpha_kernel(spec_b.lines)

    def g(nu: np.ndarray) -> np.ndarray:
        return kernel_a(nu).real - kernel_b(nu).real

    at = np.flatnonzero(crossing)
    found = lo[at]   # a zero at a bracket's low end is its root
    change = d1[at] != 0.0
    found[change] = _bisect_all(g, lo[at][change], hi[at][change], d1[at][change])
    kept: list[float] = []
    for root in found.tolist():
        if not (kept and abs(root - kept[-1]) <= tol):
            kept.append(root)
    return [MagicPoint(nu=nu, alpha=a) for nu, a in zip(kept, kernel_a(np.array(kept)).tolist())]


@dataclass(frozen=True)
class FrequencyWindow:
    """A clean trapping interval inside a scan.

    resonances_excluded holds the flanking resonance frequencies that bound
    the window (at most one on each side, cm^-1).
    """

    nu_lo: float
    nu_hi: float
    min_ratio: float        # worst |Re/Im| inside
    max_flatness: float     # worst |d ln|alpha| / d nu| inside, 1/cm^-1
    resonances_excluded: tuple[float, ...]


def find_windows(
    spectrum: PolarizabilitySpectrum,
    min_width: float,
    flatness_cap: float,
    ratio_floor: float,
) -> list[FrequencyWindow]:
    """Maximal resonance-free runs of the scan that stay flat and coherent (rule in the module docstring)."""
    nus = spectrum.nu
    vals = spectrum.values
    mag = np.abs(vals)
    re = np.abs(np.real(vals))
    im = np.abs(np.imag(vals))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(im == 0.0, math.inf, re / np.where(im == 0.0, 1.0, im))
        logmag = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -math.inf)
        slope = np.abs(np.diff(logmag)) / np.diff(nus)
    point_ok = np.isfinite(mag) & (mag > 0.0) & (ratio >= ratio_floor)
    res = np.sort([r.nu for r in spectrum.resonances])
    link = point_ok[:-1] & point_ok[1:] & np.isfinite(slope) & (slope <= flatness_cap) & _resonance_screen(nus, res)

    # a resonance on a node breaks both links touching it, so no window holds it;
    # rising and falling edges of link alternate, each pair one run's first and last node
    edges = np.flatnonzero(np.diff(np.concatenate(([False], link, [False]))))
    windows: list[FrequencyWindow] = []
    for start, last in edges.reshape(-1, 2).tolist():
        lo, hi = float(nus[start]), float(nus[last])
        if not (hi - lo >= min_width):
            continue
        below, above = np.searchsorted(res, lo, side="left"), np.searchsorted(res, hi, side="right")
        flank = res[max(below - 1, 0) : below].tolist() + res[above : above + 1].tolist()
        windows.append(
            FrequencyWindow(
                nu_lo=lo,
                nu_hi=hi,
                min_ratio=float(np.min(ratio[start : last + 1])),
                max_flatness=float(np.max(slope[start:last], initial=0.0)),
                resonances_excluded=tuple(flank),
            )
        )
    return windows
