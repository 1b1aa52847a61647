"""Angular coupling, vibrational overlaps, and natural linewidths.

Every 3-j symbol a dipole line needs is rank-1, (J' 1 J; -M', q, M), whose
square is an exact ratio of Python ints in closed form (_square) at any J.

Angular line strengths for Hund's case (c) states use the standard squared
matrix element of the q-th spherical dipole component,

    w = (2J+1)(2J'+1) [3j(J',1,J; -M',q,M)]^2 [3j(J',1,J; -Om',dOm,Om)]^2

with dOm = Om' - Om and M' = M + q, formed exactly and rounded once. Linear lab polarizations enter as
incoherent sums over their spherical components: each component feeds a
distinct final M', so cross terms vanish identically.

Radial dipole matrix elements between two lists of levels on one grid come
from one product, W_a diag(d(R) h) W_b^T (dipole_matrix), with the dipole
curve sampled once per loaded dataset and grid (rovib.sampled_curve). The
product runs on one BLAS thread (rovib.one_blas_thread), so its bits do not
depend on the thread count. vibronic_dipole is its 1 x 1 case, which samples
the curve itself. Einstein-A linewidths of a whole upper (state, J) block come
from one masked nu^3 d^2 * branch sum per lower (state, J) block
(natural_linewidths); natural_linewidth is its one-level case.

No package code calls vibronic_dipole, natural_linewidth or wigner3j: they stay
for the benchmark's tracer (perfbench/tracing.py) and the tests, and
franck_condon for the acceptance battery. The fcf command and the plans read
dipole_matrix instead.

Every lab polarization is one entry of the POLARIZATIONS table, name ->
spherical components ((q, amplitude), ...); Polarization.parse and the
command line's choices both read that table.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import EINSTEIN_A_FACTOR
from .dataset import DipoleCurve, MoleculeDataset
from .errors import NumericalError, QuantumNumberError
from .rovib import RadialGrid, RovibLevel, one_blas_thread, sampled_curve, wavefunction_matrix

__all__ = [
    "POLARIZATIONS",
    "Polarization",
    "LineStrength",
    "wigner3j",
    "angular_weight",
    "branch_strength",
    "dipole_route",
    "dipole_matrix",
    "vibronic_dipole",
    "franck_condon",
    "natural_linewidths",
    "natural_linewidth",
]


def _square(Jp: int, Mp: int, J: int, M: int) -> tuple[int, int]:
    """(J' 1 J; -M', M'-M, M)^2 as an exact ratio (num, den); (0, 1) where a
    selection rule fails.

    The j2 = 1 Clebsch-Gordan square <J M; 1 q | J' M'>^2 over 2J'+1, q = M'-M,
    from its closed form (Edmonds, Angular Momentum in Quantum Mechanics,
    1957, Table 2). The q = +1 and q = -1 rows trade places under M' -> -M', so
    M <-> -M gives the same integers.
    """
    q, m = Mp - M, Mp
    if abs(q) > 1 or abs(Jp - J) > 1 or abs(M) > J or abs(Mp) > Jp or J + Jp == 0:
        return 0, 1
    if Jp == J + 1:
        num = 2 * (J + 1 - m) * (J + 1 + m) if q == 0 else (J + q * m) * (J + q * m + 1)
        den = (2 * J + 1) * (2 * J + 2)
    elif Jp == J:
        num = 2 * m * m if q == 0 else (J + q * m) * (J - q * m + 1)
        den = 2 * J * (J + 1)
    else:
        num = 2 * (J - m) * (J + m) if q == 0 else (J - q * m) * (J - q * m + 1)
        den = 2 * J * (2 * J + 1)
    return num, den * (2 * Jp + 1)


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3-j symbol (j1 1 j3; m1 m2 m3) for integer j and m: the rank-1
    symbols of every dipole line. Selection-rule violations return 0; j2 other
    than 1, a non-integer argument or a negative j raises ValueError.

    With J' = j1, M' = -m1, J = j3, M = m3 and q = m2, the value is
    sqrt(_square) times Condon-Shortley's sign of <J M; 1 q | J' M'>
    (negative at J' = J for q = +1 and for q = 0 with M' < 0, and at
    J' = J - 1 for q = 0) times (-1)^(J' + M').
    """
    if j2 != 1 or any(x % 1 for x in (j1, j3, m1, m2, m3)):
        raise ValueError(f"wigner3j covers integer j and m with j2 = 1, got {(j1, j2, j3, m1, m2, m3)}")
    Jp, J, Mp, q, M = int(j1), int(j3), -int(m1), int(m2), int(m3)
    if min(Jp, J) < 0:
        raise QuantumNumberError(f"negative j = {min(Jp, J)}")
    num, den = _square(Jp, Mp, J, M) if Mp == M + q else (0, 1)
    if num == 0:
        return 0.0
    cg_negative = (Jp == J and (q == 1 or (q == 0 and Mp < 0))) or (Jp == J - 1 and q == 0)
    root = math.sqrt(num / den)
    return -root if cg_negative ^ (Jp + Mp) % 2 else root


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# every lab polarization by name, as its spherical components ((q, amplitude), ...)
POLARIZATIONS: dict[str, tuple[tuple[int, complex], ...]] = {
    "sigma_x": ((-1, _INV_SQRT2 + 0j), (1, -_INV_SQRT2 + 0j)),
    "sigma_y": ((-1, _INV_SQRT2 * 1j), (1, _INV_SQRT2 * 1j)),
    "sigma_z": ((0, 1.0 + 0j),),
    "q+1": ((1, 1.0 + 0j),),
    "q0": ((0, 1.0 + 0j),),
    "q-1": ((-1, 1.0 + 0j),),
}


@dataclass(frozen=True)
class Polarization:
    """Lab polarization as spherical components ((q, amplitude), ...)."""

    name: str
    components: tuple[tuple[int, complex], ...]

    @classmethod
    def parse(cls, name: str) -> "Polarization":
        if name not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {name!r}")
        return cls(name, POLARIZATIONS[name])


def angular_weight(
    J: int, M: int, Jp: int, Mp: int, q: int, omega: int = 0, omega_p: int = 0
) -> float:
    """Squared angular dipole matrix element for one spherical component q.

    Zero whenever a selection rule fails (M' != M + q, |dJ| > 1, J = J' for
    omega 0-0, J below omega, ...). All rules emerge from the 3-j squares,
    whose exact product is rounded once.
    """
    if Mp != M + q:
        return 0.0
    na, da = _square(Jp, Mp, J, M)
    nb, db = _square(Jp, omega_p, J, omega)
    return (2 * J + 1) * (2 * Jp + 1) * na * nb / (da * db)


def branch_strength(J_up: int, omega_up: int, J_lo: int, omega_lo: int) -> float:
    """M-summed emission branch factor; sums to 1 over the allowed J_lo."""
    nb, db = _square(J_lo, omega_lo, J_up, omega_up)
    return (2 * J_lo + 1) * nb / db


@dataclass(frozen=True)
class LineStrength:
    """One dipole line feeding the polarizability sum."""

    state: str          # final electronic state label
    v: int              # final vibrational index
    J: int              # final rotational quantum number
    M: int              # final magnetic quantum number
    q: int              # spherical component that drives the line
    d_vib: float        # radial dipole matrix element, Debye
    weight: float       # |a_q|^2 * angular_weight, dimensionless
    delta_e: float      # E_final - E_initial, cm^-1 (signed)
    gamma: float        # natural linewidth of the final level, MHz

    @property
    def nu_res(self) -> float:
        return abs(self.delta_e)


def dipole_route(ds: MoleculeDataset, a: str, b: str) -> DipoleCurve | None:
    """The dipole curve joining states a and b, or None when no route exists.

    An omega 0+ <-> 0- pair has no route even with a curve: the transition is
    parity-forbidden. An untagged omega-0 state counts as 0+.
    """
    dip = ds.dipole_between(a, b)
    sa, sb = ds.state(a), ds.state(b)
    if sa.omega == sb.omega == 0 and (sa.parity_tag or "+") != (sb.parity_tag or "+"):
        return None
    return dip


def _shared_grid(levels: Sequence[RovibLevel]) -> RadialGrid:
    """The radial grid every level lives on; ValueError when they differ."""
    grid = levels[0].grid
    if any(lev.grid is not grid and lev.grid != grid for lev in levels):
        raise ValueError("levels live on different radial grids")
    return grid


def dipole_matrix(
    levels_a: Sequence[RovibLevel], levels_b: Sequence[RovibLevel], d_r: np.ndarray
) -> np.ndarray:
    """Radial matrix elements <a| d(R) |b> in Debye, shape (len(a), len(b)).

    Grid quadrature as one product W_a diag(d(R) h) W_b^T, with d_r the
    dipole curve sampled on the grid every level lives on
    (rovib.sampled_curve).
    """
    if not (levels_a and levels_b):
        return np.zeros((len(levels_a), len(levels_b)))
    grid = _shared_grid([*levels_a, *levels_b])
    with one_blas_thread:   # the product's bits change with the BLAS thread count
        return wavefunction_matrix(levels_a) @ (wavefunction_matrix(levels_b) * (d_r * grid.h)).T


def vibronic_dipole(level_i: RovibLevel, level_f: RovibLevel, dip: DipoleCurve) -> float:
    """Radial matrix element <psi_f| d(R) |psi_i> by grid quadrature, Debye."""
    return float(dipole_matrix([level_f], [level_i], dip(level_i.grid.points))[0, 0])


def franck_condon(level_i: RovibLevel, level_f: RovibLevel) -> float:
    """Franck-Condon factor |<psi_f|psi_i>|^2."""
    h = _shared_grid([level_i, level_f]).h
    ov = float(np.sum(level_f.wavefunction * level_i.wavefunction) * h)
    return ov * ov


def natural_linewidths(
    upper: Sequence[RovibLevel],
    ds: MoleculeDataset,
    lower_levels: Sequence[RovibLevel],
) -> np.ndarray:
    """Natural linewidths in MHz (total decay rate over 2 pi) of one (state, J) block.

    Every upper level shares one state and J. Lower levels are grouped by
    (state, J); a group counts when a dipole route (dipole_route) joins its
    state to the upper one and its branch factor is nonzero. Each group adds
    one masked sum over its levels below each upper level,

        A = nu^3 d_vib^2 * (2J_lo+1) [3j]^2 * EINSTEIN_A_FACTOR   [1/s],

    with d_vib from one dipole_matrix. A level's result is sum(A)/(2 pi) in
    MHz, or the dataset's default_gamma when no radiative route leads below
    it. The h*gamma/2 half-width of the polarizability denominators uses
    exactly this gamma. A sum outside the float range is a NumericalError.
    """
    if not upper:
        return np.zeros(0)
    state, J = upper[0].state, upper[0].J
    if any((lev.state, lev.J) != (state, J) for lev in upper):
        raise ValueError("upper levels must share one (state, J) block")
    omega = ds.state(state).omega
    e_up = np.array([lev.energy for lev in upper])
    total = np.zeros(len(upper))
    routed = np.zeros(len(upper), dtype=bool)
    groups: dict[tuple[str, int], list[RovibLevel]] = {}
    for lo in lower_levels:
        groups.setdefault((lo.state, lo.J), []).append(lo)
    for (lo_state, J_lo), group in groups.items():
        dip = dipole_route(ds, state, lo_state)
        if dip is None:
            continue
        br = branch_strength(J, omega, J_lo, ds.state(lo_state).omega)
        if br == 0.0:
            continue
        # a rate past the float range is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            nu = e_up[:, None] - np.array([lo.energy for lo in group])
            below = nu > 0.0
            d = dipole_matrix(upper, group, sampled_curve(ds, dip, upper[0].grid))
            total += np.where(below, EINSTEIN_A_FACTOR * nu**3 * d * d * br, 0.0).sum(axis=1)
        routed |= below.any(axis=1)
    if not np.isfinite(total).all():
        raise NumericalError(f"natural linewidths of {state} J={J} leave the float range")
    return np.where(routed, total / (2.0 * math.pi * 1.0e6), ds.default_gamma)


def natural_linewidth(
    level: RovibLevel,
    ds: MoleculeDataset,
    lower_levels: Sequence[RovibLevel],
) -> float:
    """Natural linewidth of one level in MHz: the one-level natural_linewidths."""
    return float(natural_linewidths([level], ds, lower_levels)[0])
