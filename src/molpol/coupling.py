"""Angular coupling, vibrational overlaps, and natural linewidths.

Wigner 3-j symbols are evaluated from the Racah factorial sum in exact
integer/rational arithmetic (Python ints), with a single float rounding at
the end, for j up to 50 (half-integers included).

Angular line strengths for Hund's case (c) states use the standard squared
matrix element of the q-th spherical dipole component,

    w = (2J+1)(2J'+1) [3j(J',1,J; -M',q,M)]^2 [3j(J',1,J; -Om',dOm,Om)]^2

with dOm = Om' - Om and M' = M + q. Linear lab polarizations enter as
incoherent sums over their spherical components: each component feeds a
distinct final M', so cross terms vanish identically.

Radial dipole matrix elements between two lists of levels on one grid come
from one product, W_a diag(d(R) h) W_b^T (dipole_matrix), with the dipole
curve sampled once per loaded dataset and grid (rovib.sampled_curve);
vibronic_dipole is its 1 x 1 case, which samples the curve itself. Einstein-A
linewidths of a whole upper (state, J) block come from one masked
nu^3 d^2 * branch sum per lower (state, J) block (natural_linewidths);
natural_linewidth is its one-level case.

Every lab polarization is one entry of the POLARIZATIONS table, name ->
spherical components ((q, amplitude), ...); Polarization.parse, its named
constructors and the command line's choices all read that table.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import EINSTEIN_A_FACTOR
from .dataset import DipoleCurve, MoleculeDataset
from .errors import QuantumNumberError
from .rovib import RadialGrid, RovibLevel, sampled_curve, wavefunction_matrix

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

J_MAX_SUPPORTED = 50


def _half(x: float) -> int:
    """Angular momentum as a doubled integer; rejects non-half-integers."""
    d = round(2.0 * x)
    if abs(2.0 * x - d) > 1e-9:
        raise ValueError(f"{x} is not a half-integer")
    return int(d)


def _fact(doubled: int) -> int:
    # factorial of doubled/2; caller guarantees doubled is even and >= 0
    return math.factorial(doubled // 2)


def _sqrt_big(num: int, den: int) -> float:
    """sqrt(num/den) for huge positive ints without float overflow."""
    s = max(0, (den.bit_length() - num.bit_length() + 130) // 2 + 1) + 30
    val = math.isqrt((num << (2 * s)) // den)
    return math.ldexp(float(val), -s)


@lru_cache(maxsize=None)
def _w3j(dj1: int, dj2: int, dj3: int, dm1: int, dm2: int, dm3: int) -> float:
    if dm1 + dm2 + dm3 != 0:
        return 0.0
    if abs(dm1) > dj1 or abs(dm2) > dj2 or abs(dm3) > dj3:
        return 0.0
    if dj3 < abs(dj1 - dj2) or dj3 > dj1 + dj2:
        return 0.0
    if (dj1 + dj2 + dj3) % 2 != 0:
        return 0.0
    if (dj1 + dm1) % 2 or (dj2 + dm2) % 2 or (dj3 + dm3) % 2:
        return 0.0

    # triangle coefficient times the six (j +- m)! factors, as one exact ratio
    num = (
        _fact(dj1 + dj2 - dj3)
        * _fact(dj1 - dj2 + dj3)
        * _fact(-dj1 + dj2 + dj3)
        * _fact(dj1 + dm1)
        * _fact(dj1 - dm1)
        * _fact(dj2 + dm2)
        * _fact(dj2 - dm2)
        * _fact(dj3 + dm3)
        * _fact(dj3 - dm3)
    )
    den = _fact(dj1 + dj2 + dj3 + 2)

    k_lo = max(0, (dj2 - dj3 - dm1) // 2, (dj1 - dj3 + dm2) // 2)
    k_hi = min((dj1 + dj2 - dj3) // 2, (dj1 - dm1) // 2, (dj2 + dm2) // 2)
    total = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        dk = 2 * k
        term = Fraction(
            1,
            _fact(dk)
            * _fact(dj1 + dj2 - dj3 - dk)
            * _fact(dj1 - dm1 - dk)
            * _fact(dj2 + dm2 - dk)
            * _fact(dj3 - dj2 + dm1 + dk)
            * _fact(dj3 - dj1 - dm2 + dk),
        )
        total += -term if k % 2 else term
    if total == 0:
        return 0.0
    sign = -1.0 if ((dj1 - dj2 - dm3) // 2) % 2 else 1.0
    mag = _sqrt_big(num, den) * abs(float(total))
    return math.copysign(mag, sign * total)


def wigner3j(j1: float, j2: float, j3: float, m1: float, m2: float, m3: float) -> float:
    """Wigner 3-j symbol; selection-rule violations return 0, j > 50 raises."""
    if max(j1, j2, j3) > J_MAX_SUPPORTED:
        raise QuantumNumberError(f"j = {max(j1, j2, j3):g} above the supported 3-j range ({J_MAX_SUPPORTED})")
    if min(j1, j2, j3) < 0:
        raise QuantumNumberError(f"negative j = {min(j1, j2, j3):g}")
    return _w3j(_half(j1), _half(j2), _half(j3), _half(m1), _half(m2), _half(m3))


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

    @classmethod
    def sigma_z(cls) -> "Polarization":
        return cls.parse("sigma_z")

    @classmethod
    def sigma_x(cls) -> "Polarization":
        return cls.parse("sigma_x")

    @classmethod
    def sigma_y(cls) -> "Polarization":
        return cls.parse("sigma_y")

    @classmethod
    def spherical(cls, q: int) -> "Polarization":
        if q not in (-1, 0, 1):
            raise ValueError("q must be -1, 0, or +1")
        return cls.parse("q0" if q == 0 else f"q{q:+d}")

    def weight_on(self, q: int) -> float:
        return sum(abs(a) ** 2 for qq, a in self.components if qq == q)


def angular_weight(
    J: int, M: int, Jp: int, Mp: int, q: int, omega: int = 0, omega_p: int = 0
) -> float:
    """Squared angular dipole matrix element for one spherical component q.

    Zero whenever a selection rule fails (M' != M + q, |dJ| > 1, J = J' for
    omega 0-0, J below omega, ...). All rules emerge from the 3-j symbols.
    """
    if Mp != M + q:
        return 0.0
    if abs(M) > J or abs(Mp) > Jp or J < omega or Jp < omega_p:
        return 0.0
    if M < 0 or (M == 0 and q < 0):
        # mirror to a canonical sign so M <-> -M degeneracy is exact in floats
        M, Mp, q = -M, -Mp, -q
    a = wigner3j(Jp, 1, J, -Mp, q, M)
    b = wigner3j(Jp, 1, J, -(omega_p), omega_p - omega, omega)
    return (2 * J + 1) * (2 * Jp + 1) * a * a * b * b


def branch_strength(J_up: int, omega_up: int, J_lo: int, omega_lo: int) -> float:
    """M-summed emission branch factor; sums to 1 over the allowed J_lo."""
    b = wigner3j(J_lo, 1, J_up, -(omega_lo), omega_lo - omega_up, omega_up)
    return (2 * J_lo + 1) * b * b


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
    exactly this gamma.
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
        nu = e_up[:, None] - np.array([lo.energy for lo in group])
        below = nu > 0.0
        d = dipole_matrix(upper, group, sampled_curve(ds, dip, upper[0].grid))
        total += np.where(below, EINSTEIN_A_FACTOR * nu**3 * d * d * br, 0.0).sum(axis=1)
        routed |= below.any(axis=1)
    return np.where(routed, total / (2.0 * math.pi * 1.0e6), ds.default_gamma)


def natural_linewidth(
    level: RovibLevel,
    ds: MoleculeDataset,
    lower_levels: Sequence[RovibLevel],
) -> float:
    """Natural linewidth of one level in MHz: the one-level natural_linewidths."""
    return float(natural_linewidths([level], ds, lower_levels)[0])
