"""Radial rovibrational levels on a uniform grid (sinc-DVR).

The radial Hamiltonian for rotational quantum number J is

    H = T + diag( V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) )

with the standard sinc-DVR kinetic matrix on a uniform grid of spacing h:

    T_ii' = hbar^2/(2 mu h^2) * pi^2/3                     (i = i')
    T_ii' = hbar^2/(2 mu h^2) * 2 (-1)^(i-i') / (i-i')^2    (i != i')

T is a Toeplitz matrix, built from its first row. The eigensolve asks only
for the max_levels lowest pairs (LAPACK evr on an index subset), then keeps
those at least 1e-6 cm^-1 below the state's asymptote as bound levels.

T is a finite section of the Toeplitz matrix whose symbol
hbar^2/(2 mu h^2) theta^2 is >= 0 on [-pi, pi], so T is positive definite and
every eigenvalue of H lies above the smallest diagonal entry
V(R_i) + hbar^2 J(J+1)/(2 mu R_i^2). energy_floor returns that minimum less a
rounding margin without solving; it lets a caller skip a block none of whose
levels can lie below a given energy.

Eigenvectors are normalized as sum_i psi_i^2 h = 1 and sign-fixed so the
innermost antinode is positive. The k levels of one solve are the rows of
one read-only (k, n) matrix W, and each level's wavefunction is a view of its
row: callers share them, and the coupling layer takes W itself
(wavefunction_matrix) for its block products without a copy.

A rotor-tagged dataset whose potential has no interior minimum bypasses the
eigensolve: the single v = 0 level is a one-node delta at the grid node
nearest the rotor radius, with E = V + B J(J+1), B = hbar^2/(2 mu R_node^2).
A minimum-free potential without the rotor tag is solved honestly, which
leaves no bound levels; that case returns an empty list and logs a warning.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, toeplitz

from .constants import HBAR2_OVER_TWO
from .dataset import MoleculeDataset
from .errors import QuantumNumberError

__all__ = [
    "RadialGrid",
    "RovibLevel",
    "ConvergenceReport",
    "kinetic_matrix",
    "solve_radial",
    "energy_floor",
    "wavefunction_matrix",
    "convergence_check",
    "rotational_constant",
]

log = logging.getLogger(__name__)

BOUND_GUARD = 1e-6   # cm^-1 below the asymptote


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid: n points from r_min to r_max inclusive (Bohr)."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.n < 16:
            raise ValueError(f"need at least 16 grid points, got {self.n}")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n)


@dataclass
class RovibLevel:
    """One bound rovibrational level with its grid wavefunction."""

    state: str
    v: int
    J: int
    energy: float                # cm^-1
    grid: RadialGrid
    wavefunction: np.ndarray     # sum psi^2 h = 1, read-only


def kinetic_matrix(grid: RadialGrid, reduced_mass: float) -> np.ndarray:
    """Sinc-DVR kinetic-energy matrix in cm^-1 for a mass in amu."""
    k = np.arange(1, grid.n)
    row = np.empty(grid.n)
    row[0] = math.pi**2 / 3.0
    row[1:] = np.where(k % 2, -2.0, 2.0) / (k * k)
    row *= HBAR2_OVER_TWO / (reduced_mass * grid.h**2)
    return toeplitz(row)


def _antinode_sign(psi: np.ndarray) -> float:
    """Sign of psi at its innermost antinode (first interior local max of |psi|)."""
    a = np.abs(psi)
    thr = 0.01 * a.max()
    interior = a[1:-1]
    cand = np.nonzero((interior >= a[:-2]) & (interior > a[2:]) & (interior >= thr))[0]
    i = int(cand[0]) + 1 if len(cand) else int(np.argmax(a >= thr))
    return -1.0 if psi[i] < 0.0 else 1.0


def _rotor_level(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid) -> RovibLevel:
    pts = grid.points
    i = int(np.argmin(np.abs(pts - ds.rotor.r_e)))
    r_node = pts[i]
    b_node = HBAR2_OVER_TWO / (ds.reduced_mass * r_node**2)
    energy = float(ds.potentials[state](r_node)) + b_node * J * (J + 1)
    w = np.zeros((1, grid.n))
    w[0, i] = 1.0 / math.sqrt(grid.h)
    w.flags.writeable = False
    return RovibLevel(state=state, v=0, J=J, energy=energy, grid=grid, wavefunction=w[0])


def _effective_potential(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid) -> np.ndarray:
    """V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) on the grid: the diagonal H adds to T."""
    pts = grid.points
    return ds.potentials[state](pts) + HBAR2_OVER_TWO * J * (J + 1) / (ds.reduced_mass * pts**2)


def energy_floor(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid) -> float:
    """A lower bound in cm^-1 on every level solve_radial can return for this block.

    The smallest effective-potential entry, less 1e-9 of a bound on |H|
    (max |V_J| plus the top of T's spectrum, hbar^2 pi^2 / (2 mu h^2)) to cover
    the eigensolver's rounding. A rotor level's energy is the effective
    potential at one node, so the bound holds for rotor blocks too.
    """
    v_eff = _effective_potential(ds, state, J, grid)
    t_top = HBAR2_OVER_TWO * math.pi**2 / (ds.reduced_mass * grid.h**2)
    return float(v_eff.min()) - 1e-9 * (float(np.abs(v_eff).max()) + t_top)


def solve_radial(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = 64,
) -> list[RovibLevel]:
    """Bound levels of one electronic state at fixed J, lowest first, at most max_levels."""
    st = ds.state(state)
    if J < st.omega:
        raise QuantumNumberError(f"J = {J} below omega = {st.omega} for state {state!r}")
    if max_levels < 1:
        raise QuantumNumberError(f"max_levels must be at least 1, got {max_levels}")
    pot = ds.potentials[state]
    if ds.rotor is not None and not pot.has_interior_minimum:
        return [_rotor_level(ds, state, J, grid)]

    ham = kinetic_matrix(grid, ds.reduced_mass)
    ham[np.diag_indices_from(ham)] += _effective_potential(ds, state, J, grid)
    energies, vectors = eigh(
        ham, overwrite_a=True, subset_by_index=(0, min(max_levels, grid.n) - 1), driver="evr"
    )

    asym = st.asymptote_energy
    cutoff = asym - BOUND_GUARD if math.isfinite(asym) else math.inf
    k = int(np.count_nonzero(energies < cutoff))   # energies ascend
    w = np.ascontiguousarray(vectors[:, :k].T) / math.sqrt(grid.h)
    for psi in w:
        psi *= _antinode_sign(psi)
    w.flags.writeable = False
    levels = [
        RovibLevel(state=state, v=v, J=J, energy=float(energies[v]), grid=grid, wavefunction=w[v])
        for v in range(k)
    ]
    if not levels:
        log.warning("no bound levels for state %r at J=%d on %s", state, J, grid)
    return levels


def wavefunction_matrix(levels: Sequence[RovibLevel]) -> np.ndarray:
    """(k, n) matrix whose rows are the levels' wavefunctions.

    Levels v = 0..k-1 of one solve are answered with a view of that solve's
    own read-only matrix; any other list is stacked into a new array.
    """
    if levels:
        w = levels[0].wavefunction.base
        if w is not None and w.ndim == 2 and all(
            lev.v == v and lev.wavefunction.base is w for v, lev in enumerate(levels)
        ):
            return w[: len(levels)]
    return np.array([lev.wavefunction for lev in levels], dtype=float).reshape(len(levels), -1)


@dataclass
class ConvergenceReport:
    """Energy stability of a solve under grid refinement and box extension."""

    converged: bool
    tol: float
    n_levels: int
    shift_refine: float    # max |dE| when n -> 2n
    shift_extend: float    # max |dE| when r_max -> 1.5 r_max (same spacing)


def convergence_check(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = 64,
    tol: float = 1e-3,
) -> ConvergenceReport:
    """Re-solve on a denser and on a longer grid; compare per-level energies."""
    base = solve_radial(ds, state, J, grid, max_levels)
    fine = solve_radial(ds, state, J, RadialGrid(grid.r_min, grid.r_max, 2 * grid.n), max_levels)
    r_ext = grid.r_min + 1.5 * (grid.r_max - grid.r_min)
    n_ext = int(round((r_ext - grid.r_min) / grid.h)) + 1
    ext = solve_radial(ds, state, J, RadialGrid(grid.r_min, r_ext, n_ext), max_levels)

    def max_shift(other: list[RovibLevel]) -> float:
        k = min(len(base), len(other))
        if k == 0:
            return math.inf if base or other else 0.0
        return max(abs(base[i].energy - other[i].energy) for i in range(k))

    s_fine = max_shift(fine)
    s_ext = max_shift(ext)
    ok = bool(base) and s_fine < tol and s_ext < tol
    return ConvergenceReport(
        converged=ok, tol=tol, n_levels=len(base), shift_refine=s_fine, shift_extend=s_ext
    )


def rotational_constant(level: RovibLevel, ds: MoleculeDataset) -> float:
    """Effective B_v = <hbar^2/(2 mu R^2)> over the level's wavefunction, cm^-1."""
    pts = level.grid.points
    w = level.wavefunction**2 * level.grid.h
    return float(np.sum(w * HBAR2_OVER_TWO / (ds.reduced_mass * pts**2)))
