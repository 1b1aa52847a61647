"""Radial rovibrational levels on a uniform grid (sinc-DVR).

The radial Hamiltonian for rotational quantum number J is

    H = T + diag( V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) )

with the standard sinc-DVR kinetic matrix on a uniform grid of spacing h:

    T_ii' = hbar^2/(2 mu h^2) * pi^2/3                     (i = i')
    T_ii' = hbar^2/(2 mu h^2) * 2 (-1)^(i-i') / (i-i')^2    (i != i')

T is a Toeplitz matrix, built from its first row as T_ii' = row[|i - i'|].
The eigensolve is numpy's full symmetric eigh; of its ascending pairs the
lowest max_levels that lie at least 1e-6 cm^-1 below the state's asymptote
are kept as bound levels.

The kept levels live on part of the grid, so solve_radial first solves the
principal submatrix of H on a span of consecutive grid points chosen before
solving (a trimmed grid, as in mapped-grid DVRs):

- e_top is where the WKB count N(E) = (1/pi) sum_i k_i h + 1/2, with
  k_i = sqrt(mu (E - V_J(R_i)) / (hbar^2/2)), reaches max_levels + 2, found by
  bisection below the asymptote. When N at the asymptote (or at the top of
  V_J on the grid) is no larger, every bound level may be kept and the top
  ones reach the box, so the full grid is solved.
- The span runs from the outermost turning points at e_top outward until the
  Agmon sum sum_i kappa_i h, kappa_i = sqrt(mu (V_J(R_i) - e_top) / (hbar^2/2)),
  reaches AGMON_DEPTH on each side. A span over 90% of the grid is not worth
  trimming; the full grid is solved.
- Edge check: when a kept level has |psi| sqrt(h) > EDGE_AMP at a trimmed edge,
  or lies above e_top, the block is solved again on the full grid. There is no
  widening loop: one trimmed solve and at most one full one.

The wavefunctions of a trimmed solve are zero outside the span, on the same
grid, so every consumer of W is unchanged; energies and wavefunctions agree
with the full solve to about 1e-11 cm^-1 and 1e-13.

T is a finite section of the Toeplitz matrix whose symbol
hbar^2/(2 mu h^2) theta^2 is >= 0 on [-pi, pi], so T is positive definite and
every eigenvalue of H lies above the smallest diagonal entry
V(R_i) + hbar^2 J(J+1)/(2 mu R_i^2). energy_floor returns that minimum less a
rounding margin without solving; it lets a caller skip a block none of whose
levels can lie below a given energy. The bound holds for a trimmed solve too:
its T is a smaller section of the same Toeplitz matrix, and the smallest
diagonal entry of a submatrix is at least that of the full one.

A grid needs finite bounds, a spacing with a finite 1/h^2 and at most
MAX_GRID_POINTS points (checked before any matrix exists), and a finite
effective potential on every point.

Eigenvectors are normalized as sum_i psi_i^2 h = 1 and sign-fixed so the
innermost antinode is positive. The k levels of one solve are the rows of
one read-only (k, n) matrix W, and each level's wavefunction is a view of its
row, so callers share them; the coupling layer stacks the rows of any level
list (wavefunction_matrix) for its block products.

A rotor-tagged dataset whose potential has no interior minimum bypasses the
eigensolve: the single v = 0 level is a one-node delta at the grid node
nearest the rotor radius, with E = V + B J(J+1), B = hbar^2/(2 mu R_node^2).
A minimum-free potential without the rotor tag is solved honestly, which
leaves no bound levels; that case returns an empty list and logs a warning.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import HBAR2_OVER_TWO
from .dataset import MoleculeDataset
from .errors import DataError, GridError, QuantumNumberError

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
EDGE_AMP = 1e-12     # largest |psi| sqrt(h) a kept level may have at a trimmed span's edge
AGMON_DEPTH = 37.0   # sum kappa h from a turning point to a trimmed edge (e^-37 ~ 1e-16)
MAX_GRID_POINTS = 5000   # a dense n x n Hamiltonian of at most 200 MB


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid: n points from r_min to r_max inclusive (Bohr)."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise GridError(f"need 0 < r_min < r_max < inf, got {self.r_min}, {self.r_max}")
        if not 16 <= self.n <= MAX_GRID_POINTS:
            raise GridError(f"need 16 to MAX_GRID_POINTS = {MAX_GRID_POINTS} grid points, got {self.n}")
        # the kinetic scale hbar^2 / (2 mu h^2) needs a finite, nonzero 1/h^2
        if not sys.float_info.min <= self.h * self.h < math.inf:
            raise GridError(f"grid spacing {self.h} Bohr has no finite 1/h^2")

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


def _kinetic_row(grid: RadialGrid, reduced_mass: float) -> np.ndarray:
    """First row of the sinc-DVR kinetic matrix; its first m entries give any m-point section."""
    k = np.arange(1, grid.n)
    row = np.empty(grid.n)
    row[0] = math.pi**2 / 3.0
    row[1:] = np.where(k % 2, -2.0, 2.0) / (k * k)
    row *= HBAR2_OVER_TWO / (reduced_mass * grid.h**2)
    return row


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row `row`: T_ij = row[|i - j|].

    Row i is the window starting at m - 1 - i of (row reversed, then row[1:]);
    copying the windows is about 10x faster than gathering row[|i - j|].
    """
    m = len(row)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), m)[::-1].copy()


def kinetic_matrix(grid: RadialGrid, reduced_mass: float) -> np.ndarray:
    """Sinc-DVR kinetic-energy matrix in cm^-1 for a mass in amu."""
    return _toeplitz(_kinetic_row(grid, reduced_mass))


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
    """V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) on the grid: the diagonal H adds to T.

    Entries where either term overflows (R near 0) come back non-finite,
    without a warning; solve_radial rejects such a grid.
    """
    pts = grid.points
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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


def _trim_span(v_eff: np.ndarray, h: float, reduced_mass: float, max_levels: int, asymptote: float):
    """(span, e_top) for a trimmed solve, or None when the block needs the full grid.

    e_top is where the WKB count N(E) = (1/pi) sum_i k_i h + 1/2 reaches
    max_levels + 2; the span runs from the turning points at e_top out until
    the Agmon sum sum_i kappa_i h reaches AGMON_DEPTH on each side.
    """
    n = len(v_eff)
    scale = reduced_mass / HBAR2_OVER_TWO
    target = max_levels + 2

    def count(e: float) -> float:
        return float(np.sqrt(scale * np.maximum(e - v_eff, 0.0)).sum()) * h / math.pi + 0.5

    lo, hi = float(v_eff.min()), min(asymptote, float(v_eff.max()))
    if count(hi) <= target:
        return None
    for _ in range(60):   # count(lo) <= target < count(hi)
        mid = 0.5 * (lo + hi)
        if count(mid) <= target:
            lo = mid
        else:
            hi = mid
    allowed = np.flatnonzero(v_eff < hi)
    kappa_h = np.sqrt(scale * np.maximum(v_eff - hi, 0.0)) * h
    inner = np.cumsum(kappa_h[: allowed[0]][::-1])
    outer = np.cumsum(kappa_h[allowed[-1] + 1 :])
    start = max(int(allowed[0]) - int(np.searchsorted(inner, AGMON_DEPTH)) - 1, 0)
    stop = min(int(allowed[-1]) + int(np.searchsorted(outer, AGMON_DEPTH)) + 2, n)
    if stop - start > 0.9 * n:
        return None
    return slice(start, stop), hi


def _eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
    """The lowest max_levels energies below cutoff of the span's principal
    submatrix and their (k, n) grid wavefunctions, zero outside the span;
    None when a trimmed span (finite e_top) fails its check: no kept level, a
    kept level above e_top, or one with |vec| > EDGE_AMP at an edge that is
    not the grid's own.
    """
    v = v_eff[span]
    ham = _toeplitz(row[: len(v)])
    ham[np.diag_indices_from(ham)] += v
    energies, vectors = np.linalg.eigh(ham)
    k = min(max_levels, int(np.count_nonzero(energies < cutoff)))   # energies ascend
    if math.isfinite(e_top):
        edges = [i for i, cut in ((0, span.start > 0), (-1, span.stop < len(v_eff))) if cut]
        if not k or energies[k - 1] > e_top or np.abs(vectors[edges, :k]).max(initial=0.0) > EDGE_AMP:
            return None
    w = np.zeros((k, grid.n))
    w[:, span] = vectors[:, :k].T / math.sqrt(grid.h)
    return energies[:k], w


def _solve(
    ds: MoleculeDataset, state: str, J: int, grid: RadialGrid, max_levels: int, trim: bool
) -> list[RovibLevel]:
    st = ds.state(state)
    if J < st.omega:
        raise QuantumNumberError(f"J = {J} below omega = {st.omega} for state {state!r}")
    if max_levels < 1:
        raise QuantumNumberError(f"max_levels must be at least 1, got {max_levels}")
    pot = ds.potentials[state]
    if ds.rotor is not None and not pot.has_interior_minimum:
        return [_rotor_level(ds, state, J, grid)]

    row = _kinetic_row(grid, ds.reduced_mass)
    v_eff = _effective_potential(ds, state, J, grid)
    if not np.all(np.isfinite(row[0] + v_eff)):
        raise DataError(f"state {state!r} at J = {J}: the radial Hamiltonian is not finite on {grid}")
    asym = st.asymptote_energy
    cutoff = asym - BOUND_GUARD if math.isfinite(asym) else math.inf
    trimmed = _trim_span(v_eff, grid.h, ds.reduced_mass, max_levels, asym) if trim else None
    solved = _eigensolve(row, v_eff, grid, max_levels, cutoff, *trimmed) if trimmed else None
    if solved is None:
        solved = _eigensolve(row, v_eff, grid, max_levels, cutoff, slice(0, grid.n))
    energies, w = solved
    for psi in w:
        psi *= _antinode_sign(psi)
    w.flags.writeable = False
    levels = [
        RovibLevel(state=state, v=v, J=J, energy=float(energies[v]), grid=grid, wavefunction=w[v])
        for v in range(len(energies))
    ]
    if not levels:
        log.warning("no bound levels for state %r at J=%d on %s", state, J, grid)
    return levels


def solve_radial(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = 64,
) -> list[RovibLevel]:
    """Bound levels of one electronic state at fixed J, lowest first, at most max_levels."""
    return _solve(ds, state, J, grid, max_levels, trim=True)


def wavefunction_matrix(levels: Sequence[RovibLevel]) -> np.ndarray:
    """(k, n) matrix whose rows are the levels' wavefunctions, stacked into a new array."""
    return np.array([lev.wavefunction for lev in levels], dtype=float).reshape(len(levels), -1)


@dataclass
class ConvergenceReport:
    """Energy stability of a solve under grid refinement, box extension and trimming."""

    converged: bool
    tol: float
    n_levels: int
    shift_refine: float    # max |dE| when n -> 2n
    shift_extend: float    # max |dE| when r_max -> 1.5 r_max (same spacing)
    shift_trim: float      # max |dE| against a solve on the full grid, untrimmed


def convergence_check(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = 64,
    tol: float = 1e-3,
    base: list[RovibLevel] | None = None,
) -> ConvergenceReport:
    """Re-solve on a denser grid, on a longer one and untrimmed; compare per-level energies.

    base is solve_radial(ds, state, J, grid, max_levels) when the caller has
    already solved it; it is solved here otherwise.
    """
    # both probe grids are built, and checked against MAX_GRID_POINTS, before any solve
    fine_grid = RadialGrid(grid.r_min, grid.r_max, 2 * grid.n)
    r_ext = grid.r_min + 1.5 * (grid.r_max - grid.r_min)
    ext_grid = RadialGrid(grid.r_min, r_ext, int(round((r_ext - grid.r_min) / grid.h)) + 1)
    if base is None:
        base = solve_radial(ds, state, J, grid, max_levels)
    fine = solve_radial(ds, state, J, fine_grid, max_levels)
    ext = solve_radial(ds, state, J, ext_grid, max_levels)
    full = _solve(ds, state, J, grid, max_levels, trim=False)

    def max_shift(other: list[RovibLevel]) -> float:
        k = min(len(base), len(other))
        if k == 0:
            return math.inf if base or other else 0.0
        return max(abs(base[i].energy - other[i].energy) for i in range(k))

    s_fine = max_shift(fine)
    s_ext = max_shift(ext)
    s_trim = max_shift(full)
    ok = bool(base) and s_fine < tol and s_ext < tol and s_trim < tol
    return ConvergenceReport(
        converged=ok,
        tol=tol,
        n_levels=len(base),
        shift_refine=s_fine,
        shift_extend=s_ext,
        shift_trim=s_trim,
    )


def rotational_constant(level: RovibLevel, ds: MoleculeDataset) -> float:
    """Effective B_v = <hbar^2/(2 mu R^2)> over the level's wavefunction, cm^-1."""
    pts = level.grid.points
    w = level.wavefunction**2 * level.grid.h
    return float(np.sum(w * HBAR2_OVER_TWO / (ds.reduced_mass * pts**2)))
