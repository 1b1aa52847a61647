"""Radial rovibrational levels on a uniform grid (sinc-DVR).

The radial Hamiltonian for rotational quantum number J is

    H = T + diag( V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) )

with the standard sinc-DVR kinetic matrix on a uniform grid of spacing h:

    T_ii' = hbar^2/(2 mu h^2) * pi^2/3                     (i = i')
    T_ii' = hbar^2/(2 mu h^2) * 2 (-1)^(i-i') / (i-i')^2    (i != i')

T is a Toeplitz matrix, built from its first row as T_ii' = row[|i - i'|].
The eigensolve is LAPACK's full symmetric dsyevd, the routine numpy's eigh
calls, run in place on H (below); of its ascending pairs the
lowest max_levels that lie at least 1e-6 cm^-1 below the state's asymptote
are kept as bound levels.

The kept levels live on part of the grid, so a direct solve first solves the
principal submatrix of H on a span of consecutive grid points chosen before
solving (a trimmed grid, as in mapped-grid DVRs):

- e_top is where the WKB count N(E) = (1/pi) sum_i k_i h + 1/2, with
  k_i = sqrt(mu (E - V_J(R_i)) / (hbar^2/2)), reaches max_levels + 2, found by
  bisection below the asymptote. When N at the asymptote (or at the top of
  V_J on the grid) is no larger, every bound level may be kept and the top
  ones reach the box, so the full grid is solved.
- The span runs from the outermost turning points at e_top outward until the
  Agmon sum sum_i kappa_i h, kappa_i = sqrt(mu (V_J(R_i) - e_top) / (hbar^2/2)),
  reaches AGMON_DEPTH = ln(1/EDGE_AMP) ~ 27.6 on each side: where the WKB
  decay e^-sum reaches the amplitude the edge check allows. A span over 90%
  of the grid is not worth trimming; the full grid is solved.
- Edge check: when a kept level has |psi| sqrt(h) > EDGE_AMP at a trimmed edge,
  or lies above e_top, the block is solved again on the full grid. There is no
  widening loop: one trimmed solve and at most one full one.

The wavefunctions of a trimmed solve are zero outside the span, on the same
grid, so every consumer of W is unchanged; energies and wavefunctions agree
with the full solve to about 1e-11 cm^-1 and 1e-13. On the optical stand-in's
default grid the J0 spans are 457 (X0), 448 (A0) and 472 (B1) of 801 points
at max_levels 64, and kept levels read 2-6e-14 at the span edges, about what
they read on spans cut at an Agmon sum of 37 (1.5-4.4e-14): the eigensolver's
rounding, not the tail, sets that amplitude.

solve_radial solves a state directly only at J0 = omega. Two J of one state
on one grid differ by a diagonal,

    H_J - H_J0 = diag( hbar^2 (J(J+1) - J0(J0+1)) / (2 mu R_i^2) ),

so every other J is contracted (sequential diagonalization and truncation;
Bacic and Light, Annu. Rev. Phys. Chem. 40, 469 (1989)). The J0 solve keeps
its lowest K = min(BASIS_PER_LEVEL max_levels, m) eigenvectors B and
energies E0 on its span; J's levels come from the K x K problem
diag(E0) + B^T diag(v_J - v_J0) B = c diag(e) c^T, with x = B c, under the
same kept-count rule, sign fix and zero padding as a direct solve.

Each contracted level certifies itself: for a symmetric H and a unit x, some
eigenvalue of H lies within ||H x - e x|| of e (Parlett, The Symmetric
Eigenvalue Problem, Thm 4.5.1), with H the explicit span Hamiltonian. Its T
is applied to the trial vectors in slabs of _RESIDUAL_ROWS rows copied out of
a strided view of T's 2m - 1 values (_toeplitz_times), so a contraction never
holds T's m x m matrix (1.7 MB at m = 457). A slab's product can differ from
the whole matrix's in the last bit; that moves a residual by rounding, and
no level or vector, which come from the K x K problem alone. J is solved
directly instead (the fallback) when a kept level's residual exceeds
RESIDUAL_TOL, a kept level fails the J0 span's edge check, or a kept level
or the first one past them lies within its residual of the bound cutoff,
where the kept count could differ. A state whose J0 block may keep every
bound level (the WKB test above) is not contracted: its top levels lie near
the threshold, where the basis holds the other J only to about 3e-8 cm^-1.

J0 is always omega. There is one solve path. _solve is the direct solve of
one block: it returns the _Basis it solved (span, diagonal, eigenpairs, kept
count), writes nothing to the dataset, and alone decides whether the block is
trimmed.
_contract returns a contracted block as a _Basis on the same span, and
_levels alone turns a basis into RovibLevels. _contracts alone decides
whether a state contracts. solve_radial checks the request once
(_check_block) and is the only writer of the store's bases: it solves a
contracting state directly at J0 first even when no J0 level is asked for,
so a block's bits never depend on which J a process solved first, and keeps
that basis's K columns (which _eigensolve copies out of the m x m
eigenvector matrix); J0's levels are read from it. Each block's levels are
built once. On the optical stand-in's default grid contracted energies agree
with the direct trimmed solve to about 2e-11 cm^-1 and wavefunctions to about
5e-13; on 2 vCPUs with two BLAS threads a contracted block costs 6-7 ms
against 34-42 ms for its dense solve.

Every eigensolve and every product of a contraction runs on one BLAS thread
(_lapack.one_blas_thread), and a dense solve runs numpy's own LAPACK dsyevd in
place on the span Hamiltonian (_lapack.eigh_in_place), with eigh's bits;
_lapack's docstring says how the pin behaves, why the bits are eigh's, which
symbols it finds and what runs without them.

The pin frees the second CPU for a second solve. solving_ahead, which
polarizability.build_line_list wraps around a line list, takes the states the
line list will solve that contract and have no basis in the dataset's store,
in order. The
caller solves the first of these J = omega bases itself, in solve_radial,
since it needs that one first (the initial state's, when it is one of them);
the others are queued, and min(#queued, #usable CPUs - 1) worker threads take
them in turn (when the pin works). On 2 vCPUs that is one worker, which solves
A0's basis and then B1's while the caller solves X0's and then works on X0's
blocks. Workers call only _solve, on curves the caller sampled before they
started, so the samples keep one writer.
solve_radial claims a queued basis and waits for that one alone, so the caller
starts on the first state's blocks while the last solve runs; it stores the
basis or raises the worker's exception, and stays the only writer of bases. On
exit, normal or not, the queue is emptied and every worker joined before the
caller goes on: a LAPACK call still running at interpreter shutdown can crash
the process. Unclaimed bases are dropped. On 2 vCPUs the three optical J0
solves take 62-90 ms two at a time (median 75 ms), against 73-111 ms (median
85 ms) one after another on two BLAS threads.

Every direct solve (J = omega bases, contraction fallbacks, states that do not
contract and convergence_check's probe grids; not rotor blocks) goes through
an on-disk store kept across processes (_bases), so a dense solve is made
once per machine and solver. _solve looks the block up after its inputs and
its trim proposal are known and before any eigensolve, under the exact bytes
of T's row, v_eff on the whole grid, the cutoff, max_levels and the proposed
span and e_top, beside the solver's identity and the crc32s of the solver's
sources.
An entry is used only once it certifies itself (_stored) as a contraction
does: its span is the proposed one or the full grid, its K columns are
orthonormal to ORTHO_TOL, kept and edges are recomputed from its values
(with a trimmed span's check), and every kept level's residual against the
explicit span Hamiltonian is at most RESIDUAL_TOL, with none within its
residual of the cutoff (_residuals_hold). Anything else is a miss, solved as
with no store and then written. A hit returns the stored bits, so every
output keeps its bytes. On the optical stand-in's default grid the stored
bases read residuals of 3e-11 cm^-1 and |X^T X - I| of 2e-15, and a hit takes
3-5 ms where its dense solve takes 24-31 ms.

Each potential and dipole curve is sampled on a grid once per loaded dataset
(sampled_curve): the store holds the read-only samples beside the blocks and
bases. convergence_check takes its base from the store (solved_block), so it
examines exactly the block requests read. It re-solves only on a denser grid
and a longer one, on dataclasses.replace(ds), a copy that shares the curves
and starts with an empty store, so the probe grids' bases and samples never
reach the dataset's own store. On the block's own grid it solves nothing:
_certificate checks the stored levels against the full-grid Hamiltonian, by
their residuals (the bound above) and by a count that no level is missing
below the top kept one. That certificate covers trimming and contraction
alike; on the optical stand-in's default grid its residuals are 2-6e-9 cm^-1
at max_levels 64, and it takes about 20 ms a block.

T is a finite section of the Toeplitz matrix whose symbol
hbar^2/(2 mu h^2) theta^2 is >= 0 on [-pi, pi], so T is positive definite and
every eigenvalue of H lies above the smallest diagonal entry
V(R_i) + hbar^2 J(J+1)/(2 mu R_i^2). energy_floor returns that minimum less a
rounding margin without solving; it lets a caller skip a block none of whose
levels can lie below a given energy. The bound holds for a trimmed solve too:
its T is a smaller section of the same Toeplitz matrix, and the smallest
diagonal entry of a submatrix is at least that of the full one. A contracted
level's energy is a Rayleigh quotient of such a submatrix, so it holds there
as well.

A grid needs finite bounds, a spacing with a finite 1/h^2 and at most
MAX_GRID_POINTS points (checked before any matrix exists), and a finite
effective potential on every point.

Eigenvectors are normalized as sum_i psi_i^2 h = 1 and sign-fixed so the
innermost antinode is positive, one array pass for a whole block. The k
levels of one solve are the rows of one read-only (k, n) matrix W, and each
level's wavefunction is a view of its row, so callers share them; the
coupling layer stacks the rows of any level list (wavefunction_matrix) for
its block products.

A rotor-tagged dataset whose potential has no interior minimum bypasses the
eigensolve: its block is a one-node basis, the single v = 0 level a delta at
the grid node nearest the rotor radius, with E = V + B J(J+1),
B = hbar^2/(2 mu R_node^2). It is never contracted and never stored as a
basis. convergence_check's denser grid keeps every node, but it moves the
level to a new midpoint that lies nearer r_e (on a 6:9:101 grid for KRb it
fails at J = 5); a default rotor grid puts r_e on a node. A minimum-free
potential without the rotor tag is solved honestly, which leaves no bound
levels; that case returns an empty list.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import _bases, _lapack
from .constants import HBAR2_OVER_TWO
from .dataset import MoleculeDataset, _real
from .errors import DataError, GridError, QuantumNumberError

__all__ = [
    "RadialGrid",
    "RovibLevel",
    "ConvergenceReport",
    "kinetic_matrix",
    "solve_radial",
    "Block",
    "solved_block",
    "solving_ahead",
    "sampled_curve",
    "energy_floor",
    "wavefunction_matrix",
    "convergence_check",
]

BOUND_GUARD = 1e-6   # cm^-1 below the asymptote
EDGE_AMP = 1e-12     # largest |psi| sqrt(h) a kept level may have at a trimmed span's edge
# sum kappa h from a turning point to a trimmed edge: e^-AGMON_DEPTH is the
# edge check's own amplitude, so a span is as short as that check allows
AGMON_DEPTH = math.log(1.0 / EDGE_AMP)
MAX_GRID_POINTS = 5000   # a dense n x n Hamiltonian of at most 200 MB
BASIS_PER_LEVEL = 2      # J0 eigenvectors a contraction keeps per requested level
RESIDUAL_TOL = 1e-8      # cm^-1, largest ||H x - E x|| a contracted or stored level may have
ORTHO_TOL = 1e-12        # largest |X^T X - I| a stored basis may have
CHECK_TOL = 1e-3         # cm^-1, largest shift convergence_check accepts
MAX_LEVELS = 64          # bound levels a block keeps when the caller names no cap


def _is_int(x) -> bool:
    """Whether x is an integer: a Python or numpy int, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid: n points from r_min to r_max inclusive (Bohr).

    r_min and r_max are real numbers (not a bool or a string), stored as
    floats, with 0 < r_min < r_max < inf; n is an integer (a Python or numpy
    int, not a bool) from 16 to MAX_GRID_POINTS. Anything else is a GridError
    when the grid is built.
    """

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        r_min, r_max = _real(self.r_min), _real(self.r_max)
        if not (0.0 < r_min < r_max < math.inf):
            raise GridError(f"need 0 < r_min < r_max < inf, got {self.r_min!r}, {self.r_max!r}")
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)
        if not (_is_int(self.n) and 16 <= self.n <= MAX_GRID_POINTS):
            raise GridError(f"grid point count must be an integer from 16 to MAX_GRID_POINTS = {MAX_GRID_POINTS}, got {self.n!r}")
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


@dataclass(frozen=True)
class _Basis:
    """One block solved on a span of the grid: the lowest K eigenpairs of the
    span Hamiltonian T + diag(v_eff) (a direct solve), the kept pairs of a
    contraction, or a rotor's one node. The first `kept` are the block's
    levels; `edges` are the span's ends that are not the grid's own."""

    span: slice
    v_eff: np.ndarray      # (m,) the diagonal on the span
    energies: np.ndarray   # (K,) ascending, cm^-1
    vectors: np.ndarray    # (m, K) orthonormal columns
    kept: int
    edges: list[int]


def _kinetic_row(grid: RadialGrid, reduced_mass: float) -> np.ndarray:
    """First row of the sinc-DVR kinetic matrix; its first m entries give any m-point section."""
    k = np.arange(1, grid.n)
    row = np.empty(grid.n)
    row[0] = math.pi**2 / 3.0
    row[1:] = np.where(k % 2, -2.0, 2.0) / (k * k)
    row *= HBAR2_OVER_TWO / (reduced_mass * grid.h**2)
    return row


def _toeplitz_rows(row: np.ndarray) -> np.ndarray:
    """The rows of the symmetric Toeplitz matrix with first row `row`,
    T_ij = row[|i - j|], as a read-only strided view of 2m - 1 values.

    Row i is the window starting at m - 1 - i of (row reversed, then row[1:]);
    copying the windows is about 10x faster than gathering row[|i - j|].
    """
    m = len(row)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), m)[::-1]


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row `row`: T_ij = row[|i - j|]."""
    return _toeplitz_rows(row).copy()


# rows of T a contraction's residual copies at a time: 234 KB at m = 457
_RESIDUAL_ROWS = 64


def _toeplitz_times(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T @ x for T = _toeplitz(row), one slab of _RESIDUAL_ROWS rows of T at a
    time, so no m x m matrix is made; each slab's product is its rows of T @ x."""
    rows = _toeplitz_rows(row)
    out = np.empty((len(row), x.shape[1]))
    for lo in range(0, len(row), _RESIDUAL_ROWS):
        np.matmul(rows[lo : lo + _RESIDUAL_ROWS].copy(), x, out=out[lo : lo + _RESIDUAL_ROWS])
    return out


def kinetic_matrix(grid: RadialGrid, reduced_mass: float) -> np.ndarray:
    """Sinc-DVR kinetic-energy matrix in cm^-1 for a mass in amu."""
    return _toeplitz(_kinetic_row(grid, reduced_mass))


def _antinode_signs(w: np.ndarray) -> np.ndarray:
    """Sign of each row of w at its innermost antinode: the first interior local
    max of |psi| at or above 1% of its largest, else its first point there."""
    a = np.abs(w)
    thr = 0.01 * a.max(axis=1, keepdims=True)
    interior = a[:, 1:-1]
    peak = (interior >= a[:, :-2]) & (interior > a[:, 2:]) & (interior >= thr)
    i = np.where(peak.any(axis=1), peak.argmax(axis=1) + 1, (a >= thr).argmax(axis=1))
    return np.where(w[np.arange(len(w)), i] < 0.0, -1.0, 1.0)


def _effective_potential(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid) -> np.ndarray:
    """V(R_i) + hbar^2 J(J+1) / (2 mu R_i^2) on the grid: the diagonal H adds to T.

    Entries where either term overflows (R near 0) come back non-finite,
    without a warning; solve_radial rejects such a grid.
    """
    pts = grid.points
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = sampled_curve(ds, ds.potentials[state], grid)
        return v + HBAR2_OVER_TWO * J * (J + 1) / (ds.reduced_mass * pts**2)


def _check_J(J: int) -> None:
    """QuantumNumberError unless J is an integer (not a bool) with J(J+1) <=
    2^53 (J <= 94,906,265): every centrifugal term starts from J(J+1) as an
    exact double."""
    if not _is_int(J):
        raise QuantumNumberError(f"J must be an integer, got {J!r}")
    if int(J) * (int(J) + 1) > 2**53:
        raise QuantumNumberError(f"J = {J} past 94906265: J(J+1) is not exact in a double")


def energy_floor(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid) -> float:
    """A lower bound in cm^-1 on every level solve_radial can return for this block.

    The smallest effective-potential entry, less 1e-9 of a bound on |H|
    (max |V_J| plus the top of T's spectrum, hbar^2 pi^2 / (2 mu h^2)) to cover
    the eigensolver's rounding. A rotor level's energy is the effective
    potential at one node, so the bound holds for rotor blocks too. J is
    checked as solve_radial checks it.
    """
    _check_J(J)
    v_eff = _effective_potential(ds, state, J, grid)
    t_top = HBAR2_OVER_TWO * math.pi**2 / (ds.reduced_mass * grid.h**2)
    return float(v_eff.min()) - 1e-9 * (float(np.abs(v_eff).max()) + t_top)


def _wkb_count(v_eff: np.ndarray, h: float, reduced_mass: float, e: float) -> float:
    """The WKB count N(E) = (1/pi) sum_i k_i h + 1/2 of levels below e."""
    k = np.sqrt(reduced_mass / HBAR2_OVER_TWO * np.maximum(e - v_eff, 0.0))
    return float(k.sum()) * h / math.pi + 0.5


def _keeps_every_level(v_eff: np.ndarray, h: float, reduced_mass: float, max_levels: int, asymptote: float) -> bool:
    """Whether N at the asymptote (or at the top of V_J on the grid) is at most
    max_levels + 2: every bound level may be kept, and the top ones reach the box."""
    return _wkb_count(v_eff, h, reduced_mass, min(asymptote, float(v_eff.max()))) <= max_levels + 2


def _trim_span(v_eff: np.ndarray, h: float, reduced_mass: float, max_levels: int, asymptote: float):
    """(span, e_top) for a trimmed solve, or None when the block needs the full grid.

    e_top is where the WKB count N(E) reaches max_levels + 2; the span runs
    from the turning points at e_top out until the Agmon sum
    sum_i kappa_i h reaches AGMON_DEPTH on each side.
    """
    if _keeps_every_level(v_eff, h, reduced_mass, max_levels, asymptote):
        return None
    n = len(v_eff)
    scale = reduced_mass / HBAR2_OVER_TWO
    target = max_levels + 2
    lo, hi = float(v_eff.min()), min(asymptote, float(v_eff.max()))
    for _ in range(60):   # count(lo) <= target < count(hi)
        mid = 0.5 * (lo + hi)
        if _wkb_count(v_eff, h, reduced_mass, mid) <= target:
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


def _kept_and_edges(energies, vectors, grid, max_levels, cutoff, span, e_top):
    """(kept, edges) of a span's ascending eigenpairs: the first
    min(max_levels, #E < cutoff) are the block's levels, and edges are the
    span's ends that are not the grid's own. None when a trimmed span (finite
    e_top) fails its check: no kept level, a kept level above e_top, or one
    with |vec| > EDGE_AMP at an edge."""
    k = min(max_levels, int(np.count_nonzero(energies < cutoff)))   # energies ascend
    edges = [i for i, cut in ((0, span.start > 0), (-1, span.stop < grid.n)) if cut]
    if math.isfinite(e_top):
        if not k or energies[k - 1] > e_top or np.abs(vectors[edges, :k]).max(initial=0.0) > EDGE_AMP:
            return None
    return k, edges


def _eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
    """The span's principal submatrix solved: its lowest
    K = min(BASIS_PER_LEVEL * max_levels, m) eigenpairs as a _Basis, or None
    when a trimmed span fails its check (_kept_and_edges).
    """
    v = v_eff[span]
    ham = _toeplitz(row[: len(v)])
    ham[np.diag_indices_from(ham)] += v
    with _lapack.one_blas_thread:
        energies, vectors = _lapack.eigh_in_place(ham)
    held = _kept_and_edges(energies, vectors, grid, max_levels, cutoff, span, e_top)
    if held is None:
        return None
    n_basis = min(BASIS_PER_LEVEL * max_levels, len(v))
    # keep only the K columns, not the m x m eigenvector matrix they view
    return _Basis(span, v, energies[:n_basis], vectors[:, :n_basis].copy(), *held)


def _residuals_hold(row, v, e, x, k, cutoff, edges) -> bool:
    """Whether the pairs (e_j, x_j) on a span certify its k kept levels: x holds
    the first k + 1 unit vectors (all of them when there are no more), every
    kept residual ||(T + diag(v)) x - e x|| is at most RESIDUAL_TOL, no pair
    lies within its residual of the cutoff, where the kept count could differ,
    and no kept x has |x| > EDGE_AMP at an edge.

    T is applied in row slabs (_toeplitz_times); a residual past the float
    range is inf, which fails. The caller holds the one-BLAS-thread pin.
    """
    with np.errstate(over="ignore"):
        r = _toeplitz_times(row[: len(v)], x)
        r += (v[:, None] - e[: x.shape[1]]) * x
        res = np.linalg.norm(r, axis=0)
    if (res[:k] > RESIDUAL_TOL).any() or (np.abs(e[: len(res)] - cutoff) <= res).any():
        return False
    return np.abs(x[edges, :k]).max(initial=0.0) <= EDGE_AMP


def _contract(row, v_eff, cutoff, basis, max_levels):
    """One J's kept levels in a J0 basis, as a _Basis on its span, or None.

    With B = basis.vectors, diag(E0) + B^T diag(v_J - v_J0) B = c diag(e) c^T
    gives x = B c, and the kept pairs must certify themselves
    (_residuals_hold) against the explicit span Hamiltonian T + diag(v_J).
    """
    b, v = basis.vectors, v_eff[basis.span]
    with _lapack.one_blas_thread:
        a = b.T @ ((v - basis.v_eff)[:, None] * b)
        a[np.diag_indices_from(a)] += basis.energies
        e, c = np.linalg.eigh(a)
        k = min(max_levels, int(np.count_nonzero(e < cutoff)))
        x = b @ c[:, : k + 1]
        if not _residuals_hold(row, v, e, x, k, cutoff, basis.edges):
            return None
    return _Basis(basis.span, v, e[:k], x[:, :k], k, basis.edges)


def _levels(state: str, J: int, grid: RadialGrid, basis: _Basis) -> list[RovibLevel]:
    """One block's levels, the basis's first `kept` pairs: the rows of one
    read-only W, zero outside the span, sign-fixed."""
    k = basis.kept
    w = np.zeros((k, grid.n))
    w[:, basis.span] = basis.vectors[:, :k].T / math.sqrt(grid.h)
    w *= _antinode_signs(w)[:, None]
    w.flags.writeable = False
    return [
        RovibLevel(state=state, v=v, J=J, energy=float(basis.energies[v]), grid=grid, wavefunction=w[v])
        for v in range(k)
    ]


def _is_rotor(ds: MoleculeDataset, state: str) -> bool:
    return ds.rotor is not None and not ds.potentials[state].has_interior_minimum


def _contracts(ds: MoleculeDataset, state: str, grid: RadialGrid, max_levels: int) -> bool:
    """Whether solve_radial contracts the state's blocks in its J = omega basis:
    not a rotor, and its J = omega block cannot keep every bound level."""
    st = ds.state(state)
    return not _is_rotor(ds, state) and not _keeps_every_level(
        _effective_potential(ds, state, st.omega, grid), grid.h, ds.reduced_mass, max_levels, st.asymptote_energy
    )


def _block_inputs(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid):
    """(row, v_eff, cutoff): T's first row, the diagonal H adds to T, and the bound-level cutoff."""
    row = _kinetic_row(grid, ds.reduced_mass)
    v_eff = _effective_potential(ds, state, J, grid)
    if not np.all(np.isfinite(row[0] + v_eff)):
        raise DataError(f"state {state!r} at J = {J}: the radial Hamiltonian is not finite on {grid}")
    asym = ds.state(state).asymptote_energy
    return row, v_eff, asym - BOUND_GUARD if math.isfinite(asym) else math.inf


def _stored(entry, row, v_eff, grid, max_levels, cutoff, span, e_top):
    """The stored basis `entry` (_bases.read) as a _Basis once it certifies
    itself as a contraction does; None for no entry or one that fails.

    Its span is the proposed one (span and e_top) or the full grid, and it
    holds K = min(BASIS_PER_LEVEL * max_levels, m) ascending energies and
    (m, K) vectors with |X^T X - I| at most ORTHO_TOL: a residual bounds an
    eigenvalue's distance only for a unit vector, and a contraction takes the
    columns as an orthonormal basis. kept and edges are recomputed from the
    stored values (_kept_and_edges, with the trimmed span's check), and the
    kept pairs and the first past them pass _residuals_hold.
    """
    if entry is None:
        return None
    start, stop, energies, vectors = entry
    full = slice(0, grid.n)
    stored = slice(start, stop)
    if stored not in (span, full):
        return None
    e_top = e_top if stored == span else math.inf
    m = stop - start
    n_basis = min(BASIS_PER_LEVEL * max_levels, m)
    if (energies.dtype, energies.shape, vectors.dtype, vectors.shape) != (np.float64, (n_basis,), np.float64, (m, n_basis)):
        return None
    if not (np.all(np.isfinite(energies)) and np.all(np.diff(energies) >= 0.0)):
        return None
    held = _kept_and_edges(energies, vectors, grid, max_levels, cutoff, stored, e_top)
    if held is None:
        return None
    k, edges = held
    v = v_eff[stored]
    with _lapack.one_blas_thread, np.errstate(over="ignore", invalid="ignore"):
        gram = vectors.T @ vectors
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.abs(gram).max() <= ORTHO_TOL:   # NaN fails
            return None
        if not _residuals_hold(row, v, energies, vectors[:, : k + 1], k, cutoff, edges):
            return None
    return _Basis(stored, v, energies, vectors, k, edges)


def _solve(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid, max_levels: int) -> _Basis:
    """The direct solve of one block, as the _Basis it solved; writes nothing
    but the on-disk store's entry.

    A block of a state that contracts (_contracts) is trimmed, and solved on
    the full grid when its span fails the check; any other block is solved
    on the full grid alone, even where _trim_span proposes a span. Before any
    eigensolve the block is looked up in the on-disk store (_bases) under the
    exact bytes of its inputs (T's row, v_eff on the whole grid, the cutoff,
    max_levels, the proposed span and e_top); a certified entry (_stored) is
    the solve, and a miss is solved and then stored. A rotor's block is a
    one-node basis: the grid node nearest the rotor radius, a unit vector,
    and E = V + B J(J+1) with B = hbar^2/(2 mu R_node^2).
    """
    if _is_rotor(ds, state):
        pts = grid.points
        i = int(np.argmin(np.abs(pts - ds.rotor.r_e)))
        r_node = pts[i]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # refused below
            b_node = HBAR2_OVER_TWO / (ds.reduced_mass * r_node**2)
            energy = np.array([float(ds.potentials[state](r_node)) + b_node * J * (J + 1)])
        if not np.isfinite(energy[0]):
            raise DataError(f"state {state!r} at J = {J}: the rotor level's energy is not finite")
        return _Basis(slice(i, i + 1), energy, energy, np.ones((1, 1)), 1, [])
    row, v_eff, cutoff = _block_inputs(ds, state, J, grid)
    asym = ds.state(state).asymptote_energy
    trimmed = _contracts(ds, state, grid, max_levels) and _trim_span(v_eff, grid.h, ds.reduced_mass, max_levels, asym)
    span, e_top = trimmed or (slice(0, grid.n), math.inf)
    entry_key = _bases.key(row, v_eff, cutoff, max_levels, span.start, span.stop, e_top)
    basis = _stored(_bases.read(entry_key), row, v_eff, grid, max_levels, cutoff, span, e_top)
    if basis is None:
        basis = _eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top) or _eigensolve(
            row, v_eff, grid, max_levels, cutoff, slice(0, grid.n)
        )
        _bases.write(entry_key, basis.span.start, basis.span.stop, basis.energies, basis.vectors)
    return basis


def _check_max_levels(max_levels: int) -> None:
    """QuantumNumberError unless max_levels is an integer (not a bool) of at least 1."""
    if not (_is_int(max_levels) and max_levels >= 1):
        raise QuantumNumberError(f"max_levels must be an integer of at least 1, got {max_levels!r}")


def _check_block(ds: MoleculeDataset, state: str, J: int, max_levels: int) -> int:
    """The state's omega, once one block can be asked for; solves and samples
    nothing. J passes _check_J, the state exists (else a DataError),
    J >= omega and max_levels passes _check_max_levels; a J or max_levels that
    fails is a QuantumNumberError."""
    _check_J(J)
    omega = ds.state(state).omega
    if J < omega:
        raise QuantumNumberError(f"J = {J} below omega = {omega} for state {state!r}")
    _check_max_levels(max_levels)
    return omega


def solve_radial(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = MAX_LEVELS,
) -> list[RovibLevel]:
    """Bound levels of one electronic state at fixed J, lowest first, at most max_levels.

    A rotor, or a state that does not contract (_contracts), is solved
    directly. Any other state is solved directly at J = omega first into the
    store's basis: J = omega levels are read from it, and any other J is
    contracted in it, or solved directly when that fails its certificate. A
    basis that solving_ahead queued is waited for, not solved again. The
    block's request is checked first (_check_block), before any solve.
    """
    omega = _check_block(ds, state, J, max_levels)
    if not _contracts(ds, state, grid, max_levels):
        return _levels(state, J, grid, _solve(ds, state, J, grid, max_levels))
    store = _store(ds)
    bases = store.bases
    key = (state, grid, max_levels)
    if key not in bases:
        ahead = store.ahead.pop(key, None)
        bases[key] = ahead.result() if ahead is not None else _solve(ds, state, omega, grid, max_levels)
    basis = bases[key]
    if J != omega:
        row, v_eff, cutoff = _block_inputs(ds, state, J, grid)
        basis = _contract(row, v_eff, cutoff, basis, max_levels) or _solve(ds, state, J, grid, max_levels)
    return _levels(state, J, grid, basis)


@dataclass
class Block:
    """One solved (state, J) block and, once asked for, its computed linewidths."""

    levels: tuple[RovibLevel, ...]
    gammas: np.ndarray | None = None   # MHz per level, from coupling.natural_linewidths


@dataclass
class _Store:
    """One dataset's solved blocks, its states' J = omega bases, its curves
    sampled on grids and its most recent alpha scan; never invalidated.
    solve_radial is the only writer of bases, and convergence_check re-solves
    on a copy of the dataset. `ahead` holds the bases solving_ahead has queued
    and solve_radial not yet claimed. `spectrum` is one slot, which
    polarizability.scan_spectrum overwrites with each scan it computes."""

    blocks: dict = field(default_factory=dict)    # (state, J, grid, max_levels) -> Block
    bases: dict = field(default_factory=dict)     # (state, grid, max_levels) -> _Basis
    samples: dict = field(default_factory=dict)   # (curve, grid) -> read-only (n,) array
    ahead: dict = field(default_factory=dict)     # (state, grid, max_levels) -> _Ahead
    spectrum: tuple | None = None                 # (key, PolarizabilitySpectrum)


def _store(ds: MoleculeDataset) -> _Store:
    if ds._store is None:
        ds._store = _Store()
    return ds._store


def sampled_curve(ds: MoleculeDataset, curve, grid: RadialGrid) -> np.ndarray:
    """A potential or dipole curve of ds on the grid's points, sampled once per
    loaded dataset; read-only."""
    samples = _store(ds).samples
    key = (curve, grid)
    if key not in samples:
        values = curve(grid.points)
        values.flags.writeable = False
        samples[key] = values
    return samples[key]


def solved_block(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid, max_levels: int) -> Block:
    """The bound levels of one (state, J) block, solved once per loaded dataset."""
    blocks = _store(ds).blocks
    key = (state, J, grid, max_levels)
    if key not in blocks:
        blocks[key] = Block(tuple(solve_radial(ds, state, J, grid, max_levels)))
    return blocks[key]


class _Ahead:
    """One J = omega basis solve queued by solving_ahead; `done` is set once a
    worker has its basis or its exception."""

    def __init__(self, ds: MoleculeDataset, state: str, grid: RadialGrid, max_levels: int):
        self.args = (ds, state, ds.state(state).omega, grid, max_levels)
        self.done = threading.Event()
        self.basis = self.error = None

    def run(self) -> None:
        try:
            self.basis = _solve(*self.args)
        except Exception as exc:
            self.error = exc
        finally:
            self.done.set()

    def result(self) -> _Basis:
        """The basis once it is solved; the worker's exception is raised here."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.basis


def _work(queue: list) -> None:
    """A solve-ahead worker: run queued solves until the queue is empty."""
    while True:
        try:
            job = queue.pop(0)
        except IndexError:
            return
        job.run()


@contextlib.contextmanager
def solving_ahead(ds: MoleculeDataset, states: Sequence[str], grid: RadialGrid, max_levels: int):
    """Solve the J = omega bases of `states` side by side while the body runs.

    Of the states solve_radial would contract whose basis is neither stored
    nor queued, in the given order, the first is left to the caller, which
    needs it first and solves it in solve_radial; the others are queued, and
    min(#queued, #usable CPUs - 1) worker threads take them in turn and call
    only _solve. Every curve they read is sampled here (_contracts), before
    any of them starts. solve_radial claims a queued basis and waits for it:
    it stores it, or raises the worker's exception. On exit the queue is
    emptied, every worker joined and unclaimed bases dropped. Nothing starts
    for fewer than two solves or two CPUs, or when numpy's OpenBLAS cannot be
    pinned to one thread. max_levels is taken as checked: its one caller,
    build_line_list, passes LineListOptions' own.
    """
    store = _store(ds)
    needed = []
    if _lapack.BLAS_THREADS is not None:
        for state in states:
            key = (state, grid, max_levels)
            if key not in store.bases and key not in store.ahead and _contracts(ds, state, grid, max_levels):
                needed.append(state)
    # the caller solves the first basis itself, in solve_radial
    jobs = {(state, grid, max_levels): _Ahead(ds, state, grid, max_levels) for state in needed[1:]}
    queue = list(jobs.values())
    workers = []
    try:
        for _ in range(min(len(jobs), _lapack.usable_cpus() - 1)):
            worker = threading.Thread(target=_work, args=(queue,), name="molpol-solve-ahead")
            try:
                worker.start()
            except RuntimeError:   # no thread to be had: the started ones take every solve
                break
            workers.append(worker)
        if workers:
            store.ahead.update(jobs)
        yield
    finally:
        queue.clear()
        for worker in workers:
            worker.join()
        for key in jobs:
            store.ahead.pop(key, None)


def wavefunction_matrix(levels: Sequence[RovibLevel]) -> np.ndarray:
    """(k, n) matrix whose rows are the levels' wavefunctions, stacked into a new
    array; (0, 0) for no levels, which name no grid."""
    if not levels:
        return np.zeros((0, 0))
    return np.array([lev.wavefunction for lev in levels], dtype=float)


@dataclass
class ConvergenceReport:
    """Energy stability of a block under grid refinement and box extension, and
    its certificate against the full-grid Hamiltonian of its own grid."""

    converged: bool
    tol: float
    n_levels: int
    shift_refine: float   # max |dE| when n -> 2n - 1 (h -> h / 2)
    shift_extend: float   # max |dE| when the grid runs on to ceil(1.5 (n - 1)) + 1 nodes at the same h
    residual: float       # max ||H x - e x|| of the kept levels, H the full-grid Hamiltonian
    count_held: bool      # whether H has no more eigenvalues below the top kept level than kept levels


def _certificate(ds: MoleculeDataset, state: str, J: int, grid: RadialGrid, levels: Sequence[RovibLevel]):
    """(residual, count_held) of a block's k levels against the full-grid H =
    T + diag(v_eff); no eigensolve.

    Each x = psi sqrt(h) is a unit vector, so some eigenvalue of H lies within
    ||H x - e x|| of e (Parlett, Thm 4.5.1); residual is the largest. sigma lies
    just past the top level's interval (the bound cutoff for an empty block).
    With X the k vectors and c = sigma - min(v_eff) + 1, H + c X X^T - sigma I
    is positive definite only if H has at most k eigenvalues below sigma (Weyl,
    for a positive update of rank k; Horn and Johnson, Matrix Analysis, sec.
    4.3): count_held is whether its Cholesky factor exists. A rotor's level is
    a grid node by definition: (0.0, True).
    """
    if _is_rotor(ds, state):
        return 0.0, True
    row, v_eff, cutoff = _block_inputs(ds, state, J, grid)
    x = np.reshape([lev.wavefunction for lev in levels], (len(levels), grid.n)).T * math.sqrt(grid.h)
    e = np.array([lev.energy for lev in levels])
    ham = _toeplitz(row)
    ham[np.diag_indices_from(ham)] += v_eff
    with _lapack.one_blas_thread:
        res = np.linalg.norm(ham @ x - x * e, axis=0)
        sigma = e[-1] + 2.0 * res[-1] + 1e-9 * max(1.0, abs(e[-1])) if len(e) else cutoff
        ham += (sigma - v_eff.min() + 1.0) * (x @ x.T)
        ham[np.diag_indices_from(ham)] -= sigma
        try:
            np.linalg.cholesky(ham)
            held = True
        except np.linalg.LinAlgError:
            held = False
    return float(res.max(initial=0.0)), held


def convergence_check(
    ds: MoleculeDataset,
    state: str,
    J: int,
    grid: RadialGrid,
    max_levels: int = MAX_LEVELS,
) -> ConvergenceReport:
    """Re-solve on a denser grid and on a longer one, compare per-level energies
    with the stored block, and certify the block on its own grid (_certificate);
    converged when both shifts and the residual are below CHECK_TOL and the
    count held.

    The base is solved_block(ds, state, J, grid, max_levels), the block requests
    read; nothing is solved on its grid. The re-solves run on a copy of ds that
    shares its curves and starts with an empty store, so the bases and samples
    of the probe grids stay out of ds's.
    """
    # both probe grids are built, and checked against MAX_GRID_POINTS, before any
    # solve; the fine grid halves h and keeps every node, a rotor level's among
    # them, and the long grid keeps h and every node, running on from r_min
    fine_grid = RadialGrid(grid.r_min, grid.r_max, 2 * grid.n - 1)
    n_ext = math.ceil(1.5 * (grid.n - 1)) + 1
    ext_grid = RadialGrid(grid.r_min, grid.r_min + (n_ext - 1) * grid.h, n_ext)
    base = solved_block(ds, state, J, grid, max_levels).levels
    probe = replace(ds)
    fine = solve_radial(probe, state, J, fine_grid, max_levels)
    ext = solve_radial(probe, state, J, ext_grid, max_levels)

    def max_shift(a: Sequence[RovibLevel], b: Sequence[RovibLevel]) -> float:
        k = min(len(a), len(b))
        if k == 0:
            return math.inf if a or b else 0.0
        return max(abs(a[i].energy - b[i].energy) for i in range(k))

    s_fine = max_shift(base, fine)
    s_ext = max_shift(base, ext)
    residual, count_held = _certificate(ds, state, J, grid, base)
    return ConvergenceReport(
        converged=max(s_fine, s_ext, residual) < CHECK_TOL and count_held,
        tol=CHECK_TOL,
        n_levels=len(base),
        shift_refine=s_fine,
        shift_extend=s_ext,
        residual=residual,
        count_held=count_held,
    )
