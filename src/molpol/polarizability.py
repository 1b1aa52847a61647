"""Complex dynamic polarizability from dipole line lists.

Each bound final level f reachable from the initial level contributes

    alpha(nu) += K * w_f * d_f^2 * z_f / (z_f^2 - nu^2),
    z_f = Delta_f - i h gamma_f / 2        (all energies in cm^-1)

summed over every dipole-allowed line, excluding the initial level itself.
K folds the 1/(eps0 c) prefactor and unit changes so the result is alpha/h
in Hz/(W/cm^2): a lattice depth is V0/h = -Re(alpha) * I with I in W/cm^2.
The counter-rotating term is kept (no rotating-wave approximation), and
Im(alpha) >= 0 on nu >= 0 whenever all gamma_f >= 0, and each is: a
computed linewidth is a sum of Einstein A rates, and a dataset refuses a
negative default_gamma, and LineListOptions a negative gamma override, when
it is built, before any solve.

A scan keeps alpha as one complex array, PolarizabilitySpectrum.values,
aligned with its nu grid. An exact hit on an undamped pole (gamma = 0,
nu = |Delta|) is a NaN+NaNj entry of that array: scans keep the point, and
np.isnan(values.real) marks the poles.

Levels come from rovib's block store, one per loaded dataset (one object for
every load of unchanged files), keyed by (state, J, grid, max_levels): the
initial level, the final branches and the lower levels of every linewidth
share one solve per block (rovib.solved_block, a memo of rovib.solve_radial,
which alone decides whether a block is solved densely or contracted in its
state's J = omega basis). Each stored block also holds its levels' computed
linewidths, one coupling.natural_linewidths vector made on first use and
shared by every spectrum on that dataset. A linewidth solves only the lower
blocks that can hold a level below its upper block's top level: a block whose
rovib.energy_floor lies above that energy is skipped unsolved, since all its
levels lie higher and its Einstein-A terms would be exact zeros. A line list
takes the dipoles of one final block from one coupling.dipole_matrix row.
The line list and the Einstein-A linewidths walk the same branches
(_branches), whose partner states come from one route rule,
coupling.dipole_route: a dipole curve must join the two states, and
omega 0+ <-> 0- has no route. build_line_list walks the branches out of the
initial level once, before it solves anything, and keeps each branch with
angular weight together with its driven components (q, M', weight). The
states it solves are the initial state, then each partner with a kept branch within
j_max_branch; their J = omega bases are solved side by side while the lines
are built from the kept branches (rovib.solving_ahead: the caller solves the
first, worker threads the others), and the blocks are the ones, bit for bit,
that solving one state after another gives. The store also holds the
dataset's most recent scan (scan_spectrum), so a request that repeats it
exactly, as windows repeats alpha's scan, solves, builds and evaluates nothing.

The alpha kernel evaluates (lines x nu-chunk) arrays and sums them down the
line axis in list order, so a scan and a single-point alpha_at add the same
terms in the same order and agree bit for bit.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .constants import ALPHA_HZ_PER_WCM2, MHZ_CM1
from .coupling import LineStrength, Polarization, angular_weight, dipole_matrix, dipole_route, natural_linewidths
from .dataset import MoleculeDataset, _number
from .errors import DataError, NumericalError, QuantumNumberError
from .rovib import MAX_LEVELS, Block, RadialGrid, RovibLevel, _check_J, _check_max_levels, _is_int, _store, energy_floor, sampled_curve, solved_block, solving_ahead

__all__ = [
    "LevelId",
    "LineListOptions",
    "Resonance",
    "PolarizabilitySpectrum",
    "default_grid",
    "build_line_list",
    "alpha_at",
    "alpha_kernel",
    "scan_spectrum",
]


class LevelId(NamedTuple):
    """Initial-level key: electronic state label, v, J, M."""

    state: str
    v: int
    J: int
    M: int


@dataclass(frozen=True)
class LineListOptions:
    """Controls for line-list construction.

    gamma: "computed" (Einstein-A sums where a radiative route exists, else
    the dataset default), "default" (always the dataset default), or a float
    override in MHz (0.0 turns damping off).

    Building the options refuses a bad value, before anything is solved: a
    gamma that is neither mode nor a finite number >= 0 (a bool included),
    a d_floor that is not a real number >= 0 (a bool, a string and NaN
    included; inf keeps no line, and the float is stored), and a
    j_max_branch or v_max that is neither None nor an integer (a Python or
    numpy int, not a bool), or a v_max below 0 (QuantumNumberError).
    max_levels and J are checked by rovib, where they enter a solve.
    """

    grid: RadialGrid | None = None
    max_levels: int = MAX_LEVELS
    gamma: str | float = "computed"
    d_floor: float = 1e-8        # Debye; weaker lines are dropped
    j_max_branch: int | None = None   # default: J+1
    v_max: int | None = None     # per final state; default: all bound

    def __post_init__(self):
        gamma = self.gamma
        if gamma not in ("computed", "default") and (
            # an int past the float range is not finite either: float() of it overflows
            isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not 0.0 <= gamma <= sys.float_info.max
        ):
            raise DataError(f"gamma must be 'computed', 'default', or finite and >= 0 in MHz, got {gamma!r}")
        object.__setattr__(self, "d_floor", _number(self.d_floor, lambda x: x >= 0.0, "d_floor must be >= 0 in Debye"))
        if self.j_max_branch is not None and not _is_int(self.j_max_branch):
            raise QuantumNumberError(f"j_max_branch must be None or an integer, got {self.j_max_branch!r}")
        if self.v_max is not None and not (_is_int(self.v_max) and self.v_max >= 0):
            raise QuantumNumberError(f"v_max must be None or an integer of at least 0, got {self.v_max!r}")


@dataclass(frozen=True)
class Resonance:
    """One transition frequency inside a scan range."""

    nu: float
    state: str
    v: int
    J: int
    peak: float     # |alpha| at the resonance center; inf for gamma = 0


@dataclass
class PolarizabilitySpectrum:
    """A frequency scan plus the bookkeeping needed to interpret it."""

    initial: LevelId
    polarization: str
    nu: np.ndarray
    values: np.ndarray      # alpha/h in Hz/(W/cm^2) at each nu; NaN+NaNj on a pole
    resonances: list[Resonance]
    lines: list[LineStrength]
    capture: dict[str, float] = field(default_factory=dict)
    options: dict = field(default_factory=dict)


def default_grid(ds: MoleculeDataset) -> RadialGrid:
    """Radial grid to use when the caller does not provide one.

    Rotor datasets get an odd-count grid centered on the rotor radius so the
    delta wavefunction lands exactly at r_e; everything else spans its ground
    potential table.
    """
    if ds.rotor is not None:
        r_e = ds.rotor.r_e
        return RadialGrid(r_e - 1.0, r_e + 1.0, 101)
    pot = ds.potentials[ds.ground_label]
    return RadialGrid(float(pot.r[0]), float(pot.r[-1]), 801)


def solve_initial(ds: MoleculeDataset, initial: LevelId, options: LineListOptions | None = None) -> RovibLevel:
    """Resolve the initial LevelId to a solved bound level."""
    opts = options or LineListOptions()
    _check_M(initial)
    levels = solved_block(ds, initial.state, initial.J, opts.grid or default_grid(ds), opts.max_levels).levels
    if not 0 <= initial.v < len(levels):
        raise DataError(
            f"initial level v={initial.v} not bound for state {initial.state!r} at J={initial.J}"
        )
    return levels[initial.v]


def _check_M(level: LevelId) -> None:
    """v and M integers (a Python or numpy int, not a bool) and |M| <= J,
    checked before the level's block is solved."""
    if not (_is_int(level.v) and _is_int(level.M)):
        raise DataError(f"initial v and M must be integers, got v={level.v!r}, M={level.M!r}")
    if abs(level.M) > level.J:
        raise DataError(f"initial |M|={abs(level.M)} exceeds J={level.J}")


def _branches(ds: MoleculeDataset, state: str, J: int):
    """(partner state, dipole curve, J') of every branch out of a (state, J)
    block: partners in label order that coupling.dipole_route joins to the
    state, J' from J - 1 to J + 1 and at least the partner's omega."""
    for st in sorted(ds.states, key=lambda s: s.label):
        dip = dipole_route(ds, state, st.label)
        if dip is not None:
            for Jp in range(max(st.omega, J - 1), J + 2):
                yield st, dip, Jp


def _gamma_for(ds: MoleculeDataset, blk: Block, v: int, mode: str | float, max_levels: int) -> float:
    """Linewidth in MHz of level v of a block under the LineListOptions.gamma mode."""
    if mode == "default":
        return ds.default_gamma
    if mode != "computed":
        return float(mode)
    if blk.gammas is None:
        lev0, e_top = blk.levels[0], blk.levels[-1].energy
        lowers: list[RovibLevel] = []
        for st, _, J2 in _branches(ds, lev0.state, lev0.J):
            # a block wholly above this one takes no emission: skipping
            # it drops only exact zeros from the Einstein-A sums
            if energy_floor(ds, st.label, J2, lev0.grid) > e_top:
                continue
            lowers.extend(solved_block(ds, st.label, J2, lev0.grid, max_levels).levels)
        blk.gammas = natural_linewidths(blk.levels, ds, lowers)
    return float(blk.gammas[v])


def build_line_list(
    ds: MoleculeDataset,
    initial: LevelId,
    polarization: Polarization,
    options: LineListOptions | None = None,
) -> list[LineStrength]:
    """Every dipole-allowed line out of the initial level, deterministic order.

    One walk over the branches, before any solve, keeps each driven branch
    with its components (q, M', weight). The states of the kept branches
    within j_max_branch, after the initial one, are solved side by side
    (rovib.solving_ahead) while the lines are built from the same list. A line
    strength w * d^2 outside the float range is a NumericalError.

    The initial J and every kept J' pass rovib's J rule, and the initial v
    and M are integers with |M| <= J, before anything is solved, so a J, v or
    M past them starts no solve. The lower blocks of a linewidth, up to
    J' + 1, are checked where they are solved.

    A cap (j_max_branch, v_max) that leaves no line before d_floor drops any
    is a QuantumNumberError; lines that d_floor alone drops are no error.
    """
    opts = options or LineListOptions()
    _check_J(initial.J)
    _check_M(initial)
    grid = opts.grid or default_grid(ds)
    om_i = ds.state(initial.state).omega
    driven = []   # (state, dipole curve, J', [(q, M', weight)]): the same weights for every v'
    for st, dip, Jp in _branches(ds, initial.state, initial.J):
        weights = []
        for q, amp in polarization.components:
            Mp = initial.M + q
            w = abs(amp) ** 2 * angular_weight(initial.J, initial.M, Jp, Mp, q, om_i, st.omega)
            if w > 0.0:
                weights.append((q, Mp, w))
        if weights:
            driven.append((st, dip, Jp, weights))
    kept = [br for br in driven if opts.j_max_branch is None or br[2] <= opts.j_max_branch]
    for _, _, Jp, _ in kept:
        _check_J(Jp)
    # the caps that removed a line with angular weight
    capped = {"j_max_branch"} if len(kept) < len(driven) else set()
    states = list(dict.fromkeys([initial.state, *(st.label for st, *_ in kept)]))
    v_end = None if opts.v_max is None else opts.v_max + 1

    lines: list[LineStrength] = []
    caps_left_a_line = False   # before d_floor dropped any
    with solving_ahead(ds, states, grid, opts.max_levels):
        lev_i = solve_initial(ds, initial, opts)
        for st, dip, Jp, weights in kept:
            blk = solved_block(ds, st.label, Jp, grid, opts.max_levels)
            finals = blk.levels[:v_end]
            if len(finals) < len(blk.levels):
                capped.add("v_max")
            for lev_f, d in zip(finals, dipole_matrix([lev_i], finals, sampled_curve(ds, dip, grid))[0].tolist()):
                if st.label == initial.state and lev_f.v == lev_i.v and Jp == lev_i.J:
                    continue   # the sum excludes the initial level
                caps_left_a_line = True
                if abs(d) < opts.d_floor:
                    continue
                # the alpha kernel's w * d^2, largest at the largest weight
                if not math.isfinite(max(w for *_, w in weights) * (d * d)):
                    raise NumericalError(f"line strength of {st.label} v={lev_f.v} J={Jp} leaves the float range (d = {d:g} D)")
                gamma = _gamma_for(ds, blk, lev_f.v, opts.gamma, opts.max_levels)
                delta_e = lev_f.energy - lev_i.energy
                lines.extend(
                    LineStrength(
                        state=st.label, v=lev_f.v, J=Jp, M=Mp, q=q,
                        d_vib=d, weight=w, delta_e=delta_e, gamma=gamma,
                    )
                    for q, Mp, w in weights
                )
    if capped and not caps_left_a_line:
        caps = " and ".join(f"{cap} = {getattr(opts, cap)}" for cap in sorted(capped))
        raise QuantumNumberError(
            f"{caps} leaves no line with angular weight from {initial.state} v={initial.v} J={initial.J} M={initial.M}"
        )
    # |M| before signed M: mirror initial levels then sum identical addends in
    # the same order, keeping the M <-> -M degeneracy exact in floats
    lines.sort(key=lambda ln: (ln.state, ln.J, ln.v, abs(ln.M), ln.M))
    return lines


def alpha_at(lines: list[LineStrength], nu: float) -> complex:
    """alpha/h at one frequency in Hz/(W/cm^2); NaN on an exact undamped pole.

    Delegates to the array kernel so single-point calls and grid scans agree
    bit for bit.
    """
    return complex(alpha_kernel(lines)(np.asarray([float(nu)]))[0])


# (lines x nu) complex entries per kernel chunk, about 256 KB, so that the
# chunk's live arrays stay in a core's L2 cache; the size moves no bit of alpha
_KERNEL_CHUNK = 1 << 14


def alpha_kernel(lines: list[LineStrength]) -> Callable[[np.ndarray], np.ndarray]:
    """alpha/h over an array of frequencies for one line list.

    The per-line arrays (z, z^2, w*d^2) are built once, here; a caller that
    evaluates the same lines many times (a bisection) keeps the returned
    function and gets the bits alpha_at would give at each frequency.

    The frequencies are taken in chunks of about _KERNEL_CHUNK // len(lines)
    nu columns. Each call allocates one (lines x chunk) complex buffer, about
    256 KB, and computes every chunk in it in place: z^2 - nu^2, then
    z / (z^2 - nu^2), then the terms times w d^2, and last their running sum
    down the line axis, whose last row is the chunk's alpha. A chunk takes a
    contiguous prefix of the buffer, so a last, shorter chunk needs no ufunc
    buffers either. A chunk holds whole nu columns, each summed in list
    order, so the chunk size moves no bit of the result.

    z^2 - nu^2 is exactly 0 only where Im(z^2) is 0, since nu^2 is real, so
    the pole pass (mask the zeros, divide by 1 there, then write NaN+NaNj)
    runs only for a list with such a line: an undamped one.

    The sum is np.add.accumulate, one line at a time, and not sum(axis=0):
    numpy sums pairwise along a contiguous axis, so a one-column chunk would
    add the lines in another order than a wide one, and a single-point
    alpha_at would lose the bits of the scan.
    """
    zs = [complex(ln.delta_e, -0.5 * ln.gamma * MHZ_CM1) for ln in lines]
    z = np.array(zs)[:, None]
    # z^2 as Python complex products: numpy's vectorized complex multiply can
    # round the last bit differently, which would move the committed tables
    z2 = np.array([zc * zc for zc in zs])[:, None]
    # complex already, so that no chunk's `term *= wd2` casts it again
    wd2 = np.array([ln.weight * ln.d_vib**2 for ln in lines], dtype=complex)[:, None]
    undamped = bool(np.any(z2.imag == 0.0))
    step = max(1, _KERNEL_CHUNK // max(1, len(lines)))

    def kernel(nus: np.ndarray) -> np.ndarray:
        nus = np.asarray(nus, dtype=float)
        out = np.zeros(len(nus), dtype=complex)
        if not lines:
            return out
        work = np.empty(len(lines) * min(step, len(nus)), dtype=complex)
        for lo in range(0, len(nus), step):
            chunk = nus[lo : lo + step]
            den = work[: len(lines) * len(chunk)].reshape(len(lines), len(chunk))
            # nu^2 past the float range makes den infinite: each term is 0, the limit alpha -> 0
            with np.errstate(over="ignore"):
                np.subtract(z2, chunk**2, out=den)
            if undamped:
                pole = den == 0
                den[pole] = 1.0
            term = np.divide(z, den, out=den)
            if undamped:
                term[pole] = complex(math.nan, math.nan)
            term *= wd2
            # a running sum down the line axis adds one line at a time in list
            # order, each row before it is overwritten; adding it to out's +0
            # keeps an all-zero column at +0
            out[lo : lo + step] += np.add.accumulate(term, axis=0, out=term)[-1]
        return ALPHA_HZ_PER_WCM2 * out

    return kernel


def _capture(ds: MoleculeDataset, lev_i: RovibLevel, lines: list[LineStrength]) -> dict[str, float]:
    """Fraction of the closure sum <psi|d^2|psi> captured by bound lines, per state.

    For each final state the bound-level sum of d_vib^2 on one J' branch is
    compared to the full vibrational closure of that branch; the minimum over
    branches is reported. Diagnostic only.
    """
    wi = lev_i.wavefunction**2 * lev_i.grid.h
    uniq: dict[tuple[str, int, int], float] = {}
    for ln in lines:
        uniq[(ln.state, ln.J, ln.v)] = ln.d_vib**2
    by_branch: dict[tuple[str, int], float] = {}
    for (stt, Jp, _v), d2 in uniq.items():
        by_branch[(stt, Jp)] = by_branch.get((stt, Jp), 0.0) + d2
    out: dict[str, float] = {}
    for (stt, _Jp), num in sorted(by_branch.items()):
        dip = ds.dipole_between(lev_i.state, stt)
        tot = float(np.sum(sampled_curve(ds, dip, lev_i.grid) ** 2 * wi))
        frac = num / tot if tot > 0 else 0.0
        out[stt] = min(out.get(stt, 1.0), frac)
    return out


def scan_spectrum(
    ds: MoleculeDataset,
    initial: LevelId,
    polarization: Polarization,
    nu_grid: np.ndarray,
    options: LineListOptions | None = None,
) -> PolarizabilitySpectrum:
    """Evaluate alpha over a frequency grid with resonance bookkeeping.

    nu_grid must be one-dimensional and strictly ascending: resonances are
    those between its ends, and find_magic/find_windows read it as ordered
    links. It must start at nu >= 0: alpha is even in nu, but a resonance is
    listed only at +|Delta|, so a scan below 0 would list none and let every
    mirror pole through those screens. Anything else raises DataError.

    The most recent scan on a dataset is held in its rovib store. After the
    checks a new scan makes (the grid, J, v, M and max_levels), a request
    whose initial level, polarization and options have the reprs of the held
    scan's (so False is not 0, nor -0.0 0.0) and whose grid has its bytes
    gets the held scan again, with nothing solved, built or evaluated. Every
    caller gets its own lists and dicts and read-only views of the held nu
    and values, so no caller's edit reaches the next request.
    """
    opts = options or LineListOptions()
    nus = np.asarray(nu_grid, dtype=float)
    if nus.ndim != 1 or not np.all(np.diff(nus) > 0.0):
        raise DataError(
            "nu_grid must be a strictly ascending one-dimensional array of wavenumbers"
            " (a step below the float resolution repeats points)"
        )
    if len(nus) and not nus[0] >= 0.0:
        raise DataError(f"nu_grid must start at 0 cm^-1 or above, got {float(nus[0])!r}")
    _check_J(initial.J)
    _check_M(initial)
    _check_max_levels(opts.max_levels)
    store = _store(ds)
    key = (repr(initial), repr(polarization), repr(opts))
    held = store.spectrum
    if held is None or held[0] != key or held[1].nu.tobytes() != nus.tobytes():
        held = store.spectrum = (key, _scan(ds, initial, polarization, nus, opts))
    spec = held[1]
    return replace(
        spec,
        nu=spec.nu.view(),
        values=spec.values.view(),
        resonances=list(spec.resonances),
        lines=list(spec.lines),
        capture=dict(spec.capture),
        options=dict(spec.options),
    )


def _scan(
    ds: MoleculeDataset, initial: LevelId, polarization: Polarization, nus: np.ndarray, opts: LineListOptions
) -> PolarizabilitySpectrum:
    """scan_spectrum's scan on a checked grid, with read-only copies of the
    grid and the values."""
    lines = build_line_list(ds, initial, polarization, opts)
    lev_i = solve_initial(ds, initial, opts)
    kernel = alpha_kernel(lines)
    nu, values = nus.copy(), kernel(nus)
    nu.flags.writeable = values.flags.writeable = False

    lo, hi = (float(nus[0]), float(nus[-1])) if len(nus) else (0.0, 0.0)
    res_seen: dict[tuple[str, int, int], float] = {}
    for ln in lines:
        if lo <= ln.nu_res <= hi:
            res_seen.setdefault((ln.state, ln.v, ln.J), ln.nu_res)
    found = sorted(res_seen.items(), key=lambda kv: (kv[1], kv[0]))
    # one kernel call for every peak: its nu columns are independent, so each
    # equals alpha_at at that frequency bit for bit
    peaks = kernel(np.array([nu_res for _, nu_res in found]))
    resonances = [
        Resonance(nu=nu_res, state=stt, v=v, J=J, peak=math.inf if math.isnan(a.real) else abs(a))
        for ((stt, v, J), nu_res), a in zip(found, peaks.tolist())
    ]

    return PolarizabilitySpectrum(
        initial=initial,
        polarization=polarization.name,
        nu=nu,
        values=values,
        resonances=resonances,
        lines=lines,
        capture=_capture(ds, lev_i, lines),
        options={
            "gamma": opts.gamma,
            "d_floor": opts.d_floor,
            "max_levels": opts.max_levels,
            "j_max_branch": opts.j_max_branch,
            "v_max": opts.v_max,
        },
    )
