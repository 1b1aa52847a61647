"""Molecule datasets: electronic states, potential and dipole curves, file IO.

A dataset is a directory::

    molecule.json           metadata (name, reduced mass, states, ...)
    pot__<label>.dat        one potential curve per electronic state
    dip__<bra>__<ket>.dat   dipole curves (bra == ket: permanent dipole)

Curve files are two-column text with ``#`` comments and a mandatory
``units: <length> <value>`` header line. Accepted units: bohr/angstrom for
length, cm-1/hartree for potentials, debye/au for dipoles. Everything is
converted to the canonical units (Bohr, cm^-1, Debye) on load. In
molecule.json the top level, each state and the rotor block must be objects
and states a list. Every number is checked by the type that holds it, so a
dataset built in Python meets the same rules: a number is an int or float
within the float range (not a boolean or a string); omega is the integer 0 or
1 (1.0 is refused); asymptote_energy is a number, or null or Infinity for no
asymptote (not NaN or -Infinity); r_e and reduced_mass lie in (0, inf),
default_gamma in [0, inf); parity_tag is null, "+" or "-". A rotor block holds
only r_e: rovib solves a rotor at every J it accepts. Keys the loader does not
read are ignored.

Curves interpolate with a natural cubic spline between the tabulated nodes,
built as scipy's ``CubicSpline(bc_type="natural")`` builds it and evaluated in
the same order, so values match it bit for bit. Its tridiagonal system for the
knot slopes is solved by _gtsv, a transcription of LAPACK's dgtsv (the routine
behind scipy's ``solve_banded((1, 1), ...)``), so numpy is the only numerical
dependency.
Outside the table a potential follows physical tails: A + B/R^12 fitted to the
two innermost points on the short-range side, and an exponential decay of
V - asymptote fitted to the two outermost points on the long-range side.
Dipole curves clamp to their endpoint values outside the table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .constants import DIPOLE_UNITS, HBAR2_OVER_TWO, LENGTH_UNITS, POTENTIAL_UNITS
from .errors import DataError

__all__ = [
    "ElectronicState",
    "PotentialCurve",
    "DipoleCurve",
    "RotorInfo",
    "MoleculeDataset",
    "MorseModel",
    "HarmonicModel",
    "RigidRotorModel",
    "load_dataset",
    "write_dataset",
    "synthesize",
]


def _real(value, kinds=(int, float, np.integer, np.floating)) -> float:
    """value as a float when it is one of kinds (never a bool or a string)
    within the float range; else NaN."""
    try:
        return float(value) if isinstance(value, kinds) and not isinstance(value, bool) else math.nan
    except OverflowError:   # an int past the float range
        return math.nan


def _number(value, ok, rule: str, kinds=(int, float, np.integer, np.floating)) -> float:
    """_real(value, kinds) when ok accepts it; else a DataError stating rule."""
    x = _real(value, kinds)
    if not ok(x):
        raise DataError(f"{rule}, got {value!r}")
    return x


@dataclass(frozen=True)
class ElectronicState:
    """One electronic state of the molecule.

    label is a string. omega is the magnitude of the electronic angular
    momentum projection on the internuclear axis: the integer 0 or 1
    (omega = 0 is taken as 0+).
    asymptote_energy is the dissociation limit in cm^-1, a real number or
    math.inf for model wells that never dissociate (not NaN or -inf).
    """

    label: str
    omega: int
    asymptote_energy: float
    parity_tag: str | None = None

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise DataError(f"state label must be a string, got {self.label!r}")
        what = f"state {self.label!r}"
        rule = f"{what}: omega must be the integer 0 or 1"
        object.__setattr__(self, "omega", int(_number(self.omega, lambda x: x in (0.0, 1.0), rule, (int, np.integer))))
        rule = f"{what}: asymptote_energy must be a number or inf (no asymptote), not NaN or -inf"
        object.__setattr__(self, "asymptote_energy", _number(self.asymptote_energy, lambda x: x > -math.inf, rule))
        if self.parity_tag not in (None, "+", "-"):
            raise DataError(f"{what}: parity_tag must be null, '+' or '-', got {self.parity_tag!r}")


def _gtsv(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the tridiagonal A in solve_banded's (1, 1) layout
    (ab[0, 1:] above the diagonal, ab[1] on it, ab[2, :-1] below it).

    LAPACK dgtsv for one right-hand side, statement for statement: Gaussian
    elimination with partial pivoting by row interchanges, then back
    substitution, so the result has the bits of solve_banded((1, 1), ab, b).
    dgtsv's zero-pivot exits are left out: each pivot in the elimination is at
    least as large in magnitude as the subdiagonal entry below it, which for
    the spline is a dx > 0, and the last is nonzero because the spline's
    system is strictly diagonally dominant.
    """
    du, d, dl, x = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1; the last row has no du[i + 1]
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = x[i]
            x[i] = x[i + 1]
            x[i + 1] = temp - fact * x[i + 1]
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return np.array(x)


class _NaturalSpline:
    """Natural cubic spline through (x, y); NaN outside [x[0], x[-1]].

    Same bits as ``CubicSpline(x, y, bc_type="natural", extrapolate=False)``:
    the same banded system for the knot slopes, the same Hermite
    coefficients, and PPoly's evaluation order.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        a = np.zeros((3, len(x)))
        a[0, 2:] = dx[:-1]
        a[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        a[-1, :-2] = dx[1:]
        b = np.empty(len(x))
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # scipy's end rows for a second derivative of 0.0, term for term (the
        # zero terms fix the sign of a zero right-hand side)
        a[1, 0], a[0, 1] = 2 * dx[0], dx[0]
        b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
        a[1, -1], a[-1, -2] = 2 * dx[-1], dx[-1]
        b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
        s = _gtsv(a, b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, x_eval):
        xe = np.asarray(x_eval, dtype=float)
        i = np.clip(np.searchsorted(self.x, xe, side="right") - 1, 0, len(self.x) - 2)
        d = xe - self.x[i]
        c0, c1, c2, c3 = self.c[:, i]
        # PPoly's power sum from the constant term up; Horner is 1 ulp off
        out = (((0.0 + c3) + c2 * d) + c1 * (d * d)) + c0 * (d * d * d)
        return np.where((xe >= self.x[0]) & (xe <= self.x[-1]), out, np.nan)


def _checked_spline(r, y, what: str):
    """(r, y) as float arrays and their natural spline, checked: two
    equal-length columns of at least 2 finite samples at strictly increasing
    R > 0, and spline coefficients in the float range; errors name what."""
    r, y = np.asarray(r, dtype=float), np.asarray(y, dtype=float)
    if r.ndim != 1 or y.shape != r.shape:
        raise DataError(f"{what}: samples must be two equal-length columns")
    if len(r) < 2:
        raise DataError(f"{what}: need at least 2 sample points, got {len(r)}")
    if not np.all(np.isfinite(r)) or not np.all(np.isfinite(y)):
        raise DataError(f"{what}: non-finite sample values")
    if r[0] <= 0.0:
        raise DataError(f"{what}: R values must be positive")
    dr = np.diff(r)
    if not np.all(dr > 0.0):
        bad = int(np.argmin(dr > 0.0)) + 2
        raise DataError(f"{what}: R not strictly increasing at sample {bad}")
    # past the float range a fit comes out inf or NaN, refused here
    with np.errstate(all="ignore"):
        spline = _NaturalSpline(r, y)
    if not np.all(np.isfinite(spline.c)):
        raise DataError(f"{what}: its spline leaves the float range")
    return r, y, spline


class PotentialCurve:
    """Tabulated potential of one electronic state, in Bohr / cm^-1."""

    def __init__(self, state: ElectronicState, r, v):
        self.state = state
        what = f"potential curve for {state.label!r}"
        self.r, self.v, self._spline = _checked_spline(r, v, what)
        with np.errstate(all="ignore"):   # a tail past the float range, refused below
            self._fit_tails()
        if not np.all(np.isfinite([self._sr_a, self._sr_b, *(self._lr or ())])):
            raise DataError(f"{what}: its tail fit leaves the float range")

    def _fit_tails(self) -> None:
        r, v = self.r, self.v
        # inner wall: A + B/R^12 through the two innermost samples
        w1, w2 = r[0] ** -12, r[1] ** -12
        self._sr_b = (v[0] - v[1]) / (w1 - w2)
        self._sr_a = v[0] - self._sr_b * w1
        # outer tail: exponential approach of V - asymptote, through the two
        # outermost samples; degenerate data falls back as documented
        asym = self.state.asymptote_energy
        if not math.isfinite(asym):
            self._lr = None
            return
        ra, rb = r[-2], r[-1]
        pa, pb = v[-2] - asym, v[-1] - asym
        if pb == 0.0:
            self._lr = (0.0, 1.0)
            return
        if pa * pb > 0.0 and abs(pb) < abs(pa):
            k = math.log(pa / pb) / (rb - ra)
        else:
            k = 1.0 / (rb - ra)
        try:
            self._lr = (pb * math.exp(k * rb), k)
        except OverflowError:   # past the float range: an infinite c fails the load
            self._lr = (pb * math.inf, k)

    @property
    def has_interior_minimum(self) -> bool:
        """True when the well bottom sits strictly inside the table."""
        i = int(np.argmin(self.v))
        if i == 0 or i == len(self.v) - 1:
            return False
        return bool(self.v[i] < min(self.v[0], self.v[-1]) - 1e-12 * max(1.0, float(np.ptp(self.v))))

    def __call__(self, r_eval):
        r_eval = np.asarray(r_eval, dtype=float)
        scalar = r_eval.ndim == 0
        rr = np.atleast_1d(r_eval)
        if np.any(rr <= 0.0):
            raise DataError(f"potential for {self.state.label!r}: R must be positive")
        out = np.empty_like(rr)
        inner = rr < self.r[0]
        outer = rr > self.r[-1]
        mid = ~(inner | outer)
        out[mid] = self._spline(rr[mid])
        out[inner] = self._sr_a + self._sr_b * rr[inner] ** -12
        if np.any(outer):
            if self._lr is None:
                out[outer] = self.v[-1]
            else:
                c, k = self._lr
                out[outer] = self.state.asymptote_energy + c * np.exp(-k * rr[outer])
        return float(out[0]) if scalar else out


class DipoleCurve:
    """Tabulated dipole moment function in Bohr / Debye.

    bra == ket labels a permanent dipole, otherwise a transition dipole.
    Clamps to the endpoint values outside the tabulated range.
    """

    def __init__(self, bra: str, ket: str, r, d):
        self.bra = bra
        self.ket = ket
        self.r, self.d, self._spline = _checked_spline(r, d, f"dipole curve {bra!r} -> {ket!r}")

    @property
    def is_permanent(self) -> bool:
        return self.bra == self.ket

    def connects(self, a: str, b: str) -> bool:
        return {self.bra, self.ket} == {a, b}

    def __call__(self, r_eval):
        rr = np.clip(np.asarray(r_eval, dtype=float), self.r[0], self.r[-1])
        out = self._spline(rr)
        return float(out) if np.ndim(r_eval) == 0 else out


@dataclass(frozen=True)
class RotorInfo:
    """Marks a rigid-rotor dataset: radial position of the point rotor."""

    r_e: float

    def __post_init__(self):
        r_e = _number(self.r_e, lambda x: 0.0 < x < math.inf, "rotor r_e must be finite and > 0 Bohr")
        object.__setattr__(self, "r_e", r_e)


@dataclass
class MoleculeDataset:
    """All inputs describing one molecule."""

    name: str
    reduced_mass: float              # amu
    states: list[ElectronicState]
    potentials: dict[str, PotentialCurve]
    dipoles: list[DipoleCurve]
    ground_label: str
    default_gamma: float = 6.0       # MHz, fallback natural linewidth
    rotor: RotorInfo | None = None
    # rovib's block store: the solved (state, J) blocks with their computed
    # linewidths, beside each state's J = omega basis; made on first solve and
    # never invalidated. load_dataset hands one object to every load of
    # unchanged content, so a dataset is read-only once loaded or solved
    _store: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        what = f"dataset {self.name!r}"
        rule = f"{what}: reduced_mass must be finite and > 0 amu"
        self.reduced_mass = _number(self.reduced_mass, lambda x: 0.0 < x < math.inf, rule)
        rule = f"{what}: default_gamma must be finite and >= 0 MHz"
        self.default_gamma = _number(self.default_gamma, lambda x: 0.0 <= x < math.inf, rule)
        labels = [s.label for s in self.states]
        if len(set(labels)) != len(labels):
            raise DataError(f"{what}: duplicate state labels")
        if self.ground_label not in labels:
            raise DataError(f"{what}: ground_label {self.ground_label!r} not among states")
        for s in self.states:
            if s.label not in self.potentials:
                raise DataError(f"{what}: state {s.label!r} has no potential curve")
        for lab in self.potentials:
            if lab not in labels:
                raise DataError(f"{what}: potential for undeclared state {lab!r}")
        perm_seen = set()
        for dip in self.dipoles:
            for end in (dip.bra, dip.ket):
                if end not in labels:
                    raise DataError(f"{what}: dipole curve references undeclared state {end!r}")
            if dip.is_permanent:
                if dip.bra in perm_seen:
                    raise DataError(f"{what}: more than one permanent dipole for {dip.bra!r}")
                perm_seen.add(dip.bra)

    def state(self, label: str) -> ElectronicState:
        for s in self.states:
            if s.label == label:
                return s
        raise DataError(f"dataset {self.name!r}: no state {label!r}")

    def dipole_between(self, a: str, b: str) -> DipoleCurve | None:
        for dip in self.dipoles:
            if dip.connects(a, b):
                return dip
        return None

    def permanent_dipole(self, label: str) -> DipoleCurve | None:
        return self.dipole_between(label, label)


# ---------------------------------------------------------------------------
# analytic model specs for synthesized datasets


@dataclass(frozen=True)
class MorseModel:
    """V(R) = D_e (1 - exp(-a (R - r_e)))^2 - D_e, dissociating to 0."""

    d_e: float     # cm^-1
    a: float       # 1/Bohr
    r_e: float     # Bohr

    def value(self, r):
        x = 1.0 - np.exp(-self.a * (np.asarray(r, dtype=float) - self.r_e))
        return self.d_e * x * x - self.d_e


@dataclass(frozen=True)
class HarmonicModel:
    """V(R) = (1/2) k (R - r_e)^2; never dissociates."""

    k: float       # cm^-1 / Bohr^2
    r_e: float     # Bohr

    def value(self, r):
        x = np.asarray(r, dtype=float) - self.r_e
        return 0.5 * self.k * x * x


@dataclass(frozen=True)
class RigidRotorModel:
    """Point rotor: flat potential, constant permanent dipole d, levels B J(J+1)."""

    b: float       # cm^-1
    d: float       # Debye

    def r_e(self, reduced_mass: float) -> float:
        return math.sqrt(HBAR2_OVER_TWO / (reduced_mass * self.b))


def _grid_points(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "points", grid), dtype=float)


def synthesize(model, grid=None, *, reduced_mass: float, name: str = "synthetic") -> MoleculeDataset:
    """Build a single-state dataset by sampling an analytic model on a grid.

    grid may be a RadialGrid or a plain array of radii in Bohr. A rigid rotor
    picks its own grid (r_e +- 1 Bohr) when none is given; the well models
    have no natural span, so they require one.
    """
    if isinstance(model, (MorseModel, HarmonicModel)):
        if grid is None:
            raise DataError(f"synthesize needs an explicit grid for a {type(model).__name__}")
        r = _grid_points(grid)
        # a Morse well dissociates to 0; a harmonic one never does
        state = ElectronicState("X0", 0, 0.0 if isinstance(model, MorseModel) else math.inf)
        pot = PotentialCurve(state, r, model.value(r))
        return MoleculeDataset(name, reduced_mass, [state], {"X0": pot}, [], "X0")
    if isinstance(model, RigidRotorModel):
        r_e = model.r_e(reduced_mass)
        if grid is None:
            grid = np.linspace(max(r_e - 1.0, 0.1 * r_e), r_e + 1.0, 101)
        r = _grid_points(grid)
        state = ElectronicState("X0", 0, math.inf)
        pot = PotentialCurve(state, r, np.zeros_like(r))
        dip = DipoleCurve("X0", "X0", r, np.full_like(r, model.d))
        rotor = RotorInfo(r_e=r_e)
        return MoleculeDataset(name, reduced_mass, [state], {"X0": pot}, [dip], "X0", rotor=rotor)
    raise TypeError(f"unknown model kind {model!r}")


# ---------------------------------------------------------------------------
# directory IO


def _read_curve(path: Path, data: bytes, value_units: dict[str, float], make):
    """make(R, values) on the parsed bytes of one curve file; path only names it in errors."""
    r_vals: list[float] = []
    y_vals: list[float] = []
    scale_r = None
    scale_y = None
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("units:"):
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: units header must be 'units: <length> <value>'")
            lu, vu = parts[1].lower(), parts[2].lower()
            if lu not in LENGTH_UNITS:
                raise DataError(f"{path}:{lineno}: unknown length unit {lu!r}")
            if vu not in value_units:
                raise DataError(f"{path}:{lineno}: unknown value unit {vu!r}")
            scale_r, scale_y = LENGTH_UNITS[lu], value_units[vu]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            r_vals.append(float(parts[0]))
            y_vals.append(float(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if scale_r is None:
        raise DataError(f"{path}: missing 'units: <length> <value>' header")
    try:
        return make(np.asarray(r_vals) * scale_r, np.asarray(y_vals) * scale_y)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# the most recent load, keyed by its files' names and bytes: one entry at most
_LOADED: dict[tuple, MoleculeDataset] = {}


def _dataset_files(root: Path) -> dict[str, bytes]:
    """The bytes of molecule.json and of every pot__/dip__ curve file, by name."""
    files = {}
    for p in [root / "molecule.json", *sorted(root.glob("pot__*.dat")), *sorted(root.glob("dip__*__*.dat"))]:
        if p.is_file():
            try:
                files[p.name] = p.read_bytes()
            except OSError as exc:
                raise DataError(f"{p}: {exc}") from exc
    return files


def load_dataset(path) -> MoleculeDataset:
    """Read a dataset directory; raises DataError naming file (and line) on problems.

    Each file is read once and parsed from its bytes. A load whose files
    (names and bytes) match the most recent load returns that same
    MoleculeDataset, with the levels already solved on it, so loads of
    unchanged content share one object: treat it as read-only. Changed
    content is parsed afresh and replaces the held dataset.
    """
    root = Path(path)
    meta_path = root / "molecule.json"
    if not meta_path.is_file():
        raise DataError(f"{meta_path}: not found")
    files = _dataset_files(root)
    key = tuple(sorted(files.items()))
    held = _LOADED.get(key)
    if held is not None:
        return held
    ds = _parse_dataset(root, files)
    _LOADED.clear()
    _LOADED[key] = ds
    return ds


def _parse_meta(meta) -> dict:
    """The MoleculeDataset fields that molecule.json holds. Only the JSON's
    shape is checked here; each value is checked by the type that holds it."""
    if not isinstance(meta, dict):
        raise DataError("the top level must be an object")
    for key in ("name", "reduced_mass", "ground_label", "states"):
        if key not in meta:
            raise DataError(f"missing field {key!r}")
    if not isinstance(meta["states"], list):
        raise DataError("'states' must be a list")
    states = []
    for entry in meta["states"]:
        if not isinstance(entry, dict) or "label" not in entry or "omega" not in entry:
            raise DataError("every state needs 'label' and 'omega'")
        asym = entry.get("asymptote_energy")
        states.append(
            ElectronicState(
                label=entry["label"],
                omega=entry["omega"],
                asymptote_energy=math.inf if asym is None else asym,
                parity_tag=entry.get("parity_tag"),
            )
        )
    rotor = meta.get("rotor")
    if rotor is not None:
        if not isinstance(rotor, dict) or "r_e" not in rotor:
            raise DataError("rotor block needs 'r_e'")
        rotor = RotorInfo(r_e=rotor["r_e"])
    return dict(
        name=str(meta["name"]),
        reduced_mass=meta["reduced_mass"],
        states=states,
        ground_label=meta["ground_label"],
        default_gamma=meta.get("default_gamma", MoleculeDataset.default_gamma),
        rotor=rotor,
    )


def _parse_dataset(root: Path, files: dict[str, bytes]) -> MoleculeDataset:
    meta_path = root / "molecule.json"
    try:
        fields = _parse_meta(json.loads(files[meta_path.name]))
    except (DataError, ValueError) as exc:
        raise DataError(f"{meta_path}: {exc}") from exc
    potentials = {}
    for s in fields["states"]:
        pfile = root / f"pot__{s.label}.dat"
        if pfile.name not in files:
            raise DataError(f"{pfile}: not found (potential for state {s.label!r})")
        potentials[s.label] = _read_curve(pfile, files[pfile.name], POTENTIAL_UNITS, partial(PotentialCurve, s))
    dipoles = []
    for name in sorted(n for n in files if n.startswith("dip__")):
        dfile = root / name
        parts = dfile.stem.split("__")
        if len(parts) != 3:
            raise DataError(f"{dfile}: dipole filename must be dip__<bra>__<ket>.dat")
        _, bra, ket = parts
        dipoles.append(_read_curve(dfile, files[name], DIPOLE_UNITS, partial(DipoleCurve, bra, ket)))
    try:
        return MoleculeDataset(potentials=potentials, dipoles=dipoles, **fields)
    except DataError as exc:
        raise DataError(f"{meta_path}: {exc}") from exc


def _write_curve(path: Path, r: np.ndarray, y: np.ndarray, value_unit: str, comment: str) -> None:
    lines = [f"# {comment}", f"units: bohr {value_unit}"]
    for ri, yi in zip(r, y):
        lines.append(f"{float(ri)!r} {float(yi)!r}")
    path.write_text("\n".join(lines) + "\n")


def write_dataset(ds: MoleculeDataset, path) -> None:
    """Write a dataset directory in the canonical units; round-trips with load_dataset."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": ds.name,
        "reduced_mass": ds.reduced_mass,
        "ground_label": ds.ground_label,
        "default_gamma": ds.default_gamma,
        "states": [
            {
                "label": s.label,
                "omega": s.omega,
                "asymptote_energy": None if not math.isfinite(s.asymptote_energy) else s.asymptote_energy,
                "parity_tag": s.parity_tag,
            }
            for s in ds.states
        ],
    }
    if ds.rotor is not None:
        meta["rotor"] = {"r_e": ds.rotor.r_e}
    (root / "molecule.json").write_text(json.dumps(meta, indent=2) + "\n")
    for lab, pot in ds.potentials.items():
        _write_curve(root / f"pot__{lab}.dat", pot.r, pot.v, "cm-1", f"{ds.name} potential, state {lab}")
    for dip in ds.dipoles:
        _write_curve(
            root / f"dip__{dip.bra}__{dip.ket}.dat",
            dip.r,
            dip.d,
            "debye",
            f"{ds.name} dipole, {dip.bra} -> {dip.ket}",
        )
