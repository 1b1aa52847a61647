import math
from pathlib import Path

import numpy as np
import pytest
import scipy.constants as si
from hypothesis import given, settings, strategies as st

from molpol import (
    DegenerateSpectraError,
    LevelId,
    LineListOptions,
    Polarization,
    PolarizabilitySpectrum,
    RadialGrid,
    Resonance,
    alpha_at,
    dd_interaction,
    find_magic,
    find_windows,
    induced_dipole,
    lattice_plan,
    load_dataset,
    microwave_plan,
    rabi_energy,
    scan_spectrum,
)
from molpol import control
from molpol.coupling import POLARIZATIONS, angular_weight
from molpol.errors import DataError

from conftest import RBCS, make_optical, make_rotor, rotor_b

OPTICAL_STANDIN = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"

SZ = Polarization.parse("sigma_z")
G0 = LineListOptions(gamma=0.0)


@pytest.fixture(scope="module")
def rotor():
    return make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")


# ------------------------------------------------------------------ dressing


def test_rabi_energy_hand_computed():
    d, inten = 1.27, 100.0
    e_field = math.sqrt(2.0 * inten * 1e4 / (si.epsilon_0 * si.c))
    expect = d * 1e-21 / si.c * e_field * math.sqrt(1.0 / 3.0) / (si.h * si.c * 100.0)
    assert rabi_energy(d, inten) == pytest.approx(expect, rel=1e-12)


def test_rabi_energy_scalings():
    base = rabi_energy(1.0, 50.0)
    assert rabi_energy(1.0, 200.0) == pytest.approx(2.0 * base, rel=1e-12)
    assert rabi_energy(2.0, 50.0) == pytest.approx(2.0 * base, rel=1e-12)
    assert rabi_energy(1.0, 0.0) == 0.0


def test_the_dressing_weight_is_the_j0_to_1_weight_of_every_polarization():
    # microwave_plan always drives J = 0 -> 1, whose 3-j weight does not depend
    # on the lab polarization, so the weight is a constant
    for name, components in POLARIZATIONS.items():
        weight = sum(abs(a) ** 2 * angular_weight(0, 0, 1, q, q) for q, a in components)
        assert weight == pytest.approx(control.DEFAULT_ANGULAR_WEIGHT, rel=0, abs=1e-15), name


def test_induced_dipole_limits():
    d, de = 1.27, 0.03
    assert induced_dipole(d, de, de, 100.0) == 0.5 * d
    assert induced_dipole(d, de, de + 0.5, 0.0) == 0.0
    assert induced_dipole(0.0, de, de, 100.0) == 0.0
    by_i = [induced_dipole(d, de, de + 0.01, i) for i in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b > a for a, b in zip(by_i, by_i[1:]))
    by_det = [induced_dipole(d, de, de + det, 100.0) for det in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(b < a for a, b in zip(by_det, by_det[1:]))
    # detuning enters through its magnitude only (power-of-two offsets keep
    # the two detunings exactly equal in floats)
    assert induced_dipole(d, 0.03125, 0.03125 + 0.015625, 7.0) == induced_dipole(
        d, 0.03125, 0.03125 - 0.015625, 7.0
    )


@settings(max_examples=80, deadline=None)
@given(
    det=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    inten=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)
def test_induced_dipole_bounded(det, inten):
    d = 1.27
    got = induced_dipole(d, 0.03, 0.03 + det, inten)
    assert 0.0 <= got <= 0.5 * d + 1e-12


def test_perturbative_limit():
    d, de, inten = 1.27, 0.03, 100.0
    om = rabi_energy(d, inten)
    for mult in (10.0, 20.0, 100.0):
        nu = de + mult * om
        exact = induced_dipole(d, de, nu, inten)
        # first-order mixing: (d/2) Omega / |delta| for |delta| >> Omega
        approx = 0.5 * d * om / abs(nu - de)
        assert approx == pytest.approx(exact, rel=1e-2)
        assert approx >= exact  # dropping the Rabi term in the norm only raises it
    assert induced_dipole(d, de, de + 1.0, 0.0) == 0.0


def test_microwave_plan_on_and_off_resonance(rotor):
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    probe = microwave_plan(rotor, 0.05, 100.0)
    assert probe.delta_e == pytest.approx(2.0 * b, rel=1e-9)
    assert probe.d_permanent == pytest.approx(RBCS["d"], rel=1e-9)
    assert probe.detuning == probe.nu - probe.delta_e
    on = microwave_plan(rotor, probe.delta_e, 100.0)
    assert on.d_induced == 0.5 * on.d_permanent
    assert on.rabi > 0.0


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    inten=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_microwave_plan_invariant(rotor, nu, inten):
    plan = microwave_plan(rotor, nu, inten)
    assert 0.0 <= plan.d_induced <= 0.5 * plan.d_permanent + 1e-12


def test_microwave_plan_needs_permanent_dipole():
    with pytest.raises(DataError, match="permanent dipole"):
        microwave_plan(make_optical(), 0.05, 100.0)


# --------------------------------------------------------------- interaction


def test_dd_interaction_hand_computed():
    d, r_nm = 0.6, 500.0
    d_si = d * 1e-21 / si.c
    expect = d_si**2 / (4.0 * math.pi * si.epsilon_0 * (r_nm * 1e-9) ** 3) / si.h
    got = dd_interaction(d, r_nm)
    assert got.v_dd_over_h == pytest.approx(expect, rel=1e-12)
    assert got.delta_t * got.v_dd_over_h == pytest.approx(1.0, rel=1e-15)


def test_dd_interaction_cubic_scaling_exact():
    for r_nm in (266.0, 405.0, 532.0):
        near = dd_interaction(0.45, r_nm)
        far = dd_interaction(0.45, 2.0 * r_nm)
        assert far.delta_t == 8.0 * near.delta_t
        assert far.v_dd_over_h == near.v_dd_over_h / 8.0


def test_dd_interaction_edge_cases():
    off = dd_interaction(0.0, 500.0)
    assert off.v_dd_over_h == 0.0
    assert off.delta_t == math.inf
    assert dd_interaction(-0.5, 500.0).d_induced == 0.5
    with pytest.raises(ValueError):
        dd_interaction(0.5, 0.0)
    with pytest.raises(ValueError):
        dd_interaction(0.5, -1.0)


def test_lattice_plan_exact_arithmetic():
    plan = lattice_plan(complex(-100.0, 0.001), 1.0e4, 1064.0)
    assert plan.v0_over_h == 1.0e6
    assert plan.decoherence_rate == pytest.approx(4.0 * math.pi * 0.001 * 1.0e4, rel=1e-15)
    assert plan.coherent_ratio == pytest.approx(1.0e5, rel=1e-15)
    assert plan.r_l == 532.0
    assert plan.nu == pytest.approx(1.0e7 / 1064.0, rel=1e-15)
    assert plan.wavelength_nm == 1064.0
    assert plan.intensity == 1.0e4


def test_lattice_plan_degenerate_inputs():
    assert lattice_plan(complex(-100.0, 0.001), 0.0, 1064.0).v0_over_h == 0.0
    assert lattice_plan(complex(-100.0, 0.001), 0.0, 1064.0).decoherence_rate == 0.0
    assert lattice_plan(complex(-100.0, 0.0), 1.0e4, 1064.0).coherent_ratio == math.inf


# -------------------------------------------------------------- magic points


def _rotor_specs(rotor, grid=None):
    nus = grid if grid is not None else np.arange(0.005, 0.30, 0.005)
    a = scan_spectrum(rotor, LevelId("X0", 0, 0, 0), SZ, nus, G0)
    b = scan_spectrum(rotor, LevelId("X0", 0, 1, 0), SZ, nus, G0)
    return a, b


def _bisect(f, a, b, fa, fb):
    """One bracket's bisection, a scalar f evaluated once per step: the
    reference for control._bisect_all."""
    limit = max(1e-15, 1e-14 * max(abs(a), abs(b)))
    while (b - a) > limit:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _magic_by_bracket_loop(spec_a, spec_b, tol=1e-6):
    """find_magic's bracket search written as a per-bracket loop over every resonance."""
    nus, diff = spec_a.nu, spec_a.values.real - spec_b.values.real
    finite = np.isfinite(spec_a.values.real) & np.isfinite(spec_b.values.real)
    res_nus = sorted({r.nu for r in spec_a.resonances} | {r.nu for r in spec_b.resonances})
    kernel_a, kernel_b = control.alpha_kernel(spec_a.lines), control.alpha_kernel(spec_b.lines)

    def g(nu):
        return complex(kernel_a(np.asarray([nu]))[0]).real - complex(kernel_b(np.asarray([nu]))[0]).real

    roots = []
    for i in range(len(nus) - 1):
        lo, hi = float(nus[i]), float(nus[i + 1])
        if not (finite[i] and finite[i + 1]) or any(lo <= r <= hi for r in res_nus):
            continue
        d1, d2 = float(diff[i]), float(diff[i + 1])
        if d1 == 0.0:
            root = lo
        elif d1 * d2 < 0.0:
            root = _bisect(g, lo, hi, d1, d2)
        else:
            continue
        if roots and abs(root - roots[-1][0]) <= tol:
            continue
        roots.append((root, complex(kernel_a(np.asarray([root]))[0])))
    return roots


def test_find_magic_rotor_crossing(rotor):
    a, b = _rotor_specs(rotor)
    roots = find_magic(a, b)
    assert len(roots) == 1
    b_rot = rotor_b(RBCS["mu"], RBCS["r_e"])
    assert roots[0].nu == pytest.approx(8.0 * b_rot, rel=1e-9)
    assert roots[0].alpha == alpha_at(a.lines, roots[0].nu)
    # the crossing must hold off the scan grid as well
    ga = alpha_at(a.lines, roots[0].nu).real
    gb = alpha_at(b.lines, roots[0].nu).real
    scale = max(abs(float(np.max(np.abs(a.values.real)))), abs(ga))
    assert abs(ga - gb) < 1e-6 * scale


def test_magic_bisection_matches_pointwise_alpha_at(monkeypatch):
    ds = load_dataset(OPTICAL_STANDIN)
    opts = LineListOptions(grid=RadialGrid(5.0, 20.0, 301))
    nus = np.arange(8800.0, 9600.0, 2.0)
    a = scan_spectrum(ds, LevelId("X0", 0, 0, 0), SZ, nus, opts)
    b = scan_spectrum(ds, LevelId("X0", 0, 1, 0), SZ, nus, opts)
    roots = find_magic(a, b)
    assert len(roots) >= 5
    assert [(r.nu, r.alpha) for r in roots] == _magic_by_bracket_loop(a, b)
    # the same search with every bisection step a fresh pointwise alpha_at
    monkeypatch.setattr(
        control, "alpha_kernel", lambda lines: lambda nu: np.array([alpha_at(lines, x) for x in nu])
    )
    pointwise = find_magic(a, b)
    assert [(r.nu, r.alpha) for r in roots] == [(r.nu, r.alpha) for r in pointwise]
    assert all(r.alpha == alpha_at(a.lines, r.nu) for r in roots)


def test_magic_tol_merges_roots_and_does_not_round_them():
    ds = load_dataset(OPTICAL_STANDIN)
    opts = LineListOptions(grid=RadialGrid(5.0, 20.0, 301))
    nus = np.arange(8800.0, 9600.0, 2.0)
    a = scan_spectrum(ds, LevelId("X0", 0, 0, 0), SZ, nus, opts)
    b = scan_spectrum(ds, LevelId("X0", 0, 1, 0), SZ, nus, opts)
    roots = find_magic(a, b)
    assert len(roots) >= 2
    # an infinite merge radius keeps the first crossing, polished to the same bits
    assert find_magic(a, b, tol=math.inf) == roots[:1]


def test_find_magic_symmetric_in_arguments(rotor):
    a, b = _rotor_specs(rotor)
    fwd = find_magic(a, b)
    rev = find_magic(b, a)
    assert len(fwd) == len(rev) == 1
    assert fwd[0].nu == pytest.approx(rev[0].nu, rel=1e-9)


def test_find_magic_degenerate_rejected(rotor):
    a, _ = _rotor_specs(rotor)
    with pytest.raises(DegenerateSpectraError):
        find_magic(a, a)


def test_find_magic_requires_shared_grid(rotor):
    a, _ = _rotor_specs(rotor)
    _, b = _rotor_specs(rotor, grid=np.arange(0.005, 0.30, 0.004))
    with pytest.raises(ValueError, match="grid"):
        find_magic(a, b)


def test_find_magic_skips_pole_brackets(rotor):
    # sign flips across the undamped resonances must not be reported as roots
    a, b = _rotor_specs(rotor)
    b_rot = rotor_b(RBCS["mu"], RBCS["r_e"])
    for res in (2.0 * b_rot, 4.0 * b_rot):
        for root in find_magic(a, b):
            assert abs(root.nu - res) > 1e-3


@pytest.mark.parametrize("gamma", [0.0, 30.0])
def test_find_magic_skips_resonances_on_grid_nodes(rotor, gamma):
    # the 2B and 4B resonances are grid nodes: both brackets touching each are
    # skipped, undamped (a pole, NaN at the node) or damped (finite there)
    b_rot = rotor_b(RBCS["mu"], RBCS["r_e"])
    res = [2.0 * b_rot, 4.0 * b_rot]
    nus = np.sort(np.append(np.arange(0.005, 0.30, 0.005), res))
    nodes = [int(np.flatnonzero(nus == r)[0]) for r in res]
    opts = LineListOptions(gamma=gamma)
    a = scan_spectrum(rotor, LevelId("X0", 0, 0, 0), SZ, nus, opts)
    b = scan_spectrum(rotor, LevelId("X0", 0, 1, 0), SZ, nus, opts)
    assert set(res) <= {r.nu for r in a.resonances} | {r.nu for r in b.resonances}
    if gamma:
        # sign changes that only the resonance screen removes: in the bracket
        # ending at the 2B node and in the one starting at the 4B node
        diff = a.values.real - b.values.real
        i, j = nodes
        assert np.all(np.isfinite(diff[[i, j]]))
        assert diff[i - 1] * diff[i] < 0.0 and diff[j] * diff[j + 1] < 0.0
    roots = find_magic(a, b)
    assert [(r.nu, r.alpha) for r in roots] == _magic_by_bracket_loop(a, b)
    assert len(roots) == 1
    assert all(not nus[k - 1] <= roots[0].nu <= nus[k + 1] for k in nodes)


def _bracketed_lines(origin, scale, brackets):
    """Disjoint brackets [a_k, b_k] from (width, root fraction, slope) triples,
    all lengths times scale, and g(x) = slope_k (x - root_k) on each: a
    function of a frequency array alone, exact in every element, so a
    bracket's values do not depend on which others share the array."""
    width, frac, slope = (np.array(col) for col in zip(*brackets))
    a = (origin + 16.0 * np.arange(len(brackets))) * scale
    b, roots = a + width * scale, a + width * scale * frac

    def g(x):
        k = np.searchsorted(b, x)
        return slope[k] * (x - roots[k])

    return a, b, g


def _dyadic_fraction(depth):
    """An odd multiple of 2^-depth in (0, 1): bisection lands on it at step depth."""
    return st.integers(0, 2 ** (depth - 1) - 1).map(lambda j: (2 * j + 1) / 2**depth)


_BRACKET = st.tuples(
    st.sampled_from([1.0, 2.0, 8.0]),
    st.one_of(
        st.integers(1, 30).flatmap(_dyadic_fraction),   # an exact zero at a midpoint
        st.just(0.0),                                   # a zero at the low end
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    origin=st.integers(-1000, 1000),
    exponent=st.integers(-20, 20),
    brackets=st.lists(_BRACKET, min_size=1, max_size=12),
)
def test_lockstep_bisection_gives_each_bracket_the_scalar_bits(origin, exponent, brackets):
    # brackets of different widths, magnitudes (so width limits) and roots
    # finish at different steps
    a, b, g = _bracketed_lines(origin, 2.0**exponent, brackets)
    fa, fb = g(a), g(b)
    calls = []

    def counted(x):
        calls.append(len(x))
        return g(x)

    roots = control._bisect_all(counted, a, b, fa)
    reference, steps = [], []
    for ends in zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist()):
        points = []

        def f(x):
            points.append(x)
            return float(g(np.array([x]))[0])

        reference.append(_bisect(f, *ends))
        steps.append(len(points))
    assert roots.tolist() == reference
    # one evaluation per step, over every bracket still open at that step
    assert len(calls) == max(steps)
    assert sum(calls) == sum(steps)


def test_lockstep_bisection_stops_a_bracket_whose_midpoint_leaves_it():
    # a + b overflows: the midpoint is -inf (m <= a) or inf (m >= b), so these
    # brackets stop before any evaluation, as the scalar loop does
    a = np.array([-1.7e308, 1.0, 1.0e308])
    b = np.array([-1.0e308, 2.0, 1.7e308])
    fa, fb = np.array([1.0, -1.0, 1.0]), np.array([-1.0, 0.75, -1.0])

    def g(x):
        assert np.all(np.isfinite(x))
        return x - 1.25

    with np.errstate(over="ignore"):
        roots = control._bisect_all(g, a, b, fa)
    assert roots.tolist() == [-math.inf, 1.25, math.inf]
    assert [_bisect(g, *ends) for ends in zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist())] == roots.tolist()


# ------------------------------------------------------------------- windows


def _windows_by_run_loop(spectrum, min_width, flatness_cap, ratio_floor):
    """find_windows as a per-point run scan with one mask pass per resonance."""
    nus = spectrum.nu
    vals = spectrum.values
    n = len(nus)
    if n < 2:
        return []
    mag = np.abs(vals)
    re = np.abs(np.real(vals))
    im = np.abs(np.imag(vals))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(im == 0.0, math.inf, re / np.where(im == 0.0, 1.0, im))
        logmag = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -math.inf)
        slope = np.abs(np.diff(logmag)) / np.diff(nus)
    point_ok = np.isfinite(mag) & (mag > 0.0) & (ratio >= ratio_floor)

    pair_ok = np.isfinite(slope) & (slope <= flatness_cap)
    for r in spectrum.resonances:
        cut = (nus[:-1] <= r.nu) & (r.nu <= nus[1:])
        pair_ok &= ~cut
        point_ok &= nus != r.nu

    res_nus = sorted(r.nu for r in spectrum.resonances)
    windows = []
    start = None
    for i in range(n):
        if point_ok[i] and start is None:
            start = i
        end_run = (not point_ok[i]) or i == n - 1 or (i < n - 1 and not pair_ok[i])
        if start is not None and end_run:
            last = i if point_ok[i] else i - 1
            if last > start and (nus[last] - nus[start]) >= min_width:
                lo, hi = float(nus[start]), float(nus[last])
                flank = []
                below = [r for r in res_nus if r < lo]
                above = [r for r in res_nus if r > hi]
                if below:
                    flank.append(below[-1])
                if above:
                    flank.append(above[0])
                windows.append(
                    control.FrequencyWindow(
                        nu_lo=lo,
                        nu_hi=hi,
                        min_ratio=float(np.min(ratio[start : last + 1])),
                        max_flatness=float(np.max(slope[start:last], initial=0.0)),
                        resonances_excluded=tuple(flank),
                    )
                )
            start = None
    return windows


def _assert_windows_match_run_loop(spec, *criteria):
    wins = find_windows(spec, *criteria)
    assert wins == _windows_by_run_loop(spec, *criteria)
    for w in wins:
        fields = (w.nu_lo, w.nu_hi, w.min_ratio, w.max_flatness, *w.resonances_excluded)
        assert all(type(x) is float for x in fields)
    return wins


@st.composite
def _drawn_spectra(draw):
    """Short ascending scans with NaN, zero and real-only values, and resonances on
    nodes, between nodes, repeated and outside the scan."""
    n = draw(st.integers(0, 24))
    nus = 100.0 + np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=n, max_size=n)))
    re = draw(st.lists(st.sampled_from([-50.0, -49.0, -45.0, -20.0, 0.0, 35.0, math.nan]), min_size=n, max_size=n))
    im = draw(st.lists(st.sampled_from([1e-5, 1e-3, 0.5, 0.0, -1e-4, math.nan]), min_size=n, max_size=n))
    spots = [90.0, 150.0, 1e4] + nus.tolist() + (0.5 * (nus[:-1] + nus[1:])).tolist()
    res = draw(st.lists(st.sampled_from(spots), max_size=6))
    return PolarizabilitySpectrum(
        initial=LevelId("X", 0, 0, 0),
        polarization="sigma_z",
        nu=nus,
        values=np.array(re) + 1j * np.array(im),
        resonances=[Resonance(nu=float(r), state="A", v=k, J=1, peak=1.0) for k, r in enumerate(res)],
        lines=[],
    )


CRITERION = [0.0, 0.03, 0.3, 1.0, 4.0, 1e3, math.inf, math.nan, -1.0]


@settings(max_examples=400, deadline=None)
@given(
    _drawn_spectra(),
    st.sampled_from(CRITERION),
    st.sampled_from(CRITERION),
    st.sampled_from(CRITERION),
)
def test_windows_match_the_per_point_run_scan(spec, min_width, flatness_cap, ratio_floor):
    _assert_windows_match_run_loop(spec, min_width, flatness_cap, ratio_floor)


def test_windows_around_a_resonance_on_a_node_and_a_repeated_one(rotor):
    # the 2B resonance is a grid node and is listed twice. With no flatness or
    # ratio limit it alone splits the scan: neither window holds the node, and
    # each names it once as its flank
    b_rot = rotor_b(RBCS["mu"], RBCS["r_e"])
    nus = np.sort(np.append(np.arange(0.005, 0.061, 0.001), 2.0 * b_rot))
    spec = scan_spectrum(rotor, LevelId("X0", 0, 0, 0), SZ, nus, LineListOptions(gamma=2.0))
    assert [r.nu for r in spec.resonances] == [2.0 * b_rot]
    spec.resonances = spec.resonances * 2
    wins = _assert_windows_match_run_loop(spec, 0.004, math.inf, 0.0)
    assert len(wins) == 2
    below, above = wins
    node = int(np.flatnonzero(nus == 2.0 * b_rot)[0])
    assert (below.nu_lo, below.nu_hi, above.nu_lo, above.nu_hi) == (nus[0], nus[node - 1], nus[node + 1], nus[-1])
    assert below.resonances_excluded == above.resonances_excluded == (2.0 * b_rot,)


def test_single_resonance_yields_two_flanking_windows(rotor):
    nus = np.arange(0.005, 0.061, 0.001)
    spec = scan_spectrum(
        rotor, LevelId("X0", 0, 0, 0), SZ, nus, LineListOptions(gamma=2.0)
    )
    assert len(spec.resonances) == 1
    nu_res = spec.resonances[0].nu
    wins = find_windows(spec, min_width=0.004, flatness_cap=1e3, ratio_floor=1e2)
    assert len(wins) == 2
    below, above = wins
    assert below.nu_hi < nu_res < above.nu_lo
    assert below.resonances_excluded == (nu_res,)
    assert above.resonances_excluded == (nu_res,)
    assert below.min_ratio >= 1e2
    assert above.min_ratio >= 1e2


def test_flatness_cap_zero_blocks_varying_spectra(rotor):
    nus = np.arange(0.005, 0.061, 0.001)
    spec = scan_spectrum(
        rotor, LevelId("X0", 0, 0, 0), SZ, nus, LineListOptions(gamma=2.0)
    )
    assert find_windows(spec, min_width=0.004, flatness_cap=0.0, ratio_floor=1.0) == []


def test_flatness_cap_zero_allows_constant_spectrum():
    nus = np.arange(100.0, 121.0, 1.0)
    spec = PolarizabilitySpectrum(
        initial=LevelId("X", 0, 0, 0),
        polarization="sigma_z",
        nu=nus,
        values=np.full(len(nus), complex(-50.0, 1e-5)),
        resonances=[],
        lines=[],
    )
    wins = find_windows(spec, min_width=5.0, flatness_cap=0.0, ratio_floor=1e3)
    assert len(wins) == 1
    assert wins[0].nu_lo == 100.0
    assert wins[0].nu_hi == 120.0
    assert wins[0].max_flatness == 0.0
    assert wins[0].resonances_excluded == ()


def test_min_width_filters_short_runs(rotor):
    nus = np.arange(0.005, 0.061, 0.001)
    spec = scan_spectrum(
        rotor, LevelId("X0", 0, 0, 0), SZ, nus, LineListOptions(gamma=2.0)
    )
    assert find_windows(spec, min_width=1.0, flatness_cap=1e3, ratio_floor=1e3) == []


def test_windows_satisfy_their_own_predicates():
    spec = scan_spectrum(
        make_optical(),
        LevelId("X", 0, 0, 0),
        SZ,
        np.arange(8550.0, 9550.0, 0.5),
    )
    floor, cap, width = 1e4, 0.5, 5.0
    wins = find_windows(spec, min_width=width, flatness_cap=cap, ratio_floor=floor)
    assert wins
    res = [r.nu for r in spec.resonances]
    for w in wins:
        assert w.nu_hi - w.nu_lo >= width
        assert not any(w.nu_lo <= r <= w.nu_hi for r in res)
        idx = np.where((spec.nu >= w.nu_lo) & (spec.nu <= w.nu_hi))[0]
        vals = spec.values[idx]
        assert np.all(np.isfinite(vals))
        ratio = np.abs(vals.real) / np.abs(vals.imag)
        assert np.all(ratio >= floor)
        assert w.min_ratio >= floor
        logmag = np.log(np.abs(vals))
        slopes = np.abs(np.diff(logmag)) / np.diff(spec.nu[idx])
        assert np.all(slopes <= cap + 1e-12)
        assert w.max_flatness <= cap + 1e-12


def test_short_scan_has_no_windows(rotor):
    spec = scan_spectrum(rotor, LevelId("X0", 0, 0, 0), SZ, np.array([0.01]), G0)
    assert find_windows(spec, min_width=0.001, flatness_cap=1.0, ratio_floor=1.0) == []
