import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from molpol import (
    ALPHA_HZ_PER_WCM2,
    HBAR2_OVER_TWO,
    MHZ_CM1,
    DipoleCurve,
    ElectronicState,
    HarmonicModel,
    LevelId,
    LineListOptions,
    MoleculeDataset,
    MorseModel,
    Polarization,
    PotentialCurve,
    RadialGrid,
    alpha_at,
    build_line_list,
    default_grid,
    load_dataset,
    natural_linewidth,
    scan_spectrum,
    solve_radial,
    write_dataset,
)
from molpol import polarizability, rovib
from molpol.coupling import natural_linewidths
from molpol.errors import DataError, GridError, QuantumNumberError

from conftest import RBCS, make_optical, make_rotor, rotor_b

SZ = Polarization.parse("sigma_z")
SX = Polarization.parse("sigma_x")
SY = Polarization.parse("sigma_y")
G0 = LineListOptions(gamma=0.0)


@pytest.fixture(scope="module")
def rotor():
    return make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")


@pytest.fixture(scope="module")
def optical():
    return make_optical()


# ------------------------------------------------------------ line-list shape


def test_rotor_ground_line_list(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 0, 0), SZ, G0)
    assert len(lines) == 1
    ln = lines[0]
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    assert (ln.state, ln.J, ln.M, ln.q, ln.v) == ("X0", 1, 0, 0, 0)
    assert ln.weight == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ln.delta_e == pytest.approx(2.0 * b, rel=1e-9)
    assert abs(ln.d_vib) == pytest.approx(RBCS["d"], rel=1e-9)
    assert ln.nu_res == ln.delta_e


def test_rotor_j1_line_list(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 1, 0), SZ, G0)
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    assert len(lines) == 2
    down = next(ln for ln in lines if ln.J == 0)
    up = next(ln for ln in lines if ln.J == 2)
    assert down.weight == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert down.delta_e == pytest.approx(-2.0 * b, rel=1e-9)
    assert down.nu_res == pytest.approx(2.0 * b, rel=1e-9)
    assert up.weight == pytest.approx(4.0 / 15.0, abs=1e-15)
    assert up.delta_e == pytest.approx(4.0 * b, rel=1e-9)


def test_branch_cap_limits_final_j(rotor):
    lines = build_line_list(
        rotor, LevelId("X0", 0, 1, 0), SZ, LineListOptions(gamma=0.0, j_max_branch=1)
    )
    assert [ln.J for ln in lines] == [0]


def test_v_cap_limits_final_v(optical):
    full = build_line_list(optical, LevelId("X", 0, 0, 0), SZ)
    capped = build_line_list(
        optical, LevelId("X", 0, 0, 0), SZ, LineListOptions(v_max=3)
    )
    assert max(ln.v for ln in full) > 3
    assert max(ln.v for ln in capped) <= 3
    assert len(capped) < len(full)


def test_weak_dipole_floor():
    visible = build_line_list(make_optical(hidden_d=2e-5), LevelId("X", 0, 0, 0), SZ)
    assert any(ln.state == "H" for ln in visible)
    dropped = build_line_list(make_optical(hidden_d=1e-9), LevelId("X", 0, 0, 0), SZ)
    assert not any(ln.state == "H" for ln in dropped)
    rescued = build_line_list(
        make_optical(hidden_d=1e-9),
        LevelId("X", 0, 0, 0),
        SZ,
        LineListOptions(d_floor=1e-10),
    )
    assert any(ln.state == "H" for ln in rescued)


def _two_well(parity_excited: str | None, omega_excited: int = 0) -> MoleculeDataset:
    mu, r_e = 20.0, 8.0
    k = mu * 80.0**2 / (2.0 * HBAR2_OVER_TWO)
    grid = RadialGrid(6.0, 10.0, 201)
    r = grid.points
    x = ElectronicState("X", 0, np.inf, "+")
    f = ElectronicState("F", omega_excited, np.inf, parity_excited)
    return MoleculeDataset(
        name="pair",
        reduced_mass=mu,
        states=[x, f],
        potentials={
            "X": PotentialCurve(x, r, HarmonicModel(k, r_e).value(r)),
            "F": PotentialCurve(f, r, 1000.0 + HarmonicModel(k, r_e).value(r)),
        },
        dipoles=[DipoleCurve("X", "F", r, np.full_like(r, 1.0))],
        ground_label="X",
    )


def test_parity_exclusion_rule():
    grid_opts = LineListOptions(gamma=0.0, grid=RadialGrid(6.0, 10.0, 201))
    init = LevelId("X", 0, 0, 0)
    assert build_line_list(_two_well("-"), init, SZ, grid_opts) == []
    assert build_line_list(_two_well("+"), init, SZ, grid_opts) != []
    assert build_line_list(_two_well(None), init, SZ, grid_opts) != []
    # the rule only binds when both states carry zero electronic projection
    assert build_line_list(_two_well("-", omega_excited=1), init, SZ, grid_opts) != []


def test_initial_level_errors(rotor):
    with pytest.raises(DataError, match="not bound"):
        build_line_list(rotor, LevelId("X0", 1, 0, 0), SZ)
    with pytest.raises(DataError, match="M"):
        build_line_list(rotor, LevelId("X0", 0, 1, 2), SZ)


def test_initial_level_is_not_among_its_own_lines():
    # omega = 1 allows J' = J, and a sloped permanent dipole reaches every v' of
    # the initial (state, J) block: the sum must skip the initial level itself
    r = np.linspace(5.0, 14.0, 181)
    x = ElectronicState("X", 1, 0.0)
    ds = MoleculeDataset(
        name="omega_one",
        reduced_mass=50.0,
        states=[x],
        potentials={"X": PotentialCurve(x, r, MorseModel(2000.0, 0.5, 8.0).value(r))},
        dipoles=[DipoleCurve("X", "X", r, 0.5 + 0.2 * (r - 8.0))],
        ground_label="X",
    )
    opts = LineListOptions(grid=RadialGrid(5.0, 14.0, 181), max_levels=7, gamma=0.0)
    lines = build_line_list(ds, LevelId("X", 0, 1, 1), SZ, opts)
    assert [ln.v for ln in lines if ln.J == 1] == [1, 2, 3, 4, 5, 6]
    assert all(ln.delta_e != 0.0 for ln in lines)


# -------------------------------------------------------------- alpha values


def test_static_value_closed_form(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 0, 0), SZ, G0)
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    exact = ALPHA_HZ_PER_WCM2 * (1.0 / 3.0) * RBCS["d"] ** 2 / (2.0 * b)
    got = alpha_at(lines, 0.0)
    assert got.real == pytest.approx(exact, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-15)


def test_dynamic_value_closed_form(rotor):
    gamma = 2.0
    lines = build_line_list(
        rotor, LevelId("X0", 0, 0, 0), SZ, LineListOptions(gamma=gamma)
    )
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    z = complex(2.0 * b, -0.5 * gamma * MHZ_CM1)
    for nu in (0.0, 0.01, 2.0 * b * 0.999, 2.0 * b * 1.001, 0.5, 10.0):
        exact = ALPHA_HZ_PER_WCM2 * (1.0 / 3.0) * RBCS["d"] ** 2 * z / (z * z - nu * nu)
        got = alpha_at(lines, nu)
        assert got.real == pytest.approx(exact.real, rel=1e-12)
        assert got.imag == pytest.approx(exact.imag, rel=1e-12)
        assert got.imag >= 0.0


@pytest.mark.parametrize("gamma", ["computed", 0.0, 1e-3, 6.0, 1e6])
def test_imaginary_part_nonnegative(optical, gamma):
    spec = scan_spectrum(
        optical, LevelId("X", 0, 0, 0), SZ, np.arange(0.0, 17000.0, 7.3), LineListOptions(gamma=gamma)
    )
    vals = spec.values
    finite = vals[~np.isnan(vals.real)]
    assert np.all(finite.imag >= 0.0)


def test_real_part_flips_sign_across_resonance(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 0, 0), SZ, G0)
    nu0 = lines[0].nu_res
    assert alpha_at(lines, 0.9 * nu0).real > 0.0
    assert alpha_at(lines, 1.1 * nu0).real < 0.0


def test_high_frequency_tail(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 0, 0), SZ, G0)
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    limit = -ALPHA_HZ_PER_WCM2 * (1.0 / 3.0) * RBCS["d"] ** 2 * 2.0 * b
    for nu in (1.0e4, 1.0e5):
        assert alpha_at(lines, nu).real * nu**2 == pytest.approx(limit, rel=1e-6)
    mags = [abs(alpha_at(lines, nu).real) for nu in np.linspace(100.0, 1000.0, 10)]
    assert all(b2 < a2 for a2, b2 in zip(mags, mags[1:]))


def test_linearity_over_state_partition():
    full = make_optical()
    r = np.linspace(5.0, 18.0, 301)

    def single(keep: str) -> MoleculeDataset:
        x = ElectronicState("X", 0, 0.0, "+")
        other = full.state(keep)
        return MoleculeDataset(
            name=f"only_{keep}",
            reduced_mass=full.reduced_mass,
            states=[x, other],
            potentials={"X": full.potentials["X"], keep: full.potentials[keep]},
            dipoles=[d for d in full.dipoles if keep in (d.bra, d.ket)],
            ground_label="X",
            default_gamma=full.default_gamma,
        )

    init = LevelId("X", 0, 0, 0)
    nus = np.arange(8500.3, 9600.0, 37.0)
    a_full = scan_spectrum(full, init, SZ, nus).values
    a_e = scan_spectrum(single("E"), init, SZ, nus).values
    a_h = scan_spectrum(single("H"), init, SZ, nus).values
    np.testing.assert_allclose(a_full, a_e + a_h, rtol=1e-12)


def test_m_sign_degeneracy(rotor):
    nus = np.arange(0.0, 0.3, 0.004)
    for pol in (SZ, SX):
        plus = scan_spectrum(rotor, LevelId("X0", 0, 1, 1), pol, nus, G0).values
        minus = scan_spectrum(rotor, LevelId("X0", 0, 1, -1), pol, nus, G0).values
        np.testing.assert_array_equal(plus, minus)


def test_isotropy_between_equivalent_geometries(rotor):
    # driving M=0 along x matches driving M=+1 along z
    nus = np.arange(0.0, 0.3, 0.004)
    ax = scan_spectrum(rotor, LevelId("X0", 0, 1, 0), SX, nus, G0).values
    az = scan_spectrum(rotor, LevelId("X0", 0, 1, 1), SZ, nus, G0).values
    ay = scan_spectrum(rotor, LevelId("X0", 0, 1, 0), SY, nus, G0).values
    np.testing.assert_allclose(ax, az, rtol=1e-12, atol=1e-18)
    np.testing.assert_allclose(ax, ay, rtol=1e-12, atol=1e-18)


def parity_set(with_f: bool) -> MoleculeDataset:
    """X (0+) and G (0+) joined by a dipole, optionally with F (0-) below G joined to G."""
    r = np.linspace(5.0, 18.0, 301)
    x = ElectronicState("X", 0, 0.0, "+")
    f = ElectronicState("F", 0, 7000.0, "-")
    g = ElectronicState("G", 0, 10000.0, "+")
    pots = {
        "X": PotentialCurve(x, r, MorseModel(2000.0, 0.5, 8.0).value(r)),
        "G": PotentialCurve(g, r, 10000.0 + MorseModel(2500.0, 0.5, 8.4).value(r)),
    }
    dips = [DipoleCurve("X", "G", r, np.full_like(r, 5.0))]
    if with_f:
        pots["F"] = PotentialCurve(f, r, 7000.0 + MorseModel(2500.0, 0.5, 8.2).value(r))
        dips.append(DipoleCurve("F", "G", r, np.full_like(r, 3.0)))
    states = [x, f, g] if with_f else [x, g]
    return MoleculeDataset("parity", 50.0, states, pots, dips, "X")


def test_parity_forbidden_partner_does_not_widen_lines():
    opts = LineListOptions(grid=RadialGrid(5.0, 18.0, 301))
    init = LevelId("X", 0, 0, 0)
    with_f = build_line_list(parity_set(True), init, SZ, opts)
    without_f = build_line_list(parity_set(False), init, SZ, opts)
    assert [ln.state for ln in with_f] == [ln.state for ln in without_f]
    assert with_f[0].state == "G"
    assert with_f[0].gamma > 0.0
    assert with_f[0].gamma == without_f[0].gamma
    # the same rule holds when the forbidden levels are handed over directly
    ds, grid = parity_set(True), opts.grid
    g0 = solve_radial(ds, "G", 1, grid, 1)[0]
    x = solve_radial(ds, "X", 0, grid) + solve_radial(ds, "X", 2, grid)
    f = solve_radial(ds, "F", 0, grid) + solve_radial(ds, "F", 2, grid)
    assert natural_linewidth(g0, ds, x + f) == natural_linewidth(g0, ds, x)


# ------------------------------------------------------------------ scanning


def test_pole_point_tagged(rotor):
    lines = build_line_list(rotor, LevelId("X0", 0, 0, 0), SZ, G0)
    nu0 = lines[0].nu_res
    hit = alpha_at(lines, nu0)
    assert math.isnan(hit.real) and math.isnan(hit.imag)
    spec = scan_spectrum(
        rotor, LevelId("X0", 0, 0, 0), SZ, np.array([0.01, nu0, 0.3]), G0
    )
    flags = np.isnan(spec.values.real).tolist()
    assert flags == [False, True, False]
    assert len(spec.resonances) == 1
    assert spec.resonances[0].peak == math.inf


def test_damped_peak_finite(rotor):
    spec = scan_spectrum(
        rotor,
        LevelId("X0", 0, 0, 0),
        SZ,
        np.array([0.01, 0.3]),
        LineListOptions(gamma=2.0),
    )
    assert len(spec.resonances) == 1
    assert math.isfinite(spec.resonances[0].peak)
    assert spec.resonances[0].peak > 0.0
    assert not any(np.isnan(spec.values.real))


def test_resonances_include_hidden_state(optical):
    spec = scan_spectrum(
        optical, LevelId("X", 0, 0, 0), SZ, np.arange(8500.0, 9600.0, 1.0)
    )
    states = {r.state for r in spec.resonances}
    assert "E" in states
    assert "H" in states
    nus = [r.nu for r in spec.resonances]
    assert nus == sorted(nus)
    assert all(8500.0 <= v <= 9600.0 for v in nus)


def test_resonances_respect_scan_range(rotor):
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    spec = scan_spectrum(
        rotor, LevelId("X0", 0, 0, 0), SZ, np.array([10.0, 20.0]), G0
    )
    assert spec.resonances == []
    assert 2.0 * b < 10.0


def test_scan_needs_a_strictly_ascending_grid():
    ds = load_dataset(Path(__file__).resolve().parents[1] / "datasets" / "krb_rotor_standin")
    level = LevelId("X0", 0, 0, 0)
    nus = 0.005 + 0.001 * np.arange(296)   # 0.005:0.3:0.001
    assert len(scan_spectrum(ds, level, SZ, nus).resonances) == 1
    for bad in (nus[::-1], np.repeat(nus, 2), nus.reshape(2, -1)):
        with pytest.raises(DataError, match="strictly ascending"):
            scan_spectrum(ds, level, SZ, bad)


def test_scan_needs_a_grid_from_zero_up():
    # alpha is even in nu but a resonance is listed only at +|Delta|: below 0
    # a scan listed none, and its mirror poles passed the magic/window screens
    ds = load_dataset(Path(__file__).resolve().parents[1] / "datasets" / "krb_rotor_standin")
    level = LevelId("X0", 0, 0, 0)
    nus = 0.001 * np.arange(301)   # 0:0.3:0.001
    assert len(scan_spectrum(ds, level, SZ, nus).resonances) == 1
    for bad in (nus - 0.3, nus - 1e-300, np.array([-0.1]), np.array([math.nan])):
        with pytest.raises(DataError, match="start at 0 cm"):
            scan_spectrum(ds, level, SZ, bad)


def test_scan_matches_pointwise(rotor):
    nus = np.arange(0.0, 0.3, 0.007)
    spec = scan_spectrum(rotor, LevelId("X0", 0, 0, 0), SZ, nus, G0)
    for nu, value in zip(spec.nu, spec.values):
        assert value == alpha_at(spec.lines, nu)


def test_resonance_peaks_match_pointwise(optical):
    spec = scan_spectrum(optical, LevelId("X", 0, 0, 0), SZ, np.arange(8500.0, 9600.0, 1.0))
    assert len(spec.resonances) > 1
    for r in spec.resonances:
        assert r.peak == abs(alpha_at(spec.lines, r.nu))


def _alpha_line_by_line(lines, nus):
    """Reference kernel: one line at a time, in list order."""
    out = np.zeros(len(nus), dtype=complex)
    for ln in lines:
        z = complex(ln.delta_e, -0.5 * ln.gamma * MHZ_CM1)
        den = z * z - nus**2
        term = np.where(den == 0, complex(math.nan, math.nan), z / np.where(den == 0, 1.0, den))
        out = out + (ln.weight * ln.d_vib**2) * term
    return ALPHA_HZ_PER_WCM2 * out


# _KERNEL_CHUNK for a list of n lines: one nu column a chunk, five columns a
# chunk, the default and a larger chunk
KERNEL_CHUNKS = {"1": lambda n: 1, "5 columns": lambda n: 5 * n, "16384": lambda n: 1 << 14, "65536": lambda n: 1 << 16}


@pytest.mark.parametrize("kernel_chunk", KERNEL_CHUNKS)
def test_scan_longer_than_a_kernel_chunk_matches_pointwise(optical, kernel_chunk, monkeypatch):
    # the chunk size moves no bit: one nu per chunk gives the same values
    init = LevelId("X", 0, 0, 0)
    lines = build_line_list(optical, init, SZ)
    monkeypatch.setattr(polarizability, "_KERNEL_CHUNK", KERNEL_CHUNKS[kernel_chunk](len(lines)))
    chunk = max(1, polarizability._KERNEL_CHUNK // len(lines))
    nus = np.linspace(8500.0, 9600.0, 2 * chunk + 7)
    # one column a chunk, or several in three chunks or more, the last one short
    assert chunk == 1 or (len(nus) > 2 * chunk and len(nus) % chunk)
    # a copy holds no other case's scan
    values = scan_spectrum(dataclasses.replace(optical), init, SZ, nus).values
    pointwise = np.array([alpha_at(lines, nu) for nu in nus])
    assert len(nus) > chunk
    assert np.array_equal(values.view(np.uint64), pointwise.view(np.uint64))
    # the same additions in the same order as the line-by-line reference
    assert np.array_equal(values.view(np.uint64), _alpha_line_by_line(lines, nus).view(np.uint64))


def test_line_gammas_come_from_block_linewidths(optical):
    # every E line carries the Einstein-A width of its final level over X J' +- 1
    grid = default_grid(optical)
    lines = build_line_list(optical, LevelId("X", 0, 0, 0), SZ)
    lowers = [lev for J in (0, 1, 2) for lev in solve_radial(optical, "X", J, grid)]
    finals = solve_radial(optical, "E", 1, grid)
    e_lines = [ln for ln in lines if ln.state == "E"]
    assert e_lines
    for ln in e_lines:
        assert ln.gamma == pytest.approx(natural_linewidth(finals[ln.v], optical, lowers), rel=1e-12)


OPTICAL_STANDIN = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"


def test_an_optical_scan_keeps_the_kernels_working_set_small():
    # the kernel's one (lines x chunk) buffer, in which each chunk is
    # computed in place, is the largest allocation after the solves: 0.59 MB
    # at 1 << 14 entries a chunk, against 1.13 MB when each chunk allocated
    # its own arrays
    lines = build_line_list(load_dataset(OPTICAL_STANDIN), LevelId("X0", 0, 0, 0), SZ)
    kernel = polarizability.alpha_kernel(lines)
    nus = 8600.0 + 0.5 * np.arange(3600)
    tracemalloc.start()
    try:
        kernel(nus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 136
    assert peak <= 0.7e6


@pytest.mark.parametrize("kernel_chunk", ["1", "5 columns", "16384"])
def test_an_undamped_pole_is_nan_in_its_own_column_only(optical, kernel_chunk, monkeypatch):
    # an undamped list takes the kernel's pole pass: the exact hit is
    # NaN+NaNj, and its neighbours, in its chunk or not, keep their bits
    lines = build_line_list(optical, LevelId("X", 0, 0, 0), SZ, G0)
    monkeypatch.setattr(polarizability, "_KERNEL_CHUNK", KERNEL_CHUNKS[kernel_chunk](len(lines)))
    chunk = max(1, polarizability._KERNEL_CHUNK // len(lines))
    nu_res = lines[len(lines) // 2].nu_res
    # an even count of points about nu_res leaves it off the linspace
    nus = np.sort(np.append(np.linspace(nu_res - 40.0, nu_res + 40.0, 2 * chunk + 6), nu_res))
    assert chunk == 1 or (len(nus) > 2 * chunk and len(nus) % chunk)
    pole = int(np.flatnonzero(nus == nu_res)[0])
    values = polarizability.alpha_kernel(lines)(nus)
    assert np.flatnonzero(np.isnan(values.real) | np.isnan(values.imag)).tolist() == [pole]
    assert np.isnan(values[pole].real) and np.isnan(values[pole].imag)
    rest = np.delete(values, pole).view(np.uint64)
    assert np.array_equal(rest, np.delete(_alpha_line_by_line(lines, nus), pole).view(np.uint64))


@pytest.mark.parametrize("J, M", [(2, 1), (5, 3)])
def test_q_plus_one_at_m_is_q_minus_one_at_minus_m_bit_for_bit(J, M):
    # the mirror M -> -M with q -> -q keeps every weight exact, so the two
    # scans add the same terms in the same order
    ds = load_dataset(OPTICAL_STANDIN)
    nus = 8600.0 + 0.5 * np.arange(3600)
    plus = scan_spectrum(ds, LevelId("X0", 0, J, M), Polarization.parse("q+1"), nus)
    minus = scan_spectrum(ds, LevelId("X0", 0, J, -M), Polarization.parse("q-1"), nus)
    assert len(plus.lines) == len(minus.lines) > 0
    assert np.array_equal(plus.values.view(np.uint64), minus.values.view(np.uint64))


def test_doubled_dipoles_give_four_times_alpha_and_linewidths_bit_for_bit():
    # every dipole curve times 2 is every d_vib times 2, exactly: alpha at a
    # fixed linewidth and every computed Einstein-A linewidth go as d^2
    ds = load_dataset(OPTICAL_STANDIN)
    doubled = dataclasses.replace(ds, dipoles=[DipoleCurve(d.bra, d.ket, d.r, 2.0 * d.d) for d in ds.dipoles])
    level, nus = LevelId("X0", 0, 3, 1), 8600.0 + 0.5 * np.arange(3600)
    for gamma in (0.0, "default", "computed"):
        opts = LineListOptions(gamma=gamma)
        one, two = scan_spectrum(ds, level, SX, nus, opts), scan_spectrum(doubled, level, SX, nus, opts)
        key = [(ln.state, ln.v, ln.J, ln.M, ln.q) for ln in one.lines]
        assert key and key == [(ln.state, ln.v, ln.J, ln.M, ln.q) for ln in two.lines]
        if gamma == "computed":
            assert [4.0 * ln.gamma for ln in one.lines] == [ln.gamma for ln in two.lines]
        else:
            assert np.array_equal((4.0 * one.values).view(np.uint64), two.values.view(np.uint64))
    widths = {key: blk.gammas for key, blk in rovib._store(ds).blocks.items() if blk.gammas is not None}
    assert widths and all(np.array_equal(4.0 * widths[key], rovib._store(doubled).blocks[key].gammas) for key in widths)


def test_pruned_linewidths_equal_the_full_lower_list_bit_for_bit(monkeypatch):
    ds = load_dataset(OPTICAL_STANDIN)
    grid = RadialGrid(5.0, 20.0, 301)
    opts = LineListOptions(grid=grid)
    lowers_of = {}   # (state, J) of a decaying block -> (state, J) of the lower levels it was given

    def recording(levels, ds, lowers):
        lowers_of[(levels[0].state, levels[0].J)] = {(lev.state, lev.J) for lev in lowers}
        return natural_linewidths(levels, ds, lowers)

    monkeypatch.setattr(polarizability, "natural_linewidths", recording)
    build_line_list(ds, LevelId("X0", 0, 0, 0), SZ, opts)
    build_line_list(ds, LevelId("X0", 0, 1, 0), SZ, opts)
    # X0 J1's width took X0 levels only: every A0 and B1 block lies wholly
    # above it, A0 J0 (a final of X0 J1 all the same), A0 J2 and B1 J2
    # included
    assert lowers_of[("X0", 1)] == {("X0", 0), ("X0", 1), ("X0", 2)}
    blocks = rovib._store(ds).blocks
    widths = {key: blk.gammas for key, blk in blocks.items() if blk.gammas is not None}
    assert len(widths) >= 6
    for (state, J, _, max_levels), gammas in widths.items():
        lowers = [
            lev
            for st in sorted(ds.states, key=lambda s: s.label)
            for J2 in range(max(st.omega, J - 1), J + 2)
            for lev in rovib.solved_block(ds, st.label, J2, grid, max_levels).levels
        ]
        full = natural_linewidths(blocks[(state, J, grid, max_levels)].levels, ds, lowers)
        assert np.array_equal(gammas.view(np.uint64), full.view(np.uint64))


def test_branches_run_in_label_order_then_rising_j():
    # linewidth sums add their lower blocks in this order, so its bits rest on
    # it: partners by label (the dataset lists X0, A0, B1), then J' from
    # max(omega', J - 1) to J + 1
    ds = load_dataset(OPTICAL_STANDIN)
    branches = {J: [(st.label, Jp) for st, _, Jp in polarizability._branches(ds, "X0", J)] for J in (0, 1)}
    assert branches[0] == [("A0", 0), ("A0", 1), ("B1", 1), ("X0", 0), ("X0", 1)]
    assert branches[1] == [("A0", 0), ("A0", 1), ("A0", 2), ("B1", 1), ("B1", 2), ("X0", 0), ("X0", 1), ("X0", 2)]
    assert [(st.label, Jp) for st, _, Jp in polarizability._branches(ds, "B1", 1)] == [("X0", 0), ("X0", 1), ("X0", 2)]


def test_caps_that_leave_no_weighted_line_are_named():
    # from J = 0, A0 J'=0 has zero angular weight and B1 needs J' >= 1
    ds = load_dataset(OPTICAL_STANDIN)
    opts = LineListOptions(grid=RadialGrid(5.0, 20.0, 301), j_max_branch=0)
    with pytest.raises(QuantumNumberError, match="j_max_branch = 0 leaves no line"):
        build_line_list(ds, LevelId("X0", 0, 0, 0), SZ, opts)


def test_a_cap_is_not_blamed_for_lines_the_floor_dropped():
    # v_max = 0 keeps the v' = 0 lines to A0 and B1, and d_floor = inf drops
    # them: no line, as with d_floor = inf alone, and no cap to blame
    ds = load_dataset(OPTICAL_STANDIN)
    level = LevelId("X0", 0, 0, 0)
    floor = dict(grid=RadialGrid(5.0, 20.0, 301), gamma="default", d_floor=math.inf)
    assert build_line_list(ds, level, SZ, LineListOptions(**floor)) == []
    assert build_line_list(ds, level, SZ, LineListOptions(**floor, v_max=0)) == []
    # j_max_branch = 0 leaves no line before the floor: it is still named
    with pytest.raises(QuantumNumberError, match="j_max_branch = 0 leaves no line"):
        build_line_list(ds, level, SZ, LineListOptions(**floor, j_max_branch=0))


def test_capture_complete_for_rotor(rotor):
    spec = scan_spectrum(rotor, LevelId("X0", 0, 1, 0), SZ, np.array([0.01]), G0)
    assert spec.capture["X0"] == pytest.approx(1.0, rel=1e-9)


def test_capture_near_complete_for_deep_wells(optical):
    spec = scan_spectrum(optical, LevelId("X", 0, 0, 0), SZ, np.array([9000.0]))
    assert spec.capture["E"] > 0.9
    assert spec.capture["E"] <= 1.0 + 1e-8


def test_scan_records_options(optical):
    opts = LineListOptions(gamma="default", d_floor=1e-6, v_max=5)
    spec = scan_spectrum(optical, LevelId("X", 0, 0, 0), SZ, np.array([9000.0]), opts)
    assert spec.options["gamma"] == "default"
    assert spec.options["d_floor"] == 1e-6
    assert spec.options["v_max"] == 5
    assert spec.initial == LevelId("X", 0, 0, 0)
    assert spec.polarization == "sigma_z"


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("gamma", -3.0, DataError),
        ("gamma", math.nan, DataError),
        ("gamma", math.inf, DataError),
        ("gamma", True, DataError),
        ("gamma", 10**400, DataError),
        ("gamma", "bogus", DataError),
        ("d_floor", math.nan, DataError),
        ("d_floor", -1e-8, DataError),
        # "x" raised a bare TypeError, and True was read as 1 Debye
        ("d_floor", "x", DataError),
        ("d_floor", True, DataError),
        ("v_max", -1, QuantumNumberError),
        # v_max = 1.5 raised a TypeError in the line list, j_max_branch = 1.5
        # acted as a cap of 1, and True as 1
        ("v_max", 1.5, QuantumNumberError),
        ("v_max", True, QuantumNumberError),
        ("j_max_branch", 1.5, QuantumNumberError),
        ("j_max_branch", True, QuantumNumberError),
        # refused when solved, and not before
        ("max_levels", 0, QuantumNumberError),
        # an AttributeError inside the solve
        ("grid", (5.0, 20.0, 801), GridError),
    ],
)
def test_line_list_options_refuse_a_bad_value_when_built(name, value, error):
    # refused before any solve, for a library caller as for the CLI: gamma =
    # -3 gave Im(alpha) < 0 on the optical stand-in, d_floor = NaN kept every line
    with pytest.raises(error, match=f"^{name} must be"):
        LineListOptions(**{name: value})


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: LevelId("X0", 0, 1, 2), DataError, r"^initial \|M\|=2 exceeds J=1$"),
        (lambda: LevelId("X0", 0, 94_906_266, 0), QuantumNumberError, r"J\(J\+1\) is not exact"),
        # dataclasses.replace builds anew, so it re-runs the rules
        (lambda: dataclasses.replace(LevelId("X0", 0, 1, 1), J=0), DataError, r"^initial \|M\|=1 exceeds J=0$"),
        (lambda: dataclasses.replace(LineListOptions(), max_levels=0), QuantumNumberError, "^max_levels must be"),
    ],
    ids=["M past J", "J past 94906265", "replaced J", "replaced max_levels"],
)
def test_a_level_or_options_is_checked_whenever_it_is_built(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_a_level_keeps_its_repr_and_field_order():
    # the held scan's key and the CLI's JSON reports keep their bytes
    level = LevelId("X0", 0, 1, 0)
    assert repr(level) == "LevelId(state='X0', v=0, J=1, M=0)"
    assert list(dataclasses.asdict(level).items()) == [("state", "X0"), ("v", 0), ("J", 1), ("M", 0)]


@pytest.mark.parametrize(
    "level, options, error",
    [
        # M = 0.5 built 200 lines with half-integer M', v = 1.0 and J = 1.0
        # raised a TypeError, max_levels = 64.0 an IndexError
        (("X0", 0, 1, 0.5), {}, DataError),
        (("X0", 1.0, 0, 0), {}, DataError),
        (("X0", 0, 1.0, 0), {}, QuantumNumberError),
        (("X0", 0, 0, 0), {"max_levels": 64.0}, QuantumNumberError),
        # a bool read as 1
        (("X0", 0, 0, True), {}, DataError),
        (("X0", 0, True, 0), {}, QuantumNumberError),
        (("X0", 0, 0, 0), {"max_levels": True}, QuantumNumberError),
    ],
    ids=["M 0.5", "v 1.0", "J 1.0", "max_levels 64.0", "M True", "J True", "max_levels True"],
)
def test_a_count_that_is_not_an_integer_is_refused_before_any_solve(level, options, error, monkeypatch):
    # the level and the options refuse it when they are built
    queued, solved = [], []
    monkeypatch.setattr(rovib, "_Ahead", lambda *args: queued.append(args))
    monkeypatch.setattr(rovib, "_solve", lambda *args: solved.append(args))
    with pytest.raises(error, match="integer"):
        build_line_list(load_dataset(OPTICAL_STANDIN), LevelId(*level), SZ, LineListOptions(**options))
    assert queued == [] and solved == []


def test_numpy_integers_are_integers():
    ds = load_dataset(OPTICAL_STANDIN)
    ints = [0, 1, 1, 301, 32, 2, 5]
    lists = []
    for v, J, M, n, max_levels, j_max_branch, v_max in (ints, map(np.int64, ints)):
        opts = LineListOptions(RadialGrid(5.0, 20.0, n), max_levels, "default", j_max_branch=j_max_branch, v_max=v_max)
        lists.append(build_line_list(dataclasses.replace(ds), LevelId("X0", v, J, M), SX, opts))
    assert lists[0] and lists[1] == lists[0]


# ------------------------------------------------------------- the held scan


def _counting_line_lists(monkeypatch) -> list:
    """The initial level of every build_line_list call from here on."""
    built = []
    build = polarizability.build_line_list

    def counting(ds, initial, *args):
        built.append(initial)
        return build(ds, initial, *args)

    monkeypatch.setattr(polarizability, "build_line_list", counting)
    return built


def _same_scan(a, b) -> bool:
    return (
        np.array_equal(a.nu.view(np.uint64), b.nu.view(np.uint64))
        and np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
        and (a.initial, a.polarization, a.resonances, a.lines, a.capture, a.options)
        == (b.initial, b.polarization, b.resonances, b.lines, b.capture, b.options)
    )


def test_a_repeated_scan_is_the_held_one(optical, monkeypatch):
    level, nus = LevelId("X", 0, 0, 0), np.arange(8500.0, 9600.0, 1.0)
    first = scan_spectrum(optical, level, SZ, nus)
    built = _counting_line_lists(monkeypatch)
    again = scan_spectrum(optical, LevelId("X", 0, 0, 0), Polarization.parse("sigma_z"), nus.copy(), LineListOptions())
    assert built == [] and _same_scan(again, first)
    # a grid with one point an ulp away is scanned anew
    shifted = nus.copy()
    shifted[-1] = np.nextafter(shifted[-1], math.inf)
    assert scan_spectrum(optical, level, SZ, shifted).nu[-1] == shifted[-1]
    assert built == [level]


def test_options_that_compare_equal_but_read_apart_are_scanned_anew(optical):
    # 0.0, -0.0 and 0 are equal, and each is the gamma its scan reports
    level, nus = LevelId("X", 0, 0, 0), np.arange(8500.0, 9600.0, 1.0)
    for gamma in (0.0, -0.0, 0, 0.0):
        reported = scan_spectrum(optical, level, SZ, nus, LineListOptions(gamma=gamma)).options["gamma"]
        assert repr(reported) == repr(gamma)


@pytest.mark.parametrize(
    "held, level, options, error",
    [
        # False == 0 and True == 1, and each hashes alike
        (LevelId("X", 0, 0, 0), ("X", False, 0, 0), {}, DataError),
        (LevelId("X", 0, 0, 0), ("X", 0, False, 0), {}, QuantumNumberError),
        (LevelId("X", 0, 0, 0), ("X", 0, 0, False), {}, DataError),
        (LevelId("X", 0, 1, 1), ("X", 0, 1, True), {}, DataError),
        (LevelId("X", 0, 0, 0), ("X", 0, 0, 0), {"max_levels": True}, QuantumNumberError),
    ],
    ids=["v False", "J False", "M False", "M True", "max_levels True"],
)
def test_a_request_refused_anew_is_refused_on_the_held_scan(optical, held, level, options, error, monkeypatch):
    nus = np.arange(8500.0, 9600.0, 1.0)
    ints = {name: int(value) for name, value in options.items()}
    scan_spectrum(optical, held, SZ, nus, LineListOptions(**ints))
    built = _counting_line_lists(monkeypatch)
    with pytest.raises(error, match="integer"):
        scan_spectrum(optical, LevelId(*level), SZ, nus, LineListOptions(**options))
    assert built == []


def test_the_held_scan_is_read_only_and_no_caller_changes_it(optical):
    level, nus = LevelId("X", 0, 0, 0), np.arange(8500.0, 9600.0, 1.0)
    grid = nus.copy()
    first = scan_spectrum(optical, level, SZ, grid)
    kept = dataclasses.replace(
        first, nu=first.nu.copy(), values=first.values.copy(), resonances=list(first.resonances),
        lines=list(first.lines), capture=dict(first.capture), options=dict(first.options),
    )
    # the held nu is a copy of the caller's grid, not the grid itself
    grid += 1.0
    for array in (first.nu, first.values):
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array.flags.writeable = True
    first.resonances.clear()
    first.lines.reverse()
    first.capture["E"] = -1.0
    first.options["gamma"] = 0.0
    assert _same_scan(scan_spectrum(optical, level, SZ, nus), kept)


def test_a_new_load_holds_no_old_scan(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    write_dataset(make_optical(), root)
    level, nus = LevelId("X", 0, 0, 0), np.arange(8500.0, 9600.0, 1.0)
    ds = load_dataset(root)
    scan_spectrum(ds, level, SZ, nus)
    meta = root / "molecule.json"
    meta.write_bytes(meta.read_bytes() + b"\n")
    fresh = load_dataset(root)
    assert fresh is not ds and rovib._store(fresh).spectrum is None
    built = _counting_line_lists(monkeypatch)
    scan_spectrum(fresh, level, SZ, nus)
    assert built == [level]
