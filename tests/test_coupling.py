import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.physics.wigner import wigner_3j

from molpol import (
    EINSTEIN_A_FACTOR,
    HBAR2_OVER_TWO,
    DipoleCurve,
    ElectronicState,
    HarmonicModel,
    MoleculeDataset,
    Polarization,
    PotentialCurve,
    RadialGrid,
    angular_weight,
    branch_strength,
    franck_condon,
    natural_linewidth,
    solve_radial,
    vibronic_dipole,
    wigner3j,
)
from molpol.coupling import dipole_matrix, natural_linewidths
from molpol.polarizability import default_grid

from conftest import RBCS, make_harmonic_pair, make_optical, make_rotor


# ---------------------------------------------------------------- 3-j symbols


def test_known_symbol_values():
    assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)
    assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0), abs=1e-15)
    assert wigner3j(2, 1, 1, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0), abs=1e-15)
    assert wigner3j(2, 1, 1, -1, 1, 0) == pytest.approx(-math.sqrt(1.0 / 10.0), abs=1e-15)
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0


@st.composite
def three_j_args(draw):
    j1 = draw(st.integers(min_value=0, max_value=8))
    j2 = draw(st.integers(min_value=0, max_value=8))
    j3 = draw(st.integers(min_value=abs(j1 - j2), max_value=j1 + j2))
    m1 = draw(st.integers(min_value=-j1, max_value=j1))
    m2 = draw(st.integers(min_value=-j2, max_value=j2))
    return j1, j2, j3, m1, m2


@settings(max_examples=80, deadline=None)
@given(three_j_args())
def test_symbols_match_sympy(args):
    j1, j2, j3, m1, m2 = args
    m3 = -m1 - m2
    if abs(m3) > j3:
        assert wigner3j(j1, j2, j3, m1, m2, m3) == 0.0
        return
    ref = float(wigner_3j(j1, j2, j3, m1, m2, m3))
    assert wigner3j(j1, j2, j3, m1, m2, m3) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(three_j_args())
def test_orthogonality_sum(args):
    j1, j2, _, m1, m2 = args
    m3 = -m1 - m2
    total = sum(
        (2 * j3 + 1) * wigner3j(j1, j2, j3, m1, m2, m3) ** 2
        for j3 in range(abs(j1 - j2), j1 + j2 + 1)
        if abs(m3) <= j3
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_selection_rule_zeroes():
    assert wigner3j(1, 1, 1, 1, 1, 1) == 0.0  # m-sum != 0
    assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
    assert wigner3j(2, 2, 2, 3, -3, 0) == 0.0  # |m| > j


def test_large_j_rejected():
    with pytest.raises(ValueError):
        wigner3j(51, 1, 50, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner3j(-1, 1, 1, 0, 0, 0)
    # boundary value still works
    assert math.isfinite(wigner3j(50, 1, 49, 0, 0, 0))


# ------------------------------------------------------------- angular weight


def test_angular_weight_reference_values():
    # out of J=0 every spherical component carries 1/3
    for q in (-1, 0, 1):
        assert angular_weight(0, 0, 1, q, q) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert angular_weight(1, 0, 0, 0, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert angular_weight(1, 0, 2, 0, 0) == pytest.approx(4.0 / 15.0, abs=1e-15)
    assert angular_weight(1, 1, 2, 1, 0) == pytest.approx(1.0 / 5.0, abs=1e-15)
    assert angular_weight(1, -1, 2, -1, 0) == pytest.approx(1.0 / 5.0, abs=1e-15)


def test_angular_weight_selection_rules():
    assert angular_weight(1, 0, 1, 0, 0) == 0.0  # 0-0 parity: J'=J forbidden
    assert angular_weight(1, 0, 2, 1, 0) == 0.0  # M' != M + q
    assert angular_weight(0, 0, 2, 0, 0) == 0.0  # |dJ| > 1
    assert angular_weight(2, 2, 1, 2, 0) == 0.0  # |M'| > J'
    assert angular_weight(0, 0, 0, 0, 0, omega=0, omega_p=1) == 0.0  # J' < omega'


@pytest.mark.parametrize("J,M", [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2)])
def test_angular_weight_closure(J, M):
    total = 0.0
    for q in (-1, 0, 1):
        for Jp in range(max(0, J - 1), J + 2):
            total += angular_weight(J, M, Jp, M + q, q)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_angular_weight_with_omega_one():
    # 0 -> 1 electronic transition: J'=J allowed, weights still close
    total = 0.0
    for q in (-1, 0, 1):
        for Jp in range(0, 3):
            total += angular_weight(1, 0, Jp, 0 + q, q, omega=0, omega_p=1)
    assert total == pytest.approx(1.0, abs=1e-10)
    # J'=J opens up once the electronic angular momenta differ
    assert angular_weight(1, 1, 1, 1, 0, omega=0, omega_p=1) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("J_up,omega_up,omega_lo", [(1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 1, 1)])
def test_branch_strength_sums_to_one(J_up, omega_up, omega_lo):
    total = sum(
        branch_strength(J_up, omega_up, J_lo, omega_lo)
        for J_lo in range(max(omega_lo, J_up - 1), J_up + 2)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- polarization


def test_polarization_parse_table():
    for name in ("sigma_x", "sigma_y", "sigma_z", "q+1", "q0", "q-1"):
        assert Polarization.parse(name).name == name
    with pytest.raises(ValueError):
        Polarization.parse("circular")
    with pytest.raises(ValueError):
        Polarization.spherical(2)


def test_polarization_weights_normalized():
    for name in ("sigma_x", "sigma_y", "sigma_z", "q+1", "q0", "q-1"):
        pol = Polarization.parse(name)
        assert sum(pol.weight_on(q) for q in (-1, 0, 1)) == pytest.approx(1.0, abs=1e-15)


def test_linear_polarizations_split_evenly():
    sx = Polarization.sigma_x()
    sy = Polarization.sigma_y()
    sz = Polarization.sigma_z()
    for q in (-1, 1):
        assert sx.weight_on(q) == pytest.approx(0.5, abs=1e-15)
        assert sy.weight_on(q) == pytest.approx(0.5, abs=1e-15)
    assert sx.weight_on(0) == 0.0
    assert sy.weight_on(0) == 0.0
    assert sz.weight_on(0) == 1.0


# ------------------------------------------------------- vibronic transitions

LADDER_OMEGA = 80.0
LADDER_MU = 20.0
LADDER_RE = 8.0
LADDER_GRID = RadialGrid(6.0, 10.0, 401)


def _ladder_dataset(dipole_values: np.ndarray) -> MoleculeDataset:
    k = LADDER_MU * LADDER_OMEGA**2 / (2.0 * HBAR2_OVER_TWO)
    r = LADDER_GRID.points
    lo = ElectronicState("L", 0, np.inf)
    hi = ElectronicState("U", 0, np.inf)
    return MoleculeDataset(
        name="ladder",
        reduced_mass=LADDER_MU,
        states=[lo, hi],
        potentials={
            "L": PotentialCurve(lo, r, HarmonicModel(k, LADDER_RE).value(r)),
            "U": PotentialCurve(hi, r, 1000.0 + HarmonicModel(k, LADDER_RE).value(r)),
        },
        dipoles=[DipoleCurve("L", "U", r, dipole_values)],
        ground_label="L",
    )


def test_vibronic_dipole_linear_ladder():
    # d(R) = R against identical wells probes <v|x|v+1> directly
    ds = _ladder_dataset(LADDER_GRID.points.copy())
    dip = ds.dipole_between("L", "U")
    lo = solve_radial(ds, "L", 0, LADDER_GRID, 8)
    up = solve_radial(ds, "U", 0, LADDER_GRID, 8)
    for v in range(6):
        # sign of the off-diagonal element is a phase convention; magnitude is not
        exact = math.sqrt((v + 1) * HBAR2_OVER_TWO / (LADDER_MU * LADDER_OMEGA))
        assert abs(vibronic_dipole(lo[v], up[v + 1], dip)) == pytest.approx(exact, rel=1e-6)
        assert abs(vibronic_dipole(lo[v], up[v], dip)) == pytest.approx(LADDER_RE, rel=1e-6)


def test_vibronic_dipole_constant_curve():
    ds = _ladder_dataset(np.full(LADDER_GRID.n, 2.5))
    dip = ds.dipole_between("L", "U")
    lo = solve_radial(ds, "L", 0, LADDER_GRID, 6)
    up = solve_radial(ds, "U", 0, LADDER_GRID, 6)
    for v in range(6):
        for vp in range(6):
            expect = 2.5 if v == vp else 0.0
            assert vibronic_dipole(lo[v], up[vp], dip) == pytest.approx(expect, abs=1e-8)


def test_grid_mismatch_rejected():
    ds = _ladder_dataset(np.full(LADDER_GRID.n, 1.0))
    dip = ds.dipole_between("L", "U")
    a = solve_radial(ds, "L", 0, LADDER_GRID, 1)[0]
    b = solve_radial(ds, "U", 0, RadialGrid(6.0, 10.0, 301), 1)[0]
    with pytest.raises(ValueError, match="grid"):
        vibronic_dipole(a, b, dip)
    with pytest.raises(ValueError, match="grid"):
        franck_condon(a, b)


@pytest.fixture(scope="module")
def optical_blocks():
    ds = make_optical()
    grid = default_grid(ds)
    blocks = {(st, J): solve_radial(ds, st, J, grid) for st in ("X", "E") for J in (0, 1, 2)}
    return ds, grid, blocks


def _quadrature(a, b, d_r, h):
    return float(np.sum(a.wavefunction * d_r * b.wavefunction) * h)


def test_dipole_matrix_matches_pairwise_quadrature(optical_blocks):
    ds, grid, blocks = optical_blocks
    dip = ds.dipole_between("X", "E")
    lo, up = blocks["X", 0], blocks["E", 1]
    d_r = dip(grid.points)
    mat = dipole_matrix(lo, up, d_r)
    assert mat.shape == (len(lo), len(up))
    for a in lo:
        for b in up:
            ref = _quadrature(a, b, d_r, grid.h)
            assert abs(mat[a.v, b.v] - ref) <= 1e-13
            assert abs(vibronic_dipole(a, b, dip) - ref) <= 1e-13


def test_dipole_matrix_needs_one_grid_but_not_one_grid_object(optical_blocks):
    ds, grid, blocks = optical_blocks
    d_r = ds.dipole_between("X", "E")(grid.points)
    lo, up = blocks["X", 0][:3], blocks["E", 1][:2]
    # an equal grid that is a different object is the same grid
    twin = RadialGrid(grid.r_min, grid.r_max, grid.n)
    assert twin == grid and twin is not grid
    moved = [dataclasses.replace(lev, grid=twin) for lev in up]
    np.testing.assert_array_equal(dipole_matrix(lo, moved, d_r), dipole_matrix(lo, up, d_r))
    # the same number of points over a different range is not
    other = [dataclasses.replace(lev, grid=RadialGrid(grid.r_min, grid.r_max + 1.0, grid.n)) for lev in up]
    with pytest.raises(ValueError, match="different radial grids"):
        dipole_matrix(lo, other, d_r)
    with pytest.raises(ValueError, match="different radial grids"):
        dipole_matrix([*lo, *other], up, d_r)


def test_block_linewidths_match_per_level_sums(optical_blocks):
    ds, grid, blocks = optical_blocks
    dip = ds.dipole_between("X", "E")
    d_r = dip(grid.points)
    up = blocks["E", 1]
    lowers = blocks["X", 0] + blocks["X", 1] + blocks["X", 2]
    got = natural_linewidths(up, ds, lowers)
    assert got.shape == (len(up),)
    for lev, gamma in zip(up, got):
        rate = sum(
            EINSTEIN_A_FACTOR * (lev.energy - lo.energy) ** 3 * _quadrature(lev, lo, d_r, grid.h) ** 2
            * branch_strength(1, 0, lo.J, 0)
            for lo in lowers
            if lo.energy < lev.energy
        )
        assert gamma == pytest.approx(rate / (2.0 * math.pi * 1.0e6), rel=1e-12)
        assert gamma == pytest.approx(natural_linewidth(lev, ds, lowers), rel=1e-12)


def test_block_linewidths_need_one_block(optical_blocks):
    ds, _grid, blocks = optical_blocks
    with pytest.raises(ValueError, match="block"):
        natural_linewidths(blocks["E", 1][:1] + blocks["E", 2][:1], ds, blocks["X", 0])


def test_franck_condon_identical_wells():
    ds = make_harmonic_pair(LADDER_OMEGA, LADDER_MU, LADDER_RE, 0.0, LADDER_GRID)
    lo = solve_radial(ds, "L", 0, LADDER_GRID, 6)
    up = solve_radial(ds, "U", 0, LADDER_GRID, 6)
    for v in range(6):
        for vp in range(6):
            expect = 1.0 if v == vp else 0.0
            assert franck_condon(lo[v], up[vp]) == pytest.approx(expect, abs=1e-8)


def test_franck_condon_substochastic():
    ds = make_harmonic_pair(LADDER_OMEGA, LADDER_MU, LADDER_RE, 0.4, LADDER_GRID)
    lo = solve_radial(ds, "L", 0, LADDER_GRID)
    up = solve_radial(ds, "U", 0, LADDER_GRID)
    for a in lo[:6]:
        row = sum(franck_condon(a, b) for b in up)
        assert row <= 1.0 + 1e-8
        assert row > 0.9  # nearly complete basis for low v
    for b in up[:6]:
        col = sum(franck_condon(a, b) for a in lo)
        assert col <= 1.0 + 1e-8


# ------------------------------------------------------------------ linewidth


def test_linewidth_single_route_hand_check():
    ds = make_harmonic_pair(
        LADDER_OMEGA, LADDER_MU, LADDER_RE, 0.0, LADDER_GRID, d0=2.0, offset=1500.0
    )
    dip = ds.dipole_between("L", "U")
    up = solve_radial(ds, "U", 0, LADDER_GRID, 1)[0]
    lo = solve_radial(ds, "L", 1, LADDER_GRID, 1)[0]
    d = vibronic_dipole(up, lo, dip)
    nu = up.energy - lo.energy
    a_coeff = EINSTEIN_A_FACTOR * nu**3 * d * d * branch_strength(0, 0, 1, 0)
    expect_mhz = a_coeff / (2.0 * math.pi * 1.0e6)
    got = natural_linewidth(up, ds, [lo])
    assert got == pytest.approx(expect_mhz, rel=1e-12)
    assert branch_strength(0, 0, 1, 0) == pytest.approx(1.0, abs=1e-15)


def test_linewidth_scales_with_frequency_cubed():
    gammas = {}
    nus = {}
    for offset in (800.0, 1600.0):
        ds = make_harmonic_pair(
            LADDER_OMEGA, LADDER_MU, LADDER_RE, 0.0, LADDER_GRID, d0=1.0, offset=offset
        )
        up = solve_radial(ds, "U", 0, LADDER_GRID, 1)[0]
        lo = solve_radial(ds, "L", 1, LADDER_GRID, 1)[0]
        gammas[offset] = natural_linewidth(up, ds, [lo])
        nus[offset] = up.energy - lo.energy
    ratio = gammas[1600.0] / gammas[800.0]
    assert ratio == pytest.approx((nus[1600.0] / nus[800.0]) ** 3, rel=1e-10)


def test_linewidth_falls_back_without_route():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rot")
    grid = RadialGrid(RBCS["r_e"] - 1.0, RBCS["r_e"] + 1.0, 101)
    j0 = solve_radial(ds, "X0", 0, grid, 1)[0]
    j1 = solve_radial(ds, "X0", 1, grid, 1)[0]
    # J=0 is the ground level; nothing sits below it
    assert natural_linewidth(j0, ds, [j1]) == ds.default_gamma
    # J=1 does see J=0 through the permanent dipole
    assert natural_linewidth(j1, ds, [j0]) > 0.0
    assert natural_linewidth(j1, ds, [j0]) != ds.default_gamma
