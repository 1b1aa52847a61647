import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from molpol import (
    HBAR2_OVER_TWO,
    HarmonicModel,
    RadialGrid,
    convergence_check,
    default_grid,
    load_dataset,
    solve_radial,
    synthesize,
)
from molpol import _bases, _lapack
from molpol import dataset as dataset_module
from molpol import rovib
from molpol.cli import main
from molpol.errors import DataError, GridError, QuantumNumberError
from molpol.rovib import energy_floor, kinetic_matrix, wavefunction_matrix

from conftest import (
    MORSE,
    MORSE_GRID,
    MORSE_MU,
    RBCS,
    blas_thread_calls,
    dsyevd_call,
    make_rotor,
    shifted_contract,
    shifted_solve,
)


def morse_energy(v: int) -> float:
    """Independent closed form: E(v) = w_e(v+1/2) - w_e x_e (v+1/2)^2 - D_e."""
    w_e = 2.0 * MORSE.a * math.sqrt(HBAR2_OVER_TWO * MORSE.d_e / MORSE_MU)
    w_ex_e = MORSE.a**2 * HBAR2_OVER_TWO / MORSE_MU
    x = v + 0.5
    return w_e * x - w_ex_e * x * x - MORSE.d_e


@pytest.fixture(scope="module")
def morse_levels(morse_ds):
    return solve_radial(morse_ds, "X0", 0, MORSE_GRID)


def test_morse_eigenvalues_match_closed_form(morse_levels):
    for v in range(10):
        exact = morse_energy(v)
        assert morse_levels[v].energy == pytest.approx(exact, rel=1e-6)


def test_wavefunctions_are_read_only(morse_levels, krb_rotor):
    rotor_level = solve_radial(krb_rotor, "X0", 0, default_grid(krb_rotor))[0]
    for lev in (morse_levels[0], rotor_level):
        assert not lev.wavefunction.flags.writeable
        with pytest.raises(ValueError):
            lev.wavefunction[0] = 0.0


def test_block_wavefunctions_are_rows_of_one_read_only_matrix(morse_levels):
    w = morse_levels[0].wavefunction.base
    assert w.shape == (len(morse_levels), MORSE_GRID.n)
    assert not w.flags.writeable
    for lev, row in zip(morse_levels, w):
        assert lev.wavefunction.base is w
        np.testing.assert_array_equal(lev.wavefunction, row)
    # wavefunction_matrix stacks any selection into a new array with the same rows
    picked = wavefunction_matrix(morse_levels[3:5])
    assert not np.shares_memory(picked, w)
    np.testing.assert_array_equal(picked, w[3:5])
    np.testing.assert_array_equal(wavefunction_matrix(morse_levels), w)


def test_the_wavefunction_matrix_of_no_levels_is_empty():
    w = wavefunction_matrix([])
    assert w.shape == (0, 0) and w.dtype == np.float64


OPTICAL_STANDIN = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"


@pytest.mark.parametrize("state", ["X0", "A0", "B1"])
def test_subset_solve_matches_full_eigh(state):
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    pts = grid.points
    levels = solve_radial(ds, state, 1, grid)
    ham = kinetic_matrix(grid, ds.reduced_mass)
    ham += np.diag(ds.potentials[state](pts) + HBAR2_OVER_TWO * 2 / (ds.reduced_mass * pts**2))
    full = scipy.linalg.eigh(ham, eigvals_only=True)
    assert len(levels) > 10
    np.testing.assert_allclose([l.energy for l in levels], full[: len(levels)], rtol=0, atol=1e-10)


def _trim_cases():
    """(dataset, state, J, grid, max_levels) blocks whose solve is trimmed."""
    optical = load_dataset(OPTICAL_STANDIN)
    morse = synthesize(MORSE, MORSE_GRID, reduced_mass=MORSE_MU, name="morse_test")
    h_grid = RadialGrid(5.0, 11.0, 401)
    harmonic = synthesize(HarmonicModel(30.0 * 200.0**2 / (2.0 * HBAR2_OVER_TWO), 8.0), h_grid, reduced_mass=30.0)
    cases = [(optical, st.label, J, default_grid(optical), 64) for st in optical.states for J in range(st.omega, 3)]
    cases += [(morse, "X0", J, MORSE_GRID, k) for J in (0, 10) for k in (6, 20, 40)]
    cases += [(harmonic, "X0", J, h_grid, k) for J in (0, 20) for k in (5, 10)]
    return cases


def _solved_span(ds, state, J, grid, max_levels):
    v_eff = rovib._effective_potential(ds, state, J, grid)
    trimmed = rovib._trim_span(v_eff, grid.h, ds.reduced_mass, max_levels, ds.state(state).asymptote_energy)
    return None if trimmed is None else trimmed[0]


def direct_levels(ds, state, J, grid, max_levels):
    """The levels of rovib's direct solve of one block."""
    return rovib._levels(state, J, grid, rovib._solve(ds, state, J, grid, max_levels))


def full_grid_levels(ds, state, J, grid, max_levels):
    """The levels of one block solved on the full grid: the direct solve's fallback."""
    row, v_eff, cutoff = rovib._block_inputs(ds, state, J, grid)
    return rovib._levels(state, J, grid, rovib._eigensolve(row, v_eff, grid, max_levels, cutoff, slice(0, grid.n)))


def assert_matches_full_solve(ds, state, J, grid, max_levels):
    trimmed = solve_radial(ds, state, J, grid, max_levels)
    full = full_grid_levels(ds, state, J, grid, max_levels)
    assert len(trimmed) == len(full) > 0
    np.testing.assert_allclose([l.energy for l in trimmed], [l.energy for l in full], rtol=0, atol=1e-9)
    np.testing.assert_allclose(wavefunction_matrix(trimmed), wavefunction_matrix(full), rtol=0, atol=1e-10)
    return wavefunction_matrix(trimmed)


def test_trimmed_solve_matches_full_solve_on_its_span():
    # every kept level is exactly zero outside the solved span, which on the
    # optical blocks leaves points on both sides of the grid
    for ds, state, J, grid, max_levels in _trim_cases():
        span = _solved_span(ds, state, J, grid, max_levels)
        assert span is not None, (ds.name, state, J, max_levels)
        w = assert_matches_full_solve(ds, state, J, grid, max_levels)
        assert not w[:, : span.start].any() and not w[:, span.stop :].any()
        if ds.name == "rbcs_optical_standin":
            assert 0 < span.start < span.stop < grid.n, (state, J, span)
            assert span.stop - span.start < 0.7 * grid.n


def _antinode_sign(psi):
    """Sign of psi at its innermost antinode (first interior local max of |psi|
    at or above 1% of its largest, else its first point there): the per-row
    reference for rovib._antinode_signs."""
    a = np.abs(psi)
    thr = 0.01 * a.max()
    interior = a[1:-1]
    cand = np.nonzero((interior >= a[:-2]) & (interior > a[2:]) & (interior >= thr))[0]
    i = int(cand[0]) + 1 if len(cand) else int(np.argmax(a >= thr))
    return -1.0 if psi[i] < 0.0 else 1.0


# the blocks the optical magic request (X0 v0 J0 vs J1, default grid) solves
MAGIC_BLOCKS = [("X0", 0), ("A0", 1), ("X0", 1), ("X0", 2), ("B1", 1), ("A0", 0), ("A0", 2), ("X0", 3), ("B1", 2)]


@pytest.mark.parametrize("state, J", MAGIC_BLOCKS)
def test_full_eigh_matches_scipy_subset_eigh_on_the_span(state, J):
    # the reference is LAPACK evr asked for the lowest 64 pairs of the same
    # span's Hamiltonian, sign-fixed as solve_radial fixes its own
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    span = _solved_span(ds, state, J, grid, 64)
    levels = solve_radial(ds, state, J, grid)
    w = wavefunction_matrix(levels)
    assert not w[:, : span.start].any() and not w[:, span.stop :].any()
    v = rovib._effective_potential(ds, state, J, grid)[span]
    ham = scipy.linalg.toeplitz(rovib._kinetic_row(grid, ds.reduced_mass)[: len(v)]) + np.diag(v)
    energies, vectors = scipy.linalg.eigh(ham, subset_by_index=(0, 63), driver="evr")
    k = len(levels)
    assert k == np.count_nonzero(energies < ds.state(state).asymptote_energy - rovib.BOUND_GUARD)
    ref = np.zeros((k, grid.n))
    ref[:, span] = vectors[:, :k].T / math.sqrt(grid.h)
    ref *= [[_antinode_sign(psi)] for psi in ref]
    np.testing.assert_allclose([l.energy for l in levels], energies[:k], rtol=0, atol=1e-10)
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("state", ["X0", "A0"])
def test_keeping_every_bound_level_solves_the_full_grid(state):
    # 131 bound X0 and 149 bound A0 J=0 levels: the top kept ones reach the box
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    assert _solved_span(ds, state, 0, grid, 200) is None
    levels = solve_radial(ds, state, 0, grid, 200)
    full = full_grid_levels(ds, state, 0, grid, 200)
    assert 100 < len(levels) < 200
    assert [l.energy for l in levels] == [l.energy for l in full]
    np.testing.assert_array_equal(wavefunction_matrix(levels), wavefunction_matrix(full))
    assert rovib._store(ds).bases == {}


def test_too_narrow_span_falls_back_to_the_full_grid(monkeypatch):
    # an Agmon depth of 5 leaves |psi| sqrt(h) near e^-5 at the trimmed edges;
    # the edge check must send every block back to the full grid
    monkeypatch.setattr(rovib, "AGMON_DEPTH", 5.0)
    solves = []
    eigensolve = rovib._eigensolve

    def counting(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
        solves.append(span)
        return eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top)

    monkeypatch.setattr(rovib, "_eigensolve", counting)
    for ds, state, J, grid, max_levels in _trim_cases():
        solves.clear()
        direct = direct_levels(ds, state, J, grid, max_levels)
        # the trimmed solve, then the full one, which full_grid_levels repeats bit for bit
        assert len(solves) == 2 and solves[1] == slice(0, grid.n), (ds.name, state, J)
        full = full_grid_levels(ds, state, J, grid, max_levels)
        assert [l.energy for l in direct] == [l.energy for l in full]
        np.testing.assert_array_equal(wavefunction_matrix(direct), wavefunction_matrix(full))
        # solve_radial, which contracts J != omega in the full-grid J = omega basis, agrees too
        assert_matches_full_solve(ds, state, J, grid, max_levels)


def test_a_state_that_does_not_contract_is_solved_once_on_the_full_grid(monkeypatch):
    # a 5 amu, 50 cm^-1 harmonic well: its J = 0 block holds about 10 WKB
    # levels below the box top, so every bound level may be kept and the state
    # does not contract. At J = 200 the centrifugal tilt would let _trim_span
    # propose 49:301, whose check fails: one full-grid eigensolve, not two
    grid = RadialGrid(5.0, 11.0, 301)
    ds = synthesize(HarmonicModel(5.0 * 50.0**2 / (2.0 * HBAR2_OVER_TWO), 8.0), grid, reduced_mass=5.0)
    assert not rovib._contracts(ds, "X0", grid, 10)
    assert _solved_span(ds, "X0", 200, grid, 10) == slice(49, 301)
    solves = []
    eigensolve = rovib._eigensolve

    def counting(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
        solves.append(span)
        return eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top)

    monkeypatch.setattr(rovib, "_eigensolve", counting)
    levels = solve_radial(ds, "X0", 200, grid, 10)
    assert solves == [slice(0, grid.n)] and len(levels) == 10


def test_convergence_check_certifies_a_trimmed_block(monkeypatch):
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    rep = convergence_check(ds, "X0", 0, grid, 64)
    assert rep.converged and rep.count_held
    assert 0.0 < rep.residual < rovib.RESIDUAL_TOL
    # a trimmed solve off by 0.01 cm^-1 on every grid: refinement and
    # extension cannot see it, the full-grid residual does. The block is stored
    # already, so the faulty solver runs on a copy with a fresh store
    monkeypatch.setattr(rovib, "solve_radial", shifted_solve(0.01))
    rep = convergence_check(dataclasses.replace(ds), "X0", 0, grid, 64)
    assert rep.shift_refine < rep.tol and rep.shift_extend < rep.tol and rep.count_held
    assert rep.residual == pytest.approx(0.01, rel=1e-6)
    assert not rep.converged


@pytest.mark.parametrize("max_levels", [64, 200])
def test_every_optical_block_certifies_itself(max_levels):
    # 64 levels from a trimmed span or a contraction, or every bound level
    # (114-149 of them) from the full grid: each lies within RESIDUAL_TOL of a
    # full-grid eigenvalue, and none is missing below the top kept one
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    for state in ds.states:
        for J in range(state.omega, 4):
            levels = rovib.solved_block(ds, state.label, J, grid, max_levels).levels
            residual, count_held = rovib._certificate(ds, state.label, J, grid, levels)
            assert 0.0 < residual < rovib.RESIDUAL_TOL and count_held, (state.label, J)


def test_the_certificate_counts_a_missing_level():
    # X0 J = 0 without its v = 10 level: every residual stays small, but the
    # full grid holds one eigenvalue more below the top kept level than are kept
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    levels = rovib.solved_block(ds, "X0", 0, grid, 64).levels
    residual, count_held = rovib._certificate(ds, "X0", 0, grid, levels[:10] + levels[11:])
    assert residual < rovib.RESIDUAL_TOL and not count_held


CONTRACTED = [("X0", 1), ("X0", 2), ("X0", 3), ("A0", 1), ("A0", 2), ("B1", 2)]


@pytest.mark.parametrize("state, J", CONTRACTED)
def test_contracted_block_matches_the_direct_solve(state, J, monkeypatch, direct_solves):
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    levels = solve_radial(ds, state, J, grid)
    # the state's J = omega basis is the only direct solve: nothing fell back
    assert [(s, j) for s, j, _ in direct_solves] == [(state, ds.state(state).omega)]
    monkeypatch.undo()
    ref = direct_levels(ds, state, J, grid, 64)
    assert len(levels) == len(ref) == 64
    np.testing.assert_allclose([l.energy for l in levels], [l.energy for l in ref], rtol=0, atol=1e-10)
    np.testing.assert_allclose(wavefunction_matrix(levels), wavefunction_matrix(ref), rtol=0, atol=1e-9)


@pytest.mark.parametrize("J", [1, 10, 60])
def test_a_contraction_that_fails_its_certificate_falls_back(J, monkeypatch, direct_solves):
    # K = 2 * 4 = 8 J0 eigenvectors cannot hold the J levels to RESIDUAL_TOL
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    levels = solve_radial(ds, "X0", J, grid, 4)
    assert [(s, j) for s, j, _ in direct_solves] == [("X0", 0), ("X0", J)]
    monkeypatch.undo()
    ref = direct_levels(ds, "X0", J, grid, 4)
    assert [l.energy for l in levels] == [l.energy for l in ref]
    np.testing.assert_array_equal(wavefunction_matrix(levels), wavefunction_matrix(ref))


def test_a_contracted_level_that_fails_the_edge_check_falls_back(monkeypatch, direct_solves):
    # X0 J = 1 contracts with every residual within RESIDUAL_TOL; with no edge
    # amplitude allowed, in _contract alone, its edge check fails instead
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    contract, edge_amp, contracted = rovib._contract, rovib.EDGE_AMP, []

    def edgeless(*args):
        assert contract(*args) is not None
        rovib.EDGE_AMP = 0.0
        try:
            contracted.append(contract(*args))
        finally:
            rovib.EDGE_AMP = edge_amp
        return contracted[-1]

    monkeypatch.setattr(rovib, "_contract", edgeless)
    levels = solve_radial(ds, "X0", 1, grid)
    assert contracted == [None]
    assert [(s, j) for s, j, _ in direct_solves] == [("X0", 0), ("X0", 1)]
    monkeypatch.undo()
    ref = direct_levels(ds, "X0", 1, grid, 64)
    assert [l.energy for l in levels] == [l.energy for l in ref]
    np.testing.assert_array_equal(wavefunction_matrix(levels), wavefunction_matrix(ref))


def test_a_contraction_never_builds_the_m_by_m_kinetic_matrix():
    # the residual applies T in row slabs: one contraction of the optical X0
    # J = 1 block (m = 457) peaks below one m x m float64 matrix (1.67 MB)
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    solve_radial(ds, "X0", 0, grid)
    basis = rovib._store(ds).bases[("X0", grid, 64)]
    row, v_eff, cutoff = rovib._block_inputs(ds, "X0", 1, grid)
    m = len(basis.v_eff)
    assert m == 457
    tracemalloc.start()
    try:
        contracted = rovib._contract(row, v_eff, cutoff, basis, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert contracted is not None and contracted.kept == 64
    assert peak < m * m * 8


@pytest.mark.parametrize("m", [1, 63, 64, 65, 457])
def test_the_slab_product_is_the_toeplitz_product(m):
    rng = np.random.default_rng(m)
    row, x = rng.standard_normal(m), rng.standard_normal((m, 3))
    np.testing.assert_allclose(rovib._toeplitz_times(row, x), rovib._toeplitz(row) @ x, rtol=1e-13, atol=1e-13)


def _rotor_delta(ds, J, grid):
    """The rotor level written out: a delta at the grid node nearest r_e, with
    E = V + B J(J+1), B = hbar^2/(2 mu R_node^2), normalized as sum psi^2 h = 1."""
    pts = grid.points
    i = int(np.argmin(np.abs(pts - ds.rotor.r_e)))
    b_node = HBAR2_OVER_TWO / (ds.reduced_mass * pts[i] ** 2)
    psi = np.zeros(grid.n)
    psi[i] = 1.0 / math.sqrt(grid.h)
    return SimpleNamespace(energy=float(ds.potentials["X0"](pts[i])) + b_node * J * (J + 1), wavefunction=psi)


def test_rotor_blocks_build_no_basis():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rot")
    grid = default_grid(ds)
    for J in (0, 1, 5):
        delta = _rotor_delta(ds, J, grid)
        for (level,) in (solve_radial(ds, "X0", J, grid), rovib.solved_block(ds, "X0", J, grid, 64).levels):
            assert level.energy == delta.energy
            np.testing.assert_array_equal(level.wavefunction, delta.wavefunction)
    assert rovib._store(ds).bases == {}
    rep = convergence_check(ds, "X0", 1, grid)
    assert rep.residual == 0.0 and rep.count_held


def test_convergence_check_certifies_a_contracted_block(monkeypatch):
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    convergence_check(ds, "X0", 0, grid, 64)
    # the base solved here stays in the store; the probe grids' solves do not
    store = rovib._store(ds)
    assert list(store.bases) == [("X0", grid, 64)]
    assert {key[1] for key in store.samples} == {grid}
    rep = convergence_check(ds, "X0", 1, grid, 64)
    assert rep.converged and rep.count_held
    assert 0.0 < rep.residual < rovib.RESIDUAL_TOL
    # contracted levels off by 0.01 cm^-1 on every grid: only the full-grid
    # residual sees it (on a copy with a fresh store: the block is stored)
    monkeypatch.setattr(rovib, "_contract", shifted_contract(0.01))
    rep = convergence_check(dataclasses.replace(ds), "X0", 1, grid, 64)
    assert rep.shift_refine < 1e-6 and rep.shift_extend < 1e-6 and rep.count_held
    assert rep.residual == pytest.approx(0.01, rel=1e-6)
    assert not rep.converged


def test_convergence_check_of_an_empty_block():
    # no level on any grid: nothing to compare, so nothing moved
    ds = load_dataset(OPTICAL_STANDIN)
    rep = convergence_check(ds, "X0", 100000, RadialGrid(5.0, 20.0, 201))
    assert rep.converged and rep.n_levels == 0
    assert rep.shift_refine == rep.shift_extend == rep.residual == 0.0 and rep.count_held
    # re-solves that find levels where the stored block has none still fail it
    rotor = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rot")
    grid = default_grid(rotor)
    rovib._store(rotor).blocks[("X0", 0, grid, rovib.MAX_LEVELS)] = rovib.Block(())
    rep = convergence_check(rotor, "X0", 0, grid)
    assert math.isinf(rep.shift_refine) and math.isinf(rep.shift_extend)
    assert not rep.converged


def test_convergence_check_grids_respect_the_point_cap(morse_ds):
    # the 2n - 1 refinement grid is refused before any solve: 2 * 2501 - 1 points
    grid = RadialGrid(5.0, 16.0, rovib.MAX_GRID_POINTS // 2 + 1)
    with pytest.raises(GridError, match="MAX_GRID_POINTS"):
        convergence_check(morse_ds, "X0", 0, grid)


@pytest.mark.parametrize("J", [5, 10, 40])
@pytest.mark.parametrize("rotor", ["krb_rotor", "rbcs_rotor"])
def test_the_refined_grid_keeps_a_rotors_node(request, rotor, J):
    # a rotor level is a delta at the node nearest r_e, its default grid's
    # middle node; the refined grid keeps every node, so the level stays put
    ds = request.getfixturevalue(rotor)
    rep = convergence_check(ds, "X0", J, default_grid(ds))
    assert rep.converged and rep.n_levels == 1 and rep.shift_refine == 0.0


def test_levels_lie_above_the_energy_floor(morse_ds, krb_rotor):
    optical = load_dataset(OPTICAL_STANDIN)
    k = 30.0 * 50.0**2 / (2.0 * HBAR2_OVER_TWO)
    h_grid = RadialGrid(5.0, 11.0, 401)
    harmonic = synthesize(HarmonicModel(k, 8.0), h_grid, reduced_mass=30.0)
    cases = [(optical, st.label, J, default_grid(optical)) for st in optical.states for J in range(st.omega, 3)]
    cases += [(morse_ds, "X0", J, MORSE_GRID) for J in (0, 10, 60)]
    cases += [(harmonic, "X0", J, h_grid) for J in (0, 20)]
    cases += [(krb_rotor, "X0", J, default_grid(krb_rotor)) for J in (0, 3)]
    for ds, state, J, grid in cases:
        levels = solve_radial(ds, state, J, grid)
        assert levels
        assert energy_floor(ds, state, J, grid) <= levels[0].energy, (ds.name, state, J)


def test_harmonic_ladder():
    omega = 50.0
    mu = 30.0
    k = mu * omega**2 / (2.0 * HBAR2_OVER_TWO)
    ds = synthesize(HarmonicModel(k, 8.0), RadialGrid(5.0, 11.0, 401), reduced_mass=mu)
    levels = solve_radial(ds, "X0", 0, RadialGrid(5.0, 11.0, 401))
    for v in range(1, 6):
        gap = levels[v].energy - levels[0].energy
        assert gap == pytest.approx(v * omega, rel=1e-6)


def test_orthonormality(morse_levels):
    h = MORSE_GRID.h
    psis = np.array([l.wavefunction for l in morse_levels[:12]])
    gram = psis @ psis.T * h
    np.testing.assert_allclose(gram, np.eye(len(psis)), atol=1e-10)


def test_hamiltonian_symmetric():
    grid = RadialGrid(5.0, 11.0, 128)
    t = kinetic_matrix(grid, 20.0)
    assert np.max(np.abs(t - t.T)) <= 1e-12 * np.max(np.abs(t))


@pytest.mark.parametrize("n", [16, 17, 801])
def test_kinetic_matrix_is_scipy_toeplitz_of_its_row(n):
    grid = RadialGrid(5.0, 11.0, n)
    row = rovib._kinetic_row(grid, 20.0)
    assert np.array_equal(kinetic_matrix(grid, 20.0), scipy.linalg.toeplitz(row))
    for m in (1, 2, 3):
        assert np.array_equal(rovib._toeplitz(row[:m]), scipy.linalg.toeplitz(row[:m]))


def test_kinetic_matrix_entries():
    grid = RadialGrid(5.0, 11.0, 40)
    t = kinetic_matrix(grid, 20.0)
    scale = HBAR2_OVER_TWO / (20.0 * grid.h**2)
    for i, j in [(0, 0), (7, 7), (0, 1), (5, 2), (2, 9), (39, 0)]:
        d = i - j
        expect = scale * (math.pi**2 / 3.0 if d == 0 else 2.0 * (-1) ** d / d**2)
        assert t[i, j] == pytest.approx(expect, rel=1e-15)


def test_node_counts(morse_levels):
    for v in range(10):
        psi = morse_levels[v].wavefunction
        big = psi[np.abs(psi) > 1e-3 * np.max(np.abs(psi))]
        crossings = int(np.sum(np.diff(np.sign(big)) != 0))
        assert crossings == v


def test_sign_convention_inner_antinode(morse_levels):
    for lev in morse_levels[:10]:
        psi = lev.wavefunction
        mags = np.abs(psi)
        floor = 0.01 * np.max(mags)
        inner = next(
            i
            for i in range(1, len(psi) - 1)
            if mags[i] >= floor and mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1]
        )
        assert psi[inner] > 0.0


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(-4, 4).map(float) | st.floats(-1.0, 1.0), min_size=16, max_size=16),
        min_size=0,
        max_size=8,
    )
)
def test_block_sign_fix_matches_the_per_row_rule(rows):
    # small integers make plateaus and ties; the fixed rows cover a ramp with
    # no interior antinode (the first-point-above-1% fallback), a row whose
    # innermost antinode is negative though its largest is positive, and zeros
    fixed = [np.linspace(-1.0, -0.1, 16), np.linspace(0.0, 3.0, 16), np.zeros(16),
             np.array([0.0, -0.5, 0.0, 1.0, 2.0, 1.0] + [0.0] * 10)]
    w = np.array([*rows, *fixed])
    assert rovib._antinode_signs(w).tolist() == [_antinode_sign(psi) for psi in w]
    assert rovib._antinode_signs(w)[-4:].tolist() == [-1.0, 1.0, 1.0, -1.0]


def test_centrifugal_raises_energy(morse_ds):
    e0 = solve_radial(morse_ds, "X0", 0, MORSE_GRID, 20)
    e1 = solve_radial(morse_ds, "X0", 1, MORSE_GRID, 20)
    for a, b in zip(e0, e1):
        assert b.energy > a.energy


def test_energies_increase_with_v(morse_levels):
    energies = [l.energy for l in morse_levels]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_variational_monotonicity(morse_ds):
    coarse = solve_radial(morse_ds, "X0", 0, RadialGrid(5.0, 16.0, 301), 8)
    fine = solve_radial(morse_ds, "X0", 0, RadialGrid(5.0, 16.0, 601), 8)
    for c, f in zip(coarse, fine):
        assert f.energy <= c.energy + 1e-3


def test_no_bound_levels_returns_empty():
    # purely repulsive wall: exponential decay to the asymptote from above
    r = np.linspace(3.0, 20.0, 200)
    from molpol import ElectronicState, MoleculeDataset, PotentialCurve

    x = ElectronicState("X", 0, 0.0)
    ds = MoleculeDataset(
        name="repulsive",
        reduced_mass=20.0,
        states=[x],
        potentials={"X": PotentialCurve(x, r, 5000.0 * np.exp(-(r - 3.0)))},
        dipoles=[],
        ground_label="X",
    )
    assert solve_radial(ds, "X", 0, RadialGrid(3.0, 20.0, 200)) == []


def test_j_below_omega_rejected(morse_ds):
    from molpol import ElectronicState, MoleculeDataset, PotentialCurve

    r = MORSE_GRID.points
    pi = ElectronicState("P", 1, 0.0)
    ds = MoleculeDataset(
        name="pi",
        reduced_mass=MORSE_MU,
        states=[pi],
        potentials={"P": PotentialCurve(pi, r, MORSE.value(r))},
        dipoles=[],
        ground_label="P",
    )
    with pytest.raises(ValueError, match="omega"):
        solve_radial(ds, "P", 0, MORSE_GRID)
    assert len(solve_radial(ds, "P", 1, MORSE_GRID, 4)) == 4


def test_max_levels_truncates(morse_ds):
    assert len(solve_radial(morse_ds, "X0", 0, MORSE_GRID, 7)) == 7


# 64.0 ended in an IndexError, and True solved as a cap of 1
@pytest.mark.parametrize("max_levels", [0, -3, 64.0, True])
def test_max_levels_below_one_rejected(morse_ds, krb_rotor, max_levels):
    with pytest.raises(ValueError, match="max_levels"):
        solve_radial(morse_ds, "X0", 0, MORSE_GRID, max_levels)
    with pytest.raises(ValueError, match="max_levels"):
        solve_radial(krb_rotor, "X0", 0, default_grid(krb_rotor), max_levels)


def test_j_past_the_float_exact_range_is_refused_before_any_solve(morse_ds, krb_rotor, monkeypatch):
    # J(J+1) <= 2^53, exact in a double, holds up to J = 94,906,265
    assert 94_906_265 * 94_906_266 <= 2**53 < 94_906_266 * 94_906_267

    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(rovib, "_solve", refuse)
    for ds, grid in ((morse_ds, MORSE_GRID), (krb_rotor, default_grid(krb_rotor))):
        for J in (94_906_266, 10**400):
            with pytest.raises(QuantumNumberError, match="J\\(J\\+1\\) is not exact"):
                solve_radial(ds, "X0", J, grid)
            with pytest.raises(QuantumNumberError, match="J\\(J\\+1\\) is not exact"):
                energy_floor(ds, "X0", J, grid)
        assert math.isfinite(energy_floor(ds, "X0", 94_906_265, grid))


def test_a_rotor_level_outside_the_float_range_is_a_data_error():
    ds = make_rotor(1e-300, RBCS["r_e"], RBCS["d"], "light")
    with pytest.raises(DataError, match="rotor level's energy is not finite"):
        solve_radial(ds, "X0", 94_906_265, default_grid(ds))


def test_convergence_check_pass_and_fail(morse_ds):
    ok = convergence_check(morse_ds, "X0", 0, MORSE_GRID, 6)
    assert ok.converged
    assert ok.shift_refine < 1e-3
    bad = convergence_check(morse_ds, "X0", 0, RadialGrid(5.0, 16.0, 16), 3)
    assert not bad.converged


def test_rotor_levels():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rot")
    grid = RadialGrid(RBCS["r_e"] - 1.0, RBCS["r_e"] + 1.0, 101)
    b_exact = HBAR2_OVER_TWO / (RBCS["mu"] * RBCS["r_e"] ** 2)
    levels = {J: solve_radial(ds, "X0", J, grid)[0] for J in (0, 1, 2)}
    assert levels[0].energy == pytest.approx(0.0, abs=1e-12)
    assert levels[1].energy == pytest.approx(2.0 * b_exact, rel=1e-6)
    assert levels[2].energy == pytest.approx(6.0 * b_exact, rel=1e-6)
    # delta-localized wavefunction is normalized under grid quadrature
    psi = levels[0].wavefunction
    assert np.sum(psi**2) * grid.h == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=200),
    span=st.floats(min_value=6.0, max_value=14.0),
)
def test_grid_properties(n, span):
    grid = RadialGrid(4.0, 4.0 + span, n)
    pts = grid.points
    assert len(pts) == n
    assert pts[0] == pytest.approx(4.0)
    assert pts[-1] == pytest.approx(4.0 + span)
    steps = np.diff(pts)
    np.testing.assert_allclose(steps, grid.h, rtol=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(5.0, 4.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 4.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 4.0, 8)
    # n = 301.0 was accepted, and its points then raised a TypeError; an
    # r_min of "5" raised a bare TypeError, and True was read as 1 Bohr
    bad = [(5.0, math.inf, 801), (math.nan, 20.0, 801), (5.0, math.nan, 801), (5.0, 1e300, 801), (1e-300, 2e-300, 801)]
    bad += [("5", 20.0, 801), (True, 20.0, 801), (5.0, "20", 801)]
    for r_min, r_max, n in [*bad, (5.0, 16.0, 301.0)]:
        with pytest.raises(GridError):
            RadialGrid(r_min, r_max, n)
    assert RadialGrid(5.0, 16.0, np.int64(301)) == RadialGrid(5.0, 16.0, 301)
    assert RadialGrid(5.0, 20.0, rovib.MAX_GRID_POINTS).n == rovib.MAX_GRID_POINTS
    with pytest.raises(GridError, match="MAX_GRID_POINTS"):
        RadialGrid(5.0, 20.0, rovib.MAX_GRID_POINTS + 1)


# ------------------------------------------------- BLAS pin and solve-ahead


def test_the_blas_pin_nests_across_threads_and_restores_the_count():
    # the outermost entry sets one thread, whichever thread makes it, and
    # the last exit restores the count from before
    _, get_threads = blas_thread_calls()
    before = get_threads()
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with _lapack.one_blas_thread:
            entered.set()
            leave.wait()

    other = threading.Thread(target=hold)
    other.start()
    assert entered.wait(timeout=10)
    assert get_threads() == 1
    with _lapack.one_blas_thread:
        with _lapack.one_blas_thread:
            assert get_threads() == 1
        leave.set()
        other.join(timeout=10)
        assert not other.is_alive()
        assert get_threads() == 1
    assert get_threads() == before


def test_the_blas_pin_holds_under_many_threads(monkeypatch):
    # more threads than cores, switching often: a lost update of the depth
    # would restore the count while a thread is inside, or never restore it
    _, get_threads = blas_thread_calls()
    before = get_threads()
    seen = []

    def churn():
        for _ in range(20000):
            with _lapack.one_blas_thread:
                with _lapack.one_blas_thread:
                    seen.append(get_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 160000 and set(seen) == {1}
    assert get_threads() == before


@pytest.mark.parametrize("cpus", [2, 4])
def test_a_basis_solved_ahead_has_the_bits_of_one_solved_in_the_caller(cpus, tmp_path, monkeypatch, direct_solves, worker_starts):
    # whatever the core count: the caller solves X0's basis, the one it needs
    # first, and min(2, cpus - 1) workers share the queue of A0's and B1's,
    # one solving both on two CPUs and two taking one each on four
    blas_thread_calls()
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: cpus)
    grid = default_grid(load_dataset(OPTICAL_STANDIN))
    states = ["X0", "A0", "B1"]
    lazy = dataclasses.replace(load_dataset(OPTICAL_STANDIN))
    ahead = dataclasses.replace(lazy)
    with rovib.solving_ahead(ahead, states, grid, 64):
        assert list(rovib._store(ahead).ahead) == [(state, grid, 64) for state in states[1:]]
        for state in states[::-1]:
            solve_radial(ahead, state, 1, grid, 64)
    assert rovib._store(ahead).ahead == {}
    assert len(worker_starts) == min(2, cpus - 1)
    # the caller waits for B1 and A0 before it solves X0
    (a0, b1), x0 = sorted(direct_solves[:2], key=lambda s: s[0]), direct_solves[2]
    assert a0[:2] == ("A0", 0) and b1[:2] == ("B1", 1) and len(direct_solves) == 3
    assert x0 == ("X0", 0, threading.main_thread())
    assert {a0[2], b1[2]} <= set(worker_starts)
    # the caller solves each basis again, from an empty store
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for state in states:
        solve_radial(lazy, state, 1, grid, 64)
        a, b = rovib._store(ahead).bases[(state, grid, 64)], rovib._store(lazy).bases[(state, grid, 64)]
        assert a.span == b.span and a.kept == b.kept
        assert np.array_equal(a.energies, b.energies) and np.array_equal(a.vectors, b.vectors), state


def test_a_worker_that_cannot_start_leaves_its_solves_to_the_caller(tmp_path, monkeypatch, direct_solves):
    # Thread.start raising RuntimeError (no thread to be had) starts no worker
    # and queues nothing: the caller solves every basis, to the same bytes
    blas_thread_calls()
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: 2)
    argv = ["alpha", str(OPTICAL_STANDIN), "--nu", "8600:10399.5:0.5", "--plot"]
    assert main([*argv, "--out", str(tmp_path / "started")]) == 0
    assert any(thread is not threading.main_thread() for *_, thread in direct_solves)
    started = len(direct_solves)
    dataset_module._LOADED.clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "refused-store"))   # solved again, not read
    start, refused = threading.Thread.start, []

    def no_worker(thread):
        if thread.name == "molpol-solve-ahead":
            refused.append(thread)
            raise RuntimeError("can't start new thread")
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", no_worker)
    assert main([*argv, "--out", str(tmp_path / "refused")]) == 0
    assert len(refused) == 1 and len(direct_solves) == 2 * started
    assert all(thread is threading.main_thread() for *_, thread in direct_solves[started:])
    assert rovib._store(load_dataset(OPTICAL_STANDIN)).ahead == {}
    names = sorted(p.name for p in (tmp_path / "started").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "refused" / name).read_bytes() == (tmp_path / "started" / name).read_bytes(), name


def test_unclaimed_solves_are_dropped_on_exit(monkeypatch):
    blas_thread_calls()
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: 2)
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="caller failed"):
        with rovib.solving_ahead(ds, ["X0", "A0", "B1"], grid, 64):
            raise RuntimeError("caller failed")
    assert threading.active_count() == threads
    store = rovib._store(ds)
    assert store.ahead == {} and store.bases == {}


def test_with_one_cpu_nothing_is_queued_and_the_caller_solves_every_basis(monkeypatch, direct_solves, worker_starts):
    # two bases to queue but no CPU to spare: no worker starts and no job is
    # registered, so solve_radial waits for none and solves all three itself
    blas_thread_calls()
    monkeypatch.setattr(_lapack, "usable_cpus", lambda: 1)
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    states = ["X0", "A0", "B1"]
    with rovib.solving_ahead(ds, states, grid, 64):
        assert rovib._store(ds).ahead == {} and worker_starts == []
        for state in states:
            solve_radial(ds, state, ds.state(state).omega, grid, 64)
    assert worker_starts == []
    assert direct_solves == [(state, ds.state(state).omega, threading.main_thread()) for state in states]
    assert list(rovib._store(ds).bases) == [(state, grid, 64) for state in states]


# ------------------------------------------------------- in-place dsyevd


def _span_hamiltonian(ds, state, grid, span):
    """The J = omega Hamiltonian on a span, built as rovib._eigensolve builds it."""
    row, v_eff, _ = rovib._block_inputs(ds, state, ds.state(state).omega, grid)
    ham = rovib._toeplitz(row[: span.stop - span.start])
    ham[np.diag_indices_from(ham)] += v_eff[span]
    return ham


@pytest.mark.parametrize("threads", [1, 2])
def test_the_in_place_solve_has_the_bits_of_eigh(threads):
    # the same LAPACK routine on the same values, under either BLAS thread
    # count: the three optical J0 spans and the full grid
    dsyevd_call()
    set_threads, get_threads = blas_thread_calls()
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    spans = [(st.label, _solved_span(ds, st.label, st.omega, grid, 64)) for st in ds.states]
    spans.append(("X0", slice(0, grid.n)))
    assert sorted(span.stop - span.start for _, span in spans) == [448, 457, 472, 801]
    before = get_threads()
    set_threads(threads)
    try:
        for state, span in spans:
            ham = _span_hamiltonian(ds, state, grid, span)
            energies, vectors = np.linalg.eigh(ham)
            got_energies, got_vectors = _lapack.eigh_in_place(ham)
            assert np.array_equal(got_energies, energies) and np.array_equal(got_vectors, vectors), (state, span)
            assert np.shares_memory(got_vectors, ham)
    finally:
        set_threads(before)


def test_the_in_place_solve_takes_only_a_matrix_it_may_overwrite():
    ham = np.eye(4)
    for bad in (ham[:, ::2].T, ham[:3], ham.T[::2, ::2], ham.astype(np.float32), np.eye(4).T):
        with pytest.raises(ValueError, match="square, writable, C-contiguous float64"):
            _lapack.eigh_in_place(bad)
    ham.flags.writeable = False
    with pytest.raises(ValueError, match="square, writable, C-contiguous float64"):
        _lapack.eigh_in_place(ham)


@pytest.mark.parametrize("grid, sizes", [([], [448, 457, 472]), (["--grid", "5:20:301"], [168, 172, 177, 301, 301])])
def test_every_dense_hamiltonian_is_exactly_symmetric(grid, sizes, tmp_path, monkeypatch):
    # the in-place solve reads ham's upper triangle where eigh reads its
    # lower one; on the 301-point grid two trimmed solves repeat on the full grid
    seen = []
    in_place = _lapack.eigh_in_place

    def checking(ham):
        seen.append((len(ham), ham.flags.c_contiguous and np.array_equal(ham, ham.T)))
        return in_place(ham)

    monkeypatch.setattr(_lapack, "eigh_in_place", checking)
    argv = ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "8800:9600:1", *grid]
    assert main([*map(str, argv), "--out", str(tmp_path)]) == 0
    assert sorted(m for m, _ in seen) == sizes
    assert all(symmetric for _, symmetric in seen)


def test_dense_solves_do_not_go_through_eigh(tmp_path, monkeypatch):
    dsyevd_call()
    eigh = np.linalg.eigh

    def contractions_only(matrix):
        assert len(matrix) <= 2 * rovib.MAX_LEVELS, f"a {len(matrix)}-point eigh"
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", contractions_only)
    assert main(["alpha", str(OPTICAL_STANDIN), "--nu", "9000:9010:1", "--out", str(tmp_path)]) == 0


def test_without_dsyevd_the_outputs_keep_their_bytes(tmp_path, monkeypatch):
    # the fallback is np.linalg.eigh: the same routine, so the same bytes
    dsyevd_call()
    requests = [
        ["alpha", OPTICAL_STANDIN, "--nu", "8600:10399.5:0.5", "--plot"],
        ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "8800:9600:1", "--plot"],
    ]
    for run in ("in_place", "eigh"):
        if run == "eigh":
            monkeypatch.setattr(_lapack, "DSYEVD", None)
        for argv in requests:
            dataset_module._LOADED.clear()
            assert main([*map(str, argv), "--out", str(tmp_path / run / argv[0])]) == 0
    files = sorted(p.relative_to(tmp_path / "in_place") for p in (tmp_path / "in_place").rglob("*") if p.is_file())
    assert len(files) == 8
    for rel in files:
        assert (tmp_path / "eigh" / rel).read_bytes() == (tmp_path / "in_place" / rel).read_bytes(), rel


# ------------------------------------------------------------ the on-disk store of bases


def stored_bases():
    """Skips the test when the store is not used: no solver identity in _lapack."""
    if None in (_lapack.SOLVER, _lapack.BLAS_THREADS, _lapack.DSYEVD):
        pytest.skip("_lapack found no solver identity, so no basis is stored")


def store_entries() -> list[Path]:
    """The entries of the store that XDG_CACHE_HOME names (a fresh directory per test)."""
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "molpol").glob("*.basis"))


def counting_eigensolves(monkeypatch) -> list[slice]:
    """The span of every dense eigensolve from here on."""
    spans, eigensolve = [], rovib._eigensolve

    def counting(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
        spans.append(span)
        return eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top)

    monkeypatch.setattr(rovib, "_eigensolve", counting)
    return spans


def assert_same_basis(a, b):
    assert (a.span, a.kept, a.edges) == (b.span, b.kept, b.edges)
    assert np.array_equal(a.v_eff, b.v_eff)
    assert np.array_equal(a.energies, b.energies) and np.array_equal(a.vectors, b.vectors)


ENTRY_ARRAYS = ("key", "span", "energies", "vectors")   # in the order an entry holds them


def read_entry(entry: Path) -> dict[str, np.ndarray]:
    """The arrays of a stored entry, by name."""
    with open(entry, "rb") as file:
        return {name: np.lib.format.read_array(file, allow_pickle=False) for name in ENTRY_ARRAYS}


def rewrite_entry(entry: Path, **fields):
    """Store the entry again with some of its arrays replaced."""
    arrays = read_entry(entry) | fields
    with open(entry, "wb") as out:
        for name in ENTRY_ARRAYS:
            np.lib.format.write_array(out, arrays[name], allow_pickle=False)


def test_a_second_process_solves_nothing_dense_and_writes_the_same_bytes(tmp_path):
    # two fresh interpreters on one store: the first solves X0's, A0's and
    # B1's J = omega bases in place, the second reads all three
    stored_bases()
    argv = ["magic", str(OPTICAL_STANDIN), "--Ja", "0", "--Jb", "1", "--nu", "8800:9000:1"]
    code = (
        "import sys, molpol.cli\n"
        "from molpol import _lapack\n"
        "in_place, sizes = _lapack.eigh_in_place, []\n"
        "def counting(ham):\n"
        "    sizes.append(len(ham))\n"
        "    return in_place(ham)\n"
        "_lapack.eigh_in_place = counting\n"
        "assert molpol.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(sizes))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    printed = []
    for run in ("first", "second"):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path / run)],
            capture_output=True, text=True, env=env, check=True,
        )
        printed.append(out.stdout.splitlines()[-1])
    assert printed == ["[448, 457, 472]", "[]"]
    assert len(store_entries()) == 3
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names and sorted(p.name for p in (tmp_path / "second").iterdir()) == names
    for name in names:
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "first" / name).read_bytes(), name


@pytest.mark.parametrize(
    "damage", ["empty", "truncated", "garbage", "directory", "foreign key", "bare array", "header past memory"]
)
def test_a_damaged_entry_is_solved_again_to_the_same_bits(damage, monkeypatch):
    # each is a miss: the block is solved as with no store, and its entry is
    # written whole again, so the next solve reads it
    stored_bases()
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    spans = counting_eigensolves(monkeypatch)
    first = rovib._solve(ds, "X0", 0, grid, 64)
    (entry,) = store_entries()
    data = entry.read_bytes()
    if damage == "empty":
        entry.write_bytes(b"")
    elif damage == "truncated":
        entry.write_bytes(data[: len(data) // 2])
    elif damage == "garbage":
        entry.write_bytes(bytes(range(256)) * 64)
    elif damage == "directory":
        entry.unlink()
        entry.mkdir()
    elif damage == "bare array":
        with open(entry, "wb") as out:
            np.save(out, first.vectors)
    elif damage == "header past memory":   # reading it would allocate 8 PiB
        with open(entry, "wb") as out:
            np.lib.format.write_array_header_1_0(out, {"descr": "<f8", "fortran_order": False, "shape": (2**50,)})
    else:   # another key stored under this key's name
        rewrite_entry(entry, key=np.append(read_entry(entry)["key"], np.uint8(0)))
    assert_same_basis(rovib._solve(ds, "X0", 0, grid, 64), first)
    assert len(spans) == 2
    assert store_entries() == [entry] and entry.is_file()
    assert_same_basis(rovib._solve(ds, "X0", 0, grid, 64), first)
    assert len(spans) == 2


@pytest.mark.parametrize("fault", ["level moved by 0.01 cm^-1", "vectors halved"])
def test_an_entry_that_fails_its_certificate_is_solved_again_and_overwritten(fault, monkeypatch):
    # a moved level keeps its order and its unit vector: only its residual
    # sees it; halved vectors shrink every residual: only X^T X = I sees them
    stored_bases()
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    spans = counting_eigensolves(monkeypatch)
    first = rovib._solve(ds, "X0", 0, grid, 64)
    (entry,) = store_entries()
    if fault == "vectors halved":
        rewrite_entry(entry, vectors=0.5 * first.vectors)
    else:
        moved = first.energies.copy()
        moved[3] += 0.01
        rewrite_entry(entry, energies=moved)
        row, v_eff, cutoff = rovib._block_inputs(ds, "X0", 0, grid)
        x = first.vectors[:, : first.kept + 1]
        v = v_eff[first.span]
        assert rovib._residuals_hold(row, v, first.energies, x, first.kept, cutoff, first.edges)
        assert not rovib._residuals_hold(row, v, moved, x, first.kept, cutoff, first.edges)
    assert_same_basis(rovib._solve(ds, "X0", 0, grid, 64), first)
    assert len(spans) == 2
    stored = read_entry(entry)
    assert np.array_equal(stored["energies"], first.energies)
    assert np.array_equal(stored["vectors"], first.vectors)


@pytest.mark.parametrize("change", ["max_levels", "max_levels on the full grid", "grid", "one ulp outside the span"])
def test_a_block_whose_inputs_differ_is_a_miss(change, monkeypatch):
    # on a trimmed span max_levels moves e_top too; with every bound level
    # kept (the full grid, no e_top) only the key tells 200 from 199
    stored_bases()
    ds = load_dataset(OPTICAL_STANDIN)
    grid = default_grid(ds)
    spans = counting_eigensolves(monkeypatch)
    max_levels = 200 if change == "max_levels on the full grid" else 64
    first = rovib._solve(ds, "X0", 0, grid, max_levels)
    if change.startswith("max_levels"):
        rovib._solve(ds, "X0", 0, grid, max_levels - 1)
    elif change == "grid":
        rovib._solve(ds, "X0", 0, RadialGrid(grid.r_min, grid.r_max, grid.n + 2), 64)
    else:
        # v_eff's last point lies past the span, yet the whole grid is keyed
        assert first.span.stop < grid.n
        potential = rovib._effective_potential

        def nudged(*args):
            v = potential(*args).copy()
            v[-1] = np.nextafter(v[-1], math.inf)
            return v

        monkeypatch.setattr(rovib, "_effective_potential", nudged)
        rovib._solve(ds, "X0", 0, grid, 64)
    assert len(spans) == 2 and len(store_entries()) == 2


def test_the_cap_drops_the_oldest_entries(monkeypatch):
    stored_bases()
    ds = load_dataset(OPTICAL_STANDIN)
    grid = RadialGrid(5.0, 20.0, 301)
    for max_levels in (12, 11):
        rovib._solve(ds, "X0", 0, grid, max_levels)
    by_cap = {}
    for entry in store_entries():
        by_cap[len(read_entry(entry)["energies"]) // 2] = entry
    os.utime(by_cap[12], ns=(10**18, 10**18))
    os.utime(by_cap[11], ns=(2 * 10**18, 2 * 10**18))
    # room for the two entries there are; the next, smaller one pushes the oldest out
    monkeypatch.setattr(_bases, "MAX_BYTES", by_cap[12].stat().st_size + by_cap[11].stat().st_size)
    rovib._solve(ds, "X0", 0, grid, 10)
    kept = store_entries()
    assert by_cap[12] not in kept and by_cap[11] in kept and len(kept) == 2


def test_writers_and_readers_of_one_entry_see_it_whole():
    # solve-ahead workers write beside the caller: each write goes to a name
    # of its own and replaces the entry whole, so no read, from any thread,
    # finds a part of one; more threads than CPUs, switching every microsecond
    stored_bases()
    entry_key = _bases.key(np.arange(5.0), 64)
    energies, vectors = np.linspace(0.0, 1.0, 8), np.eye(16)[:, :8]
    reads, errors = [], []

    def work():
        try:
            for _ in range(25):
                _bases.write(entry_key, 0, 16, energies, vectors)
                reads.append(_bases.read(entry_key))
        except Exception as exc:   # raised in the test's thread below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(2 * _lapack.usable_cpus() + 2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(reads) == 25 * len(threads) and all(entry is not None for entry in reads)
    for start, stop, e, v in reads:
        assert (start, stop) == (0, 16) and np.array_equal(e, energies) and np.array_equal(v, vectors)
    folder = Path(os.environ["XDG_CACHE_HOME"]) / "molpol"
    assert [p.name for p in folder.iterdir()] == [p.name for p in store_entries()] and len(store_entries()) == 1


@pytest.mark.parametrize("missing", ["SOLVER", "BLAS_THREADS", "DSYEVD"])
def test_without_a_solver_identity_no_basis_is_stored(missing, monkeypatch):
    stored_bases()
    monkeypatch.setattr(_lapack, missing, None)
    ds = load_dataset(OPTICAL_STANDIN)
    spans = counting_eigensolves(monkeypatch)
    for _ in range(2):
        rovib._solve(ds, "X0", 0, RadialGrid(5.0, 20.0, 301), 12)
    assert len(spans) == 2 and store_entries() == []


def test_a_level_cap_past_int64_is_solved_but_not_stored(monkeypatch):
    # as an array it holds a pointer, which no other process would key alike
    stored_bases()
    spans = counting_eigensolves(monkeypatch)
    basis = rovib._solve(load_dataset(OPTICAL_STANDIN), "X0", 0, RadialGrid(5.0, 20.0, 301), 10**20)
    assert len(spans) == 1 and basis.kept > 0 and store_entries() == []
    assert _bases.key(10**20) is None and _bases.key(2**62) is not None


def test_the_solver_identity_names_numpy_the_symbol_and_the_blas_build():
    stored_bases()
    version, module, symbol, build = _lapack.SOLVER.split("\n")
    assert version == np.__version__ and module == np.linalg._umath_linalg.__file__
    assert symbol == _lapack.DSYEVD[0].__name__ and build
