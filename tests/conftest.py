"""Shared builders for the test suite.

Stand-in parameters mirror datasets/: reduced masses in amu, bond lengths in
Bohr, dipoles in Debye. Everything here is synthesized in-memory so tests do
not depend on the shipped dataset files (the CLI tests build their own copies
on disk).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from molpol import dataset as molpol_dataset
from molpol import rovib
from molpol import (
    HBAR2_OVER_TWO,
    DipoleCurve,
    ElectronicState,
    HarmonicModel,
    MoleculeDataset,
    MorseModel,
    PotentialCurve,
    RadialGrid,
    RigidRotorModel,
    synthesize,
)


def blas_thread_calls():
    """rovib's (set, get) of numpy's OpenBLAS thread count; skips the test without them."""
    calls = rovib._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread-count calls were not found")
    return calls


def dsyevd_call():
    """rovib's in-place dsyevd and its integer type; skips the test without them."""
    call = rovib._dsyevd()
    if call is None:
        pytest.skip("numpy's LAPACK dsyevd was not found under a name of known integer width")
    return call


@pytest.fixture(autouse=True)
def empty_load_cache():
    """Start every test without a held dataset, so no solve or sample count
    depends on which test loaded the same content before it."""
    molpol_dataset._LOADED.clear()


KRB = dict(mu=27.3757, r_e=7.69, d=0.76)
RBCS = dict(mu=52.5475, r_e=8.37, d=1.27)


def rotor_b(mu: float, r_e: float) -> float:
    return HBAR2_OVER_TWO / (mu * r_e**2)


def make_rotor(mu: float, r_e: float, d: float, name: str) -> MoleculeDataset:
    return synthesize(RigidRotorModel(b=rotor_b(mu, r_e), d=d), reduced_mass=mu, name=name)


@pytest.fixture(scope="session")
def krb_rotor() -> MoleculeDataset:
    return make_rotor(KRB["mu"], KRB["r_e"], KRB["d"], "krb_rotor")


@pytest.fixture(scope="session")
def rbcs_rotor() -> MoleculeDataset:
    return make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")


MORSE = MorseModel(d_e=2000.0, a=0.5, r_e=8.0)
MORSE_MU = 50.0
MORSE_GRID = RadialGrid(5.0, 16.0, 501)


@pytest.fixture(scope="session")
def morse_ds() -> MoleculeDataset:
    return synthesize(MORSE, MORSE_GRID, reduced_mass=MORSE_MU, name="morse_test")


def make_harmonic_pair(
    omega_cm: float,
    mu: float,
    r_e: float,
    shift: float,
    grid: RadialGrid,
    d0: float = 1.0,
    offset: float = 0.0,
) -> MoleculeDataset:
    """Two harmonic wells with equal frequency, displaced by `shift` Bohr.

    `offset` raises the upper well so emission tests get a real transition
    frequency; eigenvectors are unchanged by the constant shift.
    """
    k = mu * omega_cm**2 / (2.0 * HBAR2_OVER_TWO)
    lo = ElectronicState("L", 0, np.inf)
    hi = ElectronicState("U", 0, np.inf)
    r = grid.points
    return MoleculeDataset(
        name="harmonic_pair",
        reduced_mass=mu,
        states=[lo, hi],
        potentials={
            "L": PotentialCurve(lo, r, HarmonicModel(k, r_e).value(r)),
            "U": PotentialCurve(hi, r, offset + HarmonicModel(k, r_e + shift).value(r)),
        },
        dipoles=[DipoleCurve("L", "U", r, np.full_like(r, d0))],
        ground_label="L",
    )


def make_optical(hidden_d: float = 2e-5, default_gamma: float = 6.0) -> MoleculeDataset:
    """Ground Morse well plus one strong and one weak ("hidden") excited well.

    The weak state's transition dipole sits far above the 1e-8 D line floor
    but is invisible on a 1 cm^-1 scan grid.
    """
    r = np.linspace(5.0, 18.0, 301)
    x = ElectronicState("X", 0, 0.0, "+")
    e = ElectronicState("E", 0, 11000.0, "+")
    h = ElectronicState("H", 0, 11500.0, "+")
    return MoleculeDataset(
        name="optical_test",
        reduced_mass=50.0,
        states=[x, e, h],
        potentials={
            "X": PotentialCurve(x, r, MorseModel(2000.0, 0.5, 8.0).value(r)),
            "E": PotentialCurve(e, r, 8500.0 + MorseModel(2500.0, 0.5, 8.4).value(r)),
            "H": PotentialCurve(h, r, 9000.0 + MorseModel(2500.0, 0.5, 8.4).value(r)),
        },
        dipoles=[
            DipoleCurve("X", "E", r, np.full_like(r, 5.0)),
            DipoleCurve("X", "H", r, np.full_like(r, hidden_d)),
        ],
        ground_label="X",
        default_gamma=default_gamma,
    )


def shifted_solve(shift: float):
    """rovib.solve_radial with every energy raised by `shift` cm^-1."""
    solve = rovib.solve_radial

    def shifted(*args):
        return [dataclasses.replace(l, energy=l.energy + shift) for l in solve(*args)]

    return shifted


def shifted_contract(shift: float):
    """rovib._contract with every contracted energy raised by `shift` cm^-1."""
    contract = rovib._contract

    def shifted(*args):
        basis = contract(*args)
        return None if basis is None else dataclasses.replace(basis, energies=basis.energies + shift)

    return shifted
