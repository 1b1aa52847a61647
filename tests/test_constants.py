import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from scipy import constants as sc

from molpol import constants as C


@pytest.mark.parametrize(
    "name, value",
    [
        ("C_SI", sc.c),
        ("H_SI", sc.h),
        ("HBAR_SI", sc.hbar),
        ("EPS0_SI", sc.epsilon_0),
        ("E_CHARGE_SI", sc.e),
        ("AMU_KG", sc.atomic_mass),
        ("BOHR_M", sc.physical_constants["Bohr radius"][0]),
        ("HARTREE_J", sc.physical_constants["Hartree energy"][0]),
    ],
)
def test_codata_literals_equal_scipy_constants(name, value):
    assert getattr(C, name) == value


# modules the package does without, each a cost at set-up: scipy (the
# package calls numpy's LAPACK alone), logging (rovib does not log), hashlib
# (OpenSSL's libcrypto), concurrent.futures (pulls in logging; the solves
# ahead run on plain threads), multiprocessing, and fractions and decimal
# (the 3-j squares are exact ratios of plain ints)
UNLOADED = ("scipy", "logging", "hashlib", "_hashlib", "concurrent.futures", "multiprocessing", "fractions", "decimal")


def test_package_imports_neither_scipy_interpolate_nor_constants(tmp_path):
    # nor, through the import and one optical magic request, any module in UNLOADED
    dataset = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"
    argv = ["magic", str(dataset), "--Ja", "0", "--Jb", "1", "--nu", "8800:9000:1", "--out", str(tmp_path)]
    code = (
        "import sys, molpol.cli\n"
        f"assert molpol.cli.main({argv!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in {UNLOADED!r})))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "magic.json").is_file()


def test_package_loads_no_scipy_module(tmp_path):
    # numpy's LAPACK is the only one the package calls, through a request too
    dataset = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"
    argv = ["alpha", str(dataset), "--nu", "9000:9010:1", "--grid", "5:20:301", "--out", str(tmp_path)]
    code = (
        "import sys, molpol.cli\n"
        f"assert molpol.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "alpha.csv").is_file()


def test_key_constants_recomputed_from_codata():
    # independent reassembly from scipy.constants, not from the module's own chain
    j_per_cm1 = sc.h * sc.c * 100.0
    hbar2_over_two = sc.hbar**2 / (2.0 * sc.atomic_mass * sc.physical_constants["Bohr radius"][0] ** 2) / j_per_cm1
    assert math.isclose(C.HBAR2_OVER_TWO, hbar2_over_two, rel_tol=1e-12)

    debye = 1e-21 / sc.c
    alpha_unit = debye**2 / (sc.epsilon_0 * sc.c) / j_per_cm1 / sc.h * 1e4
    assert math.isclose(C.ALPHA_HZ_PER_WCM2, alpha_unit, rel_tol=1e-12)

    a_factor = (2.0 * math.pi * sc.c * 100.0) ** 3 * debye**2 / (3.0 * math.pi * sc.epsilon_0 * sc.hbar * sc.c**3)
    assert math.isclose(C.EINSTEIN_A_FACTOR, a_factor, rel_tol=1e-12)

    assert math.isclose(C.MHZ_CM1, 1e6 / (sc.c * 100.0), rel_tol=1e-12)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_unit_tables_round_trip(x):
    for table in (C.LENGTH_UNITS, C.POTENTIAL_UNITS, C.DIPOLE_UNITS):
        for factor in table.values():
            assert math.isclose((x * factor) / factor, x, rel_tol=1e-12)


def test_canonical_units_are_identity():
    assert C.LENGTH_UNITS["bohr"] == 1.0
    assert C.POTENTIAL_UNITS["cm-1"] == 1.0
    assert C.DIPOLE_UNITS["debye"] == 1.0
    # hartree in cm^-1, textbook value
    assert math.isclose(C.POTENTIAL_UNITS["hartree"], 219474.63, rel_tol=1e-6)


def test_field_from_intensity():
    # I = 1/2 eps0 c E^2, with I in W/cm^2
    e = C.field_from_intensity(100.0)
    back = 0.5 * sc.epsilon_0 * sc.c * e**2 / 1e4
    assert math.isclose(back, 100.0, rel_tol=1e-12)
    assert C.field_from_intensity(0.0) == 0.0
