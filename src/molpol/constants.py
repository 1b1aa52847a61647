"""Shared physical constants and unit conversions.

The SI constants are CODATA 2022 literals; tests check them against
scipy.constants.

Canonical internal units everywhere in the package:

* length          Bohr
* energy          cm^-1 (photon and level energies alike)
* dipole moment   Debye
* mass            unified atomic mass units (amu)
* intensity       W/cm^2
* linewidth       MHz (ordinary frequency)

Polarizabilities are carried as alpha/h in Hz/(W/cm^2), so a lattice depth is
just V0/h = -Re(alpha) * I with I in W/cm^2.
"""

from __future__ import annotations

import math

# CODATA 2022, as scipy.constants gives them
C_SI = 299792458.0                    # speed of light, m/s
H_SI = 6.62607015e-34                 # Planck constant, J s
HBAR_SI = 1.0545718176461565e-34      # H_SI / (2 pi), J s
EPS0_SI = 8.8541878188e-12            # vacuum permittivity, F/m
E_CHARGE_SI = 1.602176634e-19         # elementary charge, C
AMU_KG = 1.66053906892e-27            # atomic mass constant, kg
BOHR_M = 5.29177210544e-11            # Bohr radius, m
HARTREE_J = 4.359744722206e-18        # Hartree energy, J

# energy of one wavenumber, in Joule
J_PER_CM1 = H_SI * C_SI * 100.0

HARTREE_CM1 = HARTREE_J / J_PER_CM1
ANGSTROM_BOHR = 1e-10 / BOHR_M
DEBYE_CM = 1e-21 / C_SI          # C*m per Debye (definition of the Debye)
EA0_DEBYE = E_CHARGE_SI * BOHR_M / DEBYE_CM

# hbar^2/2 in cm^-1 * Bohr^2 * amu. Divide by the reduced mass in amu to get
# the kinetic prefactor of the radial Hamiltonian; B = HBAR2_OVER_TWO/(mu R^2).
HBAR2_OVER_TWO = HBAR_SI**2 / (2.0 * AMU_KG * BOHR_M**2 * J_PER_CM1)

# One line's polarizability contribution is ALPHA_HZ_PER_WCM2 * w * d^2 * g
# with d in Debye and g the (complex) energy factor in 1/cm^-1; the result is
# alpha/h in Hz/(W/cm^2). Folds in the 1/(eps0 c) prefactor and the
# W/m^2 -> W/cm^2 change.
ALPHA_HZ_PER_WCM2 = (DEBYE_CM**2 / (EPS0_SI * C_SI)) / (J_PER_CM1 * H_SI) * 1.0e4

MHZ_CM1 = 1.0e6 / (C_SI * 100.0)     # cm^-1 per MHz

# Einstein A [1/s] = EINSTEIN_A_FACTOR * (nu [cm^-1])^3 * (d [Debye])^2 * branch
EINSTEIN_A_FACTOR = (2.0 * math.pi * 100.0) ** 3 * DEBYE_CM**2 / (3.0 * math.pi * EPS0_SI * HBAR_SI)

# accepted curve-file units, mapped to the canonical unit
LENGTH_UNITS = {"bohr": 1.0, "angstrom": ANGSTROM_BOHR}
POTENTIAL_UNITS = {"cm-1": 1.0, "hartree": HARTREE_CM1}
DIPOLE_UNITS = {"debye": 1.0, "au": EA0_DEBYE}


def field_from_intensity(intensity_wcm2: float) -> float:
    """Peak electric field E [V/m] of a wave with intensity I [W/cm^2].

    Uses I = (1/2) eps0 c E^2.
    """
    return math.sqrt(2.0 * intensity_wcm2 * 1.0e4 / (EPS0_SI * C_SI))
