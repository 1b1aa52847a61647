#!/usr/bin/env python3
"""Generate the stand-in datasets shipped under datasets/.

None of these are fitted to measured curves. The rotor pair carries
literature-adjacent masses, bond lengths, and permanent dipoles; the optical
pair uses Morse wells with plausible depths and smooth dipole functions.
Numbers good enough to exercise every code path, not to design an experiment.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molpol import (  # noqa: E402
    HBAR2_OVER_TWO,
    DipoleCurve,
    ElectronicState,
    MoleculeDataset,
    MorseModel,
    PotentialCurve,
    RigidRotorModel,
    synthesize,
    write_dataset,
)

OUT = Path(__file__).resolve().parent.parent / "datasets"

# reduced masses in amu, bond lengths in Bohr, dipoles in Debye
KRB_MU, KRB_RE, KRB_D = 27.3757, 7.69, 0.76
RBCS_MU, RBCS_RE, RBCS_D = 52.5475, 8.37, 1.27


def rotor(name: str, mu: float, r_e: float, d: float) -> None:
    b = HBAR2_OVER_TWO / (mu * r_e**2)
    ds = synthesize(RigidRotorModel(b=b, d=d), reduced_mass=mu, name=name)
    write_dataset(ds, OUT / name)
    print(f"{name}: B = {b:.6f} cm^-1, d = {d} D")


def optical(name: str) -> None:
    r = np.linspace(5.0, 20.0, 301)
    ground = MorseModel(d_e=3800.0, a=0.40, r_e=RBCS_RE)
    upper_a = MorseModel(d_e=4200.0, a=0.35, r_e=9.3)
    upper_b = MorseModel(d_e=3500.0, a=0.45, r_e=8.9)

    x0 = ElectronicState("X0", 0, 0.0, "+")
    a0 = ElectronicState("A0", 0, 9500.0, "+")
    b1 = ElectronicState("B1", 1, 10800.0)

    pots = {
        "X0": (x0, ground.value(r)),
        "A0": (a0, 9500.0 + upper_a.value(r)),
        "B1": (b1, 10800.0 + upper_b.value(r)),
    }
    # permanent dipole dies off as the pair separates into neutral atoms
    d_perm = RBCS_D * np.exp(-(((r - RBCS_RE) / 4.0) ** 2))
    d_xa = 5.5 * np.exp(-0.02 * (r - 8.8) ** 2)
    d_xb = 4.0 * np.exp(-0.03 * (r - 8.6) ** 2)

    ds = MoleculeDataset(
        name=name,
        reduced_mass=RBCS_MU,
        states=[x0, a0, b1],
        potentials={k: PotentialCurve(st, r, v) for k, (st, v) in pots.items()},
        dipoles=[
            DipoleCurve("X0", "X0", r, d_perm),
            DipoleCurve("X0", "A0", r, d_xa),
            DipoleCurve("X0", "B1", r, d_xb),
        ],
        ground_label="X0",
    )
    write_dataset(ds, OUT / name)
    print(f"{name}: 3 states, {len(r)} radial points")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    rotor("krb_rotor_standin", KRB_MU, KRB_RE, KRB_D)
    rotor("rbcs_rotor_standin", RBCS_MU, RBCS_RE, RBCS_D)
    optical("rbcs_optical_standin")


if __name__ == "__main__":
    main()
