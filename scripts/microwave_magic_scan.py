#!/usr/bin/env python3
"""Scan rotational polarizabilities for the rotor stand-ins and locate the
frequency where the J=0 and J=1,M=0 traps match.

Writes per-molecule alpha curves and a summary table under out/microwave/.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molpol import (  # noqa: E402
    LevelId,
    LineListOptions,
    Polarization,
    build_line_list,
    find_magic,
    lattice_plan,
    load_dataset,
    microwave_plan,
    scan_spectrum,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "microwave"
DATASETS = ["krb_rotor_standin", "rbcs_rotor_standin"]
INTENSITY = 1.0e4  # W/cm^2, typical lattice peak


def run(name: str) -> list[str]:
    ds = load_dataset(ROOT / "datasets" / name)
    opts = LineListOptions(gamma=0.0)
    pol = Polarization.parse("sigma_z")
    ida = LevelId(ds.ground_label, 0, 0, 0)
    idb = LevelId(ds.ground_label, 0, 1, 0)

    lines_a = build_line_list(ds, ida, pol, opts)
    b_rot = 0.5 * lines_a[0].delta_e
    nus = np.arange(0.05 * b_rot, 20.0 * b_rot, 0.02 * b_rot)
    spec_a = scan_spectrum(ds, ida, pol, nus, opts)
    spec_b = scan_spectrum(ds, idb, pol, nus, opts)

    table = np.column_stack([nus, spec_a.values.real, spec_b.values.real])
    np.savetxt(
        OUT / f"{name}_alpha.dat",
        table,
        header="nu [cm^-1]  Re alpha/h J0 [Hz/(W/cm^2)]  Re alpha/h J1 [Hz/(W/cm^2)]",
    )

    rows = []
    for root in find_magic(spec_a, spec_b):
        trap = lattice_plan(root.alpha, INTENSITY, 1.0e7 / root.nu)
        dress = microwave_plan(ds, root.nu, 100.0, options=opts)
        rows.append(
            f"{name}: magic at {root.nu:.6f} cm^-1 = {root.nu / b_rot:.3f} B, "
            f"alpha {root.alpha.real:.4g} Hz/(W/cm^2), "
            f"V0/h {trap.v0_over_h:.4g} Hz at {INTENSITY:g} W/cm^2, "
            f"induced d {dress.d_induced:.3f} D at 100 W/cm^2"
        )
    return rows


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    summary = []
    for name in DATASETS:
        summary.extend(run(name))
    text = "\n".join(summary) + "\n"
    (OUT / "summary.txt").write_text(text)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
