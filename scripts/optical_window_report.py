#!/usr/bin/env python3
"""Map clean optical trapping windows for the optical stand-in dataset.

Scans below the first excited asymptote, lists every vibronic resonance hit,
and reports the windows where the trap is deep, flat, and coherent. Output
goes to out/optical/.
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
    find_windows,
    lattice_plan,
    load_dataset,
    scan_spectrum,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "optical"
INTENSITY = 1.0e4  # W/cm^2


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    ds = load_dataset(ROOT / "datasets" / "rbcs_optical_standin")
    opts = LineListOptions(gamma="computed")
    initial = LevelId(ds.ground_label, 0, 0, 0)
    nus = np.arange(8600.0, 10400.0, 0.5)
    spec = scan_spectrum(ds, initial, Polarization.parse("sigma_z"), nus, opts)

    np.savetxt(
        OUT / "alpha.dat",
        np.column_stack([nus, spec.values.real, spec.values.imag]),
        header="nu [cm^-1]  Re alpha/h [Hz/(W/cm^2)]  Im alpha/h [Hz/(W/cm^2)]",
    )

    lines = [
        f"lines kept: {len(spec.lines)}",
        f"resonances in range: {len(spec.resonances)}",
        "strength capture by excited state: "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(spec.capture.items())),
        "",
    ]
    for w in find_windows(spec, min_width=5.0, flatness_cap=0.1, ratio_floor=1.0e6):
        mid = 0.5 * (w.nu_lo + w.nu_hi)
        probe = int(np.argmin(np.abs(nus - mid)))
        trap = lattice_plan(spec.values[probe], INTENSITY, 1.0e7 / nus[probe])
        lines.append(
            f"window {w.nu_lo:.1f}..{w.nu_hi:.1f} cm^-1 "
            f"({1.0e7 / w.nu_hi:.1f}..{1.0e7 / w.nu_lo:.1f} nm), "
            f"min |Re/Im| {w.min_ratio:.3g}, "
            f"V0/h {trap.v0_over_h:.4g} Hz, coherent ratio {trap.coherent_ratio:.3g}"
        )
    text = "\n".join(lines) + "\n"
    (OUT / "report.txt").write_text(text)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
