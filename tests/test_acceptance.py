"""End-to-end battery: one test per shipped guarantee.

Each test prints a one-line summary of the measured numbers. Expected values
come from closed forms computed inside the test (never from the code under
test), from exact arithmetic identities, or from published anchor figures
with wide tolerances where the bundled model data are stand-ins.
"""

import json
import math
import time

import numpy as np
import pytest
from sympy.physics.wigner import wigner_3j

from molpol import (
    ALPHA_HZ_PER_WCM2,
    HBAR2_OVER_TWO,
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
    dd_interaction,
    find_magic,
    find_windows,
    franck_condon,
    induced_dipole,
    lattice_plan,
    scan_spectrum,
    solve_radial,
    synthesize,
    write_dataset,
)
from molpol.cli import main as cli_main

from conftest import KRB, RBCS, make_optical, make_rotor, rotor_b

SZ = Polarization.parse("sigma_z")
G0 = LineListOptions(gamma=0.0)


def test_c01_bound_levels_match_morse_closed_form_quickly():
    d_e, a, r_e, mu = 2000.0, 0.5, 8.0, 50.0
    grid = RadialGrid(5.0, 16.0, 800)
    ds = synthesize(MorseModel(d_e, a, r_e), grid, reduced_mass=mu, name="morse")
    t0 = time.perf_counter()
    levels = solve_radial(ds, "X0", 0, grid, 10)
    elapsed = time.perf_counter() - t0

    w_e = 2.0 * a * math.sqrt(HBAR2_OVER_TWO * d_e / mu)
    w_ex_e = a * a * HBAR2_OVER_TWO / mu
    worst = 0.0
    for v in range(10):
        x = v + 0.5
        exact = w_e * x - w_ex_e * x * x - d_e
        worst = max(worst, abs(levels[v].energy - exact) / abs(exact))
    print(f"c01: worst relative deviation {worst:.2e}, solve time {elapsed:.3f} s")
    assert worst < 1e-6
    assert elapsed < 2.0


def test_c02_displaced_well_overlaps_match_poisson_form():
    omega, mu, r_e, shift = 50.0, 30.0, 8.0, 0.5
    from conftest import make_harmonic_pair

    grid = RadialGrid(5.5, 11.0, 551)
    ds = make_harmonic_pair(omega, mu, r_e, shift, grid)
    lo = solve_radial(ds, "L", 0, grid, 1)
    up = solve_radial(ds, "U", 0, grid, 12)
    s_par = mu * omega * shift * shift / (4.0 * HBAR2_OVER_TWO)
    worst = 0.0
    for vp in range(9):
        exact = math.exp(-s_par) * s_par**vp / math.factorial(vp)
        got = franck_condon(lo[0], up[vp])
        worst = max(worst, abs(got - exact))
    print(f"c02: S parameter {s_par:.4f}, worst absolute deviation {worst:.2e}")
    assert worst < 1e-4


def test_c03_rotor_response_matches_brute_force_sum():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    d = RBCS["d"]
    s = 1.0 / math.sqrt(2.0)
    combos = [
        (0, 0, "sigma_z", {0: 1.0 + 0j}),
        (1, 0, "sigma_x", {-1: s + 0j, 1: -s + 0j}),
        (1, 1, "sigma_y", {-1: s * 1j, 1: s * 1j}),
        (2, 1, "q+1", {1: 1.0 + 0j}),
        (60, 7, "sigma_x", {-1: s + 0j, 1: -s + 0j}),   # past the old J = 50 cap
    ]

    def e_rot(j: int) -> float:
        return b * (j * (j + 1))

    rng = np.random.default_rng(20260822)
    worst = 0.0
    checked = 0
    for J, M, polname, comps in combos:
        oracle_lines = []
        for Jp in range(max(0, J - 3), J + 4):
            host = float(wigner_3j(Jp, 1, J, 0, 0, 0))
            if host == 0.0:
                continue
            for Mp in range(-Jp, Jp + 1):
                amp = sum(
                    c * float(wigner_3j(Jp, 1, J, -Mp, q, M)) for q, c in comps.items()
                )
                w = (2 * J + 1) * (2 * Jp + 1) * abs(amp) ** 2 * host * host
                if w == 0.0:
                    continue
                oracle_lines.append((w, e_rot(Jp) - e_rot(J)))
        impl = build_line_list(ds, LevelId("X0", 0, J, M), Polarization.parse(polname), G0)
        res_set = [abs(de) for _, de in oracle_lines]

        n_freq = 0
        while n_freq < 1000:
            nu = float(rng.uniform(0.001, 0.9))
            if min(abs(nu - r) for r in res_set) < 1e-3:
                continue
            n_freq += 1
            oracle = ALPHA_HZ_PER_WCM2 * sum(
                w * d * d * de / (de * de - nu * nu) for w, de in oracle_lines
            )
            got = alpha_at(impl, nu)
            worst = max(worst, abs(got - oracle) / abs(oracle))
            checked += 1
    print(f"c03: {checked} frequency points, worst relative deviation {worst:.2e}")
    assert worst < 1e-10


def test_c04_polarization_equivalences_hold_pointwise():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")
    nus = np.arange(0.0011, 0.35, 0.0013)

    def vals(J, M, pol):
        return scan_spectrum(ds, LevelId("X0", 0, J, M), pol, nus, G0).values

    sx, sy, sz = (Polarization.parse(name) for name in ("sigma_x", "sigma_y", "sigma_z"))
    ref = vals(0, 0, sz)
    np.testing.assert_allclose(vals(0, 0, sx), ref, rtol=1e-12)
    np.testing.assert_allclose(vals(0, 0, sy), ref, rtol=1e-12)
    one_x = vals(1, 0, sx)
    np.testing.assert_allclose(vals(1, 1, sz), one_x, rtol=1e-12)
    np.testing.assert_allclose(vals(1, -1, sz), one_x, rtol=1e-12)
    np.testing.assert_allclose(vals(1, -1, sx), vals(1, 1, sx), rtol=1e-12)
    print(f"c04: {len(nus)} grid points, all equivalences within 1e-12 relative")


def _magic_root(ds):
    nus = np.arange(0.005, 0.4, 0.005)
    a = scan_spectrum(ds, LevelId("X0", 0, 0, 0), SZ, nus, G0)
    b = scan_spectrum(ds, LevelId("X0", 0, 1, 0), SZ, nus, G0)
    roots = find_magic(a, b)
    assert len(roots) == 1
    return roots[0]


def test_c05_magic_frequencies_match_algebra_and_anchors():
    # independent algebra: equalize the J=0 and J=1 responses of a rigid rotor
    #   (2/3) * 2B/((2B)^2 - nu^2) = (4/15) * 4B/((4B)^2 - nu^2)
    # and solve for nu by bisection, touching none of the library code
    def oracle_root(b: float) -> float:
        def h(nu: float) -> float:
            t1 = (2.0 / 3.0) * 2.0 * b / ((2.0 * b) ** 2 - nu * nu)
            t2 = (4.0 / 15.0) * 4.0 * b / ((4.0 * b) ** 2 - nu * nu)
            return t1 - t2

        lo, hi = 4.2 * b, 20.0 * b
        flo = h(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = h(mid)
            if (flo < 0.0) == (fm < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rbcs = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")
    krb = make_rotor(KRB["mu"], KRB["r_e"], KRB["d"], "krb_rotor")
    root_rbcs = _magic_root(rbcs)
    root_krb = _magic_root(krb)

    dev_rbcs = abs(root_rbcs.nu - oracle_root(rotor_b(RBCS["mu"], RBCS["r_e"])))
    dev_krb = abs(root_krb.nu - oracle_root(rotor_b(KRB["mu"], KRB["r_e"])))
    print(
        f"c05: roots {root_krb.nu:.6f} / {root_rbcs.nu:.6f} cm^-1, "
        f"bisection deviation {max(dev_krb, dev_rbcs):.2e}, "
        f"alpha at crossing {root_rbcs.alpha.real:.1f} Hz/(W/cm^2)"
    )
    assert dev_rbcs < 1e-6
    assert dev_krb < 1e-6
    # anchor figures: ~0.3 and ~0.1 cm^-1 within a factor of 2
    assert 0.15 <= root_krb.nu <= 0.6
    assert 0.05 <= root_rbcs.nu <= 0.2
    # anchor figure: about -3 kHz/(W/cm^2) at the crossing, within a factor of 3
    assert -9000.0 <= root_rbcs.alpha.real <= -1000.0


def test_c06_static_response_matches_anchor():
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor")
    lines = build_line_list(ds, LevelId("X0", 0, 0, 0), SZ, G0)
    static_mhz = alpha_at(lines, 0.0).real / 1.0e6
    print(f"c06: static Re alpha/h {static_mhz:.5f} MHz/(W/cm^2)")
    # anchor figure 0.05 MHz/(W/cm^2) within a factor of 2
    assert 0.025 <= static_mhz <= 0.1


def test_c07_induced_dipole_resonant_and_static():
    d = RBCS["d"]
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    de = 2.0 * b
    assert induced_dipole(d, de, de, 100.0) == 0.5 * d
    frac = induced_dipole(d, de, 0.0, 100.0) / d
    print(f"c07: resonant dipole d/2 exact, static fraction {frac:.4f} at 100 W/cm^2")
    # anchor figure: on the order of 0.05, within a factor of 2
    assert 0.025 <= frac <= 0.1


def test_c08_interaction_time_anchor_and_cubic_scaling():
    d_ind = 0.5 * RBCS["d"]
    near = dd_interaction(d_ind, 405.0)
    far = dd_interaction(d_ind, 810.0)
    print(f"c08: interaction time {near.delta_t * 1e3:.3f} ms at 405 nm spacing")
    # anchor figure: about 2 ms, within a factor of 3
    assert 2.0e-3 / 3.0 <= near.delta_t <= 6.0e-3
    assert far.delta_t == 8.0 * near.delta_t
    assert far.v_dd_over_h == near.v_dd_over_h / 8.0


def test_c09_trap_depth_arithmetic_exact():
    plan = lattice_plan(complex(-100.0, 0.0), 1.0e4, 1064.0)
    print(f"c09: V0/h {plan.v0_over_h:.1f} Hz")
    assert plan.v0_over_h == 1.0e6


def _window_dataset(hidden_d: float = 1e-4) -> tuple[MoleculeDataset, RadialGrid]:
    """Ground well plus three parallel excited wells, one line each.

    Identical well shapes keep every overlap diagonal, so each excited state
    injects exactly one strong transition (plus faint centrifugal satellites)
    at its electronic offset. The H state's dipole is far above the line
    floor yet thousands of times too weak to show on a 1 cm^-1 scan.
    """
    mu, omega, r_e = 30.0, 150.0, 8.0
    k = mu * omega**2 / (2.0 * HBAR2_OVER_TWO)
    grid = RadialGrid(6.5, 9.5, 301)
    r = grid.points
    states = [ElectronicState(lbl, 0, np.inf, "+") for lbl in "XAHC"]
    well = HarmonicModel(k, r_e).value(r)
    offsets = {"X": 0.0, "A": 9000.0, "H": 9500.0, "C": 10000.0}
    strengths = {"A": 5.0, "H": hidden_d, "C": 3.0}
    ds = MoleculeDataset(
        name="window_test",
        reduced_mass=mu,
        states=states,
        potentials={
            s.label: PotentialCurve(s, r, offsets[s.label] + well) for s in states
        },
        dipoles=[
            DipoleCurve("X", lbl, r, np.full_like(r, dv)) for lbl, dv in strengths.items()
        ],
        ground_label="X",
        default_gamma=6.0,
    )
    return ds, grid


def test_c10_windows_avoid_all_resonances_even_hidden_ones():
    ds, grid = _window_dataset()
    opts = LineListOptions(gamma="default", grid=grid)
    nus = np.arange(8700.0, 10300.5, 1.0)
    spec = scan_spectrum(ds, LevelId("X", 0, 0, 0), SZ, nus, opts)

    hidden = [r for r in spec.resonances if r.state == "H"]
    assert len(hidden) == 1
    # invisible on the 1 cm^-1 grid: no bump against the local background
    near = np.abs(spec.values.real)[(nus > 9490.0) & (nus < 9510.0)]
    assert near.max() < 2.0 * np.median(np.abs(spec.values.real))

    # decoherence quality: clean at the heart of the windows, poor on top of
    # any line (probed off the scan grid, at and beside the exact centers)
    strong = [r.nu for r in spec.resonances if r.state in ("A", "C") and r.peak > 1e4]
    for nu_res in strong:
        for probe in (nu_res, nu_res + 0.05):
            z = alpha_at(spec.lines, probe)
            assert abs(z.real) / abs(z.imag) <= 1e4
    z = alpha_at(spec.lines, hidden[0].nu)
    assert abs(z.real) / abs(z.imag) <= 1e4

    wins = find_windows(spec, min_width=10.0, flatness_cap=0.1, ratio_floor=1e6)
    assert len(wins) >= 2
    all_res = [r.nu for r in spec.resonances]
    for w in wins:
        assert w.min_ratio >= 1e6
        assert not any(w.nu_lo <= r <= w.nu_hi for r in all_res)
    print(
        f"c10: {len(spec.resonances)} resonances ({len(hidden)} hidden), "
        f"{len(wins)} windows, all disjoint from every line"
    )


def test_c11_cli_outputs_are_byte_identical_on_rerun(tmp_path, capsys):
    rotor_dir = tmp_path / "rotor"
    write_dataset(make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor"), rotor_dir)
    optical_dir = tmp_path / "optical"
    write_dataset(make_optical(), optical_dir)

    commands = [
        ["levels", optical_dir, "--max-levels", "6"],
        ["fcf", optical_dir, "--final-state", "E", "--max-v", "3"],
        ["alpha", optical_dir, "--nu", "8500:9600:1", "--plot"],
        ["magic", rotor_dir, "--nu", "0.005:0.3:0.005", "--gamma", "0.0", "--plot"],
        ["dress", rotor_dir, "--nu", "0.0327", "--intensity", "100"],
        ["plan", rotor_dir, "--nm", "1064", "--intensity", "1e4"],
        ["windows", optical_dir, "--nu", "8550:9550:0.5", "--min-width", "5",
         "--flatness-cap", "0.5", "--ratio-floor", "1e4", "--plot"],
    ]
    reports = []
    for _ in range(2):
        assert cli_main(["validate", str(rotor_dir)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]

    compared = 0
    for argv in commands:
        snapshots = []
        for run in ("first", "second"):
            out = tmp_path / f"{argv[0]}_{run}"
            code = cli_main([str(a) for a in argv] + ["--out", str(out)])
            assert code == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            files = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
            }
            snapshots.append((stdout, files))
        first, second = snapshots
        assert first[0] == second[0]
        assert first[1].keys() == second[1].keys()
        for name in first[1]:
            assert first[1][name] == second[1][name], f"{argv[0]}: {name} differs"
            compared += 1
    print(
        f"c11: {len(commands) + 1} commands rerun, {compared} output files byte-identical"
    )
