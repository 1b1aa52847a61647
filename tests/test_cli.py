import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from molpol import load_dataset, polarizability, write_dataset
from molpol import cli, control, rovib
from molpol import dataset as dataset_module
from molpol.coupling import franck_condon, vibronic_dipole
from molpol.cli import MAX_SCAN_POINTS, _fmt, _parse_radial_grid, _parse_range, _write_csv, _write_plot, main
from molpol.dataset import DipoleCurve, PotentialCurve
from molpol.errors import DataError
from molpol.rovib import MAX_GRID_POINTS

from conftest import RBCS, blas_thread_calls, make_optical, make_rotor, rotor_b, shifted_contract, shifted_solve

OPTICAL_STANDIN = Path(__file__).resolve().parents[1] / "datasets" / "rbcs_optical_standin"
KRB_ROTOR_STANDIN = OPTICAL_STANDIN.parent / "krb_rotor_standin"


def run_cli(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def rotor_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "rotor"
    write_dataset(make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rbcs_rotor"), path)
    return path


@pytest.fixture(scope="module")
def optical_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "optical"
    write_dataset(make_optical(), path)
    return path


@pytest.fixture
def optical_standin_dir():
    return OPTICAL_STANDIN


@pytest.fixture
def krb_rotor_standin_dir():
    return KRB_ROTOR_STANDIN


def read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------- validation


def test_validate_reports_dataset(rotor_dir, capsys):
    assert run_cli(["validate", rotor_dir]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "rbcs_rotor"
    assert report["ground"] == "X0"
    assert report["rotor"]["r_e_bohr"] == pytest.approx(RBCS["r_e"])
    assert report["dipole_curves"] == ["X0->X0"]


def test_validate_reports_optical_dataset(optical_dir, capsys):
    # interior wells: has_interior_minimum must serialize as a JSON boolean
    assert run_cli(["validate", optical_dir]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["has_interior_minimum"] for s in report["states"]] == [True, True, True]


def test_missing_dataset_is_data_error(tmp_path, capsys):
    assert run_cli(["validate", tmp_path / "nope"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data:")
    assert err.count("\n") == 1


def test_no_dataset_anywhere(monkeypatch, capsys):
    monkeypatch.delenv("MOLPOL_DATASET", raising=False)
    assert run_cli(["validate"]) == 3
    assert "MOLPOL_DATASET" in capsys.readouterr().err


def test_dataset_from_environment(rotor_dir, monkeypatch, capsys):
    monkeypatch.setenv("MOLPOL_DATASET", str(rotor_dir))
    assert run_cli(["validate"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "rbcs_rotor"


def test_usage_errors_exit_2(rotor_dir):
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["alpha", rotor_dir]) == 2              # --nu is required
    assert run_cli(["alpha", rotor_dir, "--nu", "0:10:1", "--pol", "left"]) == 2


# -------------------------------------------------------------------- levels


def test_levels_writes_csv(optical_dir, tmp_path, capsys):
    assert run_cli(["levels", optical_dir, "--out", tmp_path]) == 0
    lines = read_lines(tmp_path / "levels.csv")
    assert lines[0] == "state,v,J,E_cm1"
    assert len(lines) > 10
    first = lines[1].split(",")
    assert first[0] == "X" and first[1] == "0" and first[2] == "0"
    energies = [float(l.split(",")[3]) for l in lines[1:]]
    assert energies == sorted(energies)


def test_levels_check_flags_coarse_grid(optical_dir, tmp_path, capsys):
    code = run_cli(
        ["levels", optical_dir, "--grid", "5:18:16", "--max-levels", "3",
         "--check", "--out", tmp_path]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("molpol: numerical:")
    assert "refine" in err


def test_levels_check_passes_fine_grid(optical_dir, tmp_path, capsys):
    code = run_cli(
        ["levels", optical_dir, "--max-levels", "5", "--check", "--out", tmp_path]
    )
    assert code == 0


def test_levels_check_flags_a_bad_trim(optical_standin_dir, tmp_path, capsys, monkeypatch):
    # trimmed solves off by 0.01 cm^-1: only the untrimmed re-solve sees it
    # (the check's base is the stored block cmd_levels wrote levels.csv from)
    monkeypatch.setattr(rovib, "solve_radial", shifted_solve(0.01))
    argv = ["levels", optical_standin_dir, "--grid", "5:20:401", "--check", "--out", tmp_path]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("molpol: numerical:") and err.count("\n") == 1
    assert "refine" in err and "extend" in err and "trim" in err


def test_levels_check_flags_a_bad_contraction(optical_standin_dir, tmp_path, capsys, monkeypatch):
    # contracted levels off by 0.01 cm^-1: only the direct re-solve sees it
    monkeypatch.setattr(rovib, "_contract", shifted_contract(0.01))
    argv = ["levels", optical_standin_dir, "--J", "1", "--grid", "5:20:401", "--check", "--out", tmp_path]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("molpol: numerical:") and err.count("\n") == 1
    assert "contract 0.01" in err


def test_levels_check_reuses_the_solved_block(tmp_path, monkeypatch):
    calls = []
    solve = rovib._solve

    def counting(ds, state, J, grid, max_levels, trim):
        calls.append((grid.n, trim))
        return solve(ds, state, J, grid, max_levels, trim)

    monkeypatch.setattr(rovib, "_solve", counting)
    assert run_cli(["levels", OPTICAL_STANDIN, "--out", tmp_path / "plain"]) == 0
    assert run_cli(["levels", OPTICAL_STANDIN, "--check", "--out", tmp_path / "check"]) == 0
    # the plain run's solve, whose basis the held dataset keeps, so the
    # check's base solves nothing; then its 2n, extended and untrimmed re-solves
    assert calls == [(801, True), (1602, True), (1201, True), (801, False)]
    plain, check = (tmp_path / d / "levels.csv" for d in ("plain", "check"))
    assert check.read_bytes() == plain.read_bytes()


def test_levels_and_fcf_read_the_block_store(tmp_path, monkeypatch):
    assert run_cli(["levels", OPTICAL_STANDIN, "--J", "1", "--out", tmp_path / "levels"]) == 0
    assert run_cli(["fcf", OPTICAL_STANDIN, "--final-state", "A0", "--out", tmp_path / "fcf"]) == 0
    held = load_dataset(OPTICAL_STANDIN)
    grid = polarizability.default_grid(held)
    blocks = rovib._store(held).blocks
    assert {("X0", 1, grid, 64), ("X0", 0, grid, 11), ("A0", 1, grid, 11)} <= blocks.keys()
    built = []
    levels = rovib._levels

    def counting(state, J, grid, *solved):
        built.append(grid.n)
        return levels(state, J, grid, *solved)

    monkeypatch.setattr(rovib, "_levels", counting)
    assert run_cli(["levels", OPTICAL_STANDIN, "--J", "1", "--check", "--out", tmp_path / "check"]) == 0
    # the base is the stored block: levels only for the 2n, extended, direct
    # trimmed and untrimmed re-solves
    assert built == [1602, 1201, 801, 801]
    dataset_module._LOADED.clear()
    built.clear()
    assert run_cli(["levels", OPTICAL_STANDIN, "--J", "1", "--check", "--out", tmp_path / "fresh"]) == 0
    assert built == [801, 1602, 1201, 801, 801]
    for name in ("check", "fresh"):
        assert (tmp_path / name / "levels.csv").read_bytes() == (tmp_path / "levels" / "levels.csv").read_bytes()


def test_an_empty_block_is_reported_once(tmp_path):
    # rovib returns an empty block without a word and its caller reports it.
    # Run as a process: a logged warning reaches stderr through logging's
    # last-resort handler there, but pytest's own log handler takes it in process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def molpol(*argv):
        args = [sys.executable, "-m", "molpol.cli", *map(str, argv), "--out", str(tmp_path)]
        return subprocess.run(args, capture_output=True, text=True, env=env)

    alpha = molpol("alpha", OPTICAL_STANDIN, "--grid", "50:60:101", "--nu", "9000:9005:1")
    assert alpha.returncode == 3
    assert alpha.stderr.startswith("molpol: data:") and alpha.stderr.count("\n") == 1
    levels = molpol("levels", OPTICAL_STANDIN, "--J", "100000")
    assert levels.returncode == 0 and levels.stderr == ""
    assert levels.stdout.startswith("0 bound levels for X0 J=100000")


def test_levels_check_of_an_empty_block_passes(tmp_path, capsys):
    # no level on any of the check's grids: nothing to compare, so nothing moved
    argv = ["levels", OPTICAL_STANDIN, "--J", "100000", "--grid", "5:20:201", "--check", "--out", tmp_path]
    assert run_cli(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("0 bound levels for X0 J=100000")
    assert read_lines(tmp_path / "levels.csv") == ["state,v,J,E_cm1"]


def test_levels_check_leaves_no_probe_grid_in_the_store(tmp_path):
    # the check's 1602- and 1201-point solves make X0 bases and curve samples
    # that nothing reuses; they go to a copy of the dataset, not the held one
    held = load_dataset(OPTICAL_STANDIN)
    rovib.solved_block(held, "X0", 1, polarizability.default_grid(held), 64)
    blocks = dict(rovib._store(held).blocks)
    assert run_cli(["levels", OPTICAL_STANDIN, "--J", "1", "--check", "--out", tmp_path]) == 0
    assert load_dataset(OPTICAL_STANDIN) is held
    store = rovib._store(held)
    assert store.bases and store.samples
    assert {grid.n for _, grid, _ in store.bases} == {801}
    assert {grid.n for _, grid in store.samples} == {801}
    assert store.blocks.keys() == blocks.keys()
    assert all(store.blocks[key] is block for key, block in blocks.items())


@pytest.mark.parametrize("J", ["0", "2"])
@pytest.mark.parametrize("name", ["krb_rotor_standin", "rbcs_rotor_standin"])
def test_rotor_levels_check_passes_and_writes_the_plain_table(name, J, tmp_path, capsys):
    # a rotor block is one node; its check re-solves it on the probe grids and untrimmed
    ds_dir = OPTICAL_STANDIN.parent / name
    assert run_cli(["levels", ds_dir, "--J", J, "--out", tmp_path / "plain"]) == 0
    assert run_cli(["levels", ds_dir, "--J", J, "--check", "--out", tmp_path / "check"]) == 0
    assert capsys.readouterr().err == ""
    plain, check = (tmp_path / d / "levels.csv" for d in ("plain", "check"))
    assert len(read_lines(plain)) == 2
    assert check.read_bytes() == plain.read_bytes()


def test_bad_grid_argument(optical_dir, tmp_path, capsys):
    assert run_cli(["levels", optical_dir, "--grid", "9:5:100", "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("molpol: data:")


# ----------------------------------------------------------------------- fcf


def test_fcf_table(optical_dir, tmp_path, capsys):
    code = run_cli(
        ["fcf", optical_dir, "--final-state", "E", "--max-v", "4", "--out", tmp_path]
    )
    assert code == 0
    lines = read_lines(tmp_path / "fcf.csv")
    assert lines[0] == "v,J,vp,Jp,FCF,d_vib"
    assert len(lines) == 1 + 25
    for row in lines[1:]:
        fcf = float(row.split(",")[4])
        assert 0.0 <= fcf <= 1.0 + 1e-9


def _fcf_per_pair(ds_dir, final, J, Jp, max_v=10):
    """fcf.csv's columns built pair by pair: one franck_condon and one
    vibronic_dipole per (v, v'), each dipole sampled again."""
    ds = load_dataset(ds_dir)
    grid = polarizability.default_grid(ds)
    lev_i = rovib.solved_block(ds, ds.ground_label, J, grid, max_v + 1).levels
    lev_f = rovib.solved_block(ds, final, Jp, grid, max_v + 1).levels
    dip = ds.dipole_between(ds.ground_label, final)
    rows = [
        (li.v, li.J, lf.v, lf.J, franck_condon(li, lf), vibronic_dipole(li, lf, dip) if dip is not None else math.nan)
        for li in lev_i
        for lf in lev_f
    ]
    return list(zip(*rows))


@pytest.mark.parametrize(
    "ds_dir, final, J, Jp, same_bytes",
    [
        (OPTICAL_STANDIN, "A0", 0, 1, True),
        (OPTICAL_STANDIN, "B1", 1, 1, True),
        # FCFs and dipoles near zero: rounding noise, so their %.12g strings move
        (OPTICAL_STANDIN, "X0", 0, 1, False),
        (KRB_ROTOR_STANDIN, "X0", 0, 1, False),
    ],
    ids=["X0-A0", "X0-B1", "X0-X0", "krb-rotor"],
)
def test_fcf_block_products_match_the_per_pair_reference(ds_dir, final, J, Jp, same_bytes, tmp_path, monkeypatch):
    written = []
    write = cli._write_csv

    def capturing(path, header, columns):
        written.append(list(columns))
        write(path, header, written[-1])

    monkeypatch.setattr(cli, "_write_csv", capturing)
    argv = ["fcf", ds_dir, "--final-state", final, "--J", J, "--Jp", Jp, "--out", tmp_path / "got"]
    assert run_cli(argv) == 0
    got, want = written[0], _fcf_per_pair(ds_dir, final, J, Jp)
    assert len(got) == 6 and len(got[0]) == len(want[0]) > 0
    assert got[:4] == want[:4]
    for column in (4, 5):
        assert np.abs(np.subtract(got[column], want[column])).max() <= 1e-15
    if same_bytes:
        write(tmp_path / "want.csv", ["v", "J", "vp", "Jp", "FCF", "d_vib"], want)
        assert (tmp_path / "got" / "fcf.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("empty", [["--grid", "50:60:101"], ["--Jp", "100000"]], ids=["both", "upper"])
def test_fcf_of_an_empty_block_writes_the_header(empty, tmp_path, capsys):
    assert run_cli(["fcf", OPTICAL_STANDIN, "--final-state", "A0", *empty, "--out", tmp_path]) == 0
    assert read_lines(tmp_path / "fcf.csv") == ["v,J,vp,Jp,FCF,d_vib"]
    assert capsys.readouterr().err == ""


def test_fcf_negative_max_v_names_the_flag(optical_dir, tmp_path, capsys):
    code = run_cli(["fcf", optical_dir, "--final-state", "E", "--max-v", "-1", "--out", tmp_path])
    assert code == 3
    assert capsys.readouterr().err == "molpol: data: --max-v must be at least 0, got -1\n"


# --------------------------------------------------------------------- alpha


def test_alpha_grid_count_and_headers(rotor_dir, tmp_path, capsys):
    code = run_cli(["alpha", rotor_dir, "--nu", "0:17000:1", "--out", tmp_path])
    assert code == 0
    lines = read_lines(tmp_path / "alpha.csv")
    assert lines[0] == "nu_cm1,re_alpha_Hz_per_Wcm2,im_alpha_Hz_per_Wcm2"
    assert len(lines) == 1 + 17001
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "17000"
    res = read_lines(tmp_path / "resonances.csv")
    assert res[0] == "nu_res,state,v,J,peak"
    # the rotational line sits far below the 1 cm^-1 grid spacing yet is listed
    assert len(res) == 2
    assert float(res[1].split(",")[0]) == pytest.approx(
        2.0 * rotor_b(RBCS["mu"], RBCS["r_e"]), rel=1e-9
    )
    report = json.loads((tmp_path / "alpha_report.json").read_text())
    assert report["points"] == 17001
    assert report["resonances_in_range"] == 1


def test_alpha_deterministic_across_jobs(optical_dir, tmp_path, capsys):
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        code = run_cli(["alpha", optical_dir, "--nu", "8500:9600:0.9", "--out", out])
        assert code == 0
        outs.append(out)
    ref_alpha = (outs[0] / "alpha.csv").read_bytes()
    ref_res = (outs[0] / "resonances.csv").read_bytes()
    ref_rep = (outs[0] / "alpha_report.json").read_bytes()
    for out in outs[1:]:
        assert (out / "alpha.csv").read_bytes() == ref_alpha
        assert (out / "resonances.csv").read_bytes() == ref_res
        assert (out / "alpha_report.json").read_bytes() == ref_rep


def test_alpha_nm_range(optical_dir, tmp_path, capsys):
    code = run_cli(["alpha", optical_dir, "--nu", "500:1000:250", "--nm", "--out", tmp_path])
    assert code == 0
    rows = read_lines(tmp_path / "alpha.csv")[1:]
    nus = [float(r.split(",")[0]) for r in rows]
    assert nus == sorted(nus)
    assert nus[0] == pytest.approx(1.0e7 / 1000.0)
    assert nus[-1] == pytest.approx(1.0e7 / 500.0)
    assert len(nus) == 3


def test_alpha_plot_output(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["alpha", rotor_dir, "--nu", "0:1:0.1", "--plot", "--out", tmp_path]
    )
    assert code == 0
    dat = read_lines(tmp_path / "alpha_plot.dat")
    assert dat[0].startswith("# ")
    assert "cm^-1" in dat[0]
    assert len(dat) == 1 + 11


def test_bad_range_is_data_error(rotor_dir, tmp_path, capsys):
    assert run_cli(["alpha", rotor_dir, "--nu", "10:0:1", "--out", tmp_path]) == 3
    assert run_cli(["alpha", rotor_dir, "--nu", "0..10", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data:")


def test_dataset_not_mutated(rotor_dir, tmp_path):
    before = {p.name: p.read_bytes() for p in sorted(rotor_dir.iterdir())}
    assert run_cli(["alpha", rotor_dir, "--nu", "0:10:1", "--out", tmp_path]) == 0
    after = {p.name: p.read_bytes() for p in sorted(rotor_dir.iterdir())}
    assert before == after


# --------------------------------------------------------------------- magic


def test_magic_finds_rotor_crossing(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["magic", rotor_dir, "--nu", "0.005:0.3:0.005", "--gamma", "0.0",
         "--plot", "--out", tmp_path]
    )
    assert code == 0
    report = json.loads((tmp_path / "magic.json").read_text())
    assert len(report["roots"]) == 1
    b = rotor_b(RBCS["mu"], RBCS["r_e"])
    assert report["roots"][0]["nu_cm1"] == pytest.approx(8.0 * b, rel=1e-6)
    assert report["roots"][0]["alpha_hz_per_wcm2"]["re"] < 0.0
    assert report["level_a"]["J"] == 0 and report["level_b"]["J"] == 1
    for name in ("magic_a.dat", "magic_b.dat", "magic_roots.dat"):
        assert read_lines(tmp_path / name)[0].startswith("# ")


def test_magic_identical_levels_exit_4(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["magic", rotor_dir, "--Jb", "0", "--nu", "0.005:0.3:0.005", "--out", tmp_path]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("molpol: numerical:")
    assert err.count("\n") == 1


# --------------------------------------------------------------- dress, plan


def test_dress_reports_saturation(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["dress", rotor_dir, "--nu", "0.0327", "--intensity", "100", "--out", tmp_path]
    )
    assert code == 0
    plan = json.loads((tmp_path / "dress.json").read_text())
    assert plan["d_permanent_debye"] == pytest.approx(RBCS["d"], rel=1e-6)
    assert 0.0 < plan["d_induced_debye"] <= 0.5 * plan["d_permanent_debye"] + 1e-12
    assert 0.0 < plan["saturation"] <= 1.0
    assert plan["detuning_cm1"] == pytest.approx(plan["nu_cm1"] - plan["delta_e_cm1"], abs=1e-9)


def test_dress_needs_a_frequency(rotor_dir, tmp_path, capsys):
    assert run_cli(["dress", rotor_dir, "--intensity", "100", "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("molpol: data:")


def test_plan_reports_trap_and_interaction(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["plan", rotor_dir, "--nm", "1064", "--intensity", "1e4", "--out", tmp_path]
    )
    assert code == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["site_spacing_nm"] == 532.0
    assert plan["wavelength_nm"] == 1064.0
    assert plan["v0_over_h_hz"] > 0.0
    assert plan["interaction"]["d_induced_debye"] == pytest.approx(RBCS["d"] / 2.0, rel=1e-6)
    assert plan["interaction"]["v_dd_over_h_hz"] > 0.0
    assert plan["interaction"]["delta_t_s"] == pytest.approx(
        1.0 / plan["interaction"]["v_dd_over_h_hz"], rel=1e-9
    )


def test_plan_explicit_induced_dipole(rotor_dir, tmp_path, capsys):
    code = run_cli(
        ["plan", rotor_dir, "--nm", "532", "--intensity", "1e4", "--d-ind", "0",
         "--out", tmp_path]
    )
    assert code == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["interaction"]["d_induced_debye"] == 0.0
    assert plan["interaction"]["delta_t_s"] == "inf"


def test_plan_reads_nm_before_nu_as_dress_does(rotor_dir, tmp_path, capsys):
    argv = ["plan", rotor_dir, "--nm", "1064", "--intensity", "1e4"]
    assert run_cli([*argv, "--out", tmp_path / "nm"]) == 0
    assert run_cli([*argv, "--nu", "5", "--out", tmp_path / "both"]) == 0
    assert (tmp_path / "both" / "plan.json").read_bytes() == (tmp_path / "nm" / "plan.json").read_bytes()
    assert capsys.readouterr().err == ""


def test_plan_rejects_zero_frequency(rotor_dir, tmp_path, capsys):
    assert run_cli(["plan", rotor_dir, "--nu", "0", "--intensity", "1", "--out", tmp_path]) == 3
    assert capsys.readouterr().err.startswith("molpol: data:")


# ------------------------------------------------------------------- windows


def test_windows_outputs(optical_dir, tmp_path, capsys):
    code = run_cli(
        ["windows", optical_dir, "--nu", "8550:9550:0.5", "--min-width", "5",
         "--flatness-cap", "0.5", "--ratio-floor", "1e4", "--plot", "--out", tmp_path]
    )
    assert code == 0
    lines = read_lines(tmp_path / "windows.csv")
    assert lines[0] == "nu_lo_cm1,nu_hi_cm1,lambda_lo_nm,lambda_hi_nm,min_ratio,max_flatness"
    assert len(lines) > 1
    report = json.loads((tmp_path / "windows.json").read_text())
    assert len(report["windows"]) == len(lines) - 1
    for w in report["windows"]:
        assert w["nu_hi_cm1"] - w["nu_lo_cm1"] >= 5.0
        assert w["min_ratio"] >= 1e4
        assert w["lambda_lo_nm"] == pytest.approx(1.0e7 / w["nu_hi_cm1"], rel=1e-9)
    assert read_lines(tmp_path / "windows_plot.dat")[0].startswith("# ")


def test_windows_empty_is_header_only(optical_dir, tmp_path, capsys):
    code = run_cli(
        ["windows", optical_dir, "--nu", "8550:9550:0.5", "--min-width", "5",
         "--flatness-cap", "0.5", "--ratio-floor", "1e30", "--out", tmp_path]
    )
    assert code == 0
    lines = read_lines(tmp_path / "windows.csv")
    assert lines == ["nu_lo_cm1,nu_hi_cm1,lambda_lo_nm,lambda_hi_nm,min_ratio,max_flatness"]
    report = json.loads((tmp_path / "windows.json").read_text())
    assert report["windows"] == []
    assert "0 windows" in capsys.readouterr().out


# ------------------------------------------------------------ input contract


@pytest.fixture(scope="module")
def negative_gamma_dir(tmp_path_factory, optical_dir):
    path = tmp_path_factory.mktemp("ds") / "negative_gamma"
    shutil.copytree(optical_dir, path)
    meta = json.loads((path / "molecule.json").read_text())
    meta["default_gamma"] = -3.0
    (path / "molecule.json").write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize(
    "dataset, argv",
    [
        ("optical_dir", ["levels", "--J", "-1"]),
        ("rotor_dir", ["alpha", "--J", str(10**400), "--nu", "0.1:0.2:0.1"]),
        ("rotor_dir", ["alpha", "--v", "-1", "--nu", "0.1:0.2:0.1"]),
        ("rotor_dir", ["alpha", "--nu", "nan:1:0.1"]),
        ("rotor_dir", ["alpha", "--nu", "0.1:0.2:0.1", "--gamma", "-3"]),
        ("negative_gamma_dir", ["alpha", "--nu", "9000:9001:1"]),
        ("optical_dir", ["levels", "--max-levels", "0"]),
        ("optical_dir", ["levels", "--max-levels", "-3"]),
        ("optical_dir", ["alpha", "--nm", "--nu", "0:1000:500"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--v-max", "-1"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--v-max", "-2"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--j-max-branch", "-1"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--J", "3", "--j-max-branch", "1"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9002:1", "--j-max-branch", "0"]),
        ("rotor_dir", ["alpha", "--nu", "0:1e308:1e-300"]),
        ("optical_standin_dir", ["levels", "--grid", "5:inf:801"]),
        ("optical_standin_dir", ["levels", "--grid", "5:1e300:801"]),
        ("optical_standin_dir", ["levels", "--grid", "nan:20:801"]),
        ("optical_standin_dir", ["levels", "--grid", "1e-300:20:801"]),
        ("optical_standin_dir", ["levels", "--grid", f"5:20:{MAX_GRID_POINTS + 1}"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--grid", "5:inf:801"]),
        ("optical_standin_dir", ["alpha", "--nu", "9000:9001:1", "--grid", "5:1e300:801"]),
        # plan/dress frequencies, intensity and induced dipole
        ("rotor_dir", ["plan", "--nu", "-5", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nu", "inf", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nu", "0", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nm", "nan", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nm", "1e-310", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nm", "1064", "--intensity", "-1"]),
        ("rotor_dir", ["plan", "--nm", "1064", "--intensity", "1e4", "--d-ind", "nan"]),
        ("rotor_dir", ["plan", "--nm", "1064", "--intensity", "1e4", "--d-ind=-inf"]),
        ("rotor_dir", ["dress", "--nu", "0.1", "--intensity", "-1"]),
        ("rotor_dir", ["dress", "--nu", "nan", "--intensity", "1"]),
        ("rotor_dir", ["dress", "--nu", "0.1", "--intensity", "nan"]),
        ("rotor_dir", ["dress", "--nu", "0.1", "--intensity", "inf"]),
        ("rotor_dir", ["dress", "--nm", "-5", "--intensity", "1"]),
        ("rotor_dir", ["dress", "--nm", "0", "--nu", "0.1", "--intensity", "1"]),
        ("rotor_dir", ["dress", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--nm", "0", "--nu", "0.1", "--intensity", "1"]),
        ("rotor_dir", ["plan", "--intensity", "1"]),
        # NaN or negative criteria
        ("rotor_dir", ["windows", "--nu", "0.1:0.2:0.01", "--min-width", "nan"]),
        ("rotor_dir", ["windows", "--nu", "0.1:0.2:0.01", "--min-width", "-1"]),
        ("rotor_dir", ["windows", "--nu", "0.1:0.2:0.01", "--flatness-cap", "nan"]),
        ("rotor_dir", ["windows", "--nu", "0.1:0.2:0.01", "--ratio-floor", "nan"]),
        ("rotor_dir", ["magic", "--nu", "0.01:0.2:0.01", "--tol", "nan"]),
        ("rotor_dir", ["magic", "--nu", "0.01:0.2:0.01", "--tol", "-1"]),
        ("rotor_dir", ["alpha", "--nu", "0.1:0.2:0.01", "--d-floor", "nan"]),
        ("rotor_dir", ["alpha", "--nu", "0.1:0.2:0.01", "--d-floor=-1e-8"]),
        # a step below the float resolution repeats points
        ("rotor_dir", ["alpha", "--nu", "1000:1000.00000000001:1e-13"]),
        ("rotor_dir", ["alpha", "--nu", "1000:1000.00000000001:1e-13", "--nm"]),
        # extreme but finite: R^3 underflows or overflows, d^2 overflows
        ("krb_rotor_standin_dir", ["plan", "--nm", "1e-100", "--intensity", "1"]),
        ("krb_rotor_standin_dir", ["plan", "--nu", "1e-300", "--intensity", "1"]),
        ("krb_rotor_standin_dir", ["plan", "--nm", "1064", "--intensity", "1", "--d-ind", "1e200"]),
        # J(J+1) past 2^53: levels, fcf and alpha raised an OverflowError, a rotor level came out inf
        ("rotor_dir", ["alpha", "--J", "94906266", "--nu", "0.1:0.2:0.1"]),
        ("optical_standin_dir", ["levels", "--J", str(10**400)]),
        ("optical_standin_dir", ["fcf", "--final-state", "A0", "--Jp", str(10**400)]),
        ("optical_standin_dir", ["alpha", "--J", str(10**400), "--nu", "9000:9001:1"]),
        ("krb_rotor_standin_dir", ["levels", "--J", str(10**200)]),
        ("krb_rotor_standin_dir", ["alpha", "--J", str(10**150), "--nu", "0.1:0.2:0.1"]),
    ],
)
def test_bad_quantum_numbers_ranges_and_linewidths_are_data_errors(request, dataset, argv, tmp_path, capsys):
    path = request.getfixturevalue(dataset)
    assert run_cli([argv[0], path, *argv[1:], "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "out, blocked",
    [
        ("file", "file"),
        ("file/sub", "file"),
        ("dir", "dir/levels.csv"),
    ],
)
def test_an_out_path_that_cannot_be_written_is_a_data_error(out, blocked, tmp_path, capsys):
    # an existing file as --out or on its way, or a directory where a table goes
    if blocked.startswith("file"):
        (tmp_path / blocked).write_text("")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    assert run_cli(["levels", KRB_ROTOR_STANDIN, "--out", tmp_path / out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data:") and err.count("\n") == 1
    assert str(tmp_path / out) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["levels", OPTICAL_STANDIN, "--check"],
        ["fcf", OPTICAL_STANDIN, "--final-state", "A0"],
        ["alpha", OPTICAL_STANDIN, "--nu", "9000:9010:1"],
        ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "8800:9600:1"],
        ["windows", OPTICAL_STANDIN, "--nu", "9000:9010:1"],
        ["plan", KRB_ROTOR_STANDIN, "--nm", "1064", "--intensity", "1e4"],
        ["dress", KRB_ROTOR_STANDIN, "--nu", "0.0337", "--intensity", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_unusable_out_fails_before_any_computation(argv, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for name in ("solved_block", "scan_spectrum", "build_line_list", "microwave_plan"):
        monkeypatch.setattr(f"molpol.cli.{name}", refuse)
    (tmp_path / "file").write_text("")
    assert run_cli([*argv, "--out", tmp_path / "file"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data: --out ") and err.count("\n") == 1
    # with a usable --out the request reaches one of the refused entry points
    with pytest.raises(AssertionError, match="computed before"):
        run_cli([*argv, "--out", tmp_path / "dir"])


def test_a_request_that_fails_leaves_no_new_out_directory(tmp_path, capsys):
    # --out is checked before any solve but made only at the first file
    argv = ["alpha", OPTICAL_STANDIN, "--v", "500", "--nu", "9000:9005:1"]
    assert run_cli([*argv, "--out", tmp_path / "new" / "a" / "b"]) == 3
    assert capsys.readouterr().err.startswith("molpol: data: initial level")
    assert list(tmp_path.iterdir()) == []
    assert run_cli(["levels", KRB_ROTOR_STANDIN, "--out", tmp_path / "new" / "a" / "b"]) == 0
    assert (tmp_path / "new" / "a" / "b" / "levels.csv").is_file()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["alpha", "--nu", "1e160:1.0001e160:1e156"], 0),
        (["magic", "--nu", "1e200:1.0001e200:1e196"], 4),
    ],
)
def test_scan_frequencies_whose_squares_overflow_warn_nothing(krb_rotor_standin_dir, argv, code, tmp_path, capsys):
    # nu^2 overflows to inf in the alpha kernel, the alpha -> 0 limit: no
    # RuntimeWarning, and at most the one `molpol: <class>:` line on stderr
    assert run_cli([argv[0], krb_rotor_standin_dir, *argv[1:], "--out", tmp_path]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        rows = read_lines(tmp_path / "alpha.csv")[1:]
        assert len(rows) == 2 and all(row.split(",")[1:] == ["0", "0"] for row in rows)
    else:
        assert err.startswith("molpol: numerical:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, reply",
    [
        (["windows", "--nu", "0.1:0.2:0.01", "--min-width", "inf", "--flatness-cap", "inf"], "0 windows"),
        (["windows", "--nu", "0.1:0.2:0.01", "--min-width", "0", "--ratio-floor", "inf"], "0 windows"),
        (["magic", "--nu", "0.005:0.3:0.005", "--gamma", "0", "--tol", "inf"], "1 magic crossings"),
        (["alpha", "--nu", "0.1:0.2:0.01", "--d-floor", "inf"], "0 resonances"),
    ],
)
def test_infinite_criteria_are_accepted(rotor_dir, argv, reply, tmp_path, capsys):
    assert run_cli([argv[0], rotor_dir, *argv[1:], "--out", tmp_path]) == 0
    assert reply in capsys.readouterr().out


@pytest.mark.parametrize(
    "dataset, path, value",
    [
        ("optical_dir", ("states", 1, "omega"), 0.5),
        ("optical_dir", ("states", 1, "asymptote_energy"), "abc"),
        ("optical_dir", ("states", 1, "asymptote_energy"), math.nan),
        ("rotor_dir", ("rotor", "r_e"), -RBCS["r_e"]),
        # JSON of the wrong shape: each of these raised a TypeError
        ("rotor_dir", (), ["name", "reduced_mass", "ground_label", "states"]),
        ("rotor_dir", ("states",), 0),
        ("rotor_dir", ("states", 0), ["label", "omega"]),
        ("rotor_dir", ("rotor",), RBCS["r_e"]),
        # these loaded: a bad parity_tag silently dropped every line to the
        # state, and a boolean omega read as 1
        ("optical_dir", ("states", 1, "parity_tag"), "plus"),
        ("optical_dir", ("states", 1, "parity_tag"), 5),
        ("optical_dir", ("states", 1, "parity_tag"), True),
        ("optical_dir", ("states", 1, "omega"), True),
        # these loaded too: a string float() parses read as a number
        ("optical_dir", ("states", 1, "omega"), "1"),
        ("rotor_dir", ("reduced_mass",), "27.3757"),
        ("rotor_dir", ("rotor", "r_e"), "8.0"),
        # an integer beyond the float range raised an OverflowError
        pytest.param("rotor_dir", ("reduced_mass",), 10**400, id="rotor_dir-reduced_mass-1e400-int"),
    ],
)
def test_bad_molecule_json_fields_are_data_errors(request, dataset, path, value, tmp_path, capsys):
    ds_dir = tmp_path / "ds"
    shutil.copytree(request.getfixturevalue(dataset), ds_dir)
    meta = json.loads((ds_dir / "molecule.json").read_text())
    if path:
        entry = meta
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
    else:
        meta = value
    (ds_dir / "molecule.json").write_text(json.dumps(meta))
    for argv in (["validate", ds_dir], ["levels", ds_dir, "--out", tmp_path / "out"]):
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"molpol: data: {ds_dir / 'molecule.json'}: ")
        assert err.count("\n") == 1


# ------------------------------------------------------------- level reuse


@pytest.fixture
def solves(monkeypatch):
    """What the CLI solves, in call order: `blocks`, the (state, J, grid,
    max_levels) key of every block the store solves; `direct`, the (state, J)
    of every direct solve; `dense`, one entry per dense span eigensolve."""
    seen = SimpleNamespace(blocks=[], direct=[], dense=[])
    solve_radial, solve, eigensolve = rovib.solve_radial, rovib._solve, rovib._eigensolve

    def counting_block(ds, state, J, grid, max_levels):
        seen.blocks.append((state, J, grid, max_levels))
        return solve_radial(ds, state, J, grid, max_levels)

    def counting_direct(ds, state, J, grid, max_levels, trim):
        seen.direct.append((state, J))
        return solve(ds, state, J, grid, max_levels, trim)

    def counting_dense(row, v_eff, grid, max_levels, cutoff, span, e_top=math.inf):
        seen.dense.append(span)
        return eigensolve(row, v_eff, grid, max_levels, cutoff, span, e_top)

    monkeypatch.setattr(rovib, "solve_radial", counting_block)
    monkeypatch.setattr(rovib, "_solve", counting_direct)
    monkeypatch.setattr(rovib, "_eigensolve", counting_dense)
    return seen


# each state is solved directly once, at J = omega, and every other block of
# it contracts in that solve's basis: a fallback would add a direct solve
DIRECT = [("A0", 0), ("B1", 1), ("X0", 0)]
GRID_301 = ["--grid", "5:20:301"]


@pytest.mark.parametrize(
    "argv, blocks, dense",
    [
        (["alpha", "--nu", "9000:9010:1", *GRID_301], 5, 5),
        (["magic", "--Ja", "0", "--Jb", "1", "--nu", "9000:9010:1", *GRID_301], 9, 5),
        (["magic", "--Ja", "0", "--Ma", "0", "--Jb", "1", "--Mb", "0", "--nu", "8800:9600:1"], 9, 3),
    ],
)
def test_each_state_j_block_is_solved_once_per_request(argv, blocks, dense, tmp_path, solves):
    # alpha: X0 J0..J2 and the A0/B1 J1 finals (A0 J0 is solved directly as
    # A0's basis, but no block asks for it); magic adds X0 J1's A0 J0, A0 J2
    # and B1 J2 finals and X0 J3, which lies below
    # X0 J2's top level. Linewidths solve no block lying wholly above the
    # level that decays (A0 J2 and B1 J2 for X0 J1): 8 and 11 blocks without
    # that rule. On the 301-point grid two of the three trimmed solves fail
    # their edge check and repeat on the full grid; the last case is the
    # optical magic request on the default grid, where none does
    code = run_cli([argv[0], OPTICAL_STANDIN, *argv[1:], "--out", tmp_path])
    assert code == 0
    assert len(solves.blocks) == blocks
    assert len(set(solves.blocks)) == blocks
    assert sorted(solves.direct) == DIRECT
    assert len(solves.dense) == dense


def test_optical_magic_is_three_dense_solves_and_few_kernel_calls(tmp_path, monkeypatch):
    # the pass by counts: each state's J0 span solved densely (X0 457, A0 448,
    # B1 472 points), six K = 2 * 64 contractions, and a bisection that
    # evaluates each spectrum's kernel once per step for all its brackets
    # (625 evaluations when each bracket was bisected on its own). A dense
    # solve runs in place (rovib._eigh_in_place) and a contraction through
    # np.linalg.eigh, which the in-place helper calls itself when numpy's
    # dsyevd is not found: each eigensolve is counted once, where it starts
    sizes, evaluations = [], []
    eigh, in_place, kernel = np.linalg.eigh, rovib._eigh_in_place, polarizability.alpha_kernel
    dense = threading.local()

    def counting_eigh(matrix):
        if not getattr(dense, "inside", False):
            sizes.append(len(matrix))
        return eigh(matrix)

    def counting_in_place(ham):
        sizes.append(len(ham))
        dense.inside = True
        try:
            return in_place(ham)
        finally:
            dense.inside = False

    def counting_kernel(lines):
        evaluate = kernel(lines)

        def counted(nus):
            evaluations.append(len(nus))
            return evaluate(nus)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(rovib, "_eigh_in_place", counting_in_place)
    monkeypatch.setattr(polarizability, "alpha_kernel", counting_kernel)
    monkeypatch.setattr(control, "alpha_kernel", counting_kernel)
    argv = ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Ma", "0", "--Jb", "1", "--Mb", "0", "--nu", "8800:9600:1"]
    assert run_cli([*argv, "--out", tmp_path]) == 0
    assert sorted(sizes) == [128] * 6 + [448, 457, 472]
    assert 0 < len(evaluations) <= 100


def test_each_block_builds_its_levels_once(tmp_path, monkeypatch):
    # the optical magic request stores 9 blocks and builds 9 level lists: a
    # state's J = omega basis solve builds none of its own
    built = []
    levels = rovib._levels

    def counting(state, J, grid, *solved):
        built.append((state, J, grid))
        return levels(state, J, grid, *solved)

    monkeypatch.setattr(rovib, "_levels", counting)
    argv = ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Ma", "0", "--Jb", "1", "--Mb", "0", "--nu", "8800:9600:1"]
    assert run_cli([*argv, "--out", tmp_path]) == 0
    blocks = rovib._store(load_dataset(OPTICAL_STANDIN)).blocks
    assert len(built) == len(blocks) == 9
    assert sorted(built, key=repr) == sorted(((state, J, grid) for state, J, grid, _ in blocks), key=repr)


def test_optical_blocks_need_no_full_grid_fallback(solves):
    # a span ends where the Agmon sum reaches the edge check's own amplitude,
    # so no trimmed optical block up to J = 10 fails that check or covers
    # over 90% of the grid at these depths
    ds = load_dataset(OPTICAL_STANDIN)
    grid = polarizability.default_grid(ds)
    for max_levels in (16, 32, 64, 100):
        for st in ds.states:
            for J in range(st.omega, 11):
                rovib.solve_radial(ds, st.label, J, grid, max_levels)
    assert len(solves.dense) >= 12
    assert slice(0, grid.n) not in solves.dense


def test_consecutive_requests_share_solved_blocks(tmp_path, solves):
    # the second load of unchanged content returns the first's dataset with
    # its solved blocks, so windows after alpha solves nothing (16 before)
    level = ["--nu", "9000:9010:1"]
    assert run_cli(["alpha", OPTICAL_STANDIN, *level, "--out", tmp_path / "a"]) == 0
    assert run_cli(["windows", OPTICAL_STANDIN, *level, "--min-width", "5", "--out", tmp_path / "w"]) == 0
    assert len(solves.blocks) == 5
    assert len(set(solves.blocks)) == 5
    assert sorted(solves.direct) == DIRECT
    assert len(solves.dense) == 3


def test_block_bits_do_not_depend_on_request_order(tmp_path):
    # each run starts from a fresh load; the second solves X0 J1 before X0 J0
    requests = {
        "alpha": ["alpha", "--nu", "9000:9400:1"],
        "windows": ["windows", "--nu", "9000:9400:1", "--min-width", "5"],
        "alpha_j1": ["alpha", "--J", "1", "--nu", "9000:9400:1"],
    }
    for run, order in (("forward", list(requests)), ("reverse", list(requests)[::-1])):
        dataset_module._LOADED.clear()
        for name in order:
            argv = requests[name]
            assert run_cli([argv[0], OPTICAL_STANDIN, *argv[1:], "--out", tmp_path / run / name]) == 0
    forward = sorted(p.relative_to(tmp_path / "forward") for p in (tmp_path / "forward").rglob("*") if p.is_file())
    assert len(forward) >= 6
    for rel in forward:
        assert (tmp_path / "reverse" / rel).read_bytes() == (tmp_path / "forward" / rel).read_bytes(), rel


def test_rewritten_curve_file_forces_a_reload(tmp_path, solves):
    ds_dir = tmp_path / "ds"
    shutil.copytree(OPTICAL_STANDIN, ds_dir)
    argv = ["alpha", ds_dir, "--nu", "9000:9400:1", "--grid", "5:20:301"]
    assert run_cli([*argv, "--out", tmp_path / "first"]) == 0
    held = load_dataset(ds_dir)
    assert run_cli([*argv, "--out", tmp_path / "same"]) == 0
    assert len(solves.blocks) == 5 and len(solves.dense) == 5
    # raise A0 by 1 cm^-1: new bytes, a new dataset, fresh solves and new lines
    pot = ds_dir / "pot__A0.dat"
    rows = [
        row if row.startswith(("#", "units")) else f"{row.split()[0]} {float(row.split()[1]) + 1.0!r}"
        for row in pot.read_text().splitlines()
    ]
    pot.write_text("\n".join(rows) + "\n")
    assert run_cli([*argv, "--out", tmp_path / "edited"]) == 0
    assert load_dataset(ds_dir) is not held
    assert len(solves.blocks) == 10 and len(solves.dense) == 10
    assert (tmp_path / "same" / "alpha.csv").read_bytes() == (tmp_path / "first" / "alpha.csv").read_bytes()
    assert (tmp_path / "edited" / "alpha.csv").read_bytes() != (tmp_path / "first" / "alpha.csv").read_bytes()


def test_scan_point_count_is_capped():
    assert len(_parse_range(f"0:{MAX_SCAN_POINTS - 1}:1", False)) == MAX_SCAN_POINTS
    with pytest.raises(DataError, match="MAX_SCAN_POINTS"):
        _parse_range(f"0:{MAX_SCAN_POINTS}:1", False)
    with pytest.raises(DataError, match="MAX_SCAN_POINTS"):
        _parse_range(f"1:{MAX_SCAN_POINTS + 1}:1", True)


def test_radial_grid_point_count_is_capped():
    # checked before any n x n matrix exists; nothing is solved here
    assert _parse_radial_grid(f"5:20:{MAX_GRID_POINTS}").n == MAX_GRID_POINTS
    with pytest.raises(DataError, match="MAX_GRID_POINTS"):
        _parse_radial_grid(f"5:20:{MAX_GRID_POINTS + 1}")


def test_tables_render_every_value_as_fmt_does(tmp_path):
    floats = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0123456789,
              1e12, 1e16, math.nan, math.inf, -math.inf, 1.0 / 3.0]
    ints = list(range(-3, len(floats) - 3))
    ints[-1] = 10**15
    labels = [f"s{i}" for i in range(len(floats))]
    columns = (labels, ints, floats, np.array(floats[::-1]))
    _write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], columns)
    _write_plot(tmp_path / "t.dat", ["x", "y"], columns[1:3])
    rows = list(zip(*columns))
    assert read_lines(tmp_path / "t.csv") == ["a,b,c,d"] + [
        ",".join([r[0], *(_fmt(x) for x in r[1:])]) for r in rows
    ]
    assert read_lines(tmp_path / "t.dat") == ["# x  y"] + [f"{_fmt(r[1])} {_fmt(r[2])}" for r in rows]
    _write_csv(tmp_path / "empty.csv", ["a", "b"], zip(*[]))
    assert read_lines(tmp_path / "empty.csv") == ["a,b"]


def test_dipole_curve_is_sampled_per_block_pair(tmp_path, monkeypatch):
    # one sample per (initial, final block) and per linewidth block pair; the
    # per-level-pair quadrature sampled the curve about 20.7k times here
    calls = []
    sample = DipoleCurve.__call__

    def counting(self, r_eval):
        calls.append(self)
        return sample(self, r_eval)

    monkeypatch.setattr(DipoleCurve, "__call__", counting)
    code = run_cli(["alpha", OPTICAL_STANDIN, "--nu", "9000:9010:1", "--out", tmp_path])
    assert code == 0
    assert 0 < len(calls) <= 50


def test_each_curve_is_sampled_once_per_grid(tmp_path, monkeypatch):
    # potentials for the radial blocks and their energy floors, dipoles for
    # the line list, the linewidths and the capture diagnostic: one sample
    # per (curve, grid) each, held read-only by the loaded dataset
    calls = []

    def counting(call):
        def sample(self, r_eval):
            r = np.asarray(r_eval)
            calls.append((self, r.size, float(r.flat[0]), float(r.flat[-1])))
            return call(self, r_eval)

        return sample

    for curve in (PotentialCurve, DipoleCurve):
        monkeypatch.setattr(curve, "__call__", counting(curve.__call__))
    assert run_cli(["alpha", OPTICAL_STANDIN, "--nu", "9000:9010:1", "--out", tmp_path]) == 0
    assert len(set(calls)) == len(calls)
    samples = rovib._store(load_dataset(OPTICAL_STANDIN)).samples
    assert len(samples) == len(calls) >= 5
    assert not any(values.flags.writeable for values in samples.values())


# ------------------------------------------------- solve-ahead and BLAS pin


@pytest.fixture
def workers(monkeypatch):
    """One entry per solve-ahead worker started, in start order."""
    started = []
    work = rovib._work

    def counting(queue):
        started.append(len(queue))
        return work(queue)

    monkeypatch.setattr(rovib, "_work", counting)
    return started


ALPHA = ["alpha", OPTICAL_STANDIN, "--nu", "9000:9010:1"]


def test_an_optical_request_solves_its_bases_two_at_a_time(tmp_path, workers):
    _, get_threads = blas_thread_calls()
    if rovib._usable_cpus() < 2:
        pytest.skip("one usable CPU: nothing is solved ahead")
    threads, blas_threads = threading.active_count(), get_threads()
    assert run_cli([*ALPHA, "--out", tmp_path / "first"]) == 0
    # X0, A0 and B1 queued: two workers on two CPUs, and both joined
    assert len(workers) == min(3, rovib._usable_cpus())
    assert threading.active_count() == threads
    assert get_threads() == blas_threads
    assert rovib._store(load_dataset(OPTICAL_STANDIN)).ahead == {}
    # every basis is stored now: a second request queues nothing
    assert run_cli([*ALPHA, "--out", tmp_path / "second"]) == 0
    assert len(workers) == min(3, rovib._usable_cpus())


def test_a_request_that_fails_with_solves_in_flight_joins_them(tmp_path, capsys, workers):
    # X0 J = 0 keeps 64 levels, so v = 500 is not bound: the caller fails
    # while A0 and B1 are solving
    _, get_threads = blas_thread_calls()
    threads, blas_threads = threading.active_count(), get_threads()
    assert run_cli(["alpha", OPTICAL_STANDIN, "--v", "500", "--nu", "9000:9005:1", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data: initial level v=500 not bound") and err.count("\n") == 1
    assert workers or rovib._usable_cpus() < 2
    assert threading.active_count() == threads
    assert get_threads() == blas_threads
    assert rovib._store(load_dataset(OPTICAL_STANDIN)).ahead == {}


@pytest.mark.parametrize(
    "argv, queued",
    [
        (ALPHA, [["X0", "A0", "B1"]]),
        # from J = 1, M = 1 A0's branches within the cap (J' = 0, 1) carry no weight
        ([*ALPHA, "--J", "1", "--M", "1", "--j-max-branch", "1"], [["X0", "B1"]]),
        ([*ALPHA, "--state", "A0"], [["A0", "X0"]]),
        (["magic", KRB_ROTOR_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "0.005:0.3:0.001"], [["X0"], ["X0"]]),
    ],
    ids=["alpha", "j-max-branch", "state-A0", "rotor-magic"],
)
def test_a_line_list_solves_ahead_the_states_of_its_driven_branches(argv, queued, tmp_path, monkeypatch):
    seen = []

    def spy(ds, states, grid, max_levels):
        seen.append(list(states))
        return rovib.solving_ahead(ds, states, grid, max_levels)

    monkeypatch.setattr(polarizability, "solving_ahead", spy)
    assert run_cli([*argv, "--out", tmp_path]) == 0
    assert seen == queued


@pytest.mark.parametrize("J", ["49", "50"])
def test_a_branch_or_linewidth_past_j_50_is_solved(J, tmp_path, capsys):
    # J = 50 reaches J' = 51, and the J' = 50 linewidths of J = 49 walk to J = 51
    assert run_cli(["alpha", OPTICAL_STANDIN, "--J", J, "--nu", "9000:9005:1", "--out", tmp_path]) == 0
    assert capsys.readouterr().err == ""


def test_a_j_past_rovibs_bound_starts_no_solve(tmp_path, capsys, solves):
    # the J rule runs before solving_ahead queues the X0 and A0 bases
    argv = ["alpha", OPTICAL_STANDIN, "--J", str(10**400), "--nu", "9000:9001:1", "--out", tmp_path]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("molpol: data: J = 1000") and err.count("\n") == 1
    assert solves.direct == []


def test_a_worker_error_is_raised_in_the_caller(tmp_path, capsys, monkeypatch, workers):
    blas_thread_calls()
    solve = rovib._solve

    def failing(ds, state, J, grid, max_levels, trim):
        if state == "A0":
            raise DataError("A0 cannot be solved")
        return solve(ds, state, J, grid, max_levels, trim)

    monkeypatch.setattr(rovib, "_solve", failing)
    threads = threading.active_count()
    assert run_cli([*ALPHA, "--out", tmp_path]) == 3
    assert capsys.readouterr().err == "molpol: data: A0 cannot be solved\n"
    assert workers or rovib._usable_cpus() < 2
    assert threading.active_count() == threads


def test_without_the_blas_calls_nothing_is_pinned_or_solved_ahead(tmp_path, monkeypatch, workers):
    # compared at one BLAS thread, where the pin changes nothing either
    set_threads, get_threads = blas_thread_calls()
    argv = ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "8800:9000:1", "--plot"]
    assert run_cli([*argv, "--out", tmp_path / "pinned"]) == 0
    started = len(workers)
    dataset_module._LOADED.clear()
    monkeypatch.setattr(rovib, "_blas_thread_calls", lambda: None)
    blas_threads = get_threads()
    set_threads(1)
    try:
        assert run_cli([*argv, "--out", tmp_path / "lazy"]) == 0
        assert get_threads() == 1
    finally:
        set_threads(blas_threads)
    assert len(workers) == started
    names = sorted(p.name for p in (tmp_path / "pinned").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "pinned" / name).read_bytes(), name


def _molpol_process(*argv, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    blas_thread_calls()
    requests = [
        ["alpha", OPTICAL_STANDIN, "--nu", "8600:10399.5:0.5", "--plot"],
        ["magic", OPTICAL_STANDIN, "--Ja", "0", "--Jb", "1", "--nu", "8800:9600:1", "--plot"],
        ["fcf", OPTICAL_STANDIN, "--final-state", "A0"],
    ]
    for threads in ("1", "2"):
        script = "import sys; from molpol.cli import main\n" + "".join(
            f"assert main({[*map(str, argv), '--out', str(tmp_path / threads / argv[0])]!r}) == 0\n"
            for argv in requests
        )
        run = _molpol_process("-c", script, OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(files) == 9
    for rel in files:
        assert (tmp_path / "2" / rel).read_bytes() == (tmp_path / "1" / rel).read_bytes(), rel


def test_a_failing_request_with_solves_in_flight_exits_cleanly_every_time(tmp_path):
    # interpreter shutdown under a running eigensolve would crash the process
    for _ in range(10):
        run = _molpol_process(
            "-m", "molpol.cli", "alpha", str(OPTICAL_STANDIN), "--v", "500", "--nu", "9000:9005:1",
            "--out", str(tmp_path / "out"),
        )
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("molpol: data:") and run.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()
