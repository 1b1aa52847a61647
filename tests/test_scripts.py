"""The report scripts run end to end on the shipped stand-in datasets."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    """scripts/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _run(name, out):
    """Load scripts/<name>.py, point its OUT at `out` and run its main."""
    script = _load(name)
    script.OUT = out
    script.main()


def _assert_matches_committed(fresh: Path, committed: Path) -> None:
    """The table a script just wrote equals the one tracked under out/, to 1e-10 relative."""
    np.testing.assert_allclose(np.loadtxt(fresh), np.loadtxt(committed), rtol=1e-10, atol=0)


def test_make_standins_regenerates_the_shipped_datasets(tmp_path):
    _run("make_standins", tmp_path)
    shipped = ROOT / "datasets"
    names = sorted(p.relative_to(shipped) for p in shipped.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_optical_window_report(tmp_path, capsys):
    _run("optical_window_report", tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert capsys.readouterr().out == text
    rows = text.splitlines()
    assert "lines kept: 136" in rows
    assert "resonances in range: 30" in rows
    assert sum(row.startswith("window ") for row in rows) == 20
    assert (tmp_path / "report.txt").read_bytes() == (ROOT / "out" / "optical" / "report.txt").read_bytes()
    _assert_matches_committed(tmp_path / "alpha.dat", ROOT / "out" / "optical" / "alpha.dat")


def test_microwave_magic_scan(tmp_path, capsys):
    _run("microwave_magic_scan", tmp_path)
    text = (tmp_path / "summary.txt").read_text()
    assert capsys.readouterr().out == text
    assert sum("= 8.000 B" in row for row in text.splitlines()) == 2
    assert (tmp_path / "summary.txt").read_bytes() == (ROOT / "out" / "microwave" / "summary.txt").read_bytes()
    tables = sorted(tmp_path.glob("*_alpha.dat"))
    assert len(tables) == 2
    for table in tables:
        _assert_matches_committed(table, ROOT / "out" / "microwave" / table.name)


def test_output_digest_repeats_itself():
    # the rotor plan and dress requests, run twice in one interpreter: one
    # line per request and one per written file, the same both times
    script = _load("output_digest")
    requests = script.REQUESTS[-2:]
    lines = script.digest(requests)
    assert script.digest(requests) == lines
    assert [line.split(" ", 3)[::3] for line in lines if not line.startswith(" ")] == [["0", r] for r in requests]
    assert [line.split()[1] for line in lines if line.startswith(" ")] == ["plan.json", "dress.json"]


def test_output_digest_is_the_same_on_an_empty_and_a_filled_store(tmp_path):
    # two fresh interpreters on one store of solved bases that starts empty:
    # the second reads what the first solved, and no written byte moves
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
    script = [sys.executable, str(SCRIPTS / "output_digest.py")]
    runs = [subprocess.run(script, capture_output=True, text=True, env=env, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and runs[0].count("\n") >= len(_load("output_digest").REQUESTS)
    assert list((tmp_path / "molpol").glob("*.basis"))
