import dataclasses
import json
import math
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from molpol import (
    DataError,
    DipoleCurve,
    ElectronicState,
    HarmonicModel,
    MoleculeDataset,
    MorseModel,
    PotentialCurve,
    RigidRotorModel,
    RotorInfo,
    load_dataset,
    synthesize,
    write_dataset,
)

from molpol.cli import main
from molpol import dataset
from molpol.dataset import _NaturalSpline, _gtsv

from conftest import MORSE, MORSE_GRID, MORSE_MU, RBCS, make_optical, make_rotor


def test_round_trip_on_disk(tmp_path):
    ds = make_optical()
    write_dataset(ds, tmp_path / "opt")
    back = load_dataset(tmp_path / "opt")
    assert back.name == ds.name
    assert back.reduced_mass == pytest.approx(ds.reduced_mass, rel=1e-12)
    assert back.ground_label == ds.ground_label
    assert back.default_gamma == pytest.approx(ds.default_gamma, rel=1e-12)
    assert [s.label for s in back.states] == [s.label for s in ds.states]
    for s in ds.states:
        assert back.state(s.label).omega == s.omega
        assert back.state(s.label).asymptote_energy == pytest.approx(s.asymptote_energy, rel=1e-12)
        np.testing.assert_allclose(back.potentials[s.label].v, ds.potentials[s.label].v, rtol=1e-12)
        np.testing.assert_allclose(back.potentials[s.label].r, ds.potentials[s.label].r, rtol=1e-12)
    assert len(back.dipoles) == len(ds.dipoles)
    for a, b in zip(sorted(ds.dipoles, key=lambda d: (d.bra, d.ket)), sorted(back.dipoles, key=lambda d: (d.bra, d.ket))):
        np.testing.assert_allclose(a.d, b.d, rtol=1e-12)


def test_rotor_round_trip_keeps_rotor_block(tmp_path):
    ds = make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rt")
    write_dataset(ds, tmp_path / "rt")
    back = load_dataset(tmp_path / "rt")
    assert back.rotor is not None
    assert back.rotor.r_e == pytest.approx(ds.rotor.r_e, rel=1e-12)


def test_a_rotor_block_with_an_unread_j_max_still_loads(tmp_path):
    # molecule.json files written before the rotor block lost j_max keep loading
    write_dataset(make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rt"), tmp_path / "rt")
    plain = load_dataset(tmp_path / "rt")
    meta_path = tmp_path / "rt" / "molecule.json"
    meta = json.loads(meta_path.read_text())
    meta["rotor"]["j_max"] = 10
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    old = load_dataset(tmp_path / "rt")
    assert old is not plain
    assert old.rotor == plain.rotor


def test_decreasing_r_names_offending_line(tmp_path):
    ds = make_optical()
    write_dataset(ds, tmp_path / "bad")
    pot = tmp_path / "bad" / "pot__X.dat"
    lines = pot.read_text().splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    pot.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path / "bad")
    assert "pot__X.dat" in str(err.value)


def test_non_utf8_files_are_data_errors(tmp_path):
    write_dataset(make_optical(), tmp_path / "enc")
    pot = tmp_path / "enc" / "pot__X.dat"
    pot.write_bytes(pot.read_bytes() + b"\xff\n")
    with pytest.raises(DataError, match="pot__X.dat"):
        load_dataset(tmp_path / "enc")
    (tmp_path / "enc" / "molecule.json").write_bytes(b"\xff{")
    with pytest.raises(DataError, match="molecule.json"):
        load_dataset(tmp_path / "enc")


def test_missing_reduced_mass(tmp_path):
    ds = make_optical()
    write_dataset(ds, tmp_path / "nomu")
    meta = tmp_path / "nomu" / "molecule.json"
    import json

    obj = json.loads(meta.read_text())
    del obj["reduced_mass"]
    meta.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="reduced_mass"):
        load_dataset(tmp_path / "nomu")


def test_units_header_conversion(tmp_path):
    from molpol.constants import ANGSTROM_BOHR, HARTREE_CM1

    d = tmp_path / "u"
    d.mkdir()
    (d / "molecule.json").write_text(
        '{"name": "u", "reduced_mass": 10.0, "ground_label": "X",'
        ' "states": [{"label": "X", "omega": 0, "asymptote_energy": 0.1}]}'
    )
    (d / "pot__X.dat").write_text(
        "# converted table\nunits: angstrom hartree\n1.0 -0.01\n2.0 -0.005\n3.0 -0.001\n"
    )
    ds = load_dataset(d)
    pot = ds.potentials["X"]
    np.testing.assert_allclose(pot.r, np.array([1.0, 2.0, 3.0]) * ANGSTROM_BOHR, rtol=1e-12)
    np.testing.assert_allclose(pot.v, np.array([-0.01, -0.005, -0.001]) * HARTREE_CM1, rtol=1e-12)


def test_unknown_unit_rejected(tmp_path):
    d = tmp_path / "x"
    d.mkdir()
    (d / "molecule.json").write_text(
        '{"name": "x", "reduced_mass": 10.0, "ground_label": "X",'
        ' "states": [{"label": "X", "omega": 0, "asymptote_energy": 0.0}]}'
    )
    (d / "pot__X.dat").write_text("units: parsec cm-1\n1.0 0.0\n2.0 0.0\n")
    with pytest.raises(DataError, match="unit"):
        load_dataset(d)


def test_an_infinite_asymptote_reads_as_none(tmp_path):
    # JSON's Infinity token, as null, is a state without an asymptote
    write_dataset(make_rotor(RBCS["mu"], RBCS["r_e"], RBCS["d"], "rt"), tmp_path / "ds")
    null = load_dataset(tmp_path / "ds")
    meta_path = tmp_path / "ds" / "molecule.json"
    meta = json.loads(meta_path.read_text())
    assert meta["states"][0]["asymptote_energy"] is None
    meta["states"][0]["asymptote_energy"] = math.inf
    meta_path.write_text(json.dumps(meta))
    assert '"asymptote_energy": Infinity' in meta_path.read_text()
    inf = load_dataset(tmp_path / "ds")
    assert inf is not null and inf.states == null.states


def test_the_types_store_the_numbers_they_checked():
    # a numpy number is taken, and stored as the int or float it checked
    r = np.linspace(5.0, 10.0, 20)
    x = ElectronicState("X", np.int64(0), np.float32(-2.5))
    assert x == ElectronicState("X", 0, -2.5) and type(x.omega) is int and type(x.asymptote_energy) is float
    assert type(RotorInfo(np.int64(8)).r_e) is float
    ds = MoleculeDataset("n", np.int64(10), [x], {"X": PotentialCurve(x, r, r)}, [], "X", np.float32(6))
    assert (ds.reduced_mass, ds.default_gamma) == (10.0, 6.0)
    assert type(ds.reduced_mass) is float and type(ds.default_gamma) is float


def test_dangling_dipole_reference():
    r = np.linspace(5.0, 10.0, 20)
    x = ElectronicState("X", 0, 0.0)
    with pytest.raises(DataError, match="GHOST"):
        MoleculeDataset(
            name="bad",
            reduced_mass=10.0,
            states=[x],
            potentials={"X": PotentialCurve(x, r, np.zeros_like(r))},
            dipoles=[DipoleCurve("X", "GHOST", r, np.ones_like(r))],
            ground_label="X",
        )


def _write(name: str, text: str):
    return lambda root: (root / name).write_text(text)


def _copy(src: str, dst: str):
    return lambda root: shutil.copyfile(root / src, root / dst)


def _meta(change):
    def edit(root: Path) -> None:
        meta = json.loads((root / MOL).read_text())
        change(meta)
        (root / MOL).write_text(json.dumps(meta))

    return edit


def _relabel(old: str, label, ground_label=None):
    """State `old` relabelled `label` in molecule.json, with its files renamed
    after str(label), and ground_label set when one is given."""

    def edit(root: Path) -> None:
        for path in root.glob("*.dat"):
            parts = path.stem.split("__")
            if old in parts[1:]:
                path.rename(root / ("__".join(str(label) if p == old else p for p in parts) + ".dat"))
        _meta(lambda m: [s.update(label=label) for s in m["states"] if s["label"] == old])(root)
        if ground_label is not None:
            _meta(lambda m: m.update(ground_label=ground_label))(root)

    return edit


POT, MOL = "pot__X.dat", "molecule.json"
# case: (the file its error must name, an edit that breaks the on-disk
# make_optical() dataset: states X, E, H; dipoles X-E, X-H)
ON_DISK = {
    "units header without a value unit": (POT, _write(POT, "units: bohr\n5 1\n6 0\n")),
    "unknown value unit": (POT, _write(POT, "units: bohr joule\n5 1\n6 0\n")),
    "no units header": (POT, _write(POT, "5 1\n6 0\n")),
    "three columns": (POT, _write(POT, "units: bohr cm-1\n5 1 2\n6 0 2\n")),
    "non-numeric value": (POT, _write(POT, "units: bohr cm-1\n5 deep\n6 0\n")),
    "NaN value": (POT, _write(POT, "units: bohr cm-1\n5 nan\n6 0\n")),
    "one sample": (POT, _write(POT, "units: bohr cm-1\n5 1\n")),
    "R not positive": (POT, _write(POT, "units: bohr cm-1\n0 1\n6 0\n")),
    "state without omega": (MOL, _meta(lambda m: m["states"][1].pop("omega"))),
    "omega 2": (MOL, _meta(lambda m: m["states"][1].update(omega=2))),
    "missing potential file": ("pot__H.dat", lambda root: (root / "pot__H.dat").unlink()),
    "dipole filename with three labels": ("dip__X__E__H.dat", _copy("dip__X__E.dat", "dip__X__E__H.dat")),
    "rotor without r_e": (MOL, _meta(lambda m: m.update(rotor={"j_max": 3}))),
    "non-numeric reduced_mass": (MOL, _meta(lambda m: m.update(reduced_mass="heavy"))),
    "negative reduced_mass": (MOL, _meta(lambda m: m.update(reduced_mass=-1.0))),
    "duplicate labels": (MOL, _meta(lambda m: m["states"][2].update(label="E"))),
    "unknown ground_label": (MOL, _meta(lambda m: m.update(ground_label="Z"))),
    "dipole to an undeclared state": (MOL, _copy("dip__X__E.dat", "dip__X__Z.dat")),
    # these loaded, the label read as the string "0"
    "non-string state label": (MOL, _relabel("H", 0)),
    "non-string ground_label": (MOL, _relabel("X", "0", ground_label=0)),
    # loaded as the name 'None'
    "null name": (MOL, _meta(lambda m: m.update(name=None))),
    # loaded, and dipole_between answered with the curve whose file sorts first
    "second dipole curve for a pair": (MOL, _copy("dip__X__E.dat", "dip__E__X.dat")),
}

R3 = np.array([5.0, 6.0, 7.0])
# each is a library call on make_optical() that no dataset directory can reach
IN_LIBRARY = {
    "state without potential": lambda ds: dataclasses.replace(ds, potentials={"X": ds.potentials["X"]}),
    "potential for an undeclared state": lambda ds: dataclasses.replace(
        ds, potentials={**ds.potentials, "Z": ds.potentials["X"]}
    ),
    "two permanent dipoles": lambda ds: dataclasses.replace(ds, dipoles=[DipoleCurve("X", "X", R3, R3)] * 2),
    "unknown state": lambda ds: ds.state("nope"),
    "columns of unequal length": lambda ds: PotentialCurve(ds.states[0], R3, R3[:2]),
    "potential at R = 0": lambda ds: ds.potentials["X"](0.0),
    "harmonic model without grid": lambda ds: synthesize(HarmonicModel(100.0, 8.0), reduced_mass=10.0),
    "boolean omega": lambda ds: ElectronicState("Z", True, math.inf),
    # these built, and failed later or not at all: a NaN asymptote in an
    # IndexError from the span trim, -inf read as no asymptote, omega = 1.0 in
    # a TypeError in the line list, and True read as 1 Bohr, 1 amu and 1 MHz
    "NaN asymptote": lambda ds: ElectronicState("Z", 0, math.nan),
    "asymptote at -inf": lambda ds: ElectronicState("Z", 0, -math.inf),
    "omega 1.0": lambda ds: ElectronicState("Z", 1.0, math.inf),
    "string rotor r_e": lambda ds: RotorInfo("8.0"),
    "boolean rotor r_e": lambda ds: RotorInfo(True),
    "boolean reduced_mass": lambda ds: dataclasses.replace(ds, reduced_mass=True),
    "boolean default_gamma": lambda ds: dataclasses.replace(ds, default_gamma=True),
    # built, with an int for a label or a name
    "non-string state label": lambda ds: ElectronicState(5, 0, 0.0),
    "non-string name": lambda ds: dataclasses.replace(ds, name=0),
    # built, and dipole_between answered with the curve listed first
    "second dipole curve for a pair": lambda ds: dataclasses.replace(
        ds, dipoles=[*ds.dipoles, DipoleCurve("E", "X", R3, R3)]
    ),
    # built, and rovib took the bound cutoff from this record, the curve's tail from its own
    "potential on another record of its state": lambda ds: dataclasses.replace(
        ds, states=[ElectronicState("X", 0, 500.0, "+"), *ds.states[1:]]
    ),
}


@pytest.mark.parametrize(
    "where, case",
    [("disk", c) for c in ON_DISK] + [("library", c) for c in IN_LIBRARY],
    ids=[f"disk: {c}" for c in ON_DISK] + [f"library: {c}" for c in IN_LIBRARY],
)
def test_every_dataset_error_is_one_data_error(where, case, tmp_path, capsys):
    ds = make_optical()
    if where == "library":
        with pytest.raises(DataError):
            IN_LIBRARY[case](ds)
        return
    root = tmp_path / "ds"
    write_dataset(ds, root)
    named, edit = ON_DISK[case]
    edit(root)
    assert main(["validate", str(root)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"molpol: data: {root / named}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_potential_node_exactness_and_midpoint(morse_ds):
    pot = morse_ds.potentials["X0"]
    r = pot.r
    # exact at nodes (to rounding of the spline evaluation)
    np.testing.assert_allclose(pot(r), pot.v, rtol=1e-12, atol=1e-9)
    # interior midpoints agree with the analytic Morse form; the outermost
    # intervals carry the natural-boundary layer of the spline and the zero
    # crossing makes a bare relative test meaningless, hence the depth atol
    mid = 0.5 * (r[3:-3] + r[4:-2])
    np.testing.assert_allclose(pot(mid), MORSE.value(mid), rtol=1e-6, atol=1e-6 * MORSE.d_e)


def test_extrapolation_tails(morse_ds):
    pot = morse_ds.potentials["X0"]
    # repulsive wall blows up toward R -> 0
    assert pot(0.5) > 1e6
    assert pot(0.2) > pot(0.5)
    # long range approaches the asymptote (0 here) within 1% of well depth
    assert abs(pot(40.0) - 0.0) < 0.01 * MORSE.d_e
    assert abs(pot(200.0)) <= abs(pot(40.0)) + 1e-9


def test_no_overshoot_on_monotone_segment(morse_ds):
    pot = morse_ds.potentials["X0"]
    r = pot.r
    # outer limb of the Morse well rises monotonically; spline must not
    # overshoot by more than 1% of the local range
    sel = r > MORSE.r_e + 1.0
    ro = r[sel]
    for i in range(len(ro) - 1):
        a, b = ro[i], ro[i + 1]
        va, vb = pot(a), pot(b)
        local = np.max(np.abs([va, vb]))
        fine = np.linspace(a, b, 21)
        vals = pot(fine)
        lo, hi = min(va, vb), max(va, vb)
        pad = 0.01 * max(local, hi - lo)
        assert np.all(vals >= lo - pad) and np.all(vals <= hi + pad)


def test_dipole_clamped_outside_table():
    r = np.linspace(5.0, 10.0, 11)
    d = DipoleCurve("X", "A", r, np.linspace(1.0, 2.0, 11))
    assert d(3.0) == pytest.approx(1.0)
    assert d(12.0) == pytest.approx(2.0)
    assert d(7.5) == pytest.approx(1.5, rel=1e-12)


def test_synthesize_harmonic_symmetric():
    grid = np.linspace(6.0, 10.0, 41)   # symmetric about r_e = 8
    ds = synthesize(HarmonicModel(k=100.0, r_e=8.0), grid, reduced_mass=20.0)
    v = ds.potentials["X0"].v
    np.testing.assert_allclose(v, v[::-1], rtol=1e-12)


def test_synthesize_morse_minimum_at_node_nearest_re():
    # grid chosen so r_e = 8.0 lands exactly on a node
    ds = synthesize(MORSE, np.linspace(5.0, 16.0, 551), reduced_mass=MORSE_MU)
    pot = ds.potentials["X0"]
    i = int(np.argmin(np.abs(pot.r - MORSE.r_e)))
    assert pot.r[i] == pytest.approx(MORSE.r_e, abs=1e-12)
    assert pot.v[i] == pytest.approx(-MORSE.d_e, rel=1e-12)
    assert np.argmin(pot.v) == i


def test_synthesize_rotor_constant_dipole(rbcs_rotor):
    dip = rbcs_rotor.dipoles[0]
    assert dip.bra == dip.ket == "X0"
    np.testing.assert_allclose(dip.d, RBCS["d"], rtol=0, atol=0)
    assert rbcs_rotor.rotor is not None
    assert rbcs_rotor.rotor.r_e == pytest.approx(RBCS["r_e"], rel=1e-12)
    assert not rbcs_rotor.potentials["X0"].has_interior_minimum


def test_synthesize_needs_grid_for_wells():
    with pytest.raises(DataError):
        synthesize(MorseModel(100.0, 0.5, 8.0), reduced_mass=10.0)


def test_rigid_rotor_radius_inverts_b():
    model = RigidRotorModel(b=0.0163, d=1.0)
    mu = 52.0
    from molpol import HBAR2_OVER_TWO

    r_e = model.r_e(mu)
    assert HBAR2_OVER_TWO / (mu * r_e**2) == pytest.approx(0.0163, rel=1e-12)


def test_evaluate_potential_is_total_over_positive_r(morse_ds):
    pot = morse_ds.potentials["X0"]
    for r in (1e-3, 0.1, 5.0, 8.0, 30.0, 1e4):
        assert math.isfinite(float(pot(r)))


def test_comment_and_blank_lines_ignored(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "molecule.json").write_text(
        '{"name": "c", "reduced_mass": 10.0, "ground_label": "X",'
        ' "states": [{"label": "X", "omega": 0, "asymptote_energy": 0.0}]}'
    )
    (d / "pot__X.dat").write_text(
        "# header comment\n\nunits: bohr cm-1\n1.0 5.0  # inline comment\n\n2.0 6.0\n3.0 7.0\n"
    )
    ds = load_dataset(d)
    assert len(ds.potentials["X"].r) == 3


# ---------------------------------------------------------------------------
# the natural spline against scipy's CubicSpline, bit for bit

DATASETS = Path(__file__).resolve().parents[1] / "datasets"


def _same_bits(a, b) -> bool:
    """Equal shapes, NaN in the same places, and identical bits elsewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


def _probe_points(x):
    span = x[-1] - x[0]
    inside = np.linspace(x[0], x[-1], 257)
    mids = 0.5 * (x[:-1] + x[1:])
    outside = np.array([0.5 * x[0], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf), x[-1] + span])
    return np.concatenate([x, mids, inside, outside]), outside


def _assert_matches_cubic_spline(x, y):
    ref = CubicSpline(x, y, bc_type="natural", extrapolate=False)
    spl = _NaturalSpline(x, y)
    assert _same_bits(spl.c, ref.c)
    pts, outside = _probe_points(x)
    assert _same_bits(spl(pts), ref(pts))
    assert np.all(np.isnan(spl(outside)))
    assert _same_bits(spl(x[1]), ref(x[1]))   # a 0-d point keeps its shape


def _shipped_curves():
    for ds_dir in sorted(p for p in DATASETS.iterdir() if (p / "molecule.json").is_file()):
        ds = load_dataset(ds_dir)
        for label, pot in ds.potentials.items():
            yield pytest.param(pot, id=f"{ds_dir.name}-pot-{label}")
        for dip in ds.dipoles:
            yield pytest.param(dip, id=f"{ds_dir.name}-dip-{dip.bra}-{dip.ket}")


@pytest.mark.parametrize("curve", list(_shipped_curves()))
def test_shipped_curves_spline_matches_cubic_spline(curve):
    y = curve.v if isinstance(curve, PotentialCurve) else curve.d
    _assert_matches_cubic_spline(curve.r, y)
    ref = CubicSpline(curve.r, y, bc_type="natural", extrapolate=False)
    pts, outside = _probe_points(curve.r)
    if isinstance(curve, DipoleCurve):
        # clamps to the end values outside the table
        assert _same_bits(curve(pts), ref(np.clip(pts, curve.r[0], curve.r[-1])))
    else:
        # spline inside, tail rules outside: every value finite
        inside = (pts >= curve.r[0]) & (pts <= curve.r[-1])
        vals = curve(pts)
        assert _same_bits(vals[inside], ref(pts[inside]))
        assert np.all(np.isfinite(vals))
        inner, outer = pts < curve.r[0], pts > curve.r[-1]
        assert np.array_equal(vals[inner], curve._sr_a + curve._sr_b * pts[inner] ** -12)
        if curve._lr is None:
            assert np.array_equal(vals[outer], np.full(outer.sum(), curve.v[-1]))
        else:
            c, k = curve._lr
            assert np.array_equal(vals[outer], curve.state.asymptote_energy + c * np.exp(-k * pts[outer]))


@st.composite
def _knots(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    x0 = draw(st.floats(min_value=0.1, max_value=50.0))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n - 1, max_size=n - 1))
    x = x0 + np.cumsum([0.0, *steps])
    assume(np.all(np.diff(x) > 0.0))
    y = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=n, max_size=n))
    return x, np.asarray(y, dtype=float)


@given(_knots())
@example((np.array([1.0, 2.5]), np.array([3.0, -1.0])))
# signed zeros: scipy's end row keeps a zero slope positive here, and PPoly
# sums from 0.0, which turns a -0.0 knot value positive
@example((np.array([3.5, 4.5, 9.0]), np.array([0.0, 0.0, -0.0])))
@example((np.array([2.0, 4.5, 8.0, 8.5]), np.array([-0.0, -1.0, -1.0, -0.0])))
@settings(max_examples=300, deadline=None)
def test_natural_spline_matches_cubic_spline_on_drawn_knots(knots):
    _assert_matches_cubic_spline(*knots)
    x, y = knots
    state = ElectronicState("X", 0, math.inf)
    pot = PotentialCurve(state, x, y)
    dip = DipoleCurve("X", "A", x, y)
    ref = CubicSpline(x, y, bc_type="natural", extrapolate=False)
    pts, outside = _probe_points(x)
    assert _same_bits(dip(pts), ref(np.clip(pts, x[0], x[-1])))
    assert np.all(np.isfinite(pot(outside)))
    assert np.array_equal(pot(outside[2:]), np.full(2, y[-1]))    # no asymptote: constant tail


# the spline's banded solve against scipy's solve_banded (LAPACK dgtsv), bit for bit


def _assert_gtsv_matches_solve_banded(x, y):
    with mock.patch.object(dataset, "_gtsv", wraps=_gtsv) as gtsv:
        _NaturalSpline(x, y)
    ab, b = gtsv.call_args.args    # the system the spline solves
    assert _same_bits(_gtsv(ab, b), solve_banded((1, 1), ab, b))


@pytest.mark.parametrize("curve", list(_shipped_curves()))
def test_gtsv_matches_solve_banded_on_shipped_curves(curve):
    _assert_gtsv_matches_solve_banded(curve.r, curve.v if isinstance(curve, PotentialCurve) else curve.d)


@given(_knots())
@example((np.array([1.0, 2.5]), np.array([3.0, -1.0])))              # n = 2
@example((np.array([1.0, 2.0, 4.0]), np.array([0.5, -2.0, 7.0])))    # n = 3
# dx[1] > 2 dx[0]: the first elimination step interchanges rows 0 and 1
@example((np.array([1.0, 1.5, 4.0, 4.5]), np.array([2.0, -1.0, 3.0, 0.0])))
@settings(max_examples=300, deadline=None)
def test_gtsv_matches_solve_banded_on_drawn_knots(knots):
    _assert_gtsv_matches_solve_banded(*knots)
