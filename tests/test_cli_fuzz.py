"""The CLI contract under drawn arguments.

Each example is one request to cli.main, run in process on a shipped stand-in
dataset with a drawn subcommand and drawn argument values: scan ranges (NaN,
inf, reversed, zero or sub-resolution steps, far too many points, from 0 or
from below it), J/M/v and caps, linewidths, criteria, radial grids of at most
401 points, plan/dress frequencies, and an --out that is a file or runs
through one. Whatever the arguments, the request exits 0, 2, 3 or 4; nothing
but SystemExit leaves main; a data or numerical failure prints exactly one
`molpol: <class>:` line to stderr, and a success prints nothing there.

No drawn scan or grid comes near MAX_SCAN_POINTS or MAX_GRID_POINTS: scans
hold at most 40 points, or far more than the cap (refused before any array
exists), and the cap tests in test_cli cover the sizes in between.
"""

import contextlib
import io
import json
import logging
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from molpol import cli
from molpol import dataset as dataset_module
from molpol.coupling import POLARIZATIONS

DATASETS = Path(__file__).resolve().parents[1] / "datasets"
OPTICAL = DATASETS / "rbcs_optical_standin"
ROTORS = (DATASETS / "krb_rotor_standin", DATASETS / "rbcs_rotor_standin")

# per dataset: the bounds of a scan's lo and step, in cm^-1 and in nm, each as
# ((lo_min, lo_max), (step_min, step_max)); and its state labels
SCANS = {
    OPTICAL: (((8000.0, 10500.0), (0.1, 50.0)), ((800.0, 1300.0), (0.1, 10.0))),
    **{rotor: (((1e-3, 1.0), (1e-3, 0.1)), ((1e7, 1e9), (1e4, 1e6))) for rotor in ROTORS},
}
STATES = {OPTICAL: ["X0", "A0", "B1"], **{rotor: ["X0"] for rotor in ROTORS}}

BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "abc", "1e400"])


def _mostly(good, bad):
    """A good value nine draws in ten, else a bad one, so that most requests
    get past their input checks and a few fail each of them."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def _quantum(good):
    return _mostly(good, st.sampled_from([-1, 11, 60, 1000, 100000, 10**400]))


def _number(good):
    return _mostly(good.map(repr), BAD_NUMBERS)


def _state(ds):
    return _mostly(st.sampled_from(STATES[ds]), st.just("Q9"))


@st.composite
def _scan(draw, ds):
    """(--nu text, whether --nm is passed): a short good range, or one broken."""
    nm = draw(st.booleans())
    (lo_min, lo_max), (step_min, step_max) = SCANS[ds][nm]
    lo = draw(st.floats(lo_min, lo_max))
    step = draw(st.floats(step_min, step_max))
    hi = lo + (draw(st.integers(1, 40)) - 1) * step
    mutation = draw(_mostly(st.just("none"), st.sampled_from(
        ["nan", "inf", "reversed", "zero_step", "negative_step", "sub_resolution", "too_many", "malformed",
         "tiny_wavelength", "from_zero", "below_zero"]
    )))
    if mutation in ("nan", "inf"):
        parts = [repr(lo), repr(hi), repr(step)]
        parts[draw(st.integers(0, 2))] = draw(st.sampled_from([mutation, "-" + mutation]))
        return ":".join(parts), nm
    lo, hi, step = {
        "none": (lo, hi, step),
        "reversed": (hi + step, lo, step),
        "zero_step": (lo, hi, 0.0),
        "negative_step": (lo, hi, -step),
        "sub_resolution": (lo, lo + 4e-17 * lo, 1e-17 * lo),
        "too_many": (lo, lo + 1e9 * step, step),
        "malformed": (lo, hi, None),
        "tiny_wavelength": (1e-320, hi, step),   # 1e7/lo overflows, under --nm
        "from_zero": (0.0, hi - lo, step),          # a data error under --nm only
        "below_zero": (-lo, hi - 2.0 * lo, step),
    }[mutation]
    text = f"{lo!r}:{hi!r}" if step is None else f"{lo!r}:{hi!r}:{step!r}"
    return text, nm or mutation == "tiny_wavelength"


@st.composite
def _grid(draw, ds):
    """A --grid of 16 to 401 points, or a broken one; rotors may keep their default."""
    if ds != OPTICAL and draw(st.booleans()):
        return []
    rmin = draw(st.floats(4.0, 6.5))
    rmax = draw(st.floats(15.0, 20.0))
    n = draw(st.integers(16, 401))
    text = draw(_mostly(st.just(f"{rmin!r}:{rmax!r}:{n}"), st.sampled_from([
        f"{rmax!r}:{rmin!r}:{n}",
        f"nan:{rmax!r}:{n}",
        f"{rmin!r}:inf:{n}",
        f"1e-300:{rmax!r}:{n}",
        f"{rmin!r}:{rmax!r}:3",
        f"{rmin!r}:{rmax!r}:x",
    ])))
    return [f"--grid={text}"]


def _option(flag, values):
    """[] or [f"{flag}={value}"]; the = form keeps a value like -1e-8 from reading as a flag."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _engine(ds):
    return st.tuples(
        _grid(ds),
        _option("--max-levels", _mostly(st.integers(1, 80), st.integers(-2, 0))),
        _option("--gamma", _mostly(st.sampled_from(["computed", "default", "0", "6", "1e3"]), BAD_NUMBERS)),
        _option("--d-floor", _mostly(st.sampled_from(["0", "1e-8", "1e-3", "inf"]), BAD_NUMBERS)),
        _option("--j-max-branch", _mostly(st.integers(0, 8), st.integers(-2, -1))),
        _option("--v-max", _mostly(st.integers(-1, 8), st.integers(-3, -2))),
    ).map(lambda parts: sum(parts, []))


def _level(ds, tag=""):
    return st.tuples(
        _option("--state", _state(ds)) if not tag else st.just([]),
        _option(f"--v{tag}", _quantum(st.integers(0, 3) if ds == OPTICAL else st.just(0))),
        _option(f"--J{tag}", _quantum(st.integers(0, 4))),
        _option(f"--M{tag}", _quantum(st.just(0))),
        _option(f"--pol-{tag}" if tag else "--pol", _mostly(st.sampled_from(list(POLARIZATIONS)), st.just("left"))),
    ).map(lambda parts: sum(parts, []))


def _scan_args(ds):
    return _scan(ds).map(lambda scan: [f"--nu={scan[0]}", *(["--nm"] if scan[1] else [])])


def _flag(name):
    return st.sampled_from([[], [name]])


def _criterion(flag):
    return _option(flag, _mostly(st.sampled_from(["0", "0.5", "10", "1e6", "inf"]), BAD_NUMBERS))


def _frequency(ds):
    """--nu and --nm each given or not (--nm wins), with --intensity and, for a plan, --d-ind."""
    (nu_bounds, _), (nm_bounds, _) = SCANS[ds]
    nu = _number(st.floats(*nu_bounds)).map(lambda v: f"--nu={v}")
    nm = _number(st.floats(*nm_bounds)).map(lambda v: f"--nm={v}")
    flags = _mostly(st.sampled_from([(nu,), (nm,), (nu, nm)]), st.just(()))
    return st.tuples(
        flags.flatmap(lambda given: st.tuples(*given)),
        _mostly(st.sampled_from(["0", "1", "1e4"]), BAD_NUMBERS).map(lambda v: (f"--intensity={v}",)),
    ).map(lambda parts: [*parts[0], *parts[1]])


def _request(ds):
    commands = {
        "validate": st.just([]),
        "levels": st.tuples(
            _option("--state", _state(ds)),
            _option("--J", _quantum(st.integers(0, 4))),
            _grid(ds),
            _option("--max-levels", _mostly(st.integers(1, 80), st.integers(-2, 0))),
            _flag("--check"),
        ),
        "fcf": st.tuples(
            _option("--initial-state", _state(ds)),
            _state(ds).map(lambda s: [f"--final-state={s}"]),
            _option("--J", _quantum(st.integers(0, 4))),
            _option("--Jp", _quantum(st.integers(0, 4))),
            _option("--max-v", _mostly(st.integers(0, 25), st.integers(-2, -1))),
            _grid(ds),
        ),
        "alpha": st.tuples(_level(ds), _engine(ds), _scan_args(ds), _flag("--plot")),
        "magic": st.tuples(
            _option("--state", _state(ds)),
            _level(ds, "a"),
            _level(ds, "b"),
            _engine(ds),
            _scan_args(ds),
            _criterion("--tol"),
            _flag("--plot"),
        ),
        "windows": st.tuples(
            _level(ds),
            _engine(ds),
            _scan_args(ds),
            _criterion("--min-width"),
            _criterion("--flatness-cap"),
            _criterion("--ratio-floor"),
            _flag("--plot"),
        ),
        "plan": st.tuples(
            _level(ds),
            _engine(ds),
            _frequency(ds),
            _option("--d-ind", _mostly(st.sampled_from(["0", "0.5"]), st.sampled_from(["nan", "-inf", "1e200"]))),
        ),
        "dress": st.tuples(_option("--v", _quantum(st.just(0))), _engine(ds), _frequency(ds)),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda name: commands[name].map(lambda parts: [name, str(ds), *sum(parts, [])])
    )


REQUESTS = st.sampled_from([OPTICAL, *ROTORS]).flatmap(_request)
OUTS = ["out", "out", "out", "file", "file/sub"]


def _run(argv):
    """(exit code, stderr) of one in-process request, from a fresh dataset load.

    A logged warning goes to stderr too, as logging's last-resort handler
    sends it there outside pytest, whose own log handler would take it here.
    """
    dataset_module._LOADED.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    logging.getLogger().addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        logging.getLogger().removeHandler(handler)
    return code, stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=REQUESTS, out=st.sampled_from(OUTS))
# an empty block was reported twice: a bare logging line, then the data error
@example(argv=["alpha", str(OPTICAL), "--J=1000", "--nu=9000:9005:1"], out="out")
@example(argv=["levels", str(OPTICAL), "--J=100000", "--grid=5:20:201"], out="out")
# a J whose J(J+1) leaves the float range raised an OverflowError, or wrote inf with a warning
@example(argv=["levels", str(OPTICAL), f"--J={10**400}"], out="out")
@example(argv=["levels", str(ROTORS[0]), f"--J={10**200}"], out="out")
# an --out through a file raised FileExistsError / NotADirectoryError
@example(argv=["levels", str(ROTORS[0])], out="file")
@example(argv=["levels", str(ROTORS[0])], out="file/sub")
# plan took --nu/--nm as a required either-or: both, or neither, exited 2
@example(argv=["plan", str(ROTORS[0]), "--nm=1064", "--nu=5", "--intensity=1e4"], out="out")
@example(argv=["plan", str(ROTORS[0]), "--intensity=1e4"], out="out")
# a --nm range whose 1e7/lo overflows scanned an infinite wavenumber
@example(argv=["alpha", str(OPTICAL), "--nu=1e-320:1:0.5", "--nm"], out="out")
def test_every_request_keeps_the_exit_code_and_stderr_contract(argv, out):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
        code, err = _run(argv if argv[0] == "validate" else [*argv, f"--out={Path(tmp) / out}"])
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == ""
    elif code in (3, 4):
        assert err.startswith("molpol: data: " if code == 3 else "molpol: numerical: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# ------------------------------------------------------------- dataset half
#
# A copy of the optical stand-in with one curve file or molecule.json field
# pushed towards the float range's ends, or one curve file malformed (a NaN
# sample, unsorted or repeated R, one row, a bad units header, a dipole to an
# undeclared state, a potential with no minimum), under the same contract:
# the load or the request refuses it, or it succeeds without a word (tier-1
# turns any RuntimeWarning into an error that would leave main).


def _scaled(name, column, factor):
    """Multiply one column (0: R, 1: value) of a curve file."""

    def mutate(path):
        rows = []
        for line in (path / name).read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith(("#", "units:")):
                parts[column] = repr(float(parts[column]) * factor)
                line = " ".join(parts)
            rows.append(line)
        (path / name).write_text("\n".join(rows) + "\n")

    return mutate


def _asymptote(label, value):
    def mutate(path):
        meta = json.loads((path / "molecule.json").read_text())
        next(s for s in meta["states"] if s["label"] == label)["asymptote_energy"] = value
        (path / "molecule.json").write_text(json.dumps(meta))

    return mutate


def _last_sample_close_and_above_asymptote(path):
    """X0's last sample 0.01 Bohr past the one before, at +1 cm^-1: the tail
    fit's exponent exceeds math.exp's range."""
    lines = (path / "pot__X0.dat").read_text().splitlines()
    r_before = float(lines[-2].split()[0])
    lines[-1] = f"{r_before + 0.01!r} 1.0"
    (path / "pot__X0.dat").write_text("\n".join(lines) + "\n")


def _rows(name, edit):
    """Replace the sample rows of one curve file by edit(rows); the comment
    and units lines stay as they are."""

    def mutate(path):
        lines = (path / name).read_text().splitlines()
        head = [line for line in lines if line.startswith(("#", "units:"))]
        rows = [line for line in lines if not line.startswith(("#", "units:"))]
        (path / name).write_text("\n".join(head + edit(rows)) + "\n")

    return mutate


def _units(name, header):
    """Replace the units line of one curve file by header, or drop it for None."""

    def mutate(path):
        lines = (path / name).read_text().splitlines()
        lines = [header if line.startswith("units:") else line for line in lines]
        (path / name).write_text("\n".join(line for line in lines if line is not None) + "\n")

    return mutate


def _undeclared_partner(path):
    shutil.copy(path / "dip__X0__A0.dat", path / "dip__X0__C9.dat")


def _radius(row):
    return row.split()[0]


MUTATIONS = {
    # the kernel's w * d**2 raised OverflowError
    "dipole-x1e160": (_scaled("dip__X0__A0.dat", 1, 1e160), ["alpha", "magic", "plan"]),
    # nu**3 overflowed in the linewidths, then z / den in the kernel
    "X0-values-x1e150": (_scaled("pot__X0.dat", 1, 1e150), ["alpha", "magic", "plan"]),
    # the tail fit warned while loading
    "A0-asymptote-1e308": (_asymptote("A0", 1e308), ["alpha", "levels"]),
    "X0-asymptote--1e300": (_asymptote("X0", -1e300), ["levels"]),
    "X0-tail-step": (_last_sample_close_and_above_asymptote, ["levels"]),
    # the spline and the tail fit warned while loading
    "X0-R-x1e-200": (_scaled("pot__X0.dat", 0, 1e-200), ["levels"]),
    "A0-R-x1e200": (_scaled("pot__A0.dat", 0, 1e200), ["levels"]),
    # and the contraction residual's norm
    "X0-values-x1e200": (_scaled("pot__X0.dat", 1, 1e200), ["levels", "dress"]),
    # malformed curve files, each refused at load, and a potential with no
    # bound level, which alpha and magic refuse and levels and fcf list empty
    **{
        name: (mutate, ["alpha", "magic", "levels", "fcf"])
        for name, mutate in {
            "A0-nan-sample": _rows("pot__A0.dat", lambda rows: [*rows[:100], f"{_radius(rows[100])} nan", *rows[101:]]),
            "X0-swapped-R": _rows("pot__X0.dat", lambda rows: [*rows[:50], rows[51], rows[50], *rows[52:]]),
            "B1-dipole-repeated-R": _rows(
                "dip__X0__B1.dat", lambda rows: [*rows[:51], f"{_radius(rows[50])} {rows[51].split()[1]}", *rows[52:]]
            ),
            "A0-dipole-one-row": _rows("dip__X0__A0.dat", lambda rows: rows[:1]),
            "A0-no-units": _units("pot__A0.dat", None),
            "A0-unknown-value-unit": _units("pot__A0.dat", "units: bohr furlongs"),
            "dipole-to-undeclared-state": _undeclared_partner,
            "X0-no-minimum": _rows(
                "pot__X0.dat", lambda rows: [f"{_radius(row)} {1e5 * math.exp(-float(_radius(row)))!r}" for row in rows]
            ),
        }.items()
    },
}
DATASET_REQUESTS = {
    "alpha": ["--nu", "9000:9010:1"],
    "magic": ["--Ja", "0", "--Jb", "1", "--nu", "8800:8810:1"],
    "plan": ["--nm", "1064", "--intensity", "1e4"],
    "levels": ["--J", "0"],
    "fcf": ["--final-state", "A0"],
    "dress": ["--nu", "0.03", "--intensity", "100"],
}


@pytest.mark.parametrize(
    "mutation, command",
    [(name, command) for name, (_, commands) in MUTATIONS.items() for command in commands],
)
def test_a_dataset_past_the_float_range_keeps_the_contract(mutation, command, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(OPTICAL, ds)
    MUTATIONS[mutation][0](ds)
    code, err = _run([command, str(ds), *DATASET_REQUESTS[command], f"--out={tmp_path / 'out'}"])
    assert code in (0, 3, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("molpol: data: " if code == 3 else "molpol: numerical: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
