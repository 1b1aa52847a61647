"""Tests of the benchmark's own logic: span arithmetic, output checks, workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def span(name, parent, start, end, request=0):
    return [name, parent, request, start, end]


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_union_of_children():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("polarizability.scan_spectrum", 0, 1.0, 3.0),
        span("rovib.solve_radial", 0, 2.0, 5.0),        # overlaps its sibling
        span("control.find_magic", 0, 6.0, 7.0),
        span("polarizability.alpha_at", 1, 1.5, 2.0),   # grandchild of the root
        span("dataset.dipole_eval", 3, 6.5, 7.5),       # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(1.0)


def test_summarize_layers_remainder_and_bisection_count():
    tr = tracing.Tracer()
    tr.spans[:] = [
        span("cli.main", -1, 0.0, 4.0, request=0),
        span("control.find_magic", 0, 1.0, 3.0, request=0),
        span("polarizability.alpha_at", 1, 1.0, 1.5, request=0),
        span("polarizability.alpha_at", 1, 2.0, 2.5, request=0),
        span("cli.main", -1, 5.0, 6.0, request=1),
        span("polarizability.alpha_at", 4, 5.0, 5.5, request=1),
    ]
    tr.solve_keys[:] = [("X0", 0, "g", 64), ("X0", 0, "g", 64), ("X0", 1, "g", 64), ("A0", 1, "g", 64)]
    stats = tracing.summarize(tr, pass_s=7.0)
    assert stats["cli.main.calls"] == 2
    assert stats["cli.main.self_s"] == pytest.approx(2.0 + 0.5)
    assert stats["control.find_magic.self_s"] == pytest.approx(1.0)
    assert stats["polarizability.alpha_at.s"] == pytest.approx(1.5)
    assert stats["polarizability.self_s"] == pytest.approx(1.5)
    assert stats["control.bisect_alpha_evals"] == 2
    assert stats["rovib.solve_radial.repeat_frac"] == pytest.approx(0.25)
    assert stats["unattributed_s"] == pytest.approx(2.0)
    assert stats["trace.requests"] == 2
    layer_total = sum(stats[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_total + stats["unattributed_s"] == pytest.approx(7.0)


def test_wrapper_links_nested_calls_and_keeps_results():
    tr = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tr.wrap("coupling.vibronic_dipole", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tr.wrap("polarizability.build_line_list", outer)
    tr.request = 3
    assert wrapped_outer(1) == 4
    assert [s[tracing.NAME] for s in tr.spans] == ["polarizability.build_line_list", "coupling.vibronic_dipole"]
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0]
    assert {s[tracing.REQUEST] for s in tr.spans} == {3}
    assert all(s[tracing.END] >= s[tracing.START] for s in tr.spans)


def test_import_split_counts_lazy_subpackages_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |           numpy._core",
        "import time:       200 |        300 |         numpy",
        "import time:       400 |        700 |       scipy",
        "import time:        50 |         50 |           numpy.f2py",
        "import time:      1000 |       1050 |         scipy.constants._codata",
        "import time:        20 |         20 |         scipy.constants._constants",
        "import time:       500 |       2270 |       molpol.constants",
        "import time:      3000 |       3000 |       scipy.interpolate",
    ])
    split = run.import_split(text)
    assert split["setup.import.numpy_s"] == pytest.approx(300e-6)
    assert split["setup.import.scipy_constants_s"] == pytest.approx(1070e-6)
    assert split["setup.import.scipy_interpolate_s"] == pytest.approx(3000e-6)


# ---------------------------------------------------------------------------
# output checks: correct files pass, perturbed files fail


@pytest.fixture(scope="module")
def refs():
    return checks.load_refs()


def fmt(x: float) -> str:
    return f"{x:.12g}"


def write_alpha(out: Path, rows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    body = [",".join(map(fmt, r)) for r in rows]
    (out / "alpha.csv").write_text("\n".join(["nu_cm1,re,im", *body]) + "\n")
    plot = [" ".join(map(fmt, r)) for r in rows]
    (out / "alpha_plot.dat").write_text("\n".join(["# nu re im", *plot]) + "\n")
    (out / "alpha_report.json").write_text(json.dumps({"points": len(rows), "resonances_in_range": 30}))


def write_windows(out: Path, windows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    body = [",".join(map(fmt, (lo, hi, 1e7 / hi, 1e7 / lo, ratio, 0.01))) for lo, hi, ratio in windows]
    (out / "windows.csv").write_text("\n".join(["nu_lo,nu_hi,l_lo,l_hi,min_ratio,flat", *body]) + "\n")
    (out / "windows.json").write_text(json.dumps({"windows": [{} for _ in windows]}))


def alpha_req():
    return workloads.optical_alpha()


def test_alpha_check_accepts_reference_and_rejects_perturbations(tmp_path, refs):
    rows = [list(r) for r in refs["alpha"]]
    write_alpha(tmp_path / "good", rows)
    assert checks.check_request(alpha_req(), tmp_path / "good", refs, ROOT / "datasets") == []

    for name, edit in [
        ("re", lambda rs: rs[1800].__setitem__(1, rs[1800][1] * (1 + 1e-6))),
        ("im", lambda rs: rs[7].__setitem__(2, rs[7][2] * (1 - 1e-6))),
        ("nu", lambda rs: rs[9].__setitem__(0, rs[9][0] + 0.25)),
        ("row", lambda rs: rs.pop()),
    ]:
        bad = [list(r) for r in rows]
        edit(bad)
        write_alpha(tmp_path / name, bad)
        assert checks.check_request(alpha_req(), tmp_path / name, refs, ROOT / "datasets"), name

    (tmp_path / "good" / "alpha_plot.dat").unlink()
    assert checks.check_request(alpha_req(), tmp_path / "good", refs, ROOT / "datasets")


def test_windows_check_accepts_reference_and_rejects_perturbations(tmp_path, refs):
    req = workloads.optical_windows()
    write_windows(tmp_path / "good", refs["windows"])
    assert len(refs["windows"]) == 20
    assert checks.check_request(req, tmp_path / "good", refs, ROOT / "datasets") == []

    for i, (name, scale) in enumerate([("lo", (1, 0, 0)), ("hi", (0, 1, 0)), ("ratio", (0, 0, 1))]):
        bad = [list(w) for w in refs["windows"]]
        bad[5 + i] = [v + s * (0.5 if k < 2 else 0.01 * v) for k, (v, s) in enumerate(zip(bad[5 + i], scale))]
        write_windows(tmp_path / name, bad)
        assert checks.check_request(req, tmp_path / name, refs, ROOT / "datasets"), name

    write_windows(tmp_path / "short", refs["windows"][:-1])
    assert checks.check_request(req, tmp_path / "short", refs, ROOT / "datasets")


def recorded_case(tmp_path, refs, key, kind, edit=None):
    req = next(r for r in all_recorded_requests() if r["key"] == key)
    doc = json.loads(json.dumps(refs["recorded"][key]))
    if edit is not None:
        edit(doc)
    out = tmp_path / key.replace("/", "_") / ("bad" if edit else "good")
    out.mkdir(parents=True)
    (out / f"{kind}.json").write_text(json.dumps(doc))
    return checks.check_request(req, out, refs, ROOT / "datasets")


def all_recorded_requests():
    reqs = [workloads.optical_magic()]
    return reqs + [workloads.rotor_request(k, c) for c in workloads.rotor_combos() for k in workloads.ROTOR_KINDS]


def scale_root(doc, factor):
    doc["roots"][0]["nu_cm1"] *= factor


@pytest.mark.parametrize(
    "key,kind,edit",
    [
        ("optical/magic", "magic", lambda d: scale_root(d, 1 + 1e-6)),
        ("optical/magic", "magic", lambda d: d["roots"].pop()),
        ("krb_rotor_standin/J2/M1/sigma_z/magic", "magic", lambda d: d["roots"][0]["alpha_hz_per_wcm2"].__setitem__("re", 1.0)),
        ("rbcs_rotor_standin/J3/M-2/sigma_x/plan", "plan", lambda d: d.__setitem__("v0_over_h_hz", d["v0_over_h_hz"] * (1 + 1e-6))),
        ("krb_rotor_standin/J1/M1/sigma_x/dress", "dress", lambda d: d.__setitem__("d_induced_debye", d["d_induced_debye"] * 1.001)),
        ("krb_rotor_standin/J1/M1/sigma_x/dress", "dress", lambda d: d.pop("rabi_cm1")),
    ],
)
def test_recorded_checks_accept_reference_and_reject_perturbations(tmp_path, refs, key, kind, edit):
    assert recorded_case(tmp_path, refs, key, kind) == []
    assert recorded_case(tmp_path, refs, key, kind, edit)


@pytest.mark.parametrize("dataset", workloads.ROTORS)
def test_rotor_magic_root_is_eight_b(tmp_path, refs, dataset):
    key = f"{dataset}/J0/M0/sigma_z/magic"
    assert recorded_case(tmp_path, refs, key, "magic") == []
    b_rot = checks.rotational_constant(ROOT / "datasets" / dataset)
    root = refs["recorded"][key]["roots"][0]["nu_cm1"]
    assert math.isclose(root, 8.0 * b_rot, rel_tol=checks.B_RTOL)
    # a shift the recorded-reference tolerance allows still misses 8B
    problems = recorded_case(tmp_path, refs, key, "magic", lambda d: scale_root(d, 1 + 1e-8))
    assert problems and "8B" in problems[-1]


def test_missing_output_fails(tmp_path, refs):
    req = workloads.rotor_request("plan", workloads.rotor_combos()[0])
    assert checks.check_request(req, tmp_path / "absent", refs, ROOT / "datasets")


# ---------------------------------------------------------------------------
# workloads and the benchmark definition


def test_requests_depend_on_seed_only_and_have_references(refs):
    for wl in workloads.WORKLOADS:
        assert workloads.make_requests(wl, 7) == workloads.make_requests(wl, 7)
    a = workloads.make_requests("rotor-sweep", 1)
    b = workloads.make_requests("rotor-sweep", 2)
    assert [r["key"] for r in a] != [r["key"] for r in b]
    assert len(a) == 126
    assert sum(r["kind"] == "magic" for r in a) == len(workloads.rotor_combos())
    for r in a + workloads.make_requests("optical-magic", 1):
        assert r["key"] in refs["recorded"]


def test_benchmark_json_matches_run():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside perfbench")
    spec = json.loads(path.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
