"""Benchmark workloads: the CLI requests one pass sends, made from a seed.

A request is a dict with a reference `key`, a `kind` (the subcommand), the
`dataset` it reads, and the `argv` for `molpol.cli.main` minus the dataset
path and `--out`, which the pass adds.

- optical-scan: `alpha --plot` and `windows --min-width 5` on the optical
  stand-in over 8600..10399.5 cm^-1 in 0.5 steps, computed linewidths. The
  two requests share one initial level; the seed picks their order.
- optical-magic: one `magic` request on the optical stand-in, X0 v0 J0 vs J1,
  over 8800..9600 cm^-1 in 1 cm^-1 steps, computed linewidths.
- rotor-sweep: on both rotor stand-ins with --gamma 0, a `magic` request
  (J -> J+1 at one M) for each of the 100 (dataset, J, M, polarization)
  combinations, plus 13 `plan` and 13 `dress` requests on combinations the
  seed samples; the seed also shuffles the request order. Every seed sends
  the same magic requests, so the work per pass barely depends on the seed.

BENCHMARK.json lists only the two optical workloads. rotor-sweep stays
runnable by hand: its time is almost all small Python objects, and on a
shared 2-vCPU machine its run-to-run spread (0.31 of the median for pass_s,
0.47 for request_p50_s over ten seeds) exceeded the largest bound a gated
metric may have.
"""

from __future__ import annotations

import random

OPTICAL = "rbcs_optical_standin"
ROTORS = ("krb_rotor_standin", "rbcs_rotor_standin")

SCAN_NU = "8600:10399.5:0.5"
MAGIC_NU = "8800:9600:1"
ROTOR_NU = "0.005:1.5:0.0005"
ROTOR_J = range(0, 5)
ROTOR_POLS = ("sigma_z", "sigma_x")
ROTOR_KINDS = ("magic", "plan", "dress")
ROTOR_PLANS = 13       # plan and dress requests drawn per seed
ROTOR_DRESSES = 13

WORKLOADS = ("optical-scan", "optical-magic", "rotor-sweep")

# dataset each workload loads during set-up
SETUP_DATASET = {"optical-scan": OPTICAL, "optical-magic": OPTICAL, "rotor-sweep": ROTORS[0]}


def _level(J: int = 0, M: int = 0, pol: str = "sigma_z") -> list[str]:
    return ["--state", "X0", "--v", "0", "--J", str(J), "--M", str(M), "--pol", pol]


def optical_alpha() -> dict:
    return {
        "key": "optical/alpha",
        "kind": "alpha",
        "dataset": OPTICAL,
        "argv": ["alpha", *_level(), "--nu", SCAN_NU, "--plot"],
    }


def optical_windows() -> dict:
    return {
        "key": "optical/windows",
        "kind": "windows",
        "dataset": OPTICAL,
        "argv": ["windows", *_level(), "--nu", SCAN_NU, "--min-width", "5"],
    }


def optical_magic() -> dict:
    return {
        "key": "optical/magic",
        "kind": "magic",
        "dataset": OPTICAL,
        "argv": ["magic", "--Ja", "0", "--Ma", "0", "--Jb", "1", "--Mb", "0", "--nu", MAGIC_NU],
    }


def rotor_combos() -> list[tuple[str, int, int, str]]:
    """The full (dataset, J, M, polarization) set the rotor sweep samples."""
    return [
        (ds, J, M, pol)
        for ds in ROTORS
        for J in ROTOR_J
        for M in range(-J, J + 1)
        for pol in ROTOR_POLS
    ]


def rotor_request(kind: str, combo: tuple[str, int, int, str]) -> dict:
    """magic J -> J+1 at fixed M, a lattice plan at 1064 nm, or a dressing plan."""
    ds, J, M, pol = combo
    if kind == "magic":
        argv = [
            "magic", "--Ja", str(J), "--Ma", str(M), "--Jb", str(J + 1), "--Mb", str(M),
            "--pol-a", pol, "--pol-b", pol, "--nu", ROTOR_NU,
        ]
    elif kind == "plan":
        argv = ["plan", *_level(J, M, pol), "--nm", "1064", "--intensity", "1e4"]
    else:
        dress_nu = 0.0337 * (1.0 + 0.05 * J)
        argv = ["dress", "--nu", repr(dress_nu), "--intensity", str(100 * (1 + abs(M)))]
    return {
        "key": f"{ds}/J{J}/M{M}/{pol}/{kind}",
        "kind": kind,
        "dataset": ds,
        "J": J,
        "M": M,
        "pol": pol,
        "argv": argv + ["--gamma", "0"],
    }


def make_requests(workload: str, seed: int) -> list[dict]:
    """The requests of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "optical-scan":
        reqs = [optical_alpha(), optical_windows()]
    elif workload == "optical-magic":
        reqs = [optical_magic()]
    elif workload == "rotor-sweep":
        combos = rotor_combos()
        reqs = [rotor_request("magic", c) for c in combos]
        reqs += [rotor_request("plan", c) for c in rng.sample(combos, ROTOR_PLANS)]
        reqs += [rotor_request("dress", c) for c in rng.sample(combos, ROTOR_DRESSES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
