"""Digest of what the CLI writes for a fixed list of requests.

    python scripts/output_digest.py [SRC]

Runs each request of REQUESTS through molpol.cli.main, in this one
interpreter and in order, as a benchmark pass runs its requests (so later
requests read the datasets and blocks earlier ones loaded), with molpol
imported from SRC, by default the src/ beside this script. Each request
writes into its own temporary --out directory. For every request it prints
one line: the exit code, the sha1 of stdout with the --out directory written
as OUT, the sha1 of stderr, and the request; then one indented line per file
the request wrote: its sha1 and its name. Two source trees whose digests are
equal gave the same exit codes, messages and bytes:

    diff <(python scripts/output_digest.py old/src) <(python scripts/output_digest.py)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPTICAL = "datasets/rbcs_optical_standin"
SCAN = "--nu 8600:10399.5:0.5"
MAGIC = "--nu 8800:9600:1"

# a dataset argument is a path relative to the checkout's root
REQUESTS = [
    # the benchmark's optical requests; windows reads the scan alpha held
    f"alpha {OPTICAL} {SCAN} --plot",
    f"windows {OPTICAL} {SCAN} --min-width 5 --plot",
    f"magic {OPTICAL} --Ja 0 --Jb 1 {MAGIC} --plot",
    # every bound level kept: states that do not contract
    f"alpha {OPTICAL} {SCAN} --max-levels 200",
    f"magic {OPTICAL} --Ja 1 --Jb 2 {MAGIC} --max-levels 200",
    f"levels {OPTICAL} --J 3 --max-levels 200",
    f"fcf {OPTICAL} --final-state A0 --max-v 200",
    f"levels {OPTICAL} --J 1 --check",
    "magic datasets/krb_rotor_standin --Ja 2 --Jb 3 --nu 0.005:1.5:0.0005 --gamma 0 --plot",
    "plan datasets/rbcs_rotor_standin --J 3 --nm 1064 --intensity 1e4",
    "dress datasets/krb_rotor_standin --nu 0.0337 --intensity 100",
]


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def digest(requests: list[str]) -> list[str]:
    """The digest lines of the requests, run in order through the molpol already imported."""
    from molpol.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, request in enumerate(requests):
            out = Path(tmp) / f"{i:02d}"
            argv = [str(ROOT / word) if word.startswith("datasets/") else word for word in request.split()]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main([*argv, "--out", str(out)])
                except SystemExit as exc:   # a usage error
                    code = exc.code
            text = stdout.getvalue().replace(str(out), "OUT")
            lines.append(f"{code} {_sha1(text.encode())} {_sha1(stderr.getvalue().encode())} {request}")
            files = sorted(p for p in out.rglob("*") if p.is_file())   # none when the request wrote nothing
            lines += [f"  {_sha1(p.read_bytes())} {p.relative_to(out)}" for p in files]
    return lines


def main(argv: list[str]) -> None:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path.insert(0, str(src))
    import molpol

    if Path(molpol.__file__).resolve().parent != src / "molpol":
        sys.exit(f"molpol was imported from {Path(molpol.__file__).parent}, not from {src}")
    print("\n".join(digest(REQUESTS)))


if __name__ == "__main__":
    main(sys.argv[1:])
