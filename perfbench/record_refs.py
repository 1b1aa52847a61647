"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Runs every optical-magic and rotor-sweep request the workloads can sample
through `molpol.cli.main`, stores each one's JSON output in
perfbench/refs/recorded.json, and copies the committed out/optical tables
into perfbench/refs. Rerun it only when a change is meant to alter results,
and say so with the change. It fails if any request exits non-zero.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from molpol.cli import main as cli_main  # noqa: E402


def main() -> int:
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    shutil.copyfile(ROOT / "out" / "optical" / "alpha.dat", refs / "optical_alpha.dat")
    shutil.copyfile(ROOT / "out" / "optical" / "report.txt", refs / "optical_report.txt")

    reqs = [workloads.optical_magic()]
    reqs += [workloads.rotor_request(k, c) for c in workloads.rotor_combos() for k in workloads.ROTOR_KINDS]
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for req in reqs:
            out = Path(tmp) / req["key"].replace("/", "_")
            argv = [req["argv"][0], str(ROOT / "datasets" / req["dataset"]), *req["argv"][1:]]
            with redirect_stdout(StringIO()):
                rc = cli_main(argv + ["--out", str(out)])
            if rc != 0:
                sys.stderr.write(f"{req['key']}: exit {rc}\n")
                return 1
            recorded[req["key"]] = json.loads((out / f"{req['kind']}.json").read_text())
    (refs / "recorded.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} outputs -> {refs / 'recorded.json'}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
