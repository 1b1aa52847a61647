"""One benchmark pass, run by run.py in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the molpol source tree, the dataset to load during set-up, the
requests and their output directories, whether to trace, and the file to
write the results to. Set-up (import of molpol.cli, then the first
load_dataset) is timed before any request; the pass is every request in
order through `molpol.cli.main(argv)`, each with its own `--out`.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(open(sys.argv[1]).read())
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import molpol.cli

    t1 = time.perf_counter()
    from molpol.dataset import load_dataset

    load_dataset(spec["setup_dataset"])
    t2 = time.perf_counter()

    # imported only now, so that set-up times what molpol itself needs
    import contextlib
    import io
    import os
    import resource

    if not os.path.abspath(molpol.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.stderr.write(f"molpol imported from {molpol.__file__}, not from {spec['src']}\n")
        return 2

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    pass_start = time.perf_counter()
    for i, req in enumerate(spec["requests"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = molpol.cli.main(req["argv"])
            except SystemExit as exc:    # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:     # a traceback is a failed request, not a failed pass
                rc = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        results.append({"rc": rc, "s": time.perf_counter() - t, "stderr": err.getvalue()[-400:]})
    pass_s = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "setup_s": t2 - t0,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": results,
    }
    if tracer is not None:
        report["trace"] = tracing.summarize(tracer, pass_s)
    if spec.get("machine"):
        import machine

        report["machine"] = machine.notes()
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
