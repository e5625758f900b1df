"""One benchmark client process: import the CLI, run one command, report.

    python3 worker.py --result R.json [--trace SPANS.json] [-- CLI ARGS...]

Without CLI arguments the worker only imports ``sixvertex.cli`` (a set-up
probe).  The result file holds perf_counter stamps (CLOCK_MONOTONIC, shared
with the parent on Linux), the command's exit code and the process's peak
RSS.  The parent sets the environment: PYTHONPATH and pinned BLAS threads.
"""

import json
import os
import resource
import sys
import time


def main():
    argv = sys.argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[:argv.index("--")] if "--" in argv else argv
    opts = dict(zip(own[::2], own[1::2]))

    import sixvertex.cli as cli
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready, "module": os.path.abspath(cli.__file__)}
    if cli_args:
        run = cli.main
        tracer = None
        if "--trace" in opts:
            import tracer as tracing  # this script's directory is sys.path[0]
            tracer = tracing.Tracer()
            run = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            rc = run(cli_args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter()
        sys.stdout.flush()
        out.update(rc=rc, t0=t0, t1=t1)
        if tracer is not None:
            tracer.dump(opts["--trace"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts["--result"], "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
