"""One workload pass in a fresh interpreter (started by run.py).

    python3 bench/worker.py SPEC.json

SPEC names the tasks, the directory for their CSV files, where to write
the result and whether to trace.  The worker imports zenolab from the
checkout's ``src`` and builds the CLI parser (``zenolab --help``), then
writes ``ready`` to stdout; the parent's clock from start to that line is
the pass's set-up time.  It then runs the tasks back to back, timing
each, and writes a JSON result: per-task latency, error and output hash,
the pass's wall time and the process's peak RSS, the environment, and in
a traced pass the per-layer metrics.  Hashes and file sizes are taken
after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_zenolab():
    """Import zenolab from the checkout and build its CLI parser."""
    sys.path.insert(0, SRC)
    import zenolab
    from zenolab import cli
    if not os.path.abspath(zenolab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"zenolab imported from {zenolab.__file__}, "
                          f"not from {SRC}")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    return cli


def _environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ.get(k, "") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    cli = import_zenolab()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = None
    if spec["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    tasks = spec["tasks"]
    latencies, errors, texts = [], [], []
    t_pass = time.perf_counter()
    for index, task in enumerate(tasks):
        out = os.path.join(spec["out_dir"], task["id"] + ".csv")
        if tracer is not None:
            tracer.task_id = index
        text = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = cli.main(task["argv"] + ["--out", out])
            error = None if code == 0 else f"exit code {code}: {text.getvalue()[-300:]}"
        except (Exception, SystemExit) as exc:    # a failed task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        errors.append(error)
        texts.append(text.getvalue())
    wall = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    hashes, csv_bytes = [], 0
    for task, text in zip(tasks, texts):
        path = os.path.join(spec["out_dir"], task["id"] + ".csv")
        digest = hashlib.sha256(text.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            csv_bytes += len(data)
        hashes.append(digest.hexdigest())

    result = {"latencies": latencies, "errors": errors, "hashes": hashes,
              "wall_s": wall, "peak_rss_mb": peak_rss_mb, "csv_bytes": csv_bytes,
              "environment": _environment()}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.save(spec["spans_path"])
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
