"""zenolab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload crossover_scan --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 42

Closed loop, one client: the seed's pass (workloads.py) runs back to back
in fresh child interpreters (worker.py), one pass per child, until the
next pass would end after ``--seconds`` (at least two passes).  Only one
child runs at a time and BLAS/OpenMP are pinned to one thread, so the
benchmark keeps one core busy.  A warm-up child runs first, untimed, so
bytecode caches exist before set-up is timed.

``--trace 0`` reports the end-to-end metrics:

    setup_s      child start to ready (import zenolab and scipy, build the
                 CLI parser), median over the passes and, when there are
                 fewer than 7 passes, import-only children
    wall_s       wall time of one pass, median over passes
    task_p50_s   median task latency, pooled over passes
    task_tail_s  task latency at a percentile fixed per workload, pooled
                 over passes and interpolated between neighbouring task
                 runs: the highest with at least 10 task runs beyond it in
                 a 42 s run when the benchmark was defined
                 (workloads.TAIL_PERCENTILE)
    peak_rss_mb  peak RSS of the child that ran the pass, median over passes

``--trace 1`` alternates plain and traced passes (tracer.py) and reports
the per-layer metrics of the traced passes, the tracing overhead (traced
minus plain ``wall_s``), ``failed_frac`` and ``max_ref_dev``.

Every run checks its outputs (checks.py): each task's CSV against
independent references, and every pass's output bytes against the first
pass's, which makes re-runs and traced runs byte-identical or failed.
``failed_frac`` is failed task runs over attempted ones; ``max_ref_dev``
the largest relative deviation of a checked value from its reference.
Both are printed on every run and reported as per-layer metrics:
max_ref_dev changes with the seed by orders of magnitude and failed_frac
is 0 on a correct run, so neither can carry a relative bound.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric by name and unit, the sample counts behind each percentile and the
environment.  The exit code is 1 when an output check fails and 2 when
the program cannot be run at all (no result is printed then).  Scratch
files go to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                  "VECLIB_MAXIMUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0
MIN_PASSES = 2
MIN_SETUPS = 7


class BenchError(RuntimeError):
    """The program under test could not be run."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZENOLAB_")}
    env.update(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(script: str, spec: dict, spec_path: str, log_path: str,
              wait_ready: bool) -> float:
    """Run one child to completion; returns seconds from start to 'ready'."""
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), spec_path],
                                stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                                env=child_env())
        try:
            ready = proc.stdout.readline() if wait_ready else b"ready\n"
            setup = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script} ran longer than {CHILD_TIMEOUT_S:g} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or ready != b"ready\n":
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{script} exited with code {code}:\n{tail}")
    return setup


def tail_percentile(samples: list[float], q: float) -> tuple[float, int]:
    """(value, samples beyond) of the q-th percentile, interpolated linearly
    between the two nearest samples.  Nearest rank would jump from one
    sample to the next as the number of passes in a run changes."""
    xs = sorted(samples)
    pos = q / 100.0 * (len(xs) - 1)
    k = math.floor(pos)
    value = xs[k] if k + 1 == len(xs) else xs[k] + (pos - k) * (xs[k + 1] - xs[k])
    return value, sum(x > value for x in xs)


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tasks = workloads.make_pass(workload, seed)
        os.makedirs(RUNS, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS)
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.environment: dict = {}

    def _pass(self, index: int, traced: bool, tasks: list[dict]) -> dict:
        out_dir = os.path.join(self.dir, f"pass{index}")
        os.makedirs(out_dir)
        spec = {"tasks": tasks, "out_dir": out_dir, "traced": traced,
                "result_path": os.path.join(self.dir, f"pass{index}.json"),
                "spans_path": os.path.join(RUNS, f"{self.workload}.spans.npz")}
        t0 = time.perf_counter()
        setup = run_child("worker.py", spec, os.path.join(self.dir, f"pass{index}.spec"),
                          os.path.join(self.dir, f"pass{index}.log"), wait_ready=True)
        duration = time.perf_counter() - t0
        with open(spec["result_path"]) as fh:
            result = json.load(fh)
        result.update(setup_s=setup, duration_s=duration, traced=traced,
                      out_dir=out_dir)
        return result

    def measure(self):
        warm = self._pass(0, False, [])            # untimed: bytecode and file caches
        self.environment = warm["environment"]
        begin = time.perf_counter()
        longest = 0.0
        index = 1
        while True:
            traced = self.traced and index % 2 == 0
            result = self._pass(index, traced, self.tasks)
            self.passes.append(result)
            longest = max(longest, result["duration_s"])
            index += 1
            elapsed = time.perf_counter() - begin
            if len(self.passes) >= MIN_PASSES and elapsed + longest > self.seconds:
                break
        # few long passes give few set-up samples: top up with import-only children
        self.setups = [p["setup_s"] for p in self.passes if not p["traced"]]
        while not self.traced and len(self.setups) < MIN_SETUPS:
            self.setups.append(self._pass(index, False, [])["setup_s"])
            index += 1

    def check(self) -> list[dict]:
        spec = {"tasks": self.tasks, "seed": self.seed,
                "csv_dir": self.passes[0]["out_dir"],
                "result_path": os.path.join(self.dir, "checks.json")}
        run_child("checks.py", spec, os.path.join(self.dir, "checks.spec"),
                  os.path.join(self.dir, "checks.log"), wait_ready=False)
        with open(spec["result_path"]) as fh:
            return json.load(fh)

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def summarize(run: Run, checks: list[dict]) -> tuple[dict, list[str]]:
    """The result object and the human-readable report lines."""
    plain = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    reference = run.passes[0]["hashes"]
    attempted = failed = 0
    problems: Counter[str] = Counter()
    for p in run.passes:
        for j, task in enumerate(run.tasks):
            attempted += 1
            why = p["errors"][j]
            if why is None and not checks[j]["ok"]:
                why = "; ".join(checks[j]["problems"])
            if why is None and p["hashes"][j] != reference[j]:
                why = ("traced output differs from the untraced output" if p["traced"]
                       else "re-run output is not byte-identical")
            if why is not None:
                failed += 1
                problems[f"{task['id']} {' '.join(task['argv'])}: {why}"] += 1
    # a check that could not run already failed its task; a non-finite
    # deviation is reported as the largest float, which JSON can carry
    max_dev = min(max((c["max_dev"] for c in checks if c["max_dev"] is not None),
                      default=0.0), sys.float_info.max)
    failed_frac = failed / attempted

    setups = run.setups
    walls = [p["wall_s"] for p in plain]
    lat = [x for p in plain for x in p["latencies"]]
    rss = [p["peak_rss_mb"] for p in plain]
    pct = workloads.TAIL_PERCENTILE[run.workload]
    tail, beyond = tail_percentile(lat, pct)
    e2e = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
           "task_p50_s": statistics.median(lat), "task_tail_s": tail,
           "peak_rss_mb": statistics.median(rss)}
    env = run.environment
    lines = [
        f"zenolab benchmark: workload={run.workload} seed={run.seed} "
        f"seconds={run.seconds:g} trace={int(run.traced)}",
        f"  why: {workloads.WHY[run.workload]}",
        f"  environment: nproc={env.get('nproc')} python={env.get('python')} "
        f"numpy={env.get('numpy')} scipy={env.get('scipy')} blas={env.get('blas')} "
        + " ".join(f"{k}={v}" for k, v in env.get("threads", {}).items()),
        f"  passes: {len(plain)} plain, {len(traced)} traced; "
        f"{len(run.tasks)} tasks per pass",
    ]
    notes = {
        "setup_s": f"median of {len(setups)} children, quartiles "
                   f"{quartiles(setups)[0]:.4f}..{quartiles(setups)[1]:.4f}",
        "wall_s": f"median of {len(walls)} passes, quartiles "
                  f"{quartiles(walls)[0]:.4f}..{quartiles(walls)[1]:.4f}",
        "task_p50_s": f"median of {len(lat)} task runs",
        "task_tail_s": f"p{pct:g} of {len(lat)} task runs, {beyond} beyond",
        "peak_rss_mb": f"median of {len(rss)} passes, max {max(rss):.1f}",
    }
    spec = load_spec()
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']:<12} {e2e[m['name']]:12.6g} {m['unit']:<5} "
                     f"{notes[m['name']]}")
    lines.append(f"  {'failed_frac':<12} {failed_frac:12.6g} ratio "
                 f"{failed} of {attempted} task runs")
    lines.append(f"  {'max_ref_dev':<12} {max_dev:12.6g} ratio over "
                 f"{sum(c['checks'] for c in checks)} checked values")
    lines += [f"  FAILED x{n} {p}" for p, n in problems.most_common(20)]

    if run.traced:
        layers = {}
        for key in traced[0]["layers"]:
            values = [p["layers"][key] for p in traced]
            # counts repeat exactly from pass to pass; times get the median
            layers[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / e2e["wall_s"]
        layers["cli.csv_bytes"] = traced[0]["csv_bytes"]
        layers["failed_frac"] = failed_frac
        layers["max_ref_dev"] = max_dev
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        lines.append("  per-layer metrics of the traced passes (median):")
        lines += [f"    {name:<44} {m['value']:14.6g} {m['unit']}"
                  for name, m in metrics.items()]
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    run = Run(workload, seed, seconds, traced)
    try:
        run.measure()
        checks = run.check()
        result, lines = summarize(run, checks)
        with open(os.path.join(RUNS, f"{workload}-seed{seed}-trace{int(traced)}.json"),
                  "w") as fh:
            json.dump({"result": result, "report": lines, "environment": run.environment,
                       "passes": [{k: v for k, v in p.items() if k != "out_dir"}
                                  for p in run.passes],
                       "checks": checks, "tasks": run.tasks}, fh, indent=1)
    finally:
        run.cleanup()
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "zenolab", "__init__.py")):
        print(f"bench: no zenolab package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    correct = True
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            correct = correct and result["correct"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
