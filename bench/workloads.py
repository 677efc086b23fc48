"""Seeded workload generators.

A workload turns a seed into one *pass*: a list of tasks, each an
in-process ``zenolab.cli.main(argv)`` call.  The benchmark repeats the
same pass several times per run, so every pass does the same work and the
spread between passes is measurement noise.  The seed varies the inputs
between runs.

Expensive task kinds are stratified (every pass holds one of each), and
the seed draws only values that barely change their cost, so that runs
with different seeds do comparable work.  Each task carries a ``check``
record naming what the output checker verifies.
"""

from __future__ import annotations

import math
import random

# coupling and level splitting of the oracle reference configuration
# (tests/conftest.py); the bath is the exp family at W = 1
ORACLE_G = 0.1
ORACLE_OMEGA = 0.2

# relative-gap bounds tests/test_oracle.py holds each oracle protocol to
ORACLE_BOUNDS = {"free": 0.05, "zeno": 0.10, "kick": 0.15, "continuous": 0.15}

WHY = {
    "crossover_scan": (
        "default-regime crossover command: 3201-point scalar tau*/K* scans "
        "down rates->numerics->spectral; loads what a batched rate engine "
        "speeds up, never touches the oracle"),
    "oracle_validate": (
        "oracle commands at g=0.1, Omega=0.2, beta=inf: dense eigh and the "
        "kick matvec loop; loads the oracle, bypasses the rate kernels "
        "(a handful of calls)"),
    "figure_set": (
        "figure 2..11, density, sweep and evolve commands: many short CLI "
        "calls on 161- to 801-point grids; the only load on lindblad and "
        "the CLI loops, bypasses the oracle and the crossover scans"),
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}")


def _beta(rng: random.Random) -> float:
    """A finite inverse temperature around the reference 50/W."""
    return _log_uniform(rng, 35.0, 70.0)


def _omega(rng: random.Random) -> float:
    """A level splitting around the reference 0.01 W."""
    return _log_uniform(rng, 0.007, 0.014)


# the task-latency percentile reported as task_tail_s: the highest with at
# least 10 task runs beyond it in a 42 s run of the first benchmarked
# commit.  crossover_scan has only 7 to 9 task runs there, so it takes
# p75, interpolated between neighbouring runs, which one slow pass cannot
# move.  The percentile stays fixed when a faster program fits more
# passes, so the tail keeps measuring the same tasks.
TAIL_PERCENTILE = {"crossover_scan": 75.0, "oracle_validate": 80.0,
                   "figure_set": 92.0}


def _task(tid: int, argv: list[str], check: dict) -> dict:
    return {"id": f"t{tid:02d}", "argv": argv, "check": check}


def crossover_scan(rng: random.Random) -> list[dict]:
    """One crossover command in the CLI's default regime: exp family at a
    finite beta, with beta, Omega and the quick-estimate exponent drawn.

    A pass is a single scan (about 4 to 5 s), so a run holds seven or
    more passes and its medians absorb a slow pass.  Poly and beta = inf scans
    cost a third to a half less than this one, so a seed that drew them
    would change the work of a run; a pass holding several of them would
    leave only two or three passes per run.
    """
    argv = ["crossover", "--family", "exp", "--n", str(rng.choice([2, 3])),
            "--beta", repr(_beta(rng)), "--omega", repr(_omega(rng))]
    return [_task(0, argv, {"kind": "crossover"})]


def oracle_validate(rng: random.Random) -> list[dict]:
    """Seven oracle commands covering the free, zeno, kick and continuous
    protocols, with M, tau and K drawn inside the windows that
    tests/test_oracle.py validates.

    The two costly protocols (kick, continuous) run once at M = 300 and
    once at M = 600, so every pass builds the same largest model.
    """
    common = ["--g", repr(ORACLE_G), "--omega", repr(ORACLE_OMEGA),
              "--beta", "inf"]
    specs = [
        ("free", rng.choice([200, 300, 400]), []),
        ("free", rng.choice([200, 300, 400]), []),
        ("zeno", rng.choice([300, 400]),
         sorted(_log_uniform(rng, 0.1, 2.0) for _ in range(4))),
        ("kick", 300, [_log_uniform(rng, 0.5, 1.0)]),
        ("kick", 600, [_log_uniform(rng, 0.5, 1.0)]),
        # one K from each half of the window: the fit's cost falls with K
        ("continuous", 300, [_log_uniform(rng, 2.0, 3.2), _log_uniform(rng, 3.2, 5.0)]),
        ("continuous", 600, [_log_uniform(rng, 2.0, 5.0)]),
    ]
    rng.shuffle(specs)
    tasks = []
    for i, (protocol, M, values) in enumerate(specs):
        argv = ["oracle", "--protocol", protocol, "--modes", str(M)] + common
        if values:
            argv += ["--values", ",".join(repr(v) for v in values)]
        tasks.append(_task(i, argv, {"kind": "oracle", "protocol": protocol}))
    return tasks


def figure_set(rng: random.Random) -> list[dict]:
    """Nineteen short commands sharing seeded common flags.

    Figures 2..11, two density grids, one sweep per strategy and one
    evolve per strategy.  An odd count puts the median task latency inside
    one task's cluster rather than between two.
    """
    family = rng.choice(["exp", "poly"])
    n = rng.choice([2, 3])
    common = ["--family", family, "--n", str(n), "--beta", repr(_beta(rng)),
              "--omega", repr(_omega(rng))]
    plans: list[tuple[list[str], dict]] = []
    for fig_id in range(2, 12):
        plans.append((["figure", "--id", str(fig_id)],
                      {"kind": "figure", "id": fig_id}))
    plans.append((["density"], {"kind": "density"}))
    lo = -round(rng.uniform(0.5, 2.0), 3)
    hi = round(rng.uniform(2.0, 4.0), 3)
    plans.append((["density", f"--grid={lo!r}:{hi!r}:401lin"], {"kind": "density"}))
    for strategy in ("zeno", "kick", "continuous"):
        plans.append((["sweep", "--strategy", strategy],
                      {"kind": "sweep", "strategy": strategy}))
    tau = _log_uniform(rng, 0.5, 5.0)
    K = _log_uniform(rng, 0.5, 5.0)
    g0 = repr(round(rng.uniform(0.2, 1.0), 3))
    for strategy in ("free", "zeno", "kick", "continuous"):
        state = rng.choice(["up", "plus", "mixed"])
        plans.append((["evolve", "--strategy", strategy, "--state", state,
                       "--g0", g0, "--tau", repr(tau), "--K", repr(K)],
                      {"kind": "evolve", "strategy": strategy}))
    rng.shuffle(plans)
    return [_task(i, argv + common, check)
            for i, (argv, check) in enumerate(plans)]


GENERATORS = {
    "crossover_scan": crossover_scan,
    "oracle_validate": oracle_validate,
    "figure_set": figure_set,
}


def make_pass(workload: str, seed: int) -> list[dict]:
    """The seed's pass for ``workload``; the same seed gives the same tasks."""
    if workload not in GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(GENERATORS)}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
