"""Output checks for one pass's CSV files (started by run.py).

    python3 bench/checks.py SPEC.json

Runs in its own interpreter, after the timed passes, so checking costs
no measured time.  For every task it verifies the CSV the task wrote and
records the relative deviation of each checked value from its reference:

* crossover: each finder reported a crossing, and the residual
  |ratio(root) - 1|, recomputed with zenolab's public scalar kernels, is
  below 1e-9 (the root is bracketed to about 1e-12);
* sweeps and ratio figures: every ratio is finite and positive, and
  seeded spot rows match the independent references of reference.py:
  Zeno within 1e-5 (the accuracy zeno_rate documents for its tail
  treatment), kicks within the truncation bound kick_rate reports,
  continuous coupling within 1e-11;
* densities, response figures and free or continuous evolutions: every
  row against the closed forms, within 1e-11 relative (1e-10 absolute
  for Bloch components); zeno and kick evolutions: Bloch-state invariants;
* oracle: the fitted rate's gap to the analytic rate lies within the
  bound tests/test_oracle.py holds that protocol to, and the analytic
  rate matches its independent reference.

Byte-identical re-runs are checked by run.py, which compares the output
hashes of every pass.
"""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np

import reference as ref
from worker import import_zenolab
from workloads import ORACLE_BOUNDS

CROSSOVER_TOL = 1e-9
ZENO_TOL = 1e-5
CLOSED_FORM_TOL = 1e-11
BLOCH_TOL = 1e-10
SPOT_ROWS = 2
# magnitudes below this compare as equal: zenolab floors exp() at e^-700
# where the exact density underflows to zero
TINY = 1e-290


class Check:
    """Accumulates the comparisons made for one task."""

    def __init__(self):
        self.max_dev = 0.0
        self.count = 0
        self.problems: list[str] = []

    def require(self, cond: bool, message: str):
        self.count += 1
        if not cond:
            self.problems.append(message)

    def compare(self, got, want, rel_tol: float, what: str, abs_tol: float = 0.0):
        """Relative deviation of ``got`` from ``want``, recorded and bounded."""
        got = np.atleast_1d(np.asarray(got, dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        diff = np.abs(got - want)
        scale = np.maximum(np.abs(want), TINY)
        dev = np.where(np.isfinite(diff), diff / scale, np.inf)
        ok = diff <= rel_tol * scale + abs_tol + TINY
        self.count += got.size
        if dev.size:
            self.max_dev = max(self.max_dev, float(dev.max()))
        if not ok.all():
            i = int(np.argmin(ok))
            self.problems.append(f"{what}: {float(got[i])!r} vs reference {float(want[i])!r}")


def read_csv(path: str):
    header: dict[str, str] = {}
    config: dict[str, str] = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                if key == "config":
                    config = dict(kv.split("=", 1) for kv in value.split())
                else:
                    header[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns or []))
    return config, header, {name: data[:, i] for i, name in enumerate(columns or [])}


def _density(config, family=None, beta=None, g=None) -> ref.Density:
    return ref.Density(family or config["family"], int(config["n"]),
                       float(g if g is not None else config["g"]),
                       float(beta if beta is not None else config["beta"]))


def _tsd(z, config, family=None, beta=None):
    ff = z.form_factor_for_bandwidth(family or config["family"], W=float(config["W"]),
                                     g=float(config["g"]), n=int(config["n"]))
    return ff.thermal(float(beta if beta is not None else config["beta"]))


# ---------------------------------------------------------------------------

def check_crossover(z, config, cols, chk: Check):
    tsd = _tsd(z, config)
    omega = float(config["omega"])
    gamma = z.golden_rule_rate(tsd, omega)
    kernels = {0: lambda t: z.zeno_rate(tsd, omega, t),
               1: lambda t: z.kick_rate(tsd, omega, t).gamma,
               2: lambda K: z.continuous_rate(tsd, omega, K)}
    chk.require(len(cols["strategy_index"]) == 3, "crossover CSV lacks a finder row")
    for i, star, n_cross, none in zip(cols["strategy_index"], cols["star_value"],
                                      cols["n_crossings"], cols["no_crossing"]):
        chk.require(none == 0.0 and n_cross >= 1, f"finder {int(i)} found no crossing")
        chk.require(math.isfinite(star) and star > 0, f"finder {int(i)} root {star}")
        if math.isfinite(star) and star > 0:
            ratio = kernels[int(i)](star) / gamma
            chk.compare(ratio, 1.0, CROSSOVER_TOL, f"ratio at root of finder {int(i)}")


def _ratio_reference(z, config, strategy, family, x):
    """Reference ratio at grid point x, plus the tolerance for it."""
    dens = _density(config, family)
    omega = float(config["omega"])
    W = float(config["W"])
    gamma_free = ref.golden_rule_rate(dens, omega)
    if strategy == "zeno":
        return ref.zeno_rate(dens, omega, x / W) / gamma_free, ZENO_TOL, 0.0
    if strategy == "kick":
        bound = z.kick_rate(_tsd(z, config, family), omega, x / W).truncation_error
        rate = ref.kick_rate(dens, omega, x / W) / gamma_free
        return rate, CLOSED_FORM_TOL, bound / gamma_free
    K = float(config["conversion_c"]) / (x / W)
    return ref.continuous_rate(dens, omega, K) / gamma_free, CLOSED_FORM_TOL, 0.0


def check_ratios(z, config, cols, chk: Check, rng, strategies):
    """strategies maps ratio column -> (strategy, family)."""
    x = cols["x"]
    for col, (strategy, family) in strategies.items():
        vals = cols[col]
        chk.require(bool(np.all(np.isfinite(vals) & (vals > 0))),
                    f"{col}: ratio not finite and positive")
        for row in rng.sample(range(len(x)), SPOT_ROWS):
            want, rel, absolute = _ratio_reference(z, config, strategy, family, x[row])
            chk.compare(vals[row], want, rel, f"{col} at x={float(x[row])!r}", absolute)


def check_density(config, header, cols, chk: Check):
    w = cols["omega_over_W"] * float(config["W"])
    if "kappa_exp" in cols:                      # the density command
        for fam in ("exp", "poly"):
            dens = _density(config, fam)
            chk.compare(cols[f"kappa_{fam}"], dens.bare(w), CLOSED_FORM_TOL, f"kappa_{fam}")
            chk.compare(cols[f"kappa_beta_{fam}"], dens.thermal(w), CLOSED_FORM_TOL,
                        f"kappa_beta_{fam}")
        return
    low, high = (float(b) for b in header["betas"].split(","))   # figure 2
    for fam in ("exp", "poly"):
        for label, beta in (("low", low), ("high", high)):
            chk.compare(cols[f"kappa_beta_{fam}_{label}_T"],
                        _density(config, fam, beta=beta).thermal(w), CLOSED_FORM_TOL,
                        f"kappa_beta_{fam}_{label}_T")


def check_response(config, header, cols, chk: Check):
    """Figures 8 and 9: thermal density and its control-response overlays."""
    w = cols["omega_over_W"] * float(config["W"])
    tau = float(header["tau"])
    omega = float(header["omega_response"])
    kb = _density(config, "poly").thermal(w)
    j_half = np.abs(w - omega) * tau / (2.0 * math.pi)
    with np.errstate(divide="ignore"):
        kick = np.where(j_half > 0, (2.0 / math.pi) * kb / j_half ** 2, np.nan)
    chk.compare(cols["kappa_beta"], kb, CLOSED_FORM_TOL, "kappa_beta")
    chk.compare(cols["zeno_weighted"],
                tau * kb * np.sinc((w - omega) * tau / (2.0 * math.pi)) ** 2,
                CLOSED_FORM_TOL, "zeno_weighted")
    finite = j_half > 0
    chk.require(bool(np.all(np.isnan(cols["kick_envelope"][~finite]))),
                "kick_envelope defined at the line centre")
    chk.compare(cols["kick_envelope"][finite], kick[finite], CLOSED_FORM_TOL,
                "kick_envelope")
    chk.compare(cols["continuous_envelope"], math.pi * kb, CLOSED_FORM_TOL,
                "continuous_envelope")


_BLOCH0 = {"up": (0.0, 0.0, 1.0), "down": (0.0, 0.0, -1.0),
           "mixed": (0.0, 0.0, 0.0), "plus": (1.0, 0.0, 0.0)}


def check_evolve(config, header, cols, chk: Check):
    t, p_up, purity = cols["t"], cols["p_up"], cols["purity"]
    x, y, zz = cols["bloch_x"], cols["bloch_y"], cols["bloch_z"]
    r2 = x * x + y * y + zz * zz
    chk.require(bool(np.all(np.isfinite(r2)) and np.all(r2 <= 1.0 + 1e-12)),
                "Bloch vector outside the unit ball")
    chk.compare(p_up, 0.5 * (1.0 + zz), 0.0, "p_up vs bloch_z", BLOCH_TOL)
    chk.compare(purity, 0.5 * (1.0 + r2), 0.0, "purity vs Bloch length", BLOCH_TOL)
    strategy = header["strategy"]
    if strategy not in ("free", "continuous"):
        return
    # closed-form Bloch solution with channel rates from the reference density
    omega = float(config["omega"])
    beta = float(config["beta"])
    flip = _density(config)
    if strategy == "free":
        g_down, g_up = (ref.golden_rule_rate(flip, omega),
                        ref.golden_rule_rate(flip, -omega))
    else:
        K = float(header["K"])
        g_down = ref.continuous_rate(flip, omega, K)
        g_up = ref.continuous_rate(flip, -omega, K)
    g0 = float(header["g0"])
    g_dephase = 0.0
    if g0 > 0:
        deph = _density(config, g=g0)
        if strategy == "free":
            g_dephase = 0.0 if math.isinf(beta) else 2.0 * math.pi * deph.scalar(0.0)
        else:
            g_dephase = ref.continuous_rate(deph, 0.0, K)
    x0, y0, z0 = _BLOCH0[header["state"]]
    g1 = g_down + g_up
    z_inf = (g_up - g_down) / g1
    decay = np.exp(-(2.0 * g_dephase + 0.5 * g1) * t)
    c, s = np.cos(omega * t), np.sin(omega * t)
    chk.compare(zz, z_inf + (z0 - z_inf) * np.exp(-g1 * t), 0.0, "bloch_z", BLOCH_TOL)
    chk.compare(x, decay * (x0 * c - y0 * s), 0.0, "bloch_x", BLOCH_TOL)
    chk.compare(y, decay * (x0 * s + y0 * c), 0.0, "bloch_y", BLOCH_TOL)


def check_oracle(z, config, header, cols, chk: Check):
    protocol = header["protocol"]
    bound = ORACLE_BOUNDS[protocol]
    omega = float(config["omega"])
    dens = _density(config, beta=math.inf)
    tsd0 = _tsd(z, config, beta=math.inf)
    for param, fitted, analytic, gap in zip(cols["param"], cols["rate_oracle"],
                                           cols["rate_analytic"], cols["rel_gap"]):
        chk.require(math.isfinite(fitted) and fitted > 0, f"oracle rate {fitted}")
        chk.compare(gap, abs(fitted - analytic) / analytic, 1e-12, "rel_gap column")
        chk.require(gap <= bound, f"{protocol} oracle gap {gap:.3g} above {bound}")
        chk.max_dev = max(chk.max_dev, float(gap))
        if protocol == "free":
            want, rel, absolute = ref.golden_rule_rate(dens, omega), CLOSED_FORM_TOL, 0.0
        elif protocol == "zeno":
            want, rel, absolute = ref.zeno_rate(dens, omega, param), ZENO_TOL, 0.0
        elif protocol == "kick":
            want, rel = ref.kick_rate(dens, omega, param), CLOSED_FORM_TOL
            absolute = z.kick_rate(tsd0, omega, param).truncation_error
        else:
            want, rel, absolute = ref.continuous_rate(dens, omega, param), CLOSED_FORM_TOL, 0.0
        chk.compare(analytic, want, rel, f"{protocol} analytic rate at {float(param)!r}",
                    absolute)


_RATIO_FIGURES = {3: "zeno", 4: "kick", 5: "zeno", 6: "kick", 7: "continuous"}


def check_task(z, task: dict, path: str, rng: random.Random) -> Check:
    chk = Check()
    config, header, cols = read_csv(path)
    kind = task["check"]["kind"]
    fig = task["check"].get("id")
    if kind == "crossover":
        check_crossover(z, config, cols, chk)
    elif kind == "oracle":
        check_oracle(z, config, header, cols, chk)
    elif kind == "density" or fig == 2:
        check_density(config, header, cols, chk)
    elif kind == "evolve":
        # the evolve CSV header does not record K; take it from the command
        argv = task["argv"]
        header.setdefault("K", argv[argv.index("--K") + 1])
        check_evolve(config, header, cols, chk)
    elif fig in (8, 9):
        check_response(config, header, cols, chk)
    elif kind == "sweep" or fig in _RATIO_FIGURES:
        s = task["check"].get("strategy") or _RATIO_FIGURES[fig]
        check_ratios(z, config, cols, chk, rng,
                     {"ratio_exp": (s, "exp"), "ratio_poly": (s, "poly")})
    elif fig in (10, 11):                        # all three strategies
        short = {"zeno": "zeno", "kick": "kick", "continuous": "cont"}
        check_ratios(z, config, cols, chk, rng,
                     {f"ratio_{short[s]}_{f}": (s, f) for s in short
                      for f in ("exp", "poly")})
    else:
        chk.require(False, f"no check for task {task['argv']}")
    chk.require(chk.count > 1, "nothing was checked")
    return chk


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import_zenolab()
    import zenolab as z
    results = []
    for task in spec["tasks"]:
        rng = random.Random(f"check:{spec['seed']}:{task['id']}")
        path = f"{spec['csv_dir']}/{task['id']}.csv"
        try:
            chk = check_task(z, task, path, rng)
            results.append({"ok": not chk.problems, "max_dev": chk.max_dev,
                            "checks": chk.count, "problems": chk.problems[:5]})
        except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
            results.append({"ok": False, "max_dev": None, "checks": 0,
                            "problems": [f"{type(exc).__name__}: {exc}"]})
    with open(spec["result_path"], "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
