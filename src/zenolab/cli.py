"""Command-line front end: parameter sweeps, crossover reports, evolution
traces, oracle runs, and the CSV data behind the standard figure set.

Commands
--------
density    bare and thermal spectral densities on a frequency grid
sweep      controlled/free rate ratio versus W tau (or c W / K)
crossover  tau*_Z, tau*_k, K* roots and estimates, with a summary on stderr
evolve     Bloch-trajectory trace of a qubit state
oracle     oracle.effective_rate per tau or K against rates.strategy_rate
figure     the exact parameterization behind a numbered standard figure

Every command emits a single CSV file: '#'-prefixed header lines carrying
the full configuration, one column-name row, then data rows in scientific
notation with 17 significant digits (floats round-trip bit-exactly).
Identical configurations produce byte-identical files; nothing is written
on failure.  Within one process each rate-ratio column (here) and each
oracle model (in ``oracle``) is computed once and shared read-only, so
figure 10 reuses the columns of figures 3, 4 and 7; a reused one is
bit-identical to a fresh one, and a failed computation is never kept.

Defaults follow the high-temperature reference regime Omega = 0.01 W,
beta = 50/W with bandwidth-matched cutoffs (W = 1 unless --unit lambda,
which anchors the exponential cutoff at 1 instead).  Flags are the only
configuration input.

Exit codes: 0 success (including a reported no-crossing), 2 usage or
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import crossover as xo
from . import lindblad, oracle, rates, spectral
from .errors import (DivergentIntegral, DivergentMoment, DomainError,
                     NoConvergence, NoCrossing, ZenolabError)
from .numerics import require_finite

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points: int
    spacing: str  # "log" | "lin"

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse 'lo:hi:points(log|lin)', e.g. '1e-3:1e2:200log'."""
        try:
            lo_s, hi_s, rest = text.split(":")
            if rest.endswith("log"):
                pts, spacing = int(rest[:-3]), "log"
            elif rest.endswith("lin"):
                pts, spacing = int(rest[:-3]), "lin"
            else:
                pts, spacing = int(rest), "log"
            lo, hi = float(lo_s), float(hi_s)
        except (ValueError, AttributeError) as exc:
            raise DomainError(f"bad grid spec {text!r}: {exc}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("grid bounds must be finite")
        if not lo < hi:
            raise DomainError("grid requires lo < hi")
        if pts < 2:
            raise DomainError("grid requires at least 2 points")
        if spacing == "log" and lo <= 0:
            raise DomainError("log grid requires lo > 0")
        return cls(lo, hi, pts, spacing)

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi),
                               self.points)
        return np.linspace(self.lo, self.hi, self.points)

    def __str__(self):
        return f"{self.lo:g}:{self.hi:g}:{self.points}{self.spacing}"


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters (all frequencies/times in raw unit-system
    numbers; W records the bandwidth in those units)."""

    family: str = spectral.EXPONENTIAL
    n: int = 2
    g: float = 1.0
    beta: float = 50.0
    omega0: float = 0.01
    W: float = 1.0
    unit: str = "W"
    conversion_c: float = 2.0 * math.pi
    grid: GridSpec | None = None
    out: str = "-"
    extra: dict = field(default_factory=dict)

    def form_factor(self, family: str | None = None) -> spectral.FormFactor:
        return spectral.form_factor_for_bandwidth(
            family or self.family, W=self.W, g=self.g, n=self.n)

    def thermal(self, family: str | None = None) -> spectral.ThermalSpectralDensity:
        return self.form_factor(family).thermal(self.beta)

    def header_lines(self, command: str) -> list[str]:
        keys = (f"family={self.family} n={self.n} g={self.g:.17g} "
                f"beta={self.beta:.17g} omega={self.omega0:.17g} "
                f"W={self.W:.17g} unit={self.unit} "
                f"conversion_c={self.conversion_c:.17g}")
        lines = [f"zenolab {command}", f"config: {keys}"]
        if self.grid is not None:
            lines.append(f"grid: {self.grid}")
        for k, v in sorted(self.extra.items()):
            lines.append(f"{k}: {v}")
        return lines


def _with(cfg: RunConfig, **kw) -> RunConfig:
    """``cfg`` with fields replaced; ``extra`` entries are merged in."""
    merged = {**cfg.__dict__}
    if "extra" in kw:
        kw["extra"] = {**cfg.extra, **kw["extra"]}
    merged.update(kw)
    return RunConfig(**merged)


# strategy name -> strategy at period tau or coupling K (each uses one)
_STRATEGIES = {
    "free": lambda tau, K: rates.Free(),
    "zeno": lambda tau, K: rates.ZenoMeasurement(tau),
    "kick": lambda tau, K: rates.BangBangKick(tau),
    "continuous": lambda tau, K: rates.ContinuousCoupling(K),
}
_CONTROLLED = ("zeno", "kick", "continuous")

_FULL_GRID = GridSpec(5e-2, 1e3, 181, "log")
_SMALL_GRID = GridSpec(1e-3, 10.0, 161, "log")    # the controlled region


def _write_csv(path: str, header_lines: list[str], columns: list[str],
               rows: np.ndarray | list[list[float]]):
    """Each row in one '%' operation, every cell as '%.16e' of its float
    (the text f"{float(x):.16e}" gives); a row whose length differs from
    the header's raises (ValueError or TypeError) before anything is
    written."""
    row_format = ",".join(["%.16e"] * len(columns))
    text_rows = ["# " + line for line in header_lines]
    text_rows.append(",".join(columns))
    text_rows += [row_format % tuple(row)
                  for row in np.asarray(rows, dtype=float).tolist()]
    payload = "\n".join(text_rows) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


# ---------------------------------------------------------------------------
# commands

def _density_table(cfg: RunConfig, betas: tuple[float, ...], command: str,
                   extra: dict, columns: list[str]) -> int:
    """The exp and poly densities kappa_beta at each of ``betas`` (inf: the
    bare density) on the grid, by default 601 points over [-2W, 4W]."""
    grid = cfg.grid or GridSpec(-2.0 * cfg.W, 4.0 * cfg.W, 601, "lin")
    omegas = grid.values()
    rows = np.column_stack([omegas / cfg.W] + [
        spectral.thermal_density(cfg.form_factor(family).thermal(b), omegas)
        for b in betas for family in (spectral.EXPONENTIAL, spectral.POLYNOMIAL)])
    _write_csv(cfg.out, _with(cfg, grid=grid, extra=extra).header_lines(command),
               ["omega_over_W"] + columns, rows)
    return EXIT_OK


def cmd_density(cfg: RunConfig) -> int:
    return _density_table(cfg, (math.inf, cfg.beta), "density", {},
                          ["kappa_exp", "kappa_poly", "kappa_beta_exp",
                           "kappa_beta_poly"])


# The comparison figures overlay the single-strategy sweeps (figure 10 is
# figures 3, 4 and 7 side by side), so in-process callers ask for the same
# column many times.  Every key is a validated frozen dataclass or float,
# the kernels are pure functions of them and lru_cache stores no
# exception, so a reused column is the bit-exact column a cold call makes.
@functools.lru_cache(maxsize=32)
def _ratio_column(tsd: spectral.ThermalSpectralDensity, omega0: float,
                  strategy_name: str, grid: GridSpec, W: float,
                  conversion_c: float) -> np.ndarray:
    """Read-only controlled/golden-rule rate ratios of ``strategy_name`` at
    the periods tau = x / W of ``grid`` (couplings K = c / tau)."""
    gamma = rates._free_rate(tsd, omega0)
    taus = grid.values() / W                # tau (or c/K) in raw units
    strategy = _STRATEGIES[strategy_name](taus, conversion_c / taus)
    ratio = rates.strategy_rate(tsd, omega0, strategy) / gamma
    ratio.setflags(write=False)
    return ratio


def cmd_sweep(cfg: RunConfig, strategies: tuple[str, ...]) -> int:
    """Controlled/free rate ratios versus x = W tau, or x = c W / K.

    Each grid point is a period tau and its equivalent coupling K = c/tau.
    One strategy writes a 'sweep' file; several write one 'figure' file
    with a column pair per strategy.
    """
    grid = cfg.grid or _FULL_GRID
    if not grid.lo > 0:
        raise DomainError("sweep grid requires lo > 0 (x is W tau or c W/K)")
    tsds = (cfg.thermal(spectral.EXPONENTIAL), cfg.thermal(spectral.POLYNOMIAL))
    data = [grid.values()]
    for name in strategies:
        data += [_ratio_column(tsd, cfg.omega0, name, grid, cfg.W,
                               cfg.conversion_c) for tsd in tsds]
    rows = np.column_stack(data)
    if len(strategies) == 1:
        command, extra = "sweep", {"strategy": strategies[0]}
        columns = ["x", "ratio_exp", "ratio_poly"]
    else:
        # column labels abbreviate to four letters: ratio_cont_exp
        command, extra = "figure", {}
        columns = ["x"] + [f"ratio_{name[:4]}_{fam}" for name in strategies
                           for fam in ("exp", "poly")]
    _write_csv(cfg.out, _with(cfg, grid=grid, extra=extra).header_lines(command),
               columns, rows)
    return EXIT_OK


def cmd_crossover(cfg: RunConfig) -> int:
    tsd = cfg.thermal()
    out_rows = []
    text = []
    finders = [("zeno", xo.find_tau_star_zeno, "tau*_Z"),
               ("kick", xo.find_tau_star_kick, "tau*_k"),
               ("continuous", xo.find_K_star, "K*")]
    for name, finder, label in finders:
        try:
            rep = finder(tsd, cfg.omega0)
            out_rows.append([rep.star_value, rep.closed_form_estimate,
                             rep.relative_gap, float(len(rep.all_crossings)), 0.0])
            text.append(f"{label} = {rep.star_value:.6g}  "
                        f"estimate = {rep.closed_form_estimate:.6g}  "
                        f"rel_gap = {rep.relative_gap:.3f}  "
                        f"crossings = {len(rep.all_crossings)}")
        except NoCrossing:
            out_rows.append([math.nan, math.nan, math.nan, 0.0, 1.0])
            text.append(f"{label}: no crossing on the scan grid")
    q = xo.quick_estimates(cfg.n, cfg.omega0, cfg.W)
    text.append(f"quick estimates (poly n={cfg.n}): tau*_Z = {q.tau_star_zeno:.6g}"
                f"  tau*_k = {q.tau_star_kick:.6g}  K* = {q.K_star:.6g}")
    rows = [[i] + r for i, r in enumerate(out_rows)]
    extra = {"strategies": "zeno,kick,continuous",
             "quick_estimates": (f"{q.tau_star_zeno:.17g},"
                                 f"{q.tau_star_kick:.17g},{q.K_star:.17g}")}
    _write_csv(cfg.out, _with(cfg, extra=extra).header_lines("crossover"),
               ["strategy_index", "star_value", "closed_form_estimate",
                "relative_gap", "n_crossings", "no_crossing"], rows)
    for line in text:
        print(line, file=sys.stderr)
    return EXIT_OK


_STATES = {
    "up": lindblad.QubitDensityMatrix.excited,
    "down": lindblad.QubitDensityMatrix.ground,
    "mixed": lindblad.QubitDensityMatrix.maximally_mixed,
    "plus": lambda: lindblad.QubitDensityMatrix.from_bloch(1.0, 0.0, 0.0),
}


def cmd_evolve(cfg: RunConfig, state: str, g0: float, strategy_name: str,
               tau: float, K: float) -> int:
    if state not in _STATES:
        raise DomainError(f"unknown initial state {state!r}")
    rho = _STATES[state]()
    require_finite(g0, "dephasing coupling g0", allow_zero=True)
    # g = 0 closes the spin-flip channel, g0 = 0 the dephasing one
    tsd_flip = cfg.thermal() if cfg.g != 0.0 else None
    tsd_deph = _with(cfg, g=g0).thermal() if g0 > 0 else None
    strategy = _STRATEGIES[strategy_name](tau, K)
    gen = lindblad.build_qubit_generator(tsd_flip, tsd_deph, cfg.omega0, strategy)
    t_scale = max(gen.relaxation_rate, gen.transverse_rate, 1e-12)
    grid = cfg.grid or GridSpec(0.0, 10.0 / t_scale, 201, "lin")
    times = grid.values()
    rows = np.column_stack(
        (times, *lindblad.observables(lindblad.trajectory(rho, gen, times))))
    extra = {"state": state, "g0": f"{g0:.17g}", "strategy": strategy_name}
    # the strategy's own parameter: tau (zeno, kick) or K (continuous)
    extra.update((k, f"{v:.17g}") for k, v in vars(strategy).items())
    _write_csv(cfg.out, _with(cfg, grid=grid, extra=extra).header_lines("evolve"),
               ["t", "p_up", "bloch_x", "bloch_y", "bloch_z", "purity"], rows)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, protocol: str, values: list[float],
               M: int, n_cycles: int) -> int:
    """Oracle rates (``oracle.effective_rate``) against the analytic rates
    (``rates.strategy_rate``) at beta = +inf, one row per tau or K (free:
    one row at Omega); the header window spans every row's fit window.
    A row that would outrun the bath's recurrence time stops the run
    before any model is built.
    Only kick runs read ``n_cycles`` (the oracle checks it) and record it."""
    if protocol == "free":
        if values:
            raise DomainError("--values does not apply to the free protocol")
        values = [cfg.omega0]
    elif not values:
        raise DomainError(f"--values is required for {protocol}")
    ff = cfg.form_factor()
    tsd0 = ff.thermal(math.inf)
    strategies = [_STRATEGIES[protocol](v, v) for v in values]
    # every row's recurrence check runs before the first model is built
    for strategy in strategies:
        oracle.require_window(ff, cfg.omega0, strategy, M, n_cycles)
    rows, fits = [], []
    for v, strategy in zip(values, strategies):
        fit = oracle.effective_rate(ff, cfg.omega0, strategy, M, n_cycles)
        an = rates.strategy_rate(tsd0, cfg.omega0, strategy)
        rows.append([v, fit.rate, an, abs(fit.rate - an) / an,
                     fit.residual, M, fit.fit_window[1]])
        fits.append(fit.fit_window)
    window = (min(lo for lo, _ in fits), max(hi for _, hi in fits))
    extra = {"protocol": protocol, "M": str(M),
             "window": f"{window[0]:.6g}..{window[1]:.6g}",
             "temperature": "zero (single-excitation sector)"}
    if protocol == "kick":
        extra["cycles"] = str(n_cycles)
    _write_csv(cfg.out, _with(cfg, extra=extra).header_lines("oracle"),
               ["param", "rate_oracle", "rate_analytic", "rel_gap",
                "fit_residual", "M", "window"], rows)
    return EXIT_OK


# figure id -> (fixed grid, strategies) of the rate-ratio figures
_RATIO_FIGURES = {
    3: (_FULL_GRID, ("zeno",)),
    4: (_FULL_GRID, ("kick",)),
    5: (_SMALL_GRID, ("zeno",)),
    6: (_SMALL_GRID, ("kick",)),
    7: (_FULL_GRID, ("continuous",)),
    10: (_FULL_GRID, _CONTROLLED),
    11: (_SMALL_GRID, _CONTROLLED),
}


# figure ids 2..11 index the standard comparison figure set
def cmd_figure(cfg: RunConfig, fig_id: int) -> int:
    if fig_id == 2:
        return _figure_thermal(cfg)
    if fig_id in _RATIO_FIGURES:
        grid, strategies = _RATIO_FIGURES[fig_id]
        return cmd_sweep(_with(cfg, grid=grid, extra={"figure": str(fig_id)}),
                         strategies)
    if fig_id in (8, 9):
        tau = 50.0 / cfg.W if fig_id == 8 else 3.0 / cfg.W
        return _figure_response(cfg, fig_id, tau)
    raise DomainError(f"unknown figure id {fig_id}; valid ids are 2..11")


def _figure_thermal(cfg: RunConfig) -> int:
    betas = (50.0 / cfg.W, 2.0 / cfg.W)   # low and very high temperature
    return _density_table(cfg, betas, "figure",
                          {"figure": "2", "betas": f"{betas[0]:g},{betas[1]:g}"},
                          ["kappa_beta_exp_low_T", "kappa_beta_poly_low_T",
                           "kappa_beta_exp_high_T", "kappa_beta_poly_high_T"])


def _figure_response(cfg: RunConfig, fig_id: int, tau: float) -> int:
    """Thermal density and its control-response overlays at tau = c/K.

    Pulsed measurements multiply kappa_beta by tau sinc^2((w-Omega)tau/2);
    the kick and continuous combs are drawn through their interpolating
    envelopes (2/pi) ((w-Omega) tau / 2 pi)^{-2} kappa_beta and
    pi kappa_beta.
    """
    omega0 = 0.2 * cfg.W              # response figures use a larger splitting
    tsd = cfg.form_factor(spectral.POLYNOMIAL).thermal(cfg.beta)
    grid = cfg.grid or GridSpec(-1.0 * cfg.W, 3.0 * cfg.W, 801, "lin")
    w = grid.values()
    kb = spectral.thermal_density(tsd, w)
    z = (w - omega0) * tau / 2.0
    # float_power squares through pow(), as scalar ** 2 does; the array
    # ** 2 squares by multiplication, which can differ in the last bit
    zeno_w = tau * kb * np.float_power(np.sinc(z / np.pi), 2.0)
    j_half = np.abs(w - omega0) * tau / (2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        kick_env = np.where(j_half > 0,
                            (2.0 / math.pi) * kb / np.float_power(j_half, 2.0),
                            math.nan)
    rows = np.column_stack([w / cfg.W, kb, zeno_w, kick_env, math.pi * kb])
    cfg2 = _with(cfg, grid=grid,
                 extra={"figure": str(fig_id), "tau": f"{tau:.17g}",
                        "K": f"{cfg.conversion_c / tau:.17g}",
                        "omega_response": f"{omega0:.17g}"})
    _write_csv(cfg.out, cfg2.header_lines("figure"),
               ["omega_over_W", "kappa_beta", "zeno_weighted",
                "kick_envelope", "continuous_envelope"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=[spectral.EXPONENTIAL, spectral.POLYNOMIAL],
                   default=spectral.EXPONENTIAL)
    p.add_argument("--n", type=int, default=2,
                   help="polynomial fall-off exponent")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=None,
                   help="inverse temperature (default 50/W; 'inf' allowed)")
    p.add_argument("--omega", type=float, default=None,
                   help="level splitting (default 0.01 W)")
    p.add_argument("--unit", choices=["W", "lambda"], default="W",
                   help="unit system: bandwidth W = 1, or exponential cutoff = 1")
    p.add_argument("--conversion-c", type=float, default=2.0 * math.pi,
                   help="kick<->continuous conversion constant in tau = c/K")
    p.add_argument("--grid", type=str, default=None,
                   help="lo:hi:points(log|lin)")
    p.add_argument("--out", type=str, default="-",
                   help="output CSV path ('-' = stdout)")


def _config_from(args) -> RunConfig:
    W = 1.0 if args.unit == "W" else 2.0   # lambda units anchor Lambda_exp = 1
    beta = args.beta if args.beta is not None else 50.0 / W
    omega0 = args.omega if args.omega is not None else 0.01 * W
    if not beta > 0:
        raise DomainError("beta must be positive (or inf)")
    require_finite(omega0, "level splitting omega0")
    grid = GridSpec.parse(args.grid) if args.grid else None
    require_finite(args.conversion_c, "conversion constant")
    return RunConfig(family=args.family, n=args.n, g=args.g, beta=beta,
                     omega0=omega0, W=W, unit=args.unit,
                     conversion_c=args.conversion_c, grid=grid,
                     out=args.out)


# built once per process: parse_args leaves the parser unchanged, and
# in-process callers run main many times
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenolab",
        description="Decoherence-control rate laboratory (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="bare and thermal spectral densities")
    _add_common(p)

    p = sub.add_parser("sweep", help="rate ratio versus W tau (or c W/K)")
    _add_common(p)
    p.add_argument("--strategy", choices=_CONTROLLED, required=True)

    p = sub.add_parser("crossover", help="tau*/K* roots and estimates")
    _add_common(p)

    p = sub.add_parser("evolve", help="qubit Bloch trajectory")
    _add_common(p)
    p.add_argument("--state", choices=sorted(_STATES), default="up")
    p.add_argument("--g0", type=float, default=0.0,
                   help="dephasing-channel coupling (0 = spin-flip only)")
    p.add_argument("--strategy", choices=list(_STRATEGIES), default="free")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--K", type=float, default=0.0)

    p = sub.add_parser("oracle", help="discretized-bath fitted rates")
    _add_common(p)
    p.add_argument("--protocol", choices=list(_STRATEGIES), required=True)
    p.add_argument("--values", type=str, default="",
                   help="comma-separated tau (zeno/kick) or K (continuous)")
    p.add_argument("--modes", type=int, default=300, help="bath mode count M")
    p.add_argument("--cycles", type=int, default=200,
                   help="kick cycle count N (even)")

    p = sub.add_parser("figure", help="data behind a numbered standard figure")
    _add_common(p)
    p.add_argument("--id", type=int, required=True, dest="fig_id")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "density":
            return cmd_density(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, (args.strategy,))
        if args.command == "crossover":
            return cmd_crossover(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.state, args.g0, args.strategy,
                              args.tau, args.K)
        if args.command == "oracle":
            values = [float(v) for v in args.values.split(",") if v]
            return cmd_oracle(cfg, args.protocol, values, args.modes,
                              args.cycles)
        if args.command == "figure":
            return cmd_figure(cfg, args.fig_id)
        raise DomainError(f"unknown command {args.command!r}")
    except (DivergentMoment, ValueError) as exc:
        print(f"zenolab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, DivergentIntegral) as exc:
        print(f"zenolab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ZenolabError as exc:
        print(f"zenolab: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
