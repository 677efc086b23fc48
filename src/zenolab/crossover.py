"""Zeno <-> inverse-Zeno crossover scales tau* and K*.

tau* (K*) is the control period (coupling strength) at which the
controlled rate equals the free rate: suppression on one side,
enhancement on the other.  Roots are located by a log-spaced scan of the
ratio followed by Brent's method inside each bracket; the closed-form
estimates are

    tau*_Z ~ gamma tau_Z^2,    tau*_k ~ pi / x(w_k),    K* ~ x(pi),

where x(w) solves w kappa(x) = gamma with kappa's large-x form,

    x(w) = -Lambda W_{-1}(-gamma / (w g^2 Lambda))     (exp)
    x(w) = Lambda (w g^2 Lambda / gamma)^{1/(2n-1)}    (poly)

with W_{-1} the lower real branch of Lambert's W, and w_k is the weight
of the kick envelope gamma_k ~ w_k kappa(pi/tau): 8/pi (exp) or
(8/pi)(1-2^{-2n-1}) zeta(2n+1) (poly).  The kick-rate ratio
oscillates at intermediate tau, so several crossings can exist; the
smallest crossing from the controlled side is canonical and every
crossing on the scan grid is reported.  A scan evaluates its grid in
one array call of the kernel that Brent's refinement also runs, at full
precision; there is no coarse pass.  Every rate, the free one too, comes
from :func:`rates.strategy_rate`.  The kick and K* finders scan the
whole grid (the comb sum without its truncation bound, and the exact
continuous rate); the tau*_Z finder scans the grid from its last point
below gamma tau_Z^2 upward, a floor under every Zeno crossing (see
:func:`find_tau_star_zeno`), in one cumulative pass of the Zeno kernel
over the bath correlation function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, NoCrossing
from .numerics import alpha_n, lambert_w_m1, require_finite
from .rates import (BangBangKick, ContinuousCoupling, Free, ZenoMeasurement,
                    _kick_envelope_weight, strategy_rate)
from .spectral import (EXPONENTIAL, FormFactor, ThermalSpectralDensity,
                       zeno_time)

__all__ = [
    "CrossoverReport",
    "QuickEstimates",
    "find_tau_star_zeno",
    "find_tau_star_kick",
    "find_K_star",
    "quick_estimates",
]

# the scan grid, 400 points per decade over 1e-4..1e4 (tau or K)
_SCAN_GRID = np.logspace(-4.0, 4.0, 3201)
_SCAN_GRID.setflags(write=False)
# root refinement stops once the bracket is below _XTOL + _RTOL |x|
_XTOL = 2e-12
_RTOL = 1e-13


@dataclass(frozen=True)
class CrossoverReport:
    """The root, its closed-form estimate and every crossing, with what the
    search cost: ``n_scanned`` grid points sent through the kernel in one
    array call and ``n_refine`` scalar kernel calls made by ``_brent``.
    The costs take no part in equality: two searches that find the same
    crossings are equal."""

    star_value: float
    closed_form_estimate: float
    relative_gap: float
    bracket: tuple[float, float]
    all_crossings: tuple[float, ...]
    n_scanned: int = field(compare=False)
    n_refine: int = field(compare=False)


def _brent(f: Callable[[float], float], xa: float, xb: float,
           maxiter: int = 200) -> float:
    """Root of ``f`` between xa and xb, where ``f`` changes sign.

    Brent's method as in scipy.optimize.brentq (inverse quadratic or
    secant steps, bisection when a step is poor): the same iterates, so
    the same roots and kernel calls.  It stops once the bracket is below
    _XTOL + _RTOL |x|, and raises NoConvergence after ``maxiter`` steps.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergence(f"root refinement in [{xa!r}, {xb!r}] took more than "
                        f"{maxiter} steps")


def _envelope_root(ff: FormFactor, weight: float, gamma: float) -> float:
    """x(weight) of the module docstring; NaN where the Lambert-W
    argument falls below -1/e."""
    g2lam = ff.g ** 2 * ff.cutoff
    if ff.family == EXPONENTIAL:
        arg = -gamma / (weight * g2lam)
        return -ff.cutoff * lambert_w_m1(arg) if arg >= -math.exp(-1) else math.nan
    return ff.cutoff * (weight * g2lam / gamma) ** (1.0 / (2 * ff.n - 1))


def _free_rate(tsd: ThermalSpectralDensity, omega0: float) -> float:
    """The free (golden-rule) rate gamma; DomainError unless it is
    positive and finite, since every ratio divides by it."""
    gamma = strategy_rate(tsd, omega0, Free())
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"free rate gamma = {gamma!r} at omega0 = "
                          f"{omega0!r}: no crossover is defined")
    return gamma


def _crossover(tsd: ThermalSpectralDensity, omega0: float, strategy: type,
               grid: np.ndarray,
               estimate: Callable[[float], float]) -> CrossoverReport:
    """Every crossing of rate / gamma = 1 along ``grid``, gamma being the
    free rate and rate that of the one-parameter strategy class
    ``strategy``; the first in scan order is the root, reported against
    the closed form ``estimate(gamma)``.

    The grid goes through the kernel in one call.  A cell is a crossing
    when ratio - 1 is 0 at its start or changes sign across it, and
    ``_brent`` runs inside each cell that changes sign.
    """
    gamma = _free_rate(tsd, omega0)
    f = lambda x: strategy_rate(tsd, omega0, strategy(x)) / gamma - 1.0
    v = f(grid)
    lo, hi = v[:-1], v[1:]
    events = np.flatnonzero((lo == 0.0) | ((lo < 0.0) & (hi >= 0.0))
                            | ((lo > 0.0) & (hi <= 0.0)))
    if events.size == 0:
        raise NoCrossing("ratio - 1 does not change sign on the scan grid")
    n_refine = 0

    def refine(x):
        nonlocal n_refine
        n_refine += 1
        return f(x)

    crossings = [grid[i] if lo[i] == 0.0
                 else _brent(refine, *sorted((grid[i], grid[i + 1])))
                 for i in events]
    root, est = crossings[0], estimate(gamma)
    gap = abs(root - est) / root if math.isfinite(est) else math.nan
    bracket = sorted((grid[events[0]], grid[events[0] + 1]))
    return CrossoverReport(root, est, gap, tuple(bracket),
                           tuple(sorted(crossings)), grid.size, n_refine)


def find_tau_star_zeno(tsd: ThermalSpectralDensity,
                       omega0: float) -> CrossoverReport:
    """Smallest tau with gamma_Z(tau) = gamma; estimate gamma tau_Z^2.

    gamma tau_Z^2 is also a floor: gamma_Z(tau) <= tau / tau_Z^2, so the
    ratio is below 1 at every tau below it.  The scan starts at the last
    grid point below the floor less 1e-6 of it (far above the accuracy
    of zeno_time and zeno_rate), which leaves every crossing and the
    report as on the whole grid.  The cumulative pass still has to cross
    the cells below the first scanned period, but only as one chain of
    cells, so the floor still halves the scan: 0.016-0.025 s against
    0.030-0.047 s for the whole grid at crossover_scan's corners.
    """
    gamma = _free_rate(tsd, omega0)
    tau_z2 = zeno_time(tsd) ** 2
    start = int(np.searchsorted(_SCAN_GRID, gamma * tau_z2 * (1.0 - 1e-6)))
    return _crossover(tsd, omega0, ZenoMeasurement,
                      _SCAN_GRID[max(start - 1, 0):], lambda g: g * tau_z2)


def find_tau_star_kick(tsd: ThermalSpectralDensity,
                       omega0: float) -> CrossoverReport:
    """Smallest tau with gamma_k(tau) = gamma; Lambert-W / power-law estimate."""
    weight = _kick_envelope_weight(tsd.base)
    return _crossover(tsd, omega0, BangBangKick, _SCAN_GRID,
                      lambda gamma: math.pi / _envelope_root(tsd.base, weight, gamma))


def find_K_star(tsd: ThermalSpectralDensity, omega0: float) -> CrossoverReport:
    """Largest K with gamma_c(K) = gamma (smallest crossing in 1/K).

    The scan runs from the strong-coupling (suppressed) side downward;
    K = 0, where the ratio equals 1 identically, is excluded.
    """
    return _crossover(tsd, omega0, ContinuousCoupling, _SCAN_GRID[::-1],
                      lambda gamma: _envelope_root(tsd.base, math.pi, gamma))


@dataclass(frozen=True)
class QuickEstimates:
    tau_star_zeno: float
    tau_star_kick: float
    K_star: float


def quick_estimates(n: int, omega0: float, W: float) -> QuickEstimates:
    """Order-of-magnitude crossover scales for the Ohmic polynomial family.

    Low-temperature asymptotic forms built from the bandwidth and the
    coefficient alpha_n:

        tau*_Z ~ 2 pi/W * 2 (n-1) alpha_n^2 (Omega/W)
        tau*_k ~ 2 pi/W * (alpha_n/2) (alpha_n pi^2 Omega / 4W)^{1/(2n-1)}
        K*     ~ (W/alpha_n) (2W / (alpha_n Omega))^{1/(2n-1)}
    """
    require_finite((omega0, W), "omega0 and W")
    a = alpha_n(n)
    p = 1.0 / (2 * n - 1)
    tau_z = 2.0 * math.pi / W * (2.0 * (n - 1) * a * a * omega0 / W)
    tau_k = (2.0 * math.pi / W) * (a / 2.0) * (a * math.pi ** 2 * omega0
                                               / (4.0 * W)) ** p
    k_star = (W / a) * (2.0 * W / (a * omega0)) ** p
    return QuickEstimates(tau_z, tau_k, k_star)
