"""Free and controlled decay rates of a two-level system.

The uncontrolled (golden-rule) rate is gamma = 2 pi kappa_beta(Omega).
Three control strategies modulate it:

* projective measurements every tau ("Zeno"),

      gamma_Z(tau) = tau * int kappa_beta(omega)
                     sinc^2((omega - Omega) tau / 2) d omega,

  with the small-tau law gamma_Z ~ tau / tau_Z^2, computed in the time
  domain as the triangle-weighted integral of the bath correlation
  function C(s) = int kappa_beta(omega) e^{-i omega s} d omega over
  [0, tau], one cumulative pass over the cells between sorted periods;

* bang-bang kicks every tau, whose delta-comb limit is the series

      gamma_k(tau) = (2/pi) sum_j (j + 1/2)^{-2}
                     [kappa_beta(Omega + (2j+1) pi/tau)
                      + kappa_beta(Omega - (2j+1) pi/tau)],

  together with its finite-time integral representation
  t * int kappa_beta sinc^2((omega-Omega)t/2) tan^2((omega-Omega)tau/2),
  t = N tau with N even;

* strong continuous coupling K to an ancilla level,

      gamma_c(K) = pi [kappa_beta(Omega + K) + kappa_beta(Omega - K)],

  the mean of the dressed-state rates gamma_+/gamma_-.

All rates are second order in the system-bath coupling and are returned
in the same frequency units as the inputs (W = 1 by convention).  The
three controlled kernels take a period tau (coupling K) or a 1-D array
of them and return a rate or an array of rates: a scalar is the array
kernel at one point.  Arrays are evaluated in blocks of a fixed size, so
memory does not grow with the array.
Every caller outside this module turns a strategy into a rate through
:func:`strategy_rate`; only :func:`kick_rate` adds the comb's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import DomainError, NoConvergence
from .numerics import (_segmented_integrals, half_integer_series_tail,
                       require_finite, segmented_integral, zeta_odd)
from .spectral import (EXPONENTIAL, FormFactor, ThermalSpectralDensity,
                       bare_density, correlation, form_factor_for_bandwidth,
                       thermal_density)

__all__ = [
    "Free",
    "ZenoMeasurement",
    "BangBangKick",
    "ContinuousCoupling",
    "ControlStrategy",
    "SeriesRate",
    "SummaryAsymptotics",
    "golden_rule_rate",
    "zeno_rate",
    "kick_rate",
    "kick_rate_integral",
    "continuous_rate",
    "summary_asymptotics",
    "strategy_rate",
]


# ---------------------------------------------------------------------------
# control strategies

@dataclass(frozen=True)
class Free:
    """No control."""


# Each controlled strategy holds one parameter, a float or a 1-D array of
# them; an array makes strategy_rate return an array of rates.

@dataclass(frozen=True)
class ZenoMeasurement:
    """Projective (nonselective) measurements with period tau."""
    tau: float

    def __post_init__(self):
        require_finite(self.tau, "measurement period tau")


@dataclass(frozen=True)
class BangBangKick:
    """Instantaneous unitary kicks with period tau."""
    tau: float

    def __post_init__(self):
        require_finite(self.tau, "kick period tau")


@dataclass(frozen=True)
class ContinuousCoupling:
    """Continuous coupling of strength K to a monitor level."""
    K: float

    def __post_init__(self):
        require_finite(self.K, "coupling K", allow_zero=True)


ControlStrategy = Union[Free, ZenoMeasurement, BangBangKick, ContinuousCoupling]


class SeriesRate(NamedTuple):
    gamma: float
    truncation_error: float


# ---------------------------------------------------------------------------
# pointwise rates

def _shaped(values: np.ndarray, like):
    """Kernel output in the shape of its control argument ``like``."""
    return float(values[0]) if np.ndim(like) == 0 else values.reshape(np.shape(like))


def golden_rule_rate(tsd: ThermalSpectralDensity, omega0: float) -> float:
    """Fermi golden rule: gamma = 2 pi kappa_beta(omega0)."""
    return 2.0 * math.pi * thermal_density(tsd, omega0)


def _pair(tsd: ThermalSpectralDensity, omega0: float, x):
    """kappa_beta(omega0 + x) + kappa_beta(omega0 - x), a sideband pair."""
    return thermal_density(tsd, omega0 + x) + thermal_density(tsd, omega0 - x)


def continuous_rate(tsd: ThermalSpectralDensity, omega0: float, K):
    """gamma_c(K) = pi [kappa_beta(omega0 + K) + kappa_beta(omega0 - K)].

    ``K`` is a coupling or a 1-D array of couplings.
    """
    Ks = require_finite(K, "coupling K", allow_zero=True)
    return _shaped(math.pi * _pair(tsd, omega0, Ks), K)


# ---------------------------------------------------------------------------
# Zeno rate (triangle-weighted integral of the bath correlation function)

# cells per engine run
_ZENO_BLOCK = 128
# a cell's tolerance, relative to the larger of its integral and its size
# (width times |C|): the size keeps a cell whose integral cancels off the
# rounding floor of its integrand
_ZENO_TOL = 1e-12
# the most cells one call may cut: |omega0| tau up to about 1.6e6
_ZENO_MAX_CELLS = 1 << 20
# bisection depth and the most segments one block may have pending (0.5 M
# nodes): the depth serves the log-singular first cell of the polynomial
# family at n = 1 (about 31 passes); the segment bound stops a block that
# bisects everywhere, as at a rounding floor, before it fills memory
_ZENO_MAX_PASSES = 60
_ZENO_MAX_PENDING = 1 << 15


def _zeno_cells(periods: np.ndarray, omega0: float, lam: float) -> np.ndarray:
    """Cell edges from 0 through every (sorted, distinct) period.

    Between the periods lie the lags 2^j / Lambda, j >= -24, so no cell
    above 2^-24/Lambda spans more than a factor 2 (near s = 0, where the
    polynomial family's C has an s^{2n-2} log s term, each cell then
    converges in a pass or two, all in one engine call), and every cell
    is cut into equal parts no wider than pi/(2 |omega0|), a quarter turn
    of e^{i omega0 s}.
    """
    top = periods[-1]
    chain = 2.0 ** np.arange(-24, max(math.floor(math.log2(top * lam)) + 1, -24)) / lam
    points = np.sort(np.concatenate([periods, chain[chain < top]]))
    keep = np.empty(points.size, dtype=bool)
    keep[:1] = True
    keep[1:] = points[1:] != points[:-1]
    edges = np.concatenate([[0.0], points[keep]])
    if omega0 == 0.0:
        return edges
    widths = np.diff(edges)
    # at least one part per cell, also where |omega0| is so small (say
    # subnormal) that the product underflows to 0
    parts = np.maximum(np.ceil(widths * (2.0 * abs(omega0) / math.pi)), 1.0)
    if parts.sum() > _ZENO_MAX_CELLS:
        raise NoConvergence(f"zeno_rate at |omega0| tau = {abs(omega0) * top:.3g} "
                            f"needs more than {_ZENO_MAX_CELLS} cells")
    parts = parts.astype(np.intp)
    first = np.repeat(np.cumsum(parts) - parts, parts)
    step = np.arange(first.size) - first
    return np.append(np.repeat(edges[:-1], parts)
                     + np.repeat(widths / parts, parts) * step, edges[-1])


def zeno_rate(tsd: ThermalSpectralDensity, omega0: float, tau):
    """Decay rate under projective measurements with period tau.

    gamma_Z(tau) = tau * int kappa_beta(omega) sinc^2((omega-omega0) tau/2)
    d omega.  Since tau sinc^2(x tau/2) = int_{-tau}^{tau} (1 - |s|/tau)
    e^{ixs} ds, this is

        gamma_Z(tau) = (2/tau) Re int_0^tau (tau - s) C(s) e^{i omega0 s} ds
                     = (2/tau) [tau Re F1(tau) - Re F2(tau)],

    with the bath correlation function C (:func:`spectral.correlation`)
    and F1, F2 the integrals of C(s) e^{i omega0 s} and s C(s) e^{i omega0 s}
    over [0, tau].  The weight has compact support, so there is no tail.

    ``tau`` is a period or a 1-D array of periods.  The sorted periods cut
    [0, max tau] into cells (:func:`_zeno_cells` adds the lags 2^j/Lambda
    and quarter turns of e^{i omega0 s}); F1 and F2 at each period are
    compensated running sums over the cells below it.  Every cell is its
    own adaptive integral of one complex integrand, Re[C e^{i omega0 s}]
    (1 + i s/b) on the cell [a, b], so C is evaluated once per node for
    both, to _ZENO_TOL of the larger of the cell's integral and its size;
    the cells run through the quadrature engine in blocks of _ZENO_BLOCK.
    A lone period is the same pass over its own chain of cells.  A
    period's value depends on the other periods of the call only through
    the rounding of differently cut cells.

    Served range and cost: every real omega0 with |omega0| tau up to
    about 1.6e6; beyond, the cell count passes _ZENO_MAX_CELLS and the
    kernel raises NoConvergence.  Cost grows with |omega0| tau, a quarter
    turn costing one 15-node cell: a lone call at omega0 = 0.01,
    tau = 1e4 cuts 74 cells (about 1,500 nodes); at omega0 = 1, tau = 1e4
    (the costliest regime the suite reaches) it cuts 6,373 cells, about
    96,000 nodes, which took 0.008 s (exp, beta = inf), 0.023 s (exp,
    beta = 50) and 0.29 s (poly n = 2, beta = 50) on one core of a
    2-core x86-64 machine.  A NaN centre raises DomainError; an infinite one
    gives 0, the density there.
    """
    taus = require_finite(tau, "measurement period tau")
    if math.isnan(omega0):
        raise DomainError("frequency omega is NaN")
    if math.isinf(omega0) or not taus.size:
        return _shaped(np.zeros(taus.size), tau)
    edges = _zeno_cells(np.sort(taus), omega0, tsd.base.cutoff)
    lo, hi = edges[:-1], edges[1:]
    f1 = np.empty(lo.size)
    f2 = np.empty(lo.size)
    for start in range(0, lo.size, _ZENO_BLOCK):
        a, b = lo[start:start + _ZENO_BLOCK], hi[start:start + _ZENO_BLOCK]

        def f(s, owner, b=b):
            c = correlation(tsd, s.ravel()).reshape(s.shape)
            g = (c * np.exp(1j * omega0 * s)).real
            return g + 1j * (g * s / b[owner][:, None])

        # a cell's size: its width times the larger |C| at its middle and end
        size = np.abs(correlation(tsd, np.concatenate([0.5 * (a + b), b])))
        size = (b - a) * np.maximum(size[:a.size], size[a.size:])
        cells, _ = _segmented_integrals(
            f, a, b, np.arange(a.size), a.size, rel_tol=_ZENO_TOL,
            abs_tol=np.maximum(_ZENO_TOL * size, 1e-300),
            max_passes=_ZENO_MAX_PASSES, max_pending=_ZENO_MAX_PENDING,
            label=lambda q, a=a, b=b: (f"zeno_rate on the cell "
                                       f"[{float(a[q])!r}, {float(b[q])!r}]"))
        f1[start:start + a.size] = cells.real
        f2[start:start + a.size] = cells.imag * b
    at = np.searchsorted(hi, taus)
    gamma = 2.0 * _running_sum(f1)[at] - 2.0 * _running_sum(f2)[at] / taus
    return _shaped(gamma, tau)


def _running_sum(x: np.ndarray) -> np.ndarray:
    """np.cumsum(x) with each step's rounding error added back (the
    TwoSum error of s_{i-1} + x_i, summed in turn): the running sums stay
    within a few ulp of their largest partial sum where they cancel, as
    F1 does in the absorption wing at large tau."""
    s = np.cumsum(x)
    prev = np.concatenate([[0.0], s[:-1]])
    back = s - prev
    err = (prev - (s - back)) + (x - back)
    return s + np.cumsum(err)


# ---------------------------------------------------------------------------
# kick (bang-bang) rate: series and finite-time integral forms

# comb terms j = 0.._J_MAX summed explicitly
_J_MAX = 50
# the tail beyond them: its weight sum_{j>_J_MAX} (j+1/2)^{-2}, and the
# next comb argument times tau
_TAIL_WEIGHT = half_integer_series_tail(_J_MAX + 1)
_NEXT_COMB = (2 * (_J_MAX + 1) + 1) * math.pi
# periods per comb block: a block holds _J_MAX + 1 terms and 64 tail
# probes per period
_KICK_BLOCK = 32


def _tail_supremum(tsd: ThermalSpectralDensity, start: np.ndarray,
                   sign: float) -> np.ndarray:
    """Coarse supremum of kappa_beta over each comb-argument tail."""
    lam = tsd.base.cutoff
    probe = start[:, None] + sign * np.linspace(0.0, 40.0 * lam, 64)
    return np.max(thermal_density(tsd, probe), axis=1)


def _kick_tail_estimate(tsd: ThermalSpectralDensity, omega0: float, taus):
    """The tail estimate beyond term _J_MAX: the tail weight times the
    density at the next comb argument."""
    return _TAIL_WEIGHT * _pair(tsd, omega0, _NEXT_COMB / taus)


def _kick_comb(tsd: ThermalSpectralDensity, omega0: float, tau):
    """The ``gamma`` of :func:`kick_rate` without its bound: terms
    j = 0.._J_MAX summed as (periods x terms) blocks of _KICK_BLOCK
    periods, plus the one-point tail estimate."""
    taus = require_finite(tau, "kick period tau")
    j = np.arange(_J_MAX + 1)
    weights = (j + 0.5) ** -2.0
    gamma = np.empty(taus.size)
    for s in range(0, taus.size, _KICK_BLOCK):
        t = taus[s:s + _KICK_BLOCK]
        h = (2 * j + 1) * math.pi / t[:, None]
        partial = np.sum(weights * _pair(tsd, omega0, h), axis=1)
        gamma[s:s + _KICK_BLOCK] = (2.0 / math.pi) * (
            partial + _kick_tail_estimate(tsd, omega0, t))
    return _shaped(gamma, tau)


def kick_rate(tsd: ThermalSpectralDensity, omega0: float, tau) -> SeriesRate:
    """Delta-comb (large-N) kick rate as a weighted comb series.

    Terms j = 0.._J_MAX are summed explicitly; the remainder is estimated
    with the exact tail weight sum_{j>_J_MAX} (j+1/2)^{-2} evaluated at the
    next comb argument, and bounded (``truncation_error``) by the same
    weight times a coarse supremum of kappa_beta over the tail arguments.
    Against the series summed to convergence, the estimate is off by up
    to about 1.6 % of gamma at the emission centre (beta = inf,
    W tau ~ 450-700), more at the absorption and dephasing centres where
    gamma is small, and always by less than ``truncation_error``.

    ``tau`` is a period or a 1-D array of periods (then both fields are
    arrays); arrays are summed as (periods x terms) comb blocks of
    _KICK_BLOCK periods.  ``strategy_rate`` with ``BangBangKick(tau)``
    is ``gamma`` bit for bit, without the bound's 128 probes per period.
    """
    taus = require_finite(tau, "kick period tau")
    bound = np.empty(taus.size)
    for s in range(0, taus.size, _KICK_BLOCK):
        h_next = _NEXT_COMB / taus[s:s + _KICK_BLOCK]
        bound[s:s + _KICK_BLOCK] = (2.0 / math.pi) * (_TAIL_WEIGHT * (
            _tail_supremum(tsd, omega0 + h_next, +1.0)
            + _tail_supremum(tsd, omega0 - h_next, -1.0)))
    return SeriesRate(_kick_comb(tsd, omega0, tau), _shaped(bound, tau))


def _kick_weight(x: np.ndarray, n_cycles: int) -> np.ndarray:
    """sin^2(Nx) tan^2(x) / x^2, stable through the tan poles for N even.

    With delta the distance to the nearest odd multiple of pi/2,
    sin^2(Nx) = sin^2(N delta) and cos^2(x) = sin^2(delta), so the weight
    equals [sin(N delta) sin(x) / (sin(delta) x)]^2 with a removable
    singularity (value N^2 sin^2(x)/x^2) at delta = 0.
    """
    delta = x - (np.floor(x / np.pi) + 0.5) * np.pi
    sd = np.sin(delta)
    tiny = np.abs(sd) < 1e-150
    sd = np.where(tiny, 1.0, sd)
    core = np.where(tiny, float(n_cycles), np.sin(n_cycles * delta) / sd)
    return (core * np.sinc(x / np.pi)) ** 2


def kick_rate_integral(tsd: ThermalSpectralDensity, omega0: float, tau: float,
                       n_cycles: int) -> float:
    """Finite-time form of the kick rate at t = N tau (N even).

    gamma = (2/N) int kappa_beta(omega0 + 2x/tau) sin^2(Nx) tan^2(x) / x^2 dx
    over x in R, integrated over the comb cells j = 0.._J_MAX on each side
    with segment edges at every multiple of pi/2 (the tan^2 poles, where
    the integrand stays finite for even N, are segment boundaries).  The
    remainder beyond the covered cells uses the same analytic tail
    estimate as :func:`kick_rate`, so the two representations share their
    deep-tail treatment and differ only by the finite-N kernel.

    Served range: a pi/2 cell holds N/2 periods of sin^2(Nx), which 16
    passes resolve only to a few 10^4 cycles (exp, beta = 50,
    omega0 = 0.01: N = 30,000 converges at tau = 10 but not at tau = 1,
    nor N = 60,000 at tau = 10); beyond, it raises NoConvergence.
    """
    require_finite(tau, "kick period tau")
    if n_cycles < 2 or n_cycles % 2 != 0:
        raise DomainError("n_cycles must be a positive even integer")
    edges = np.arange(0, 2 * (_J_MAX + 1) + 1) * (math.pi / 2.0)

    total = 0.0
    for sign in (+1.0, -1.0):
        def f(x, s=sign):
            return (thermal_density(tsd, omega0 + s * 2.0 * x / tau)
                    * _kick_weight(x, n_cycles))

        val, _ = segmented_integral(f, edges, rel_tol=1e-8, abs_tol=1e-300,
                                    max_passes=16)
        total += val
    rate = (2.0 / n_cycles) * total
    tail_est = _kick_tail_estimate(tsd, omega0, tau)
    return rate + (2.0 / math.pi) * tail_est


# ---------------------------------------------------------------------------
# closed-form asymptotics (plot overlays, crossover estimates)

def _kick_envelope_weight(ff: FormFactor) -> float:
    """w in the small-tau kick envelope gamma_k ~ w kappa(pi/tau).

    8/pi for the exponential family, (8/pi)(1 - 2^{-2n-1}) zeta(2n+1) for
    the polynomial one, whose kappa ~ omega^{1-2n} tail weights every comb
    term (2j+1)^{-2n-1}.
    """
    if ff.family == EXPONENTIAL:
        return 8.0 / math.pi
    n = ff.n
    return (8.0 / math.pi) * (1.0 - 2.0 ** (-2 * n - 1)) * zeta_odd(2 * n + 1)


@dataclass(frozen=True)
class SummaryAsymptotics:
    """Small-tau / large-K closed forms of the three controlled rates."""
    zeno_slope: float                              # gamma_Z ~ zeno_slope * tau
    kick_envelope: Callable[[float], float]        # gamma_k ~ envelope(tau)
    continuous_envelope: Callable[[float], float]  # gamma_c ~ envelope(K)


def summary_asymptotics(family: str, n: int, omega0: float, W: float,
                        g: float = 1.0) -> SummaryAsymptotics:
    """Zero-temperature asymptotics of the three controlled rates.

    zeno_slope = 1/tau_Z^2 = int kappa = C(0) (:func:`spectral.correlation`);
    the kick envelope is (8/pi) kappa(pi/tau) for the exponential family
    and picks up the factor (1 - 2^{-2n-1}) zeta(2n+1) for the polynomial
    one; the continuous envelope is pi kappa(K).
    """
    ff = form_factor_for_bandwidth(family, W=W, g=g, n=n)
    slope = float(correlation(ff.thermal(math.inf), np.zeros(1))[0].real)
    pref = _kick_envelope_weight(ff)

    def kick_env(tau: float) -> float:
        return pref * bare_density(ff, math.pi / tau)

    def cont_env(K: float) -> float:
        return math.pi * bare_density(ff, K)

    return SummaryAsymptotics(slope, kick_env, cont_env)


# ---------------------------------------------------------------------------
# strategy dispatch

def strategy_rate(tsd: ThermalSpectralDensity, center: float,
                  strategy: ControlStrategy):
    """Rate of the channel centred at ``center`` under ``strategy``.

    The single place where a control strategy becomes a rate.  ``center``
    may be any real frequency: the qubit generator evaluates emission at
    Omega, absorption at -Omega and pure dephasing at 0.  Kicks give the
    ``gamma`` of :func:`kick_rate`, without its bound.  A strategy holding
    an array of periods or couplings gives an array of rates.
    """
    if isinstance(strategy, Free):
        return golden_rule_rate(tsd, center)
    if isinstance(strategy, ZenoMeasurement):
        return zeno_rate(tsd, center, strategy.tau)
    if isinstance(strategy, BangBangKick):
        return _kick_comb(tsd, center, strategy.tau)
    if isinstance(strategy, ContinuousCoupling):
        return continuous_rate(tsd, center, strategy.K)
    raise DomainError(f"unknown strategy {strategy!r}")
