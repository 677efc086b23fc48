"""Free and controlled decay rates of a two-level system.

The uncontrolled (golden-rule) rate is gamma = 2 pi kappa_beta(Omega).
Three control strategies modulate it:

* projective measurements every tau ("Zeno"),

      gamma_Z(tau) = tau * int kappa_beta(omega)
                     sinc^2((omega - Omega) tau / 2) d omega,

  with the small-tau law gamma_Z ~ tau / tau_Z^2;

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import DomainError
from .numerics import (_segmented_integrals, alpha_n, half_integer_series_tail,
                       require_finite, segmented_integral, zeta_odd)
from .spectral import (EXPONENTIAL, POLYNOMIAL, FormFactor,
                       ThermalSpectralDensity, bare_density, thermal_density)

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
    "dephasing_rate",
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


def continuous_rate(tsd: ThermalSpectralDensity, omega0: float, K):
    """gamma_c(K) = pi [kappa_beta(omega0 + K) + kappa_beta(omega0 - K)].

    ``K`` is a coupling or a 1-D array of couplings.
    """
    Ks = require_finite(K, "coupling K", allow_zero=True)
    return _shaped(math.pi * (thermal_density(tsd, omega0 + Ks)
                              + thermal_density(tsd, omega0 - Ks)), K)


def dephasing_rate(tsd: ThermalSpectralDensity) -> float:
    """Pure-dephasing rate gamma_0 = 2 pi kappa_beta(0) = 2 pi g^2/beta.

    Zero at beta = +inf: Ohmic dephasing freezes at zero temperature.
    """
    if math.isinf(tsd.beta):
        return 0.0
    return 2.0 * math.pi * thermal_density(tsd, 0.0)


# ---------------------------------------------------------------------------
# Zeno rate (sinc^2-weighted line integral)

_K_SPLIT = 64          # sinc^2 lobes summed explicitly on each side
_TAIL_EDGES = np.array([1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 0.003, 0.01, 0.03,
                        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
# periods per engine run: a period's near field starts with ~250 segments
# and its two tails with 34, so a block's first pass holds ~750 (near) or
# ~1100 (tails) segments x 24 nodes; larger blocks add memory, not speed
_ZENO_BLOCK = 3
_TAIL_BLOCK = 32


def _structure_points(tsd: ThermalSpectralDensity) -> np.ndarray:
    """Frequencies where kappa_beta has structure worth a segment edge.

    Quarter-cutoff spacing over the peak region plus a geometric ladder
    covering the tails, plus thermal-scale points near omega = 0.
    """
    lam = tsd.base.cutoff
    radii = [0.25 * k * lam for k in range(1, 11)]
    # geometric ladder: resolves the exponential tail and reaches far
    # enough that the polynomial families' omega^{-(2n-1)} tails are below
    # 1e-10 of the total integral
    radii += list(lam * np.geomspace(0.05, 1e5, 50))
    if not math.isinf(tsd.beta):
        radii += [k / tsd.beta for k in (1, 2, 4, 8, 16, 32)]
    pts = [0.0]
    pts += [s * r for r in radii for s in (1.0, -1.0)]
    return np.asarray(pts)


def zeno_rate(tsd: ThermalSpectralDensity, omega0: float, tau):
    """Decay rate under projective measurements with period tau.

    gamma_Z(tau) = tau * int kappa_beta(omega) sinc^2((omega-omega0) tau/2).

    In the variable u = (omega - omega0) tau / 2 the kernel zeros sit at
    multiples of pi; the first _K_SPLIT lobes on each side are integrated
    segment by segment (with extra edges at the density's own structure),
    and the remaining tails use the mean value sin^2 -> 1/2, which leaves
    a smooth integrand; the oscillatory remainder is bounded by the lobe
    envelope and is below 1e-5 relative.

    ``tau`` is a period or a 1-D array of periods.  Arrays run through
    the quadrature engine in blocks (_ZENO_BLOCK periods for the near
    field, _TAIL_BLOCK for the tails), all integrals of a block sharing
    each adaptive pass.  A period's value equals the one-period call's up
    to the last-bit rounding of the rule dot products, which can depend
    on the block's size.
    """
    taus = require_finite(tau, "measurement period tau")
    struct = _structure_points(tsd)
    near = np.empty(taus.size)
    tail = np.empty(taus.size)
    for s in range(0, taus.size, _ZENO_BLOCK):
        near[s:s + _ZENO_BLOCK] = _zeno_near(tsd, omega0, taus[s:s + _ZENO_BLOCK],
                                             struct)
    for s in range(0, taus.size, _TAIL_BLOCK):
        tail[s:s + _TAIL_BLOCK] = _zeno_tails(tsd, omega0, taus[s:s + _TAIL_BLOCK])
    return _shaped(2.0 * (near + tail), tau)


def _zeno_near(tsd: ThermalSpectralDensity, omega0: float, taus: np.ndarray,
               struct: np.ndarray) -> np.ndarray:
    """The sinc^2 integral over |u| < U at each period of a block."""
    U = _K_SPLIT * math.pi
    lobes = np.arange(-_K_SPLIT, _K_SPLIT + 1) * math.pi

    def f(u, owner):
        t = taus[owner][:, None]
        return thermal_density(tsd, omega0 + 2.0 * u / t) * np.sinc(u / np.pi) ** 2

    a, b, owner = [], [], []
    for q, tau in enumerate(taus):
        u_struct = (struct - omega0) * tau / 2.0
        edges = np.sort(np.concatenate([lobes, u_struct[np.abs(u_struct) < U]]))
        a.append(edges[:-1])
        b.append(edges[1:])
        owner.append(np.full(edges.size - 1, q))
    near, _ = _segmented_integrals(
        f, np.concatenate(a), np.concatenate(b), np.concatenate(owner), taus.size,
        rel_tol=1e-10, abs_tol=1e-300, max_passes=14,
        label=lambda q: f"the zeno_rate near field at tau={taus[q]!r}")
    return near


def _zeno_tails(tsd: ThermalSpectralDensity, omega0: float,
                taus: np.ndarray) -> np.ndarray:
    """The |u| > U remainder at each period of a block.

    There sin^2 -> 1/2; substituting u = U/v puts each tail on v in (0, 1].
    Queries 0..n-1 are the right tails, n..2n-1 the left ones.  A tail
    that reaches omega = 0, where kappa_beta has a kink, gets an edge there.
    """
    n = taus.size
    U = _K_SPLIT * math.pi
    sign = np.repeat([1.0, -1.0], n)
    t = np.tile(taus, 2)

    def f(v, owner):
        return thermal_density(
            tsd, omega0 + sign[owner][:, None] * (2.0 * U / (t[owner][:, None] * v)))

    # omega0 + sign 2U/(tau v) = 0 at v = -sign 2U/(tau omega0); a tail
    # without that point inside repeats its last edge, a zero-width
    # segment the engine drops
    with np.errstate(divide="ignore"):
        kink = -sign * (2.0 * U / (t * omega0))
    kink = np.where((kink > _TAIL_EDGES[0]) & (kink < 1.0), kink, 1.0)
    edges = np.sort(np.column_stack([np.tile(_TAIL_EDGES, (2 * n, 1)), kink]), axis=1)
    owner = np.repeat(np.arange(2 * n), edges.shape[1] - 1)
    tails, _ = _segmented_integrals(
        f, edges[:, :-1].ravel(), edges[:, 1:].ravel(), owner, 2 * n,
        rel_tol=1e-9, abs_tol=1e-300, max_passes=14,
        label=lambda q: f"a zeno_rate tail at tau={t[q]!r}")
    return 0.5 * (tails[:n] + tails[n:]) / U


# ---------------------------------------------------------------------------
# kick (bang-bang) rate: series and finite-time integral forms

# comb terms j = 0.._J_MAX summed explicitly
_J_MAX = 50
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
    """(tail weight, next comb argument, tail estimate) beyond term _J_MAX."""
    h_next = (2 * (_J_MAX + 1) + 1) * math.pi / taus
    tail_w = half_integer_series_tail(_J_MAX + 1)
    tail_est = tail_w * (thermal_density(tsd, omega0 + h_next)
                         + thermal_density(tsd, omega0 - h_next))
    return tail_w, h_next, tail_est


def kick_rate(tsd: ThermalSpectralDensity, omega0: float, tau) -> SeriesRate:
    """Delta-comb (large-N) kick rate as a weighted comb series.

    Terms j = 0.._J_MAX are summed explicitly; the remainder is estimated
    with the exact tail weight sum_{j>_J_MAX} (j+1/2)^{-2} evaluated at the
    next comb argument, and bounded (``truncation_error``) by the same
    weight times a coarse supremum of kappa_beta over the tail arguments.

    ``tau`` is a period or a 1-D array of periods (then both fields are
    arrays); arrays are summed as (periods x terms) comb blocks of
    _KICK_BLOCK periods.
    """
    taus = require_finite(tau, "kick period tau")
    j = np.arange(_J_MAX + 1)
    weights = (j + 0.5) ** -2.0
    pref = 2.0 / math.pi
    gamma = np.empty(taus.size)
    bound = np.empty(taus.size)
    for s in range(0, taus.size, _KICK_BLOCK):
        t = taus[s:s + _KICK_BLOCK]
        h = (2 * j + 1) * math.pi / t[:, None]
        partial = np.sum(weights * (thermal_density(tsd, omega0 + h)
                                    + thermal_density(tsd, omega0 - h)), axis=1)
        tail_w, h_next, tail_est = _kick_tail_estimate(tsd, omega0, t)
        gamma[s:s + _KICK_BLOCK] = pref * (partial + tail_est)
        bound[s:s + _KICK_BLOCK] = pref * (tail_w * (
            _tail_supremum(tsd, omega0 + h_next, +1.0)
            + _tail_supremum(tsd, omega0 - h_next, -1.0)))
    return SeriesRate(_shaped(gamma, tau), _shaped(bound, tau))


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
    tail_est = _kick_tail_estimate(tsd, omega0, tau)[2]
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

    zeno_slope = 1/tau_Z^2 = int kappa; the kick envelope is
    (8/pi) kappa(pi/tau) for the exponential family and picks up the
    factor (1 - 2^{-2n-1}) zeta(2n+1) for the polynomial one; the
    continuous envelope is pi kappa(K).
    """
    if family == EXPONENTIAL:
        ff = FormFactor(EXPONENTIAL, g=g, cutoff=W / 2.0)
        slope = g * g * ff.cutoff ** 2
    elif family == POLYNOMIAL:
        if n < 2:
            raise DomainError("polynomial asymptotics require n >= 2")
        ff = FormFactor(POLYNOMIAL, g=g, cutoff=W / alpha_n(n), n=n)
        slope = g * g * ff.cutoff ** 2 / (2.0 * (n - 1))
    else:
        raise DomainError(f"unknown family {family!r}")
    pref = _kick_envelope_weight(ff)

    def kick_env(tau: float) -> float:
        return pref * bare_density(ff, math.pi / tau)

    def cont_env(K: float) -> float:
        return math.pi * bare_density(ff, K)

    return SummaryAsymptotics(slope, kick_env, cont_env)


# ---------------------------------------------------------------------------
# strategy dispatch

def strategy_rate(tsd: ThermalSpectralDensity, center: float,
                  strategy: ControlStrategy) -> SeriesRate:
    """Rate of the channel centred at ``center`` under ``strategy``.

    The single place where a control strategy becomes a rate.  ``center``
    may be any real frequency: the qubit generator evaluates emission at
    Omega, absorption at -Omega and pure dephasing at 0.  Only the kick
    series carries a nonzero truncation error.  A strategy holding an array
    of periods or couplings gives an array of rates.
    """
    if isinstance(strategy, Free):
        return SeriesRate(golden_rule_rate(tsd, center), 0.0)
    if isinstance(strategy, ZenoMeasurement):
        return SeriesRate(zeno_rate(tsd, center, strategy.tau), 0.0)
    if isinstance(strategy, BangBangKick):
        return kick_rate(tsd, center, strategy.tau)
    if isinstance(strategy, ContinuousCoupling):
        return SeriesRate(continuous_rate(tsd, center, strategy.K), 0.0)
    raise DomainError(f"unknown strategy {strategy!r}")

