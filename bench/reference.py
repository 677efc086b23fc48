"""Independent references for the benchmark's output checks.

Everything here is written against the formulas stated in the zenolab
docstrings, with numpy and scipy only: nothing is imported from zenolab,
so a defect in a zenolab kernel cannot cancel out of a comparison.

* ``Density`` evaluates the bare and thermal Ohmic spectral densities in
  closed form, with the bandwidth-matched cutoffs (W = 1).
* ``zeno_rate`` evaluates tau * int kappa_beta(w) sinc^2((w - Omega) tau/2)
  by ``scipy.integrate.quad``: the kernel is rewritten as
  (1 - cos((w - Omega) tau)) / ((w - Omega) tau / 2)^2 / 2, the window
  |w - Omega| < delta is integrated directly and the two infinite tails
  use QUADPACK's Fourier-integral routine (QAWF) for the cosine part.
  zenolab itself uses nested Gauss-Legendre rules over sinc^2 lobes and a
  mean-value tail, so the two share no numerical method.
* ``kick_rate`` sums the comb series term by term to 2e5 terms.
* ``continuous_rate`` and ``golden_rule_rate`` are the closed forms.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=2000)
_QAWF = dict(limlst=400, limit=2000)
# QAWF honours only an absolute tolerance; it is set relative to the
# non-oscillatory part of the same tail
_QAWF_REL = 1e-12
# below this period the tails' 1 - cos(v tau) cancels badly; quad the
# sinc^2 form directly instead
_DIRECT_TAU = 1.0


def _alpha(n: int) -> float:
    return 0.5 * math.sqrt(math.pi) * math.gamma(n - 1.5) / math.gamma(n - 1.0)


class Density:
    """kappa and kappa_beta of one family at bandwidth W = 1."""

    def __init__(self, family: str, n: int, g: float, beta: float):
        if family not in ("exp", "poly"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.n = int(n)
        self.g2 = float(g) ** 2
        self.beta = float(beta)
        self.cutoff = 0.5 if family == "exp" else 1.0 / _alpha(self.n)

    def bare(self, w):
        w = np.asarray(w, dtype=float)
        wp = np.where(w > 0, w, 0.0)
        if self.family == "exp":
            val = self.g2 * wp * np.exp(-wp / self.cutoff)
        else:
            val = self.g2 * wp / (1.0 + (wp / self.cutoff) ** 2) ** self.n
        return np.where(w > 0, val, 0.0)

    def thermal(self, w):
        w = np.asarray(w, dtype=float)
        if math.isinf(self.beta):
            return self.bare(w)
        a = np.abs(w)
        x = self.beta * a
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            emission = self.bare(a) / -np.expm1(-x)
            absorption = self.bare(a) * np.exp(-x) / -np.expm1(-x)
        out = np.where(w > 0, emission, absorption)
        return np.where(w == 0, self.g2 / self.beta, out)

    def scalar(self, w: float) -> float:
        return float(self.thermal(w))


def golden_rule_rate(dens: Density, omega0: float) -> float:
    return 2.0 * math.pi * dens.scalar(omega0)


def continuous_rate(dens: Density, omega0: float, K: float) -> float:
    return math.pi * (dens.scalar(omega0 + K) + dens.scalar(omega0 - K))


def kick_rate(dens: Density, omega0: float, tau: float,
              terms: int = 200_000) -> float:
    j = np.arange(terms, dtype=float)
    h = (2.0 * j + 1.0) * math.pi / tau
    comb = dens.thermal(omega0 + h) + dens.thermal(omega0 - h)
    # smallest terms first, so the sum does not lose them to rounding
    return (2.0 / math.pi) * float(np.sum(((j + 0.5) ** -2.0 * comb)[::-1]))


def _quad(f, a, b, **kw) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, **kw)[0]


def zeno_rate(dens: Density, omega0: float, tau: float) -> float:
    """tau * int kappa_beta(w) sinc^2((w - omega0) tau / 2) dw, by quad.

    Writing v = w - omega0, the integrand is
    (2/tau) kappa_beta(omega0 + v) (1 - cos(v tau)) / v^2.  The window
    |v| < delta is integrated directly; beyond it the 1/v^2 and
    cos(v tau)/v^2 parts are integrated separately, the latter as a
    Fourier integral.  kappa_beta has a kink at w = 0 (v = -omega0), so
    delta < omega0 and the left tail is split there.
    """
    k = dens.thermal

    def window(v):
        return tau * k(omega0 + v) * np.sinc(v * tau / (2.0 * math.pi)) ** 2

    if tau <= _DIRECT_TAU:
        # the central lobe is wider than the density: no cancellation to avoid
        return (_quad(window, -np.inf, -omega0, **_QUAD)
                + _quad(window, -omega0, 0.0, **_QUAD)
                + _quad(window, 0.0, np.inf, **_QUAD))

    delta = 0.5 * omega0
    lobe = 2.0 * math.pi / tau
    edges = np.arange(-delta, delta + lobe, lobe)
    edges[-1] = delta
    near = sum(_quad(window, a, b, **_QUAD) for a, b in zip(edges[:-1], edges[1:]))

    # right tail v in [delta, inf): kappa_beta smooth
    def right(v):
        return k(omega0 + v) / (v * v)

    r_flat = _quad(right, delta, np.inf, **_QUAD)
    r_cos = _quad(right, delta, np.inf, weight="cos", wvar=tau,
                  epsabs=_QAWF_REL * r_flat, **_QAWF)

    # left tail v in [-omega0, -delta]: finite, kink-free
    def left_window(v):
        return k(omega0 + v) * (1.0 - math.cos(v * tau)) / (v * v)

    n_lobes = max(1, int(math.ceil((omega0 - delta) / lobe)))
    l_edges = np.linspace(-omega0, -delta, n_lobes + 1)
    l_near = sum(_quad(left_window, a, b, **_QUAD)
                 for a, b in zip(l_edges[:-1], l_edges[1:]))

    # left tail beyond the kink: w = -s, s in [0, inf), v = -(omega0 + s)
    l_far = 0.0
    if not math.isinf(dens.beta):
        def left(s):
            return k(-s) / (omega0 + s) ** 2

        flat = _quad(left, 0.0, np.inf, **_QUAD)
        # cos((omega0 + s) tau) = cos(omega0 tau) cos(s tau) - sin(omega0 tau) sin(s tau)
        tol = _QAWF_REL * flat
        c = _quad(left, 0.0, np.inf, weight="cos", wvar=tau, epsabs=tol, **_QAWF)
        s = _quad(left, 0.0, np.inf, weight="sin", wvar=tau, epsabs=tol, **_QAWF)
        l_far = flat - (math.cos(omega0 * tau) * c - math.sin(omega0 * tau) * s)

    return near + (2.0 / tau) * (r_flat - r_cos + l_near + l_far)
