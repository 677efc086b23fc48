"""Shared numerical kernels.

Adaptive quadrature over the real line with declared split points, a
vectorized segmented integrator for oscillatory kernels (which can run
several integrals through shared passes), the guard for control
parameters, the -1 branch of Lambert's W, the Riemann zeta function at
odd integers, the Bose occupation number and the Gamma-ratio coefficient
alpha_n used by the crossover estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .errors import DomainError, NoConvergence

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate_line",
    "segmented_integral",
    "lambert_w_m1",
    "zeta_odd",
    "bose_occupation",
    "alpha_n",
    "half_integer_series_tail",
]

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for line integrals.

    ``split_points`` declares interior points (integrable kinks, kernel
    zeros) where the integration domain must be subdivided.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200
    split_points: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions must be at least 10")
        pts = tuple(sorted(float(p) for p in self.split_points))
        object.__setattr__(self, "split_points", pts)


class IntegralResult(NamedTuple):
    value: float
    error: float


def integrate_line(f: Callable[[float], float],
                   spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Integrate ``f`` over the whole real line.

    The domain is cut at ``spec.split_points``; each piece (including the
    two infinite tails, which scipy maps to a finite interval) is handled
    by adaptive Gauss-Kronrod quadrature.  Raises :class:`NoConvergence`
    if the summed error estimate exceeds the requested tolerance.
    """
    edges = [-np.inf, *spec.split_points, np.inf]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        # a tripped subdivision cap surfaces as NoConvergence below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            if a == b:
                continue
            val, est = integrate.quad(f, a, b, epsabs=spec.abs_tol,
                                      epsrel=spec.rel_tol,
                                      limit=spec.max_subdivisions)
            total += val
            err += est
    n_pieces = len(edges) - 1
    tol = max(n_pieces * spec.abs_tol, spec.rel_tol * abs(total))
    if err > 10.0 * tol:
        raise NoConvergence(
            f"error estimate {err:.3e} above tolerance {tol:.3e}")
    return IntegralResult(total, err)


_GL_LO = leggauss(8)
_GL_HI = leggauss(16)


def require_finite(values, what: str, allow_zero: bool = False) -> np.ndarray:
    """``values`` as a flat float array, or DomainError unless every entry
    is finite and positive (nonnegative with ``allow_zero``).

    The one guard for control parameters (periods tau, couplings K),
    shared by the strategy constructors and the scalar and array forms of
    the rate kernels.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    ok = np.isfinite(arr) & ((arr >= 0.0) if allow_zero else (arr > 0.0))
    if not ok.all():
        sign = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{what} must be finite and {sign}, "
                          f"got {float(arr[~ok][0])!r}")
    return arr


def _gl_apply(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
              rule) -> np.ndarray:
    """Gauss-Legendre on a batch of segments [a_i, b_i] (vectorized).

    ``f(nodes, owner)`` gets the (segments x rule points) node array and
    the owning query of each segment.
    """
    x, w = rule
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    return half * (f(nodes, owner) @ w)


def _query_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``counts`` entries of ``x``.

    Each run is summed by its own ``.sum()``, the pairwise order a lone
    array gets, so a run's sum does not depend on its neighbours.
    """
    ends = np.cumsum(counts).tolist()
    return np.array([x[s:e].sum() for s, e in zip([0] + ends[:-1], ends)])


def _segmented_integrals(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
                         n_queries: int, rel_tol: float, abs_tol: float,
                         max_passes: int,
                         label: Callable[[int], str] = "query {}".format,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Several adaptive bisection integrals sharing every pass.

    Segment i = [a_i, b_i] belongs to query ``owner[i]``; ``owner`` is
    sorted, so each query's segments are contiguous.  Each pass evaluates
    the pending segments of all queries in one call of ``f(nodes, owner)``
    per rule.  A query accepts its segments and bisects the rest exactly as
    a lone integral would: tolerances come from its own running total, its
    sums run over its own segments in their own order, and bisection keeps
    that order.  Only the rule dot products (one matrix-vector product over
    all segments) may round a segment's estimate differently in the last
    bit than a lone integral's would.
    Raises :class:`NoConvergence`, naming the query by ``label(q)``, if
    segments are still pending after ``max_passes`` passes.
    """
    values = np.zeros(n_queries)
    errors = np.zeros(n_queries)
    floor = abs_tol / max(rel_tol, 1e-300)
    for _ in range(max_passes):
        hi = _gl_apply(f, a, b, owner, _GL_HI)
        lo = _gl_apply(f, a, b, owner, _GL_LO)
        disc = np.abs(hi - lo)
        # the queries with pending segments, and their segment counts
        counts = np.bincount(owner, minlength=n_queries)
        live = np.flatnonzero(counts)
        counts = counts[live]
        total = _query_sums(hi, counts)
        scale = np.maximum(np.abs(values[live] + total), floor)
        bad = disc > np.repeat(np.maximum(abs_tol, rel_tol * scale) / counts, counts)
        good = ~bad
        kept = np.bincount(owner[good], minlength=n_queries)[live]
        values[live] += _query_sums(hi[good], kept)
        errors[live] += _query_sums(disc[good], kept)
        if not bad.any():
            return values, errors
        a, b, owner = a[bad], b[bad], owner[bad]
        mid = 0.5 * (a + b)
        # per query: the bisected segments' left halves, then their right
        # halves, the order a lone integral keeps
        order = np.argsort(np.concatenate([owner, owner]), kind="stable")
        a = np.concatenate([a, mid])[order]
        b = np.concatenate([mid, b])[order]
        owner = owner[order % owner.size]
    raise NoConvergence(
        f"segmented quadrature of {label(int(owner[0]))} ran out of passes: "
        f"{a.size} segments above tolerance after {max_passes} passes")


def segmented_integral(f_vec, edges: Sequence[float],
                       rel_tol: float = 1e-9, abs_tol: float = 1e-13,
                       max_passes: int = 14) -> IntegralResult:
    """Adaptive bisection quadrature over the segments defined by ``edges``.

    ``f_vec`` must accept a flat numpy array.  Each segment is estimated
    with nested 8- and 16-point Gauss-Legendre rules; segments whose
    discrepancy exceeds the (scaled) tolerance are bisected, all pending
    segments being evaluated in a single vectorized call per pass.  Raises
    :class:`NoConvergence` if segments are still pending after
    ``max_passes`` passes.
    """
    edges = np.asarray(sorted(set(float(e) for e in edges)))
    if edges.size < 2:
        return IntegralResult(0.0, 0.0)
    values, errors = _segmented_integrals(
        lambda x, _: f_vec(x.ravel()).reshape(x.shape),
        edges[:-1].copy(), edges[1:].copy(), np.zeros(edges.size - 1, dtype=int),
        1, rel_tol, abs_tol, max_passes, label=lambda q: "the integral")
    return IntegralResult(values[0], errors[0])


def lambert_w_m1(x: float) -> float:
    """The -1 (lower) real branch of Lambert's W on [-1/e, 0).

    Seeded with the branch-point series near -1/e and the log-log
    asymptote near 0, then polished by Halley iteration until the
    forward-map residual |w e^w - x| falls below 1e-12 |x|.
    """
    x = float(x)
    if not (-_INV_E <= x < 0.0):
        raise DomainError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")
    if x == -_INV_E:
        return -1.0
    if x > -0.25:
        # asymptotic seed: w ~ ln(-x) - ln(-ln(-x))
        lx = math.log(-x)
        w = lx - math.log(-lx)
    else:
        # series around the branch point in s = sqrt(2(1 + e x))
        s = math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 - s - s * s / 3.0 - 11.0 * s**3 / 72.0
    for _ in range(50):
        ew = math.exp(w)
        r = w * ew - x
        if abs(r) <= 1e-12 * abs(x):
            return w
        d1 = ew * (w + 1.0)
        # Halley step for f(w) = w e^w - x
        step = r / (d1 - r * (w + 2.0) / (2.0 * (w + 1.0)))
        w -= step
        if w >= -1.0:
            w = -1.0 - 1e-12
    if abs(w * math.exp(w) - x) <= 1e-10 * abs(x):
        return w
    raise NoConvergence(f"lambert_w_m1 failed to converge at x={x}")


def zeta_odd(m: int) -> float:
    """Riemann zeta at an odd integer m, 3 <= m <= 15."""
    if m != int(m) or m % 2 == 0 or not 3 <= m <= 15:
        raise DomainError(f"zeta_odd requires an odd integer in [3, 15], got {m}")
    return float(special.zeta(int(m)))


def bose_occupation(omega: float, beta: float) -> float:
    """Bose occupation N(omega) = 1/(e^{beta omega} - 1).

    Stable over the full range of beta*omega via expm1.  beta may be
    +inf (zero temperature): N -> 0 for omega > 0 and -1 for omega < 0.
    """
    if omega == 0.0:
        raise DomainError("bose_occupation is singular at omega = 0")
    if math.isinf(beta):
        return 0.0 if omega > 0 else -1.0
    x = beta * omega
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def alpha_n(n: int) -> float:
    """Gamma-ratio coefficient (sqrt(pi)/2) Gamma(n-3/2)/Gamma(n-1), n >= 2.

    Equals the bandwidth-to-cutoff ratio W/Lambda of the polynomial
    spectral-density family; bounded above by alpha_2 = pi/2.
    """
    if n != int(n) or n < 2:
        raise DomainError(f"alpha_n requires an integer n >= 2, got {n}")
    return 0.5 * math.sqrt(math.pi) * math.gamma(n - 1.5) / math.gamma(n - 1.0)


def half_integer_series_tail(j_from: int) -> float:
    """Exact tail sum_{j >= j_from} (j + 1/2)^{-2} via the trigamma function.

    The full series (j_from = 0) sums to pi^2/2.
    """
    if j_from < 0:
        raise DomainError("j_from must be nonnegative")
    return float(special.polygamma(1, j_from + 0.5))
