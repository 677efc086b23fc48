"""Shared numerical kernels.

One adaptive quadrature engine: a vectorized segmented integrator (8- and
16-point Gauss-Legendre rules, bisection) that can run several integrals
through shared passes.  Besides it: the guard for control parameters, the -1
branch of Lambert's W, the Riemann zeta function at odd integers, the
trigamma tail of the half-integer series and the Gamma-ratio coefficient
alpha_n used by the crossover estimates.  numpy is the only dependency.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NoConvergence

__all__ = [
    "IntegralResult",
    "segmented_integral",
    "lambert_w_m1",
    "zeta_odd",
    "alpha_n",
    "half_integer_series_tail",
]

_INV_E = math.exp(-1.0)


class IntegralResult(NamedTuple):
    value: float
    error: float


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


def _segmented_integrals(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
                         n_queries: int, rel_tol: float, abs_tol: float,
                         max_passes: int,
                         label: Callable[[int], str] = "query {}".format,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Several adaptive bisection integrals sharing every pass.

    Segment i = [a_i, b_i] belongs to query ``owner[i]``; segments may come
    in any order, and those with a_i == b_i are dropped.  Each pass
    evaluates the pending segments of all queries in one call of
    ``f(nodes, owner)`` per rule.  A query accepts its segments and
    bisects the rest exactly as a lone integral would: tolerances come
    from its own running total, ``np.bincount`` sums its segments in array
    order, and bisection (all left halves, then all right halves) keeps
    its segments in a lone integral's order.  Only the rule dot products
    (one matrix-vector product over all segments) may round a segment's
    estimate differently in the last bit than a lone integral's would.
    Raises :class:`NoConvergence`, naming the lowest pending query by
    ``label(q)``, if segments are still pending after ``max_passes``
    passes.
    """
    pending = a != b
    a, b, owner = a[pending], b[pending], owner[pending]
    values = np.zeros(n_queries)
    errors = np.zeros(n_queries)
    floor = abs_tol / max(rel_tol, 1e-300)
    for _ in range(max_passes):
        if not a.size:
            break
        hi = _gl_apply(f, a, b, owner, _GL_HI)
        lo = _gl_apply(f, a, b, owner, _GL_LO)
        disc = np.abs(hi - lo)
        counts = np.bincount(owner, minlength=n_queries)
        scale = np.maximum(np.abs(values + np.bincount(owner, hi, n_queries)),
                           floor)
        # a query without pending segments looks up no tolerance
        tol = np.maximum(abs_tol, rel_tol * scale) / np.maximum(counts, 1)
        bad = disc > tol[owner]
        good = ~bad
        values += np.bincount(owner[good], hi[good], n_queries)
        errors += np.bincount(owner[good], disc[good], n_queries)
        a, b, owner = a[bad], b[bad], owner[bad]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    if a.size:
        raise NoConvergence(
            f"segmented quadrature of {label(int(owner.min()))} ran out of "
            f"passes: {a.size} segments above tolerance after {max_passes} passes")
    return values, errors


def segmented_integral(f_vec, edges: Sequence[float],
                       rel_tol: float = 1e-9, abs_tol: float = 1e-13,
                       max_passes: int = 14) -> IntegralResult:
    """Adaptive bisection quadrature over the segments defined by ``edges``.

    ``f_vec`` must accept a flat numpy array.  Each segment is estimated
    with 8- and 16-point Gauss-Legendre rules; segments whose discrepancy
    exceeds the (scaled) tolerance are bisected, all pending segments
    being evaluated in a single vectorized call per pass.  Repeated edges
    add nothing.  Raises :class:`NoConvergence` if segments are still
    pending after ``max_passes`` passes.
    """
    edges = np.sort(np.asarray(edges, dtype=float))
    values, errors = _segmented_integrals(
        lambda x, _: f_vec(x.ravel()).reshape(x.shape),
        edges[:-1], edges[1:], np.zeros(edges[1:].size, dtype=int),
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


# zeta(3), zeta(5), ..., zeta(15), correctly rounded
_ZETA_ODD = (1.2020569031595942, 1.03692775514337, 1.008349277381923,
             1.0020083928260821, 1.0004941886041194, 1.0001227133475785,
             1.000030588236307)


def zeta_odd(m: int) -> float:
    """Riemann zeta at an odd integer m, 3 <= m <= 15."""
    if m != int(m) or m % 2 == 0 or not 3 <= m <= 15:
        raise DomainError(f"zeta_odd requires an odd integer in [3, 15], got {m}")
    return _ZETA_ODD[(int(m) - 3) // 2]


def alpha_n(n: int) -> float:
    """Gamma-ratio coefficient (sqrt(pi)/2) Gamma(n-3/2)/Gamma(n-1), n >= 2.

    Equals the bandwidth-to-cutoff ratio W/Lambda of the polynomial
    spectral-density family; bounded above by alpha_2 = pi/2.
    """
    if n != int(n) or n < 2:
        raise DomainError(f"alpha_n requires an integer n >= 2, got {n}")
    return 0.5 * math.sqrt(math.pi) * math.gamma(n - 1.5) / math.gamma(n - 1.0)


# Bernoulli numbers B_2 .. B_14 of the trigamma asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def half_integer_series_tail(j_from: int) -> float:
    """Exact tail sum_{j >= j_from} (j + 1/2)^{-2}, the trigamma psi'(j_from + 1/2).

    The recurrence psi'(x) = 1/x^2 + psi'(x + 1) carries x up to 16, where
    the asymptotic series 1/x + 1/(2x^2) + sum_k B_2k x^{-(2k+1)} (seven
    terms, summed largest first) is within about 2 ulp.  The full series
    (j_from = 0) sums to pi^2/2.
    """
    if j_from < 0:
        raise DomainError("j_from must be nonnegative")
    x = j_from + 0.5
    acc = 0.0
    while x < 16.0:
        acc += 1.0 / (x * x)
        x += 1.0
    total = acc + 1.0 / x + 0.5 / (x * x)
    for k, b in enumerate(_BERNOULLI, start=1):
        total += b * x ** -(2 * k + 1)
    return total
