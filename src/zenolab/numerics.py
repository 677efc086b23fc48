"""Shared numerical kernels.

One adaptive quadrature engine: a vectorized segmented integrator (the
nested Gauss-Kronrod 7/15 pair, bisection) that can run several real or
complex integrals through shared passes.  Besides it: the entry guard
for numeric inputs, the kernels' array contract (``_shaped``), Horner's
rule, the Gauss-Legendre rule (checked, cached on M), the -1 branch of
Lambert's W, the Riemann zeta function at odd integers, the trigamma
function (the tail of the half-integer series, and at complex arguments
for the bath correlation function) and the Gamma-ratio coefficient
alpha_n used by the crossover estimates.  numpy is the only dependency.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NoConvergence

__all__ = [
    "IntegralResult",
    "segmented_integral",
    "gauss_legendre",
    "lambert_w_m1",
    "zeta_odd",
    "alpha_n",
    "half_integer_series_tail",
]

_INV_E = math.exp(-1.0)
_EPS = float(np.finfo(float).eps)
_HALLEY_MAX = 64        # cap on the Gauss-Legendre rule's Halley steps


class IntegralResult(NamedTuple):
    value: float
    error: float


# QUADPACK's qk15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983), its
# 33-digit constants as the shortest decimals of the same doubles: per
# nonnegative Kronrod node, from the largest down, its K15 weight and its
# G7 weight (0 on the Kronrod-only nodes; every other node is a 7-point
# Gauss-Legendre node)
_QK15 = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
# the 15 nodes in ascending order and their (15 x 2) K15 and G7 weights
_K15_NODES = np.concatenate([-_QK15[:, 0], _QK15[-2::-1, 0]])
_K15_WEIGHTS = np.concatenate([_QK15[:, 1:], _QK15[-2::-1, 1:]])


def require_finite(values, what: str, allow_zero: bool = False) -> np.ndarray:
    """``values`` as a flat float array, or DomainError unless every entry
    is finite and positive (nonnegative with ``allow_zero``).

    The one guard where a number that must be positive (or nonnegative)
    enters the library: control parameters (periods tau, couplings K),
    channel rates, times, bandwidths and spans.  NaN and +-inf fail it.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    ok = np.isfinite(arr) & ((arr >= 0.0) if allow_zero else (arr > 0.0))
    if not ok.all():
        sign = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{what} must be finite and {sign}, "
                          f"got {float(arr[~ok][0])!r}")
    return arr


def _shaped(values: np.ndarray, like):
    """``values`` in the shape of ``like``: a float for a scalar ``like``."""
    return float(values.flat[0]) if np.ndim(like) == 0 else values.reshape(np.shape(like))


def _segmented_integrals(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
                         n_queries: int, rel_tol: float, abs_tol: float,
                         max_passes: int,
                         label: Callable[[int], str] = "query {}".format,
                         max_pending: int | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Several adaptive bisection integrals sharing every pass.

    Segment i = [a_i, b_i] belongs to query ``owner[i]``; segments may come
    in any order, and those with a_i == b_i are dropped.  Each pass
    evaluates the pending segments of all queries in one call of
    ``f(nodes, owner)`` on the (segments x 15) array of their Gauss-Kronrod
    nodes; the K15 sum is a segment's estimate and |K15 - G7| its error.
    A complex integrand gives complex values; its tolerances use moduli.
    A query accepts its segments and bisects the rest exactly as a lone
    integral would: tolerances come from its own running total,
    ``np.bincount`` sums its segments in array order, and bisection (all
    left halves, then all right halves) keeps its segments in a lone
    integral's order.  Only the rule dot products (one matrix product over
    all segments) may round a segment's estimate differently in the last
    bit than a lone integral's would.  Raises :class:`NoConvergence`,
    naming the lowest offending query by ``label(q)``, at once if a
    segment's estimate or error is not finite or (when ``max_pending`` is
    given) more than ``max_pending`` segments are pending, or if segments
    are still pending after ``max_passes`` passes.
    """
    def sums(w):
        if np.iscomplexobj(w):
            return (np.bincount(owner, w.real, n_queries)
                    + 1j * np.bincount(owner, w.imag, n_queries))
        return np.bincount(owner, w, n_queries)

    pending = a != b
    a, b, owner = a[pending], b[pending], owner[pending]
    values = np.zeros(n_queries)
    errors = np.zeros(n_queries)
    floor = abs_tol / max(rel_tol, 1e-300)
    for _ in range(max_passes):
        if not a.size:
            break
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fx = f(mid[:, None] + half[:, None] * _K15_NODES, owner)
        # an infinite value meets a zero G7 weight; the check below reports it
        with np.errstate(invalid="ignore"):
            rules = half[:, None] * (fx @ _K15_WEIGHTS)
            kronrod = rules[:, 0]
            disc = np.abs(kronrod - rules[:, 1])
        # NaN passes any tolerance test; bisecting it would only multiply it
        nonfinite = ~np.isfinite(disc)
        if nonfinite.any():
            raise NoConvergence(
                f"segmented quadrature of {label(int(owner[nonfinite].min()))} "
                f"met a non-finite integrand value")
        counts = np.bincount(owner, minlength=n_queries)
        scale = np.maximum(np.abs(values + sums(kronrod)), floor)
        # a query without pending segments looks up no tolerance
        tol = np.maximum(abs_tol, rel_tol * scale) / np.maximum(counts, 1)
        bad = disc > tol[owner]
        kronrod[bad] = 0.0
        disc[bad] = 0.0
        values = values + sums(kronrod)
        errors += np.bincount(owner, disc, n_queries)
        a, b, owner = a[bad], b[bad], owner[bad]
        if max_pending is not None and 2 * a.size > max_pending:
            raise NoConvergence(
                f"segmented quadrature of {label(int(owner.min()))} needs "
                f"more than {max_pending} pending segments")
        mid = mid[bad]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    if a.size:
        raise NoConvergence(
            f"segmented quadrature of {label(int(owner.min()))} ran out of "
            f"passes: {a.size} segments above tolerance after {max_passes} passes")
    return values, errors


def segmented_integral(f_vec, edges: Sequence[float],
                       rel_tol: float = 1e-9, abs_tol: float = 1e-13,
                       max_passes: int = 16) -> IntegralResult:
    """Adaptive bisection quadrature over the segments defined by ``edges``.

    ``f_vec`` must accept a flat numpy array.  Each segment is estimated
    with the nested Gauss-Kronrod 7/15 pair; segments whose discrepancy
    exceeds the (scaled) tolerance are bisected, all pending segments
    being evaluated in one vectorized call per pass.  Repeated edges add
    nothing.  Raises :class:`NoConvergence` if the integrand is not finite
    on a segment, or if segments are still pending after ``max_passes``
    passes.
    """
    edges = np.sort(np.asarray(edges, dtype=float))
    values, errors = _segmented_integrals(
        lambda x, _: f_vec(x.ravel()).reshape(x.shape),
        edges[:-1], edges[1:], np.zeros(edges[1:].size, dtype=int),
        1, rel_tol, abs_tol, max_passes, label=lambda q: "the integral")
    return IntegralResult(values[0], errors[0])


def _legendre(M: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_M(x) and P_M'(x) from the three-term recurrence (|x| < 1)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, M + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, M * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


def gauss_legendre(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the M-point Gauss-Legendre rule on
    [-1, 1] (:func:`_gauss_legendre_rule`), read-only and shared by every
    call with the same M; DomainError unless M is an integer >= 2."""
    try:
        m = operator.index(M)
    except TypeError:
        m = 0
    # checked before the cache, where 300.0 would hit the entry of 300
    if m < 2:
        raise DomainError(f"Gauss-Legendre rule needs an integer M >= 2, got {M!r}")
    return _gauss_legendre_rule(m)


@functools.lru_cache(maxsize=8)
def _gauss_legendre_rule(M: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gauss_legendre` for a plain int M >= 2, cached on M
    (``__wrapped__`` builds a rule outside the cache).

    Halley's method on P_M from Tricomi's estimate of its zeros, vectorized
    over the nonnegative nodes and mirrored, with P_M'' from Legendre's
    equation (1 - x^2) P'' = 2x P' - M(M+1) P.  At a zero, with
    s = 1 - x^2, the same equation gives P''/P' = 2x/s and
    P'''/P' = 8x^2/s^2 - (M(M+1) - 2)/s, so a step of size dx leaves the
    node an error K dx^3, with Halley's constant

        K = (P''/2P')^2 - P'''/6P' = ((M(M+1) - 2) s - 2x^2) / 6 s^2.

    The weights 2 / (s P_M'(x)^2) take P_M' from the last pass, carried to
    the updated node as P' - P'' dx, which leaves P'^2 a relative error
    |P'''/P'| dx^2 = 6 |x^2/s^2 - K| dx^2.  The iteration stops once both
    are below eps: two O(M^2) passes from Tricomi's start (every M from 2
    to 3000 and at 6000, 9000 and 12000).  The node bound alone would stop
    after one pass from M of about 8000 up, with weights off by ~6e-6.
    """
    k = np.arange(1, M // 2 + 1)
    x = ((1.0 - (1.0 - 1.0 / M) / (8.0 * M * M))
         * np.cos(math.pi * (4 * k - 1) / (4 * M + 2)))
    if M % 2:
        x = np.append(x, 0.0)       # P_M(0) = 0 exactly: Halley keeps it
    mm = M * (M + 1.0)
    for _ in range(_HALLEY_MAX):
        p, dp = _legendre(M, x)
        s = (1.0 - x) * (1.0 + x)
        ddp = (2.0 * x * dp - mm * p) / s
        u = p / dp
        dx = u / (1.0 - 0.5 * u * ddp / dp)
        K = ((mm - 2.0) * s - 2.0 * x * x) / (6.0 * s * s)
        err = np.maximum(np.abs(K * dx), 6.0 * np.abs(x * x / (s * s) - K))
        x = x - dx
        dp = dp - ddp * dx
        if np.max(err * dx * dx) <= _EPS:
            break
    else:
        raise NoConvergence(f"Gauss-Legendre nodes for M = {M} did not "
                            f"converge in {_HALLEY_MAX} Halley steps")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = M // 2                      # x and w run from the largest node down
    x = np.concatenate([-x[:h], x[::-1]])
    w = np.concatenate([w[:h], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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


def _horner(coefs, y):
    """sum_j coefs[j] y^j by Horner's rule."""
    out = coefs[-1] + 0.0 * y
    for c in coefs[-2::-1]:
        out = out * y + c
    return out


def _trigamma_series(w: np.ndarray) -> np.ndarray:
    """sum_k B_2k w^{-(2k+1)}, the Bernoulli part of the asymptotic series
    of psi'(w) (seven terms, Horner's rule)."""
    r = 1.0 / w
    q = r * r
    return _horner(_BERNOULLI, q) * q * r


def _trigamma_pair(z: np.ndarray) -> np.ndarray:
    """psi'(z) + psi'(conj(z) + 1), the trigamma function summed over a
    conjugate pair, at a complex array z = x + iy with x > 0.

    For large |y|/x the two terms nearly cancel (the pair is about
    2x/|z|^2), so each branch sums it without that cancellation:

    * |z| >= 16: the asymptotic series 1/w + 1/(2w^2) + sum_k B_2k
      w^{-(2k+1)} of :func:`half_integer_series_tail`, within a few ulp,
      its first two terms summed as 2x/P + (2x + 1)^2/(2P^2) with
      P = z (conj(z) + 1);
    * |z| < 16, x >= 1/2: 16 steps of the recurrence
      psi'(z) = 1/z^2 + psi'(z + 1) for both terms, then the series;
    * |z| < 16, x < 1/2: the reflection psi'(z) = pi^2/sin^2(pi z)
      - psi'(1 - z) turns the pair into pi^2/sin^2(pi z) + psi'(u + x)
      - psi'(u - x), u = 1 - iy, whose terms -4x(u + k)/((u + k + x)^2
      (u + k - x)^2), 16 of them, and series at u + 16 -+ x are each
      proportional to x.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    far = np.abs(z) >= 16.0
    low = ~far & (z.real < 0.5)
    high = ~(far | low)
    # the series, after 16 recurrence steps where |z| < 16 and x >= 1/2
    w1 = z[far | high]
    acc = np.zeros_like(w1)
    shift = high[far | high]
    if shift.any():
        zn = w1[shift]
        for j in range(16):
            acc[shift] += 1.0 / (zn + j) ** 2 + 1.0 / (zn.conj() + (1 + j)) ** 2
        w1 = w1 + 16.0 * shift
    w2 = w1.conj() + 1.0
    p = w1 * w2
    out[far | high] = (acc + 2.0 * w1.real / p + (2.0 * w1.real + 1.0) ** 2 / (2.0 * p * p)
                       + _trigamma_series(w1) + _trigamma_series(w2))
    if low.any():
        zl = z[low]
        x, u = zl.real, 1.0 - 1j * zl.imag
        terms = np.zeros_like(u)
        for k in range(16):
            v = u + k
            d = v * v - x * x
            terms += v / (d * d)
        acc = np.pi ** 2 / np.sin(np.pi * zl) ** 2 - 4.0 * x * terms
        w = u + 16.0
        d = w * w - x * x
        acc -= 2.0 * x / d + 2.0 * x * w / (d * d)
        out[low] = acc + _trigamma_series(w + x) - _trigamma_series(w - x)
    return out


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
