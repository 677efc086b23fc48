"""Bare and thermal Ohmic spectral densities and their scalar characterizations.

Two bare form-factor families are supported, both Ohmic (kappa ~ g^2 omega
at small omega) and supported on omega >= 0:

    exponential     kappa(omega) = g^2 omega exp(-omega/Lambda)
    polynomial(n)   kappa(omega) = g^2 omega / [1 + (omega/Lambda)^2]^n

Thermal dressing at inverse temperature beta extends the support to the
whole real axis,

    kappa_beta(omega) = [kappa(omega) - kappa(-omega)] / (1 - e^{-beta omega}),

with the KMS (detailed-balance) symmetry
kappa_beta(-omega) = e^{-beta omega} kappa_beta(omega) and the finite limit
kappa_beta(0) = g^2/beta for both families.

The bath correlation function C(s) = int kappa_beta(omega) e^{-i omega s}
d omega comes in closed form per family (:func:`correlation`); the Zeno
rate integrates it.  Scalar characterizations: the bandwidth W (first
absolute moment of the bare density), the Zeno time
tau_Z = [integral of kappa_beta]^{-1/2} = C(0)^{-1/2}, and cutoff matching
so that different families share the same W.  The default unit system
sets W = 1, so Lambda = W/2 (exponential) or W/alpha_n (polynomial).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral, DivergentMoment, DomainError
from .numerics import (_BERNOULLI, _horner, _hurwitz_zeta, _shaped,
                       _trigamma_pair, alpha_n, gauss_legendre, require_finite)

__all__ = [
    "EXPONENTIAL",
    "POLYNOMIAL",
    "FormFactor",
    "ThermalSpectralDensity",
    "bare_density",
    "thermal_density",
    "bandwidth",
    "zeno_time",
    "match_cutoffs",
    "form_factor_for_bandwidth",
]

EXPONENTIAL = "exp"
POLYNOMIAL = "poly"

_FAMILIES = (EXPONENTIAL, POLYNOMIAL)

# largest exponent fed to exp(): past omega = 700 Lambda the exponential
# family keeps the floor g^2 omega e^{-700} instead of underflowing to 0,
# so every rate ratio stays positive, as bench/checks.py requires (the
# small-tau kick and large-K continuous ratios of figures 6 and 11 read
# about 1e-300)
_EXP_CLIP = 700.0
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FormFactor:
    """Bare Ohmic spectral density with coupling ``g`` and cutoff ``cutoff``.

    ``n`` is the polynomial fall-off exponent and is ignored by the
    exponential family.  n = 2 (quantum dots) and n = 4 (hydrogen 2P-1S
    shape) are the documented presets; n = 1 is constructible but has a
    divergent bandwidth numerator and log-divergent integral.
    """

    family: str
    g: float = 1.0
    cutoff: float = 1.0
    n: int = 2

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        require_finite(self.g, "coupling g")
        require_finite(self.g * self.g, f"the square of coupling g = {self.g!r}")
        require_finite(self.cutoff, "cutoff")
        if self.family == POLYNOMIAL:
            # an integer (operator.index): np.int64(2) is one, 2.0 and '2' are not
            n = operator.index(self.n) if hasattr(type(self.n), "__index__") else 0
            if n < 1:
                raise DomainError(f"polynomial exponent n must be an integer >= 1, "
                                  f"got {self.n!r}")
            object.__setattr__(self, "n", n)

    def thermal(self, beta: float) -> "ThermalSpectralDensity":
        return ThermalSpectralDensity(self, beta)


@dataclass(frozen=True)
class ThermalSpectralDensity:
    """A FormFactor dressed at inverse temperature ``beta`` (+inf = zero T)."""

    base: FormFactor
    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise DomainError("inverse temperature beta must be positive")


def _reject_nan(w: np.ndarray, rest: np.ndarray) -> None:
    """DomainError if a frequency is NaN.  ``rest`` masks the entries that
    fell outside the sign masks, the only place a NaN can be."""
    if rest.any() and np.isnan(w[rest]).any():
        raise DomainError("frequency omega is NaN")


def bare_density(ff: FormFactor, omega):
    """kappa(omega); exactly 0 for omega < 0 and at omega = +inf.  Accepts
    scalars or arrays.  The polynomial form is g^2 Lambda (Lambda/omega)^(2n-1)
    where (1 + (omega/Lambda)^2)^n overflows.

    A NaN frequency raises DomainError.
    """
    w = np.asarray(omega, dtype=float)
    g2 = ff.g * ff.g
    lam = ff.cutoff
    pos = (w > 0) & (w < math.inf)
    _reject_nan(w, ~pos)
    out = np.zeros_like(w)
    wp = w[pos]
    if ff.family == EXPONENTIAL:
        out[pos] = g2 * wp * np.exp(-np.minimum(wp / lam, _EXP_CLIP))
    else:
        with np.errstate(over="ignore"):
            den = (1.0 + (wp / lam) ** 2) ** ff.n
        vals = g2 * wp / den
        # where den overflows, 1 + (w/lam)^2 rounds to (w/lam)^2
        far = den == math.inf
        vals[far] = g2 * lam * (lam / wp[far]) ** (2 * ff.n - 1)
        out[pos] = vals
    return _shaped(out, omega)


def thermal_density(tsd: ThermalSpectralDensity, omega):
    """kappa_beta(omega) on the whole real axis.

    Evaluated as kappa(|omega|)/(-expm1(-beta omega)) for omega > 0 and
    kappa(|omega|)/expm1(beta |omega|) for omega < 0, which is stable for
    both tiny and huge |beta omega|; the omega = 0 value is the limit
    g^2/beta, also taken wherever |omega| <= tiny/beta (beta |omega| below
    the smallest normal float, tiny), and omega = +-inf gives 0.  At
    beta = +inf the bare density is returned.  A NaN frequency raises
    DomainError.
    """
    if math.isinf(tsd.beta):
        return bare_density(tsd.base, omega)
    w = np.asarray(omega, dtype=float)
    beta = tsd.beta
    out = np.empty_like(w)
    # where beta |omega| falls below the smallest normal float the quotient
    # loses its digits (and at 0 divides by zero): the limit g^2/beta holds
    # there.  A threshold that underflows to 0 leaves only omega = 0.
    floor = _TINY / beta
    pos = w > floor
    neg = w < -floor
    zer = ~(pos | neg)
    _reject_nan(w, zer)
    if pos.any():
        out[pos] = bare_density(tsd.base, w[pos]) / (-np.expm1(-beta * w[pos]))
    if neg.any():
        x = beta * (-w[neg])
        kb = bare_density(tsd.base, -w[neg])
        # beyond the clip expm1 would overflow; fall back to kb e^{-x}
        out[neg] = np.where(x > _EXP_CLIP, kb * np.exp(-np.minimum(x, 1490.0)),
                            kb / np.expm1(np.minimum(x, _EXP_CLIP)))
    out[zer] = tsd.base.g * tsd.base.g / beta
    return _shaped(out, omega)


def _bandwidth_ratio(family: str, n: int) -> float:
    """W / Lambda: 2 (exponential) or alpha_n (polynomial, n >= 2)."""
    if family == EXPONENTIAL:
        return 2.0
    if family == POLYNOMIAL:
        if n < 2:
            raise DivergentMoment("bandwidth undefined for polynomial n < 2")
        return alpha_n(n)
    raise DomainError(f"unknown family {family!r}")


def bandwidth(ff: FormFactor) -> float:
    """First absolute moment W = int |omega| kappa / int kappa (bare, T=0).

    Closed forms: W = 2 Lambda (exponential) and W = alpha_n Lambda
    (polynomial, n >= 2).  For n = 1 the numerator diverges.
    """
    return _bandwidth_ratio(ff.family, ff.n) * ff.cutoff


def zeno_time(tsd: ThermalSpectralDensity) -> float:
    """Zeno time tau_Z = [int_{-inf}^{inf} kappa_beta(omega) d omega]^{-1/2}.

    The integral is the correlation function at zero lag, tau_Z^{-2} = C(0)
    (see :func:`correlation`), in closed form: g^2 Lambda^2 (exponential,
    beta = inf), (g^2/beta^2) [psi'(1/(Lambda beta)) + psi'(1/(Lambda beta)
    + 1)] (exponential), g^2 Lambda^2 / (2(n - 1)) (polynomial, beta = inf)
    and :func:`_poly_correlation` at s = 0 (polynomial: its Matsubara sum,
    or at low temperature the beta = inf value plus the Bose correction).
    """
    if tsd.base.family == POLYNOMIAL and tsd.base.n < 2:
        raise DivergentIntegral("integral of kappa_beta diverges for n = 1")
    total = float(correlation(tsd, np.zeros(1))[0].real)
    if not total > 0 or not math.isfinite(total):
        raise DivergentIntegral(f"integral of kappa_beta = {total}")
    return 1.0 / math.sqrt(total)


def match_cutoffs(family_a: str, family_b: str, W: float,
                  n_a: int = 2, n_b: int = 2) -> tuple[float, float]:
    """Cutoffs (Lambda_a, Lambda_b) giving both families bandwidth ``W``
    (finite and positive, else DomainError)."""
    require_finite(W, "bandwidth W")
    return W / _bandwidth_ratio(family_a, n_a), W / _bandwidth_ratio(family_b, n_b)


def form_factor_for_bandwidth(family: str, W: float = 1.0, g: float = 1.0,
                              n: int = 2) -> FormFactor:
    """FormFactor of the given family with cutoff chosen so bandwidth = W."""
    return FormFactor(family, g=g, cutoff=W / _bandwidth_ratio(family, n), n=n)


# ---------------------------------------------------------------------------
# bath correlation function C(s) = int kappa_beta(omega) e^{-i omega s} d omega

# Matsubara terms past the last near-resonant one, and Euler-Maclaurin
# corrections of the Matsubara tail
_TAIL_GAP = 20
_EM_TERMS = 6
# lags per evaluation of the polynomial family's C
_POLY_CHUNK = 512
# the polynomial family at low temperature (Lambda beta at least
# _low_temperature_threshold): the relative size of what its series and
# its far-lag sum leave out, the Matsubara frequencies (below
# _FAR_FRACTION Lambda) that the far-lag sum keeps
_LOW_T_TOL = 1e-18
_FAR_FRACTION = 0.8


@functools.lru_cache(maxsize=None)
def _unit_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule (:func:`numerics.gauss_legendre`)
    moved to [0, 1]."""
    x, w = gauss_legendre(m)
    return 0.5 * (1.0 + x), 0.5 * w


def correlation(tsd: ThermalSpectralDensity, s) -> np.ndarray:
    """Bath correlation function C(s) = int kappa_beta(omega) e^{-i omega s}
    d omega at lags s >= 0 (a complex array).

    C(-s) is its conjugate, |C(s)| <= C(0) = tau_Z^{-2}, and in closed form

        exponential, beta = inf:  g^2 Lambda^2 / (1 + i Lambda s)^2
        exponential:  (g^2/beta^2) [psi'((1/Lambda + i s)/beta)
                                    + psi'((1/Lambda - i s)/beta + 1)]

    with the complex trigamma psi' (the Bose factor's geometric series),
    summed as a pair by :func:`numerics._trigamma_pair`, which keeps the
    relative accuracy where the two terms nearly cancel (large s, large
    Lambda beta).  The polynomial family is :func:`_poly_correlation`.
    """
    s = np.asarray(s, dtype=float)
    ff = tsd.base
    g2, lam = ff.g * ff.g, ff.cutoff
    if ff.family == EXPONENTIAL:
        if math.isinf(tsd.beta):
            return g2 * lam * lam / (1.0 + 1j * lam * s) ** 2
        z = (1.0 / lam + 1j * s) / tsd.beta
        return g2 / tsd.beta ** 2 * _trigamma_pair(z)
    # (lags x Matsubara terms) work arrays, _POLY_CHUNK lags at a time
    return np.concatenate([_poly_correlation(tsd, s[i:i + _POLY_CHUNK])
                           for i in range(0, max(s.size, 1), _POLY_CHUNK)])


@functools.lru_cache(maxsize=None)
def _psi_polynomial(m: int) -> np.ndarray:
    """Coefficients of Q_m, where psi_s^(m)(t) = (pi/2) e^{-y} r^{1-2m} Q_m(y)
    for psi_s(t) = (pi/2) r e^{-s r}, r = sqrt(t), y = s r: Q_0 = 1 and
    Q_{m+1} = [y (Q_m' - Q_m) + (1 - 2m) Q_m]/2."""
    q = np.array([1.0])
    for j in range(m):
        # y (Q' - Q) + (1 - 2j) Q, coefficients from y^0 up
        dq = np.append(q[1:] * np.arange(1.0, q.size), 0.0)
        q = 0.5 * (np.append(0.0, dq - q) + (1 - 2 * j) * np.append(q, 0.0))
    return q


def _psi_taylor(t, s, order: int) -> list:
    """Taylor coefficients psi_s^(j)(t)/j!, j = 0..order, of
    psi_s(t) = (pi/2) sqrt(t) e^{-s sqrt(t)} (see :func:`_psi_polynomial`)."""
    r = np.sqrt(t)
    y = s * r
    scale = 0.5 * math.pi * np.exp(-y)
    return [scale * r ** (1 - 2 * j) * _horner(_psi_polynomial(j), y)
            / math.factorial(j) for j in range(order + 1)]


def _series_inverse_power(c0: float, c1: float, c2: float, m: int,
                          order: int) -> np.ndarray:
    """Taylor coefficients of (c0 + c1 h + c2 h^2)^{-m} up to ``order``."""
    y = np.array([0.0, c1 / c0, c2 / c0])
    out = np.zeros(order + 1)
    power = np.array([1.0])
    coef = 1.0
    for j in range(order + 1):
        out[:power.size] += coef * power[:order + 1]
        power = np.convolve(power, y)[:order + 1]
        coef *= -(m + j) / (j + 1)
    return out * c0 ** -m


@functools.lru_cache(maxsize=16)
def _matsubara_tail(lam: float, beta: float, n: int):
    """What the Matsubara sum beyond its explicit terms k <= K needs.

    K covers every near-resonant term (nu_k^2 <= 2.2 Lambda^2) and
    _TAIL_GAP more, and the tail k > K is summed by the midpoint
    Euler-Maclaurin formula from a0 = K + 1/2.  Returns K, the sums
    S_m = sum_{k>K} (nu_k^2 - Lambda^2)^{-m} (m = 1..n), and for
    Phi(mu) = sum_{k>K} phi(k) e^{-mu k}, phi(k) = nu_k (nu_k^2 - Lambda^2)^{-n}:
    its integral term at mu = 0 (24-point Gauss-Legendre in t = a0/k; at
    mu > 0 it is :func:`_phi_integral`) and the polynomial in mu of its
    corrections, then 2 pi/beta and Lambda beta/(2 pi).
    """
    c = 2.0 * math.pi / beta
    x = lam / c
    K = math.ceil(1.5 * x) + _TAIL_GAP
    a0 = K + 0.5
    order = 2 * _EM_TERMS - 1
    t, w = _unit_rule(24)
    k = a0 / t
    weights = [(1.0 - 2.0 ** (1 - 2 * j)) * _BERNOULLI[j - 1] / math.factorial(2 * j)
               for j in range(1, _EM_TERMS + 1)]
    A0 = (c * a0) ** 2 - lam * lam

    def corrections(taylor):
        # sum_j weight_j d^{2j-1}/dk^{2j-1} [phi(k) e^{-mu k}] at a0, a
        # polynomial in mu from phi's Taylor coefficients
        poly = np.zeros(order + 1)
        for j, wj in enumerate(weights, start=1):
            m = 2 * j - 1
            for i in range(m + 1):
                poly[m - i] += (wj * math.comb(m, i) * math.factorial(i)
                                * taylor[i] * (-1.0) ** (m - i))
        return poly

    S = []
    for m in range(1, n + 1):
        inv = _series_inverse_power(A0, 2 * c * c * a0, c * c, m, order)
        integral = a0 * np.sum(w * ((c * k) ** 2 - lam * lam) ** -m / t ** 2)
        S.append(integral + corrections(inv)[0])
    taylor = c * a0 * inv           # the last pass's inv, at m = n
    taylor[1:] += c * inv[:-1]
    phi = c * k * ((c * k) ** 2 - lam * lam) ** -n
    return K, np.array(S), a0 * np.sum(w * phi / t ** 2), corrections(taylor), c, x


def _phi_integral(mu: np.ndarray, a0: float, x: float, n: int) -> np.ndarray:
    """int_{a0}^inf k (k^2 - x^2)^{-n} e^{-mu k} dk at mu > 0, a0 > x.

    Partial fractions at k = +-x turn it into e^{-mu a0} sum_p
    alpha_p (a0 -+ x)^{1-p} e^{y} E_p(y), y = mu (a0 -+ x), with e^{y} E_1(y)
    from :func:`_expint_scaled` and the recurrence
    e^{y} E_p(y) = (1 - y e^{y} E_{p-1}(y))/(p - 1).
    """
    poles = np.array([x, -x])
    # alpha_p: the h^{n-p} coefficient of (pole + h)(2 pole + h)^{-n}
    grow = [(2.0 * poles) ** -n * math.comb(n + m - 1, m) * (-0.5 / poles) ** m
            for m in range(n)]
    alpha = [poles * grow[n - p] + (grow[n - p - 1] if p < n else 0.0)
             for p in range(1, n + 1)]
    y = np.outer(a0 - poles, mu)
    eps = _expint_scaled(y.ravel())[0].reshape(y.shape)
    out = np.zeros_like(y)
    for p in range(1, n + 1):
        if p > 1:
            eps = (1.0 - y * eps) / (p - 1)
        out += (alpha[p - 1] * (a0 - poles) ** (1 - p))[:, None] * eps
    return np.exp(-mu * a0) * out.sum(axis=0)


_EULER = 0.5772156649015329


def _expint_scaled(x: np.ndarray, orders: int = 1) -> np.ndarray:
    """e^x E_p(x) for p = 1..orders (rows) at x > 0: up to x = 1 the power
    series of E_1 and the recurrence e^x E_{q+1} = (1 - x e^x E_q)/q,
    beyond it the continued fraction of E_p, 80 levels up to x = 40 and
    12 beyond (within a few ulp for p <= 4)."""
    out = np.empty((orders, x.size))
    lo = x <= 1.0
    if lo.any():
        xs = x[lo]
        term, acc = np.ones_like(xs), np.zeros_like(xs)
        for k in range(1, 40):
            term = term * -xs / k
            acc -= term / k
        eps = np.exp(xs) * (acc - _EULER - np.log(xs))
        out[0, lo] = eps
        for q in range(1, orders):
            eps = (1.0 - xs * eps) / q
            out[q, lo] = eps
    p = np.arange(1.0, orders + 1.0)[:, None]
    for part, depth in ((~lo & (x <= 40.0), 80), (x > 40.0, 12)):
        if part.any():
            xs = x[part]
            t = xs + (p + 2.0 * depth)
            for k in range(depth, 0, -1):
                t = xs + (p + 2 * k - 2) - k * (p + k - 1) / t
            out[:, part] = 1.0 / t
    return out


def _w_derivatives(x: np.ndarray, count: int) -> np.ndarray:
    """W^(m)(x), m < count (rows), of W(x) = e^{-x} Ei(x) - e^x E1(x) at
    x > 0.

    With u = e^{-x} Ei(x) and v = e^x E1(x): up to x = 60,
    u^(m) = -m! (-x)^{-m} e^{-x} Re E_{m+1}(-x) from the power series of
    E_{m+1} (its large terms share one sign; summed, every order at once,
    until x^k/k! is below 1e-17 of its peak) and
    v^(m) = m! (-x)^{-m} e^x E_{m+1}(x) (:func:`_expint_scaled`); beyond,
    the asymptotic series W^(m) = 2 (-1)^m sum_{k odd} (k+m)!/x^{k+m+1},
    whose last term (k + m < 61) is below 1e-19 of the sum.
    """
    out = np.empty((count, x.size))
    orders = np.arange(count)
    lo = x <= 60.0
    xs = x[lo]
    if xs.size:
        top = xs.max()
        terms = min(171, math.ceil(top + 9.0 * math.sqrt(top) + 30.0))
        k = np.arange(terms)
        gap = k - orders[:, None]
        # 1/(k - m), and 0 where k = m, whose term carries the logarithm
        inv = np.where(gap == 0, 0.0, 1.0 / np.where(gap == 0, 1, gap))
        log = np.log(xs)
        # Re E_{m+1}(-x) = x^m/m! (H_m - gamma - ln x) - sum_{k != m} x^k/((k-m) k!)
        term, acc = np.ones_like(xs), np.zeros((count, xs.size))
        for j in range(terms):
            if j:
                term = term * xs / j
            acc -= inv[:, j, None] * term
            if j < count:
                acc[j] += term * (sum(1.0 / i for i in range(1, j + 1)) - _EULER - log)
        scale = (np.array([math.factorial(m) for m in orders], dtype=float)[:, None]
                 * (-xs) ** -orders[:, None].astype(float))
        out[:, lo] = -scale * (np.exp(-xs) * acc + _expint_scaled(xs, count))
    xs = x[~lo]
    if xs.size:
        # 2 (-1)^m x^{-(m+2)} sum_j (2j + 1 + m)! x^{-2j}, Horner's rule in
        # x^{-2}, every order at once (terms with 2j + 1 + m > 60 are 0)
        coef = np.array([[float(math.factorial(2 * j + 1 + m)) if 2 * j + 1 + m <= 60
                          else 0.0 for j in range(30)] for m in orders])
        acc = _horner(coef.T[:, :, None], 1.0 / (xs * xs))
        out[:, ~lo] = (2.0 * (-1.0) ** orders[:, None] * acc
                       * xs ** -(orders[:, None] + 2.0))
    return out


def _dd_direct(s: np.ndarray, a: float, nu: np.ndarray, d: list) -> np.ndarray:
    """psi_s[a (n times), nu^2] for each lag (rows) and nu (columns) as
    [psi_s(nu^2) - sum_{j<n} d_j (nu^2 - a)^j] / (nu^2 - a)^n, with
    ``d`` = _psi_taylor(a, s, n - 1)."""
    n = len(d)
    gap = nu * nu - a
    taylor = sum(d[j][:, None] * gap ** j for j in range(n))
    return (0.5 * math.pi * nu * np.exp(-s[:, None] * nu) - taylor) / gap ** n


def _dd_genocchi(s: np.ndarray, a: float, b: np.ndarray, n: int) -> np.ndarray:
    """psi_s[a (n times), b] by the Hermite-Genocchi formula,
    int_0^1 psi_s^{(n)}(a + u (b - a)) (1 - u)^{n-1}/(n-1)! du, for
    0.3 a <= b <= 2.2 a.  In r = sqrt(a + u (b - a)) the integrand is
    (pi/2) e^{-s r} r^{1-2n} Q_n(s r) times a polynomial, analytic but for
    the pole at r = 0, and a 16-point Gauss-Legendre rule resolves it to
    rounding.  There the direct formula loses up to 6e-14 to
    cancellation; this branch stays within about 5e-15 (checked against
    40-digit references for n = 2..4), and neither branch loses more than
    that at the switch points."""
    x, w = _unit_rule(16)
    ra = math.sqrt(a)
    q = _psi_polynomial(n)
    out = np.empty((s.size, b.size))
    # one column per b keeps the work array at (lags x nodes)
    for i, rb in enumerate(np.sqrt(b)):
        r = ra + x * (rb - ra)
        # with r = ra + x (rb - ra): du = 2 r dx/(rb + ra) and
        # 1 - u = (1 - x)(rb + r)/(rb + ra), free of the cancelling b - a
        weight = ((math.pi / math.factorial(n - 1)) * w * r ** (2 - 2 * n)
                  * ((1.0 - x) * (rb + r)) ** (n - 1) / (rb + ra) ** n)
        y = s[:, None] * r
        out[:, i] = (_horner(q, y) * np.exp(-y)) @ weight
    return out


def _series_length(n: int, bl: float):
    """Terms k < K of the low-temperature series of :func:`_bose_correction`
    at Lambda beta = ``bl``: the first K whose bound (2k+1)!
    C(n+k-1, k)/bl^{2k} (relative to the k = 0 term) is below _LOW_T_TOL
    while the bounds still fall, or None if they turn before it."""
    log_tol = math.log(_LOW_T_TOL)
    log_bound = 0.0
    for k in range(1, 400):
        step = math.log((2 * k) * (2 * k + 1) * (n + k - 1) / k) - 2.0 * math.log(bl)
        if step >= 0.0:
            return None
        log_bound += step
        if log_bound <= log_tol:
            return k
    return None


@functools.lru_cache(maxsize=None)
def _far_terms(n: int) -> int:
    """Matsubara terms of the far-lag sum (s >= beta): the first k_c with
    e^{-2 pi k_c} (k_c + 1) (1 - _FAR_FRACTION^2)^{-n} below _LOW_T_TOL,
    the bound on its first dropped term relative to its first term."""
    k = 1
    while (-2.0 * math.pi * k + math.log(k + 1.0)
           - n * math.log(1.0 - _FAR_FRACTION ** 2)) > math.log(_LOW_T_TOL):
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _low_temperature_threshold(n: int) -> float:
    """The smallest Lambda beta = 32 pi (9/8)^j at which the polynomial
    family's C leaves its Matsubara sum for the low-temperature forms of
    :func:`_poly_correlation`: their series converges
    (:func:`_series_length`), the far-lag sum's Matsubara terms stay below
    _FAR_FRACTION Lambda, and at s >= beta the terms it drops, each at
    most (pi/2) e^{-s sqrt(xi)} xi^{1/2-n} |Q_n|(s sqrt(xi))/n! with
    sqrt(xi) >= _FAR_FRACTION Lambda and about 2 Lambda beta/(2 pi) of them
    weighing in, stay below _LOW_T_TOL of its first term, (pi/2) nu_1
    e^{-s nu_1}/(Lambda^2 - nu_1^2)^n.  Below the threshold the Matsubara
    sum takes at most ceil(1.5 threshold/(2 pi)) + _TAIL_GAP explicit
    terms, so C costs no more than that at any beta.
    """
    theta = _FAR_FRACTION
    q = float(np.abs(_psi_polynomial(n)).sum())
    bl = 32.0 * math.pi
    while True:
        dropped = (n * math.log(bl) + 2.0 * math.log(bl / (2.0 * math.pi))
                   + math.log(2.0 * q / math.factorial(n))
                   - n * math.log(theta * theta * (1.0 - theta * theta)))
        if (_series_length(n, bl) is not None
                and _far_terms(n) <= theta * bl / (2.0 * math.pi)
                and theta * bl - 2.0 * math.pi - dropped >= -math.log(_LOW_T_TOL)):
            return bl
        bl *= 1.125


def _bose_correction(sigma: np.ndarray, g2: float, bl: float, beta: float,
                     n: int) -> np.ndarray:
    """B(s) - B_inf(s) = 2 int_0^inf J(omega) cos(omega s)/(e^{beta omega} - 1)
    d omega at sigma = s/beta < 1 and Lambda beta = bl, from the Taylor
    series of J(omega) = g^2 omega (1 + omega^2/Lambda^2)^{-n} at 0, which
    the Bose factor confines to omega of order 1/beta:

        (2 g^2/beta^2) sum_k (-1)^k C(n+k-1, k) (2k+1)!/bl^{2k}
                       Re zeta(2k+2, 1 + i sigma)

    (Hurwitz's zeta, :func:`numerics._hurwitz_zeta`), an asymptotic series
    whose terms fall geometrically at bl >= :func:`_low_temperature_threshold`,
    kept while they are above _LOW_T_TOL of the first (:func:`_series_length`)."""
    count = _series_length(n, bl)
    coef = np.array([(-1.0) ** k * math.comb(n + k - 1, k) * math.exp(
        math.lgamma(2 * k + 2) - 2 * k * math.log(bl)) for k in range(count)])
    sums = _hurwitz_zeta(np.arange(2, 2 * count + 1, 2), 1.0 + 1j * sigma).real
    return (2.0 * g2 / (beta * beta)) * (coef @ sums)


def _odd_part(s: np.ndarray, g2: float, lam: float, n: int) -> np.ndarray:
    """A(s), the residue of the odd part of kappa_beta at -i Lambda: the
    coefficient of u^{n-1} in e^{-i u s} (u - i Lambda)(u - 2 i Lambda)^{-n},
    times -i pi g^2 Lambda^{2n} e^{-Lambda s}."""
    grow = [(-2j * lam) ** -n * math.comb(n + m - 1, m) * (2j * lam) ** -m
            for m in range(n)]
    lag = [(-1j * s) ** l / math.factorial(l) for l in range(n)]
    coef = sum(-1j * lam * lag[l] * grow[n - 1 - l] for l in range(n))
    coef = coef + sum(lag[l] * grow[n - 2 - l] for l in range(n - 1))
    return -1j * math.pi * g2 * lam ** (2 * n) * np.exp(-lam * s) * coef


def _zero_temperature(s: np.ndarray, g2: float, lam: float, n: int) -> np.ndarray:
    """C(s) at beta = inf: A(s) plus B = g^2 Lambda^{2n} (-1)^{n-1}/(n-1)!
    d^{n-1}/dt^{n-1} chi_s(t) at t = Lambda^2, with chi_s(t) =
    int_0^inf omega cos(omega s)/(omega^2 + t) d omega =
    -[e^{-x} Ei(x) - e^{x} E1(x)]/2, x = s sqrt(t); C(0) = g^2 Lambda^2
    /(2(n - 1)), infinite for n = 1."""
    a = lam * lam
    out = _odd_part(s, g2, lam, n)
    pos = s > 0
    sp = s[pos]
    # the h^{n-1} Taylor coefficient of chi_s(a + h) = -W(x(h))/2, with
    # x(h) = s sqrt(a + h)
    dw = _w_derivatives(sp * lam, n)
    root = [0.0 * sp]
    c = 1.0
    for m in range(1, n):
        c *= (1.5 - m) / m
        root.append(sp * lam * c / a ** m)
    chi = 0.0 * sp
    power = [np.ones_like(sp)] + [0.0 * sp for _ in range(n - 1)]
    for m in range(n):
        chi += dw[m] / math.factorial(m) * power[n - 1]
        power = [sum(power[j] * root[i - j] for j in range(i + 1))
                 for i in range(n)]
    out[pos] += g2 * lam ** (2 * n) * (-1.0) ** (n - 1) * -0.5 * chi
    if n >= 2:
        out[~pos] = g2 * a / (2.0 * (n - 1))
    else:
        out[~pos] = math.inf
    return out


def _poly_correlation(tsd: ThermalSpectralDensity, s: np.ndarray) -> np.ndarray:
    """C(s) for kappa = g^2 omega / (1 + omega^2/Lambda^2)^n.

    With J(omega) = kappa(omega) - kappa(-omega), odd and rational,
    kappa_beta = J/2 + (J/2) coth(beta omega / 2), so C = A + B:

    * A, the odd part, is the residue at -i Lambda: e^{-Lambda s} times a
      polynomial of degree n - 1 (imaginary, 0 at s = 0 for n >= 2);
    * B(s) = int_0^inf J coth(beta omega/2) cos(omega s) d omega.  The
      Mittag-Leffler series of coth gives B = (2 g^2/beta) sum_{k in Z}
      (-1)^{n+1} Lambda^{2n} psi_s[Lambda^2 (n times), nu_k^2], nu_k =
      2 pi k/beta, the divided differences of psi_s(t) = (pi/2) sqrt(t)
      e^{-s sqrt(t)}.  Each term stays finite when a Matsubara pole meets
      -i Lambda: where 0.3 Lambda^2 <= nu_k^2 <= 2.2 Lambda^2 it is the
      Hermite-Genocchi integral (:func:`_dd_genocchi`), elsewhere the
      direct formula [psi_s(b) - Taylor_{n-1}(b)]/(b - Lambda^2)^n.  The
      terms k > K are summed by Euler-Maclaurin (:func:`_matsubara_tail`).
      It takes about Lambda beta/(2 pi) terms per lag, so it serves only
      Lambda beta below :func:`_low_temperature_threshold` (32 pi for
      n <= 4), at most 44 terms (n <= 4).
    * At beta = inf, B is in closed form (:func:`_zero_temperature`).
    * At Lambda beta above the threshold (low temperature), with
      coth = 1 + 2/(e^{beta omega} - 1): C = C_inf + the Bose correction
      (:func:`_bose_correction`, a series in 1/(Lambda beta)^2) at s < beta.
      At s >= beta, where C_inf and that correction cancel, every part of
      C but the first _far_terms(n) Matsubara terms' (pi/2) nu_k
      e^{-s nu_k}/(nu_k^2 - Lambda^2)^n is below _LOW_T_TOL of them, so C
      is their sum.  Both take a fixed number of terms per lag at any beta.

    s = 0 gives C(0) in closed form at beta = inf; for n = 1, where C(0)
    diverges, s must be positive.
    """
    ff = tsd.base
    g2, lam, n = ff.g * ff.g, ff.cutoff, ff.n
    a = lam * lam
    sign = (-1.0) ** (n + 1)
    beta = tsd.beta
    if math.isinf(beta) or lam * beta >= _low_temperature_threshold(n):
        near = s < beta
        out = np.empty(s.size, dtype=complex)
        out[near] = _zero_temperature(s[near], g2, lam, n)
        if not math.isinf(beta):
            out[near] += _bose_correction(s[near] / beta, g2, lam * beta, beta, n)
            # (2 g^2/beta) sign Lambda^{2n} 2 sum_k (pi/2) nu_k e^{-s nu_k}
            # / (nu_k^2 - Lambda^2)^n over the first Matsubara terms
            nu = (2.0 * math.pi / beta) * np.arange(1, _far_terms(n) + 1)
            far = s[~near, None]
            out[~near] = (2.0 * math.pi * g2 / beta * sign * a ** n) * (
                np.exp(-far * nu) @ (nu / (nu * nu - a) ** n))
        return out
    out = _odd_part(s, g2, lam, n)
    K, S, phi_zero, em, c, x = _matsubara_tail(lam, tsd.beta, n)
    d = _psi_taylor(a, s, n - 1)
    nu = c * np.arange(K + 1)
    b = nu * nu
    near = (b >= 0.3 * a) & (b <= 2.2 * a)
    dd = np.empty((s.size, K + 1))
    dd[:, ~near] = _dd_direct(s, a, nu[~near], d)
    dd[:, near] = _dd_genocchi(s, a, b[near], n)
    terms = dd[:, 0] + 2.0 * dd[:, 1:].sum(axis=1)
    mu = s * c
    phi_sum = np.exp(-mu * (K + 0.5)) * _horner(em, mu)
    pos = mu > 0
    phi_sum[~pos] += phi_zero
    live = pos & (mu * (K + 0.5) < 745.0)
    phi_sum[live] += _phi_integral(mu[live], K + 0.5, x, n) * c ** (1 - 2 * n)
    tail = 0.5 * math.pi * phi_sum - sum(d[j] * S[n - 1 - j] for j in range(n))
    return out + 2.0 * g2 / tsd.beta * sign * a ** n * (terms + 2.0 * tail)
