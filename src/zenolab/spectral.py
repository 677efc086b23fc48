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

Scalar characterizations: the bandwidth W (first absolute moment of the
bare density), the Zeno time tau_Z = [integral of kappa_beta]^{-1/2}, and
cutoff matching so that different families share the same W.  The default
unit system sets W = 1, so Lambda = W/2 (exponential) or W/alpha_n
(polynomial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral, DivergentMoment, DomainError, NoConvergence
from .numerics import alpha_n, require_finite, segmented_integral

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

# largest exponent fed to exp(); beyond this the density underflows to 0
_EXP_CLIP = 700.0


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
        require_finite(self.cutoff, "cutoff")
        if self.family == POLYNOMIAL:
            if self.n != int(self.n) or self.n < 1:
                raise DomainError("polynomial exponent n must be an integer >= 1")

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
    scalars or arrays.

    A NaN frequency raises DomainError.
    """
    w = np.asarray(omega, dtype=float)
    g2 = ff.g * ff.g
    lam = ff.cutoff
    pos = (w > 0) & (w < math.inf)
    _reject_nan(w, ~pos)
    out = np.zeros_like(w)
    if ff.family == EXPONENTIAL:
        wp = w[pos]
        out[pos] = g2 * wp * np.exp(-np.minimum(wp / lam, _EXP_CLIP))
    else:
        wp = w[pos]
        out[pos] = g2 * wp / (1.0 + (wp / lam) ** 2) ** ff.n
    if np.ndim(omega) == 0:
        return float(out)
    return out


def _emission_density(tsd: ThermalSpectralDensity, z: np.ndarray) -> np.ndarray:
    """kappa_beta continued off the positive axis, kappa(z)/(1 - e^{-beta z})
    with the family's closed form kappa(z), for a complex array ``z``.

    Its poles (+-i Lambda, poly; 2 pi i k/beta, k != 0) lie on the
    imaginary axis.  z = 0 gives the limit g^2/beta.
    """
    ff = tsd.base
    g2 = ff.g * ff.g
    if ff.family == EXPONENTIAL:
        out = g2 * z * np.exp(-z / ff.cutoff)
    else:
        out = g2 * z / (1.0 + (z / ff.cutoff) ** 2) ** ff.n
    if math.isinf(tsd.beta):
        return out
    zero = z == 0
    return np.where(zero, g2 / tsd.beta,
                    out / -np.expm1(-tsd.beta * np.where(zero, 1.0, z)))


def thermal_density(tsd: ThermalSpectralDensity, omega):
    """kappa_beta(omega) on the whole real axis.

    Evaluated as kappa(|omega|)/(-expm1(-beta omega)) for omega > 0 and
    kappa(|omega|)/expm1(beta |omega|) for omega < 0, which is stable for
    both tiny and huge |beta omega|; the omega = 0 value is the limit
    g^2/beta, and omega = +-inf gives 0.  At beta = +inf the bare density
    is returned.  A NaN frequency raises DomainError.
    """
    w = np.asarray(omega, dtype=float)
    if math.isinf(tsd.beta):
        out = bare_density(tsd.base, w)
        return out if np.ndim(omega) else float(out)
    beta = tsd.beta
    out = np.empty_like(w)
    pos = w > 0
    neg = w < 0
    zer = ~(pos | neg)
    _reject_nan(w, zer)
    if pos.any():
        out[pos] = bare_density(tsd.base, w[pos]) / (-np.expm1(-beta * w[pos]))
    if neg.any():
        x = beta * (-w[neg])
        kb = bare_density(tsd.base, -w[neg])
        vals = kb / np.expm1(np.minimum(x, _EXP_CLIP))
        # beyond the clip expm1 would overflow; fall back to kb e^{-x}
        vals = np.where(x > _EXP_CLIP, kb * np.exp(-np.minimum(x, 1490.0)), vals)
        out[neg] = vals
    out[zer] = tsd.base.g ** 2 / beta
    if np.ndim(omega) == 0:
        return float(out)
    return out


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

    The integral folds the negative axis onto the positive one,
    kappa_beta(w) + kappa_beta(-w) for w >= 0, and maps w = Lambda v/(1 - v)
    onto v in [0, 1), eight equal segments of the segmented integrator.
    """
    if tsd.base.family == POLYNOMIAL and tsd.base.n < 2:
        raise DivergentIntegral("integral of kappa_beta diverges for n = 1")
    lam = tsd.base.cutoff

    def folded(v):
        w = lam * v / (1.0 - v)
        return (thermal_density(tsd, w) + thermal_density(tsd, -w)) \
            * lam / (1.0 - v) ** 2

    try:
        total, _ = segmented_integral(folded, np.linspace(0.0, 1.0, 9),
                                      rel_tol=1e-12, abs_tol=1e-300)
    except NoConvergence as exc:
        raise DivergentIntegral(str(exc)) from exc
    if not total > 0 or not math.isfinite(total):
        raise DivergentIntegral(f"integral of kappa_beta = {total}")
    return 1.0 / math.sqrt(total)


def match_cutoffs(family_a: str, family_b: str, W: float,
                  n_a: int = 2, n_b: int = 2) -> tuple[float, float]:
    """Cutoffs (Lambda_a, Lambda_b) giving both families bandwidth ``W``."""
    if not W > 0:
        raise DomainError("bandwidth W must be positive")
    return W / _bandwidth_ratio(family_a, n_a), W / _bandwidth_ratio(family_b, n_b)


def form_factor_for_bandwidth(family: str, W: float = 1.0, g: float = 1.0,
                              n: int = 2) -> FormFactor:
    """FormFactor of the given family with cutoff chosen so bandwidth = W."""
    return FormFactor(family, g=g, cutoff=W / _bandwidth_ratio(family, n), n=n)
