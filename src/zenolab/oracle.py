"""Brute-force validator: exact unitary dynamics of a discretized bath.

The continuum bath is replaced by M discrete modes on [0, omega_max] with
couplings g_i = sqrt(kappa(omega_i) w_i) (w_i = quadrature weights), and
the qubit + bath is evolved exactly in the zero-temperature
single-excitation sector {|up, vac>, |down, 1_i>}, whose Hamiltonian is
an arrowhead: Omega/2, then poles -Omega/2 + omega_i coupled by g_i.

A model is the spectral measure of |up, vac>: eigenvalues lambda_k and
weights w_k = |<k|up, vac>|^2, so the survival amplitude is
sum_k w_k e^{-i lambda_k t} at any t.  An ancilla level |M>, degenerate
with |down> and coupled by K(|down><M| + h.c.), makes the qubit model on
a doubled bath: modes (|down, 1_i> +- |M, 1_i>)/sqrt 2 with poles
-Omega/2 + omega_i +- K and couplings g_i / sqrt 2.  At K = 0 the
antisymmetric half carries no amplitude and the model is the qubit's.

* Zeno: projecting onto |up> leaves |up, vac> invariant in this sector,
  so N nonselective measurement cycles give exactly P_N = P_1(tau)^N.
* kicks: the 2pi pulse between |down> and |M> is S = 2 e_0 e_0^T - I
  (+1 on |up, vac>, -1 on the rest), a rank-one update in the
  eigenbasis, so a cycle costs O(d) (N even).
* continuous coupling: plain evolution of the K != 0 ancilla model.

Effective rates come from a least-squares fit of -log P versus t inside a
window between the bath correlation time and the recurrence time
(~ 2 pi / max mode spacing).  Analytic rates are second order in g, the
oracle is exact, so comparisons carry O(g^2) relative slack; the
reference configuration uses g = 0.1, Omega = 0.2 W.

Limitation (by design): zero temperature only.  A thermal oracle needs
multi-excitation sectors of exponential dimension; thermal dressing is
validated analytically in the spectral module instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (DomainError, NonPositiveProbability, OddN,
                     RecurrenceWindowExceeded, WindowTooShort)
from .numerics import require_finite
from .spectral import FormFactor, bare_density

__all__ = [
    "LINEAR",
    "GAUSS_LEGENDRE",
    "DiscretizedBath",
    "SingleExcitationModel",
    "DecayFit",
    "build_bath",
    "free_survival",
    "zeno_survival",
    "zeno_effective_rate",
    "kick_survival_trace",
    "continuous_survival",
    "fit_decay_rate",
]

LINEAR = "linear"
GAUSS_LEGENDRE = "gauss-legendre"


@dataclass(frozen=True)
class DiscretizedBath:
    """Discrete modes omega_i (strictly increasing) with couplings g_i."""

    omegas: np.ndarray
    couplings: np.ndarray
    omega_max: float

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        gi = np.asarray(self.couplings, dtype=float)
        if om.ndim != 1 or om.shape != gi.shape or om.size < 2:
            raise DomainError("need 1-d omegas/couplings of equal length >= 2")
        if not np.all(np.diff(om) > 0):
            raise DomainError("mode frequencies must be strictly increasing")
        om.setflags(write=False)
        gi.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "couplings", gi)

    @property
    def n_modes(self) -> int:
        return self.omegas.size

    @property
    def recurrence_time(self) -> float:
        """~ 2 pi over the largest mode spacing."""
        return 2.0 * math.pi / float(np.max(np.diff(self.omegas)))

    @property
    def coupling_sum_rule(self) -> float:
        """sum g_i^2, to be compared with int_0^omega_max kappa."""
        return float(np.sum(self.couplings ** 2))


def build_bath(ff: FormFactor, omega_max: float, M: int,
               scheme: str = GAUSS_LEGENDRE) -> DiscretizedBath:
    """Discretize ``ff`` into M modes on [0, omega_max]."""
    if not omega_max > 0:
        raise DomainError("omega_max must be positive")
    if M < 2:
        raise DomainError("need at least 2 modes")
    if scheme == LINEAR:
        step = omega_max / M
        om = (np.arange(M) + 0.5) * step
        wq = np.full(M, step)
    elif scheme == GAUSS_LEGENDRE:
        x, w = leggauss(M)
        om = 0.5 * omega_max * (x + 1.0)
        wq = 0.5 * omega_max * w
    else:
        raise DomainError(f"unknown scheme {scheme!r}")
    gi = np.sqrt(bare_density(ff, om) * wq)
    return DiscretizedBath(om, gi, float(omega_max))


def _spectral_measure(a: float, poles: np.ndarray,
                      couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and first-component weights of the arrowhead matrix
    [[a, g^T], [g, diag(poles)]]."""
    d = poles.size + 1
    H = np.zeros((d, d))
    H[0, 0] = a
    idx = np.arange(1, d)
    H[idx, idx] = poles
    H[0, 1:] = couplings
    H[1:, 0] = couplings
    evals, evecs = np.linalg.eigh(H)
    return evals, evecs[0] ** 2


@dataclass(frozen=True)
class SingleExcitationModel:
    """Spectral measure of |up, vac>, with the ancilla level at K != 0."""

    bath: DiscretizedBath
    omega0: float
    K: float
    eigenvalues: np.ndarray
    weights: np.ndarray             # |<k|up, vac>|^2, summing to 1

    @classmethod
    def qubit(cls, bath: DiscretizedBath, omega0: float,
              K: float = 0.0) -> "SingleExcitationModel":
        """{|up, vac>, |down, 1_i>} (M+1 levels) at K = 0; otherwise
        + {|M, 1_i>}, the qubit on the doubled bath omega_i -+ K,
        g_i / sqrt 2 (2M+1 levels)."""
        require_finite(omega0, "omega0")
        require_finite(K, "coupling K", allow_zero=True)
        poles = -0.5 * omega0 + bath.omegas
        couplings = bath.couplings
        if K != 0:
            poles = np.concatenate([poles - K, poles + K])
            couplings = np.tile(couplings / math.sqrt(2.0), 2)
        return cls(bath, omega0, float(K),
                   *_spectral_measure(0.5 * omega0, poles, couplings))

    @property
    def recurrence_time(self) -> float:
        return self.bath.recurrence_time


def _check_span(model: SingleExcitationModel, t_max: float):
    if t_max > model.recurrence_time:
        raise RecurrenceWindowExceeded(
            f"t = {t_max:.1f} exceeds the recurrence time "
            f"{model.recurrence_time:.1f}")


def free_survival(model: SingleExcitationModel, t):
    """P(t) = |<up,vac| e^{-iHt} |up,vac>|^2 (scalar or array t)."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tt < 0):
        raise DomainError("t must be nonnegative")
    _check_span(model, float(np.max(tt)))
    amp = np.exp(-1j * np.outer(tt, model.eigenvalues)) @ model.weights
    P = np.abs(amp) ** 2
    return float(P[0]) if np.ndim(t) == 0 else P


def zeno_survival(model: SingleExcitationModel, tau: float, N: int) -> float:
    """Survival after N projective-measurement cycles: P_1(tau)^N.

    Exact in the single-excitation sector: the nonselective projection
    onto |up> collapses the surviving branch back to |up, vac>.
    """
    require_finite(tau, "period tau")
    if N < 1:
        raise DomainError("N must be at least 1")
    return float(free_survival(model, tau)) ** N


def zeno_effective_rate(model: SingleExcitationModel, tau: float) -> float:
    """-log P_1(tau) / tau, the per-cycle effective decay rate."""
    require_finite(tau, "period tau")
    p1 = free_survival(model, tau)
    if p1 <= 0.0:
        raise NonPositiveProbability("single-cycle survival vanished")
    return -math.log(p1) / tau


def kick_survival_trace(model: SingleExcitationModel, tau: float,
                        N: int) -> tuple[np.ndarray, np.ndarray]:
    """(t_k, P_k) after each of N kick cycles (kick after each e^{-iH tau}).

    In the eigenbasis the kick is 2 v v^T - I, v_k = <k|up, vac>.  With
    y = v * c (c the state in that basis, y = w at t = 0) the amplitude of
    |up, vac> is sum(y) and a kick is y <- 2 w sum(y) - y; N must be even.
    """
    if N < 2 or N % 2 != 0:
        raise OddN("kick protocol requires an even number of cycles >= 2")
    require_finite(tau, "period tau")
    _check_span(model, N * tau)
    w = model.weights
    phases = np.exp(-1j * model.eigenvalues * tau)
    y = w.astype(complex)
    P = np.empty(N)
    for k in range(N):
        y *= phases
        amp = y.sum()
        y = 2.0 * amp * w - y
        P[k] = abs(amp) ** 2
    t = (np.arange(N) + 1) * tau
    return t, P


def continuous_survival(model: SingleExcitationModel, K: float, t):
    """Survival under continuous coupling; model must carry that K."""
    if not math.isclose(model.K, K):
        raise DomainError("model was not built with the requested K")
    return free_survival(model, t)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    fit_window: tuple[float, float]
    residual: float


def fit_decay_rate(samples: Sequence[tuple[float, float]]) -> DecayFit:
    """Least-squares slope of -log P versus t.

    Requires >= 10 samples, all with P > 0; the residual is the RMS
    deviation of -log P from the fitted line.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 10:
        raise WindowTooShort("need at least 10 (t, P) samples")
    t, P = pts[:, 0], pts[:, 1]
    if np.any(P <= 0.0):
        raise NonPositiveProbability("all survival probabilities must be > 0")
    y = -np.log(P)
    slope, intercept = np.polyfit(t, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return DecayFit(float(slope), (float(t.min()), float(t.max())), resid)
