"""Brute-force validator: exact unitary dynamics of a discretized bath.

The continuum bath is replaced by the M nodes omega_i of the Gauss-Legendre
rule on [0, omega_max], with couplings g_i = sqrt(kappa(omega_i) w_i), and
the qubit + bath is evolved exactly in the zero-temperature
single-excitation sector {|up, vac>, |down, 1_i>}, whose Hamiltonian is
an arrowhead: Omega/2, then poles -Omega/2 + omega_i coupled by g_i.

A model is the spectral measure of |up, vac>: eigenvalues lambda_k and
weights w_k = |<k|up, vac>|^2, so the survival amplitude is
sum_k w_k e^{-i lambda_k t} at any t.  No dense eigensolver is used: the
eigenvalues are the roots of the arrowhead's secular equation, one per
interval between neighbouring poles, each found in O(d) per iteration from
pole-relative differences, and the weights follow in closed form, so a
model costs O(d^2) time and O(d) memory per root.  The Gauss-Legendre bath
rule comes from Halley's method on the Legendre recurrence, P_M'' taken
from Legendre's equation: two O(M^2) passes, once per M in a process.

An ancilla level |M>, degenerate with |down> and coupled by
K(|down><M| + h.c.), makes the qubit model on a doubled bath: modes
(|down, 1_i> +- |M, 1_i>)/sqrt 2 with poles -Omega/2 + omega_i +- K and
couplings g_i / sqrt 2.  At K = 0 the antisymmetric half carries no
amplitude and the model is the qubit's.

* Zeno: projecting onto |up> leaves |up, vac> invariant in this sector,
  so N nonselective measurement cycles give exactly P_N = P_1(tau)^N.
* kicks: the 2pi pulse between |down> and |M> is S = 2 e_0 e_0^T - I
  (+1 on |up, vac>, -1 on the rest), a rank-one update in the
  eigenbasis, so a cycle costs O(d) (N even).
* continuous coupling: plain evolution of the K != 0 ancilla model.

``effective_rate`` is the one entry point from a ``rates`` strategy to an
oracle rate: it takes the bath span and the longest evolution time from
the protocol's plan (``_plan``) and, from a process-wide cache, the model,
then fits -log P versus t inside a window between the bath correlation
time and the recurrence time (~ 2 pi / max mode spacing).
Analytic rates are second order in g, the oracle is exact, so
comparisons carry O(g^2) relative slack; the reference configuration
uses g = 0.1, Omega = 0.2 W.

Limitation (by design): zero temperature only.  A thermal oracle needs
multi-excitation sectors of exponential dimension; thermal dressing is
validated analytically in the spectral module instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DomainError, NoConvergence, NonPositiveProbability,
                     RecurrenceWindowExceeded, WindowTooShort)
from . import numerics
from .numerics import _shaped, gauss_legendre, require_finite
from .rates import (BangBangKick, ContinuousCoupling, ControlStrategy, Free,
                    ZenoMeasurement, _cycle_count, _free_rate, strategy_rate)
from .spectral import FormFactor, bare_density

__all__ = [
    "DiscretizedBath",
    "SingleExcitationModel",
    "DecayFit",
    "build_bath",
    "free_survival",
    "zeno_effective_rate",
    "kick_survival_trace",
    "continuous_survival",
    "fit_decay_rate",
    "effective_rate",
    "require_window",
]

_EPS = float(np.finfo(float).eps)
_NEWTON_MAX = 64        # cap on Halley and Newton steps (a few is typical)
_BLOCK = 1 << 16        # roots x poles entries per block of the secular solver


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
        if not np.all(np.isfinite(om)):
            raise DomainError("mode frequencies must be finite")
        if not np.all(np.diff(om) > 0):
            raise DomainError("mode frequencies must be strictly increasing")
        require_finite(gi, "couplings", allow_zero=True)
        require_finite(self.omega_max, "omega_max")
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
        return _recurrence_time(self.omegas)

    @property
    def coupling_sum_rule(self) -> float:
        """sum g_i^2, to be compared with int_0^omega_max kappa."""
        return float(np.sum(self.couplings ** 2))


def build_bath(ff: FormFactor, omega_max: float, M: int) -> DiscretizedBath:
    """Discretize ``ff`` into the M Gauss-Legendre modes of [0, omega_max]
    (finite and positive, else DomainError)."""
    require_finite(omega_max, "omega_max")
    x, w = gauss_legendre(M)
    om = 0.5 * omega_max * (x + 1.0)
    gi = np.sqrt(bare_density(ff, om) * (0.5 * omega_max * w))
    return DiscretizedBath(om, gi, float(omega_max))


def _spectral_measure(a: float, poles: np.ndarray,
                      couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and first-component weights of the arrowhead
    matrix H = [[a, g^T], [g, diag(poles)]], d = poles.size + 1 of each.

    Deflation first (tol = 8 eps ||H||-bound): a pole whose coupling is
    below tol is an eigenvalue of weight 0, and each run of poles closer
    than tol to the previous live one is rotated (Givens) onto its first
    pole, which carries the run's coupling sqrt(sum g_i^2); the others are
    levels of weight 0.  The rest is the secular equation of the live poles
    (``_secular_roots``).  O(d^2) time, O(d) memory per root.
    """
    # scaled by a power of 2 to norm ~ 1, so no square under- or overflows
    s = math.ldexp(1.0, math.frexp(max(abs(a), float(np.max(np.abs(poles))),
                                       float(np.max(np.abs(couplings)))))[1])
    a = a / s
    order = np.argsort(poles, kind="stable")
    ps = poles[order] / s
    g2 = (couplings[order] / s) ** 2
    tol = 8.0 * _EPS * max(abs(a), float(np.max(np.abs(ps))),
                           math.sqrt(float(np.sum(g2))))
    li = np.flatnonzero(g2 > tol * tol)
    first = np.ones(li.size, dtype=bool)
    first[1:] = np.diff(ps[li]) > tol
    z2 = np.bincount(np.cumsum(first) - 1, weights=g2[li])
    live = np.zeros(ps.size, dtype=bool)
    live[li[first]] = True
    lam, w = _secular_roots(a, ps[live], z2)
    lam = np.concatenate([lam, ps[~live]])
    w = np.concatenate([w, np.zeros(ps.size - z2.size)])
    o = np.argsort(lam, kind="stable")
    return lam[o] * s, w[o]


def _secular_roots(a: float, d: np.ndarray,
                   z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 roots of lambda - a = sum_i z2_i / (lambda - d_i) (d
    strictly increasing, z2 > 0), one per interlacing interval, and their
    weights 1 / (1 + sum_i zh_i^2 / (lambda - d_i)^2).

    Each root is kept as an offset mu from its nearer pole (``_root_block``),
    so every lambda - d_i is the exact pole difference minus mu.  zh are the
    couplings for which the computed roots are exact (Gu & Eisenstat, SIAM
    J. Matrix Anal. Appl. 15, 1315 (1994)),
    zh_i^2 = -prod_k (d_i - lambda_k) / prod_{j != i} (d_i - d_j), so the
    eigenvectors are orthogonal to working precision and sum(w) = 1.  Roots
    go in row blocks of ``_BLOCK`` entries: O(n^2) time, O(_BLOCK) memory.
    """
    n = d.size
    if n == 0:
        return np.array([a]), np.array([1.0])
    znorm = math.sqrt(float(np.sum(z2)))
    origin = np.empty(n + 1, dtype=int)
    mu = np.empty(n + 1)
    rows = max(1, _BLOCK // n)
    blocks = [np.arange(s, min(s + rows, n + 1)) for s in range(0, n + 1, rows)]
    for k in blocks:
        origin[k], mu[k] = _root_block(a, d, z2, znorm, k)
    # zh_i^2 = -(d_i - lambda_i)(d_i - lambda_n) prod_{k != i, n} of
    # (d_i - lambda_k) / (d_i - d_k): by interlacing the ratios telescope,
    # so the running product neither over- nor underflows
    prod = np.ones(n)
    for k in blocks:
        den = d - d[np.minimum(k, n - 1), None]
        inner = k < n
        den[np.flatnonzero(inner), k[inner]] = 1.0
        den[~inner] = 1.0
        diff = d - d[origin[k], None]
        diff -= mu[k, None]
        diff /= den
        prod *= np.prod(diff, axis=0)
    zh2 = -prod
    w = np.empty(n + 1)
    for k in blocks:
        inv = d - d[origin[k], None]
        inv -= mu[k, None]
        np.divide(1.0, inv, out=inv)
        inv *= inv
        w[k] = 1.0 / (1.0 + inv @ zh2)
    return d[origin] + mu, w


def _root_block(a: float, d: np.ndarray, z2: np.ndarray, znorm: float,
                k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots k of the secular equation as (origin pole index, offset mu).

    Root k lies in (d_{k-1}, d_k), with d_{-1} and d_n the Weyl bounds
    min/max(a, d) -+ ||z||, widened by ||z|| so the root is inside.  Its
    origin is the nearer end pole: the one end pole of an outer interval,
    else by the sign of f(lambda) = lambda - a - sum z2 / (lambda - d) at
    the midpoint.  The search runs on mu = lambda - origin, with every
    difference taken as (d_i - origin) - mu.  g(mu) = mu f(mu) has no pole
    at mu = 0 and is convex on the interval, so Newton from the far side of
    the root (the root of g with the other poles frozen at mu = 0)
    converges monotonically; a step that leaves the bracket falls back to
    bisection.
    """
    n = d.size
    inner = (k > 0) & (k < n)
    kl = np.maximum(k - 1, 0)
    kr = np.minimum(k, n - 1)
    ends = np.concatenate([[d[0] - znorm], d, [d[-1] + znorm]])
    mid = 0.5 * (ends[k] + ends[k + 1])     # used on inner intervals only
    f_mid = mid - a - (1.0 / (mid[:, None] - d)) @ z2
    use_left = np.where(inner, f_mid > 0, k == n)
    origin = np.where(use_left, kl, kr)
    org = d[origin]
    far = np.where(inner, mid - org,
                   np.where(k == 0, min(a - d[0], 0.0) - 2.0 * znorm,
                            max(a - d[-1], 0.0) + 2.0 * znorm))
    lo = np.where(use_left, 0.0, far)
    hi = np.where(use_left, far, 0.0)
    rows = np.arange(k.size)
    delta = d - org[:, None]        # exactly 0 in the origin's column
    delta[rows, origin] = np.inf
    c = org - a
    B = c + (1.0 / delta) @ z2
    delta[rows, origin] = 0.0
    zo2 = z2[origin]
    BD = np.abs(B) + np.sqrt(B * B + 4.0 * zo2)
    mu = np.where(use_left,
                  np.minimum(np.where(B >= 0, 2.0 * zo2 / BD, 0.5 * BD), far),
                  np.maximum(np.where(B <= 0, -2.0 * zo2 / BD, -0.5 * BD), far))
    sgn = np.where(use_left, 1.0, -1.0)
    act = rows
    for _ in range(_NEWTON_MAX):
        m = mu[act]
        inv = delta - m[:, None]
        np.divide(1.0, inv, out=inv)
        s1 = inv @ z2
        np.abs(inv, out=inv)
        s_abs = inv @ z2
        inv *= inv
        s2 = inv @ z2
        f = m + c[act] + s1
        g = m * f
        right = g * sgn[act] < 0    # f(m) < 0: the root lies above m
        lo[act] = np.where(right, m, lo[act])
        hi[act] = np.where(right, hi[act], m)
        l, h = lo[act], hi[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / (f + m * (1.0 + s2))
        new = m - step
        inside = (new > l) & (new < h)
        # f is known to about eps times the sum of its terms' sizes
        done = ((np.abs(f) <= 8.0 * _EPS * (np.abs(m) + np.abs(c[act]) + s_abs))
                | (np.abs(step) <= 2.0 * _EPS * np.abs(m))
                | (h - l <= 2.0 * _EPS * np.maximum(np.abs(l), np.abs(h))))
        mu[act] = np.where(inside, new, np.where(done, m, 0.5 * (l + h)))
        act = act[~done]
        if act.size == 0:
            return origin, mu
        delta = delta[~done]
    raise NoConvergence(f"{act.size} secular roots did not converge in "
                        f"{_NEWTON_MAX} Newton steps")


@dataclass(frozen=True)
class SingleExcitationModel:
    """Spectral measure of |up, vac>, with the ancilla level at K != 0."""

    bath: DiscretizedBath
    omega0: float
    K: float
    eigenvalues: np.ndarray
    weights: np.ndarray             # |<k|up, vac>|^2, summing to 1

    def __post_init__(self):
        # read-only like the bath's arrays, so a model can be shared
        for name in ("eigenvalues", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        hint = "" if math.isfinite(t_max) else "; no mode count reaches it"
        raise RecurrenceWindowExceeded(
            f"t = {t_max:.1f} exceeds the recurrence time "
            f"{model.recurrence_time:.1f}{hint}")


def free_survival(model: SingleExcitationModel, t):
    """P(t) = |<up,vac| e^{-iHt} |up,vac>|^2 (scalar or array t, each
    finite and nonnegative, else DomainError)."""
    tt = require_finite(t, "time t", allow_zero=True)
    _check_span(model, float(np.max(tt)))
    amp = np.exp(-1j * np.outer(tt, model.eigenvalues)) @ model.weights
    return _shaped(np.abs(amp) ** 2, t)


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
    |up, vac> is sum(y) and a kick is y <- 2 w sum(y) - y; N must be an
    even integer >= 2 (:func:`rates._cycle_count`).
    """
    N = _cycle_count(N)
    require_finite(tau, "period tau")
    _check_span(model, _trace_time(N, tau))
    w = model.weights
    phases = np.exp(-1j * model.eigenvalues * tau)
    y = w.astype(complex)
    P = np.empty(N)
    for k in range(N):
        y *= phases
        amp = y.sum()
        y = 2.0 * amp * w - y
        P[k] = abs(amp) ** 2
    return (np.arange(N) + 1) * tau, P


def continuous_survival(model: SingleExcitationModel, K: float, t):
    """Survival under continuous coupling; model must carry that K (one
    finite K >= 0, else DomainError)."""
    _require_one(K, "coupling K")
    require_finite(K, "coupling K", allow_zero=True)
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

    Requires >= 10 samples, all with finite t (else DomainError) and
    finite P > 0 (else NonPositiveProbability); the residual is the RMS
    deviation of -log P from the fitted line.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 10:
        raise WindowTooShort("need at least 10 (t, P) samples")
    t, P = pts[:, 0], pts[:, 1]
    if not np.isfinite(t).all():
        raise DomainError("sample times must be finite")
    if not (np.isfinite(P) & (P > 0.0)).all():
        raise NonPositiveProbability(
            "all survival probabilities must be finite and > 0")
    y = -np.log(P)
    slope, intercept = np.polyfit(t, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return DecayFit(float(slope), (float(t.min()), float(t.max())), resid)


# One model per (bath, Omega, K) per process: kick periods whose spans
# agree, and the K = 0 models of the free, zeno and kick protocols, share
# a secular solve.  Models are read-only, as are their baths.
@lru_cache(maxsize=8)
def _qubit_model(ff: FormFactor, span: float, M: int, omega0: float,
                 K: float) -> SingleExcitationModel:
    """The qubit model on ``ff``'s M-mode bath over [0, span]."""
    return SingleExcitationModel.qubit(build_bath(ff, span, M), omega0, K)


# a named mode count is confirmed on Gauss-Legendre rules up to this many
# times the requested one, and above it left as the estimate
_CONFIRM_FACTOR = 4


def _recurrence_time(omegas: np.ndarray) -> float:
    """~ 2 pi over the largest spacing of the modes ``omegas``."""
    return 2.0 * math.pi / float(np.max(np.diff(omegas)))


def _require_recurrence(span: float, t_max: float, M: int):
    """RecurrenceWindowExceeded, naming the mode count a Gauss-Legendre
    bath over [0, span] needs to reach ``t_max``, unless M modes do.

    Checked before any model is built.  The recurrence time grows as
    M + 1/2 (the node spacing at the centre of the span), which gives the
    count to within a mode or two.  Up to _CONFIRM_FACTOR * M the rules
    settle it, built outside the rule cache so the search evicts no rule
    a model uses; above, a rule would cost O(count^2), so the message
    gives the estimate.
    """
    # the recurrence time of the bath on rule nodes x (build_bath's map)
    t_of = lambda x: _recurrence_time(0.5 * span * (x + 1.0))
    t_rec = t_of(gauss_legendre(M)[0])
    if t_max <= t_rec:
        return
    need = (M + 0.5) * t_max / t_rec - 0.5
    if need <= _CONFIRM_FACTOR * M:
        need = math.ceil(need)
        short = lambda m: t_of(numerics._gauss_legendre_rule.__wrapped__(m)[0]) < t_max
        while short(need):
            need += 1
        while need - 1 > M and not short(need - 1):
            need -= 1
        hint = f"it needs at least {need} modes"
    elif math.isfinite(need):
        hint = f"it needs about {math.ceil(need)} modes"
    else:
        hint = "no mode count reaches it"
    raise RecurrenceWindowExceeded(
        f"t = {t_max:.1f} exceeds the recurrence time {t_rec:.1f} of the "
        f"{M}-mode bath; {hint}")


def _require_one(value, what: str):
    """DomainError for an array ``value``: the oracle takes one ``what``."""
    if np.ndim(value):
        raise DomainError(f"the oracle takes one {what}")


def _trace_time(n: int, tau: float) -> float:
    """n tau, the end of an n-cycle kick trace (inf past float range)."""
    try:
        return n * tau
    except OverflowError:
        return math.inf


def _plan(lam: float, omega0: float, strategy: ControlStrategy,
          n_cycles: int) -> tuple[float, float]:
    """(span, t_max) of :func:`effective_rate`'s rule for ``strategy``: a
    bath span of 12 Lambda, widened for kicks past the first comb line to
    Omega + pi/tau + 3 Lambda and for continuous coupling to (Omega + K)/0.8
    when Omega + K > 0.9 * 12 Lambda, and the longest evolution time: tau
    (Zeno), n_cycles tau (kicks) or 0 (free and continuous rules fit inside
    the recurrence time).  DomainError for an array period or coupling or
    an unknown strategy; the cycle count goes through rates._cycle_count."""
    _require_one(getattr(strategy, "tau", getattr(strategy, "K", 0.0)),
                 "period or coupling")
    span = 12.0 * lam
    if isinstance(strategy, ZenoMeasurement):
        return span, strategy.tau
    if isinstance(strategy, BangBangKick):
        t_max = _trace_time(_cycle_count(n_cycles), strategy.tau)
        return max(span, omega0 + math.pi / strategy.tau + 3.0 * lam), t_max
    if isinstance(strategy, ContinuousCoupling):
        K = strategy.K
        return (omega0 + K) / 0.8 if omega0 + K > 0.9 * span else span, 0.0
    if isinstance(strategy, Free):
        return span, 0.0
    raise DomainError(f"unknown strategy {strategy!r}")


def require_window(ff: FormFactor, omega0: float, strategy: ControlStrategy,
                   M: int, n_cycles: int) -> None:
    """RecurrenceWindowExceeded, before any model is built, when the Zeno
    rule (which evolves to tau) or the kick rule (to n_cycles tau) of
    :func:`effective_rate` outruns the recurrence time of its M-mode bath,
    naming the mode count the run needs; :func:`_plan`'s errors first."""
    _require_recurrence(*_plan(ff.cutoff, omega0, strategy, n_cycles), M)


def effective_rate(ff: FormFactor, omega0: float, strategy: ControlStrategy,
                   M: int, n_cycles: int) -> DecayFit:
    """The oracle's decay rate under ``strategy`` (one period or coupling)
    on ff's M-mode Gauss-Legendre bath over [0, span], at zero temperature.

    The span is :func:`_plan`'s.  Free and continuous
    rates are fits to 60 samples from 6/Lambda up to min(0.75 t_rec,
    1.5/gamma) and min(0.8 t_rec, 2/max(gamma_K, 1e-3 gamma)); kicks fit
    the odd cycles of n_cycles (even) from n_cycles/4 on; Zeno is
    -log P_1(tau)/tau with window (tau, tau) and residual 0.
    """
    lam = ff.cutoff
    span, t_max = _plan(lam, omega0, strategy, n_cycles)
    _require_recurrence(span, t_max, M)
    model = _qubit_model(ff, span, M, omega0, getattr(strategy, "K", 0.0))
    if isinstance(strategy, ZenoMeasurement):
        tau = strategy.tau
        return DecayFit(zeno_effective_rate(model, tau), (tau, tau), 0.0)
    if isinstance(strategy, BangBangKick):
        tau = strategy.tau
        t, P = kick_survival_trace(model, tau, n_cycles)
        sel = (np.arange(n_cycles) % 2 == 1) & (t >= 0.25 * n_cycles * tau)
        return fit_decay_rate(list(zip(t[sel], P[sel])))
    tsd0 = ff.thermal(math.inf)
    gamma = _free_rate(tsd0, omega0)
    if isinstance(strategy, Free):
        t_hi = min(0.75 * model.recurrence_time, 1.5 / gamma)
    else:
        gamma_K = strategy_rate(tsd0, omega0, strategy)
        t_hi = min(0.8 * model.recurrence_time,
                   2.0 / max(gamma_K, gamma * 1e-3))
    ts = np.linspace(6.0 / lam, t_hi, 60)
    return fit_decay_rate(list(zip(ts, free_survival(model, ts))))
