"""Markovian qubit dynamics under the free or controlled generators.

The dissipator has three channels,

    L rho = gamma_0 (sz rho sz - rho)
          + gamma_down (sm rho sp - {sp sm, rho}/2)
          + gamma_up   (sp rho sm - {sm sp, rho}/2),

with gamma_down = 2 pi kappa_beta(Omega) (emission),
gamma_up = 2 pi kappa_beta(-Omega) (absorption) and
gamma_0 = 2 pi kappa_beta(0) (pure dephasing) in the free case; under a
control strategy the channel rates are evaluated at the controlled
analogues (sinc^2-weighted for Zeno, comb series for kicks, shifted
arguments for continuous coupling).  The KMS symmetry of the thermal
density makes the free generator detail-balanced, with the Gibbs state
p_up/p_down = e^{-beta Omega} as its fixed point.

Evolution uses the closed-form Bloch solution: longitudinal relaxation at
gamma_down + gamma_up toward the stationary inversion, transverse decay
at 2 gamma_0 + (gamma_down + gamma_up)/2 with precession Omega.
``trajectory`` evaluates it at a whole array of times in one pass and
returns the stack of density matrices; ``evolve`` is its one-time case.
``observables`` reads p_up, the Bloch vector and the purity back from a
matrix or a stack of them.

Basis convention: index 0 = |up>, index 1 = |down>; sz = diag(1, -1).

Kick and continuous control of the *dephasing* channel is exposed with
the center frequency set to 0, but only the Zeno analogue is derived in
the source material; treat those two combinations as experimental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidState, NoRelaxation
from .numerics import require_finite
from .rates import ControlStrategy, Free, strategy_rate
from .spectral import ThermalSpectralDensity

__all__ = [
    "QubitDensityMatrix",
    "QubitGenerator",
    "build_qubit_generator",
    "evolve",
    "observables",
    "stationary_state",
    "trajectory",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_TOL = -1e-10


@dataclass(frozen=True)
class QubitDensityMatrix:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidState("density matrix must be 2x2")
        if not np.isfinite(m).all():
            raise InvalidState("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise InvalidState("density matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > _TRACE_TOL or abs(m.trace().imag) > _TRACE_TOL:
            raise InvalidState("density matrix trace differs from 1")
        # the smaller eigenvalue of a Hermitian 2x2, from its lower triangle
        half = 0.5 * (m[0, 0].real - m[1, 1].real)
        if 0.5 * m.trace().real - math.hypot(half, abs(m[1, 0])) < _EIG_TOL:
            raise InvalidState("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "QubitDensityMatrix":
        return cls(_bloch_matrices(*np.array([[x], [y], [z]], dtype=float))[0])

    @classmethod
    def excited(cls) -> "QubitDensityMatrix":
        return cls.from_bloch(0.0, 0.0, 1.0)

    @classmethod
    def ground(cls) -> "QubitDensityMatrix":
        return cls.from_bloch(0.0, 0.0, -1.0)

    @classmethod
    def maximally_mixed(cls) -> "QubitDensityMatrix":
        return cls.from_bloch(0.0, 0.0, 0.0)

    @property
    def p_up(self) -> float:
        return float(observables(self.matrix)[0])

    @property
    def bloch(self) -> tuple[float, float, float]:
        _, x, y, z, _ = observables(self.matrix)
        return float(x), float(y), float(z)

    @property
    def purity(self) -> float:
        return float(observables(self.matrix)[4])


def observables(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_up, x, y, z, purity) of a (..., 2, 2) stack of density matrices,
    each of shape ``...``: the Bloch vector is read back from the matrix
    (x = 2 Re m10, y = 2 Im m10, z = Re(m00 - m11)) and the purity is
    (1 + |r|^2)/2."""
    x = 2.0 * m[..., 1, 0].real
    y = 2.0 * m[..., 1, 0].imag
    z = (m[..., 0, 0] - m[..., 1, 1]).real
    return m[..., 0, 0].real, x, y, z, 0.5 * (1.0 + x * x + y * y + z * z)


def _bloch_matrices(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) density matrices of n Bloch vectors; InvalidState
    unless every |r| <= 1 + 1e-12 (a NaN is left to the constructor)."""
    if (np.sqrt(x * x + y * y + z * z) > 1.0 + 1e-12).any():
        raise InvalidState("Bloch vector must satisfy |r| <= 1")
    m = np.empty((z.size, 2, 2), dtype=complex)
    m[:, 0, 0] = 1.0 + z
    m[:, 0, 1] = x - 1j * y
    m[:, 1, 0] = x + 1j * y
    m[:, 1, 1] = 1.0 - z
    return 0.5 * m


@dataclass(frozen=True)
class QubitGenerator:
    """Channel rates of the qubit Lindblad generator (all >= 0), at a
    splitting omega0 > 0 and an inverse temperature beta > 0 (+inf allowed)."""

    omega0: float
    gamma_dephase: float
    gamma_down: float
    gamma_up: float
    beta: float = math.inf

    def __post_init__(self):
        require_finite(self.omega0, "level splitting omega0")
        require_finite((self.gamma_dephase, self.gamma_down, self.gamma_up),
                       "channel rates", allow_zero=True)
        if not self.beta > 0:
            raise DomainError("inverse temperature beta must be positive")

    @property
    def relaxation_rate(self) -> float:
        return self.gamma_down + self.gamma_up

    @property
    def transverse_rate(self) -> float:
        return 2.0 * self.gamma_dephase + 0.5 * self.relaxation_rate

    @property
    def detailed_balance(self) -> bool:
        """True iff gamma_up = e^{-beta omega0} gamma_down (1e-10 relative)."""
        if math.isinf(self.beta):
            return self.gamma_up == 0.0
        target = math.exp(-self.beta * self.omega0) * self.gamma_down
        scale = max(abs(target), abs(self.gamma_up), 1e-300)
        return abs(self.gamma_up - target) <= 1e-10 * scale


def build_qubit_generator(tsd_flip: ThermalSpectralDensity | None,
                          tsd_dephase: ThermalSpectralDensity | None,
                          omega0: float,
                          strategy: ControlStrategy = Free()) -> QubitGenerator:
    """Generator with the flip/dephasing channels set by ``strategy``.

    ``None`` closes a channel: ``tsd_dephase=None`` means g_0 = 0 (pure
    spin-flip decoherence), ``tsd_flip=None`` means g = 0 (pure
    dephasing).  beta is read from whichever density is given.
    """
    require_finite(omega0, "level splitting omega0")

    def rate(tsd, center):
        return 0.0 if tsd is None else strategy_rate(tsd, center, strategy)

    given = tsd_flip if tsd_flip is not None else tsd_dephase
    return QubitGenerator(omega0, rate(tsd_dephase, 0.0), rate(tsd_flip, omega0),
                          rate(tsd_flip, -omega0),
                          beta=math.inf if given is None else given.beta)


def _each(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every entry of ``values``."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def trajectory(rho0: QubitDensityMatrix, gen: QubitGenerator, times) -> np.ndarray:
    """Closed-form Bloch evolution of ``rho0`` to each of ``times`` >= 0
    (finite, else DomainError), in their flat order: the (n, 2, 2) stack
    of density matrices.

    z relaxes at gamma_1 = gamma_down + gamma_up toward
    (gamma_up - gamma_down)/gamma_1; (x, y) decays at the transverse rate
    and precesses at omega0.  The exponentials, cosines and sines are
    ``math``'s, taken per entry: numpy's vectorized exp can differ from
    them in the last bit.
    """
    t = require_finite(times, "evolution time t", allow_zero=True)
    x0, y0, z0 = rho0.bloch
    g1 = gen.relaxation_rate
    if g1 > 0:
        z_inf = (gen.gamma_up - gen.gamma_down) / g1
        z = z_inf + (z0 - z_inf) * _each(math.exp, -g1 * t)
    else:
        z = np.full(t.size, z0)
    decay = _each(math.exp, -gen.transverse_rate * t)
    phase = gen.omega0 * t
    c, s = _each(math.cos, phase), _each(math.sin, phase)
    x = decay * (x0 * c - y0 * s)
    y = decay * (x0 * s + y0 * c)
    return _bloch_matrices(x, y, z)


def evolve(rho0: QubitDensityMatrix, gen: QubitGenerator,
           t: float) -> QubitDensityMatrix:
    """:func:`trajectory` of ``rho0`` at the one time ``t`` >= 0."""
    (m,) = trajectory(rho0, gen, [t])
    return QubitDensityMatrix(m)


def stationary_state(gen: QubitGenerator) -> QubitDensityMatrix:
    """Diagonal fixed point with p_up/p_down = gamma_up/gamma_down.

    Under detailed balance this is the Gibbs state
    p_up/p_down = e^{-beta omega0}.
    """
    g1 = gen.relaxation_rate
    if g1 <= 0:
        raise NoRelaxation("no population relaxation channel")
    p_up = gen.gamma_up / g1
    return QubitDensityMatrix.from_bloch(0.0, 0.0, 2.0 * p_up - 1.0)
