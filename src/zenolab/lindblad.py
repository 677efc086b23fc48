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
    "stationary_state",
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
        r = math.sqrt(x * x + y * y + z * z)
        if r > 1.0 + 1e-12:
            raise InvalidState("Bloch vector must satisfy |r| <= 1")
        return cls(0.5 * np.array([[1.0 + z, x - 1j * y],
                                   [x + 1j * y, 1.0 - z]]))

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
        return float(self.matrix[0, 0].real)

    @property
    def bloch(self) -> tuple[float, float, float]:
        m = self.matrix
        return (float(2.0 * m[1, 0].real), float(2.0 * m[1, 0].imag),
                float((m[0, 0] - m[1, 1]).real))

    @property
    def purity(self) -> float:
        x, y, z = self.bloch
        return 0.5 * (1.0 + x * x + y * y + z * z)


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


def evolve(rho0: QubitDensityMatrix, gen: QubitGenerator,
           t: float) -> QubitDensityMatrix:
    """Closed-form Bloch evolution of ``rho0`` for time ``t`` >= 0 (finite,
    else DomainError)."""
    require_finite(t, "evolution time t", allow_zero=True)
    x0, y0, z0 = rho0.bloch
    g1 = gen.relaxation_rate
    if g1 > 0:
        z_inf = (gen.gamma_up - gen.gamma_down) / g1
        z = z_inf + (z0 - z_inf) * math.exp(-g1 * t)
    else:
        z = z0
    decay = math.exp(-gen.transverse_rate * t)
    phase = gen.omega0 * t
    c, s = math.cos(phase), math.sin(phase)
    x = decay * (x0 * c - y0 * s)
    y = decay * (x0 * s + y0 * c)
    return QubitDensityMatrix.from_bloch(x, y, z)


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
