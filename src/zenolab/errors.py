"""Exception hierarchy shared by all zenolab modules."""


class ZenolabError(Exception):
    """Base class for all zenolab errors."""


class DomainError(ZenolabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DivergentMoment(ZenolabError):
    """A spectral moment (e.g. the bandwidth numerator) does not converge."""


class DivergentIntegral(ZenolabError):
    """An integral required by the operation fails to converge."""


class NoConvergence(ZenolabError):
    """Quadrature or root refinement missed its tolerance within its step budget."""


class NoCrossing(ZenolabError):
    """The controlled/free rate ratio never crosses 1 on the scan grid."""


class InvalidState(ZenolabError, ValueError):
    """Density matrix violates hermiticity, unit trace, or positivity."""


class NoRelaxation(ZenolabError):
    """Generator has no population relaxation channel (gamma_down + gamma_up = 0)."""


class RecurrenceWindowExceeded(ZenolabError):
    """Requested evolution time exceeds the discretized-bath recurrence time."""


class OddN(DomainError):
    """Kick protocols require an even number of cycles."""


class WindowTooShort(ZenolabError):
    """Too few samples inside the exponential fit window."""


class NonPositiveProbability(ZenolabError, ValueError):
    """Survival probabilities must be strictly positive to fit -log P."""
