"""zenolab: decoherence-control rates for a qubit and their validation.

Analytic decay rates of a two-level system coupled to an Ohmic thermal
bath under three control strategies (repeated projective measurements,
bang-bang kicks, strong continuous coupling), the Zeno <-> inverse-Zeno
crossover scales tau* and K*, closed-form Lindblad dynamics, and an exact
discretized-bath oracle that cross-validates every analytic formula.
"""

from .errors import (DivergentIntegral, DivergentMoment, DomainError,
                     InvalidState, NoConvergence, NoCrossing,
                     NonPositiveProbability, NoRelaxation, OddN,
                     RecurrenceWindowExceeded, WindowTooShort, ZenolabError)
from .numerics import (IntegralResult, alpha_n, half_integer_series_tail,
                       lambert_w_m1, zeta_odd)
from .spectral import (EXPONENTIAL, POLYNOMIAL, FormFactor,
                       ThermalSpectralDensity, bandwidth, bare_density,
                       form_factor_for_bandwidth, match_cutoffs,
                       thermal_density, zeno_time)
from .rates import (BangBangKick, ContinuousCoupling, ControlStrategy, Free,
                    SeriesRate, ZenoMeasurement, continuous_rate,
                    golden_rule_rate, kick_rate, kick_rate_integral,
                    strategy_rate, summary_asymptotics, zeno_rate)
from .crossover import (CrossoverReport, QuickEstimates, find_K_star,
                        find_tau_star_kick, find_tau_star_zeno,
                        quick_estimates)
from .lindblad import (QubitDensityMatrix, QubitGenerator,
                       build_qubit_generator, evolve, observables,
                       stationary_state, trajectory)
from .oracle import (DecayFit, DiscretizedBath, SingleExcitationModel,
                     build_bath, continuous_survival, effective_rate,
                     fit_decay_rate, free_survival, kick_survival_trace,
                     zeno_effective_rate)

__version__ = "0.1.0"
