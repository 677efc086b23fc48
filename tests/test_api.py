import importlib
import math
import warnings

import numpy as np
import pytest

import zenolab as z
from zenolab import cli
from zenolab.errors import ZenolabError

MODULES = ("spectral", "numerics", "rates", "crossover", "lindblad", "oracle",
           "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry left behind by a deletion would go unnoticed by
    # anything that walks __all__ with a default
    module = importlib.import_module("zenolab." + name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _samples(t_bad=None, p_bad=None):
    """25 (t, P) samples of e^{-0.3 t}, the eighth one replaced."""
    samples = [(t, math.exp(-0.3 * t)) for t in np.linspace(1.0, 40.0, 25)]
    t, p = samples[7]
    samples[7] = (t if t_bad is None else t_bad, p if p_bad is None else p_bad)
    return samples


def _free_model():
    ff = z.FormFactor(z.EXPONENTIAL, g=0.1, cutoff=0.5)
    return z.SingleExcitationModel.qubit(z.build_bath(ff, 6.0, 10), 0.2)


# Every entry point that checks a number against a sign, fed v = NaN,
# +inf and -inf, with the error it raises.  NaN fails every comparison and
# +inf passes '> 0', so a hand-written sign test lets one or both through.
GUARDED = {
    "QubitGenerator rates": (z.DomainError,
                             lambda v: z.QubitGenerator(0.01, v, 1.0, 1.0)),
    "evolve t": (z.DomainError, lambda v: z.evolve(
        z.QubitDensityMatrix.excited(), z.QubitGenerator(0.01, 0.1, 1.0, 0.5), v)),
    "free_survival t": (z.DomainError, lambda v: z.free_survival(_free_model(), v)),
    "free_survival t array": (z.DomainError, lambda v: z.free_survival(
        _free_model(), np.array([1.0, v]))),
    "build_bath omega_max": (z.DomainError, lambda v: z.build_bath(
        z.FormFactor(z.EXPONENTIAL, cutoff=0.5), v, 10)),
    "match_cutoffs W": (z.DomainError, lambda v: z.match_cutoffs(
        z.EXPONENTIAL, z.POLYNOMIAL, v)),
    "quick_estimates omega0": (z.DomainError, lambda v: z.quick_estimates(2, v, 1.0)),
    "quick_estimates W": (z.DomainError, lambda v: z.quick_estimates(2, 0.01, v)),
    "cli --conversion-c": (z.DomainError, lambda v: cli._config_from(
        cli._build_parser().parse_args(["density", f"--conversion-c={v!r}"]))),
    "QubitDensityMatrix": (z.InvalidState,
                           lambda v: z.QubitDensityMatrix(np.full((2, 2), v))),
    "from_bloch": (z.InvalidState,
                   lambda v: z.QubitDensityMatrix.from_bloch(v, 0.0, 0.0)),
    # a NaN P gave rate = nan; a NaN t made LAPACK print to stderr and
    # numpy raise LinAlgError
    "fit_decay_rate P": (z.NonPositiveProbability,
                         lambda v: z.fit_decay_rate(_samples(p_bad=v))),
    "fit_decay_rate t": (z.DomainError,
                         lambda v: z.fit_decay_rate(_samples(t_bad=v))),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_entry_guards_reject_non_finite_input(entry, value, capfd):
    # a library error, raised before any arithmetic can warn or print
    error, call = GUARDED[entry]
    assert issubclass(error, ZenolabError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(value)
    assert capfd.readouterr().err == ""
