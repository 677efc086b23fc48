"""Shared fixtures: reference-regime densities and pre-built oracle models."""

import math

import pytest

import zenolab as z

# high-temperature reference regime: W = 1, Omega = 0.01 W, beta = 50/W
OMEGA = 0.01
BETA = 50.0
W = 1.0

# oracle reference configuration (zero temperature)
ORACLE_G = 0.1
ORACLE_OMEGA = 0.2


@pytest.fixture(scope="session")
def tsd_exp():
    return z.form_factor_for_bandwidth(z.EXPONENTIAL, W=W).thermal(BETA)


@pytest.fixture(scope="session")
def tsd_poly():
    return z.form_factor_for_bandwidth(z.POLYNOMIAL, W=W).thermal(BETA)


@pytest.fixture(scope="session")
def tsd_exp_zero_t():
    return z.form_factor_for_bandwidth(z.EXPONENTIAL, W=W).thermal(math.inf)


@pytest.fixture(scope="session")
def reports_exp(tsd_exp):
    """(tau*_Z, tau*_k, K*) reports in the reference regime, scanned once."""
    return (z.find_tau_star_zeno(tsd_exp, OMEGA),
            z.find_tau_star_kick(tsd_exp, OMEGA),
            z.find_K_star(tsd_exp, OMEGA))


@pytest.fixture(scope="session")
def reports_poly(tsd_poly):
    return (z.find_tau_star_zeno(tsd_poly, OMEGA),
            z.find_tau_star_kick(tsd_poly, OMEGA),
            z.find_K_star(tsd_poly, OMEGA))


@pytest.fixture(scope="session")
def oracle_ff():
    lam = z.form_factor_for_bandwidth(z.EXPONENTIAL, W=W).cutoff
    return z.FormFactor(z.EXPONENTIAL, g=ORACLE_G, cutoff=lam)


@pytest.fixture(scope="session")
def oracle_tsd0(oracle_ff):
    return oracle_ff.thermal(math.inf)


@pytest.fixture(scope="session")
def free_model(oracle_ff):
    bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
    return z.SingleExcitationModel.qubit(bath, ORACLE_OMEGA)


@pytest.fixture(scope="session")
def kick_model(oracle_ff):
    # span covers the first comb line Omega + pi/tau for tau >= 0.5
    span = ORACLE_OMEGA + math.pi / 0.5 + 3.0 * oracle_ff.cutoff
    bath = z.build_bath(oracle_ff, span, 600)
    return z.SingleExcitationModel.qubit(bath, ORACLE_OMEGA)


@pytest.fixture(scope="session")
def continuous_model_k5(oracle_ff):
    bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 600)
    return z.SingleExcitationModel.qubit(bath, ORACLE_OMEGA, 5.0)
