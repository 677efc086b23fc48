import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import zenolab as z

OMEGA = 0.01
BETA = 50.0
TWO_PI = 2.0 * math.pi


def test_golden_rule_examples(tsd_exp):
    tsd0 = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0).thermal(math.inf)
    assert z.golden_rule_rate(tsd0, 1.0) == pytest.approx(TWO_PI * math.exp(-1.0),
                                                          rel=1e-14)
    # KMS pair: rate evaluated at -Omega equals e^{-beta Omega} gamma(Omega)
    g_plus = TWO_PI * z.thermal_density(tsd_exp, OMEGA)
    g_minus = TWO_PI * z.thermal_density(tsd_exp, -OMEGA)
    assert g_minus == pytest.approx(math.exp(-BETA * OMEGA) * g_plus, rel=1e-12)
    # reference-regime regression pin
    assert z.golden_rule_rate(tsd_exp, OMEGA) == pytest.approx(
        0.1565247726224343, rel=1e-12)


def _zeno_reference(tsd, omega0, tau):
    """Independent check: piecewise scipy quadrature in omega space."""
    f = lambda w: z.thermal_density(tsd, w) * np.sinc((w - omega0) * tau / (2 * np.pi)) ** 2
    pieces = [-np.inf, -50, -20, -5, -1, -0.1, 0, 0.1, 0.5, 1, 2, 5, 20, 50, np.inf]
    ks = np.arange(1, 65)
    zeros = np.concatenate([omega0 - TWO_PI * ks / tau, omega0 + TWO_PI * ks / tau])
    pieces = sorted(set(pieces) | set(zeros[np.abs(zeros) < 250].tolist()))
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        total += quad(f, a, b, limit=2000, epsabs=1e-15, epsrel=1e-11)[0]
    return tau * total


@pytest.mark.parametrize("tau", [1e-3, 0.05, 0.7, 13.0])
@pytest.mark.parametrize("fam", [z.EXPONENTIAL, z.POLYNOMIAL])
def test_zeno_rate_against_quadrature_oracle(fam, tau, tsd_exp, tsd_poly):
    tsd = tsd_exp if fam == z.EXPONENTIAL else tsd_poly
    assert z.zeno_rate(tsd, OMEGA, tau) == pytest.approx(
        _zeno_reference(tsd, OMEGA, tau), rel=1e-8)


def _zeno_reference_off_resonance(tsd, center, tau):
    """gamma_Z at beta = inf and center < 0 by QUADPACK's Fourier rules.

    Writing 1 - cos((w - c) tau) = 1 - cos(c tau) cos(w tau)
    - sin(c tau) sin(w tau), gamma_Z = (2/tau) int_0^inf kappa(w)
    (1 - cos((w - c) tau)) / (w - c)^2 dw splits into a smooth integral
    and two Fourier integrals (weight "cos"/"sin", QAWF on [0, inf)).
    """
    f = lambda w: z.bare_density(tsd.base, w) / (w - center) ** 2
    flat = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
    fourier = {weight: quad(f, 0.0, np.inf, weight=weight, wvar=tau,
                            epsabs=1e-14 * flat, limlst=400, limit=2000)[0]
               for weight in ("cos", "sin")}
    return (2.0 / tau) * (flat - math.cos(center * tau) * fourier["cos"]
                          - math.sin(center * tau) * fourier["sin"])


@pytest.mark.parametrize("tau", [300.0, 2000.0, 9000.0])
@pytest.mark.parametrize("fam,n,center", [(z.EXPONENTIAL, 2, -0.2),
                                          (z.POLYNOMIAL, 2, -0.2),
                                          (z.POLYNOMIAL, 3, -0.05)])
def test_zeno_rate_absorption_centre(fam, n, center, tau):
    tsd = z.form_factor_for_bandwidth(fam, W=1.0, n=n).thermal(math.inf)
    assert z.zeno_rate(tsd, center, tau) == pytest.approx(
        _zeno_reference_off_resonance(tsd, center, tau), rel=1e-10)


@pytest.mark.parametrize("n,tau", [(3, 0.5), (3, 7.3), (3, 40.0),
                                   (1, 1e-4), (1, 0.3)])
def test_zeno_rate_dephasing_centre(n, tau):
    # centre 0 at beta = inf: the window's peak sits on the density's
    # edge.  n = 1 checks the far tail: there kappa ~ 1/omega, and the
    # integrand along the ray decays only as 1/y^2.  Reference: quad lobe
    # by lobe between the zeros w = 2 pi k/tau up to w ~ 50 (at least 40
    # lobes), then the tail (2/tau) int kappa (1 - cos(w tau))/w^2 with a
    # Fourier (QAWF) rule for the cosine part
    tsd = z.FormFactor(z.POLYNOMIAL, cutoff=1.0, n=n).thermal(math.inf)
    f = lambda w: z.bare_density(tsd.base, w) * np.sinc(w * tau / TWO_PI) ** 2
    edges = np.arange(0.0, max(50.0, 40.5 * TWO_PI / tau), TWO_PI / tau)
    lobes = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    g = lambda w: z.bare_density(tsd.base, w) / w ** 2
    # w = E/u puts the smooth part of the tail on u in (0, 1]
    flat = quad(lambda u: g(edges[-1] / u) * edges[-1] / u ** 2, 0.0, 1.0,
                epsabs=0.0, epsrel=1e-13)[0]
    osc = quad(g, edges[-1], np.inf, weight="cos", wvar=tau, epsabs=1e-8 * flat,
               limlst=400)[0]
    want = tau * lobes + (2.0 / tau) * (flat - osc)
    assert z.zeno_rate(tsd, 0.0, tau) == pytest.approx(want, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(fam_n=st.sampled_from([(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 2),
                              (z.POLYNOMIAL, 3), (z.POLYNOMIAL, 4)]),
       beta=st.one_of(st.floats(0.5, 1000.0), st.just(math.inf)),
       omega0=st.floats(1e-3, 2.0))
def test_zeno_rate_small_tau_slope_property(fam_n, beta, omega0):
    # gamma_Z(tau)/tau -> int kappa_beta = tau_Z^{-2}: zeno_rate's ray
    # integral against zeno_time's folded real-axis integral
    fam, n = fam_n
    tsd = z.form_factor_for_bandwidth(fam, W=1.0, n=n).thermal(beta)
    tau = 1e-7
    tau_z = z.zeno_time(tsd)
    for center in (omega0, -omega0, 0.0):
        slope = z.zeno_rate(tsd, center, tau) / tau
        assert abs(slope * tau_z ** 2 - 1.0) <= 1e-12


def test_zeno_rate_limits(tsd_exp, tsd_poly):
    # small tau: gamma_Z/tau -> 1/tau_Z^2 within 2%
    tau = 1e-3
    slope = z.zeno_rate(tsd_exp, OMEGA, tau) / tau
    assert slope == pytest.approx(z.zeno_time(tsd_exp) ** -2, rel=0.02)
    # large tau: within 15% of the free rate at tau = 50/W... not yet; the
    # reference regime approaches 1 as ~C/tau, reaching ~1.31 at tau = 50
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    assert z.zeno_rate(tsd_exp, OMEGA, 1e4) == pytest.approx(gamma, rel=0.02)
    # Zeno-side enhancement for the polynomial family at tau = 3/W
    assert z.zeno_rate(tsd_poly, OMEGA, 3.0) > z.golden_rule_rate(tsd_poly, OMEGA)


def test_kick_rate_large_tau(tsd_exp):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    res = z.kick_rate(tsd_exp, OMEGA, 1e4)
    assert res.gamma == pytest.approx(gamma, rel=1e-3)
    assert res.truncation_error < 0.05 * gamma


@pytest.mark.parametrize("fam", [z.EXPONENTIAL, z.POLYNOMIAL])
def test_kick_rate_small_tau_envelopes(fam, tsd_exp, tsd_poly):
    tau = 0.05
    tsd = tsd_exp if fam == z.EXPONENTIAL else tsd_poly
    asym = z.summary_asymptotics(fam, 2, OMEGA, 1.0)
    assert z.kick_rate(tsd, OMEGA, tau).gamma == pytest.approx(
        asym.kick_envelope(tau), rel=0.02)


def test_kick_rate_integral_matches_series_ratio_curve(tsd_exp):
    # agreement of the two representations as ratio curves: the finite-N
    # kernel carries a non-secular O(1/N) background, so the comparison is
    # normalized by the free rate (the quantity the ratio plots show)
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    for tau in (0.3, 1.0, 3.0):
        series = z.kick_rate(tsd_exp, OMEGA, tau)
        integral = z.kick_rate_integral(tsd_exp, OMEGA, tau, 200)
        assert abs(integral - series.gamma) <= max(
            0.03 * gamma, 3.0 * series.truncation_error)


def test_kick_rate_integral_converges_in_n(tsd_exp):
    series = z.kick_rate(tsd_exp, OMEGA, 3.0).gamma
    gaps = [abs(z.kick_rate_integral(tsd_exp, OMEGA, 3.0, N) - series)
            for N in (2, 20, 200)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_kick_rate_integral_large_tau_consistency(tsd_exp):
    # both representations share the free-rate limit
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    val = z.kick_rate_integral(tsd_exp, OMEGA, 2e3, 200)
    assert val == pytest.approx(gamma, rel=0.05)


def test_kick_rate_integral_rejects_odd_n(tsd_exp):
    with pytest.raises(z.DomainError):
        z.kick_rate_integral(tsd_exp, OMEGA, 1.0, 3)


def test_floquet_identification(tsd_exp):
    # the j=0 comb term equals (8/pi^2) gamma_c evaluated at K = pi/tau
    for tau in (0.45, 0.7, 2.0):
        j0 = (2.0 / math.pi) * 4.0 * (
            z.thermal_density(tsd_exp, OMEGA + math.pi / tau)
            + z.thermal_density(tsd_exp, OMEGA - math.pi / tau))
        target = (8.0 / math.pi ** 2) * z.continuous_rate(tsd_exp, OMEGA,
                                                          math.pi / tau)
        assert j0 == pytest.approx(target, rel=1e-14)


def test_continuous_rate_examples(tsd_exp):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    assert z.continuous_rate(tsd_exp, OMEGA, 0.0) == pytest.approx(gamma, rel=1e-14)
    # large K: pi kappa(K)(1 + e^{-beta K}) -> pi kappa(K)
    K = 20.0
    assert z.continuous_rate(tsd_exp, OMEGA, K) == pytest.approx(
        math.pi * z.bare_density(tsd_exp.base, K), rel=0.02)
    # zero temperature, K > Omega: only the omega0 + K branch survives
    tsd0 = tsd_exp.base.thermal(math.inf)
    K = 1.0
    assert z.continuous_rate(tsd0, OMEGA, K) == pytest.approx(
        math.pi * z.bare_density(tsd0.base, OMEGA + K), rel=1e-14)


def test_dressed_rates(tsd_exp):
    # continuous coupling splits the decay of |up> into two dressed channels,
    # gamma_+/- = 2 pi kappa_beta(Omega -/+ K); their feeding partners at
    # -(Omega -/+ K) are the Boltzmann-suppressed KMS partners
    K = 0.7
    plus, minus = (z.golden_rule_rate(tsd_exp, OMEGA - K),
                   z.golden_rule_rate(tsd_exp, OMEGA + K))
    bar_plus, bar_minus = (z.golden_rule_rate(tsd_exp, -OMEGA + K),
                           z.golden_rule_rate(tsd_exp, -OMEGA - K))
    assert min(plus, minus, bar_plus, bar_minus) >= 0.0
    assert bar_plus == pytest.approx(math.exp(-BETA * (OMEGA - K)) * plus, rel=1e-12)
    assert bar_minus == pytest.approx(math.exp(-BETA * (OMEGA + K)) * minus,
                                      rel=1e-12)
    # the continuous rate is their mean, and the free rate at K = 0
    assert 0.5 * (plus + minus) == pytest.approx(
        z.continuous_rate(tsd_exp, OMEGA, K), rel=1e-14)
    assert z.continuous_rate(tsd_exp, OMEGA, 0.0) == pytest.approx(
        z.golden_rule_rate(tsd_exp, OMEGA), rel=1e-14)


def test_dephasing_rate():
    ff = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=0.5)
    assert z.dephasing_rate(ff.thermal(50.0)) == pytest.approx(TWO_PI / 50.0,
                                                               rel=1e-14)
    assert z.dephasing_rate(ff.thermal(math.inf)) == 0.0
    ff2 = z.FormFactor(z.POLYNOMIAL, g=0.5, cutoff=0.5)
    assert z.dephasing_rate(ff2.thermal(10.0)) == pytest.approx(
        TWO_PI * 0.25 / 10.0, rel=1e-14)


def test_summary_asymptotics_values():
    asym = z.summary_asymptotics(z.EXPONENTIAL, 2, OMEGA, 1.0)
    assert asym.zeno_slope == pytest.approx(0.25, rel=1e-14)   # g^2 Lambda^2
    tau = 0.05
    ff = z.form_factor_for_bandwidth(z.EXPONENTIAL, W=1.0)
    assert asym.kick_envelope(tau) == pytest.approx(
        (8.0 / math.pi) * z.bare_density(ff, math.pi / tau), rel=1e-14)
    assert asym.continuous_envelope(2.0) == pytest.approx(
        math.pi * z.bare_density(ff, 2.0), rel=1e-14)
    asym_p = z.summary_asymptotics(z.POLYNOMIAL, 2, OMEGA, 1.0)
    lam_p = 2.0 / math.pi
    assert asym_p.zeno_slope == pytest.approx(lam_p ** 2 / 2.0, rel=1e-12)


def test_limit_recovery_invariant(tsd_exp, tsd_poly):
    for tsd in (tsd_exp, tsd_poly):
        gamma = z.golden_rule_rate(tsd, OMEGA)
        assert abs(z.zeno_rate(tsd, OMEGA, 1e4) / gamma - 1.0) <= 0.02
        assert abs(z.kick_rate(tsd, OMEGA, 1e4).gamma / gamma - 1.0) <= 0.02
        assert abs(z.continuous_rate(tsd, OMEGA, 1e-4) / gamma - 1.0) <= 0.02


def test_rates_nonnegative(tsd_exp, tsd_poly):
    for tsd in (tsd_exp, tsd_poly):
        for tau in np.logspace(-3, 3, 13):
            assert z.zeno_rate(tsd, OMEGA, tau) >= 0.0
            assert z.kick_rate(tsd, OMEGA, tau).gamma >= 0.0
        for K in np.logspace(-3, 3, 13):
            assert z.continuous_rate(tsd, OMEGA, K) >= 0.0


def test_zeno_ratio_crossing_exists(tsd_exp):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    taus = np.logspace(-3, 2, 60)
    signs = np.sign([z.zeno_rate(tsd_exp, OMEGA, t) / gamma - 1.0 for t in taus])
    assert np.any(signs[:-1] != signs[1:])


def test_controlled_rate_dispatch(tsd_exp):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    free = z.strategy_rate(tsd_exp, OMEGA, z.Free())
    assert free.gamma == gamma and free.truncation_error == 0.0
    res = z.strategy_rate(tsd_exp, OMEGA, z.BangBangKick(1.0))
    assert res.gamma == z.kick_rate(tsd_exp, OMEGA, 1.0).gamma
    assert res.truncation_error >= 0.0
    res = z.strategy_rate(tsd_exp, OMEGA, z.ContinuousCoupling(0.5))
    assert res.gamma == pytest.approx(z.continuous_rate(tsd_exp, OMEGA, 0.5))
    with pytest.raises(z.DomainError):
        z.ZenoMeasurement(0.0)
    with pytest.raises(z.DomainError):
        z.ContinuousCoupling(-1.0)
    with pytest.raises(z.DomainError):
        z.strategy_rate(tsd_exp, OMEGA, 0.5)
    with pytest.raises(z.DomainError):
        z.build_qubit_generator(tsd_exp, None, -1.0)
    # a NaN coupling or frequency is rejected wherever it enters
    with pytest.raises(z.DomainError):
        z.ContinuousCoupling(math.nan)
    with pytest.raises(z.DomainError):
        z.continuous_rate(tsd_exp, OMEGA, math.nan)
    with pytest.raises(z.DomainError):
        z.golden_rule_rate(tsd_exp, math.nan)
    with pytest.raises(z.DomainError):
        z.SingleExcitationModel.with_ancilla(z.build_bath(tsd_exp.base, 6.0, 10),
                                             OMEGA, math.nan)
    # an infinite period or coupling is rejected too, alone or in an array
    inf_cases = [
        lambda: z.ZenoMeasurement(math.inf),
        lambda: z.BangBangKick(math.inf),
        lambda: z.ContinuousCoupling(math.inf),
        lambda: z.zeno_rate(tsd_exp, OMEGA, math.inf),
        lambda: z.zeno_rate(tsd_exp, OMEGA, np.array([1.0, math.inf])),
        lambda: z.kick_rate(tsd_exp, OMEGA, math.inf),
        lambda: z.kick_rate(tsd_exp, OMEGA, np.array([math.inf, 1.0])),
        lambda: z.kick_rate_integral(tsd_exp, OMEGA, math.inf, 2),
        lambda: z.continuous_rate(tsd_exp, OMEGA, math.inf),
        lambda: z.continuous_rate(tsd_exp, OMEGA, np.array([0.5, -math.inf])),
        lambda: z.SingleExcitationModel.with_ancilla(
            z.build_bath(tsd_exp.base, 6.0, 10), OMEGA, math.inf),
    ]
    for case in inf_cases:
        with pytest.raises(z.DomainError):
            case()


@settings(max_examples=25, deadline=None)
@given(fam=st.sampled_from([z.EXPONENTIAL, z.POLYNOMIAL]),
       beta=st.one_of(st.floats(0.5, 200.0), st.just(math.inf)),
       omega0=st.floats(1e-3, 2.0),
       param=st.floats(1e-2, 1e2))
def test_strategy_rates_nonnegative_and_kms_property(fam, beta, omega0, param):
    # every strategy, at the emission, absorption and dephasing centres
    tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(beta)
    strategies = (z.Free(), z.ZenoMeasurement(param), z.BangBangKick(param),
                  z.ContinuousCoupling(param))
    for strategy in strategies:
        for center in (omega0, -omega0, 0.0):
            rate = z.strategy_rate(tsd, center, strategy)
            assert rate.gamma >= 0.0 and math.isfinite(rate.gamma)
            assert rate.truncation_error >= 0.0
    # the free pair is Boltzmann-related (KMS); zero absorption at beta = inf
    down = z.strategy_rate(tsd, omega0, z.Free()).gamma
    up = z.strategy_rate(tsd, -omega0, z.Free()).gamma
    assert abs(up - math.exp(-beta * omega0) * down) <= 1e-12 * down


@pytest.mark.parametrize("beta", [BETA, math.inf])
@pytest.mark.parametrize("param", [0.7, np.array([0.3, 2.0])])
def test_strategy_rates_at_non_finite_centres(beta, param):
    # a NaN centre is rejected by every strategy; at an infinite centre
    # kappa_beta vanishes and so does every rate
    tsd = z.form_factor_for_bandwidth(z.EXPONENTIAL, W=1.0).thermal(beta)
    strategies = (z.Free(), z.ZenoMeasurement(param), z.BangBangKick(param),
                  z.ContinuousCoupling(param))
    for strategy in strategies:
        with pytest.raises(z.DomainError):
            z.strategy_rate(tsd, math.nan, strategy)
        for center in (math.inf, -math.inf):
            rate = z.strategy_rate(tsd, center, strategy)
            assert np.all(np.asarray(rate.gamma) == 0.0)
            assert np.shape(rate.gamma) == (() if isinstance(strategy, z.Free)
                                            else np.shape(param))
