import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import zenolab as z
from zenolab import numerics, rates, spectral

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
# draws that once missed the bound: the first two by 2.9e-12 and 1.3e-12
# at a Zeno rel_tol of 1e-10 with Gauss-Legendre 8/16, the last two by
# 1.2e-12 at that rel_tol with Gauss-Kronrod 7/15
@example(fam_n=(z.POLYNOMIAL, 3), beta=935.0, omega0=1.0)
@example(fam_n=(z.EXPONENTIAL, 2), beta=316.5, omega0=1.0)
@example(fam_n=(z.POLYNOMIAL, 4), beta=824.0898067460943,
         omega0=1.3616919648148547)
@example(fam_n=(z.POLYNOMIAL, 4), beta=825.5750694868591,
         omega0=0.3298500256817285)
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


_EXACT_GRID = np.logspace(-4.0, 4.0, 40)


def _zeno_rate_per_period(tsd, omega0, taus):
    """zeno_rate with every period its own call: one pass over the
    period's own chain of cells, shared with no other period."""
    return np.array([z.zeno_rate(tsd, omega0, float(t)) for t in taus])


@pytest.mark.parametrize("beta", [BETA, math.inf])
@pytest.mark.parametrize("fam", [z.EXPONENTIAL, z.POLYNOMIAL])
def test_zeno_rate_equals_per_period_integrand(fam, beta):
    # one cumulative pass over the cells of all periods gives each period
    # what its lone pass gives, up to the rounding of differently cut
    # cells (worst seen 1.8e-13, poly at beta = inf and centre -0.01,
    # where F1 cancels in the absorption wing)
    tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(beta)
    for center in (OMEGA, -OMEGA, 0.0):
        batched = z.zeno_rate(tsd, center, _EXACT_GRID)
        alone = _zeno_rate_per_period(tsd, center, _EXACT_GRID)
        assert np.all(np.abs(batched - alone) <= 1e-12 * np.abs(alone))


def test_correlation_once_per_node_for_both_integrals(tsd_poly, monkeypatch):
    # F1 and F2 share one complex integrand, so every integrand node costs
    # one correlation value, whatever the cells and passes; besides, each
    # cell's size takes C at its middle and end
    nodes, cells, lags = [], [], []
    real_engine, real_corr = rates._segmented_integrals, rates.correlation

    def counting_engine(f, a, *args, **kwargs):
        cells.append(a.size)

        def counted(x, owner):
            nodes.append(x.size)
            return f(x, owner)
        return real_engine(counted, a, *args, **kwargs)

    def counting_corr(tsd, s):
        lags.append(s.size)
        return real_corr(tsd, s)

    monkeypatch.setattr(rates, "_segmented_integrals", counting_engine)
    monkeypatch.setattr(rates, "correlation", counting_corr)
    for center in (OMEGA, -OMEGA, 0.0):
        z.zeno_rate(tsd_poly, center, np.logspace(-4.0, 4.0, 300))
        z.zeno_rate(tsd_poly, center, 13.0)
    assert nodes and sum(lags) == sum(nodes) + 2 * sum(cells)


def test_trigamma_switch_is_continuous():
    # at |z| = 16 the kernel switches from the recurrence (Re z >= 1/2) or
    # the reflection (Re z < 1/2) to the bare series; its values on either
    # side agree within 1e-14, for Re z = 1/(Lambda beta) from 1e-3
    # (beta Lambda = 1000) up, and where it recurs, the recurrence onto
    # the series at z + 16 is the series at z
    x = np.logspace(-3.0, math.log10(15.9), 60)
    y = np.sqrt(256.0 - x * x)
    z16 = np.concatenate([x + 1j * y, x - 1j * y])
    # |z16| rounds to either side of 16, so each point is nudged across:
    # the series side to |z| >= 16, the other side to |z| < 16
    above, under = z16 * (1.0 + 1e-15), z16 * (1.0 - 1e-15)
    assert np.all(np.abs(above) >= 16.0) and np.all(np.abs(under) < 16.0)
    series = numerics._trigamma_pair(above)
    below = numerics._trigamma_pair(under)
    assert np.all(np.abs(below - series) <= 1e-14 * np.abs(series))
    high = above.real >= 0.5
    recurred = sum(1.0 / (above + j) ** 2 + 1.0 / (above.conj() + 1 + j) ** 2
                   for j in range(16)) + numerics._trigamma_pair(above + 16.0)
    assert np.all(np.abs(series - recurred)[high] <= 1e-14 * np.abs(series)[high])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_divided_difference_branches_meet(n):
    # where the branches switch, at nu^2 = 0.3 Lambda^2 and 2.2 Lambda^2,
    # the direct formula and the Hermite-Genocchi quadrature agree
    lam = 2.0 / math.pi
    a = lam * lam
    s = np.array([0.0, 1e-3, 0.3, 2.0, 5.0, 17.0, 40.0])
    d = spectral._psi_taylor(a, s, n - 1)
    for b in (0.3 * a, 2.2 * a):
        direct = spectral._dd_direct(s, a, np.array([math.sqrt(b)]), d)
        genocchi = spectral._dd_genocchi(s, a, np.array([b]), n)
        assert np.all(np.abs(direct - genocchi) <= 1e-14 * np.abs(genocchi))


def _zeno_reference_long(tsd, omega0, tau):
    """gamma_Z = (2/tau) int kappa_beta(omega0 + u) (1 - cos(u tau))/u^2 du
    by QUADPACK: lobe by lobe over |u| < 2, then the tails as a smooth
    integral minus a Fourier (QAWF) one."""
    kb = lambda w: z.thermal_density(tsd, w)
    core = lambda u: kb(omega0 + u) * 2.0 * np.sin(0.5 * u * tau) ** 2 / u ** 2
    edges = np.arange(-2.0, 2.0 + 1e-9, TWO_PI / tau)
    total = sum(quad(core, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    for sign, start in ((1.0, edges[-1]), (-1.0, -edges[0])):
        f = lambda u: kb(omega0 + sign * u) / u ** 2
        flat = quad(f, start, np.inf, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
        osc = quad(f, start, np.inf, weight="cos", wvar=tau, epsabs=1e-15,
                   limlst=400, limit=2000)[0]
        total += flat - osc
    return total / tau


def _hazard(case):
    n, beta = case
    if n == 2 and abs(beta - 5.0 * math.pi ** 2) < 1.0:
        # beta Lambda / 2 pi = 5 (1 +- 1e-9): a Matsubara pole 1e-9 from -i Lambda
        return z.FormFactor(z.POLYNOMIAL, cutoff=2.0 / math.pi, n=2).thermal(beta)
    return z.form_factor_for_bandwidth(z.POLYNOMIAL, W=1.0, n=n).thermal(beta)


_HAZARDS = [(2, 5.0 * math.pi ** 2 * (1.0 - 1e-9)), (2, 5.0 * math.pi ** 2 * (1.0 + 1e-9)),
            (4, 1e3), (2, 1e-3)]


@pytest.mark.parametrize("case", _HAZARDS)
def test_zeno_time_poly_hazards(case):
    tsd = _hazard(case)
    lam = tsd.base.cutoff
    kb = lambda w: z.thermal_density(tsd, w)
    pieces = [-np.inf, -10.0 * lam, -lam, 0.0, lam, 10.0 * lam, np.inf]
    total = sum(quad(kb, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                for a, b in zip(pieces[:-1], pieces[1:]))
    assert z.zeno_time(tsd) == pytest.approx(total ** -0.5, rel=1e-12)


@pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("case", _HAZARDS)
def test_zeno_rate_poly_hazards(case, tau):
    tsd = _hazard(case)
    want = (_zeno_reference(tsd, OMEGA, tau) if tau < 10.0
            else 2.0 * _zeno_reference_long(tsd, OMEGA, tau))
    assert z.zeno_rate(tsd, OMEGA, tau) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [2, 4])
def test_zeno_time_low_temperature(n):
    # at beta = 1e6, 1/tau_Z^2 is the beta = inf value g^2 Lambda^2/(2(n-1))
    # plus the Bose correction 2 int J/(e^{beta omega} - 1) = g^2 pi^2/(3 beta^2),
    # whose next term is 1e-24 of it; a quadrature that misses the
    # correction is off by 1.6e-11 (n = 2)
    beta = 1e6
    ff = z.form_factor_for_bandwidth(z.POLYNOMIAL, W=1.0, g=0.7, n=n)
    want = ff.g ** 2 * (ff.cutoff ** 2 / (2.0 * (n - 1)) + math.pi ** 2 / (3.0 * beta ** 2))
    assert z.zeno_time(ff.thermal(beta)) ** -2 == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [2, 4])
def test_zeno_rate_low_temperature_cost(n, monkeypatch):
    # at beta = 1e6 no Matsubara sum is built (it would take 1.5 Lambda
    # beta/(2 pi), 1.5e5 to 4e5 terms per lag), the Bose series keeps at
    # most 11 terms, and a scan takes the nodes it takes at beta = inf;
    # the values match QUADPACK
    from zenolab import crossover
    ff = z.form_factor_for_bandwidth(z.POLYNOMIAL, W=1.0, n=n)
    hot, cold = ff.thermal(1e6), ff.thermal(math.inf)
    counts, nodes = [], []
    real_sums, real_engine = spectral._bose_sums, rates._segmented_integrals

    def no_matsubara(*args):
        raise AssertionError("a Matsubara sum at beta = 1e6")

    def recording_sums(sigma, count):
        counts.append(count)
        return real_sums(sigma, count)

    def counting_engine(f, *args, **kwargs):
        def counted(x, owner):
            nodes[-1] += x.size
            return f(x, owner)
        return real_engine(counted, *args, **kwargs)

    monkeypatch.setattr(spectral, "_matsubara_tail", no_matsubara)
    monkeypatch.setattr(spectral, "_bose_sums", recording_sums)
    monkeypatch.setattr(rates, "_segmented_integrals", counting_engine)
    for tsd in (hot, cold):
        nodes.append(0)
        z.zeno_rate(tsd, OMEGA, crossover._SCAN_GRID)
    assert counts and max(counts) <= 11
    assert nodes[0] <= 1.05 * nodes[1]
    for tau in (1e-3, 1.0, 1e3):
        want = (_zeno_reference(hot, OMEGA, tau) if tau < 10.0
                else 2.0 * _zeno_reference_long(hot, OMEGA, tau))
        assert z.zeno_rate(hot, OMEGA, tau) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
def test_low_temperature_forms_match_matsubara_sum(n, monkeypatch):
    # just above the threshold and well above it, the zero-temperature form
    # plus the Bose correction (s < beta) and the far-lag Matsubara terms
    # (s >= beta) give the Matsubara sum's C within 1e-12 of |C(s)| and
    # 1e-15 of max |C| (worst seen 1e-13 where C_inf and the correction
    # cancel near s = beta/2); n = 5 and 6 take the threshold one 9/8
    # step up, from 32 pi to 36 pi
    lam = 0.7
    for bl in (1.01 * spectral._low_temperature_threshold(n), 250.0):
        tsd = z.FormFactor(z.POLYNOMIAL, cutoff=lam, n=n).thermal(bl / lam)
        s = np.concatenate([np.geomspace(1e-6, 8.0 * tsd.beta, 300),
                            tsd.beta * np.array([1.0 - 1e-12, 1.0])])
        if n > 1:
            s = np.append(s, 0.0)
        low = spectral.correlation(tsd, s)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_low_temperature_threshold", lambda n: math.inf)
            matsubara = spectral.correlation(tsd, s)
        scale = np.max(np.abs(matsubara))
        assert np.all(np.abs(low - matsubara)
                      <= 1e-12 * np.abs(matsubara) + 1e-15 * scale)


def test_low_temperature_threshold_bounds_the_matsubara_sum():
    # below the threshold the Matsubara sum takes at most 44 explicit terms
    # (n <= 4), so the polynomial C costs no more than that at any beta
    for n in (1, 2, 3, 4):
        bl = spectral._low_temperature_threshold(n)
        assert math.ceil(1.5 * bl / TWO_PI) + spectral._TAIL_GAP <= 44
        assert spectral._series_length(n, bl) <= 11


def test_kick_rate_large_tau(tsd_exp):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    res = z.kick_rate(tsd_exp, OMEGA, 1e4)
    assert res.gamma == pytest.approx(gamma, rel=1e-3)
    assert res.truncation_error < 0.05 * gamma


def _long_comb_sum(tsd, center, tau):
    """The kick comb series summed term by term, smallest terms first.

    max(2000, 10 tau) terms put the last comb line beyond ~60 W, where
    the neglected terms are far below the kernel's own tail bound.
    """
    j = np.arange(max(2000, math.ceil(10.0 * tau)), dtype=float)
    h = (2.0 * j + 1.0) * math.pi / tau
    terms = (j + 0.5) ** -2.0 * (z.thermal_density(tsd, center + h)
                                 + z.thermal_density(tsd, center - h))
    return (2.0 / math.pi) * float(np.sum(terms[::-1]))


@pytest.mark.parametrize("fam", [z.EXPONENTIAL, z.POLYNOMIAL])
@pytest.mark.parametrize("beta", [2.0, 50.0, math.inf])
def test_kick_truncation_bound_is_honest(fam, beta):
    # the tail estimate's true error stays inside truncation_error at the
    # emission, absorption and dephasing centres, from the suppressed side
    # to the free limit
    tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(beta)
    taus = np.logspace(math.log10(5e-2), 4.0, 25)
    for center in (OMEGA, -OMEGA, 0.0):
        res = z.kick_rate(tsd, center, taus)
        exact = np.array([_long_comb_sum(tsd, center, t) for t in taus])
        assert np.all(np.abs(res.gamma - exact)
                      <= res.truncation_error + 1e-12 * exact)


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


def test_kick_rate_integral_at_large_n(tsd_exp):
    # sin^2(N x) puts N/2 periods in each of the 102 cells; at N = 30000
    # and tau = 10 the engine bisects to more than 2^15 pending segments
    # within its 16 passes and converges, with no cap on the segment
    # count; the finite-N rate is near the series
    rate = z.kick_rate_integral(tsd_exp, OMEGA, 10.0, 30_000)
    assert rate == pytest.approx(z.kick_rate(tsd_exp, OMEGA, 10.0).gamma, rel=1e-3)


def test_kick_rate_integral_beyond_served_n_raises(tsd_exp):
    # past the served cycle count the 16 passes run out: a loud error,
    # never an unconverged rate
    with pytest.raises(z.NoConvergence):
        z.kick_rate_integral(tsd_exp, OMEGA, 1.0, 50_000)


def test_kick_rate_integral_large_tau_consistency(tsd_exp):
    # both representations share the free-rate limit
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    val = z.kick_rate_integral(tsd_exp, OMEGA, 2e3, 200)
    assert val == pytest.approx(gamma, rel=0.05)


def test_kick_rate_integral_rejects_odd_n(tsd_exp):
    with pytest.raises(z.DomainError):
        z.kick_rate_integral(tsd_exp, OMEGA, 1.0, 3)
    # the oracle's cycle rule, whose OddN is a DomainError
    assert issubclass(z.OddN, z.DomainError)
    for n_cycles in (3, 0, -2):
        with pytest.raises(z.OddN, match="even number of cycles >= 2"):
            z.kick_rate_integral(tsd_exp, OMEGA, 1.0, n_cycles)


def test_kick_rate_integral_takes_an_integer_count(tsd_exp):
    # 4.0 once gave a rate here where effective_rate raised DomainError,
    # and '4' a bare TypeError
    for n_cycles in (4.0, "4", 4.5, None):
        with pytest.raises(z.DomainError, match="cycle count must be an integer"):
            z.kick_rate_integral(tsd_exp, OMEGA, 1.0, n_cycles)
    assert z.kick_rate_integral(tsd_exp, OMEGA, 1.0, np.int64(4)) == \
        z.kick_rate_integral(tsd_exp, OMEGA, 1.0, 4)


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
    # pure dephasing is the golden rule at centre 0: 2 pi g^2/beta
    ff = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=0.5)
    assert z.golden_rule_rate(ff.thermal(50.0), 0.0) == pytest.approx(
        TWO_PI / 50.0, rel=1e-14)
    assert z.golden_rule_rate(ff.thermal(math.inf), 0.0) == 0.0
    ff2 = z.FormFactor(z.POLYNOMIAL, g=0.5, cutoff=0.5)
    assert z.golden_rule_rate(ff2.thermal(10.0), 0.0) == pytest.approx(
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
    # the bandwidth anchoring W fails the way form_factor_for_bandwidth does
    with pytest.raises(z.DivergentMoment):
        z.summary_asymptotics(z.POLYNOMIAL, 1, OMEGA, 1.0)
    with pytest.raises(z.DomainError):
        z.summary_asymptotics("gauss", 2, OMEGA, 1.0)


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
    # strategy_rate is the kernel's rate itself, bit for bit
    assert z.strategy_rate(tsd_exp, OMEGA, z.Free()) == z.golden_rule_rate(
        tsd_exp, OMEGA)
    assert z.strategy_rate(tsd_exp, OMEGA, z.ZenoMeasurement(1.0)) == z.zeno_rate(
        tsd_exp, OMEGA, 1.0)
    assert z.strategy_rate(tsd_exp, OMEGA, z.BangBangKick(1.0)) == z.kick_rate(
        tsd_exp, OMEGA, 1.0).gamma
    assert z.kick_rate(tsd_exp, OMEGA, 1.0).truncation_error >= 0.0
    assert z.strategy_rate(tsd_exp, OMEGA, z.ContinuousCoupling(0.5)) == \
        z.continuous_rate(tsd_exp, OMEGA, 0.5)
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
        z.SingleExcitationModel.qubit(z.build_bath(tsd_exp.base, 6.0, 10),
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
        lambda: z.SingleExcitationModel.qubit(
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
            assert rate >= 0.0 and math.isfinite(rate)
    for center in (omega0, -omega0, 0.0):
        assert z.kick_rate(tsd, center, param).truncation_error >= 0.0
    # the free pair is Boltzmann-related (KMS); zero absorption at beta = inf
    down = z.strategy_rate(tsd, omega0, z.Free())
    up = z.strategy_rate(tsd, -omega0, z.Free())
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
            assert np.all(np.asarray(rate) == 0.0)
            assert np.shape(rate) == (() if isinstance(strategy, z.Free)
                                            else np.shape(param))
