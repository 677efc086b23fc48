import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import zenolab as z
from zenolab import cli
from zenolab import crossover as xo
from zenolab import rates
from zenolab.crossover import _brent

OMEGA = 0.01
BETA = 50.0


def test_zeno_root_near_linear_estimate(reports_exp, reports_poly):
    for rep in (reports_exp[0], reports_poly[0]):
        factor = rep.star_value / rep.closed_form_estimate
        assert 1.0 / 1.3 < factor < 1.3


def test_kick_root_vs_lambert_estimate(reports_exp):
    assert reports_exp[1].relative_gap < 0.15


def test_kick_root_vs_power_law_estimate(reports_poly):
    # measured gap ~0.17 in this regime: the omega^{-(2n-1)} asymptote
    # overshoots the exact density at pi/tau* ~ 2 Lambda
    assert reports_poly[1].relative_gap < 0.20


def test_k_star_vs_estimates(reports_exp, reports_poly):
    assert reports_exp[2].relative_gap < 0.15
    assert reports_poly[2].relative_gap < 0.20


def test_kick_root_exceeds_zeno_root(reports_exp, reports_poly):
    for zrep, krep, _ in (reports_exp, reports_poly):
        assert krep.star_value > zrep.star_value


def test_root_residuals(tsd_exp, reports_exp):
    zrep, krep, crep = reports_exp
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    assert abs(z.zeno_rate(tsd_exp, OMEGA, zrep.star_value) / gamma - 1.0) <= 1e-6
    assert abs(z.kick_rate(tsd_exp, OMEGA, krep.star_value).gamma / gamma - 1.0) <= 1e-6
    assert abs(z.continuous_rate(tsd_exp, OMEGA, crep.star_value) / gamma - 1.0) <= 1e-6


def test_crossing_classification(tsd_exp, reports_exp):
    zrep, krep, crep = reports_exp
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    # suppression below tau*, enhancement above (mirrored in K)
    assert z.zeno_rate(tsd_exp, OMEGA, 0.5 * zrep.star_value) < gamma
    assert z.zeno_rate(tsd_exp, OMEGA, 1.5 * zrep.star_value) > gamma
    assert z.kick_rate(tsd_exp, OMEGA, 0.5 * krep.star_value).gamma < gamma
    assert z.kick_rate(tsd_exp, OMEGA, 1.2 * krep.star_value).gamma > gamma
    assert z.continuous_rate(tsd_exp, OMEGA, 1.5 * crep.star_value) < gamma
    assert z.continuous_rate(tsd_exp, OMEGA, 0.7 * crep.star_value) > gamma


def test_coupling_invariance(tsd_exp, reports_exp):
    # gamma^Z/gamma is independent of g, so tau* is too
    scaled = z.FormFactor(z.EXPONENTIAL, g=3.0,
                          cutoff=tsd_exp.base.cutoff).thermal(BETA)
    rep = z.find_tau_star_zeno(scaled, OMEGA)
    assert rep.star_value == pytest.approx(reports_exp[0].star_value, rel=1e-9)


def test_scale_covariance(tsd_exp, reports_exp):
    c = 3.0
    scaled = z.FormFactor(z.EXPONENTIAL, g=1.0,
                          cutoff=c * tsd_exp.base.cutoff).thermal(BETA / c)
    rep_z = z.find_tau_star_zeno(scaled, c * OMEGA)
    assert rep_z.star_value == pytest.approx(reports_exp[0].star_value / c,
                                             rel=1e-8)
    rep_k = z.find_K_star(scaled, c * OMEGA)
    assert rep_k.star_value == pytest.approx(c * reports_exp[2].star_value,
                                             rel=1e-8)


def test_zero_temperature_zeno_root(tsd_exp_zero_t):
    # inverse-Zeno region exists at zero temperature for Omega well below
    # the density peak (at Omega = 0.2 W the ratio stays below 1: no root)
    rep = z.find_tau_star_zeno(tsd_exp_zero_t, 0.05)
    assert 0.0 < rep.star_value < 10.0
    with pytest.raises(z.NoCrossing):
        z.find_tau_star_zeno(tsd_exp_zero_t, 0.2)


def test_k_zero_endpoint_excluded(tsd_exp, reports_exp):
    crep = reports_exp[2]
    assert crep.star_value > 0.0
    assert all(k > 0.0 for k in crep.all_crossings)


def test_default_call_reports_every_crossing(tsd_exp_zero_t):
    # the kick ratio crosses 1 twice at exp, beta = inf, Omega = 0.05:
    # tau*_k ~ 2.78 and again near 3.7e3
    kick = z.find_tau_star_kick(tsd_exp_zero_t, 0.05).all_crossings
    assert len(kick) == 2
    assert kick[0] == pytest.approx(2.78, rel=1e-2)
    assert kick[1] == pytest.approx(3667.0, rel=1e-2)
    # and the continuous ratio twice at Omega = 0.01: K ~ 0.0104 and 2.39
    rep = z.find_K_star(tsd_exp_zero_t, 0.01)
    assert len(rep.all_crossings) == 2
    assert rep.all_crossings[0] == pytest.approx(0.0104, rel=1e-2)
    assert rep.all_crossings[1] == pytest.approx(2.39, rel=1e-2)
    # the root is the largest K, the first crossing from the strong side
    assert rep.star_value == rep.all_crossings[-1]


def test_reports_carry_brackets_and_crossings(reports_exp):
    for rep in reports_exp:
        lo, hi = rep.bracket
        assert lo < rep.star_value < hi or math.isclose(lo, rep.star_value)
        assert rep.star_value in rep.all_crossings or rep.all_crossings


def _full_precision_report(find):
    """The report of ``find()``, or the NoCrossing class it raises."""
    try:
        return find()
    except z.NoCrossing as exc:
        return type(exc)


def _whole_grid_zeno_report(tsd, omega0):
    # _crossover on the whole grid through the full-precision kernel
    return _full_precision_report(lambda: xo._crossover(
        tsd, omega0, z.ZenoMeasurement, xo._SCAN_GRID,
        lambda gamma: gamma * z.zeno_time(tsd) ** 2))


# exp, beta = 50/3, Omega = 0.03: the ratio hugs 1 over two decades of tau
HUGGING = (z.EXPONENTIAL, 2, 50.0 / 3.0, 0.03)


@pytest.mark.parametrize("fam, n, beta, omega0, crossings", [
    (z.EXPONENTIAL, 2, 50.0 / 3.0, 0.03, 4),   # 3.54, 17.4, 96.4, 159
    (z.POLYNOMIAL, 4, math.inf, 0.005, 1),     # 1.0005 gamma tau_Z^2
    (z.EXPONENTIAL, 2, math.inf, 0.2, 0),      # NoCrossing
    (z.EXPONENTIAL, 2, 35.0, 0.007, 1),        # crossover_scan's corners
    (z.EXPONENTIAL, 3, 70.0, 0.014, 1),
])
def test_zeno_scan_from_floor_equals_whole_grid(fam, n, beta, omega0, crossings):
    # the scan from the floor against the whole grid
    tsd = z.form_factor_for_bandwidth(fam, W=1.0, n=n).thermal(beta)
    pruned = _full_precision_report(lambda: xo.find_tau_star_zeno(tsd, omega0))
    assert pruned == _whole_grid_zeno_report(tsd, omega0)
    if crossings:
        assert len(pruned.all_crossings) == crossings
    else:
        assert pruned is z.NoCrossing


def test_zeno_scan_starts_below_floor(monkeypatch, tsd_exp):
    # one array call, from the last grid point below gamma tau_Z^2 to the
    # end of the grid; scalar refinement calls only inside it
    scans, refines = [], []
    real = rates.zeno_rate

    def recording(tsd, omega0, tau):
        if np.ndim(tau):
            scans.append(np.array(tau))
        else:
            refines.append(tau)
        return real(tsd, omega0, tau)

    monkeypatch.setattr(rates, "zeno_rate", recording)
    rep = xo.find_tau_star_zeno(tsd_exp, OMEGA)
    floor = z.golden_rule_rate(tsd_exp, OMEGA) * z.zeno_time(tsd_exp) ** 2
    assert len(scans) == 1
    scan = scans[0]
    assert scan[0] < floor <= scan[1]
    assert scan[-1] == xo._SCAN_GRID[-1]
    assert min(refines) >= scan[0]
    # the report counts the scanned and refinement points
    assert rep.n_scanned == scan.size < xo._SCAN_GRID.size
    assert rep.n_refine == len(refines) > 0


# the grid scans of crossover_scan's corners took 25,170 and 26,145
# integrand nodes when this guard was written (the ray kernel's coarse
# scan took about 630,000)
@pytest.mark.parametrize("beta, omega0", [(35.0, 0.007), (70.0, 0.014)])
def test_zeno_scan_node_count(monkeypatch, beta, omega0):
    # a deterministic cost guard: the integrand nodes of the grid scan
    tsd = z.form_factor_for_bandwidth(z.EXPONENTIAL, W=1.0).thermal(beta)
    nodes = {"scan": 0, "refine": 0}
    phase = ["refine"]
    real_engine, real_rate = rates._segmented_integrals, rates.zeno_rate

    def counting_engine(f, *args, **kwargs):
        def counted(x, owner):
            nodes[phase[0]] += x.size
            return f(x, owner)
        return real_engine(counted, *args, **kwargs)

    def rate(tsd, omega0, tau):
        phase[0] = "scan" if np.ndim(tau) else "refine"
        return real_rate(tsd, omega0, tau)

    monkeypatch.setattr(rates, "_segmented_integrals", counting_engine)
    monkeypatch.setattr(rates, "zeno_rate", rate)
    xo.find_tau_star_zeno(tsd, omega0)
    assert 0 < nodes["scan"] <= 120_000
    assert nodes["refine"] > 0


@pytest.mark.parametrize("fam, beta, omega0", [
    (z.EXPONENTIAL, 51.97, 0.0133), (z.POLYNOMIAL, 1e3, 0.01)])
def test_kick_scan_density_call_count(monkeypatch, fam, beta, omega0):
    # a deterministic cost guard: the comb makes one density call per block
    # of rates._KICK_BLOCK periods, so the 3201-point scan makes at most
    # ceil(3201/64) = 51 (4 per 32-period block, 404, before), and each
    # Brent evaluation one
    tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(beta)
    calls = {"free": 0, "scan": 0, "refine": 0}
    phase = ["free"]
    real_density, real_comb = rates.thermal_density, rates._kick_comb

    def density(tsd, omega):
        calls[phase[0]] += 1
        return real_density(tsd, omega)

    def comb(tsd, omega0, tau):
        phase[0] = "scan" if np.ndim(tau) else "refine"
        return real_comb(tsd, omega0, tau)

    monkeypatch.setattr(rates, "thermal_density", density)
    monkeypatch.setattr(rates, "_kick_comb", comb)
    rep = xo.find_tau_star_kick(tsd, omega0)
    assert calls["free"] == 1
    assert 0 < calls["scan"] <= math.ceil(xo._SCAN_GRID.size / 64)
    assert calls["refine"] == rep.n_refine > 0


@pytest.mark.parametrize("fam, beta, omega0", [
    (z.EXPONENTIAL, 50.0, OMEGA), (z.POLYNOMIAL, math.inf, -0.2)])
def test_kick_comb_scan_equals_its_scalar_calls(fam, beta, omega0):
    # every value of the blocked scan is the lone-period comb bit for bit
    tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(beta)
    scan = rates._kick_comb(tsd, omega0, xo._SCAN_GRID)
    lone = [rates._kick_comb(tsd, omega0, float(tau)) for tau in xo._SCAN_GRID]
    assert np.array_equal(scan, np.array(lone))


def test_kick_scan_skips_truncation_bound(monkeypatch, tmp_path, tsd_exp):
    # the finder, strategy_rate, the qubit generator and the CLI sweep read
    # only gamma, so none probes the tail supremum, and every comb value
    # they use is kick_rate's gamma bit for bit
    calls = []
    real = rates._kick_comb

    def recording(tsd, omega0, tau):
        out = real(tsd, omega0, tau)
        calls.append((tsd, omega0, tau, out))
        return out

    def forbidden(*args):
        raise AssertionError("the truncation bound was computed")

    real_tail = rates._tail_supremum
    monkeypatch.setattr(rates, "_tail_supremum", forbidden)
    monkeypatch.setattr(rates, "_kick_comb", recording)
    rep = xo.find_tau_star_kick(tsd_exp, OMEGA)
    scans = [tau for _, _, tau, _ in calls if np.ndim(tau)]
    assert len(scans) == 1 and np.array_equal(scans[0], xo._SCAN_GRID)
    assert len(calls) == 1 + rep.n_refine
    taus = np.array([0.3, 2.0, 40.0])
    scalar = z.strategy_rate(tsd_exp, OMEGA, z.BangBangKick(2.0))
    array = z.strategy_rate(tsd_exp, OMEGA, z.BangBangKick(taus))
    gen = z.build_qubit_generator(tsd_exp, tsd_exp, OMEGA, z.BangBangKick(2.0))
    cli._ratio_column.cache_clear()
    assert cli.main(["sweep", "--strategy", "kick",
                     "--out", str(tmp_path / "kick.csv")]) == 0
    # the scalar, the array, three generator channels, two sweep columns
    assert len(calls) == 1 + rep.n_refine + 7
    used = list(calls)
    monkeypatch.setattr(rates, "_tail_supremum", real_tail)
    for tsd, omega0, tau, out in used:
        assert np.array_equal(out, z.kick_rate(tsd, omega0, tau).gamma)
    assert scalar == z.kick_rate(tsd_exp, OMEGA, 2.0).gamma
    assert np.array_equal(array, z.kick_rate(tsd_exp, OMEGA, taus).gamma)
    assert (gen.gamma_dephase, gen.gamma_down, gen.gamma_up) == tuple(
        z.kick_rate(tsd_exp, c, 2.0).gamma for c in (0.0, OMEGA, -OMEGA))


@pytest.mark.parametrize("finder, kernel", [
    (xo.find_tau_star_kick, "_kick_comb"),
    (xo.find_K_star, "continuous_rate"),
])
def test_report_counts_whole_grid_scan_and_refinement(monkeypatch, tsd_exp,
                                                      finder, kernel):
    points, scalars = [], []
    real = getattr(rates, kernel)

    def counting(tsd, omega0, x):
        (scalars if np.ndim(x) == 0 else points).append(np.size(x))
        return real(tsd, omega0, x)

    monkeypatch.setattr(rates, kernel, counting)
    rep = finder(tsd_exp, OMEGA)
    assert points == [rep.n_scanned] == [xo._SCAN_GRID.size]
    assert rep.n_refine == len(scalars) >= 2 * len(rep.all_crossings)


@settings(max_examples=30, deadline=None)
@given(fam_n=st.sampled_from([(z.EXPONENTIAL, 2), (z.EXPONENTIAL, 3),
                              (z.POLYNOMIAL, 2), (z.POLYNOMIAL, 3),
                              (z.POLYNOMIAL, 4)]),
       beta=st.one_of(st.floats(2.0, 1e3), st.just(math.inf)),
       omega0=st.floats(-1.0, 1.0),
       log_tau=st.floats(-4.0, 4.0))
@example(fam_n=(z.POLYNOMIAL, 4), beta=math.inf, omega0=1.0, log_tau=-4.0)
def test_zeno_rate_below_linear_bound_property(fam_n, beta, omega0, log_tau):
    # the floor the Zeno scan rests on: kappa_beta >= 0 and sinc^2 <= 1
    # give 0 <= gamma_Z(tau) tau_Z^2 / tau <= 1 (worst seen 1 - 3.7e-10,
    # at poly n = 4, beta = inf, Omega = 1, tau = 1e-4; the gap shrinks
    # as tau^2, so tau stays above 1e-4)
    fam, n = fam_n
    tsd = z.form_factor_for_bandwidth(fam, W=1.0, n=n).thermal(beta)
    tau = 10.0 ** log_tau
    ratio = z.zeno_rate(tsd, omega0, tau) * z.zeno_time(tsd) ** 2 / tau
    assert 0.0 <= ratio <= 1.0 + 1e-9


@pytest.mark.parametrize("omega0", [-0.01, 0.0, math.inf, -math.inf])
@pytest.mark.parametrize("finder", [z.find_tau_star_zeno, z.find_tau_star_kick,
                                    z.find_K_star])
def test_zero_free_rate_rejected(tsd_exp_zero_t, finder, omega0):
    # kappa(Omega) = 0 at zero temperature for Omega <= 0, and at
    # |Omega| = inf: the ratio is undefined, so no plausible NoCrossing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(z.DomainError):
            finder(tsd_exp_zero_t, omega0)


def test_quick_estimates_values():
    q = z.quick_estimates(2, 0.01, 1.0)
    # alpha_2 = pi/2: tau*_Z = 2 pi * 2 (pi/2)^2 * 0.01
    assert q.tau_star_zeno == pytest.approx(
        2.0 * math.pi * 2.0 * (math.pi / 2.0) ** 2 * 0.01, rel=1e-12)
    # exact value is pi^3/100 = 0.31006...
    assert q.tau_star_zeno == pytest.approx(0.3103, abs=5e-4)
    assert q.tau_star_zeno < 2.0 * math.pi
    assert q.K_star > 1.0


def test_quick_estimates_factor_against_roots(tsd_poly, reports_poly):
    # low-temperature asymptotic estimates: factor-level agreement only.
    # At beta Omega = 0.25 the thermal enhancement of gamma pushes the
    # Zeno entry to ~4.8x; everything else stays within ~3x.
    finders = (z.find_tau_star_zeno, z.find_tau_star_kick, z.find_K_star)
    for omega0 in (0.005, 0.01, 0.05):
        q = z.quick_estimates(2, omega0, 1.0)
        reps = reports_poly if omega0 == OMEGA else [
            find(tsd_poly, omega0) for find in finders]
        rz, rk, rK = (rep.star_value for rep in reps)
        assert 1.0 / 5.0 < rz / q.tau_star_zeno < 5.0
        assert 1.0 / 5.0 < rk / q.tau_star_kick < 5.0
        assert 1.0 / 5.0 < rK / q.K_star < 5.0


def test_quick_estimates_domain():
    with pytest.raises(z.DomainError):
        z.quick_estimates(1, 0.01, 1.0)
    with pytest.raises(z.DomainError):
        z.quick_estimates(2, -0.01, 1.0)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e3, 0.0, 20.0),
    (lambda x: math.atan(x - 0.3) ** 3, -5.0, 40.0),
    (lambda x: 1.0 / (x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0),
])
def test_brent_matches_scipy_brentq(f, a, b):
    # the same root bits from the same function calls
    calls = {"ours": [], "scipy": []}
    ours = _brent(lambda x: calls["ours"].append(x) or f(x), a, b)
    ref = brentq(lambda x: calls["scipy"].append(x) or f(x), a, b,
                 rtol=1e-13, maxiter=200)
    assert ours == ref
    assert calls["ours"] == calls["scipy"]


def test_brent_edges():
    assert _brent(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(z.DomainError):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(z.NoConvergence):
        _brent(lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, maxiter=2)
