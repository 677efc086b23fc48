import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

import zenolab as z
from zenolab.numerics import (QuadratureSpec, _segmented_integrals,
                              half_integer_series_tail, integrate_line,
                              segmented_integral)


def test_integrate_line_exponential_density():
    ff = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0)
    res = integrate_line(lambda w: z.bare_density(ff, w),
                         QuadratureSpec(split_points=(0.0,)))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_integrate_line_gaussian():
    res = integrate_line(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
    assert res.value == pytest.approx(1.0, rel=1e-10)
    assert res.error < 1e-8


def test_integrate_line_sinc_sq_kernel(tsd_exp):
    # sinc^2 -> delta limit: at tau = 50/W the weighted integral sits within
    # ~31% of 2 pi kappa_beta(Omega)/tau in this regime (slow C/tau approach;
    # the qualitative delta-limit statement, cross-checked by golden_rule_rate)
    tau, omega0 = 50.0, 0.01
    zeros = [omega0 + 2.0 * math.pi * k / tau for k in range(-64, 65)]
    spec = QuadratureSpec(split_points=tuple(zeros), max_subdivisions=400)

    def f(w):
        return z.thermal_density(tsd_exp, w) * np.sinc((w - omega0) * tau / (2 * np.pi)) ** 2

    res = integrate_line(f, spec)
    target = z.golden_rule_rate(tsd_exp, omega0) / tau
    assert res.value == pytest.approx(target, rel=0.35)
    assert res.value == pytest.approx(z.zeno_rate(tsd_exp, omega0, tau) / tau,
                                      rel=1e-6)


def test_integrate_line_no_convergence():
    # log-divergent integrand
    with pytest.raises(z.NoConvergence):
        integrate_line(lambda x: abs(x) / (1.0 + x * x),
                       QuadratureSpec(split_points=(0.0,)))


def test_quadrature_error_estimates_honest():
    # randomized analytic integrands: true error <= 3x reported estimate
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu = float(rng.uniform(-3.0, 3.0))
        sig = float(rng.uniform(0.3, 2.0))
        a = float(rng.uniform(0.5, 2.0))
        kind = rng.integers(0, 3)
        if kind == 0:     # Gaussian, integral a
            f = lambda x: a * math.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * math.sqrt(2 * math.pi))
            exact = a
        elif kind == 1:   # Lorentzian, integral a
            f = lambda x: a * sig / (math.pi * ((x - mu) ** 2 + sig ** 2))
            exact = a
        else:             # two-sided exponential, integral a
            f = lambda x: a * math.exp(-abs(x - mu) / sig) / (2.0 * sig)
            exact = a
        res = integrate_line(f, QuadratureSpec(split_points=(mu,)))
        true_err = abs(res.value - exact)
        assert true_err <= max(3.0 * res.error, 1e-13)


def test_quadrature_spec_validation():
    with pytest.raises(z.DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(z.DomainError):
        QuadratureSpec(max_subdivisions=3)
    spec = QuadratureSpec(split_points=(3.0, -1.0, 0.5))
    assert spec.split_points == (-1.0, 0.5, 3.0)


def test_segmented_integral_polynomial_exact():
    res = segmented_integral(lambda x: x ** 4, [0.0, 0.5, 2.0])
    assert res.value == pytest.approx(2.0 ** 5 / 5.0, rel=1e-13)


def test_segmented_integral_out_of_passes_raises():
    # a kink mid-segment needs many bisections; one pass cannot converge
    kink = lambda x: np.abs(x - 0.3) ** 0.5
    with pytest.raises(z.NoConvergence, match="the integral"):
        segmented_integral(kink, [0.0, 1.0], 1e-9, 1e-13, 1)
    exact = (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5
    assert segmented_integral(kink, [0.0, 0.3, 1.0]).value == pytest.approx(
        exact, rel=1e-9)
    # with several queries the error names the one that ran out
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    smooth_then_kink = lambda x, owner: np.where(owner[:, None] == 0, x ** 2,
                                                 kink(x))
    with pytest.raises(z.NoConvergence, match="query 1"):
        _segmented_integrals(smooth_then_kink, a, b, np.array([0, 1]), 2,
                             1e-9, 1e-13, 3)


def test_lambert_w_m1_examples():
    assert z.lambert_w_m1(-math.exp(-1.0)) == -1.0
    w = z.lambert_w_m1(-0.1)
    assert w == pytest.approx(-3.577152063957297, rel=1e-10)
    assert w == pytest.approx(float(scipy_lambertw(-0.1, -1).real), rel=1e-12)
    for target in (-1.5, -5.0, -20.0):
        x = target * math.exp(target)
        assert z.lambert_w_m1(x) == pytest.approx(target, rel=1e-10)


def test_lambert_w_m1_residual_grid():
    xs = -np.exp(-np.linspace(1.0, 700.0, 1000))
    xs = xs[xs >= -math.exp(-1.0)]
    for x in xs:
        w = z.lambert_w_m1(float(x))
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_w_m1_domain():
    for bad in (-1.0, 0.0, 0.3, -0.37):
        with pytest.raises(z.DomainError):
            z.lambert_w_m1(bad)


def _zeta_direct(m: int) -> float:
    # independent oracle: direct summation with Euler-Maclaurin tail
    K = 20000
    k = np.arange(1, K + 1, dtype=float)
    s = float(np.sum(k ** -float(m)))
    tail = K ** (1 - m) / (m - 1) - 0.5 * K ** (-m) + m / 12.0 * K ** (-m - 1)
    return s + tail


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_zeta_odd_against_direct_sum(m):
    assert z.zeta_odd(m) == pytest.approx(_zeta_direct(m), abs=1e-12)


def test_zeta_odd_values_and_domain():
    assert z.zeta_odd(3) == pytest.approx(1.2020569031595943, abs=1e-12)
    assert z.zeta_odd(5) == pytest.approx(1.0369277551433699, abs=1e-12)
    for bad in (2, 4, 1, 17):
        with pytest.raises(z.DomainError):
            z.zeta_odd(bad)


def test_half_integer_series():
    # sum over (j+1/2)^{-2} equals pi^2/2
    j = np.arange(0, 1_000_000, dtype=float)
    partial = float(np.sum((j + 0.5) ** -2.0))
    total = partial + half_integer_series_tail(1_000_000)
    assert total == pytest.approx(math.pi ** 2 / 2.0, abs=1e-10)


def test_bose_occupation_examples():
    beta = 2.0
    omega = math.log(2.0) / beta
    assert z.bose_occupation(omega, beta) == pytest.approx(1.0, rel=1e-14)
    assert z.bose_occupation(1.0, math.inf) == 0.0
    assert z.bose_occupation(-1.0, math.inf) == -1.0
    with pytest.raises(z.DomainError):
        z.bose_occupation(0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(1e-6, 50.0))
def test_bose_identity(x):
    # N(omega) + 1 = e^{beta omega} N(omega)
    n = z.bose_occupation(x, 1.0)
    assert abs((n + 1.0) - math.exp(x) * n) <= 1e-14 * max(abs(n + 1.0), 1.0)


def test_alpha_n():
    assert z.alpha_n(2) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert z.alpha_n(3) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert z.alpha_n(2) > z.alpha_n(3) > z.alpha_n(4)
    with pytest.raises(z.DomainError):
        z.alpha_n(1)
