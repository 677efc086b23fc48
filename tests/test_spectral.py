import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import polygamma

import zenolab as z


def test_bare_density_examples():
    ff = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0)
    assert z.bare_density(ff, -0.5) == 0.0
    assert z.bare_density(ff, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    fp = z.FormFactor(z.POLYNOMIAL, g=1.0, cutoff=1.0, n=2)
    assert z.bare_density(fp, 1.0) == pytest.approx(0.25, rel=1e-15)


def test_bare_density_negative_axis_and_vectorized():
    w = np.linspace(-5.0, 5.0, 101)
    for fam, n in [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 2), (z.POLYNOMIAL, 4)]:
        ff = z.FormFactor(fam, g=0.7, cutoff=1.3, n=n)
        vals = z.bare_density(ff, w)
        assert np.all(vals >= 0.0)
        assert np.all(vals[w < 0] == 0.0)


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(-50.0, 50.0), g=st.floats(0.1, 3.0),
       lam=st.floats(0.1, 4.0))
def test_bare_density_nonnegative_property(omega, g, lam):
    for fam in (z.EXPONENTIAL, z.POLYNOMIAL):
        assert z.bare_density(z.FormFactor(fam, g=g, cutoff=lam), omega) >= 0.0


def test_form_factor_validation():
    with pytest.raises(z.DomainError):
        z.FormFactor("lorentz")
    with pytest.raises(z.DomainError):
        z.FormFactor(z.EXPONENTIAL, g=0.0)
    with pytest.raises(z.DomainError):
        z.FormFactor(z.EXPONENTIAL, cutoff=-1.0)
    with pytest.raises(z.DomainError):
        z.FormFactor(z.POLYNOMIAL, n=0)
    # inf passes '> 0'; a coupling or cutoff must be finite too
    for bad in (math.inf, math.nan):
        with pytest.raises(z.DomainError):
            z.FormFactor(z.EXPONENTIAL, g=bad)
        with pytest.raises(z.DomainError):
            z.FormFactor(z.POLYNOMIAL, cutoff=bad)
    with pytest.raises(z.DomainError, match="beta"):
        z.ThermalSpectralDensity(z.FormFactor(z.EXPONENTIAL), 0.0)


def test_polynomial_n_is_an_integer():
    # 2.0 once passed the check and every polynomial kernel then raised a
    # bare TypeError; an integer-like n is stored as a plain int
    for bad in (2.0, "2", None):
        with pytest.raises(z.DomainError, match="exponent n"):
            z.FormFactor(z.POLYNOMIAL, n=bad)
    ff = z.FormFactor(z.POLYNOMIAL, n=np.int64(2))
    assert ff == z.FormFactor(z.POLYNOMIAL, n=2) and type(ff.n) is int
    assert z.zeno_rate(ff.thermal(50.0), 0.01, 1.0) == z.zeno_rate(
        z.FormFactor(z.POLYNOMIAL, n=2).thermal(50.0), 0.01, 1.0)
    # the exponential family ignores n
    assert z.FormFactor(z.EXPONENTIAL, n=2.0).n == 2.0


def test_thermal_density_examples():
    for fam in (z.EXPONENTIAL, z.POLYNOMIAL):
        tsd = z.FormFactor(fam, g=1.3, cutoff=0.8).thermal(7.0)
        assert z.thermal_density(tsd, 0.0) == pytest.approx(1.3 ** 2 / 7.0,
                                                            rel=1e-14)
    tsd = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0).thermal(2.0)
    ratio = z.thermal_density(tsd, -1.0) / z.thermal_density(tsd, 1.0)
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-12)
    tsd0 = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0).thermal(math.inf)
    assert z.thermal_density(tsd0, 1.0) == pytest.approx(math.exp(-1.0),
                                                         rel=1e-15)
    assert z.thermal_density(tsd0, -1.0) == 0.0


@pytest.mark.parametrize("beta", [0.1, 1.0, 50.0])
@pytest.mark.parametrize("fam,n", [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 2)])
def test_kms_symmetry_pointwise(beta, fam, n):
    ff = z.form_factor_for_bandwidth(fam, W=1.0, n=n)
    tsd = ff.thermal(beta)
    omegas = np.linspace(1e-6, 10.0 * ff.cutoff, 400)
    left = z.thermal_density(tsd, -omegas)
    right = np.exp(-beta * omegas) * z.thermal_density(tsd, omegas)
    ref = z.thermal_density(tsd, omegas)
    assert np.all(np.abs(left - right) <= 1e-12 * ref)


@settings(max_examples=80, deadline=None)
@given(fam=st.sampled_from([z.EXPONENTIAL, z.POLYNOMIAL]), n=st.integers(2, 4),
       beta=st.one_of(st.floats(1e-2, 1e3), st.just(math.inf)),
       omega=st.floats(1e-6, 50.0))
def test_kms_symmetry_property(fam, n, beta, omega):
    # kappa_beta(-omega) = e^{-beta omega} kappa_beta(omega)
    tsd = z.FormFactor(fam, g=0.8, cutoff=0.7, n=n).thermal(beta)
    right = z.thermal_density(tsd, omega)
    left = z.thermal_density(tsd, -omega)
    assert right >= 0.0 and left >= 0.0
    assert abs(left - math.exp(-beta * omega) * right) <= 1e-12 * right


def test_nan_frequency_rejected():
    # NaN used to fall through every sign mask and come out as g^2/beta
    for fam in (z.EXPONENTIAL, z.POLYNOMIAL):
        ff = z.form_factor_for_bandwidth(fam, W=1.0)
        for beta in (50.0, math.inf):
            tsd = ff.thermal(beta)
            with pytest.raises(z.DomainError, match="NaN"):
                z.thermal_density(tsd, math.nan)
            with pytest.raises(z.DomainError, match="NaN"):
                z.thermal_density(tsd, np.array([-1.0, 0.0, math.nan, 2.0]))
            with pytest.raises(z.DomainError):
                z.golden_rule_rate(tsd, math.nan)
        with pytest.raises(z.DomainError, match="NaN"):
            z.bare_density(ff, math.nan)
        with pytest.raises(z.DomainError, match="NaN"):
            z.bare_density(ff, np.array([0.5, math.nan]))
        # omega = 0 is no NaN: it keeps its limit g^2/beta
        assert z.thermal_density(ff.thermal(50.0), np.array([0.0])).tolist() == [
            ff.g ** 2 / 50.0]


def test_densities_vanish_at_infinite_frequency():
    # inf * exp(-700) and inf / inf used to give inf or NaN here
    w = np.array([math.inf, -math.inf, 1.5, -1.5])
    for fam, n in [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 2), (z.POLYNOMIAL, 3)]:
        ff = z.FormFactor(fam, g=0.8, cutoff=0.7, n=n)
        assert z.bare_density(ff, math.inf) == 0.0
        for beta in (50.0, math.inf):
            tsd = ff.thermal(beta)
            vals = z.thermal_density(tsd, w)
            assert vals[:2].tolist() == [0.0, 0.0]
            assert vals[2:].tolist() == [z.thermal_density(tsd, 1.5),
                                         z.thermal_density(tsd, -1.5)]
            assert z.thermal_density(tsd, -math.inf) == 0.0


# beta |omega| below the smallest normal float: the quotient
# kappa/(1 - e^{-beta omega}) lost its digits (40 % low at beta = 0.6,
# omega = 5e-324) or divided by zero (inf, with a RuntimeWarning)
@pytest.mark.parametrize("fam, n", [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 1),
                                    (z.POLYNOMIAL, 2), (z.POLYNOMIAL, 4)])
@pytest.mark.parametrize("beta", [1e-3, 0.5, 0.6, 50.0, 1e6])
@pytest.mark.parametrize("omega", [5e-324, -5e-324, 1e-320, -2e-315, 0.0])
def test_thermal_density_takes_its_limit_where_beta_omega_underflows(
        fam, n, beta, omega):
    tsd = z.FormFactor(fam, g=0.7, cutoff=0.37, n=n).thermal(beta)
    limit = 0.7 ** 2 / beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = z.thermal_density(tsd, omega)
        array = z.thermal_density(tsd, np.array([omega, 1.0]))
    assert math.isfinite(scalar)
    assert abs(scalar / limit - 1.0) <= 1e-15
    assert array[0] == scalar


_TINY = np.finfo(float).tiny


def _per_sign(tsd, omega):
    """kappa_beta by the per-sign expressions, one frequency at a time:
    kappa(omega)/(-expm1(-beta omega)) for omega > 0, kappa(|omega|)/
    expm1(beta |omega|) for omega < 0 (kappa(|omega|) e^{-beta |omega|}
    where beta |omega| passes 700), the limit g^2/beta wherever
    |omega| <= tiny/beta, and the bare density at beta = inf."""
    if math.isinf(tsd.beta):
        return z.bare_density(tsd.base, omega)
    beta, floor = tsd.beta, _TINY / tsd.beta
    if omega > floor:
        return z.bare_density(tsd.base, omega) / (-np.expm1(-beta * omega))
    if omega < -floor:
        x = beta * -omega
        kb = z.bare_density(tsd.base, -omega)
        if x > 700.0:
            return kb * np.exp(-min(x, 1490.0))
        return kb / np.expm1(min(x, 700.0))
    return tsd.base.g * tsd.base.g / beta


def _bit_omegas(beta):
    """0, -0.0, +-5e-324, +-tiny/beta, the neighbours of +-700/beta, +-inf
    and a spread of ordinary frequencies."""
    clip = 700.0 / beta
    w = [0.0, 5e-324, _TINY / beta, np.nextafter(clip, 0.0), clip,
         np.nextafter(clip, math.inf), 1e-12, 0.3, 1.0, 7.5, 40.0, 1e300,
         math.inf]
    return np.array([-0.0] + w + [-x for x in w])


# the single expression kappa(|omega|)/|expm1(min(-beta omega, 700))| with
# its patches gives every value of the per-sign form bit for bit, except at
# a subnormal |omega| above the zero floor (see the subnormal tests below)
@pytest.mark.parametrize("fam, n", [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 1),
                                    (z.POLYNOMIAL, 2), (z.POLYNOMIAL, 4)])
@pytest.mark.parametrize("beta", [1e-300, 0.5, 2.0, 50.0, 1e3, 1e300, math.inf])
def test_thermal_density_matches_the_per_sign_form_bit_for_bit(fam, n, beta):
    tsd = z.FormFactor(fam, g=0.7, cutoff=0.37, n=n).thermal(beta)
    w = _bit_omegas(beta)
    with np.errstate(over="ignore"):
        ref = [_per_sign(tsd, x) for x in w]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = z.thermal_density(tsd, w)
        scalars = [z.thermal_density(tsd, float(x)) for x in w]
        grid = z.thermal_density(tsd, np.stack([w, w[::-1]]))
    keep = ~((np.abs(w) < _TINY) & (np.abs(w) > _TINY / beta))
    assert np.array_equal(array[keep], np.array(ref)[keep])
    assert all(type(x) is float for x in scalars)
    assert np.array_equal(np.array(scalars), array)
    assert np.array_equal(grid, np.stack([array, array[::-1]]))


def test_scalar_zero_frequency_gives_a_float():
    # omega = 0 goes through the 0/0 patch; as a scalar it is a float, as
    # in the dephasing channel of the free qubit generator
    for fam in (z.EXPONENTIAL, z.POLYNOMIAL):
        tsd = z.form_factor_for_bandwidth(fam, W=1.0).thermal(50.0)
        for omega in (0.0, -0.0, 0, np.float64(0.0)):
            value = z.thermal_density(tsd, omega)
            assert type(value) is float
            assert value == tsd.base.g * tsd.base.g / 50.0
        rate = z.strategy_rate(tsd, 0.0, z.Free())
        assert type(rate) is float and rate == 2.0 * math.pi * value
        gen = z.build_qubit_generator(tsd, tsd, 0.01, z.Free())
        assert gen.gamma_dephase == rate


def _expm1_exact(y):
    if abs(y) < Decimal("1e-5"):
        return sum(y ** m / math.factorial(m) for m in range(1, 8))
    return y.exp() - 1


def _thermal_exact(fam, n, g, lam, beta, w):
    """kappa_beta(w) of the float inputs, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        g, lam, beta, w = Decimal(g), Decimal(lam), Decimal(beta), Decimal(w)
        a = abs(w)
        shape = (-a / lam).exp() if fam == z.EXPONENTIAL else 1 / (1 + (a / lam) ** 2) ** n
        return g * g * a * shape / abs(_expm1_exact(-beta * w))


# a subnormal omega above the floor tiny/beta: kappa(|omega|) = g^2 |omega| s
# rounded on the subnormal grid, 9.4e-5 low at omega = 3e-320 and 1.9e-14
# at 1e-310 (exp, beta = 1e300 and 1e308).  There the value is now within
# 4e-16 of the exact one, or the float nearest it where the value is itself
# subnormal (beta = 1e308); elsewhere within a few ulp, or one unit of the
# subnormal grid
@pytest.mark.parametrize("beta", [1e300, 1e308])
def test_thermal_density_at_subnormal_omega(beta):
    tsd = z.FormFactor(z.EXPONENTIAL, g=0.7, cutoff=1.0).thermal(beta)
    for w in (3e-320, -3e-320, 1e-310, -1e-310):
        value = z.thermal_density(tsd, w)
        exact = _thermal_exact(z.EXPONENTIAL, 2, 0.7, 1.0, beta, w)
        assert (abs(Decimal(value) / exact - 1) <= Decimal("4e-16")
                or value == float(exact)), (w, value, float(exact))


@pytest.mark.parametrize("fam, n", [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 1),
                                    (z.POLYNOMIAL, 4)])
@pytest.mark.parametrize("lam", [1.0, 0.37, 1e-300])
@pytest.mark.parametrize("beta", [2.0, 1e300, 1e308])
def test_thermal_density_at_subnormal_omega_everywhere(fam, n, lam, beta):
    tsd = z.FormFactor(fam, g=0.7, cutoff=lam, n=n).thermal(beta)
    omegas = [w for w in (3.5e-323, 3e-320, 1e-310, 2.2e-308) if w > _TINY / beta]
    omegas += [-w for w in omegas]
    array = z.thermal_density(tsd, np.array(omegas))
    for w, value in zip(omegas, array):
        exact = _thermal_exact(fam, n, 0.7, lam, beta, w)
        assert z.thermal_density(tsd, w) == value
        assert (abs(Decimal(float(value)) - exact)
                <= Decimal("1e-15") * exact + Decimal(5e-324)), (w, value)


def _poly_exact(g, lam, n, w):
    """g^2 w / (1 + (w/lam)^2)^n in exact rational arithmetic, rounded once."""
    return float(Fraction(g) ** 2 * Fraction(w)
                 / (1 + (Fraction(w) / Fraction(lam)) ** 2) ** n)


# past omega ~ lam (1.8e308)^(1/2n) the denominator (1 + (w/lam)^2)^n
# overflowed with a RuntimeWarning and kappa read 0
@pytest.mark.parametrize("n, omegas", [
    (1, [1e150, 1.3e154, 1.4e154, 1e155, 1e300]),
    (2, [1e76, 1.2e77, 1e78, 1e100]),
    (4, [1e38, 3.5e38, 4e38, 1e39, 1e43])])
@pytest.mark.parametrize("lam", [1.0, 0.37])
def test_poly_bare_density_past_the_denominators_overflow(n, omegas, lam):
    ff = z.FormFactor(z.POLYNOMIAL, g=0.7, cutoff=lam, n=n)
    w = np.array(omegas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = z.bare_density(ff, w)
        thermal = z.thermal_density(ff.thermal(50.0), w)
    exact = np.array([_poly_exact(0.7, lam, n, x) for x in omegas])
    assert np.all(exact > 0.0) and np.all(np.isfinite(bare))
    assert np.max(np.abs(bare / exact - 1.0)) <= 1e-15
    assert thermal.tolist() == bare.tolist()     # 1 - e^{-beta omega} = 1


def test_thermal_enhancement_and_continuity():
    for fam in (z.EXPONENTIAL, z.POLYNOMIAL):
        ff = z.form_factor_for_bandwidth(fam, W=1.0)
        tsd = ff.thermal(50.0)
        w = np.linspace(1e-4, 8.0, 300)
        assert np.all(z.thermal_density(tsd, w) >= z.bare_density(ff, w))
        # continuity at 0: both one-sided values within 1e-8 relative of g^2/beta
        limit = ff.g ** 2 / 50.0
        for delta in (1e-10, -1e-10):
            assert z.thermal_density(tsd, delta) == pytest.approx(limit, rel=1e-8)


def test_bandwidth_closed_forms():
    assert z.bandwidth(z.FormFactor(z.EXPONENTIAL, cutoff=1.0)) == pytest.approx(2.0)
    assert z.bandwidth(z.FormFactor(z.POLYNOMIAL, cutoff=1.0, n=2)) == \
        pytest.approx(math.pi / 2.0, rel=1e-14)
    with pytest.raises(z.DivergentMoment):
        z.bandwidth(z.FormFactor(z.POLYNOMIAL, cutoff=1.0, n=1))


@pytest.mark.parametrize("fam,n", [(z.EXPONENTIAL, 2), (z.POLYNOMIAL, 2),
                                   (z.POLYNOMIAL, 4)])
def test_bandwidth_against_quadrature(fam, n):
    # independent oracle: moments of the bare density by quadrature
    ff = z.FormFactor(fam, g=0.9, cutoff=1.7, n=n)
    num = quad(lambda w: w * z.bare_density(ff, w), 0.0, math.inf,
               epsabs=1e-12, epsrel=1e-10)[0]
    den = quad(lambda w: z.bare_density(ff, w), 0.0, math.inf,
               epsabs=1e-12, epsrel=1e-10)[0]
    assert z.bandwidth(ff) == pytest.approx(num / den, rel=1e-8)


def test_cutoff_matching():
    assert z.match_cutoffs(z.EXPONENTIAL, z.EXPONENTIAL, 2.0) == (1.0, 1.0)
    la, lb = z.match_cutoffs(z.EXPONENTIAL, z.POLYNOMIAL, 2.0)
    assert la == pytest.approx(1.0)
    assert lb == pytest.approx(4.0 / math.pi, rel=1e-12)
    lp, lq = z.match_cutoffs(z.POLYNOMIAL, z.POLYNOMIAL, math.pi / 2.0)
    assert lp == pytest.approx(1.0, rel=1e-12) and lq == pytest.approx(1.0, rel=1e-12)
    # equal-W cutoff ratio is 4/pi, commonly quoted rounded as 1.275
    ratio = lb / la
    assert abs(ratio - 1.275) / 1.275 < 5e-3


def test_zeno_time_closed_forms():
    tsd = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=1.0).thermal(math.inf)
    assert z.zeno_time(tsd) == pytest.approx(1.0, rel=1e-8)
    tsd = z.FormFactor(z.POLYNOMIAL, g=1.0, cutoff=1.0, n=2).thermal(math.inf)
    assert z.zeno_time(tsd) == pytest.approx(math.sqrt(2.0), rel=1e-8)


_ZENO_BETAS = [1e-3, 1e-2, 0.1, 1.0, 10.0, 50.0, 1e3, math.inf]


@pytest.mark.parametrize("beta", _ZENO_BETAS)
@pytest.mark.parametrize("g", [1.0, 0.1])
def test_zeno_time_exponential_trigamma_form(beta, g):
    # int kappa_beta = g^2 [Lambda^2 + (2/beta^2) psi'(1 + 1/(beta Lambda))]
    lam = 0.5
    tsd = z.FormFactor(z.EXPONENTIAL, g=g, cutoff=lam).thermal(beta)
    total = g * g * lam * lam
    if math.isfinite(beta):
        total += g * g * 2.0 / beta ** 2 * float(polygamma(1, 1.0 + 1.0 / (beta * lam)))
    assert abs(z.zeno_time(tsd) * math.sqrt(total) - 1.0) <= 1e-12


@pytest.mark.parametrize("beta", _ZENO_BETAS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_zeno_time_polynomial_against_quad(beta, n):
    # int kappa_beta = int_0^inf kappa(w) coth(beta w / 2) dw, by a tight
    # QUADPACK run on the density written out here
    lam = 2.0 / math.pi
    tsd = z.FormFactor(z.POLYNOMIAL, g=1.0, cutoff=lam, n=n).thermal(beta)

    def f(w):
        coth = 1.0 if math.isinf(beta) else 1.0 / math.tanh(0.5 * beta * w)
        return w / (1.0 + (w / lam) ** 2) ** n * coth

    edges = [0.0, lam, 10.0 * lam, 100.0 * lam, math.inf]
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    assert abs(z.zeno_time(tsd) * math.sqrt(total) - 1.0) <= 1e-12


@pytest.mark.parametrize("fam", [z.EXPONENTIAL, z.POLYNOMIAL])
def test_zeno_time_thermal_shorter_than_bare(fam):
    ff = z.form_factor_for_bandwidth(fam, W=1.0)
    assert z.zeno_time(ff.thermal(5.0)) < z.zeno_time(ff.thermal(math.inf))


def test_zeno_time_divergent_for_n1():
    tsd = z.FormFactor(z.POLYNOMIAL, cutoff=1.0, n=1).thermal(math.inf)
    with pytest.raises(z.DivergentIntegral):
        z.zeno_time(tsd)
