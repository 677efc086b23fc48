import math

import numpy as np
import pytest
from scipy.special import erf, polygamma, zeta
from scipy.special import lambertw as scipy_lambertw

import zenolab as z
from zenolab import numerics
from zenolab.numerics import (_K15_NODES, _K15_WEIGHTS, _segmented_integrals,
                              half_integer_series_tail, segmented_integral)


def test_quadrature_error_estimates_honest():
    # randomized analytic integrands on [mu - L, mu + L] split at the peak:
    # true error <= 3x reported estimate
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu = float(rng.uniform(-3.0, 3.0))
        sig = float(rng.uniform(0.3, 2.0))
        a = float(rng.uniform(0.5, 2.0))
        L = 10.0 * sig
        kind = rng.integers(0, 3)
        if kind == 0:     # Gaussian
            f = lambda x: a * np.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * math.sqrt(2 * math.pi))
            exact = a * float(erf(L / (sig * math.sqrt(2.0))))
        elif kind == 1:   # Lorentzian
            f = lambda x: a * sig / (math.pi * ((x - mu) ** 2 + sig ** 2))
            exact = a * (2.0 / math.pi) * math.atan(L / sig)
        else:             # two-sided exponential, a kink at mu
            f = lambda x: a * np.exp(-np.abs(x - mu) / sig) / (2.0 * sig)
            exact = a * -math.expm1(-L / sig)
        res = segmented_integral(f, [mu - L, mu, mu + L])
        true_err = abs(res.value - exact)
        assert true_err <= max(3.0 * res.error, 1e-13)


def test_qk15_table():
    # K15 is exact for x^d, d <= 22, and G7 for d <= 13, on [-1, 1]
    x = _K15_NODES
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        kronrod, gauss = (x ** d) @ _K15_WEIGHTS
        assert abs(kronrod - exact) <= 1e-15
        if d <= 13:
            assert abs(gauss - exact) <= 1e-15
    assert np.all(np.abs(_K15_WEIGHTS.sum(axis=0) - 2.0) <= 1e-15)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    # the G7 nodes are every other Kronrod node, and only those carry G7 weight
    assert np.all(_K15_WEIGHTS[0::2, 1] == 0.0)
    assert np.all(_K15_WEIGHTS[1::2, 1] > 0.0)
    gl_x, gl_w = np.polynomial.legendre.leggauss(7)
    assert np.allclose(x[1::2], gl_x, rtol=0.0, atol=1e-15)
    assert np.allclose(_K15_WEIGHTS[1::2, 1], gl_w, rtol=0.0, atol=1e-15)


def test_nonfinite_integrand_raises():
    # NaN passes every tolerance test; it must raise, not come back as a value
    with pytest.raises(z.NoConvergence, match="the integral.*non-finite"):
        segmented_integral(lambda x: np.full_like(x, np.nan), [0.0, 1.0])
    with pytest.raises(z.NoConvergence, match="non-finite"):
        segmented_integral(lambda x: np.full_like(x, np.inf), [0.0, 1.0])
    calls = []

    def nan_in_query_1(x, owner):
        calls.append(x.shape)
        return np.where(owner[:, None] == 1, np.nan, x ** 2)

    with pytest.raises(z.NoConvergence, match="query 1 .*non-finite"):
        _segmented_integrals(nan_in_query_1, np.zeros(2), np.ones(2),
                             np.array([0, 1]), 2, 1e-9, 1e-13, 16)
    # raised on the first pass, without bisecting
    assert calls == [(2, 15)]


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
    # owner need not be sorted: the error names the lowest pending query
    three = lambda x, owner: np.where(owner[:, None] == 1, x ** 2, kink(x))
    with pytest.raises(z.NoConvergence, match="query 0"):
        _segmented_integrals(three, np.zeros(3), np.ones(3), np.array([2, 1, 0]),
                             3, 1e-9, 1e-13, 3)


def test_segmented_integrals_pending_bound_is_per_call():
    # a noisy integrand bisects everywhere: with max_pending the engine
    # raises, naming the query, once a pass would exceed it; without it
    # the same call runs until it is out of passes
    rng = np.random.default_rng(5)
    noise = lambda x, owner: rng.standard_normal(x.shape)
    with pytest.raises(z.NoConvergence, match="query 0 needs more than 64 pending"):
        _segmented_integrals(noise, np.zeros(1), np.ones(1), np.zeros(1, dtype=int),
                             1, 1e-9, 1e-13, 16, max_pending=64)
    with pytest.raises(z.NoConvergence, match="ran out of passes: 256 segments"):
        _segmented_integrals(noise, np.zeros(1), np.ones(1), np.zeros(1, dtype=int),
                             1, 1e-9, 1e-13, 8)


# integrands of different difficulty, and the edges of each query: a
# smooth one, an interior kink that takes many passes, repeated edges and
# a zero-width segment, and a query made only of zero-width segments
_QUERIES = [
    (lambda x: np.cos(3.0 * x) * np.exp(-x), [0.0, 1.0, 4.0]),
    (lambda x: np.abs(x - 0.3) ** 0.5, [0.0, 1.0]),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), [-1.0, 0.2, 0.2, 0.2, 1.0]),
    (lambda x: np.exp(-np.abs(x - 0.7)), [0.0, 0.5, 0.5, 2.0, 2.0]),
    (lambda x: x, [0.5, 0.5, 0.5]),
]


def test_batched_queries_match_lone_integrals():
    # each query's segments, interleaved across queries, converge after
    # their own number of passes and sum as in a lone integral
    segments = []
    for q, (_, edges) in enumerate(_QUERIES):
        segments += [(i, ea, eb, q) for i, (ea, eb) in enumerate(zip(edges, edges[1:]))]
    segments.sort(key=lambda s: (s[0], -s[3]))
    _, a, b, owner = (np.array(c) for c in zip(*segments))

    def f(x, owner):
        out = np.empty_like(x)
        for q, (fq, _) in enumerate(_QUERIES):
            rows = owner == q
            out[rows] = fq(x[rows])
        return out

    values, errors = _segmented_integrals(f, a, b, owner, len(_QUERIES),
                                          1e-10, 1e-300, 30)
    for q, (fq, edges) in enumerate(_QUERIES):
        lone = segmented_integral(fq, edges, 1e-10, 1e-300, 30)
        assert abs(values[q] - lone.value) <= 1e-15 * abs(lone.value)
    assert values[-1] == errors[-1] == 0.0


def test_zero_width_only_integral_is_zero_without_evaluating():
    def never(x):
        raise AssertionError("integrand called")

    for edges in ([], [0.5], [0.5, 0.5, 0.5]):
        assert segmented_integral(never, edges) == (0.0, 0.0)


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
    # the table holds the correctly rounded constants
    for m in range(3, 16, 2):
        assert z.zeta_odd(m) == float(zeta(m))


def test_half_integer_series():
    # sum over (j+1/2)^{-2} equals pi^2/2
    j = np.arange(0, 1_000_000, dtype=float)
    partial = float(np.sum((j + 0.5) ** -2.0))
    total = partial + half_integer_series_tail(1_000_000)
    assert total == pytest.approx(math.pi ** 2 / 2.0, abs=1e-10)
    assert half_integer_series_tail(0) == pytest.approx(math.pi ** 2 / 2.0,
                                                        rel=1e-15)
    with pytest.raises(z.DomainError):
        half_integer_series_tail(-1)


def test_half_integer_series_tail_is_trigamma():
    # psi'(j + 1/2) to a few ulp of scipy's polygamma, which carries its own
    # ~2 ulp; bit-equal at j = 51, the tail the kick series uses by default
    for j in range(400):
        ref = float(polygamma(1, j + 0.5))
        assert abs(half_integer_series_tail(j) - ref) <= 4.0 * math.ulp(ref)
    assert half_integer_series_tail(51) == float(polygamma(1, 51.5))


@pytest.mark.parametrize("M", [0, 1, -3, 2.5, 300.0, "3", None])
def test_gauss_legendre_rejects_a_bad_point_count(M):
    # M = 0 divided by zero; the check comes before the cache, where 300.0
    # would hit the entry of 300
    with pytest.raises(z.DomainError, match="integer M >= 2"):
        numerics.gauss_legendre(M)


def test_alpha_n():
    assert z.alpha_n(2) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert z.alpha_n(3) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert z.alpha_n(2) > z.alpha_n(3) > z.alpha_n(4)
    with pytest.raises(z.DomainError):
        z.alpha_n(1)
