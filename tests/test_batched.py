"""The array forms of the rate kernels and the one-call crossover scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import zenolab as z
from zenolab import crossover as xo

OMEGA = 0.01
REL = 1e-13


def _kernels(tsd, omega0):
    return {
        "zeno": lambda t: z.zeno_rate(tsd, omega0, t),
        "kick": lambda t: z.kick_rate(tsd, omega0, t).gamma,
        "kick_bound": lambda t: z.kick_rate(tsd, omega0, t).truncation_error,
        "continuous": lambda K: z.continuous_rate(tsd, omega0, K),
    }


def _assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.all(np.abs(got - want) <= REL * np.abs(want)), what


# up to 40 points: crosses the 16-period Zeno and 32-period kick blocks
@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from([z.EXPONENTIAL, z.POLYNOMIAL]),
       beta=st.one_of(st.just(math.inf), st.floats(5.0, 200.0)),
       omega0=st.floats(0.002, 0.3),
       log_lo=st.floats(-4.0, 2.5),
       n=st.one_of(st.integers(1, 9), st.integers(33, 40)),
       shift=st.integers(1, 5))
def test_array_kernels_equal_scalar_calls(family, beta, omega0, log_lo, n, shift):
    tsd = z.form_factor_for_bandwidth(family, W=1.0).thermal(beta)
    grid = np.logspace(log_lo, log_lo + 1.5, n)
    for name, kernel in _kernels(tsd, omega0).items():
        batch = kernel(grid)
        _assert_close(batch, [kernel(float(x)) for x in grid], name)
        # a point's value does not depend on the block it falls in
        _assert_close(kernel(grid[shift:]), batch[shift:], name + " shifted")


def test_scalar_and_empty_shapes(tsd_exp):
    for name, kernel in _kernels(tsd_exp, OMEGA).items():
        assert isinstance(kernel(0.5), float), name
        assert kernel(np.array([0.5])).shape == (1,), name
        assert kernel(np.array([])).shape == (0,), name


_OMEGAS = np.array([[-1.0, -0.01, 0.0], [0.01, 0.5, 2.0]])
_TAUS = np.array([[0.1, 0.5, 1.0], [2.0, 5.0, 20.0]])
_KS = np.array([[0.0, 0.01, 0.1], [0.5, 1.0, 5.0]])
_TIMES = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5]])


def _shape_table():
    """name -> (kernel of one argument, a (2, 3) argument)."""
    ff = z.form_factor_for_bandwidth(z.EXPONENTIAL, W=1.0)
    tsd, tsd0 = ff.thermal(50.0), ff.thermal(math.inf)
    bath = z.build_bath(z.FormFactor(z.EXPONENTIAL, g=0.1, cutoff=0.5), 6.0, 10)
    free = z.SingleExcitationModel.qubit(bath, 0.2)
    coupled = z.SingleExcitationModel.qubit(bath, 0.2, 0.3)
    return {
        "bare_density": (lambda w: z.bare_density(ff, w), _OMEGAS),
        "thermal_density": (lambda w: z.thermal_density(tsd, w), _OMEGAS),
        "thermal_density beta=inf": (lambda w: z.thermal_density(tsd0, w), _OMEGAS),
        **{name: (kernel, _KS if name == "continuous" else _TAUS)
           for name, kernel in _kernels(tsd, OMEGA).items()},
        "strategy zeno": (lambda t: z.strategy_rate(
            tsd, OMEGA, z.ZenoMeasurement(t)), _TAUS),
        "strategy kick": (lambda t: z.strategy_rate(
            tsd, OMEGA, z.BangBangKick(t)), _TAUS),
        "strategy continuous": (lambda K: z.strategy_rate(
            tsd, OMEGA, z.ContinuousCoupling(K)), _KS),
        "free_survival": (lambda t: z.free_survival(free, t), _TIMES),
        "continuous_survival": (lambda t: z.continuous_survival(
            coupled, 0.3, t), _TIMES),
    }


@pytest.mark.parametrize("name", sorted(_shape_table()))
def test_scalar_in_float_out_array_keeps_its_shape(name):
    # the one array contract (numerics._shaped): a scalar gives a float, a
    # (2, 3) array a (2, 3) result equal bit for bit to the flat call
    kernel, x = _shape_table()[name]
    assert type(kernel(0.5)) is float
    out = kernel(x)
    assert out.shape == (2, 3)
    assert np.array_equal(out, kernel(x.ravel()).reshape(2, 3))


def test_array_strategy_dispatch(tsd_poly):
    taus = np.logspace(-2, 2, 9)
    kick_gamma = lambda tsd, omega0, t: z.kick_rate(tsd, omega0, t).gamma
    for strategy, scalar in ((z.ZenoMeasurement, z.zeno_rate),
                             (z.BangBangKick, kick_gamma),
                             (z.ContinuousCoupling, z.continuous_rate)):
        rate = z.strategy_rate(tsd_poly, OMEGA, strategy(taus))
        _assert_close(rate, [scalar(tsd_poly, OMEGA, float(t)) for t in taus],
                      strategy.__name__)
    _assert_close(z.kick_rate(tsd_poly, OMEGA, taus).truncation_error,
                  [z.kick_rate(tsd_poly, OMEGA, float(t)).truncation_error
                   for t in taus], "kick")


def _scalar_scan(ratio, grid):
    """The point-by-point scan: every crossing and the first bracket."""
    f = lambda x: ratio(x) - 1.0
    prev_x, prev_v = grid[0], f(grid[0])
    crossings, first = [], None
    for x in grid[1:]:
        v = f(x)
        if prev_v == 0.0:
            crossings.append(prev_x)
            first = first or (prev_x, x)
        elif (prev_v < 0.0 <= v) or (prev_v > 0.0 >= v):
            a, b = sorted((prev_x, x))
            crossings.append(brentq(f, a, b, rtol=1e-13, maxiter=200))
            first = first or (prev_x, x)
        prev_x, prev_v = x, v
    return crossings, first


_FINDERS = (xo.find_tau_star_zeno, xo.find_tau_star_kick, xo.find_K_star)


@pytest.mark.parametrize("finder, scalar, reverse", [
    (xo.find_tau_star_zeno, lambda tsd, t: z.zeno_rate(tsd, OMEGA, t), False),
    (xo.find_tau_star_kick, lambda tsd, t: z.kick_rate(tsd, OMEGA, t).gamma, False),
    (xo.find_K_star, lambda tsd, K: z.continuous_rate(tsd, OMEGA, K), True),
])
def test_block_scan_matches_scalar_loop(tsd_exp, reports_exp, finder, scalar,
                                        reverse):
    gamma = z.golden_rule_rate(tsd_exp, OMEGA)
    rep = reports_exp[_FINDERS.index(finder)]   # finder(tsd_exp, OMEGA)
    grid = xo._SCAN_GRID[::-1] if reverse else xo._SCAN_GRID
    for root in rep.all_crossings:
        # the decade around the root, in scan order
        sub = grid[(grid > root / math.sqrt(10.0)) & (grid < root * math.sqrt(10.0))]
        crossings, first = _scalar_scan(lambda x: scalar(tsd_exp, float(x)) / gamma,
                                        sub)
        inside = [c for c in rep.all_crossings if sub.min() < c < sub.max()]
        assert sorted(crossings) == inside
        if root == rep.star_value:
            assert tuple(sorted(rep.bracket)) == tuple(sorted(first))
