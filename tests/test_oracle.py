import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh

import zenolab as z
from zenolab import numerics, oracle
from zenolab.oracle import _gauss_legendre, _spectral_measure

G = 0.1
OMEGA = 0.2


# Dense references: the 2M+1 ancilla Hamiltonian diagonalised as a whole,
# independent of the model's spectral-measure construction.

def _ancilla_hamiltonian(bath, omega0, K):
    """{|up, vac>, |down, 1_i>, |M, 1_i>} with K(|down><M| + h.c.)."""
    M = bath.n_modes
    idx = np.arange(1, M + 1)
    H = np.zeros((2 * M + 1, 2 * M + 1))
    H[0, 0] = 0.5 * omega0
    H[idx, idx] = -0.5 * omega0 + bath.omegas
    H[idx + M, idx + M] = -0.5 * omega0 + bath.omegas
    H[0, idx] = bath.couplings
    H[idx, 0] = bath.couplings
    H[idx, idx + M] = K
    H[idx + M, idx] = K
    return H


def _dense_survival(H, ts):
    ev, V = eigh(H)
    return np.abs(np.exp(-1j * np.outer(ts, ev)) @ V[0] ** 2) ** 2


def _dense_kick_states(H, tau, N):
    """State after each cycle: e^{-iH tau}, then the sign flip of every
    level but |up, vac>."""
    ev, V = eigh(H)
    U = (V * np.exp(-1j * ev * tau)) @ V.T
    signs = np.full(ev.size, -1.0)
    signs[0] = 1.0
    psi = np.zeros(ev.size, dtype=complex)
    psi[0] = 1.0
    states = []
    for _ in range(N):
        psi = signs * (U @ psi)
        states.append(psi)
    return states


@pytest.fixture(scope="module")
def kick_dense_hamiltonian(kick_model):
    return _ancilla_hamiltonian(kick_model.bath, OMEGA, 0.0)


def _midpoint_bath(ff, omega_max, M):
    """M equally spaced modes on [0, omega_max]: the midpoint rule."""
    step = omega_max / M
    om = (np.arange(M) + 0.5) * step
    return z.DiscretizedBath(om, np.sqrt(z.bare_density(ff, om) * step),
                             float(omega_max))


_BATHS = {"midpoint": _midpoint_bath, "gauss-legendre": z.build_bath}


def test_bath_sum_rule(oracle_ff):
    bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
    exact = quad(lambda w: z.bare_density(oracle_ff, w), 0.0,
                 12.0 * oracle_ff.cutoff, limit=200)[0]
    assert bath.coupling_sum_rule == pytest.approx(exact, rel=1e-6)


def test_bath_two_mode_toy_matches_hand_matrix(oracle_ff):
    bath = _midpoint_bath(oracle_ff, 2.0, 2)
    assert np.allclose(bath.omegas, [0.5, 1.5])
    g1 = math.sqrt(z.bare_density(oracle_ff, 0.5) * 1.0)
    g2 = math.sqrt(z.bare_density(oracle_ff, 1.5) * 1.0)
    model = z.SingleExcitationModel.qubit(bath, OMEGA)
    H_hand = np.array([[OMEGA / 2, g1, g2],
                       [g1, -OMEGA / 2 + 0.5, 0.0],
                       [g2, 0.0, -OMEGA / 2 + 1.5]])
    ev, V = eigh(H_hand)
    assert np.allclose(model.eigenvalues, ev, atol=1e-14)
    assert np.allclose(model.weights, V[0] ** 2, atol=1e-14)


def test_bath_validation(oracle_ff):
    with pytest.raises(z.DomainError):
        z.build_bath(oracle_ff, -1.0, 100)
    with pytest.raises(z.DomainError):
        z.build_bath(oracle_ff, 6.0, 1)


@pytest.mark.parametrize("omegas", [[0.5, 1.5, math.inf], [0.5, 1.5, math.nan],
                                    [-math.inf, 0.5, 1.5]])
def test_bath_rejects_nonfinite_frequencies(omegas):
    with pytest.raises(z.DomainError, match="finite"):
        z.DiscretizedBath(omegas, [0.1, 0.1, 0.2], 2.0)


@pytest.mark.parametrize("couplings", [[0.1, math.nan, 0.2],
                                       [0.1, math.inf, 0.2],
                                       [0.1, -0.1, 0.2]])
def test_bath_rejects_nonfinite_or_negative_couplings(couplings):
    with pytest.raises(z.DomainError, match="couplings"):
        z.DiscretizedBath([0.5, 1.5, 2.5], couplings, 3.0)


@pytest.mark.parametrize("omega_max", [math.inf, math.nan, 0.0, -3.0])
def test_bath_rejects_bad_omega_max(omega_max):
    with pytest.raises(z.DomainError, match="omega_max"):
        z.DiscretizedBath([0.5, 1.5, 2.5], [0.1, 0.1, 0.2], omega_max)


@pytest.mark.parametrize("M", [2, 3, 4, 5, 16, 24, 64, 101, 200, 301, 400, 600, 1200])
def test_gauss_legendre_rule(M):
    x, w = _gauss_legendre(M)
    # exact on x^{2j} for every j < M (odd powers vanish by symmetry)
    j = np.arange(M)
    moments = (x[None, :] ** (2 * j[:, None])) @ w
    assert np.max(np.abs(moments - 2.0 / (2 * j + 1))) <= 1e-14
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    xl, wl = np.polynomial.legendre.leggauss(M)
    assert np.max(np.abs(x - xl)) <= 2e-16
    # leggauss's own end weights are off by up to ~6e-10 relative for
    # M <= 600 and by 1.2e-8 at M = 1200 (against 50-digit references), so
    # past 600 only the moments above check the end weights
    if M <= 600:
        assert np.max(np.abs(w / wl - 1.0)) <= 1e-9


def test_gauss_legendre_rule_is_cached_read_only(oracle_ff):
    oracle._gauss_legendre_rule.cache_clear()
    x, w = _gauss_legendre(300)
    x2, w2 = _gauss_legendre(np.int64(300))     # the same entry as int 300
    assert x2 is x and w2 is w
    assert z.build_bath(oracle_ff, 6.0, np.int64(300)).n_modes == 300
    assert oracle._gauss_legendre_rule.cache_info().currsize == 1
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("M", [101, 301, 600, 1200])
def test_gauss_legendre_recurrence_passes(M, monkeypatch):
    # two Halley passes from Tricomi's start, none once the rule is cached
    passes = []
    real = numerics._legendre
    monkeypatch.setattr(numerics, "_legendre",
                        lambda m, x: passes.append(m) or real(m, x))
    oracle._gauss_legendre_rule.cache_clear()
    _gauss_legendre(M)
    assert 1 <= len(passes) <= 2
    passes.clear()
    _gauss_legendre(M)
    assert passes == []


def test_bath_cold_and_warm_cache_bit_identical(oracle_ff):
    oracle._gauss_legendre_rule.cache_clear()
    cold = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
    warm = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
    assert np.array_equal(cold.omegas, warm.omegas)
    assert np.array_equal(cold.couplings, warm.couplings)


@pytest.mark.parametrize("M", [300.0, 300.5, "300", None])
def test_mode_count_must_be_an_integer(oracle_ff, M):
    with pytest.raises(z.DomainError, match="integer"):
        z.build_bath(oracle_ff, 6.0, M)
    with pytest.raises(z.DomainError, match="integer"):
        _gauss_legendre(M)


def _entries(bound):
    # 0 or at least 1e-150 in size: scipy's LAPACK eigensolvers misplace
    # eigenvalues by ~1e-3 when an entry's square underflows (a = pole =
    # 4.06e-161, second pole 0, couplings 1 and 0.5 give +-1.11887 for
    # +-sqrt(1.25) with every driver)
    return st.floats(-bound, bound).filter(lambda x: x == 0 or abs(x) >= 1e-150)


@st.composite
def _arrowheads(draw):
    """(a, poles, couplings): poles in any order, some repeated two or three
    times or one ulp apart, couplings that may be exactly 0, and a diagonal
    entry a that may sit on a pole."""
    poles = []
    for p in draw(st.lists(_entries(3.0), min_size=1, max_size=12)):
        poles += draw(st.sampled_from([[p], [p, p], [p, p, p],
                                       [p, math.nextafter(p, math.inf)]]))
    g = draw(st.lists(st.one_of(st.just(0.0), _entries(2.0)),
                      min_size=len(poles), max_size=len(poles)))
    a = draw(st.one_of(_entries(3.0), st.sampled_from(poles)))
    return a, np.array(poles), np.array(g)


@settings(max_examples=200, deadline=None)
@given(_arrowheads())
def test_spectral_measure_matches_dense(arrowhead):
    a, poles, g = arrowhead
    ev, w = _spectral_measure(a, poles, g)
    d = poles.size + 1
    H = np.diag(np.concatenate([[a], poles]))
    H[0, 1:] = H[1:, 0] = g
    scale = max(abs(a), np.max(np.abs(poles)), math.hypot(*g))
    assert ev.shape == w.shape == (d,)
    assert np.all(np.diff(ev) >= 0.0)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14
    assert np.max(np.abs(ev - eigh(H, eigvals_only=True))) <= 1e-13 * scale


def test_spectral_measure_tiny_entries():
    # entries whose squares underflow, which the dense comparison above
    # leaves out: two levels split by +-g, and a pole within 8 eps of a
    # second one and of a, merged into one coupling sqrt(1.25)
    ev, w = _spectral_measure(0.0, np.array([0.0]), np.array([3.2e-212]))
    assert ev == pytest.approx([-3.2e-212, 3.2e-212], rel=1e-15)
    assert w == pytest.approx([0.5, 0.5], abs=1e-15)
    tiny = 4.0615774931220265e-161
    ev, w = _spectral_measure(tiny, np.array([tiny, 0.0]), np.array([1.0, 0.5]))
    assert ev == pytest.approx([-math.sqrt(1.25), 0.0, math.sqrt(1.25)],
                               abs=1e-15)
    assert w == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)


def test_spectral_measure_large_model(oracle_ff):
    # d = 4001: beyond what a dense eigensolver affords in the suite
    bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 2000)
    model = z.SingleExcitationModel.qubit(bath, OMEGA, 3.0)
    w, ev = model.weights, model.eigenvalues
    assert ev.size == 4001 and np.all(w > 0.0)
    assert abs(w.sum() - 1.0) <= 1e-13
    mean = np.sum(w * ev)
    assert abs(mean - 0.5 * OMEGA) <= 1e-13
    assert np.sum(w * (ev - mean) ** 2) == pytest.approx(
        bath.coupling_sum_rule, rel=1e-12)
    # every pole is live, and the eigenvalues strictly interlace the poles
    poles = np.sort(np.concatenate([bath.omegas - 3.0, bath.omegas + 3.0])
                    - 0.5 * OMEGA)
    assert np.all(ev[:-1] < poles) and np.all(poles < ev[1:])


def _fit_free_rate(model, t_lo, t_hi, n=60):
    ts = np.linspace(t_lo, t_hi, n)
    P = z.free_survival(model, ts)
    return z.fit_decay_rate(list(zip(ts, P)))


def test_free_survival_examples(free_model, oracle_ff, oracle_tsd0):
    assert z.free_survival(free_model, 0.0) == pytest.approx(1.0, abs=1e-12)
    # short-time quadratic region: 1 - P = (t/tau_Z)^2 within 1% at t = 0.01 tau_Z
    tau_z = z.zeno_time(oracle_tsd0)
    t0 = 0.01 * tau_z
    assert 1.0 - z.free_survival(free_model, t0) == pytest.approx(
        (t0 / tau_z) ** 2, rel=0.01)
    # golden-rule window: fitted slope within 5%
    gamma = 2.0 * math.pi * z.bare_density(oracle_ff, OMEGA)
    fit = _fit_free_rate(free_model, 8.0, min(0.75 * free_model.recurrence_time,
                                              1.5 / gamma))
    assert fit.rate == pytest.approx(gamma, rel=0.05)


def test_linear_vs_gauss_legendre(oracle_ff):
    gamma = 2.0 * math.pi * z.bare_density(oracle_ff, OMEGA)
    rates = []
    for build in _BATHS.values():
        bath = build(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
        model = z.SingleExcitationModel.qubit(bath, OMEGA)
        fit = _fit_free_rate(model, 8.0, min(0.75 * model.recurrence_time,
                                             1.5 / gamma))
        rates.append(fit.rate)
    assert rates[0] == pytest.approx(rates[1], rel=0.02)


def test_recurrence_guard(free_model):
    with pytest.raises(z.RecurrenceWindowExceeded):
        z.free_survival(free_model, 10.0 * free_model.recurrence_time)


def test_zeno_survival_examples(free_model, oracle_tsd0):
    # effective rate against the analytic sinc^2 integral (zero-T density)
    for tau in (0.1, 0.5, 2.0):
        eff = z.zeno_effective_rate(free_model, tau)
        assert eff == pytest.approx(z.zeno_rate(oracle_tsd0, OMEGA, tau),
                                    rel=0.10)
    # small-tau linear region: rate/tau -> 1/tau_Z^2 within 5%
    tau = 0.02
    assert z.zeno_effective_rate(free_model, tau) / tau == pytest.approx(
        z.zeno_time(oracle_tsd0) ** -2, rel=0.05)


# one strategy per protocol at the reference configuration, with the mode
# count, period or coupling and rel-gap bound of that protocol's own test
@pytest.mark.parametrize("strategy,M,bound", [
    (z.Free(), 400, 0.05),
    (z.ZenoMeasurement(0.5), 400, 0.10),
    (z.BangBangKick(0.5), 600, 0.15),
    (z.ContinuousCoupling(5.0), 600, 0.15)])
def test_effective_rate_matches_strategy_rate(oracle_ff, oracle_tsd0,
                                              strategy, M, bound):
    fit = z.effective_rate(oracle_ff, OMEGA, strategy, M, 200)
    target = z.strategy_rate(oracle_tsd0, OMEGA, strategy)
    assert abs(fit.rate - target) / target <= bound


# a non-strategy, or a strategy holding an array of periods or couplings
@pytest.mark.parametrize("strategy", [
    "zeno", None, 0.5, z.ZenoMeasurement(np.array([0.1, 0.5])),
    z.BangBangKick(np.array([0.5, 0.7])), z.ContinuousCoupling(np.array([2.0]))])
def test_effective_rate_domain_errors(oracle_ff, strategy):
    with pytest.raises(z.DomainError):
        z.effective_rate(oracle_ff, OMEGA, strategy, 300, 200)


def _kick_span(ff, tau):
    return max(12.0 * ff.cutoff, OMEGA + math.pi / tau + 3.0 * ff.cutoff)


@pytest.mark.parametrize("M, tau", [(100, 0.5), (200, 1.0), (300, 0.558)])
def test_kick_recurrence_checked_before_any_model(oracle_ff, monkeypatch,
                                                  M, tau):
    # the named mode count is the smallest whose bath reaches N tau, and
    # the search adds no rule but M's to the rule cache
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(oracle, "_spectral_measure", no_model)
    n_cycles = 400
    misses = oracle._gauss_legendre_rule.cache_info().misses
    with pytest.raises(z.RecurrenceWindowExceeded) as info:
        z.effective_rate(oracle_ff, OMEGA, z.BangBangKick(tau), M, n_cycles)
    assert oracle._gauss_legendre_rule.cache_info().misses - misses <= 1
    need = int(str(info.value).split("at least ")[1].split()[0])
    assert M < need <= 4 * M
    span = _kick_span(oracle_ff, tau)
    t_rec = lambda m: z.build_bath(oracle_ff, span, m).recurrence_time
    assert t_rec(need - 1) < n_cycles * tau <= t_rec(need)


# M = 100 on the reference bath: the M + 1/2 estimate of the mode count
# falls one short (122 for 123, 374 for 375) or one over (106 for 105)
@pytest.mark.parametrize("strategy, n_cycles, t_max, short", [
    (z.ZenoMeasurement(81.67), 200, 81.67, 1),
    (z.ZenoMeasurement(70.34), 200, 70.34, -1),
    (z.BangBangKick(0.355), 400, 400 * 0.355, 1)])
def test_recurrence_count_corrects_its_estimate(oracle_ff, monkeypatch,
                                                strategy, n_cycles, t_max,
                                                short):
    # the rules step the estimate to the smallest count whose bath reaches
    # t_max, adding no rule but M's to the rule cache
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(oracle, "_spectral_measure", no_model)
    M = 100
    misses = oracle._gauss_legendre_rule.cache_info().misses
    with pytest.raises(z.RecurrenceWindowExceeded) as info:
        z.effective_rate(oracle_ff, OMEGA, strategy, M, n_cycles)
    assert oracle._gauss_legendre_rule.cache_info().misses - misses <= 1
    need = int(str(info.value).split("at least ")[1].split()[0])
    span = (_kick_span(oracle_ff, strategy.tau)
            if isinstance(strategy, z.BangBangKick) else 12.0 * oracle_ff.cutoff)
    t_rec = lambda m: z.build_bath(oracle_ff, span, m).recurrence_time
    assert t_rec(need - 1) < t_max <= t_rec(need)
    estimate = math.ceil((M + 0.5) * t_max / t_rec(M) - 0.5)
    assert estimate == need - short


@pytest.mark.parametrize("M, tau", [(50, 1.0), (200, 3.0)])
def test_kick_recurrence_estimates_counts_beyond_four_m(oracle_ff,
                                                        monkeypatch, M, tau):
    # above 4 M no rule but M's is built; the M + 1/2 estimate is named
    # and lies within two modes of the smallest count that reaches N tau
    built = []
    legendre = numerics._legendre
    monkeypatch.setattr(numerics, "_legendre",
                        lambda m, x: built.append(m) or legendre(m, x))
    n_cycles = 400
    with pytest.raises(z.RecurrenceWindowExceeded) as info:
        z.effective_rate(oracle_ff, OMEGA, z.BangBangKick(tau), M, n_cycles)
    assert set(built) <= {M}
    need = int(str(info.value).split("needs about ")[1].split()[0])
    assert need > 4 * M
    span = _kick_span(oracle_ff, tau)
    t_rec = lambda m: z.build_bath(oracle_ff, span, m).recurrence_time
    assert t_rec(need - 3) < n_cycles * tau <= t_rec(need + 2)


def test_kick_recurrence_overflowing_trace(oracle_ff):
    # an N tau beyond float range is reported, not an OverflowError
    with pytest.raises(z.RecurrenceWindowExceeded, match="no mode count"):
        z.effective_rate(oracle_ff, OMEGA, z.BangBangKick(1.0), 50, 10 ** 400)


def test_zeno_monotone_in_linear_region(free_model):
    taus = np.linspace(0.01, 0.1, 8)
    effs = [z.zeno_effective_rate(free_model, t) for t in taus]
    assert all(a < b for a, b in zip(effs, effs[1:]))


def test_kick_survival_against_series(kick_model, oracle_tsd0):
    tau, N = 0.5, 200
    t, P = z.kick_survival_trace(kick_model, tau, N)
    sel = (np.arange(N) % 2 == 1) & (t >= 0.25 * N * tau)
    fit = z.fit_decay_rate(list(zip(t[sel], P[sel])))
    target = z.kick_rate(oracle_tsd0, OMEGA, tau).gamma
    assert fit.rate == pytest.approx(target, rel=0.15)


def test_kick_suppression_side(kick_model, oracle_ff):
    # tau = 0.05: every comb line is beyond the spectral support
    gamma = 2.0 * math.pi * z.bare_density(oracle_ff, OMEGA)
    P = z.kick_survival_trace(kick_model, 0.05, 200)[1][-1]
    eff = -math.log(P) / (200 * 0.05)
    assert eff < 0.01 * gamma


def test_kick_long_tau_approaches_free(kick_model):
    # kicks become irrelevant once tau is long on the comb scale pi/Omega
    tau, N = 100.0, 2
    P = z.kick_survival_trace(kick_model, tau, N)[1][-1]
    eff = -math.log(P) / (N * tau)
    free = -math.log(z.free_survival(kick_model, N * tau)) / (N * tau)
    assert eff == pytest.approx(free, rel=0.10)


def test_kick_requires_even_n(kick_model):
    with pytest.raises(z.OddN):
        z.kick_survival_trace(kick_model, 0.5, 3)


def test_continuous_survival(continuous_model_k5, kick_model, oracle_ff):
    # K = 0 ancilla model reproduces the free dynamics exactly
    ts = np.linspace(0.0, 50.0, 9)
    qubit_bath = z.build_bath(oracle_ff, kick_model.bath.omega_max,
                              kick_model.bath.n_modes)
    qubit = z.SingleExcitationModel.qubit(qubit_bath, OMEGA)
    P_anc = z.continuous_survival(kick_model, 0.0, ts)
    P_free = z.free_survival(qubit, ts)
    assert np.allclose(P_anc, P_free, atol=1e-12)
    # K = 5: fitted rate against pi kappa(Omega + K) within 15%
    model = continuous_model_k5
    an = math.pi * z.bare_density(oracle_ff, OMEGA + 5.0)
    ts = np.linspace(30.0, 0.8 * model.recurrence_time, 60)
    P = z.continuous_survival(model, 5.0, ts)
    fit = z.fit_decay_rate(list(zip(ts, P)))
    assert fit.rate == pytest.approx(an, rel=0.15)
    with pytest.raises(z.DomainError):
        z.continuous_survival(model, 1.0, 5.0)   # model carries K = 5


def test_continuous_monotone_suppression(oracle_ff):
    # beyond K* the fitted rate decreases with K
    bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 400)
    fits = []
    for K in (2.0, 3.5, 5.0):
        model = z.SingleExcitationModel.qubit(bath, OMEGA, K)
        ts = np.linspace(30.0, 0.75 * model.recurrence_time, 50)
        P = z.continuous_survival(model, K, ts)
        fits.append(z.fit_decay_rate(list(zip(ts, P))).rate)
    assert fits[0] > fits[1] > fits[2]


def test_unitarity(kick_dense_hamiltonian):
    # total probability over the full 2M+1 basis stays 1 through the dense
    # reference kick loop
    for psi in _dense_kick_states(kick_dense_hamiltonian, 0.7, 8):
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_kick_trace_matches_dense_reference(kick_model, kick_dense_hamiltonian):
    tau, N = 0.5, 200
    _, P = z.kick_survival_trace(kick_model, tau, N)
    P_dense = [abs(psi[0]) ** 2
               for psi in _dense_kick_states(kick_dense_hamiltonian, tau, N)]
    assert np.max(np.abs(P - P_dense)) <= 1e-10


def test_continuous_matches_dense_reference(continuous_model_k5):
    model = continuous_model_k5
    ts = np.linspace(0.0, 0.8 * model.recurrence_time, 60)
    P_dense = _dense_survival(_ancilla_hamiltonian(model.bath, OMEGA, 5.0), ts)
    P = z.continuous_survival(model, 5.0, ts)
    assert np.max(np.abs(P - P_dense)) <= 1e-12


# K = j * step / 2 on the midpoint grid makes poles omega_i + K and
# omega_{i+j} - K of the doubled bath coincide; the examples pin both
# deflation paths: a doubled bath whose halves coincide (K = 1e-17) and
# coinciding poles of the two halves (K = step)
@settings(max_examples=40, deadline=None)
@example(M=20, scheme="gauss-legendre", K=1e-17, half_steps=None,
         ancilla=True, frac=0.5)
@example(M=12, scheme="midpoint", K=0.0, half_steps=2, ancilla=True, frac=0.5)
@given(M=st.integers(2, 40),
       scheme=st.sampled_from(list(_BATHS)),
       K=st.floats(0.0, 3.0),
       half_steps=st.one_of(st.none(), st.integers(0, 40)),
       ancilla=st.booleans(),
       frac=st.floats(0.05, 0.95))
def test_spectral_measure_invariants(oracle_ff, M, scheme, K, half_steps,
                                     ancilla, frac):
    omega_max = 12.0 * oracle_ff.cutoff
    if half_steps is not None:
        K = half_steps * 0.5 * omega_max / M
        assume(K <= 3.0)
    bath = _BATHS[scheme](oracle_ff, omega_max, M)
    if ancilla:
        model = z.SingleExcitationModel.qubit(bath, OMEGA, K)
    else:
        model = z.SingleExcitationModel.qubit(bath, OMEGA)
        K = 0.0
    w, ev = model.weights, model.eigenvalues
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    # first moments of the measure: <H> = Omega/2 and Var H = sum g_i^2,
    # which the doubled bath (couplings g_i / sqrt 2, twice) must keep
    mean = np.sum(w * ev)
    assert mean == pytest.approx(0.5 * OMEGA, abs=1e-12)
    assert np.sum(w * (ev - mean) ** 2) == pytest.approx(
        bath.coupling_sum_rule, rel=1e-10)

    H = _ancilla_hamiltonian(bath, OMEGA, K)
    ts = np.linspace(0.0, frac * bath.recurrence_time, 25)
    P = z.free_survival(model, ts)
    assert np.all((P >= 0.0) & (P <= 1.0 + 1e-12))
    assert np.max(np.abs(P - _dense_survival(H, ts))) <= 1e-10
    if ancilla:
        N = 6
        _, Pk = z.kick_survival_trace(model, frac * bath.recurrence_time / N, N)
        P_dense = [abs(psi[0]) ** 2 for psi in
                   _dense_kick_states(H, frac * bath.recurrence_time / N, N)]
        assert np.all((Pk >= 0.0) & (Pk <= 1.0 + 1e-12))
        assert np.max(np.abs(Pk - P_dense)) <= 1e-10


def test_discretization_convergence_free(oracle_ff):
    gamma = 2.0 * math.pi * z.bare_density(oracle_ff, OMEGA)
    rates = []
    for M in (200, 400):
        bath = z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, M)
        model = z.SingleExcitationModel.qubit(bath, OMEGA)
        t_hi = min(0.7 * model.recurrence_time, 1.5 / gamma)
        rates.append(_fit_free_rate(model, 8.0, t_hi).rate)
    assert abs(rates[1] - rates[0]) / rates[0] < 0.02


def test_discretization_convergence_kick(oracle_ff, kick_model):
    tau, N = 0.5, 200
    rates = []
    for model in (_half_kick_model(oracle_ff, kick_model), kick_model):
        t, P = z.kick_survival_trace(model, tau, N)
        sel = (np.arange(N) % 2 == 1) & (t >= 0.25 * N * tau)
        rates.append(z.fit_decay_rate(list(zip(t[sel], P[sel]))).rate)
    assert abs(rates[1] - rates[0]) / rates[0] < 0.02


def _half_kick_model(oracle_ff, kick_model):
    bath = z.build_bath(oracle_ff, kick_model.bath.omega_max,
                        kick_model.bath.n_modes // 2)
    return z.SingleExcitationModel.qubit(bath, OMEGA)


def test_discretization_convergence_continuous(oracle_ff, continuous_model_k5):
    K = 5.0
    rates = []
    for model in (z.SingleExcitationModel.qubit(
            z.build_bath(oracle_ff, 12.0 * oracle_ff.cutoff, 300), OMEGA, K),
            continuous_model_k5):
        ts = np.linspace(30.0, 0.75 * model.recurrence_time, 50)
        P = z.continuous_survival(model, K, ts)
        rates.append(z.fit_decay_rate(list(zip(ts, P))).rate)
    assert abs(rates[1] - rates[0]) / rates[0] < 0.02


def test_fit_decay_rate():
    ts = np.linspace(1.0, 40.0, 25)
    fit = z.fit_decay_rate([(t, math.exp(-0.3 * t)) for t in ts])
    assert fit.rate == pytest.approx(0.3, abs=1e-10)
    assert fit.residual < 1e-12
    rng = np.random.default_rng(5)
    noisy = [(t, math.exp(-0.3 * t) * (1.0 + 0.01 * rng.normal()))
             for t in ts]
    assert z.fit_decay_rate(noisy).rate == pytest.approx(0.3, rel=0.03)
    flat = z.fit_decay_rate([(t, 1.0) for t in ts])
    assert abs(flat.rate) <= 1e-12
    with pytest.raises(z.WindowTooShort):
        z.fit_decay_rate([(1.0, 0.5)] * 5)
    with pytest.raises(z.NonPositiveProbability):
        z.fit_decay_rate([(t, -1.0) for t in ts])
