import math

import numpy as np
import pytest

import zenolab as z

OMEGA = 0.01
BETA = 50.0


def random_states(n, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.normal(size=3)
        r = rng.uniform(0.0, 1.0) ** (1 / 3)
        v *= r / np.linalg.norm(v)
        out.append(z.QubitDensityMatrix.from_bloch(*v))
    return out


def test_state_validation():
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix(np.array([[0.6, 0.1], [0.2, 0.4]]))  # not Hermitian
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix(np.diag([0.7, 0.7]))                 # trace != 1
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix(np.diag([1.5, -0.5]))                # negative eig
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix.from_bloch(1.0, 1.0, 0.0)
    # NaN fails every comparison, so each check above would pass it
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix(np.full((2, 2), np.nan))
    with pytest.raises(z.InvalidState):
        z.QubitDensityMatrix.from_bloch(math.nan, 0.0, 0.0)


def test_generator_construction_free(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    assert gen.detailed_balance
    assert gen.gamma_dephase == 0.0            # g_0 = 0: spin-flip only
    assert gen.gamma_down == pytest.approx(z.golden_rule_rate(tsd_exp, OMEGA),
                                           rel=1e-14)
    ff0 = z.FormFactor(z.EXPONENTIAL, g=0.5, cutoff=tsd_exp.base.cutoff)
    gen2 = z.build_qubit_generator(tsd_exp, ff0.thermal(BETA), OMEGA)
    assert gen2.gamma_dephase == pytest.approx(2 * math.pi * 0.25 / BETA,
                                               rel=1e-14)


def test_generator_rejects_nonfinite_splitting(tsd_exp):
    # inf passes '> 0'; it must not reach evolve as a math domain error
    for omega0 in (math.inf, math.nan):
        with pytest.raises(z.DomainError):
            z.build_qubit_generator(tsd_exp, None, omega0)


def test_generator_zeno_limit_recovers_free(tsd_exp):
    ff0 = z.FormFactor(z.EXPONENTIAL, g=1.0, cutoff=tsd_exp.base.cutoff)
    tsd0 = ff0.thermal(BETA)
    free = z.build_qubit_generator(tsd_exp, tsd0, OMEGA)
    zeno = z.build_qubit_generator(tsd_exp, tsd0, OMEGA,
                                   z.ZenoMeasurement(1e4))
    assert zeno.gamma_down == pytest.approx(free.gamma_down, rel=0.01)
    assert zeno.gamma_up == pytest.approx(free.gamma_up, rel=0.01)
    assert zeno.gamma_dephase == pytest.approx(free.gamma_dephase, rel=0.01)


def test_generator_controlled_strategies(tsd_exp):
    # every channel is its strategy's rate kernel, bit for bit: emission at
    # Omega, absorption at -Omega, dephasing at 0 (finite beta and beta = inf)
    ff0 = z.FormFactor(z.EXPONENTIAL, g=0.5, cutoff=tsd_exp.base.cutoff)
    kernels = [
        (z.Free(), z.golden_rule_rate),
        (z.ZenoMeasurement(2.0), lambda tsd, c: z.zeno_rate(tsd, c, 2.0)),
        (z.BangBangKick(1.0), lambda tsd, c: z.kick_rate(tsd, c, 1.0).gamma),
        (z.ContinuousCoupling(0.5),
         lambda tsd, c: z.continuous_rate(tsd, c, 0.5)),
    ]
    for beta in (BETA, math.inf):
        tsd_flip = tsd_exp.base.thermal(beta)
        tsd_deph = ff0.thermal(beta)
        for strategy, rate in kernels:
            gen = z.build_qubit_generator(tsd_flip, tsd_deph, OMEGA, strategy)
            assert gen.gamma_down == rate(tsd_flip, OMEGA)
            assert gen.gamma_up == rate(tsd_flip, -OMEGA)
            assert gen.gamma_dephase == rate(tsd_deph, 0.0)
        free = z.build_qubit_generator(tsd_flip, tsd_deph, OMEGA)
        assert free.gamma_dephase == z.golden_rule_rate(tsd_deph, 0.0)


def test_evolve_examples(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    rho = z.QubitDensityMatrix.from_bloch(0.3, -0.2, 0.4)
    out = z.evolve(rho, gen, 0.0)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)
    # pure decay: p_up(t) = e^{-gamma_down t}
    g = 0.37
    decay = z.QubitGenerator(OMEGA, 0.0, g, 0.0)
    up = z.QubitDensityMatrix.excited()
    for t in (0.5, 2.0, 7.0):
        assert z.evolve(up, decay, t).p_up == pytest.approx(math.exp(-g * t),
                                                            rel=1e-12)
    # maximally mixed state converges to the Gibbs populations
    gen_db = z.build_qubit_generator(tsd_exp, None, OMEGA)
    t_long = 20.0 / gen_db.relaxation_rate
    final = z.evolve(z.QubitDensityMatrix.maximally_mixed(), gen_db, t_long)
    target = z.stationary_state(gen_db)
    assert np.allclose(final.matrix, target.matrix, atol=1e-9)


def test_stationary_state(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    st = z.stationary_state(gen)
    assert st.p_up / (1.0 - st.p_up) == pytest.approx(math.exp(-BETA * OMEGA),
                                                      rel=1e-10)
    sym = z.QubitGenerator(OMEGA, 0.0, 0.3, 0.3)
    assert z.stationary_state(sym).p_up == pytest.approx(0.5, rel=1e-14)
    # zero temperature -> ground state
    tsd0 = tsd_exp.base.thermal(math.inf)
    gen0 = z.build_qubit_generator(tsd0, None, 0.2)
    assert z.stationary_state(gen0).p_up == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(z.NoRelaxation):
        z.stationary_state(z.QubitGenerator(OMEGA, 0.1, 0.0, 0.0))


def test_trace_and_positivity_invariants(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    horizon = 10.0 / gen.relaxation_rate
    rng = np.random.default_rng(11)
    for rho in random_states(100):
        t = float(rng.uniform(0.0, horizon))
        out = z.evolve(rho, gen, t)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10


def test_semigroup_property(tsd_exp):
    ff0 = z.FormFactor(z.EXPONENTIAL, g=0.8, cutoff=tsd_exp.base.cutoff)
    gen = z.build_qubit_generator(tsd_exp, ff0.thermal(BETA), OMEGA)
    for rho in random_states(10, seed=3):
        a = z.evolve(z.evolve(rho, gen, 1.3), gen, 2.9)
        b = z.evolve(rho, gen, 4.2)
        assert np.allclose(a.matrix, b.matrix, atol=1e-10)


def test_gibbs_fixed_point(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    assert gen.detailed_balance
    st = z.stationary_state(gen)
    out = z.evolve(st, gen, 5.0 / gen.relaxation_rate)
    assert np.allclose(out.matrix, st.matrix, atol=1e-10)


def test_controlled_generator_suppression(tsd_exp, reports_exp):
    free = z.build_qubit_generator(tsd_exp, None, OMEGA)
    tau_star = reports_exp[0].star_value
    fast = z.build_qubit_generator(tsd_exp, None, OMEGA,
                                   z.ZenoMeasurement(0.3 * tau_star))
    slow = z.build_qubit_generator(tsd_exp, None, OMEGA,
                                   z.ZenoMeasurement(2.0 * tau_star))
    assert fast.relaxation_rate < free.relaxation_rate
    assert slow.relaxation_rate > free.relaxation_rate


def test_observables():
    mixed = z.QubitDensityMatrix.maximally_mixed()
    assert mixed.purity == pytest.approx(0.5, rel=1e-14)
    up = z.QubitDensityMatrix.excited()
    assert up.bloch == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    assert up.p_up == 1.0
    # Gibbs populations at beta Omega = 0.5
    p = math.exp(-0.5) / (1.0 + math.exp(-0.5))
    gibbs = z.QubitDensityMatrix.from_bloch(0.0, 0.0, 2 * p - 1)
    assert gibbs.p_up == pytest.approx(p, rel=1e-12)
    assert abs(gibbs.matrix[0, 1]) == 0.0

