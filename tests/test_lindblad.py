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
    with pytest.raises(z.InvalidState, match="2x2"):
        z.QubitDensityMatrix(np.eye(3) / 3.0)


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


@pytest.mark.parametrize("beta", [math.nan, 0.0, -1.0])
def test_generator_rejects_bad_beta(beta):
    # NaN and -1 passed, and evolve then blamed the state
    with pytest.raises(z.DomainError, match="beta"):
        z.QubitGenerator(OMEGA, 0.1, 1.0, 0.5, beta=beta)


def test_generator_at_zero_temperature():
    # beta = +inf is zero temperature, as in ThermalSpectralDensity:
    # detailed balance then means no absorption
    assert z.QubitGenerator(OMEGA, 0.1, 1.0, 0.0, beta=math.inf).detailed_balance
    assert not z.QubitGenerator(OMEGA, 0.1, 1.0, 0.5).detailed_balance


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



def _scalar_evolve(rho0, gen, t):
    """The closed form at one time in scalar arithmetic (Python floats and
    complexes, math's exp, cos and sin): the matrix per-step evolution
    built before trajectory existed."""
    x0, y0, z0 = rho0.bloch
    g1 = gen.relaxation_rate
    if g1 > 0:
        z_inf = (gen.gamma_up - gen.gamma_down) / g1
        zz = z_inf + (z0 - z_inf) * math.exp(-g1 * t)
    else:
        zz = z0
    decay = math.exp(-gen.transverse_rate * t)
    phase = gen.omega0 * t
    c, s = math.cos(phase), math.sin(phase)
    x = decay * (x0 * c - y0 * s)
    y = decay * (x0 * s + y0 * c)
    return 0.5 * np.array([[1.0 + zz, x - 1j * y], [x + 1j * y, 1.0 - zz]])


_STATES = {
    "up": z.QubitDensityMatrix.excited(),
    "down": z.QubitDensityMatrix.ground(),
    "mixed": z.QubitDensityMatrix.maximally_mixed(),
    "plus": z.QubitDensityMatrix.from_bloch(1.0, 0.0, 0.0),
    "general": z.QubitDensityMatrix.from_bloch(-0.3, 0.5, -0.6),
}


@pytest.mark.parametrize("strategy", [
    z.Free(), z.ZenoMeasurement(1.7), z.BangBangKick(1.7),
    z.ContinuousCoupling(2.3)], ids=["free", "zeno", "kick", "continuous"])
def test_trajectory_rows_are_the_per_step_matrices(tsd_exp, strategy):
    # bit for bit, signed zeros included: t = 0, a lin and a log grid, with
    # and without the spin-flip channel (g = 0 keeps z fixed)
    ff0 = z.FormFactor(z.EXPONENTIAL, g=0.5, cutoff=tsd_exp.base.cutoff)
    gens = [z.build_qubit_generator(tsd_exp, ff0.thermal(BETA), OMEGA, strategy),
            z.build_qubit_generator(None, ff0.thermal(BETA), OMEGA, strategy)]
    for gen in gens:
        scale = max(gen.relaxation_rate, gen.transverse_rate)
        grids = [np.zeros(1), np.linspace(0.0, 10.0 / scale, 201),
                 np.logspace(-3.0, 4.0, 73)]
        for rho in _STATES.values():
            for times in grids:
                stack = z.trajectory(rho, gen, times)
                assert stack.shape == (times.size, 2, 2)
                for m, t in zip(stack, times.tolist()):
                    assert m.tobytes() == _scalar_evolve(rho, gen, t).tobytes()
                    assert m.tobytes() == z.evolve(rho, gen, t).matrix.tobytes()


def test_observables_of_a_stack_are_the_properties(tsd_exp):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    times = np.linspace(0.0, 5.0 / gen.relaxation_rate, 17)
    for rho in _STATES.values():
        columns = z.observables(z.trajectory(rho, gen, times))
        assert all(c.shape == times.shape for c in columns)
        for i, t in enumerate(times):
            st = z.evolve(rho, gen, float(t))
            assert tuple(c[i] for c in columns) == (st.p_up, *st.bloch, st.purity)
            # read back from the matrix as the per-step properties did:
            # z = Re(m00 - m11) differs from 2 p_up - 1 in the last bit
            m = st.matrix
            x, y = float(2.0 * m[1, 0].real), float(2.0 * m[1, 0].imag)
            zz = float((m[0, 0] - m[1, 1]).real)
            assert st.bloch == (x, y, zz)
            assert (st.p_up, st.purity) == (
                float(m[0, 0].real), 0.5 * (1.0 + x * x + y * y + zz * zz))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_trajectory_rejects_bad_times(tsd_exp, bad):
    gen = z.build_qubit_generator(tsd_exp, None, OMEGA)
    with pytest.raises(z.DomainError, match="evolution time t"):
        z.trajectory(z.QubitDensityMatrix.excited(), gen, [0.0, 1.0, bad])


def test_bloch_matrices_check_every_row():
    # |r| <= 1 + 1e-12 holds row by row, as from_bloch checks one vector
    from zenolab.lindblad import _bloch_matrices
    ok = _bloch_matrices(np.array([0.0, 0.6]), np.array([0.0, 0.8]),
                         np.array([1.0, 0.0]))
    assert ok.shape == (2, 2, 2)
    with pytest.raises(z.InvalidState, match=r"\|r\| <= 1"):
        _bloch_matrices(np.array([0.0, 0.6]), np.array([0.0, 0.8]),
                        np.array([1.0, 1e-5]))
