import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import zenolab
from zenolab import cli, errors, numerics, oracle, rates
from zenolab.errors import NoConvergence
from zenolab.cli import main


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    header = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    columns = None
    for line in lines:
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, columns, np.asarray(rows)


def col(columns, data, name):
    return data[:, columns.index(name)]


def test_density_omega_zero_and_zero_temperature(tmp_path):
    code, out = run(tmp_path, "d.csv",
                    ["density", "--grid=-1.0:1.0:41lin"])
    assert code == 0
    header, columns, data = read_csv(out)
    w = col(columns, data, "omega_over_W")
    i0 = int(np.argmin(np.abs(w)))
    assert w[i0] == 0.0
    # kappa_beta(0) = g^2/beta for both families
    assert col(columns, data, "kappa_beta_exp")[i0] == pytest.approx(1.0 / 50.0)
    assert col(columns, data, "kappa_beta_poly")[i0] == pytest.approx(1.0 / 50.0)
    # beta = inf: thermal columns coincide with the bare ones on omega >= 0
    code, out = run(tmp_path, "d0.csv",
                    ["density", "--beta", "inf", "--grid", "0.01:2.0:20lin"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert np.allclose(col(columns, data, "kappa_exp"),
                       col(columns, data, "kappa_beta_exp"))
    assert np.allclose(col(columns, data, "kappa_poly"),
                       col(columns, data, "kappa_beta_poly"))


def test_sweep_zeno_crosses_once(tmp_path):
    code, out = run(tmp_path, "z.csv",
                    ["sweep", "--strategy", "zeno", "--grid", "1e-3:1e2:120log"])
    assert code == 0
    _, columns, data = read_csv(out)
    for name in ("ratio_exp", "ratio_poly"):
        r = col(columns, data, name)
        signs = np.sign(r - 1.0)
        assert np.count_nonzero(signs[:-1] != signs[1:]) == 1


def test_sweep_kick_overshoots_before_settling(tmp_path):
    # the comb series yields a single overshoot hump in this regime: the
    # ratio swings through 1, peaks well above it, then settles back to 1
    code, out = run(tmp_path, "k.csv",
                    ["sweep", "--strategy", "kick", "--grid", "5e-2:1e3:240log"])
    assert code == 0
    _, columns, data = read_csv(out)
    r = col(columns, data, "ratio_exp")
    assert r[0] < 1.0
    maxima = np.count_nonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]))
    assert maxima >= 1
    assert r.max() > 1.5
    assert abs(r[-1] - 1.0) < 0.1


def test_sweep_continuous_free_end(tmp_path):
    hi = 2.0 * math.pi / 5e-5
    code, out = run(tmp_path, "c.csv",
                    ["sweep", "--strategy", "continuous",
                     "--grid", f"1.0:{hi:.6g}:40log"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert abs(col(columns, data, "ratio_exp")[-1] - 1.0) <= 1e-6


def test_crossover_report(tmp_path, capsys):
    code, out = run(tmp_path, "x.csv", ["crossover"])
    assert code == 0
    printed = capsys.readouterr().err
    assert "tau*_Z" in printed and "K*" in printed and "quick estimates" in printed
    _, columns, data = read_csv(out)
    star = col(columns, data, "star_value")
    assert star[1] > star[0]           # tau*_k > tau*_Z
    assert np.all(col(columns, data, "no_crossing") == 0.0)


def test_crossover_stdout_is_a_csv(capsys):
    # the tau* summary goes to stderr, so '--out -' leaves a clean CSV
    assert main(["crossover", "--beta", "inf", "--family", "poly"]) == 0
    captured = capsys.readouterr()
    assert "quick estimates" in captured.err
    body = [line for line in captured.out.splitlines()
            if not line.startswith("#")]
    assert body[0].split(",")[0] == "strategy_index"
    assert len(body) == 4
    for line in body[1:]:
        assert len([float(v) for v in line.split(",")]) == 6


@pytest.mark.parametrize("n", [8, 12])
def test_crossover_serves_polynomial_n_past_seven(tmp_path, n):
    # the small-tau kick estimate reads zeta(2n + 1), past zeta(15) here
    code, out = run(tmp_path, "xp.csv", ["crossover", "--family", "poly",
                                         "--n", str(n)])
    assert code == 0
    _, columns, data = read_csv(out)
    assert len(data) == 3
    assert np.all(np.isfinite(col(columns, data, "star_value")))
    assert np.all(np.isfinite(col(columns, data, "closed_form_estimate")))


def test_crossover_no_crossing_reported(tmp_path):
    # zero temperature at Omega = 0.2 W: the Zeno ratio never exceeds 1
    code, out = run(tmp_path, "xn.csv",
                    ["crossover", "--beta", "inf", "--omega", "0.2"])
    assert code == 0                   # reported, not fatal
    _, columns, data = read_csv(out)
    assert col(columns, data, "no_crossing")[0] == 1.0
    assert math.isnan(col(columns, data, "star_value")[0])


def test_evolve_identity_and_convergence(tmp_path):
    code, out = run(tmp_path, "e.csv", ["evolve", "--state", "up"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert data[0, columns.index("p_up")] == pytest.approx(1.0, abs=1e-12)
    p_inf = math.exp(-0.5) / (1.0 + math.exp(-0.5))
    assert data[-1, columns.index("p_up")] == pytest.approx(p_inf, abs=1e-4)
    # pure dephasing preserves p_up
    code, out = run(tmp_path, "e2.csv",
                    ["evolve", "--state", "plus", "--g", "0", "--g0", "1.0",
                     "--grid", "0:5:21lin"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert np.allclose(col(columns, data, "p_up"), 0.5, atol=1e-12)
    assert col(columns, data, "purity")[-1] < col(columns, data, "purity")[0]
    # g = 0 under control: the coherence decays at twice the controlled
    # dephasing rate, the strategy's rate at centre 0
    tsd0 = zenolab.form_factor_for_bandwidth(zenolab.EXPONENTIAL,
                                             g=0.5).thermal(50.0)
    for name, tau, strategy in (("zeno", 0.7, zenolab.ZenoMeasurement(0.7)),
                                ("kick", 0.3, zenolab.BangBangKick(0.3))):
        code, out = run(tmp_path, "e4.csv",
                        ["evolve", "--g", "0", "--g0", "0.5", "--state", "plus",
                         "--strategy", name, "--tau", str(tau)])
        assert code == 0
        _, columns, data = read_csv(out)
        assert np.all(col(columns, data, "p_up") == 0.5)
        t = col(columns, data, "t")[1:]
        r = np.hypot(col(columns, data, "bloch_x"),
                     col(columns, data, "bloch_y"))[1:]
        gamma_0 = zenolab.strategy_rate(tsd0, 0.0, strategy)
        assert np.allclose(-np.log(r) / t, 2.0 * gamma_0, rtol=1e-12, atol=0.0)
    # the header records the strategy's parameter
    for args, line in ((["--strategy", "kick", "--tau", "0.25"], "# tau: 0.25"),
                       (["--strategy", "continuous", "--K", "3"], "# K: 3")):
        code, out = run(tmp_path, "e3.csv", ["evolve"] + args)
        assert code == 0
        assert line in read_csv(out)[0]


def test_oracle_command_free_and_k0(tmp_path):
    code, out = run(tmp_path, "o.csv",
                    ["oracle", "--protocol", "free", "--modes", "300",
                     "--g", "0.1", "--omega", "0.2", "--beta", "inf"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert data[0, columns.index("rel_gap")] <= 0.05
    code, out = run(tmp_path, "oc.csv",
                    ["oracle", "--protocol", "continuous", "--values", "0",
                     "--modes", "300", "--g", "0.1", "--omega", "0.2"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert data[0, columns.index("rel_gap")] <= 0.05


def test_oracle_command_zeno_rows(tmp_path):
    code, out = run(tmp_path, "oz.csv",
                    ["oracle", "--protocol", "zeno", "--values", "0.1,0.5",
                     "--modes", "300", "--g", "0.1", "--omega", "0.2",
                     "--beta", "inf"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert data.shape[0] == 2
    assert np.all(col(columns, data, "rel_gap") <= 0.10)


def _data_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_oracle_kick_rows_independent_of_shared_rule(tmp_path):
    # every period builds its bath from the one cached M = 300 rule
    numerics._gauss_legendre_rule.cache_clear()
    oracle._qubit_model.cache_clear()
    args = ["oracle", "--protocol", "kick", "--modes", "300"]
    code, both = run(tmp_path, "both.csv", args + ["--values", "0.558,1.0"])
    assert code == 0
    rows = _data_lines(both)
    for i, v in enumerate(["0.558", "1.0"]):
        oracle._qubit_model.cache_clear()
        code, one = run(tmp_path, f"{v}.csv", args + ["--values", v])
        assert code == 0
        assert _data_lines(one) == [rows[0], rows[i + 1]]


def test_oracle_command_cold_and_warm_cache_byte_identical(tmp_path):
    args = ["oracle", "--protocol", "zeno", "--values", "0.1,0.5",
            "--modes", "250", "--g", "0.1", "--omega", "0.2"]
    numerics._gauss_legendre_rule.cache_clear()
    oracle._qubit_model.cache_clear()
    code, cold = run(tmp_path, "cold.csv", args)
    code2, warm = run(tmp_path, "warm.csv", args)
    assert code == code2 == 0
    assert cold.read_bytes() == warm.read_bytes()


def test_oracle_kick_periods_with_equal_spans_share_a_model(tmp_path, monkeypatch):
    # spans 7.14, 6.0 and 6.0: the last two periods share one model
    builds = []
    measure = oracle._spectral_measure

    def counted(*args):
        builds.append(args)
        return measure(*args)
    monkeypatch.setattr(oracle, "_spectral_measure", counted)
    oracle._qubit_model.cache_clear()
    args = ["oracle", "--protocol", "kick", "--modes", "300"]
    values = ["0.558", "0.7", "1.0"]
    code, out = run(tmp_path, "all.csv", args + ["--values", ",".join(values)])
    assert code == 0
    assert len(builds) == 2
    rows = _data_lines(out)
    for i, v in enumerate(values):
        oracle._qubit_model.cache_clear()
        code, one = run(tmp_path, f"{v}.csv", args + ["--values", v])
        assert code == 0
        assert _data_lines(one) == [rows[0], rows[i + 1]]
    model = oracle._qubit_model(cli.RunConfig().form_factor(), 6.0, 300, 0.01, 0.0)
    for arr in (model.eigenvalues, model.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_oracle_continuous_rows_independent_of_value_order(tmp_path):
    # K = 6 widens its bath past Omega + K; the K = 2 row keeps its own span
    args = ["oracle", "--protocol", "continuous", "--modes", "300",
            "--g", "0.1", "--omega", "0.2"]
    oracle._qubit_model.cache_clear()
    code, both = run(tmp_path, "both.csv", args + ["--values", "6,2"])
    assert code == 0
    rows = _data_lines(both)
    for i, v in enumerate(["6", "2"]):
        oracle._qubit_model.cache_clear()
        code, one = run(tmp_path, f"{v}.csv", args + ["--values", v])
        assert code == 0
        assert _data_lines(one) == [rows[0], rows[i + 1]]


def test_oracle_zeno_window_spans_min_to_max(tmp_path):
    args = ["oracle", "--protocol", "zeno", "--modes", "300",
            "--g", "0.1", "--omega", "0.2"]
    for values, window in (("2,0.1,0.5", "0.1..2"), ("0.1,0.5,2", "0.1..2")):
        code, out = run(tmp_path, "z.csv", args + ["--values", values])
        assert code == 0
        assert f"# window: {window}" in read_csv(out)[0]


def test_oracle_window_header_spans_every_row(tmp_path):
    # kick fits start at N/4 cycles, so the shortest period starts first
    for args, window in (
            (["--protocol", "kick", "--values", "0.558,1.0"], "27.9..200"),
            (["--protocol", "continuous", "--g", "0.1", "--omega", "0.2",
              "--values", "2,6"], "12..160.268")):
        code, out = run(tmp_path, "w.csv", ["oracle", "--modes", "300"] + args)
        assert code == 0
        assert f"# window: {window}" in read_csv(out)[0]


def test_oracle_free_rejects_values(tmp_path):
    code, out = run(tmp_path, "f.csv",
                    ["oracle", "--protocol", "free", "--values", "1,2"])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("protocol,values", [
    ("free", []), ("zeno", [0.1, 0.5]), ("kick", [0.558, 1.0]),
    ("continuous", [2.0, 6.0])])
def test_oracle_columns_are_effective_and_strategy_rates(tmp_path, protocol,
                                                         values):
    common = ["--g", "0.1", "--omega", "0.2", "--beta", "inf"]
    argv = ["oracle", "--protocol", protocol, "--modes", "300"] + common
    if values:
        argv += ["--values", ",".join(map(repr, values))]
    code, out = run(tmp_path, "o.csv", argv)
    assert code == 0
    _, columns, data = read_csv(out)
    cfg = cli._config_from(cli._build_parser().parse_args(argv))
    ff = cfg.form_factor()
    for row, v in zip(data, values or [cfg.omega0]):
        strategy = cli._STRATEGIES[protocol](v, v)
        assert row[columns.index("rate_oracle")] == oracle.effective_rate(
            ff, cfg.omega0, strategy, 300, 200).rate
        assert row[columns.index("rate_analytic")] == rates.strategy_rate(
            ff.thermal(math.inf), cfg.omega0, strategy)


def test_numerical_failure_exits_3(tmp_path):
    # a Zeno period far beyond the discretized bath's recurrence time
    out = tmp_path / "x.csv"
    code = main(["oracle", "--protocol", "zeno", "--values", "1e4",
                 "--modes", "50", "--g", "0.1", "--omega", "0.2",
                 "--beta", "inf", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_oracle_command_odd_cycles_rejected(tmp_path, capsys, monkeypatch):
    # oracle._plan refuses an odd count, and an even one below 2, which
    # used to fail only after the model was built
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(oracle, "_spectral_measure", no_model)
    oracle._qubit_model.cache_clear()
    for cycles in ("51", "0", "-2"):
        code = main(["oracle", "--protocol", "kick", "--values", "0.5",
                     "--g", "0.1", "--omega", "0.2", "--beta", "inf",
                     "--cycles", cycles, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()
        assert capsys.readouterr().err == (
            "zenolab: configuration error: kick protocol requires an even "
            "number of cycles >= 2\n")


def test_oracle_kick_cycles_below_24_rejected(tmp_path, capsys, monkeypatch):
    # below 24 cycles the fit has fewer than 10 samples; that exited 3
    # only after the model was built
    def no_model(*args):
        raise AssertionError("a model was built")

    argv = ["oracle", "--protocol", "kick", "--values", "0.5", "--modes",
            "300", "--g", "0.1", "--omega", "0.2", "--beta", "inf"]
    with monkeypatch.context() as m:
        m.setattr(oracle, "_spectral_measure", no_model)
        oracle._qubit_model.cache_clear()
        for cycles in ("2", "22"):
            capsys.readouterr()
            code, out = run(tmp_path, "x.csv", argv + ["--cycles", cycles])
            assert code == 2
            assert not out.exists()
            assert "needs at least 24 cycles" in capsys.readouterr().err
    code, out = run(tmp_path, "x.csv", argv + ["--cycles", "24"])
    assert code == 0
    assert len(read_csv(out)[2]) == 1


def test_oracle_cycles_read_only_by_kick(tmp_path):
    # an odd count is an error only where cycles run, and only kick
    # records them in the header
    code, out = run(tmp_path, "f.csv", ["oracle", "--protocol", "free",
                                        "--cycles", "51", "--modes", "200"])
    assert code == 0
    assert not any(line.startswith("# cycles:") for line in read_csv(out)[0])
    code, out = run(tmp_path, "k.csv", ["oracle", "--protocol", "kick",
                                        "--values", "0.558", "--modes", "300"])
    assert code == 0
    assert "# cycles: 200" in read_csv(out)[0]


def test_oracle_kick_names_the_modes_its_trace_needs(tmp_path, capsys):
    # N tau = 200 outruns the poly bath's recurrence time below M = 382
    args = ["oracle", "--family", "poly", "--protocol", "kick", "--values",
            "1.0", "--g", "0.1", "--omega", "0.2", "--beta", "inf"]
    for modes in ("300", "381"):
        code, out = run(tmp_path, "k.csv", args + ["--modes", modes])
        assert code == 3 and not out.exists()
        assert "it needs at least 382 modes" in capsys.readouterr().err
    code, out = run(tmp_path, "k.csv", args + ["--modes", "382"])
    assert code == 0


def test_oracle_zeno_checks_recurrence_before_any_model(tmp_path, capsys,
                                                       monkeypatch):
    # tau = 1e4 outruns the 50-mode bath: the run stops, names the modes it
    # needs, and solves no secular equation, not even for the tau = 0.5 row
    solves = []
    measure = oracle._spectral_measure
    monkeypatch.setattr(oracle, "_spectral_measure",
                        lambda *args: solves.append(args) or measure(*args))
    oracle._qubit_model.cache_clear()
    code, out = run(tmp_path, "z.csv", [
        "oracle", "--protocol", "zeno", "--values", "0.5,1e4", "--modes", "50",
        "--g", "0.1", "--omega", "0.2", "--beta", "inf"])
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert "exceeds the recurrence time" in err and " modes" in err
    assert "it needs" in err
    assert solves == []


def test_oracle_kick_estimates_a_far_mode_count(tmp_path, capsys,
                                               monkeypatch):
    # N tau = 2e7 needs ~3e7 modes: the count is estimated, and no rule
    # above the requested 300 modes is built
    built = []
    legendre = numerics._legendre
    monkeypatch.setattr(numerics, "_legendre",
                        lambda m, x: built.append(m) or legendre(m, x))
    code, out = run(tmp_path, "k.csv", ["oracle", "--protocol", "kick",
                                        "--values", "1e5"])
    assert code == 3 and not out.exists()
    assert "it needs about " in capsys.readouterr().err
    assert set(built) <= {300}


def test_figure_5_matches_sweep(tmp_path):
    cli._ratio_column.cache_clear()
    code, fig = run(tmp_path, "f5.csv", ["figure", "--id", "5"])
    assert code == 0
    cli._ratio_column.cache_clear()
    code, sw = run(tmp_path, "s5.csv",
                   ["sweep", "--strategy", "zeno", "--grid", "1e-3:10:161log"])
    assert code == 0
    _, c1, d1 = read_csv(fig)
    _, c2, d2 = read_csv(sw)
    assert np.array_equal(col(c1, d1, "ratio_exp"), col(c2, d2, "ratio_exp"))


def test_figure_10_concatenates_sweeps(tmp_path):
    cli._ratio_column.cache_clear()
    code, out = run(tmp_path, "f10.csv", ["figure", "--id", "10"])
    assert code == 0
    _, columns, data = read_csv(out)
    assert data.shape[1] == 7
    for strategy, short in (("zeno", "zeno"), ("kick", "kick"),
                            ("continuous", "cont")):
        cli._ratio_column.cache_clear()
        code, sw = run(tmp_path, f"s_{strategy}.csv",
                       ["sweep", "--strategy", strategy,
                        "--grid", "5e-2:1e3:181log"])
        assert code == 0
        _, c2, d2 = read_csv(sw)
        assert np.array_equal(col(columns, data, "x"), col(c2, d2, "x"))
        for fam in ("exp", "poly"):
            assert np.array_equal(col(columns, data, f"ratio_{short}_{fam}"),
                                  col(c2, d2, f"ratio_{fam}"))


_RATIO_COMMANDS = ([["figure", "--id", str(i)] for i in (3, 4, 5, 6, 7, 10, 11)]
                   + [["sweep", "--strategy", s] for s in cli._CONTROLLED])


def test_ratio_columns_shared_within_a_process(tmp_path):
    # 28 two-family columns, 12 of them distinct (3 strategies x 2 grids
    # x 2 families); every file equals its cold single-command bytes
    cold = []
    for i, args in enumerate(_RATIO_COMMANDS):
        cli._ratio_column.cache_clear()
        code, out = run(tmp_path, f"cold{i}.csv", args)
        assert code == 0
        cold.append(out.read_bytes())
    for order in (1, -1):
        cli._ratio_column.cache_clear()
        for i, args in list(enumerate(_RATIO_COMMANDS))[::order]:
            code, out = run(tmp_path, f"warm{i}.csv", args)
            assert code == 0
            assert out.read_bytes() == cold[i]
        info = cli._ratio_column.cache_info()
        assert (info.misses, info.hits) == (12, 16)


@pytest.mark.parametrize("fig_id", [6, 11])
def test_exp_ratio_columns_stay_positive(tmp_path, fig_id):
    # the exp family's small-tau kick and large-K continuous ratios sit on
    # the density's e^{-700} floor (about 1e-300); without it they
    # underflow to 0, and the benchmark's output check requires every
    # ratio finite and > 0
    code, out = run(tmp_path, "f.csv", ["figure", "--id", str(fig_id),
                                        "--family", "exp"])
    assert code == 0
    _, columns, data = read_csv(out)
    ratios = [c for c in columns if c.startswith("ratio_")]
    assert ratios
    for name in ratios:
        values = col(columns, data, name)
        assert np.all(np.isfinite(values) & (values > 0.0)), name


def test_ratio_column_is_read_only():
    cfg = cli.RunConfig()
    column = cli._ratio_column(cfg.thermal(), cfg.omega0, "kick",
                               cli.GridSpec(0.1, 10.0, 5, "log"), cfg.W,
                               cfg.conversion_c)
    with pytest.raises(ValueError):
        column[0] = 0.0


def test_ratio_column_failure_is_not_cached(tmp_path, monkeypatch):
    args = ["sweep", "--strategy", "zeno", "--grid", "1e-2:1:5log"]
    cli._ratio_column.cache_clear()
    code, cold = run(tmp_path, "cold.csv", args)
    assert code == 0
    cli._ratio_column.cache_clear()

    def fail(*a, **k):
        raise NoConvergence("injected")
    with monkeypatch.context() as m:
        m.setattr(rates, "zeno_rate", fail)
        code, out = run(tmp_path, "failed.csv", args)
        assert code == 3
        assert not out.exists()
    code, out = run(tmp_path, "retry.csv", args)
    assert code == 0
    assert out.read_bytes() == cold.read_bytes()


def test_figure_thermal_and_response_overlays(tmp_path):
    code, out = run(tmp_path, "f2.csv", ["figure", "--id", "2"])
    assert code == 0
    _, columns, data = read_csv(out)
    # thermal density grows with temperature pointwise on omega > 0
    w = col(columns, data, "omega_over_W")
    lo = col(columns, data, "kappa_beta_exp_low_T")
    hi = col(columns, data, "kappa_beta_exp_high_T")
    sel = w > 0.05
    assert np.all(hi[sel] > lo[sel])
    for fig_id, tau in ((8, 50.0), (9, 3.0)):
        code, out = run(tmp_path, f"f{fig_id}.csv",
                        ["figure", "--id", str(fig_id)])
        assert code == 0
        header, columns, data = read_csv(out)
        assert any(f"tau: {tau:.17g}" in h for h in header)
        kb = col(columns, data, "kappa_beta")
        zw = col(columns, data, "zeno_weighted")
        assert np.all(kb >= 0.0) and np.all(zw >= 0.0)
        # the sinc^2 response is widest at small tau (fig 9) and
        # concentrates near Omega = 0.2 W at large tau (fig 8)
        w = col(columns, data, "omega_over_W")
        peak = w[int(np.argmax(zw))]
        assert abs(peak - 0.2) < (0.05 if fig_id == 8 else 0.5)


def test_figure_unknown_id(tmp_path):
    code = main(["figure", "--id", "42", "--out", str(tmp_path / "f.csv")])
    assert code == 2


@pytest.mark.parametrize("strategy, state", [
    ("free", "up"), ("zeno", "plus"), ("kick", "mixed"), ("continuous", "down")])
def test_evolve_rows_are_the_per_step_rows(tmp_path, strategy, state):
    # the command's text equals rows built one evolve call per time step,
    # formatted one f-string per value
    g0 = 0.4
    tsd_flip = zenolab.form_factor_for_bandwidth(zenolab.EXPONENTIAL).thermal(50.0)
    tsd_deph = zenolab.form_factor_for_bandwidth(zenolab.EXPONENTIAL,
                                                 g=g0).thermal(50.0)
    gen = zenolab.build_qubit_generator(
        tsd_flip, tsd_deph, 0.01, cli._STRATEGIES[strategy](1.3, 2.1))
    rho = cli._STATES[state]()
    for grid, spec in ((np.linspace(0.0, 400.0, 41), "0:400:41lin"),
                       (np.logspace(-2.0, 3.0, 26), "1e-2:1e3:26log")):
        code, out = run(tmp_path, "ev.csv",
                        ["evolve", "--strategy", strategy, "--state", state,
                         "--g0", repr(g0), "--tau", "1.3", "--K", "2.1",
                         "--grid", spec])
        assert code == 0
        expected = []
        for t in grid:
            st = zenolab.evolve(rho, gen, float(t))
            expected.append(",".join(f"{float(v):.16e}" for v in
                                     (t, st.p_up, *st.bloch, st.purity)))
        assert _data_lines(out)[1:] == expected


@pytest.mark.parametrize("cells", [
    [math.nan, math.inf, -math.inf], [-0.0, 0.0, 5e-324],
    [2.2250738585072014e-308, -1e-310, 1e308], [0, 7, -3],
    [np.float64(1.5), np.int64(-2), 1.0 / 3.0]])
def test_write_csv_cells_are_the_f_string_text(tmp_path, cells):
    # one '%.16e' per cell writes what f"{float(x):.16e}" writes
    path = tmp_path / "w.csv"
    cli._write_csv(str(path), ["head"], ["a", "b", "c"], [cells, cells[::-1]])
    expected = ["# head", "a,b,c"] + [",".join(f"{float(v):.16e}" for v in row)
                                      for row in (cells, cells[::-1])]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]],
                                  np.ones((2, 3)), [1.0, 2.0]])
def test_write_csv_refuses_rows_that_miss_the_header(tmp_path, rows):
    # a row of another length than the header raises; nothing is written
    path = tmp_path / "r.csv"
    with pytest.raises((ValueError, TypeError)):
        cli._write_csv(str(path), ["head"], ["a", "b"], rows)
    assert not path.exists()


def test_csv_round_trip_and_determinism(tmp_path, monkeypatch):
    code, a = run(tmp_path, "a.csv",
                  ["density", "--grid=-0.5:1.5:17lin", "--beta", "7"])
    code2, b = run(tmp_path, "b.csv",
                   ["density", "--grid=-0.5:1.5:17lin", "--beta", "7"])
    assert code == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    # flags are the only input: the environment changes no byte
    code, plain = run(tmp_path, "plain.csv", ["density", "--grid=-0.1:0.1:3lin"])
    monkeypatch.setenv("ZENOLAB_BETA", "7")
    code2, env = run(tmp_path, "env.csv", ["density", "--grid=-0.1:0.1:3lin"])
    assert code == code2 == 0
    assert env.read_bytes() == plain.read_bytes()
    # 17 significant digits round-trip bit-exactly
    _, columns, data = read_csv(a)
    ff = __import__("zenolab").form_factor_for_bandwidth("exp", W=1.0)
    tsd = ff.thermal(7.0)
    from zenolab import thermal_density
    w = col(columns, data, "omega_over_W")
    exact = np.array([thermal_density(tsd, x) for x in w])
    assert np.array_equal(col(columns, data, "kappa_beta_exp"), exact)


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["sweep", "--strategy", "zeno", "--grid", "nonsense",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["density", "--g", "-1", "--out", str(tmp_path / "y.csv")]) == 2
    # x = 0 would be tau = 0 or K = inf
    assert main(["sweep", "--strategy", "continuous", "--grid", "0:1:3lin",
                 "--out", str(tmp_path / "v.csv")]) == 2
    # NaN passes a plain '< 0' check; both must be rejected
    assert main(["sweep", "--strategy", "continuous", "--conversion-c", "nan",
                 "--out", str(tmp_path / "z.csv")]) == 2
    assert main(["evolve", "--strategy", "continuous", "--K", "nan",
                 "--out", str(tmp_path / "w.csv")]) == 2
    # so does inf, which passes '> 0' and '>= 0'
    for argv in (["evolve", "--strategy", "zeno", "--tau", "inf"],
                 ["evolve", "--strategy", "kick", "--tau", "inf"],
                 ["evolve", "--strategy", "continuous", "--K", "inf"],
                 ["sweep", "--strategy", "continuous", "--conversion-c", "inf"],
                 # a negative or NaN dephasing coupling is not "no dephasing"
                 ["evolve", "--g", "0", "--g0", "-0.5"],
                 ["evolve", "--g", "0", "--g0", "nan"]):
        out = tmp_path / "inf.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
    # oracle periods: inf is not a recurrence overrun, 0 not a zero division
    oracle = ["oracle", "--modes", "50", "--g", "0.1", "--omega", "0.2",
              "--beta", "inf"]
    for protocol in ("zeno", "kick"):
        for tau in ("inf", "0"):
            out = tmp_path / "tau.csv"
            capsys.readouterr()
            assert main(oracle + ["--protocol", protocol, "--values", tau,
                                  "--out", str(out)]) == 2
            assert "period tau" in capsys.readouterr().err
            assert not out.exists()
    # a non-finite splitting is refused before any model is built
    assert main(["oracle", "--protocol", "free", "--modes", "50",
                 "--omega", "inf", "--out", str(tmp_path / "om.csv")]) == 2
    assert "omega0" in capsys.readouterr().err
    # inf passes '> 0' in the splitting and in the coupling too
    for argv in (["density", "--omega", "inf"],
                 ["sweep", "--strategy", "zeno", "--omega", "inf"],
                 ["density", "--g", "inf"],
                 ["density", "--grid=-inf:1:5lin"]):
        out = tmp_path / "inf2.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
    # polynomial n < 2 has no finite bandwidth to anchor the W = 1 units;
    # density, sweep and figure build the poly density at any --family
    for argv in (["crossover", "--family", "poly", "--n", "1"],
                 ["crossover", "--family", "poly", "--n", "0"],
                 ["density", "--n", "1"],
                 ["sweep", "--strategy", "zeno", "--n", "1"],
                 ["figure", "--id", "3", "--n", "1"]):
        out = tmp_path / "n.csv"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["density", "--grid", "1:1:5lin"], "grid requires lo < hi"),
    (["density", "--grid", "2:1:5lin"], "grid requires lo < hi"),
    (["density", "--grid", "0:1:1lin"], "at least 2 points"),
    (["density", "--grid", "0:1:5log"], "log grid requires lo > 0"),
    # a spec without a spacing suffix is a log grid
    (["density", "--grid=-1:1:5"], "log grid requires lo > 0"),
    (["density", "--beta", "0"], "beta must be positive"),
    (["density", "--beta", "-1"], "beta must be positive"),
    (["oracle", "--protocol", "zeno", "--g", "0.1"], "--values is required for zeno"),
    (["oracle", "--protocol", "kick", "--values", ""], "--values is required for kick"),
    (["evolve", "--g0", "1e200"], "dephasing coupling g0"),
    (["evolve", "--g0", "1e-170"], "dephasing coupling g0"),
])
def test_config_guards_name_their_input(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zenolab: configuration error: ") and message in err
    assert not out.exists()


# a coupling whose square overflows (1e200) or underflows to 0 (1e-170),
# and a free rate that underflows to 0 (g^2 Omega = 1e-330 at beta = inf):
# once a bare OverflowError or ZeroDivisionError, or NaN columns with exit 0
_SWEEP = ["sweep", "--strategy", "zeno", "--grid", "0.1:10:5"]
_ORACLE_FREE = ["oracle", "--protocol", "free", "--modes", "60"]
_ORACLE_CONT = ["oracle", "--protocol", "continuous", "--values", "2.5",
                "--modes", "60"]
_FAR = ["--g", "1e-150", "--omega", "1e-30", "--beta", "inf"]
_EDGE_TABLE = (
    [argv + ["--g", "1e200"] for argv in (
        ["density"], _SWEEP, ["crossover"], ["figure", "--id", "7"],
        ["evolve"])]
    + [["evolve", "--g0", "1e200"]]
    + [argv + ["--g", "1e-170"] for argv in (
        _SWEEP, ["figure", "--id", "7"], _ORACLE_FREE,
        ["oracle", "--protocol", "zeno", "--values", "0.5", "--modes", "60"],
        _ORACLE_CONT)]
    + [argv + _FAR for argv in (
        _SWEEP, ["figure", "--id", "7"], _ORACLE_FREE, _ORACLE_CONT)])


@pytest.mark.parametrize("argv", _EDGE_TABLE, ids=" ".join)
def test_coupling_and_free_rate_edges_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "edge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("zenolab: configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["zeno", "kick", "continuous"])
def test_lambda_units_leave_the_sweeps_unchanged(tmp_path, strategy):
    # --unit lambda sets W = 2; x = W tau and every rate ratio are unit-free
    argv = ["sweep", "--strategy", strategy]
    assert run(tmp_path, "w.csv", argv)[0] == 0
    assert run(tmp_path, "l.csv", argv + ["--unit", "lambda"])[0] == 0
    assert _data_lines(tmp_path / "l.csv") == _data_lines(tmp_path / "w.csv")


@pytest.mark.parametrize("argv", [
    ["density"], ["density", "--family", "poly", "--n", "3"],
    ["density", "--beta", "inf"], ["figure", "--id", "2"]])
def test_lambda_units_double_every_density(tmp_path, argv):
    # omega / W is unit-free; kappa is a frequency, and the lambda unit
    # W / 2 is half the W unit, so each kappa reads exactly twice as much
    assert run(tmp_path, "w.csv", argv)[0] == 0
    assert run(tmp_path, "l.csv", argv + ["--unit", "lambda"])[0] == 0
    _, cols_w, w = read_csv(tmp_path / "w.csv")
    _, cols_l, lam = read_csv(tmp_path / "l.csv")
    assert cols_l == cols_w and cols_w[0] == "omega_over_W"
    assert np.array_equal(lam[:, 0], w[:, 0])
    assert np.array_equal(lam[:, 1:], 2.0 * w[:, 1:])


# every error class a command can raise -> (exit code, stderr prefix); the
# module docstring documents 2 for configuration and 3 for numerical errors
_ERROR_MAP = [
    (errors.DomainError, 2, "zenolab: configuration error: "),
    (errors.OddN, 2, "zenolab: configuration error: "),
    (errors.InvalidState, 2, "zenolab: configuration error: "),
    (errors.NonPositiveProbability, 2, "zenolab: configuration error: "),
    (errors.DivergentMoment, 2, "zenolab: configuration error: "),
    (ValueError, 2, "zenolab: configuration error: "),
    (errors.NoConvergence, 3, "zenolab: numerical failure: "),
    (errors.DivergentIntegral, 3, "zenolab: numerical failure: "),
    (errors.NoCrossing, 3, "zenolab: "),
    (errors.NoRelaxation, 3, "zenolab: "),
    (errors.RecurrenceWindowExceeded, 3, "zenolab: "),
    (errors.WindowTooShort, 3, "zenolab: "),
]


@pytest.mark.parametrize("error, code, prefix", _ERROR_MAP,
                         ids=[e.__name__ for e, _, _ in _ERROR_MAP])
def test_error_classes_map_to_exit_codes(tmp_path, capsys, monkeypatch,
                                         error, code, prefix):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_density", fail)
    out = tmp_path / "x.csv"
    assert main(["density", "--out", str(out)]) == code
    assert capsys.readouterr().err == prefix + "boom\n"
    assert not out.exists()


def test_main_calls_share_one_parser(tmp_path, capsys):
    # in-process callers reuse one parser: a failed parse and a call with
    # other flags leave no trace in the next call
    assert cli._build_parser() is cli._build_parser()
    argv = ["sweep", "--strategy", "kick", "--grid", "0.1:10:9log"]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--strategy", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["sweep", "--strategy", "zeno", "--beta", "inf", "--n", "3",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "c.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_runtime_needs_numpy_only(tmp_path):
    # a fresh interpreter runs a crossover, a kick oracle and figure 10
    # without loading scipy, or numpy.ma (which np.unique pulls in lazily)
    src = os.path.dirname(os.path.dirname(os.path.abspath(zenolab.__file__)))
    script = f"""
import sys
import warnings
from zenolab.cli import main
out = {str(tmp_path)!r}
assert main(["crossover", "--family", "poly", "--beta", "inf",
             "--out", out + "/x.csv"]) == 0
assert main(["oracle", "--protocol", "kick", "--modes", "300", "--values", "0.7",
             "--g", "0.1", "--omega", "0.2", "--beta", "inf",
             "--out", out + "/o.csv"]) == 0
assert main(["figure", "--id", "10", "--out", out + "/f.csv"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
             or m == "numpy.ma"))
"""
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
