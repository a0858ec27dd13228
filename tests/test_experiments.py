import csv

import numpy as np
import pytest

from cvqkd import cli
from cvqkd.channel import read_session_csv
from cvqkd.config import ExperimentConfig, parse_config
from cvqkd.estimators import EstimatorKind, theoretical_std
from cvqkd.experiments import (
    check_identities,
    monte_carlo_validate,
    run_estimator_trials,
    run_fig1,
    run_fig2,
    run_fig3,
    run_keyrate,
    run_optimize,
    run_simulate,
)

SMALL_CFG = (
    "N = 2000\n"
    "m = 1000\n"
    "trials = 300\n"
    "distances_km = 0:50:25\n"
    "mc_distances_km = 0, 50\n"
)


def _small_cfg() -> ExperimentConfig:
    return parse_config(SMALL_CFG)


def _read_table(path):
    meta, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_check_identities_are_exact():
    worst_mm, worst_split = check_identities()
    assert worst_mm <= 1e-10
    assert worst_split <= 1e-12


def test_run_estimator_trials_deterministic():
    cfg = _small_cfg()
    a = run_estimator_trials(cfg, 20.0, trials=40, stream_base=0)
    b = run_estimator_trials(cfg, 20.0, trials=40, stream_base=0)
    np.testing.assert_array_equal(a.sigma2_mle, b.sigma2_mle)
    np.testing.assert_array_equal(a.vxi_hat, b.vxi_hat)
    other_stream = run_estimator_trials(cfg, 20.0, trials=40, stream_base=30)
    assert not np.array_equal(a.sigma2_mle, other_stream.sigma2_mle)
    # a prefix of a longer run reproduces trial by trial
    longer = run_estimator_trials(cfg, 20.0, trials=60, stream_base=0)
    np.testing.assert_array_equal(a.t_hat, longer.t_hat[:40])


def test_run_estimator_trials_sane_means():
    cfg = _small_cfg()
    res = run_estimator_trials(cfg, 20.0, trials=200, stream_base=0)
    assert np.mean(res.t_hat) == pytest.approx(np.sqrt(res.T), rel=0.02)
    assert np.mean(res.sigma2_opt) == pytest.approx(res.sigma2, rel=0.02)
    assert np.mean(res.T_hat) == pytest.approx(res.T, rel=0.05)


def test_monte_carlo_validate_writes_report(tmp_path):
    cfg = _small_cfg()
    rows, _ = monte_carlo_validate(cfg, str(tmp_path / "out"))
    meta, header, table = _read_table(tmp_path / "out" / "validate_report.csv")
    assert header == ["check", "distance_km", "estimator", "observed",
                      "expected", "tolerance", "status"]
    assert any(line.startswith("# version") for line in meta)
    assert any(line.startswith("# master_seed") for line in meta)
    assert len(table) == len(rows)
    by_check = {r[0] for r in rows}
    assert {"mm_equals_mle_full_set", "split_identity", "std_ratio",
            "bias", "corr_mle_mm_key", "opt_dominance"} <= by_check
    # the exact identities must pass regardless of trial count
    for r in rows:
        if r[0] in ("mm_equals_mle_full_set", "split_identity"):
            assert r[-1] == "pass"
    summary = (tmp_path / "out" / "validate_summary.txt").read_text()
    assert "OVERALL:" in summary


def test_monte_carlo_validate_is_byte_deterministic(tmp_path):
    cfg1, cfg2 = _small_cfg(), _small_cfg()
    monte_carlo_validate(cfg1, str(tmp_path / "a"))
    monte_carlo_validate(cfg2, str(tmp_path / "b"))
    for name in ("validate_report.csv", "validate_summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_fig1_columns_and_theory_values(tmp_path):
    cfg = _small_cfg()
    path = run_fig1(cfg, str(tmp_path))
    meta, header, rows = _read_table(path)
    assert header == ["distance_km", "std_Vxi", "std_MM", "std_MLE",
                      "std_Vxi_opt", "std_opt", "mc_std_MM", "mc_std_opt"]
    assert [float(r[0]) for r in rows] == [0.0, 25.0, 50.0]
    n_key = cfg.N - cfg.m
    for r in rows:
        d = float(r[0])
        T = 10.0 ** (-cfg.loss_db_per_km * d / 10.0)
        assert float(r[3]) == pytest.approx(theoretical_std(
            EstimatorKind.SIGMA2_MLE, cfg.V_A, T, cfg.xi, cfg.m, n_key,
            cfg.N, V_M2=cfg.V_M2), rel=1e-12)
    # Monte Carlo columns only at the sampled distances
    assert rows[0][6] != "" and rows[2][6] != ""
    assert rows[1][6] == "" and rows[1][7] == ""
    assert "np.float64" not in (tmp_path / "fig1.csv").read_text()
    assert (tmp_path / "plot_results.py").exists()


def test_run_fig1_reruns_byte_identical(tmp_path):
    run_fig1(_small_cfg(), str(tmp_path / "a"))
    run_fig1(_small_cfg(), str(tmp_path / "b"))
    assert (tmp_path / "a" / "fig1.csv").read_bytes() == \
        (tmp_path / "b" / "fig1.csv").read_bytes()


def test_run_fig2_rate_ordering(tmp_path):
    cfg = parse_config("distances_km = 0, 20\nn_list = 1e5\n")
    path = run_fig2(cfg, str(tmp_path))
    _, header, rows = _read_table(path)
    assert header == ["distance_km", "K_asymptotic",
                      "K_mle_1e5", "K_mm_1e5", "K_opt_1e5"]
    for r in rows:
        asym, k_mle, k_mm, k_opt = (float(v) for v in r[1:])
        assert k_opt >= k_mle - 1e-15
        assert k_opt >= k_mm - 1e-15
        assert max(k_mle, k_mm, k_opt) <= asym + 1e-12
        assert k_opt > 0.0
    _, trace_header, trace_rows = _read_table(tmp_path / "fig2_trace.csv")
    assert trace_header[:4] == ["distance_km", "estimator", "N", "stage"]
    assert len(trace_rows) > 0


def test_run_fig3_long_format(tmp_path):
    cfg = parse_config("distances_km = 0, 20\nfig3_N = 1e5\n")
    path = run_fig3(cfg, str(tmp_path))
    _, header, rows = _read_table(path)
    assert header == ["distance_km", "estimator", "opt_m_over_N",
                      "opt_V_A", "key_rate"]
    assert len(rows) == 2 * 3
    for r in rows:
        assert r[1] in ("mle", "mm", "opt")
        assert 0.0 < float(r[2]) < 1.0
        assert float(r[4]) >= 0.0


def test_run_simulate_round_trips(tmp_path):
    cfg = _small_cfg()
    path = run_simulate(cfg, str(tmp_path))
    session = read_session_csv(path)
    assert session.n_states == cfg.N
    assert session.x_m2 is not None  # V_M2 defaults to 10


def test_run_keyrate_pointwise_ordering(tmp_path):
    cfg = parse_config("distances_km = 0, 10, 20\nN = 1e7\nm = 5e6\n")
    path = run_keyrate(cfg, str(tmp_path))
    _, header, rows = _read_table(path)
    assert header == ["distance_km", "K_asymptotic", "K_mle", "K_mm", "K_opt"]
    for r in rows:
        asym, k_mle, k_mm, k_opt = (float(v) for v in r[1:])
        assert k_opt >= max(k_mle, k_mm) - 1e-15
        assert k_opt <= asym + 1e-12


def test_run_optimize_reports_integer_split(tmp_path):
    cfg = _small_cfg()
    path = run_optimize(cfg, str(tmp_path))
    _, header, rows = _read_table(path)
    assert header == ["distance_km", "estimator", "opt_V_A", "opt_m_over_N",
                      "opt_m", "key_rate", "evaluations"]
    for r in rows:
        m = int(r[4])
        assert 1 <= m <= cfg.N - 1
        assert float(r[5]) > 0.0


# --- command line -----------------------------------------------------------

def test_cli_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_cli_requires_command():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cli_bad_config_returns_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text, verb in (("no_such_key = 1\n", "keyrate"),
                       ("mm_key_cross_denominator_full = true\n", "fig1"),
                       ("m = 1e5\n", "validate"), ("m = 1\n", "validate"),
                       ("m = 0\n", "validate"),
                       ("distances_km = \n", "simulate"),
                       ("distances_km = \n", "optimize"),
                       ("estimators = \n", "keyrate"),
                       ("n_list = \n", "fig2")):
        bad.write_text(text)
        rc = cli.main([verb, "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2, text
        assert "cvqkd: config error" in capsys.readouterr().err


def test_cli_validate_runs_small(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    rc = cli.main(["validate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc in (0, 1)
    assert (tmp_path / "out" / "validate_report.csv").exists()
    assert "checks passed" in capsys.readouterr().out


def test_cli_seed_override_changes_sessions(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    rc1 = cli.main(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "a")])
    rc2 = cli.main(["simulate", "--config", str(cfg_path), "--seed", "7",
                    "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    a = read_session_csv(tmp_path / "a" / "session.csv")
    b = read_session_csv(tmp_path / "b" / "session.csv")
    assert not np.array_equal(a.y, b.y)


def test_cli_fig1_writes_output(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + "trials = 50\n")
    rc = cli.main(["fig1", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "fig1.csv").exists()
