import ast
import contextlib
import csv
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cvqkd import __version__, cli, estimators, experiments, optimizer
from cvqkd.channel import (
    ChannelParams,
    ProtocolParams,
    fiber_transmission,
    sample_moments,
    sample_session,
    split_session,
    trial_seed,
)
from cvqkd.config import (
    _MAX_BLOCK,
    _MAX_N_TIMES_V_M2,
    _MAX_VARIANCE,
    ExperimentConfig,
    parse_config,
)
from cvqkd.estimators import (
    Estimate,
    EstimatorKind,
    Moments,
    collect_statistics,
    combine_optimal,
    estimate_sigma2_mle,
    estimate_sigma2_mm_key,
    estimate_t_mle,
    moments,
    theoretical_std,
)
from cvqkd.experiments import (
    _THEORY_KIND,
    _estimator_bank,
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
from cvqkd.config import _KIND_BY_NAME
from cvqkd.optimizer import OptimizationResult, _round_m, optimize_key_rate
from cvqkd.security import confidence_quantile, key_rate_finite

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


def test_check_identities_runs_the_moment_estimator(monkeypatch):
    """The full-set identity checks the package's own moment estimator: a
    moment form that divides sum(y**2) by k - 1 fails it."""
    def mutated(sums, t_hat, variance, m):
        sigma2_a = sums.uu / sums.k
        value = sums.yy / (sums.k - 1) - t_hat**2 * sigma2_a
        return Estimate(value=value, variance=variance(
            sigma2_a, t_hat**2, value, m, sums.k))

    monkeypatch.setattr(estimators, "_moment_estimate", mutated)
    worst_mm, worst_split = check_identities()
    assert worst_mm > 1e-10
    assert worst_split <= 1e-12


def test_run_estimator_trials_deterministic():
    cfg = _small_cfg()
    a = run_estimator_trials(cfg, 20.0, trials=40, stream_base=0)
    b = run_estimator_trials(cfg, 20.0, trials=40, stream_base=0)
    assert list(a) == list(_THEORY_KIND)
    for name in _THEORY_KIND:
        np.testing.assert_array_equal(a[name], b[name])
    other_stream = run_estimator_trials(cfg, 20.0, trials=40, stream_base=30)
    assert not np.array_equal(a["sigma2_mle"], other_stream["sigma2_mle"])
    # a prefix of a longer run reproduces trial by trial
    longer = run_estimator_trials(cfg, 20.0, trials=60, stream_base=0)
    np.testing.assert_array_equal(a["t_hat"], longer["t_hat"][:40])


def test_run_estimator_trials_sane_means():
    cfg = _small_cfg()
    res = run_estimator_trials(cfg, 20.0, trials=200, stream_base=0)
    channel = ChannelParams.from_distance(20.0, cfg.xi, cfg.loss_db_per_km)
    assert np.mean(res["t_hat"]) == pytest.approx(channel.t, rel=0.02)
    assert np.mean(res["sigma2_opt"]) == pytest.approx(channel.sigma2,
                                                       rel=0.02)
    assert np.mean(res["T_hat"]) == pytest.approx(channel.T, rel=0.05)


def test_monte_carlo_validate_writes_report(tmp_path):
    cfg = _small_cfg()
    rows, all_ok = monte_carlo_validate(cfg, str(tmp_path / "out"))
    meta, header, table = _read_table(tmp_path / "out" / "validate_report.csv")
    assert header == ["check", "distance_km", "estimator", "observed",
                      "expected", "tolerance", "status", "z"]
    assert any(line.startswith("# version") for line in meta)
    assert any(line.startswith("# master_seed") for line in meta)
    assert len(table) == len(rows)
    by_check = {r[0] for r in rows}
    assert {"mm_equals_mle_full_set", "split_identity", "std_ratio",
            "bias", "corr_mle_mm_key", "opt_dominance"} <= by_check
    # the exact identities must pass regardless of trial count
    for r in rows:
        if r[0] in ("mm_equals_mle_full_set", "split_identity"):
            assert r[6] == "pass"
    # the status column is the whole verdict: all_ok is every row passing
    statuses = [cells[6] for cells in table]
    assert statuses == [r[6] for r in rows]
    assert set(statuses) <= {"pass", "FAIL"}
    assert all_ok == all(status == "pass" for status in statuses)


def test_monte_carlo_validate_reports_z_scores(tmp_path, monkeypatch):
    """Each statistical row reports its z and passes exactly when its
    observed value is within its tolerance. The tolerances are narrowed so
    that each check has passing and failing rows, some bias rows failing
    at a |z| below twice the bound."""
    monkeypatch.setattr(experiments, "STD_RATIO_TOL", 0.03)
    monkeypatch.setattr(experiments, "BIAS_SIGMAS", 1.0)
    monkeypatch.setattr(experiments, "CORR_TOL", 0.04)
    cfg = _small_cfg()
    rows, _ = monte_carlo_validate(cfg, str(tmp_path))
    _, _, table = _read_table(tmp_path / "validate_report.csv")
    trials = cfg.trials
    seen = {}
    for r, cells in zip(rows, table):
        check, observed, expected, tol, status, z = (r[0], r[3], r[4], r[5],
                                                     r[6], r[7])
        if check == "std_ratio":
            want = np.log(observed / expected) * np.sqrt(2.0 * (trials - 1))
            within = abs(observed / expected - 1.0) <= tol
        elif check == "bias":
            # the bias tolerance is BIAS_SIGMAS standard errors
            want = observed / (tol / experiments.BIAS_SIGMAS)
            within = abs(observed) <= tol
        elif check == "corr_mle_mm_key":
            want = observed * np.sqrt(trials)
            within = abs(observed) <= tol
        else:
            assert z is None and cells[7] == ""
            continue
        assert z == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert float(cells[7]) == z
        assert status == ("pass" if within else "FAIL"), (check, observed)
        seen.setdefault(check, set()).add(status)
    assert seen == {check: {"pass", "FAIL"}
                    for check in ("std_ratio", "bias", "corr_mle_mm_key")}
    assert any(status == "FAIL" and abs(z) <= 2.0 * experiments.BIAS_SIGMAS
               for check, *_, status, z in rows if check == "bias")


def test_monte_carlo_validate_is_byte_deterministic(tmp_path):
    cfg1, cfg2 = _small_cfg(), _small_cfg()
    monte_carlo_validate(cfg1, str(tmp_path / "a"))
    monte_carlo_validate(cfg2, str(tmp_path / "b"))
    assert (tmp_path / "a" / "validate_report.csv").read_bytes() == \
        (tmp_path / "b" / "validate_report.csv").read_bytes()


def _sampled_sums(cfg, distance_km, trials, stream):
    """The sampler's sums as the bank reads them, over all trials."""
    protocol = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m, V_M2=cfg.V_M2)
    channel = ChannelParams(T=fiber_transmission(distance_km,
                                                 cfg.loss_db_per_km),
                            xi=cfg.xi)
    return sample_moments(protocol, channel, trials, cfg.seed, stream)


def test_estimator_bank_on_arrays_matches_per_trial_calls():
    """One bank call on whole trial arrays gives, trial by trial, what the
    bank gives on that trial's float sums; the two differ only where a
    Python float's x**2 (libm pow) and numpy's square round apart."""
    default = ExperimentConfig()
    small = parse_config("N = 200\nm = 100\nxi = 0.1\n")  # some clamps
    runs = [(default, d, default.trials, 3 * di)
            for di, d in enumerate(default.mc_distances_km)]
    runs.append((small, 0.0, 500, 0))
    for cfg, d, trials, stream in runs:
        res = run_estimator_trials(cfg, d, trials, stream_base=stream)
        pe, key, m2 = _sampled_sums(cfg, d, trials, stream)
        rows = [_estimator_bank(Moments(*p, cfg.m), Moments(*k, cfg.N - cfg.m),
                                Moments(*q, cfg.N), cfg.V_A, cfg.V_M2)
                for p, k, q in zip(pe.tolist(), key.tolist(), m2.tolist())]
        for name in _THEORY_KIND:
            np.testing.assert_allclose(res[name], [r[name] for r in rows],
                                       rtol=1e-13, atol=0, err_msg=name)


def test_estimator_bank_clamps_only_negative_variances():
    """At N = 200 and 0 km some trials' plug-in Var(sigma2_mm_key) is
    negative: those trials' sigma2_opt is sigma2_mm_key, every other trial
    keeps its inverse-variance weights."""
    cfg = parse_config("N = 200\nm = 100\nxi = 0.1\n")
    pe, key, m2 = _sampled_sums(cfg, 0.0, 500, 0)
    pe, key = Moments(*pe.T, cfg.m), Moments(*key.T, cfg.N - cfg.m)
    t_hat = estimate_t_mle(pe).value
    mle = estimate_sigma2_mle(pe, t_hat)
    mm_key = estimate_sigma2_mm_key(pe, key, t_hat)
    neg = mm_key.variance < 0.0
    assert 0 < neg.sum() < neg.size
    opt = _estimator_bank(pe, key, Moments(*m2.T, cfg.N), cfg.V_A,
                          cfg.V_M2)["sigma2_opt"]
    np.testing.assert_array_equal(opt[neg], mm_key.value[neg])
    keep = ~neg
    weighted = combine_optimal(
        Estimate(mle.value[keep], mle.variance[keep]),
        Estimate(mm_key.value[keep], mm_key.variance[keep]))
    np.testing.assert_array_equal(opt[keep], weighted.value)


def _per_state_trials(cfg, distance_km, trials, master_seed):
    """The estimator bank on sessions drawn state by state: the reference
    engine, with a plain session for the regression and moment estimators
    and an independent second-modulation session for the correlation ones."""
    channel = ChannelParams(T=fiber_transmission(distance_km), xi=cfg.xi)
    plain = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m)
    second = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m, V_M2=cfg.V_M2)
    rows = []
    for i in range(trials):
        session = sample_session(plain, channel, trial_seed(master_seed, 0, i))
        split = split_session(session, cfg.m, trial_seed(master_seed, 1, i))
        session2 = sample_session(second, channel,
                                  trial_seed(master_seed, 2, i))
        rows.append(_estimator_bank(*collect_statistics(session, split),
                                    moments(session2.x_m2, session2.y),
                                    cfg.V_A, cfg.V_M2))
    return {name: np.array([r[name] for r in rows]) for name in _THEORY_KIND}


def _mean_and_variance_z(a, b):
    """Two-sample z scores of the means and of the variances of a and b; the
    standard error of a sample variance comes from the fourth central
    moment."""
    def summary(v):
        n = v.size
        c = v - v.mean()
        var = c @ c / (n - 1)
        se2_var = (np.mean(c**4) - var**2 * (n - 3) / (n - 1)) / n
        return v.mean(), var, var / n, se2_var

    mean_a, var_a, se2_mean_a, se2_var_a = summary(a)
    mean_b, var_b, se2_mean_b, se2_var_b = summary(b)
    return ((mean_a - mean_b) / np.sqrt(se2_mean_a + se2_mean_b),
            (var_a - var_b) / np.sqrt(se2_var_a + se2_var_b))


@pytest.mark.parametrize("distance_km", [50.0, 100.0])
def test_moment_sampler_matches_per_state_sessions(distance_km):
    cfg = parse_config("N = 200\nm = 100\nxi = 0.1\n")
    trials = 3000
    reference = _per_state_trials(cfg, distance_km, trials, master_seed=31)
    res = run_estimator_trials(cfg, distance_km, trials, stream_base=0)
    for name in _THEORY_KIND:
        z_mean, z_var = _mean_and_variance_z(res[name], reference[name])
        assert abs(z_mean) <= 5.0, (name, z_mean)
        assert abs(z_var) <= 5.0, (name, z_var)


def test_moment_sampler_matches_theory_at_1e9_states():
    cfg = parse_config("N = 1e9\nm = 5e8\n")
    trials = 20_000
    tol = 5.0 / np.sqrt(2.0 * (trials - 1))  # 5 standard errors of log std
    for di, d in enumerate((20.0, 100.0)):
        res = run_estimator_trials(cfg, d, trials, stream_base=3 * di)
        T = fiber_transmission(d, cfg.loss_db_per_km)
        for name, kind in _THEORY_KIND.items():
            theory = theoretical_std(kind, cfg.V_A, T, cfg.xi, cfg.m,
                                     cfg.N - cfg.m, cfg.N, V_M2=cfg.V_M2)
            ratio = np.std(res[name], ddof=1) / theory
            assert abs(np.log(ratio)) <= tol, (d, name, ratio)


def test_confidence_corner_misses_at_its_nominal_rate():
    """Over 1e6 trials at the default config, at 0 and 20 km, each
    estimator's one-sided bound at z = confidence_quantile(1e-3, conv)
    and the closed-form std misses the truth as often as the convention
    promises: 0.5*erfc(z/sqrt(2)), with z from the convention's
    definition, erfinv(1 - eps/2) for paper and the normal quantile of
    1 - eps/2 for gaussian, so a wrong quantile fails here as a wrong
    variance form does. Each count is gated at a binomial |z| <= 4.
    sigma2_mle's law is exact, m*sigma2_hat/sigma2 ~ chi2(m - 1), and its
    count is gated against that tail; against the Gaussian tail it reads
    about 2.5 binomial sigma low."""
    from scipy.special import chdtr, erfinv, ndtri

    # the corner takes t_hat's lower bound and each sigma2 estimator's
    # upper bound
    names = ("t_hat", "sigma2_mle", "sigma2_mm_full", "sigma2_mm_key",
             "sigma2_opt")
    eps, chunks, per_chunk = 1e-3, 10, 100_000
    trials = chunks * per_chunk
    cfg = ExperimentConfig()
    z_of = {"paper": float(erfinv(1.0 - eps / 2.0)),
            "gaussian": float(ndtri(1.0 - eps / 2.0))}
    for di, d in enumerate((0.0, 20.0)):
        channel = ChannelParams.from_distance(d, cfg.xi, cfg.loss_db_per_km)
        truth = dict.fromkeys(names, channel.sigma2)
        truth["t_hat"] = channel.t
        std = {name: theoretical_std(_THEORY_KIND[name], cfg.V_A, channel.T,
                                     cfg.xi, cfg.m, cfg.N - cfg.m, cfg.N)
               for name in names}
        zs = {conv: confidence_quantile(eps, conv) for conv in z_of}
        misses = {(conv, name): 0 for conv in zs for name in names}
        for c in range(chunks):
            res = run_estimator_trials(cfg, d, per_chunk,
                                       stream_base=2000 + 20 * di + 2 * c)
            for conv, z in zs.items():
                misses[conv, "t_hat"] += int(np.count_nonzero(
                    res["t_hat"] - z * std["t_hat"] > truth["t_hat"]))
                for name in names[1:]:
                    misses[conv, name] += int(np.count_nonzero(
                        res[name] + z * std[name] < truth[name]))
        for (conv, name), count in misses.items():
            z = z_of[conv]
            if name == "sigma2_mle":
                p = float(chdtr(cfg.m - 1, cfg.m * (
                    1.0 - z * std[name] / truth[name])))
            else:
                p = 0.5 * math.erfc(z / math.sqrt(2.0))
            mean = trials * p
            score = (count - mean) / math.sqrt(mean * (1.0 - p))
            assert abs(score) <= 4.0, (d, conv, name, count, mean, score)


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


def test_run_fig1_reruns_byte_identical(tmp_path):
    run_fig1(_small_cfg(), str(tmp_path / "a"))
    run_fig1(_small_cfg(), str(tmp_path / "b"))
    assert (tmp_path / "a" / "fig1.csv").read_bytes() == \
        (tmp_path / "b" / "fig1.csv").read_bytes()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_fig1_peak_memory_does_not_grow_with_distances(tmp_path):
    """fig1 reduces each Monte Carlo distance to its two stds before it
    draws the next: four distances peak where one does, not three trial
    tables (7 arrays of ``trials`` floats each) higher."""
    trials = 20000
    run_fig1(ExperimentConfig(trials=2), str(tmp_path))
    peaks = [_traced_peak(lambda: run_fig1(
                 ExperimentConfig(trials=trials, mc_distances_km=mc),
                 str(tmp_path)))
             for mc in ([0.0], [0.0, 20.0, 50.0, 100.0])]
    table = 7 * 8 * trials
    assert peaks[1] < peaks[0] + table / 2, peaks


def test_validate_peak_memory_does_not_grow_with_distances(tmp_path):
    """validate drops each Monte Carlo distance's trial table (7 arrays of
    ``trials`` floats) before it draws the next: four distances peak where
    one does."""
    trials = 20000
    monte_carlo_validate(ExperimentConfig(trials=2), str(tmp_path))
    peaks = [_traced_peak(lambda: monte_carlo_validate(
                 ExperimentConfig(trials=trials, mc_distances_km=mc),
                 str(tmp_path)))
             for mc in ([20.0], [20.0, 50.0, 100.0, 150.0])]
    table = 7 * 8 * trials
    assert peaks[1] < peaks[0] + table / 2, peaks


def _per_cell_grid(cfg, n_values):
    """The figures' tables as one optimize_key_rate call per (distance, N,
    estimator) cell and one key_rate_finite call per cross candidate, the
    reference for the column calls."""
    results, trace_rows = {}, []
    for d in cfg.distances_km:
        T = fiber_transmission(d, cfg.loss_db_per_km)
        for N in n_values:
            own = {name: optimize_key_rate(
                       cfg.xi, cfg.beta, N, cfg.epsilon_pe,
                       _KIND_BY_NAME[name], T=T, convention=cfg.convention)
                   for name in cfg.estimators}
            for name in cfg.estimators:
                res = _key_rate_finite_best(
                    _KIND_BY_NAME[name], T, cfg, N, own[name],
                    [own[o] for o in cfg.estimators if o != name])
                results[(d, N, name)] = res
                trace_rows += [[d, name, experiments._n_label(N), *row]
                               for row in res.trace]
    return results, trace_rows


@pytest.mark.parametrize("convention", ["paper", "gaussian"])
def test_optimize_grid_columns_match_per_cell_optimizations(convention):
    """Ranking each estimator's column in blocks of transmissions, in one
    table per N, gives every cell's result (values, evaluations, trace)
    and the trace rows in their order, as one optimization per cell does;
    9 distances are a block of 8 and a ragged tail of 1."""
    cfg = parse_config("distances_km = 0, 10, 20, 30, 38.5, 40, 60, 120, "
                       "190\nn_list = 1e5, 1e9\n")
    cfg.convention = convention
    tables = {N: experiments._rate_table(cfg, N, cfg.distances_km)
              for N in cfg.n_list}
    results, trace_rows = {}, []
    for di, d in enumerate(cfg.distances_km):
        for N in cfg.n_list:
            for name, res in zip(cfg.estimators, tables[N][di]):
                results[(d, N, name)] = res
                trace_rows += [[d, name, experiments._n_label(N), *row]
                               for row in res.trace]
    ref_results, ref_rows = _per_cell_grid(cfg, cfg.n_list)
    assert list(results) == list(ref_results)
    assert repr(results) == repr(ref_results)
    assert repr(trace_rows) == repr(ref_rows)
    assert any(r.best_key_rate > 0.0 for r in results.values())
    assert any(r.best_key_rate == 0.0 for r in results.values())


def _key_rate_finite_best(kind, T, cfg, N, own, others):
    """The cross re-score as key_rate_finite calls, one per candidate: the
    reference for the optimizer's cross stage."""
    best = own
    for cand in others:
        m = _round_m(cand.best_m_fraction, N)
        k = key_rate_finite(cand.best_V_A, T, cfg.xi, cfg.beta, N, m,
                            cfg.epsilon_pe, kind, cfg.convention).key_rate
        if k > best.best_key_rate:
            best = OptimizationResult(
                best_V_A=cand.best_V_A,
                best_m_fraction=cand.best_m_fraction,
                best_key_rate=k,
                trace=own.trace + [("cross", cand.best_V_A,
                                    cand.best_m_fraction, k, 1)],
            )
    return best


@pytest.mark.parametrize("convention", ["paper", "gaussian"])
def test_cross_rescores_match_key_rate_finite(convention, monkeypatch):
    """Re-scoring each cell's candidates through the float rate its column
    built gives the results, by repr, that one key_rate_finite call per
    candidate gives: on the default distances and n_list, every estimator.
    The other estimators' optima never beat a cell's own there, so each
    cell is also re-scored against its own optimum with the rate set to
    0, which they beat wherever their rate is positive."""
    cfg = ExperimentConfig()
    cfg.convention = convention
    Ts = [fiber_transmission(d, cfg.loss_db_per_km) for d in cfg.distances_km]
    kinds = [_KIND_BY_NAME[name] for name in cfg.estimators]
    cross = optimizer._cross
    crossed = 0
    for N in cfg.n_list:
        calls = []

        def spy(rate, N, own, others):
            calls.append((rate, own, others, cross(rate, N, own, others)))
            return calls[-1][-1]

        monkeypatch.setattr(optimizer, "_cross", spy)
        table = experiments._rate_table(cfg, N, cfg.distances_km)
        monkeypatch.undo()
        # one cross stage per cell, row by row, each against the other
        # estimators' optima at its transmission
        assert len(calls) == len(Ts) * len(kinds)
        for i, (rate, own, others, got) in enumerate(calls):
            di, ki = divmod(i, len(kinds))
            T, kind = Ts[di], kinds[ki]
            row = calls[di * len(kinds):(di + 1) * len(kinds)]
            assert others == [c[1] for j, c in enumerate(row) if j != ki]
            assert got is table[di][ki]
            for start in (own, replace(own, best_key_rate=0.0)):
                got = cross(rate, N, start, others)
                ref = _key_rate_finite_best(kind, T, cfg, N, start, others)
                assert repr(got) == repr(ref)
                crossed += got is not start
    assert crossed > 0


def test_figure_verbs_exit_two_when_a_grid_cell_fails(tmp_path, monkeypatch,
                                                      capsys):
    """One unphysical transmission (T > 1) in a column fails its block's
    ranking; the verb exits 2 with the grid's message, not a traceback."""
    real = experiments.fiber_transmission
    monkeypatch.setattr(experiments, "fiber_transmission",
                        lambda d, loss: 10.0 if d == 15.0 else real(d, loss))
    for verb in ("fig2", "fig3"):
        assert cli.main([verb, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cvqkd: {verb}: " in err and "on the rate grid" in err


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
    _, header, rows = _read_table(path)
    assert header == ["index", "x", "x_m2", "y"]
    assert len(rows) == cfg.N
    assert all(r[2] for r in rows)  # V_M2 defaults to 10


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


def test_optimize_writes_the_figures_crossed_row(tmp_path):
    """optimize writes the row fig3 and fig2 write at its distance and N,
    the cross stage included: on this config sigma2_MM's own grid has no
    positive cell, and the optimum of sigma2_opt re-scored for it is
    positive, so an uncrossed search would report 0 there."""
    cfg = tmp_path / "cross.cfg"
    cfg.write_text("xi = 0.014\nbeta = 0.88\nN = 35400\nfig3_N = 35400\n"
                   "n_list = 35400\nm = 17700\ndistances_km = 23\n")
    for verb in ("optimize", "fig3", "fig2"):
        assert cli.main([verb, "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
    _, _, opt_rows = _read_table(tmp_path / "optimize.csv")
    _, _, fig3_rows = _read_table(tmp_path / "fig3.csv")
    _, fig2_header, [fig2_row] = _read_table(tmp_path / "fig2.csv")
    fig2 = dict(zip(fig2_header, fig2_row))
    assert [r[1] for r in opt_rows] == [r[1] for r in fig3_rows] == \
        ["mle", "mm", "opt"]
    for (d, name, va, frac, _, k, _), (d3, _, frac3, va3, k3) in zip(
            opt_rows, fig3_rows):
        assert (d, va, frac, k) == (d3, va3, frac3, k3)
        assert k == fig2[f"K_{name}_35400"]
    assert float(opt_rows[1][5]) > 0.0
    # sigma2_MM's count is its grid's 576 cells and the cross's 1, the sum
    # of its fig2_trace rows' counts
    _, _, trace_rows = _read_table(tmp_path / "fig2_trace.csv")
    mm_trace = [(r[3], int(r[-1])) for r in trace_rows if r[1] == "mm"]
    assert mm_trace == [("grid", 576), ("cross", 1)]
    assert int(opt_rows[1][6]) == 577 == sum(n for _, n in mm_trace)


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
    # a repeated distance would draw or optimize it twice and write its
    # rows twice; the message names the key and the value
    repeats = {"distances_km = 0, 0\n":
               "distances_km must not repeat a value, got 0.0 twice",
               "mc_distances_km = 20, 20\n":
               "mc_distances_km must not repeat a value, got 20.0 twice"}
    for text, verb in (("no_such_key = 1\n", "keyrate"),
                       ("mm_key_cross_denominator_full = true\n", "fig1"),
                       ("mm_key_printed_variance = false\n", "validate"),
                       ("asymptotic_includes_beta = false\n", "fig2"),
                       ("m = 1e5\n", "validate"), ("m = 1\n", "validate"),
                       ("m = 0\n", "validate"),
                       ("distances_km = \n", "simulate"),
                       ("distances_km = \n", "optimize"),
                       ("estimators = \n", "keyrate"),
                       ("n_list = \n", "fig2"),
                       ("V_A = inf\n", "validate"),
                       ("mc_distances_km = inf\n", "validate"),
                       ("loss_db_per_km = nan\n", "validate"),
                       ("xi = nan\n", "validate"), ("V_A = nan\n", "validate"),
                       ("V_M2 = nan\n", "validate"), ("N = inf\n", "keyrate"),
                       ("distances_km = 0:inf:5\n", "fig2"),
                       ("n_list = 1e5, 1e5\n", "fig2"),
                       ("n_list = 1e5, 100000\n", "fig2"),
                       ("estimators = opt, opt\n", "fig3"),
                       ("estimators = opt, opt\n", "keyrate"),
                       *((text, verb) for text in repeats
                         for verb in ("fig1", "fig3", "validate"))):
        bad.write_text(text)
        rc = cli.main([verb, "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2, text
        err = capsys.readouterr().err
        assert "cvqkd: config error" in err
        if text.startswith(("mm_key_", "asymptotic_includes_beta")):
            # removed keys are rejected, not ignored
            assert "unknown config key" in err, err
        if text in repeats:
            assert err == f"cvqkd: config error: {repeats[text]}\n", verb


def test_cli_second_modulation_verbs_reject_zero_v_m2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("V_M2 = 0\nN = 2000\nm = 1000\ntrials = 10\n"
                        "distances_km = 0, 10\nmc_distances_km = 7\n")
    # fig1 needs it even with no Monte Carlo distance on its grid
    for verb in ("validate", "fig1"):
        rc = cli.main([verb, "--config", str(cfg_path),
                       "--out", str(tmp_path / verb)])
        assert rc == 2, verb
        assert "cvqkd: config error" in capsys.readouterr().err
    for verb in ("simulate", "keyrate", "optimize"):
        rc = cli.main([verb, "--config", str(cfg_path),
                       "--out", str(tmp_path / verb)])
        assert rc == 0, verb


def _cli_run(tmp_path, verb, text):
    """cli.main on a config text; returns (exit code, stderr)."""
    tmp_path.mkdir(exist_ok=True)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main([verb, "--config", str(cfg_path),
                       "--out", str(tmp_path / verb)])
    return rc, err.getvalue()


def test_validate_needs_a_monte_carlo_distance(tmp_path):
    """validate with no Monte Carlo distance would check no estimator and
    pass, so it is a config error; fig1's theory curves need no trials,
    so it runs and leaves its Monte Carlo columns empty."""
    text = SMALL_CFG + "mc_distances_km = \n"
    rc, err = _cli_run(tmp_path, "validate", text)
    assert rc == 2
    assert err == ("cvqkd: config error: validate needs a distance in "
                   "mc_distances_km: without one it checks no estimator\n")
    assert not (tmp_path / "validate").exists()
    rc, err = _cli_run(tmp_path, "fig1", text)
    assert rc == 0 and err == ""
    rows = _read_table(tmp_path / "fig1" / "fig1.csv")[2]
    assert len(rows) == 3 and all(r[6:] == ["", ""] for r in rows)


def test_second_modulation_verbs_reject_zero_transmission(tmp_path):
    """Var(T_hat) = (4/N)*T**2*(2 + V_N/(T*V_M2)): a distance where T, or
    T**2, underflows to 0.0 is a config error naming that distance, not a
    ZeroDivisionError."""
    for verb, text, where in (
            ("validate", "mc_distances_km = 20000\n",
             "mc_distances_km = 20000.0 km"),
            # T = 1e-200 at 20 km
            ("validate", "loss_db_per_km = 100\n", "mc_distances_km = 20.0 km"),
            ("fig1", "loss_db_per_km = 100\n", "distances_km = 20.0 km")):
        rc, err = _cli_run(tmp_path, verb, text)
        assert rc == 2, (verb, text)
        assert "cvqkd: config error" in err and where in err, err


ALL_VERBS = ("fig1", "fig2", "fig3", "validate", "simulate", "keyrate",
             "optimize")


def test_huge_variances_are_config_errors(tmp_path):
    """V_A, xi and V_M2, and the block sizes N, n_list and fig3_N, have
    upper bounds where the arithmetic breaks down: past them every verb
    exits 2 naming the key; at them every verb finishes, but simulate,
    which refuses so large an N by its own limit."""
    small = ("distances_km = 0, 100\nmc_distances_km = 0, 100\n"
             "n_list = 1e5\nfig3_N = 1e9\ntrials = 50\n")
    largest = {"V_A": _MAX_VARIANCE, "xi": _MAX_VARIANCE,
               "V_M2": _MAX_N_TIMES_V_M2 / ExperimentConfig().N,
               "N": _MAX_BLOCK, "n_list": _MAX_BLOCK, "fig3_N": _MAX_BLOCK}
    for key, top in largest.items():
        # V_M2's bound is 1.0 at the largest N
        text = small + ("V_M2 = 1e-3\n" if key == "N" else "")
        for verb in ALL_VERBS:
            rc, err = _cli_run(tmp_path, verb, text + f"{key} = 1e300\n")
            assert rc == 2, (key, verb)
            assert f"cvqkd: config error: {key} must be <=" in err, err
            rc, err = _cli_run(tmp_path, verb, text + f"{key} = {top!r}\n")
            if key == "N" and verb == "simulate":
                assert rc == 2 and "simulate holds every state" in err, err
            else:
                assert rc in (0, 1), (key, verb, err)


@pytest.mark.parametrize("verb", ["fig2", "keyrate", "optimize"])
def test_an_infinite_confidence_quantile_is_a_rate_error(tmp_path, verb):
    """At epsilon_pe = 1e-17, 1 - epsilon_pe/2 rounds to 1 and the
    quantile is infinite: the rate verbs exit 2 naming epsilon_pe, where
    they wrote NaN rates and exited 0. At 2**-50 both conventions run and
    write no NaN."""
    small = "distances_km = 0, 100\nn_list = 1e5\nfig3_N = 1e9\n"
    rc, err = _cli_run(tmp_path, verb, small + "epsilon_pe = 1e-17\n")
    assert rc == 2, err
    assert f"cvqkd: {verb}: epsilon_pe = 1e-17 is too small" in err, err
    for convention in ("paper", "gaussian"):
        out = tmp_path / convention
        rc, err = _cli_run(out, verb, small + f"epsilon_pe = {2.0**-50!r}\n"
                           f"convention = {convention}\n")
        assert rc == 0, err
        tables = list((out / verb).glob("*.csv"))
        assert tables and not any("nan" in t.read_text() for t in tables)


def _log_uniform(rng, lo, hi):
    return float(10 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _far(rng, near, far):
    """The end of a drawn range: ``far`` on a quarter of the draws."""
    return far if rng.uniform() < 0.25 else near


def _random_config(rng, max_loss=30.0, max_km=3000.0):
    # the block sizes reach up to 1e300, past their cap, and epsilon_pe
    # down to 1e-300, past the smallest value with a finite confidence
    # quantile, each on a quarter of the draws, so the rejections show
    # while most configs still run; the loss and the distances are drawn
    # up to max_loss dB/km and max_km
    N = int(_log_uniform(rng, 3, _far(rng, 1e12, 1e300)))
    estimators = rng.permutation(["mle", "mm", "opt"])[:rng.integers(1, 4)]
    return N, "".join(f"{key} = {value}\n" for key, value in (
        ("V_A", repr(_log_uniform(rng, 1e-3, _MAX_VARIANCE))),
        ("xi", repr(_log_uniform(rng, 1e-12, _MAX_VARIANCE))),
        ("V_M2", repr(_log_uniform(rng, 1e-3,
                                   _MAX_N_TIMES_V_M2 / min(N, _MAX_BLOCK)))),
        # m = 2 + floor(u * (N - 2)) in [2, N - 1], drawn on floats: N may
        # pass int64, past which rng.integers fails
        ("N", N), ("m", 2 + int(float(rng.uniform()) * (N - 2))),
        ("beta", repr(float(rng.uniform(0.01, 1.0)))),
        ("epsilon_pe", repr(_log_uniform(rng, _far(rng, 1e-15, 1e-300),
                                         0.5))),
        ("loss_db_per_km", repr(float(rng.uniform(0.0, max_loss)))),
        ("distances_km", f"0, {float(rng.uniform(0.0, max_km))!r}"),
        ("mc_distances_km", repr(float(rng.uniform(0.0, max_km)))),
        ("trials", int(rng.integers(2, 50))),
        ("n_list", int(_log_uniform(rng, 3, _far(rng, 1e12, 1e300)))),
        ("fig3_N", int(_log_uniform(rng, 3, _far(rng, 1e12, 1e300)))),
        ("estimators", ", ".join(estimators)),
        ("convention", rng.choice(["paper", "gaussian"])),
        ("seed", int(rng.integers(0, 2**31)))))


def test_random_valid_configs_never_raise(tmp_path):
    """Seeded random configs, drawn log-uniform over many decades: every
    verb returns 0, 1 or 2 and raises nothing. simulate draws and writes
    all N states: it runs where N <= 1e5, must refuse with 2 above its
    limit, and is skipped in between, where it would run but slowly. 40
    configs, as a quarter of the draws of each of four keys reach past
    its limit."""
    _run_random_configs(tmp_path, 20261018)


def test_random_configs_in_reach_run_the_monte_carlo_verbs(tmp_path):
    """Seeded random configs whose loss and distances, at most 1 dB/km
    and 100 km, leave T >= 1e-10, far above underflow: fig1 and validate
    draw their trials and finish, exit 0 or 1, on at least 10 of 40, and
    every verb returns 0, 1 or 2."""
    codes = _run_random_configs(tmp_path, 20261019, 1.0, 100.0)
    for verb in ("fig1", "validate"):
        assert sum(rc in (0, 1) for rc in codes[verb]) >= 10, codes[verb]


def _run_random_configs(tmp_path, seed, *reach):
    """Run every verb on 40 configs _random_config draws from ``seed``,
    and ``reach`` if given; each must return 0, 1 or 2. Returns each
    verb's exit codes."""
    rng = np.random.default_rng(seed)
    codes = {verb: [] for verb in ALL_VERBS}
    for i in range(40):
        N, text = _random_config(rng, *reach)
        for verb in ALL_VERBS:
            if verb == "simulate" and 10**5 < N <= cli._MAX_SIMULATE_N:
                continue
            rc, _ = _cli_run(tmp_path / str(i), verb, text)
            if verb == "simulate" and N > cli._MAX_SIMULATE_N:
                assert rc == 2, text
            assert rc in (0, 1, 2), (verb, text)
            codes[verb].append(rc)
    return codes


def test_simulate_refuses_blocks_above_its_limit(tmp_path, monkeypatch):
    """A valid config with N = 1e12 exits 2 naming N, before any state is
    drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("simulate drew a session")

    monkeypatch.setattr(experiments, "sample_session", no_sampling)
    rc, err = _cli_run(tmp_path, "simulate", "N = 1e12\nm = 5e11\n")
    assert rc == 2
    assert "cvqkd: config error" in err and "N = 1000000000000" in err, err
    # the limit itself is accepted: only the sampling is refused here
    with pytest.raises(AssertionError, match="drew a session"):
        _cli_run(tmp_path, "simulate",
                 f"N = {cli._MAX_SIMULATE_N}\nm = 100\n")


def test_simulate_refuses_one_state_past_its_limit(tmp_path, monkeypatch):
    """N = 10_000_001, one state past the limit of 1e7, exits 2 with the
    limit message, before any state is drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("simulate drew a session")

    monkeypatch.setattr(experiments, "sample_session", no_sampling)
    rc, err = _cli_run(tmp_path, "simulate", "N = 10000001\nm = 100\n")
    assert rc == 2
    assert err == ("cvqkd: config error: simulate holds every state in "
                   "memory: N = 10000001 is above its limit of 10000000 "
                   "states\n"), err


@pytest.mark.parametrize("verb", ["validate", "fig1"])
def test_monte_carlo_verbs_refuse_trials_above_their_limit(tmp_path,
                                                           monkeypatch, verb):
    """A valid trial count above the limit exits 2 naming trials, before
    any trial is drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("drew trials")

    monkeypatch.setattr(experiments, "sample_moments", no_sampling)
    rc, err = _cli_run(tmp_path, verb, "trials = 1e8\n")
    assert rc == 2
    assert "cvqkd: config error" in err and "trials = 100000000" in err, err
    # the limit itself is accepted: only the sampling is refused here
    with pytest.raises(AssertionError, match="drew trials"):
        _cli_run(tmp_path, verb, f"trials = {cli._MAX_TRIALS}\n")


# sha256 of the table rows (the '#' metadata lines skipped, rows joined by
# newlines) of a CSV that a verb writes at the default config, and the row
# count; an id names the verb, or the verb's second file such as fig2's
# polish trace, and a "-gaussian" id runs it with --convention gaussian.
# The two gaussian tables marked below were re-pinned when the quantile
# came from the standard library's inverse normal CDF: the gaussian z at
# the default epsilon_pe went 6.466951074732419 -> 6.466951074732417, and
# patching that z back gives the digests pinned before, b175d891...b83063c7
# (fig2_trace-gaussian) and aaa026be...1461645e (keyrate-gaussian)
PINNED_DEFAULT_TABLES = {
    "fig1": ("fig1.csv", 42, "356f2779cfc3044d809209737543e3dd"
                             "27b191f24b06edc173555cd7b806faf1"),
    "validate": ("validate_report.csv", 67,
                 "444482626dd51df7a8c3d514dd1a54ce"
                 "cc71ded06fb2faf487ef9584c66384ac"),
    "keyrate": ("keyrate.csv", 42, "eb521c07e2974da21fdaab71ff67cb5c"
                                   "e948597a226c779c9066ac681ceb69ad"),
    "optimize": ("optimize.csv", 4, "80a7567942e37a4f2b7d2a6d6fd50f5d"
                                    "a2a3bf104396f7185bb9e89772eaf7fa"),
    # the one table whose rows carry numpy scalars, the session's float64s
    "simulate": ("session.csv", 100001, "bc3a3318563b7c3d9e499b9a6eb7cdd4"
                                        "7ba3ab4d743415d99b8922e1a8d70568"),
    "fig2_trace": ("fig2_trace.csv", 748, "756cd31077e90293298867cef27e279d"
                                          "2edfb3c84965abac9ced49d2bcffa125"),
    "fig2-gaussian": ("fig2.csv", 42, "269b4eae1548398c27c572a182deea27"
                                      "0f171326bb8bd0531d7255a5d8979662"),
    "fig3-gaussian": ("fig3.csv", 124, "55f2086ec023f08ac9b7a555ff85ee14"
                                       "8a3c883bcd95a14cacda070f4e3e198c"),
    # re-pinned
    "fig2_trace-gaussian": ("fig2_trace.csv", 733,
                            "1075a9ac0fcb781bcb33da25d101ea1d"
                            "f3f32aff57d8de336f89ab8fcf771062"),
    # re-pinned
    "keyrate-gaussian": ("keyrate.csv", 42,
                         "6f1513c0ecf293203b2b5aaab499995e"
                         "6f4f8544ad91de03a40945d29dc47684"),
    "optimize-gaussian": ("optimize.csv", 4,
                          "682c35469580ba6254418f63570355a4"
                          "239470ef50c93ac1e151b18adf0fa280"),
}


# the verb that writes a table whose id is not a verb
_TABLE_VERB = {"fig2_trace": "fig2"}


def _pinned_argv(verb, out):
    """cli.main's argv for the PINNED_DEFAULT_TABLES id ``verb``, writing
    to the directory ``out``."""
    command, _, convention = verb.partition("-")
    argv = [_TABLE_VERB.get(command, command), "--out", str(out)]
    if convention:
        argv += ["--convention", convention]
    return argv


def _assert_pinned_table(out, verb):
    """The table of the PINNED_DEFAULT_TABLES id ``verb`` in the directory
    ``out`` has its pinned row count and digest."""
    name, n_rows, digest = PINNED_DEFAULT_TABLES[verb]
    with open(out / name, newline="") as fh:
        rows = [line.rstrip("\r\n") for line in fh if not line.startswith("#")]
    assert len(rows) == n_rows, verb
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest, verb


@pytest.mark.parametrize("verb", sorted(PINNED_DEFAULT_TABLES))
def test_default_outputs_match_pinned_digests(tmp_path, verb):
    """The default-config tables stay byte for byte what they were when
    pinned; the paper convention's fig2 and fig3 are pinned row by row in
    the benchmark's expected outputs."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_pinned_argv(verb, tmp_path)) == 0
    _assert_pinned_table(tmp_path, verb)


# every SIMD target numpy 2.4 dispatches to on x86-64 above its X86_V2
# baseline
_NUMPY_DISPATCH = "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's x86-64 dispatch targets")
def test_default_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    """The default-config tables keep their pinned digests with numpy's
    dispatch above the x86-64 baseline switched off, in a fresh
    interpreter, as NPY_DISABLE_CPU_FEATURES acts only at import. np.log2
    gives other bits on a few inputs at another dispatch level; the array
    rates only rank grid cells and the float path writes every output
    value, so no output moves."""
    script = (
        "import contextlib, io, json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, "
        "__cpu_features__\n"
        "from cvqkd import cli\n"
        "on = [f for f in __cpu_dispatch__ if __cpu_features__[f]]\n"
        "assert not on, on\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    verbs = sorted(PINNED_DEFAULT_TABLES)
    argvs = [_pinned_argv(verb, tmp_path / verb) for verb in verbs]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES=_NUMPY_DISPATCH)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    for verb in verbs:
        _assert_pinned_table(tmp_path / verb, verb)


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's tracer wraps still exists where it looks
    it up, so moving or deleting one fails here and not only in a traced
    benchmark run. The tracer module is read, never installed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._TARGETS
    for module, attr, span in tracing._TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), (module, attr, span)
    for verb in ("fig2", "fig3"):
        assert callable(cli._RUNNERS[verb]), verb


def _loaded_names(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
            and isinstance(sub.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    """Each name in a cvqkd module's __all__ is reached from a caller the
    package ships: a module-level statement, a name the package root
    exports, the console script cli.main, or a target that the benchmark's
    tracer wraps. A definition's body counts only once the definition is
    reached, so names that call only each other fail; tests are not
    callers. The package and the tracer are read with ast, never
    imported."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src", "cvqkd")
    exported, bodies, reached = {}, {}, {"main"}
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(
                    _loaded_names(node))
            elif (isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "__all__"):
                exported.update((name, filename[:-3])
                                for name in ast.literal_eval(node.value))
            elif (isinstance(node, ast.ImportFrom)
                  and filename == "__init__.py"):
                reached.update(alias.name for alias in node.names)
            else:
                reached |= _loaded_names(node)
    with open(os.path.join(root, "perfbench", "tracing.py")) as fh:
        tracing = ast.parse(fh.read())
    targets = [ast.literal_eval(node.value) for node in tracing.body
               if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "_TARGETS"]
    assert len(targets) == 1 and targets[0]
    reached |= {attr for _, attr, _ in targets[0]}
    todo = list(reached)
    while todo:
        for name in bodies.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    assert exported
    unused = sorted(f"{module}.{name}" for name, module in exported.items()
                    if name not in reached)
    assert not unused, unused


def test_monte_carlo_verbs_load_no_scipy(tmp_path):
    # a fresh interpreter: this test session has imported scipy already
    script = (
        "import sys\n"
        "from cvqkd import cli\n"
        "for verb in ('validate', 'fig1'):\n"
        f"    cli.main([verb, '--trials', '5', '--out', {str(tmp_path)!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_rate_verbs_load_no_scipy_optimize(tmp_path):
    # a fresh interpreter: the polish is in-package and the confidence
    # quantile comes from the standard library, so no rate verb loads any
    # scipy module
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    script = (
        "import sys\n"
        "from cvqkd import cli\n"
        "for verb in ('fig2', 'fig3', 'keyrate', 'optimize'):\n"
        f"    rc = cli.main([verb, '--config', {str(cfg_path)!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "    assert rc == 0, (verb, rc)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_rate_verbs_run_with_scipy_unimportable(tmp_path):
    """With scipy made unimportable in a fresh interpreter, keyrate and
    fig3 at the default config still write their pinned tables, under
    each convention."""
    verbs = ("keyrate", "fig3-gaussian")
    argvs = [_pinned_argv(verb, tmp_path / verb) for verb in verbs]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cvqkd import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for verb in verbs:
        _assert_pinned_table(tmp_path / verb, verb)


def test_module_entry_point_exits_with_mains_code(tmp_path):
    """``python -m cvqkd.cli`` runs main and exits with its code: 0 for
    --version and a run, 2 with the message for a bad config."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "cvqkd.cli", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = run("--version")
    assert (done.returncode, done.stdout) == (0, f"{__version__}\n")
    done = run("keyrate", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "keyrate.csv").exists()
    bad = tmp_path / "bad.cfg"
    bad.write_text("V_A = -1\n")
    done = run("keyrate", "--config", str(bad), "--out", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr == "cvqkd: config error: V_A must be > 0, got -1.0\n"


@pytest.mark.parametrize("verb", ["validate", "fig1"])
def test_small_block_monte_carlo_verbs_finish(tmp_path, verb):
    """At N = 200 some trials' plug-in Var(sigma2_mm_key) is negative;
    it is read as 0, so the run finishes instead of raising."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("N = 200\nm = 100\nxi = 0.1\n")
    rc = cli.main([verb, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc in (0, 1)


def test_cli_validate_runs_small(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    rc = cli.main(["validate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc in (0, 1)
    assert (tmp_path / "out" / "validate_report.csv").exists()
    assert "checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_an_unwritable_output_directory_exits_two(tmp_path, capsys, verb):
    """--out naming an existing file, or a config's out_dir below one,
    exits 2 with the verb and the OS error, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + f"trials = 10\nout_dir = {blocker}/sub\n")
    for argv, error in ((["--out", str(blocker)], "File exists"),
                        ([], "Not a directory")):
        assert cli.main([verb, "--config", str(cfg_path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cvqkd: {verb}: [Errno "), captured
        assert error in captured.err and captured.err.count("\n") == 1
    assert blocker.read_text() == ""


def test_each_verb_writes_exactly_its_tables(tmp_path):
    """Every verb, run into a fresh directory, leaves exactly its own
    files there: no stray output such as a plot script."""
    verb_files = {
        "fig1": {"fig1.csv"},
        "fig2": {"fig2.csv", "fig2_trace.csv"},
        "fig3": {"fig3.csv"},
        "validate": {"validate_report.csv"},
        "simulate": {"session.csv"},
        "keyrate": {"keyrate.csv"},
        "optimize": {"optimize.csv"},
    }
    assert sorted(verb_files) == sorted(ALL_VERBS)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + "trials = 10\nn_list = 1e5\n"
                        "fig3_N = 1e5\n")
    for verb, files in verb_files.items():
        out = tmp_path / verb
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([verb, "--config", str(cfg_path), "--out", str(out)])
        # validate's small run may fail a tolerance, and exits 1 then
        assert rc in ((0, 1) if verb == "validate" else (0,)), verb
        assert set(os.listdir(out)) == files, verb


def test_cli_seed_override_changes_sessions(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    rc1 = cli.main(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "a")])
    rc2 = cli.main(["simulate", "--config", str(cfg_path), "--seed", "7",
                    "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    a, b = ([float(r[3]) for r in _read_table(tmp_path / d / "session.csv")[2]]
            for d in ("a", "b"))
    assert a != b


def test_cli_fig1_writes_output(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + "trials = 50\n")
    rc = cli.main(["fig1", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "fig1.csv").exists()
