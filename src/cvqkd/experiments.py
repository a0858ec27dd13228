"""Reproducible experiment runs: figure data, Monte Carlo validation.

Every output CSV starts with comment lines embedding the code version, the
master seed and the effective configuration, so a result file is
self-describing and a rerun with the same configuration is byte-identical.
Monte Carlo trials draw their moment sums with ``channel.sample_moments``
from two streams per distance, seeded from the master seed; the identity
checks draw per-state sessions seeded through ``channel.trial_seed``.
Aggregation uses numpy reductions over trial-indexed arrays, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import csv
import os
from dataclasses import replace
from itertools import repeat
from math import copysign, inf, log, log10, nan, sqrt

import numpy as np

from ._version import __version__
from .channel import (
    ChannelParams,
    ProtocolParams,
    fiber_transmission,
    sample_moments,
    sample_session,
    split_session,
    trial_seed,
)
from .config import _KIND_BY_NAME, ExperimentConfig
from .estimators import (
    EstimatorKind,
    Moments,
    # the per-state statistics; unused here, kept importable as
    # cvqkd.experiments.collect_statistics, which perfbench's tracer wraps
    collect_statistics,  # noqa: F401
    combine_optimal,
    estimate_sigma2_mle,
    estimate_sigma2_mm_full,
    estimate_sigma2_mm_key,
    estimate_T_secondmod,
    estimate_t_mle,
    estimate_Vxi_secondmod,
    moments,
    residual_second_moment,
    # unused here, kept importable as cvqkd.experiments.second_moment,
    # which perfbench's tracer wraps
    second_moment,  # noqa: F401
    theoretical_std,
)
from .optimizer import (
    _round_m,
    # unused here, kept importable as
    # cvqkd.experiments.optimize_asymptotic_rate, which perfbench's tracer
    # wraps
    optimize_asymptotic_rate,  # noqa: F401
    optimize_asymptotic_rates,
    optimize_key_rate,
    optimize_key_rates,
)
from .security import key_rate_asymptotic, key_rate_finite

__all__ = [
    "run_estimator_trials",
    "check_identities",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "monte_carlo_validate",
    "run_simulate",
    "run_keyrate",
    "run_optimize",
]

# ---------------------------------------------------------------------------
# output plumbing

def _metadata_lines(cfg: ExperimentConfig) -> list[str]:
    lines = [f"# version = {__version__}", f"# master_seed = {cfg.seed}"]
    lines += [f"# config: {line}" for line in cfg.echo_lines()]
    lines += [f"# config_file: {line}" for line in cfg.raw_lines]
    return lines


def _write_table(out_dir: str, name: str, cfg: ExperimentConfig,
                 columns: list[str], rows) -> str:
    """Write the table ``name`` into ``out_dir``, made if missing, behind
    the run's metadata lines; returns its path.

    csv writes each non-string field by str and None as an empty field.
    str of a float or of numpy's float64 is the shortest text that reads
    back to the same bits, the text of repr(float(v)). str of an
    np.float32 is its shortest float32 text, fewer digits than its value
    as a float has, so it would lose that; no table holds one."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        for line in _metadata_lines(cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def _n_label(N: int) -> str:
    e = int(round(log10(N)))
    return f"1e{e}" if 10**e == N else str(N)


# ---------------------------------------------------------------------------
# Monte Carlo harness

# the estimator bank's names, in the order of its table, and the kind
# whose closed-form std each is checked against
_THEORY_KIND = {
    "t_hat": EstimatorKind.T_MLE,
    "sigma2_mle": EstimatorKind.SIGMA2_MLE,
    "sigma2_mm_full": EstimatorKind.SIGMA2_MM_FULL,
    "sigma2_mm_key": EstimatorKind.SIGMA2_MM_KEY,
    "sigma2_opt": EstimatorKind.SIGMA2_OPT,
    "T_hat": EstimatorKind.T_SECONDMOD,
    "vxi_hat": EstimatorKind.VXI_SECONDMOD,
}


def _estimator_bank(pe: Moments, key: Moments, m2: Moments, V_A: float,
                    V_M2: float) -> dict:
    """The estimates by bank name, in the order of ``_THEORY_KIND``: floats
    for one trial's sums, arrays for arrays of sums over trials."""
    t_est = estimate_t_mle(pe)
    mle = estimate_sigma2_mle(pe, t_est.value)
    mm_full = estimate_sigma2_mm_full(pe, key, t_est.value)
    mm_key = estimate_sigma2_mm_key(pe, key, t_est.value)
    if np.any(mm_key.variance < 0.0):
        # the plug-in variance is taken at the trial's own sigma2 estimate,
        # which can be negative at small N, and then so can the variance;
        # read as 0, it makes that trial's sigma2_opt mm_key's value
        mm_key = replace(mm_key, variance=np.maximum(mm_key.variance, 0.0))
    opt = combine_optimal(mle, mm_key)
    T_est = estimate_T_secondmod(m2, V_M2)
    vxi = estimate_Vxi_secondmod(m2, T_est, V_A)
    return dict(zip(_THEORY_KIND, (
        t_est.value, mle.value, mm_full.value, mm_key.value, opt.value,
        T_est.value, vxi.value)))


def run_estimator_trials(cfg: ExperimentConfig, distance_km: float,
                         trials: int, stream_base: int) -> dict:
    """Run the estimator bank on ``trials`` sampled sessions at one distance.

    Returns the bank's table: one array over trials per bank name.
    ``channel.sample_moments`` draws each trial's moment sums in O(1), with
    the law of the per-state sums: the revealed and key sums of a session
    without the second modulation feed the regression and moment
    estimators, the (x_m2, y) sums of an independent second-modulation
    session feed the correlation estimators. One bank call runs every
    estimator on the sums of all trials at once. Trial i is row i of
    streams ``stream_base`` and ``stream_base + 1``, so any prefix of the
    trials reproduces.
    """
    channel = ChannelParams.from_distance(distance_km, cfg.xi,
                                          cfg.loss_db_per_km)
    protocol = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m, V_M2=cfg.V_M2)
    pe, key, m2 = sample_moments(protocol, channel, trials, cfg.seed,
                                 stream_base)
    return _estimator_bank(Moments(*pe.T, protocol.m),
                           Moments(*key.T, protocol.n),
                           Moments(*m2.T, protocol.N), cfg.V_A, cfg.V_M2)


def _mc_trials(cfg: ExperimentConfig, di: int) -> dict:
    """The trial table of Monte Carlo distance ``cfg.mc_distances_km[di]``,
    drawn on its own streams 3*di and 3*di + 1 whichever verb asks."""
    return run_estimator_trials(cfg, cfg.mc_distances_km[di], cfg.trials,
                                3 * di)


def check_identities() -> tuple[float, float]:
    """Exact algebraic identities on IDENTITY_SESSIONS random sessions of
    IDENTITY_N states.

    With the slope fit on the full set, the moment estimator equals the
    residual (MLE) estimator, and k-weighted residual moments add up over
    any partition. Returns the worst relative residual of each identity.
    """
    N = IDENTITY_N
    vas = (0.5, 3.0, 10.0)
    ts = (1.0, 0.5, 0.1)
    xis = (0.0, 0.01, 0.1)
    worst_mm = 0.0
    worst_split = 0.0
    for i in range(IDENTITY_SESSIONS):
        V_A, T, xi = vas[i % 3], ts[(i // 3) % 3], xis[(i // 9) % 3]
        protocol = ProtocolParams(V_A=V_A, N=N, m=N // 2, V_M2=0.0)
        channel = ChannelParams(T=T, xi=xi)
        session = sample_session(protocol, channel,
                                 trial_seed(IDENTITY_SEED, 900, i))
        split = split_session(session, protocol.m,
                              trial_seed(IDENTITY_SEED, 901, i))
        full = moments(session.x, session.y)
        t_full = estimate_t_mle(full).value
        mle_full = residual_second_moment(session.x, session.y, t_full)
        mm_full = estimate_sigma2_mm_full(full, None, t_full).value
        worst_mm = max(worst_mm, abs(mm_full - mle_full) / mle_full)

        r_pe = residual_second_moment(session.x[split.pe_indices],
                                      session.y[split.pe_indices], t_full)
        r_key = residual_second_moment(session.x[split.key_indices],
                                       session.y[split.key_indices], t_full)
        total = split.m * r_pe + split.n * r_key
        worst_split = max(worst_split,
                          abs(N * mle_full - total) / (N * mle_full))
    return worst_mm, worst_split


# ---------------------------------------------------------------------------
# validation report

STD_RATIO_TOL = 0.05
BIAS_SIGMAS = 3.0
MM_IDENTITY_TOL = 1e-10
SPLIT_IDENTITY_TOL = 1e-12
CORR_TOL = 0.05
DOMINANCE_SLACK = 1.02
# the identity checks' sessions, a fixed draw
IDENTITY_SESSIONS = 100
IDENTITY_N = 1000
IDENTITY_SEED = 777


def _theory_std(cfg: ExperimentConfig, kind: EstimatorKind, T: float) -> float:
    return theoretical_std(kind, cfg.V_A, T, cfg.xi, cfg.m, cfg.N - cfg.m,
                           cfg.N, V_M2=cfg.V_M2)


def monte_carlo_validate(cfg: ExperimentConfig, out_dir: str):
    """Empirical check of every estimator against its theoretical law.

    Writes validate_report.csv (one row per check) and
    validate_summary.txt; returns (rows, all_ok). A row is (check,
    distance_km, estimator, observed, expected, tolerance, status, z): z is
    the check's statistic in standard errors of its sampling noise, empty
    for the exact identities and the dominance check. It is reported only;
    the status comes from the fixed tolerance.
    """
    trials = cfg.trials
    rows = []

    def add(check, distance, estimator, observed, expected, tol, ok, z=None):
        rows.append([check, distance, estimator, float(observed),
                     float(expected), float(tol), "pass" if ok else "FAIL",
                     z])

    worst_mm, worst_split = check_identities()
    add("mm_equals_mle_full_set", None, "sigma2_mm_full",
        worst_mm, 0.0, MM_IDENTITY_TOL, worst_mm <= MM_IDENTITY_TOL)
    add("split_identity", None, "sigma2_mle",
        worst_split, 0.0, SPLIT_IDENTITY_TOL, worst_split <= SPLIT_IDENTITY_TOL)

    for di, d in enumerate(cfg.mc_distances_km):
        res = _mc_trials(cfg, di)
        channel = ChannelParams.from_distance(d, cfg.xi, cfg.loss_db_per_km)
        truth = {EstimatorKind.T_MLE: channel.t,
                 EstimatorKind.T_SECONDMOD: channel.T,
                 EstimatorKind.VXI_SECONDMOD: channel.v_xi}
        emp_stds = {}
        for name, kind in _THEORY_KIND.items():
            values = res[name]
            emp_std = emp_stds[name] = float(np.std(values, ddof=1))
            th_std = _theory_std(cfg, kind, channel.T)
            ratio_dev = abs(emp_std / th_std - 1.0)
            # the log std ratio has standard error 1/sqrt(2*(trials - 1));
            # a spread below float resolution (at a huge N) reads 0, and
            # each z is then its limit, an infinity or NaN, and fails
            add("std_ratio", d, name, emp_std, th_std, STD_RATIO_TOL,
                ratio_dev <= STD_RATIO_TOL,
                log(emp_std / th_std) * sqrt(2.0 * (trials - 1))
                if emp_std > 0.0 else -inf)
            bias = float(np.mean(values)) - truth.get(kind, channel.sigma2)
            se = emp_std / sqrt(trials)
            add("bias", d, name, bias, 0.0, BIAS_SIGMAS * se,
                abs(bias) <= BIAS_SIGMAS * se,
                bias / se if se > 0.0 else copysign(inf, bias) if bias
                else nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = float(np.corrcoef(res["sigma2_mle"],
                                     res["sigma2_mm_key"])[0, 1])
        add("corr_mle_mm_key", d, "sigma2_opt", corr, 0.0, CORR_TOL,
            abs(corr) <= CORR_TOL, corr * sqrt(trials))
        std_opt = emp_stds["sigma2_opt"]
        floor = min(emp_stds["sigma2_mle"], emp_stds["sigma2_mm_key"])
        add("opt_dominance", d, "sigma2_opt", std_opt, floor,
            DOMINANCE_SLACK, std_opt <= DOMINANCE_SLACK * floor)
        # drop this distance's trial table before the next is drawn, so the
        # peak is one distance's
        del res

    all_ok = all(r[6] == "pass" for r in rows)
    _write_table(out_dir, "validate_report.csv", cfg,
                 ["check", "distance_km", "estimator", "observed",
                  "expected", "tolerance", "status", "z"], rows)

    by_check: dict[str, list] = {}
    for r in rows:
        by_check.setdefault(r[0], []).append(r)
    with open(os.path.join(out_dir, "validate_summary.txt"), "w") as fh:
        fh.write(f"# version = {__version__}\n")
        fh.write(f"# master_seed = {cfg.seed}\n")
        fh.write(f"trials = {trials}\n")
        for check, group in by_check.items():
            n_fail = sum(1 for g in group if g[6] != "pass")
            status = "PASS" if n_fail == 0 else f"FAIL ({n_fail}/{len(group)})"
            fh.write(f"{check}: {status}\n")
        fh.write("OVERALL: " + ("PASS" if all_ok else "FAIL") + "\n")
    return rows, all_ok


# ---------------------------------------------------------------------------
# figures

def run_fig1(cfg: ExperimentConfig, out_dir: str) -> str:
    """Estimator standard deviations versus distance.

    Theory curves at every grid distance; Monte Carlo spot checks for the
    moment and combined estimators at the configured sample distances.
    """
    # each distance's trial table is reduced to its two stds and dropped
    # before the next is drawn, so the peak is one distance's
    mc: dict[float, list] = {}
    for di, d in enumerate(cfg.mc_distances_km):
        if d in cfg.distances_km:
            res = _mc_trials(cfg, di)
            mc[d] = [float(np.std(res[name], ddof=1))
                     for name in ("sigma2_mm_full", "sigma2_opt")]
            del res

    rows = []
    for d in cfg.distances_km:
        T = fiber_transmission(d, cfg.loss_db_per_km)
        row = [d] + [_theory_std(cfg, kind, T) for kind in (
            EstimatorKind.VXI_SECONDMOD, EstimatorKind.SIGMA2_MM_FULL,
            EstimatorKind.SIGMA2_MLE, EstimatorKind.VXI_OPT,
            EstimatorKind.SIGMA2_OPT)]
        rows.append(row + mc.get(d, [None, None]))

    return _write_table(out_dir, "fig1.csv", cfg,
                        ["distance_km", "std_Vxi", "std_MM", "std_MLE",
                         "std_Vxi_opt", "std_opt", "mc_std_MM", "mc_std_opt"],
                        rows)


def _rate_table(cfg: ExperimentConfig, N: int) -> list[list]:
    """The optimizer's table at block size N: at each grid distance, the
    optimum of each estimator of ``cfg.estimators``, in order."""
    return optimize_key_rates(
        cfg.xi, cfg.beta, N, cfg.epsilon_pe,
        [_KIND_BY_NAME[name] for name in cfg.estimators],
        Ts=[fiber_transmission(d, cfg.loss_db_per_km)
            for d in cfg.distances_km],
        convention=cfg.convention)


def run_fig2(cfg: ExperimentConfig, out_dir: str) -> str:
    """Optimized finite-size key rate versus distance for several N."""
    tables = [_rate_table(cfg, N) for N in cfg.n_list]
    asym = optimize_asymptotic_rates(
        cfg.xi, cfg.beta, Ts=[fiber_transmission(d, cfg.loss_db_per_km)
                              for d in cfg.distances_km])
    labels = [_n_label(N) for N in cfg.n_list]

    columns = ["distance_km", "K_asymptotic"]
    for label in labels:
        for name in cfg.estimators:
            columns.append(f"K_{name}_{label}")
    rows = []
    trace_rows = []
    for di, d in enumerate(cfg.distances_km):
        row = [d, asym[di].best_key_rate]
        for label, table in zip(labels, tables):
            for name, res in zip(cfg.estimators, table[di]):
                row.append(res.best_key_rate)
                trace_rows += [[d, name, label, *t] for t in res.trace]
        rows.append(row)

    path = _write_table(out_dir, "fig2.csv", cfg, columns, rows)
    _write_table(out_dir, "fig2_trace.csv", cfg,
                 ["distance_km", "estimator", "N", "stage", "V_A",
                  "m_fraction", "key_rate", "evaluations"], trace_rows)
    return path


def run_fig3(cfg: ExperimentConfig, out_dir: str) -> str:
    """Optimal (m/N, V_A) versus distance at one block size."""
    rows = []
    for d, results in zip(cfg.distances_km, _rate_table(cfg, cfg.fig3_N)):
        for name, res in zip(cfg.estimators, results):
            rows.append([d, name, res.best_m_fraction, res.best_V_A,
                         res.best_key_rate])
    return _write_table(out_dir, "fig3.csv", cfg,
                        ["distance_km", "estimator", "opt_m_over_N",
                         "opt_V_A", "key_rate"], rows)


# ---------------------------------------------------------------------------
# small CLI verbs

def run_simulate(cfg: ExperimentConfig, out_dir: str) -> str:
    """Write one sampled session (at the first grid distance) to CSV, a
    row ``index, x, x_m2, y`` per state (x_m2 empty without it)."""
    d = cfg.distances_km[0]
    channel = ChannelParams.from_distance(d, cfg.xi, cfg.loss_db_per_km)
    protocol = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m, V_M2=cfg.V_M2)
    session = sample_session(protocol, channel, cfg.seed)
    x_m2 = repeat(None) if session.x_m2 is None else session.x_m2
    return _write_table(out_dir, "session.csv", cfg,
                        ["index", "x", "x_m2", "y"],
                        zip(range(session.n_states), session.x, x_m2,
                            session.y))


def run_keyrate(cfg: ExperimentConfig, out_dir: str) -> str:
    """Key rates at the configured (V_A, N, m), no optimization."""
    columns = ["distance_km", "K_asymptotic"] + [f"K_{e}" for e in cfg.estimators]
    rows = []
    for d in cfg.distances_km:
        T = fiber_transmission(d, cfg.loss_db_per_km)
        row = [d, key_rate_asymptotic(cfg.V_A, T, cfg.xi, cfg.beta).key_rate]
        for name in cfg.estimators:
            row.append(key_rate_finite(cfg.V_A, T, cfg.xi, cfg.beta, cfg.N,
                                       cfg.m, cfg.epsilon_pe,
                                       _KIND_BY_NAME[name],
                                       cfg.convention).key_rate)
        rows.append(row)
    return _write_table(out_dir, "keyrate.csv", cfg, columns, rows)


def run_optimize(cfg: ExperimentConfig, out_dir: str) -> str:
    """Optimize (V_A, m/N) at the first grid distance for each estimator."""
    d = cfg.distances_km[0]
    rows = []
    for name in cfg.estimators:
        res = optimize_key_rate(cfg.xi, cfg.beta, cfg.N, cfg.epsilon_pe,
                                _KIND_BY_NAME[name],
                                T=fiber_transmission(d, cfg.loss_db_per_km),
                                convention=cfg.convention)
        m = _round_m(res.best_m_fraction, cfg.N)
        rows.append([d, name, res.best_V_A, res.best_m_fraction, m,
                     res.best_key_rate, res.evaluations])
    return _write_table(out_dir, "optimize.csv", cfg,
                        ["distance_km", "estimator", "opt_V_A",
                         "opt_m_over_N", "opt_m", "key_rate", "evaluations"],
                        rows)
