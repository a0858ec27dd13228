"""End-to-end acceptance checks.

One test per advertised guarantee. Each prints a single [PASS]/[FAIL]
line with the measured numbers, bypassing pytest's capture so the lines
show up in a plain ``pytest -v`` run. The Monte Carlo and figure runs at
the default grids live here, not in the unit tests.
"""

import time
from math import log, sqrt

import numpy as np
import pytest

from cvqkd import cli
from cvqkd.channel import fiber_transmission
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import (
    EstimatorKind,
    build_cj_mm_full,
    build_cj_mm_key,
    delta_method_variance,
    mm_full_gradient,
    theoretical_std,
    var_sigma2_mm_full,
    var_sigma2_mm_key,
)
from cvqkd.experiments import (
    _THEORY_KIND,
    IDENTITY_N,
    IDENTITY_SESSIONS,
    check_identities,
    monte_carlo_validate,
    run_estimator_trials,
    run_fig1,
    run_fig2,
    run_fig3,
)
from cvqkd.optimizer import maximum_distance, range_limit_ratio
from cvqkd.security import (
    covariance_matrix,
    holevo_bound,
    key_rate_asymptotic,
    symplectic_eigenvalues,
)


@pytest.fixture
def report(capfd):
    """Print a [PASS]/[FAIL] line outside pytest's capture, then assert."""

    def _report(ok: bool, label: str, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def identities():
    start = time.monotonic()
    worst_mm, worst_split = check_identities()
    return worst_mm, worst_split, time.monotonic() - start


@pytest.fixture(scope="module")
def fig2_table(tmp_path_factory):
    cfg = ExperimentConfig()
    start = time.monotonic()
    path = run_fig2(cfg, str(tmp_path_factory.mktemp("fig2")))
    elapsed = time.monotonic() - start
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return cfg, header, rows, elapsed


def test_full_set_identity(identities, report):
    worst_mm, _, elapsed = identities
    ok = worst_mm <= 1e-10 and elapsed < 1.0
    report(ok, "full-set moment estimate equals the residual estimate",
            f"worst relative residual {worst_mm:.3e} (tol 1e-10) over "
            f"{IDENTITY_SESSIONS} sessions of {IDENTITY_N} states in "
            f"{elapsed:.2f}s")


def test_split_identity(identities, report):
    _, worst_split, elapsed = identities
    ok = worst_split <= 1e-12 and elapsed < 1.0
    report(ok, "weighted residual moments add up over any split",
            f"worst relative residual {worst_split:.3e} (tol 1e-12) in "
            f"{elapsed:.2f}s")


def test_delta_method_engine_matches_closed_forms(report):
    start = time.monotonic()
    m, N = 300, 1000
    n = N - m
    worst_full = worst_key = 0.0
    for T in (1.0, 0.5, 0.1, 0.01):
        t = np.sqrt(T)
        for V_A in (1.0, 3.0, 10.0):
            for xi in (0.0, 0.01, 0.1):
                sigma2 = 1.0 + T * xi
                eng_full = delta_method_variance(
                    mm_full_gradient(t), build_cj_mm_full(V_A, t, sigma2, m, N))
                closed_full = var_sigma2_mm_full(V_A, T, sigma2, m, N)
                worst_full = max(worst_full,
                                 abs(eng_full - closed_full) / closed_full)
                eng_key = delta_method_variance(
                    mm_full_gradient(t), build_cj_mm_key(V_A, t, sigma2, m, n))
                closed_key = var_sigma2_mm_key(V_A, T, sigma2, m, n)
                worst_key = max(worst_key,
                                abs(eng_key - closed_key) / closed_key)
    elapsed = time.monotonic() - start
    ok = worst_full <= 1e-12 and worst_key <= 1e-12 and elapsed < 1.0
    report(ok, "delta-method engine reproduces the closed-form variances",
            f"worst rel dev {worst_full:.3e} (full set) / {worst_key:.3e} "
            f"(key subset) over a 36-point grid in {elapsed:.2f}s")


def test_estimator_bank_matches_theory(tmp_path, report):
    cfg = ExperimentConfig()  # 2000 trials at 0/20/50/100 km
    start = time.monotonic()
    rows, all_ok = monte_carlo_validate(cfg, str(tmp_path))
    elapsed = time.monotonic() - start
    std_rows = [r for r in rows if r[0] == "std_ratio"]
    worst = max(abs(r[3] / r[4] - 1.0) for r in std_rows)
    n_fail = sum(1 for r in rows if r[6] != "pass")
    ok = all_ok and elapsed <= 60.0
    report(ok, "simulated estimator spread and bias match the formulas",
            f"{len(rows) - n_fail}/{len(rows)} checks passed, worst std "
            f"deviation {worst:.3f} (tol 0.05), {cfg.trials} trials x "
            f"{len(cfg.mc_distances_km)} distances in {elapsed:.0f}s")


def test_variance_formulas_hold_at_a_million_trials(report):
    """Every estimator's spread against its closed form, with the power of
    1e6 trials per distance: the log std ratio has standard error
    1/sqrt(2*(trials - 1)), about 0.07%. Spread only; the O(1/m) biases
    are not gated here."""
    cfg = ExperimentConfig()
    trials = 10**6
    start = time.monotonic()
    worst, where = 0.0, None
    for di, d in enumerate(cfg.mc_distances_km):
        res = run_estimator_trials(cfg, d, trials, stream_base=3 * di)
        T = fiber_transmission(d, cfg.loss_db_per_km)
        for name, kind in _THEORY_KIND.items():
            theory = theoretical_std(kind, cfg.V_A, T, cfg.xi, cfg.m,
                                     cfg.N - cfg.m, cfg.N, V_M2=cfg.V_M2)
            emp = float(np.std(res[name], ddof=1))
            z = log(emp / theory) * sqrt(2.0 * (trials - 1))
            if abs(z) > abs(worst):
                worst, where = z, (d, name)
    elapsed = time.monotonic() - start
    report(abs(worst) <= 4.0 and elapsed <= 60.0,
           "estimator spreads match the formulas at 1e6 trials",
           f"worst std-ratio z {worst:+.2f} ({where[1]} at {where[0]} km, "
           f"gate 4) over {len(_THEORY_KIND)} estimators x "
           f"{len(cfg.mc_distances_km)} distances in {elapsed:.1f}s")


def test_std_curve_structure(tmp_path, report):
    cfg = ExperimentConfig()
    path = run_fig1(cfg, str(tmp_path))
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("distance_km"):
                continue
            cells = line.rstrip("\n").split(",")
            rows.append([float(v) for v in cells[:6]])
    problems = []
    d = [r[0] for r in rows]
    std_mm = [r[2] for r in rows]
    std_mle = [r[3] for r in rows]
    std_opt = [r[5] for r in rows]
    if not std_mle[0] < std_mm[0]:
        problems.append("residual estimator not better at 0 km")
    if not all(mm < mle for di, mm, mle in zip(d, std_mm, std_mle) if di >= 50):
        problems.append("moment estimator not better beyond 50 km")
    signs = [mm > mle for mm, mle in zip(std_mm, std_mle)]
    flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
    if len(flips) != 1 or not (30.0 <= d[flips[0] - 1] and d[flips[0]] <= 50.0):
        problems.append(f"crossover not unique in (30, 50): {flips}")
    ratio_end = std_mm[-1] / std_mle[-1]
    if abs(ratio_end - np.sqrt(cfg.m / cfg.N)) > 0.01:
        problems.append(f"far-range std ratio {ratio_end:.4f} not sqrt(m/N)")
    n_key = cfg.N - cfg.m
    for di, mle, opt in zip(d, std_mle, std_opt):
        T = 10.0 ** (-cfg.loss_db_per_km * di / 10.0)
        mm_key = theoretical_std(EstimatorKind.SIGMA2_MM_KEY, cfg.V_A, T,
                                 cfg.xi, cfg.m, n_key, cfg.N, V_M2=cfg.V_M2)
        if opt > min(mle, mm_key) + 1e-15:
            problems.append(f"combined estimator not optimal at {di} km")
            break
    cross = f"{d[flips[0] - 1]:g}-{d[flips[0]]:g} km" if len(flips) == 1 else "?"
    report(not problems, "std-versus-distance curves have the right shape",
            f"crossover at {cross}, 200 km ratio {ratio_end:.4f} vs "
            f"sqrt(m/N)={np.sqrt(cfg.m / cfg.N):.4f}, combined estimator "
            f"dominant everywhere" + ("; " + "; ".join(problems) if problems else ""))


def test_security_reference_points(report):
    problems = []
    s_epr = holevo_bound(covariance_matrix(3.0, 1.0, 0.0))
    if abs(s_epr) > 1e-9:
        problems.append(f"lossless noiseless Holevo {s_epr:.2e}")
    s_dead = holevo_bound(covariance_matrix(3.0, 0.0, 0.0))
    if abs(s_dead) > 1e-9:
        problems.append(f"broken-channel Holevo {s_dead:.2e}")
    nus = symplectic_eigenvalues(covariance_matrix(3.0, 1.0, 0.0))
    if max(abs(nu - 1.0) for nu in nus) > 1e-9:
        problems.append(f"shared pure state not pure: {nus}")
    k = key_rate_asymptotic(3.0, 1.0, 0.0, beta=1.0).key_rate
    if abs(k - 1.0) > 1e-9:
        problems.append(f"unit-channel rate {k}")
    report(not problems, "security quantities hit their exact reference points",
            f"Holevo(EPR)={s_epr:.1e}, Holevo(T=0)={s_dead:.1e}, "
            f"eigenvalues={tuple(round(v, 12) for v in nus)}, "
            f"K(V_A=3,T=1,xi=0,beta=1)={k:.12f}"
            + ("; " + "; ".join(problems) if problems else ""))


def test_key_rate_curves_structure(fig2_table, tmp_path, report):
    cfg, header, rows, elapsed_fig2 = fig2_table
    start = time.monotonic()
    problems = []

    # finite-size curves sit below the asymptotic one
    idx = {name: header.index(name) for name in header}
    finite_cols = [h for h in header if h.startswith("K_") and h != "K_asymptotic"]
    for r in rows:
        for col in finite_cols:
            if r[idx[col]] > r[idx["K_asymptotic"]] + 1e-12:
                problems.append(f"{col} above asymptotic at {r[0]} km")

    # more states never hurt: last positive distance grows with N
    labels = ["1e5", "1e7", "1e9", "1e12"]
    for name in cfg.estimators:
        reach = []
        for lab in labels:
            col = idx[f"K_{name}_{lab}"]
            pos = [r[0] for r in rows if r[col] > 0.0]
            reach.append(max(pos) if pos else 0.0)
        if not all(lo <= hi for lo, hi in zip(reach, reach[1:])):
            problems.append(f"range not growing in N for {name}: {reach}")

    # the combined estimator dominates both ingredients pointwise
    for r in rows:
        for lab in labels:
            k_opt = r[idx[f"K_opt_{lab}"]]
            if (k_opt < r[idx[f"K_mle_{lab}"]] - 1e-15
                    or k_opt < r[idx[f"K_mm_{lab}"]] - 1e-15):
                problems.append(f"combined rate not dominant at {r[0]} km, N={lab}")

    # bisected maximum range, frozen at 0.1 km resolution
    expected = {10**5: 38.6875, 10**7: 75.4375, 10**9: 117.5625,
                10**12: 184.1875}
    reaches = {}
    for N, exp in expected.items():
        got = maximum_distance(cfg.xi, cfg.beta, N).distance_km
        reaches[N] = got
        if abs(got - exp) > 1e-9:
            problems.append(f"maximum range at N={N}: {got} vs {exp}")
    if not all(lo < hi for lo, hi in
               zip(list(reaches.values()), list(reaches.values())[1:])):
        problems.append("maximum range not increasing in N")

    # revealed fraction pushes to 1 at the very edge
    rr = range_limit_ratio(cfg.xi, cfg.beta, 10**5)
    own5 = range_limit_ratio(cfg.xi, cfg.beta, 10**5,
                             denominator=EstimatorKind.SIGMA2_OPT)
    own9 = range_limit_ratio(cfg.xi, cfg.beta, 10**9,
                             denominator=EstimatorKind.SIGMA2_OPT)
    f_mle, f_opt = rr.rows[-1][4], rr.rows[-1][5]
    if f_mle < 0.99 or f_opt < 0.99 or own5.rows[-1][4] < 0.99:
        problems.append(f"edge fractions at 1e5: {f_mle:.4f}/{f_opt:.4f}")
    if own9.rows[-1][4] < 0.95:
        problems.append(f"edge fraction at 1e9: {own9.rows[-1][4]:.4f}")

    # ... and grows with distance along the fig3 grid
    fig3_path = run_fig3(cfg, str(tmp_path))
    frac = {}
    with open(fig3_path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("distance_km"):
                continue
            cells = line.rstrip("\n").split(",")
            if float(cells[4]) > 0.0:
                frac.setdefault(cells[1], []).append(float(cells[2]))
    for name, fr in frac.items():
        if fr[-1] <= fr[0]:
            problems.append(f"fig3 fraction not growing for {name}")

    # near the weaker estimator's range limit the rate ratio blows up
    if rr.max_ratio < 2.0:
        problems.append(f"edge rate ratio only {rr.max_ratio:.2f}")
    onset = next((row[0] for row in rr.rows if row[3] >= 2.0), None)

    elapsed = elapsed_fig2 + time.monotonic() - start
    ok = not problems and elapsed <= 900.0
    report(ok, "optimized key-rate curves have the right shape",
            f"finite<asymptotic on {len(rows)} distances x {len(finite_cols)} "
            f"curves, reach {sorted(reaches.values())} km for N=1e5..1e12, "
            f"edge m/N {f_mle:.3f}(mle)/{own5.rows[-1][4]:.3f}(opt) at 1e5 and "
            f"{own9.rows[-1][4]:.3f}(opt) at 1e9, edge rate ratio "
            f"{rr.max_ratio:.1f} (>=2 from {onset} km; grows without bound "
            f"at the boundary {rr.boundary_km:.4f} km), in {elapsed:.0f}s"
            + ("; " + "; ".join(problems[:4]) if problems else ""))


def test_validate_cli_is_deterministic(tmp_path, report):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    rc_a = cli.main(["validate", "--trials", "300", "--out", out_a])
    rc_b = cli.main(["validate", "--trials", "300", "--out", out_b])
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("validate_report.csv", "validate_summary.txt")
    )
    ok = same and rc_a == rc_b and rc_a in (0, 1)
    report(ok, "repeated validation runs are byte-identical",
           f"exit codes {rc_a}/{rc_b}, report and summary files compare "
           f"equal (shortened runs may flag statistical rows, but always "
           f"the same ones)" if same else "outputs differ between runs")
