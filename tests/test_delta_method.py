"""Delta-method engine against the closed-form variances.

The closed forms are the engine evaluated symbolically, so the two routes
must agree to floating-point accuracy on a parameter grid, and the
statistics covariance builders must match simulated covariances.
"""

import numpy as np
import pytest

from cvqkd.estimators import (
    StatisticsCovariance,
    build_cj_mm_full,
    build_cj_mm_key,
    delta_method_mean,
    delta_method_variance,
    mm_full_gradient,
    var_sigma2_mm_full,
    var_sigma2_mm_key,
)

GRID = [(V_A, T, xi)
        for T in (1.0, 0.5, 0.1, 0.01)
        for V_A in (1.0, 3.0, 10.0)
        for xi in (0.0, 0.01, 0.1)]
M, N = 300, 1000
KEY_N = N - M


def _estimator_fn(j):
    # value of the moment estimator as a function of its statistics vector
    t_hat = j[3] / j[2]
    return j[1] - t_hat**2 * j[0]


def test_delta_method_variance_small_cases():
    cj = StatisticsCovariance(matrix=np.array([[2.0]]), labels=("a",))
    assert delta_method_variance([1.0], cj) == 2.0
    cj2 = StatisticsCovariance(
        matrix=np.array([[1.0, 0.3], [0.3, 2.0]]), labels=("a", "b"))
    assert delta_method_variance([1.0, -1.0], cj2) == pytest.approx(2.4, rel=1e-15)
    with pytest.raises(ValueError):
        delta_method_variance([1.0, 2.0, 3.0], cj2)


def test_statistics_covariance_validation():
    with pytest.raises(ValueError):
        StatisticsCovariance(matrix=np.zeros((2, 3)), labels=("a", "b"))
    with pytest.raises(ValueError):
        StatisticsCovariance(matrix=np.zeros((2, 2)), labels=("a",))


def test_builders_are_symmetric_and_positive():
    for V_A, T, xi in GRID:
        t = np.sqrt(T)
        sigma2 = 1.0 + T * xi
        for cj in (build_cj_mm_full(V_A, t, sigma2, M, N),
                   build_cj_mm_key(V_A, t, sigma2, M, KEY_N)):
            assert cj.max_asymmetry() == 0.0
            assert cj.min_eigenvalue() >= -1e-10 * cj.matrix.max()


def test_build_cj_mm_full_reference_entries():
    cj = build_cj_mm_full(3.0, 1.0, 1.01, 50_000, 100_000)
    assert cj.labels == ("sigma2_a", "sigma2_b", "sigma2_a_pe", "sigma_ab_pe")
    assert cj.matrix[0, 0] == pytest.approx(1.8e-4, rel=1e-12)
    assert cj.matrix[2, 2] == pytest.approx(3.6e-4, rel=1e-12)
    # (2*t^2*V_A^2 + sigma2*V_A)/m = (18 + 3.03)/5e4
    assert cj.matrix[3, 3] == pytest.approx(4.206e-4, rel=1e-12)
    zero_t = build_cj_mm_full(3.0, 0.0, 1.0, 100, 200)
    assert zero_t.matrix[0, 1] == 0.0
    assert zero_t.matrix[0, 3] == 0.0


def test_build_cj_mm_key_reference_entries():
    cj = build_cj_mm_key(3.0, 1.0, 1.01, 50_000, 50_000)
    assert cj.labels == ("sigma2_a_key", "sigma2_b_key", "sigma2_a_pe", "sigma_ab_pe")
    assert cj.matrix[0, 0] == pytest.approx(3.6e-4, rel=1e-12)
    # disjoint subsets: no covariance between key moments and the slope inputs
    for i in (0, 1):
        for j in (2, 3):
            assert cj.matrix[i, j] == 0.0
    assert cj.matrix[0, 1] == pytest.approx(2.0 * 9.0 / 50_000, rel=1e-12)


def test_engine_matches_closed_form_mm_full():
    worst = 0.0
    for V_A, T, xi in GRID:
        t = np.sqrt(T)
        sigma2 = 1.0 + T * xi
        engine = delta_method_variance(
            mm_full_gradient(t), build_cj_mm_full(V_A, t, sigma2, M, N))
        closed = var_sigma2_mm_full(V_A, T, sigma2, M, N)
        worst = max(worst, abs(engine - closed) / closed)
    assert worst <= 1e-12


def test_engine_matches_closed_form_mm_key():
    worst = 0.0
    for V_A, T, xi in GRID:
        t = np.sqrt(T)
        sigma2 = 1.0 + T * xi
        engine = delta_method_variance(
            mm_full_gradient(t), build_cj_mm_key(V_A, t, sigma2, M, KEY_N))
        closed = var_sigma2_mm_key(V_A, T, sigma2, M, KEY_N)
        worst = max(worst, abs(engine - closed) / closed)
    assert worst <= 1e-12


def test_gradients_match_finite_differences():
    for t in (1.0, 0.7071067811865476, 0.1):
        V_A, sigma2 = 3.0, 1.02
        mu = np.array([V_A, t**2 * V_A + sigma2, V_A, t * V_A])
        fd = np.empty(4)
        for i in range(4):
            h = 1e-6 * max(abs(mu[i]), 1.0)
            up, dn = mu.copy(), mu.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (_estimator_fn(up) - _estimator_fn(dn)) / (2 * h)
        np.testing.assert_allclose(fd, mm_full_gradient(t), rtol=1e-6, atol=1e-9)


def test_estimator_is_unbiased_at_mean_statistics():
    for V_A, T, xi in GRID:
        t = np.sqrt(T)
        sigma2 = 1.0 + T * xi
        mu = (V_A, t**2 * V_A + sigma2, V_A, t * V_A)
        assert delta_method_mean(_estimator_fn, mu) == pytest.approx(sigma2, rel=1e-14)


def test_builders_match_simulated_covariances():
    """Empirical covariance of the four statistics matches both builders."""
    V_A, T, xi = 3.0, 0.5, 0.05
    t = np.sqrt(T)
    sigma2 = 1.0 + T * xi
    n_states, m = 4000, 2000
    trials = 4000
    rng = np.random.default_rng(20240817)
    x = rng.standard_normal((trials, n_states)) * np.sqrt(V_A)
    y = t * x + rng.standard_normal((trials, n_states)) * np.sqrt(sigma2)
    x_pe, y_pe = x[:, :m], y[:, :m]
    x_key, y_key = x[:, m:], y[:, m:]
    full_stats = np.vstack([
        np.mean(x**2, axis=1),
        np.mean(y**2, axis=1),
        np.mean(x_pe**2, axis=1),
        np.mean(x_pe * y_pe, axis=1),
    ])
    key_stats = np.vstack([
        np.mean(x_key**2, axis=1),
        np.mean(y_key**2, axis=1),
        full_stats[2],
        full_stats[3],
    ])
    for emp, cj in (
        (np.cov(full_stats), build_cj_mm_full(V_A, t, sigma2, m, n_states)),
        (np.cov(key_stats), build_cj_mm_key(V_A, t, sigma2, m, n_states - m)),
    ):
        th = cj.matrix
        diag = np.sqrt(np.diag(th))
        scale = np.outer(diag, diag)
        assert np.all(np.abs(emp - th) <= 0.1 * scale)
