import warnings
import math

import numpy as np
import pytest

from cvqkd.channel import fiber_transmission
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import EstimatorKind
from cvqkd.optimizer import _FRACS, _LOG_VAS, _round_m, _search_rate
from cvqkd.security import (
    KEY_RATE_ESTIMATORS,
    TwoModeCovariance,
    WorstCaseParams,
    conditional_eigenvalue_homodyne,
    confidence_quantile,
    covariance_matrix,
    g_entropy,
    holevo_bound,
    key_rate_asymptotic,
    key_rate_finite,
    key_rate_finite_grid,
    mutual_information,
    symplectic_eigenvalues,
    worst_case_covariance,
    worst_case_params,
)

SQRT15 = 3.872983346207417


def _symplectic_oracle(cov):
    """Symplectic spectrum via |eig(i * Omega * Gamma)| on the full 4x4 matrix."""
    sz = np.diag([1.0, -1.0])
    gamma = np.block([
        [cov.a * np.eye(2), cov.c * sz],
        [cov.c * sz, cov.b * np.eye(2)],
    ])
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))
    return float(ev[-1]), float(ev[0])


def _conditional_oracle(cov):
    """Mode-A spectrum after a perfect x-homodyne of mode B."""
    sz = np.diag([1.0, -1.0])
    gamma_a = cov.a * np.eye(2)
    gamma_b = cov.b * np.eye(2)
    gamma_c = cov.c * sz
    x_proj = np.diag([1.0, 0.0])
    reduced = gamma_a - gamma_c @ np.linalg.pinv(x_proj @ gamma_b @ x_proj) @ gamma_c.T
    return float(np.sqrt(np.linalg.det(reduced)))


def _grid():
    for V_A in (1.0, 3.0, 10.0):
        for T in (1.0, 0.5, 0.1, 0.01):
            for xi in (0.0, 0.01, 0.1):
                yield covariance_matrix(V_A, T, xi)


def test_covariance_matrix_reference_points():
    epr = covariance_matrix(3.0, 1.0, 0.0)
    assert (epr.a, epr.b) == (4.0, 4.0)
    assert epr.c == pytest.approx(SQRT15, rel=1e-12)
    lossy = covariance_matrix(3.0, 0.1, 0.01)
    assert lossy.a == 4.0
    assert lossy.b == pytest.approx(1.301, rel=1e-12)
    assert lossy.c == pytest.approx(1.224744871391589, rel=1e-12)
    cut = covariance_matrix(3.0, 0.0, 0.0)
    assert (cut.a, cut.b, cut.c) == (4.0, 1.0, 0.0)


def test_covariance_matrix_is_physical_on_grid():
    for cov in _grid():
        assert cov.physical()


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        covariance_matrix(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        covariance_matrix(3.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        covariance_matrix(3.0, 1.0, -0.01)


def test_confidence_quantile_conventions():
    assert confidence_quantile(1e-10) == pytest.approx(4.6463532876522295, rel=1e-12)
    assert confidence_quantile(1e-10, "gaussian") == pytest.approx(
        6.466951074732419, rel=1e-12)
    assert confidence_quantile(1e-2) < confidence_quantile(1e-10)
    with pytest.raises(ValueError):
        confidence_quantile(1e-10, "bogus")
    with pytest.raises(ValueError):
        confidence_quantile(0.0)
    with pytest.raises(ValueError):
        confidence_quantile(1.0)


def test_worst_case_params_example():
    wc = worst_case_params(0.9, 0.01, 1.0, 0.0, 1e-10)
    assert wc.t_min == pytest.approx(0.8535364671234777, rel=1e-12)
    assert wc.sigma2_max == 1.0
    assert not wc.clamped
    # zero widths leave the point estimates untouched
    exact = worst_case_params(0.5, 0.0, 1.2, 0.0, 1e-10)
    assert (exact.t_min, exact.sigma2_max) == (0.5, 1.2)
    with pytest.raises(ValueError):
        worst_case_params(0.9, -0.01, 1.0, 0.0, 1e-10)


def test_worst_case_params_clamps_negative_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wc = worst_case_params(0.01, 0.1, 1.0, 0.0, 1e-10)
    assert wc.t_min == 0.0
    assert wc.clamped


def test_worst_case_covariance_example():
    wc = WorstCaseParams(t_min=0.3, sigma2_max=1.05, z=4.65, epsilon_pe=1e-10)
    cov = worst_case_covariance(wc, 3.0)
    assert cov.a == 4.0
    assert cov.b == pytest.approx(1.32, rel=1e-12)
    assert cov.c == pytest.approx(1.161895003862225, rel=1e-12)
    assert not cov.clamped


def test_worst_case_covariance_clamps_below_vacuum_noise():
    wc = WorstCaseParams(t_min=0.5, sigma2_max=0.9, z=4.65, epsilon_pe=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = worst_case_covariance(wc, 3.0)
    assert cov.b == pytest.approx(0.25 * 3.0 + 1.0, rel=1e-12)
    assert cov.clamped


def test_worst_case_zero_width_recovers_channel_covariance():
    V_A, T, xi = 3.0, 0.4, 0.02
    ch = covariance_matrix(V_A, T, xi)
    wc = worst_case_params(np.sqrt(T), 0.0, 1.0 + T * xi, 0.0, 1e-10)
    cov = worst_case_covariance(wc, V_A)
    assert cov.a == ch.a
    assert cov.b == pytest.approx(ch.b, rel=1e-14)
    assert cov.c == pytest.approx(ch.c, rel=1e-14)


def test_mutual_information_reference_points():
    assert mutual_information(3.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert mutual_information(3.0, 0.1, 0.01) == pytest.approx(
        0.18908949394090097, rel=1e-12)
    assert mutual_information(3.0, 0.0, 0.0) == 0.0


def test_symplectic_eigenvalues_epr_state_is_pure():
    nu1, nu2 = symplectic_eigenvalues(covariance_matrix(3.0, 1.0, 0.0))
    assert nu1 == pytest.approx(1.0, abs=1e-9)
    assert nu2 == pytest.approx(1.0, abs=1e-9)
    for V_A in (0.5, 3.0, 10.0):
        nus = symplectic_eigenvalues(covariance_matrix(V_A, 1.0, 0.0))
        np.testing.assert_allclose(nus, (1.0, 1.0), atol=1e-9)


def test_symplectic_eigenvalues_broken_channel():
    nu1, nu2 = symplectic_eigenvalues(covariance_matrix(3.0, 0.0, 0.0))
    assert nu1 == pytest.approx(4.0, rel=1e-12)
    assert nu2 == pytest.approx(1.0, rel=1e-12)


def test_symplectic_eigenvalues_match_brute_force():
    for cov in _grid():
        nus = symplectic_eigenvalues(cov)
        np.testing.assert_allclose(nus, _symplectic_oracle(cov), rtol=1e-10, atol=1e-10)


def test_symplectic_eigenvalues_reject_unphysical_matrix():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(TwoModeCovariance(a=2.0, b=2.0, c=2.5))


def test_near_pure_states_pass_the_eigenvalue_checks():
    """At T = 1 and a tiny xi the discriminant is about 0, and the square
    root of its round-off moves nu2 by more than the 1e-9 tolerance; the
    checks read well-conditioned forms, so these states are physical."""
    for V_A in (1.03, 11.0, 100.0, 1000.0):
        for xi in (0.0, 1e-14, 2.3e-10, 1e-8, 1e-6):
            nu1, nu2 = symplectic_eigenvalues(covariance_matrix(V_A, 1.0, xi))
            assert 1.0 <= nu2 <= nu1 < 1.001
            assert key_rate_asymptotic(V_A, 1.0, xi, 0.95).key_rate > 0.0
            key_rate_finite_grid(np.array([V_A]), 1.0, xi, 0.95, 10**5,
                                 np.array([5e4]))


def test_conditional_eigenvalue_matches_schur_complement():
    for cov in _grid():
        nu3 = conditional_eigenvalue_homodyne(cov)
        assert nu3 == pytest.approx(_conditional_oracle(cov), rel=1e-10)
    uncorrelated = TwoModeCovariance(a=2.5, b=3.0, c=0.0)
    assert conditional_eigenvalue_homodyne(uncorrelated) == pytest.approx(2.5, rel=1e-12)


def test_g_entropy_reference_points():
    assert g_entropy(0.0) == 0.0
    assert g_entropy(1.0) == pytest.approx(2.0, rel=1e-15)
    assert g_entropy(0.5) == pytest.approx(1.3774437510817343, rel=1e-12)
    assert g_entropy(-1e-12) == 0.0
    with pytest.raises(ValueError):
        g_entropy(-0.1)


def test_nan_entropy_propagates_to_the_rates():
    """Only g(0) is defined as 0: a NaN argument, or the NaN eigenvalues of
    V_A = inf, give a NaN entropy and a NaN rate, never S = 0."""
    assert math.isnan(g_entropy(float("nan")))
    assert math.isnan(holevo_bound(covariance_matrix(math.inf, 0.5, 0.01)))
    assert math.isnan(key_rate_asymptotic(math.inf, 0.5, 0.01, 0.95).key_rate)
    assert math.isnan(
        key_rate_finite(math.inf, 0.5, 0.01, 0.95, 10**6, 10**5).key_rate)
    with np.errstate(invalid="ignore"):
        grid = key_rate_finite_grid(np.array([3.0, math.inf]), 0.5, 0.01,
                                    0.95, 10**6, 10**5)
    assert np.isnan(grid).tolist() == [False, True]


def test_holevo_bound_vanishes_for_pure_and_broken_channels():
    assert holevo_bound(covariance_matrix(3.0, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-9)
    assert holevo_bound(covariance_matrix(3.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_matches_eigenvalue_composition():
    for cov in _grid():
        nu1, nu2 = symplectic_eigenvalues(cov)
        nu3 = conditional_eigenvalue_homodyne(cov)
        expected = (g_entropy((nu1 - 1) / 2) + g_entropy((nu2 - 1) / 2)
                    - g_entropy((nu3 - 1) / 2))
        assert holevo_bound(cov) == pytest.approx(max(expected, 0.0), abs=1e-12)


def test_holevo_bound_increases_with_excess_noise():
    values = [holevo_bound(covariance_matrix(3.0, 0.5, xi))
              for xi in (0.0, 0.02, 0.05, 0.1, 0.2)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_key_rate_asymptotic_reference_points():
    res = key_rate_asymptotic(3.0, 1.0, 0.0, beta=1.0)
    assert res.key_rate == pytest.approx(1.0, abs=1e-9)
    scaled = key_rate_asymptotic(3.0, 1.0, 0.0, beta=0.95)
    assert scaled.key_rate == pytest.approx(0.95, abs=1e-9)
    dead = key_rate_asymptotic(3.0, 0.0, 0.0, beta=0.95)
    assert dead.key_rate == 0.0
    assert dead.key_rate_raw <= 0.0


def test_key_rate_finite_edge_fractions():
    res_all_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=1000)
    assert res_all_pe.key_rate == 0.0
    assert "m == N" in res_all_pe.reason
    res_no_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=0)
    assert res_no_pe.key_rate == 0.0
    assert "m == 0" in res_no_pe.reason


def test_key_rate_finite_rejects_unsupported_estimator():
    with pytest.raises(ValueError):
        key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=500,
                        estimator_kind=EstimatorKind.SIGMA2_MM_KEY)


def test_key_rate_finite_accepts_the_kind_by_name():
    args = (3.0, 0.5, 0.01, 0.95, 1000, 500)
    by_name = key_rate_finite(*args, estimator_kind="sigma2_mle")
    assert by_name == key_rate_finite(*args,
                                      estimator_kind=EstimatorKind.SIGMA2_MLE)
    for name in ("t_mle", "bogus"):
        with pytest.raises(ValueError):
            key_rate_finite(*args, estimator_kind=name)
        with pytest.raises(ValueError):
            key_rate_finite_grid(np.array([3.0]), *args[1:],
                                 estimator_kind=name)


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_key_rate_finite_grid_matches_scalar_rate(kind):
    """The optimizer's default grid: same rates to 1e-12, same zero cells,
    and np.argmax picks the cell a scalar strict-> scan picks."""
    vas = [10.0 ** lv for lv in _LOG_VAS]
    for N in ExperimentConfig().n_list:
        ms = [_round_m(f, N) for f in _FRACS]
        for d in (0.0, 20.0, 38.7, 100.0, 184.0):
            T = fiber_transmission(d, 0.2)
            grid = key_rate_finite_grid(np.array(vas)[:, None], T, 0.01, 0.95,
                                        N, np.array(ms, dtype=float)[None, :],
                                        1e-10, kind).ravel()
            scalar = np.array([key_rate_finite(va, T, 0.01, 0.95, N, m, 1e-10,
                                               kind).key_rate_raw
                               for va in vas for m in ms])
            assert np.max(np.abs(grid - scalar)) <= 1e-12
            np.testing.assert_array_equal(grid <= 0.0, scalar <= 0.0)
            best, first = -1.0, None
            for i, k in enumerate(np.maximum(scalar, 0.0)):
                if k > best:
                    best, first = k, i
            assert np.argmax(np.maximum(grid, 0.0)) == first


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_search_rate_is_key_rate_finite_bitwise(kind):
    """The optimizer's polish evaluates the rate kernel directly; every
    value, signed zeros included, is key_rate_finite's key_rate."""
    log_vas = [float(v) for v in np.linspace(-1.0, 2.0, 19)]
    fracs = [float(f) for f in np.linspace(1e-3, 0.999, 19)]
    for N in (10**3, 10**5, 10**9, 10**12):
        for d in (0.0, 20.0, 38.7, 100.0, 184.0, 400.0):
            T = fiber_transmission(d, 0.2)
            for convention in ("paper", "gaussian"):
                rate = _search_rate(T, 0.01, 0.95, N, 1e-10, kind, convention)
                for lv in log_vas:
                    for fr in fracs:
                        ref = key_rate_finite(10.0 ** lv, T, 0.01, 0.95, N,
                                              _round_m(fr, N), 1e-10, kind,
                                              convention)
                        assert rate(lv, fr).hex() == ref.key_rate.hex()


def test_key_rate_finite_grid_rejects_unphysical_cells():
    """T > 1 amplifies the signal beyond what a physical state allows."""
    with pytest.raises(ValueError):
        key_rate_finite(3.0, 10.0, 0.01, 0.95, N=1000, m=500)
    with pytest.raises(ValueError):
        key_rate_finite_grid(np.array([0.5, 3.0]), 10.0, 0.01, 0.95,
                             N=1000, m=np.array([500.0]))


def test_key_rate_finite_below_scaled_asymptotic():
    """Worst-case parameters can only reduce the rate."""
    for kind in (EstimatorKind.SIGMA2_MLE, EstimatorKind.SIGMA2_MM_FULL,
                 EstimatorKind.SIGMA2_OPT):
        for T in (1.0, 0.5, 0.1):
            res = key_rate_finite(3.0, T, 0.01, 0.95, N=10**7, m=5 * 10**6,
                                  estimator_kind=kind)
            asym = key_rate_asymptotic(3.0, T, 0.01, beta=0.95)
            assert res.key_rate_raw <= res.n_fraction * asym.key_rate_raw + 1e-12
            assert res.key_rate <= max(res.n_fraction * asym.key_rate, 0.0) + 1e-12


def test_key_rate_finite_reduces_to_scaled_asymptotic():
    """Huge N shrinks the confidence region to a point."""
    V_A, T, xi, beta = 3.0, 0.1, 0.01, 0.95
    asym = key_rate_asymptotic(V_A, T, xi, beta=beta)
    res = key_rate_finite(V_A, T, xi, beta, N=10**18, m=5 * 10**17)
    assert res.key_rate_raw == pytest.approx(0.5 * asym.key_rate_raw, abs=1e-6)
    loose = key_rate_finite(V_A, T, xi, beta, N=10**18, m=5 * 10**17,
                            epsilon_pe=1.0 - 1e-6)
    assert loose.key_rate_raw == pytest.approx(0.5 * asym.key_rate_raw, abs=1e-6)


def test_key_rate_finite_monotone_in_n():
    rates = [key_rate_finite(3.0, 0.1, 0.01, 0.95, N=N, m=N // 2).key_rate
             for N in (10**5, 10**6, 10**7, 10**8)]
    assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


def test_key_rate_finite_clamps_when_t_uncertainty_dominates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = key_rate_finite(3.0, 1e-4, 0.01, 0.95, N=1000, m=500)
    assert res.clamped
    assert res.key_rate == 0.0


def test_key_rate_finite_reports_key_fraction():
    res = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=10**6, m=10**5)
    assert 0.0 < res.key_rate < 1.0
    assert res.n_fraction == pytest.approx(0.9, rel=1e-12)
