"""Delta-method variance oracle for the moment estimators.

Not collected by pytest: ``test_delta_method.py`` and
``test_acceptance.py`` import it as the reference that the closed-form
variances in ``cvqkd.estimators`` are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# delta-method engine
#
# Var(theta_hat(J)) ~= g^T C_J g with g the gradient of the estimator in the
# statistics J at their mean, and C_J the covariance of the statistics. The
# closed forms in cvqkd.estimators are this engine evaluated symbolically;
# the tests check the two routes against each other.

@dataclass(frozen=True)
class StatisticsCovariance:
    """Covariance matrix of a statistics vector, with labeled entries."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if len(self.labels) != mat.shape[0]:
            raise ValueError("labels do not match matrix size")

    def max_asymmetry(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.T) / 2)[0])


def delta_method_variance(gradient, cj: StatisticsCovariance) -> float:
    g = np.asarray(gradient, dtype=float)
    if g.shape != (cj.matrix.shape[0],):
        raise ValueError(f"gradient length {g.shape} does not match "
                         f"covariance size {cj.matrix.shape}")
    return float(g @ cj.matrix @ g)


def delta_method_mean(estimator, mu) -> float:
    """First-order delta-method mean: the estimator at the mean statistics."""
    return float(estimator(np.asarray(mu, dtype=float)))


def build_cj_mm_full(V_A: float, t: float, sigma2: float,
                     m: int, N: int) -> StatisticsCovariance:
    """Covariance of (sigma2_a, sigma2_b, sigma2_a_pe, sigma_ab_pe).

    Fourth-moment algebra for zero-mean Gaussians; the cross terms between
    full-set and revealed-subset statistics carry 1/N because only the m
    shared states correlate.
    """
    va2 = V_A**2
    sb2 = t**2 * V_A + sigma2
    mat = np.empty((4, 4))
    mat[0, 0] = 2.0 * va2 / N
    mat[1, 1] = 2.0 * sb2**2 / N
    mat[2, 2] = 2.0 * va2 / m
    mat[3, 3] = (2.0 * t**2 * va2 + sigma2 * V_A) / m
    mat[0, 1] = mat[1, 0] = 2.0 * t**2 * va2 / N
    mat[0, 2] = mat[2, 0] = 2.0 * va2 / N
    mat[0, 3] = mat[3, 0] = 2.0 * t * va2 / N
    mat[1, 2] = mat[2, 1] = 2.0 * t**2 * va2 / N
    mat[1, 3] = mat[3, 1] = 2.0 * t * (t**2 * va2 + sigma2 * V_A) / N
    mat[2, 3] = mat[3, 2] = 2.0 * t * va2 / m
    return StatisticsCovariance(
        matrix=mat,
        labels=("sigma2_a", "sigma2_b", "sigma2_a_pe", "sigma_ab_pe"),
    )


def build_cj_mm_key(V_A: float, t: float, sigma2: float, m: int,
                    n: int) -> StatisticsCovariance:
    """Covariance of (sigma2_a_key, sigma2_b_key, sigma2_a_pe, sigma_ab_pe).

    Key and revealed subsets are disjoint, so all cross-subset covariances
    vanish; the key-subset cross term Cov(sigma2_a_key, sigma2_b_key) is
    2*t**2*V_A**2/n.
    """
    va2 = V_A**2
    sb2 = t**2 * V_A + sigma2
    mat = np.zeros((4, 4))
    mat[0, 0] = 2.0 * va2 / n
    mat[1, 1] = 2.0 * sb2**2 / n
    mat[2, 2] = 2.0 * va2 / m
    mat[3, 3] = (2.0 * t**2 * va2 + sigma2 * V_A) / m
    mat[0, 1] = mat[1, 0] = 2.0 * t**2 * va2 / n
    mat[2, 3] = mat[3, 2] = 2.0 * t * va2 / m
    return StatisticsCovariance(
        matrix=mat,
        labels=("sigma2_a_key", "sigma2_b_key", "sigma2_a_pe", "sigma_ab_pe"),
    )


def mm_full_gradient(t: float) -> np.ndarray:
    """Gradient of sigma2_b - t_hat**2*sigma2_a at the mean statistics.

    Entry order matches build_cj_mm_full and build_cj_mm_key: the key-subset
    estimator sigma2_b_key - t_hat**2*sigma2_a_key has the same gradient.
    The sigma2_a / sigma2_a_pe ratio drops out at the mean, leaving
    (-t**2, 1, 2*t**2, -2*t).
    """
    return np.array([-t**2, 1.0, 2.0 * t**2, -2.0 * t])
