"""Channel-noise and transmission estimators with their variances.

Several estimators of the output noise sigma2 = 1 + T*xi coexist:

* ``estimate_sigma2_mle``      -- residual variance of the regression of y
  on x over the m revealed states (maximum likelihood);
* ``estimate_sigma2_mm_known_va`` -- second moment of y minus the modeled
  signal contribution, with the modulation variance taken as known;
* ``estimate_sigma2_mm_full``  -- same method-of-moments idea but with both
  second moments estimated from all N states;
* ``estimate_sigma2_mm_key``   -- method of moments restricted to the n
  unrevealed (key) states, which makes it independent of the MLE;
* ``combine_optimal``          -- inverse-variance weighted combination of
  two independent estimates;
* ``estimate_T_secondmod`` / ``estimate_Vxi_secondmod`` -- correlation
  estimators that use a second, publicly revealed modulation.

Closed-form variances are available through ``theoretical_std`` and are
cross-checked against a small delta-method engine (gradient + covariance
of the moment statistics) in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .channel import _sigma2

__all__ = [
    "EstimatorKind",
    "Estimate",
    "StatisticsVector",
    "StatisticsCovariance",
    "second_moment",
    "cross_moment",
    "residual_second_moment",
    "collect_statistics",
    "estimate_t_mle",
    "estimate_sigma2_mle",
    "estimate_sigma2_mm_known_va",
    "estimate_sigma2_mm_full",
    "estimate_sigma2_mm_key",
    "combine_optimal",
    "estimate_T_secondmod",
    "estimate_Vxi_secondmod",
    "var_t_mle",
    "var_sigma2_mle",
    "var_sigma2_mm_known_va",
    "var_sigma2_mm_full",
    "var_sigma2_mm_key",
    "var_T_secondmod",
    "var_vxi_secondmod",
    "sigma2_variance",
    "theoretical_std",
    "delta_method_variance",
    "delta_method_mean",
    "build_cj_mm_full",
    "build_cj_mm_key",
    "mm_full_gradient",
]


class EstimatorKind(str, Enum):
    T_MLE = "t_mle"
    SIGMA2_MLE = "sigma2_mle"
    SIGMA2_MM_KNOWN_VA = "sigma2_mm_known_va"
    SIGMA2_MM_FULL = "sigma2_mm_full"
    SIGMA2_MM_KEY = "sigma2_mm_key"
    SIGMA2_OPT = "sigma2_opt"
    T_SECONDMOD = "t_secondmod"
    VXI_SECONDMOD = "vxi_secondmod"
    VXI_OPT = "vxi_opt"


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its (plug-in) variance."""

    value: float
    variance: float
    kind: EstimatorKind

    @property
    def std(self) -> float:
        return sqrt(self.variance)


# ---------------------------------------------------------------------------
# moment statistics

def second_moment(v: np.ndarray) -> float:
    """Mean of v**2 (moments are taken about zero throughout)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("second moment of an empty sample")
    return float(np.dot(v, v) / v.size)


def cross_moment(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of a*b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("cross moment of an empty sample")
    return float(np.dot(a, b) / a.size)


def residual_second_moment(x: np.ndarray, y: np.ndarray, t_hat: float) -> float:
    """Mean of (y - t_hat*x)**2."""
    return second_moment(np.asarray(y, dtype=float) - t_hat * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class StatisticsVector:
    """Second moments of one session under a given reveal split.

    a/b refer to Alice/Bob, the _pe suffix to the m revealed states and
    the _key suffix to the n kept states. Key moments are None when n = 0.
    Partition identity: N*sigma2_a == m*sigma2_a_pe + n*sigma2_a_key.
    """

    sigma2_a: float
    sigma2_b: float
    sigma2_a_pe: float
    sigma_ab_pe: float
    sigma2_a_key: float | None
    sigma2_b_key: float | None
    m: int
    n: int
    N: int


def collect_statistics(session, split) -> StatisticsVector:
    """Compute the moment statistics used by the estimators."""
    if split.m + split.n != session.n_states:
        raise ValueError("split does not partition the session")
    if split.m == 0:
        raise ValueError("need at least one revealed state")
    x_pe = session.x[split.pe_indices]
    y_pe = session.y[split.pe_indices]
    has_key = split.n > 0
    return StatisticsVector(
        sigma2_a=second_moment(session.x),
        sigma2_b=second_moment(session.y),
        sigma2_a_pe=second_moment(x_pe),
        sigma_ab_pe=cross_moment(x_pe, y_pe),
        sigma2_a_key=second_moment(session.x[split.key_indices]) if has_key else None,
        sigma2_b_key=second_moment(session.y[split.key_indices]) if has_key else None,
        m=split.m,
        n=split.n,
        N=session.n_states,
    )


# ---------------------------------------------------------------------------
# estimators

def estimate_t_mle(x: np.ndarray, y: np.ndarray) -> Estimate:
    """Least-squares slope t_hat = sum(x*y)/sum(x**2).

    The plug-in variance is sigma2_hat / sum(x**2) with sigma2_hat the
    residual noise estimate from the same data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size == 0:
        raise ValueError("x and y must be non-empty arrays of equal length")
    sum_x2 = float(np.dot(x, x))
    if sum_x2 == 0.0:
        raise ValueError("degenerate sample: sum(x**2) == 0")
    t_hat = float(np.dot(x, y)) / sum_x2
    sigma2_hat = residual_second_moment(x, y, t_hat)
    return Estimate(value=t_hat, variance=sigma2_hat / sum_x2,
                    kind=EstimatorKind.T_MLE)


def estimate_sigma2_mle(x: np.ndarray, y: np.ndarray, t_hat: float) -> Estimate:
    """Residual noise estimate (1/m) * sum((y - t_hat*x)**2).

    m*sigma2_hat/sigma2 follows a chi-square law with m-1 degrees of
    freedom, hence the exact variance 2*sigma2**2*(m-1)/m**2 (plug-in).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError(f"need m >= 2 revealed states, got {x.size}")
    m = x.size
    value = residual_second_moment(x, y, t_hat)
    return Estimate(value=value, variance=2.0 * value**2 * (m - 1) / m**2,
                    kind=EstimatorKind.SIGMA2_MLE)


def estimate_sigma2_mm_known_va(sigma2_b: float, t_hat: float, V_A: float,
                                m: int, N: int) -> Estimate:
    """Moment estimate sigma2_b - t_hat**2 * V_A with V_A known exactly."""
    value = sigma2_b - t_hat**2 * V_A
    T = t_hat**2
    var = var_sigma2_mm_known_va(V_A, T, value, m, N)
    return Estimate(value=value, variance=var,
                    kind=EstimatorKind.SIGMA2_MM_KNOWN_VA)


def estimate_sigma2_mm_full(stats: StatisticsVector) -> Estimate:
    """Moment estimate over all N states: sigma2_b - t_hat**2 * sigma2_a.

    With the slope taken over the full set this coincides exactly with the
    MLE residual estimate; with the slope from the revealed subset only,
    the N - m extra states enter through the second moments alone.
    """
    t_hat = stats.sigma_ab_pe / stats.sigma2_a_pe
    value = stats.sigma2_b - t_hat**2 * stats.sigma2_a
    var = var_sigma2_mm_full(stats.sigma2_a, t_hat**2, value, stats.m, stats.N)
    return Estimate(value=value, variance=var, kind=EstimatorKind.SIGMA2_MM_FULL)


def estimate_sigma2_mm_key(stats: StatisticsVector, t_hat: float) -> Estimate:
    """Moment estimate restricted to the n key states.

    Independent of the MLE residual estimate because the slope is
    independent of its own residuals and the key states never entered the
    regression. An equivalent residual form is
    residual_second_moment(x_key, y_key, t_hat).
    """
    if stats.n == 0 or stats.sigma2_a_key is None:
        raise ValueError("no key states: n == 0")
    value = stats.sigma2_b_key - t_hat**2 * stats.sigma2_a_key
    var = var_sigma2_mm_key(stats.sigma2_a_key, t_hat**2, value,
                            stats.m, stats.n)
    return Estimate(value=value, variance=var, kind=EstimatorKind.SIGMA2_MM_KEY)


def combine_optimal(first: Estimate, second: Estimate,
                    kind: EstimatorKind = EstimatorKind.SIGMA2_OPT) -> Estimate:
    """Inverse-variance weighted mean of two independent estimates.

    alpha = var2/(var1 + var2) weights the first estimate; the combined
    variance var1*var2/(var1 + var2) never exceeds either input variance.
    """
    v1, v2 = first.variance, second.variance
    if v1 < 0 or v2 < 0:
        raise ValueError("variances must be >= 0")
    if v1 + v2 == 0.0:
        raise ValueError("cannot weight two zero-variance estimates")
    alpha = v2 / (v1 + v2)
    value = alpha * first.value + (1.0 - alpha) * second.value
    return Estimate(value=value, variance=_combined_variance(v1, v2), kind=kind)


def estimate_T_secondmod(x_m2: np.ndarray, y: np.ndarray, V_M2: float) -> Estimate:
    """Transmission estimate from the revealed second modulation.

    T_hat = (sum(x_m2*y))**2 / (N*V_M2)**2. The variance formula needs the
    non-signal variance V_N = Var(y) - T*V_M2, estimated from y itself.
    """
    x_m2 = np.asarray(x_m2, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_m2.shape != y.shape or x_m2.size == 0:
        raise ValueError("x_m2 and y must be non-empty arrays of equal length")
    if V_M2 <= 0:
        raise ValueError(f"V_M2 must be > 0, got {V_M2}")
    N = x_m2.size
    value = float(np.dot(x_m2, y)) ** 2 / (N * V_M2) ** 2
    v_n = second_moment(y) - value * V_M2
    var = (4.0 / N) * (2.0 * value**2 + value * v_n / V_M2)
    return Estimate(value=value, variance=var, kind=EstimatorKind.T_SECONDMOD)


def estimate_Vxi_secondmod(x_m2: np.ndarray, y: np.ndarray, t_est: Estimate,
                           V_A: float) -> Estimate:
    """Output excess noise from the second modulation.

    vxi_hat = (1/N) * sum((y - sqrt(T_hat)*x_m2)**2) - T_hat*V_A - 1.
    ``t_est`` is the matching transmission estimate; its variance feeds the
    plug-in variance (2/N)*V_N**2 + V_A**2 * Var(T_hat).
    """
    x_m2 = np.asarray(x_m2, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_m2.shape != y.shape or x_m2.size == 0:
        raise ValueError("x_m2 and y must be non-empty arrays of equal length")
    T_hat = t_est.value
    if T_hat < 0:
        raise ValueError(f"T_hat must be >= 0, got {T_hat}")
    N = x_m2.size
    value = residual_second_moment(x_m2, y, sqrt(T_hat)) - T_hat * V_A - 1.0
    v_n = 1.0 + value + T_hat * V_A
    var = (2.0 / N) * v_n**2 + V_A**2 * t_est.variance
    return Estimate(value=value, variance=var, kind=EstimatorKind.VXI_SECONDMOD)


# ---------------------------------------------------------------------------
# closed-form variances
#
# The sigma2 arguments below are the noise variance at which the formula is
# evaluated: true parameters for design studies, plug-in estimates inside
# the estimators above.

def var_t_mle(V_A: float, T: float, sigma2: float, m: int) -> float:
    """Design-phase Var(t_hat) = sigma2/(m*V_A), using E[sum(x**2)] = m*V_A."""
    return sigma2 / (m * V_A)


def var_sigma2_mle(sigma2: float, m: int) -> float:
    """Exact chi-square variance 2*sigma2**2*(m-1)/m**2."""
    return 2.0 * sigma2**2 * (m - 1) / m**2


def var_sigma2_mm_known_va(V_A: float, T: float, sigma2: float,
                           m: int, N: int) -> float:
    return (2.0 * sigma2**2 / N + 2.0 * T**2 * V_A**2 / N
            + (1.0 / m - 1.0 / N) * 4.0 * T * sigma2 * V_A)


def var_sigma2_mm_full(V_A: float, T: float, sigma2: float,
                       m: int, N: int) -> float:
    return 2.0 * sigma2**2 / N + (1.0 / m - 1.0 / N) * 4.0 * T * sigma2 * V_A


def var_sigma2_mm_key(V_A: float, T: float, sigma2: float, m: int, n: int,
                      printed_form: bool = False) -> float:
    """Variance of the key-subset moment estimator.

    Default is the delta-method result
        2*sigma2**2/n + (1/m + 1/n) * 4*T*sigma2*V_A.
    ``printed_form`` selects the variant with 1/(sigma2*n) in place of 1/n
    inside the bracket; the two coincide exactly at sigma2 = 1 and the
    difference is O(T*xi) otherwise.
    """
    bracket = 1.0 / m + (1.0 / (sigma2 * n) if printed_form else 1.0 / n)
    return 2.0 * sigma2**2 / n + bracket * 4.0 * T * sigma2 * V_A


def var_T_secondmod(V_A: float, T: float, xi: float, N: int,
                    V_M2: float) -> float:
    """Var(T_hat) = (4/N)*T**2*(2 + V_N/(T*V_M2)), V_N = sigma2 + T*V_A."""
    v_n = _sigma2(T, xi) + T * V_A
    return (4.0 / N) * T**2 * (2.0 + v_n / (T * V_M2))


def var_vxi_secondmod(V_A: float, T: float, xi: float, N: int,
                      V_M2: float) -> float:
    """Var(vxi_hat) = (2/N)*V_N**2 + V_A**2*Var(T_hat)."""
    v_n = _sigma2(T, xi) + T * V_A
    return (2.0 / N) * v_n**2 + V_A**2 * var_T_secondmod(V_A, T, xi, N, V_M2)


def _combined_variance(v1: float, v2: float) -> float:
    """Variance of the inverse-variance weighted mean of two estimates."""
    return v1 * v2 / (v1 + v2)


def sigma2_variance(kind: EstimatorKind, V_A: float, T: float, sigma2: float,
                    m: int, n: int, N: int, printed_form: bool = False) -> float:
    """Closed-form variance of the sigma2 estimator ``kind``.

    The one place that decides which variance sets a sigma2 confidence
    width: both the estimator spread and the finite-size key rate use it.
    """
    if kind is EstimatorKind.SIGMA2_MLE:
        return var_sigma2_mle(sigma2, m)
    if kind is EstimatorKind.SIGMA2_MM_FULL:
        return var_sigma2_mm_full(V_A, T, sigma2, m, N)
    if kind is EstimatorKind.SIGMA2_OPT:
        return _combined_variance(
            var_sigma2_mle(sigma2, m),
            var_sigma2_mm_key(V_A, T, sigma2, m, n, printed_form))
    if kind is EstimatorKind.SIGMA2_MM_KEY:
        return var_sigma2_mm_key(V_A, T, sigma2, m, n, printed_form)
    if kind is EstimatorKind.SIGMA2_MM_KNOWN_VA:
        return var_sigma2_mm_known_va(V_A, T, sigma2, m, N)
    raise ValueError(f"no closed-form variance for {kind}")


def theoretical_std(kind: EstimatorKind, V_A: float, T: float, xi: float,
                    m: int, n: int, N: int, V_M2: float = 0.0,
                    mm_key_printed_form: bool = False) -> float:
    """Closed-form standard deviation of an estimator at true parameters."""
    sigma2 = _sigma2(T, xi)
    if kind is EstimatorKind.T_MLE:
        var = var_t_mle(V_A, T, sigma2, m)
    elif kind is EstimatorKind.T_SECONDMOD:
        var = var_T_secondmod(V_A, T, xi, N, V_M2)
    elif kind is EstimatorKind.VXI_SECONDMOD:
        var = var_vxi_secondmod(V_A, T, xi, N, V_M2)
    elif kind is EstimatorKind.VXI_OPT:
        # Reconstruction: the second-modulation estimate combined with the
        # residual MLE recast as an excess-noise estimate (same variance).
        var = _combined_variance(var_vxi_secondmod(V_A, T, xi, N, V_M2),
                                 var_sigma2_mle(sigma2, m))
    else:
        var = sigma2_variance(kind, V_A, T, sigma2, m, n, N,
                              mm_key_printed_form)
    return sqrt(var)


# ---------------------------------------------------------------------------
# delta-method engine
#
# Var(theta_hat(J)) ~= g^T C_J g with g the gradient of the estimator in the
# statistics J at their mean, and C_J the covariance of the statistics. The
# closed forms above are this engine evaluated symbolically; the tests check
# the two routes against each other.

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


def build_cj_mm_key(V_A: float, t: float, sigma2: float, m: int, n: int,
                    cross_denominator_full: bool = False) -> StatisticsCovariance:
    """Covariance of (sigma2_a_key, sigma2_b_key, sigma2_a_pe, sigma_ab_pe).

    Key and revealed subsets are disjoint, so all cross-subset covariances
    vanish. The key-subset cross term Cov(sigma2_a_key, sigma2_b_key) is
    2*t**2*V_A**2/n; ``cross_denominator_full`` swaps the denominator for
    N = m + n, which feeds through to a 4*t**4*V_A**2*(1/n - 1/N) excess in
    the estimator variance.
    """
    va2 = V_A**2
    sb2 = t**2 * V_A + sigma2
    cross_den = (m + n) if cross_denominator_full else n
    mat = np.zeros((4, 4))
    mat[0, 0] = 2.0 * va2 / n
    mat[1, 1] = 2.0 * sb2**2 / n
    mat[2, 2] = 2.0 * va2 / m
    mat[3, 3] = (2.0 * t**2 * va2 + sigma2 * V_A) / m
    mat[0, 1] = mat[1, 0] = 2.0 * t**2 * va2 / cross_den
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
