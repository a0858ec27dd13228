"""Key-rate calculation against collective Gaussian attacks.

The Alice-Bob state after the channel is Gaussian with covariance matrix

    Gamma = [[ a*I2, c*sz ],          a = V_A + 1
             [ c*sz, b*I2 ]],         b = T*V_A + 1 + T*xi
                                      c = sqrt(T*(V_A**2 + 2*V_A))

in shot-noise units, with sz = diag(1, -1). Finite-size security enters
through confidence bounds on (t, sigma2): Eve is credited with the least
favorable parameters inside the confidence region, which shrinks with the
number of revealed states and with the estimator's variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

import numpy as np
from scipy.special import erfinv

from .channel import _sigma2
from .estimators import EstimatorKind, sigma2_variance, var_t_mle

__all__ = [
    "TwoModeCovariance",
    "WorstCaseParams",
    "KeyRateResult",
    "covariance_matrix",
    "confidence_quantile",
    "worst_case_params",
    "worst_case_covariance",
    "mutual_information",
    "symplectic_eigenvalues",
    "conditional_eigenvalue_homodyne",
    "g_entropy",
    "holevo_bound",
    "key_rate_asymptotic",
    "key_rate_finite",
    "key_rate_finite_grid",
]

# eigenvalues this far below 1 are treated as round-off on a physical state
_NU_TOL = 1e-9

KEY_RATE_ESTIMATORS = (
    EstimatorKind.SIGMA2_MLE,
    EstimatorKind.SIGMA2_MM_FULL,
    EstimatorKind.SIGMA2_OPT,
)


@dataclass(frozen=True)
class TwoModeCovariance:
    """Block parameters (a, b, c) of a two-mode Gaussian covariance matrix."""

    a: float
    b: float
    c: float
    clamped: bool = False

    def physical(self) -> bool:
        """Heisenberg check a*b - c**2 >= 1 (both quadrature signs agree)."""
        return self.a * self.b - self.c**2 >= 1.0 - _NU_TOL


@dataclass(frozen=True)
class WorstCaseParams:
    """Confidence-region corner least favorable to Alice and Bob."""

    t_min: float
    sigma2_max: float
    z: float
    epsilon_pe: float
    clamped: bool = False


def covariance_matrix(V_A: float, T: float, xi: float) -> TwoModeCovariance:
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    if T < 0 or xi < 0:
        raise ValueError(f"T and xi must be >= 0, got T={T}, xi={xi}")
    return TwoModeCovariance(
        a=V_A + 1.0,
        b=T * V_A + 1.0 + T * xi,
        c=sqrt(T * (V_A**2 + 2.0 * V_A)),
    )


def confidence_quantile(epsilon_pe: float, convention: str = "paper") -> float:
    """Half-width multiplier z for the parameter-estimation confidence region.

    convention="paper" uses z = erfinv(1 - epsilon_pe/2); "gaussian" uses
    the two-sided normal quantile z = sqrt(2)*erfinv(1 - epsilon_pe). At
    epsilon_pe = 1e-10 these give about 4.65 and 6.47 respectively.
    """
    if not 0.0 < epsilon_pe < 1.0:
        raise ValueError(f"epsilon_pe must be in (0, 1), got {epsilon_pe}")
    if convention == "paper":
        return float(erfinv(1.0 - epsilon_pe / 2.0))
    if convention == "gaussian":
        return float(sqrt(2.0) * erfinv(1.0 - epsilon_pe))
    raise ValueError(f"unknown convention {convention!r}")


def worst_case_params(t_hat: float, std_t: float, sigma2_hat: float,
                      std_sigma2: float, epsilon_pe: float,
                      convention: str = "paper") -> WorstCaseParams:
    """Least favorable (t, sigma2) at confidence 1 - epsilon_pe.

    t_min = t_hat - z*std_t, sigma2_max = sigma2_hat + z*std_sigma2. A
    negative t_min is clamped to 0 (the channel cannot anti-correlate the
    quadratures more than it decorrelates them) and flagged.
    """
    if std_t < 0 or std_sigma2 < 0:
        raise ValueError("standard deviations must be >= 0")
    z = confidence_quantile(epsilon_pe, convention)
    t_min = t_hat - z * std_t
    clamped = False
    if t_min < 0.0:
        t_min = 0.0
        clamped = True
    return WorstCaseParams(t_min=t_min, sigma2_max=sigma2_hat + z * std_sigma2,
                           z=z, epsilon_pe=epsilon_pe, clamped=clamped)


def worst_case_covariance(wc: WorstCaseParams, V_A: float) -> TwoModeCovariance:
    """Covariance matrix evaluated at the confidence-region corner."""
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    sigma2_max = wc.sigma2_max
    clamped = wc.clamped
    if sigma2_max < 1.0:
        # below-vacuum noise bound; push back to the physical boundary
        sigma2_max = 1.0
        clamped = True
    return TwoModeCovariance(
        a=V_A + 1.0,
        b=wc.t_min**2 * V_A + sigma2_max,
        c=wc.t_min * sqrt(V_A**2 + 2.0 * V_A),
        clamped=clamped,
    )


def mutual_information(V_A: float, T: float, xi: float) -> float:
    """Alice-Bob mutual information (1/2)*log2(1 + T*V_A/(1 + T*xi))."""
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    return 0.5 * log2(1.0 + T * V_A / _sigma2(T, xi))


def symplectic_eigenvalues(cov: TwoModeCovariance) -> tuple[float, float]:
    """Symplectic spectrum (nu1 >= nu2 >= 1) of the two-mode matrix.

    nu**2 = (Delta +- sqrt(Delta**2 - 4*D**2))/2 with Delta = a**2 + b**2
    - 2*c**2 and D = a*b - c**2.
    """
    a, b, c = cov.a, cov.b, cov.c
    delta = a * a + b * b - 2.0 * c * c
    d = a * b - c * c
    disc = delta * delta - 4.0 * d * d
    if disc < -_NU_TOL:
        raise ValueError(f"complex symplectic spectrum: Delta^2-4D^2 = {disc}")
    disc = max(disc, 0.0)
    nu1 = sqrt((delta + sqrt(disc)) / 2.0)
    nu2_sq = (delta - sqrt(disc)) / 2.0
    if nu2_sq < 0.0:
        raise ValueError(f"negative squared eigenvalue: {nu2_sq}")
    nu2 = sqrt(nu2_sq)
    if nu2 < 1.0 - _NU_TOL:
        raise ValueError(f"unphysical covariance matrix: nu2 = {nu2}")
    return max(nu1, 1.0), max(nu2, 1.0)


def conditional_eigenvalue_homodyne(cov: TwoModeCovariance) -> float:
    """Symplectic eigenvalue of Alice's state after Bob's homodyne.

    nu3 = sqrt(a*(a - c**2/b)): measuring one quadrature of mode B leaves
    mode A with covariance diag(a - c**2/b, a).
    """
    a, b, c = cov.a, cov.b, cov.c
    if b <= 0:
        raise ValueError(f"b must be > 0, got {b}")
    reduced = a - c * c / b
    if reduced < -_NU_TOL:
        raise ValueError(f"conditional variance {reduced} < 0")
    nu3 = sqrt(a * max(reduced, 0.0))
    if nu3 < 1.0 - _NU_TOL:
        raise ValueError(f"unphysical conditional state: nu3 = {nu3}")
    return max(nu3, 1.0)


def g_entropy(x: float) -> float:
    """Bosonic entropy g(x) = (x+1)*log2(x+1) - x*log2(x), g(0) = 0."""
    if x < 0:
        if x > -_NU_TOL:
            return 0.0
        raise ValueError(f"g is undefined for x = {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * log2(x + 1.0) - x * log2(x)


def holevo_bound(cov: TwoModeCovariance) -> float:
    """Eve's information on Bob's homodyne outcome, S(AB) - S(A|y)."""
    nu1, nu2 = symplectic_eigenvalues(cov)
    nu3 = conditional_eigenvalue_homodyne(cov)
    s = (g_entropy((nu1 - 1.0) / 2.0) + g_entropy((nu2 - 1.0) / 2.0)
         - g_entropy((nu3 - 1.0) / 2.0))
    # tiny negative values are round-off from the eigenvalue clamps
    return max(s, 0.0) if s > -1e-9 else s


@dataclass(frozen=True)
class KeyRateResult:
    key_rate: float
    key_rate_raw: float
    mutual_information: float
    holevo: float
    n_fraction: float
    reason: str | None = None
    clamped: bool = False


def key_rate_asymptotic(V_A: float, T: float, xi: float,
                        beta: float = 1.0) -> KeyRateResult:
    """Reverse-reconciliation rate beta*I - S with known channel parameters."""
    i_ab = mutual_information(V_A, T, xi)
    s = holevo_bound(covariance_matrix(V_A, T, xi))
    raw = beta * i_ab - s
    return KeyRateResult(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        mutual_information=i_ab,
        holevo=s,
        n_fraction=1.0,
    )


def _key_rate_kind(estimator_kind) -> EstimatorKind:
    # a plain string such as "sigma2_mle" names the same kind
    kind = EstimatorKind(estimator_kind)
    if kind not in KEY_RATE_ESTIMATORS:
        raise ValueError(f"estimator_kind must be one of {KEY_RATE_ESTIMATORS}, "
                         f"got {kind}")
    return kind


def key_rate_finite(V_A: float, T: float, xi: float, beta: float,
                    N: int, m: int, epsilon_pe: float = 1e-10,
                    estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                    convention: str = "paper") -> KeyRateResult:
    """Finite-size key rate (n/N) * (beta*I - S_worst).

    Design-phase calculation: confidence widths use the theoretical
    estimator variances at the true (V_A, T, xi), with Var(t_hat) =
    sigma2/(m*V_A). ``estimator_kind`` (a kind or its value, such as
    "sigma2_mle") selects which sigma2 estimator sets the noise
    confidence width.
    """
    estimator_kind = _key_rate_kind(estimator_kind)
    if m >= N:
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=0.0, reason="no key states (m == N)")
    if m == 0:
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=1.0, reason="no parameter estimation (m == 0)")

    n = N - m
    sigma2 = _sigma2(T, xi)
    t = sqrt(T)
    std_t = sqrt(var_t_mle(V_A, T, sigma2, m))
    var_s2 = sigma2_variance(estimator_kind, V_A, T, sigma2, m, n, N)

    wc = worst_case_params(t, std_t, sigma2, sqrt(var_s2), epsilon_pe, convention)
    cov_wc = worst_case_covariance(wc, V_A)
    i_ab = mutual_information(V_A, T, xi)
    s_wc = holevo_bound(cov_wc)
    raw = (n / N) * (beta * i_ab - s_wc)
    return KeyRateResult(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        mutual_information=i_ab,
        holevo=s_wc,
        n_fraction=n / N,
        clamped=cov_wc.clamped,
    )


def _grid_check(bad, what: str) -> None:
    if np.any(bad):
        raise ValueError(f"{what} on the rate grid")


def _g_entropy_grid(x):
    # x >= 0 here: the eigenvalues are clamped to >= 1 before g is taken
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    return np.where(pos, (xs + 1.0) * np.log2(xs + 1.0) - xs * np.log2(xs),
                    0.0)


def key_rate_finite_grid(V_A, T: float, xi: float, beta: float, N: int, m,
                         epsilon_pe: float = 1e-10,
                         estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                         convention: str = "paper") -> np.ndarray:
    """Raw finite-size rate (n/N) * (beta*I - S_worst) over arrays of (V_A, m).

    The array form of ``key_rate_finite`` for ranking a parameter grid:
    ``V_A`` and ``m`` broadcast against each other (``m`` is taken as
    float, so m**2 cannot overflow), every other argument is fixed. Needs
    1 <= m <= N-1. Raises ValueError wherever ``key_rate_finite`` would
    and clamps where it clamps. The values are
    ``key_rate_raw`` up to round-off: numpy's log2 and power differ from
    ``math``'s in the last bit, so rates to be reported come from
    ``key_rate_finite``.
    """
    kind = _key_rate_kind(estimator_kind)
    V_A = np.asarray(V_A, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(V_A <= 0):
        raise ValueError("V_A must be > 0")
    if np.any((m < 1) | (m > N - 1)):
        raise ValueError(f"m must be in [1, N-1] on the rate grid, N={N}")

    n = N - m
    sigma2 = _sigma2(T, xi)
    z = confidence_quantile(epsilon_pe, convention)
    t_min = np.maximum(sqrt(T) - z * np.sqrt(var_t_mle(V_A, T, sigma2, m)),
                       0.0)
    sigma2_max = np.maximum(
        sigma2 + z * np.sqrt(sigma2_variance(kind, V_A, T, sigma2, m, n, N)),
        1.0)

    # worst_case_covariance, symplectic_eigenvalues and
    # conditional_eigenvalue_homodyne, element by element
    a = V_A + 1.0
    b = t_min**2 * V_A + sigma2_max
    c = t_min * np.sqrt(V_A**2 + 2.0 * V_A)
    delta = a * a + b * b - 2.0 * c * c
    d = a * b - c * c
    disc = delta * delta - 4.0 * d * d
    _grid_check(disc < -_NU_TOL, "complex symplectic spectrum")
    root = np.sqrt(np.maximum(disc, 0.0))
    nu1 = np.sqrt((delta + root) / 2.0)
    nu2_sq = (delta - root) / 2.0
    _grid_check(nu2_sq < 0.0, "negative squared eigenvalue")
    nu2 = np.sqrt(nu2_sq)
    _grid_check(nu2 < 1.0 - _NU_TOL, "unphysical covariance matrix")
    reduced = a - c * c / b
    _grid_check(reduced < -_NU_TOL, "negative conditional variance")
    nu3 = np.sqrt(a * np.maximum(reduced, 0.0))
    _grid_check(nu3 < 1.0 - _NU_TOL, "unphysical conditional state")

    # holevo_bound
    s = (_g_entropy_grid((np.maximum(nu1, 1.0) - 1.0) / 2.0)
         + _g_entropy_grid((np.maximum(nu2, 1.0) - 1.0) / 2.0)
         - _g_entropy_grid((np.maximum(nu3, 1.0) - 1.0) / 2.0))
    s_wc = np.where(s > -1e-9, np.maximum(s, 0.0), s)
    i_ab = 0.5 * np.log2(1.0 + T * V_A / sigma2)
    return (n / N) * (beta * i_ab - s_wc)
