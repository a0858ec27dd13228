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

import warnings
from dataclasses import dataclass
from math import log2, sqrt

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
        warnings.warn("worst-case t_min < 0, clamped to 0", stacklevel=2)
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
        warnings.warn("worst-case sigma2_max < 1, clamped to 1", stacklevel=2)
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


def key_rate_finite(V_A: float, T: float, xi: float, beta: float,
                    N: int, m: int, epsilon_pe: float = 1e-10,
                    estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                    convention: str = "paper") -> KeyRateResult:
    """Finite-size key rate (n/N) * (beta*I - S_worst).

    Design-phase calculation: confidence widths use the theoretical
    estimator variances at the true (V_A, T, xi), with Var(t_hat) =
    sigma2/(m*V_A). ``estimator_kind`` selects which sigma2 estimator sets
    the noise confidence width.
    """
    if m >= N:
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=0.0, reason="no key states (m == N)")
    if m == 0:
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=1.0, reason="no parameter estimation (m == 0)")
    if estimator_kind not in KEY_RATE_ESTIMATORS:
        raise ValueError(f"estimator_kind must be one of {KEY_RATE_ESTIMATORS}, "
                         f"got {estimator_kind}")

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
