"""Key-rate calculation against collective Gaussian attacks.

The Alice-Bob state after the channel is Gaussian with covariance matrix

    Gamma = [[ a*I2, c*sz ],          a = V_A + 1
             [ c*sz, b*I2 ]],         b = T*V_A + 1 + T*xi
                                      c = sqrt(T*(V_A**2 + 2*V_A))

in shot-noise units, with sz = diag(1, -1). Finite-size security enters
through confidence bounds on (t, sigma2): Eve is credited with the least
favorable parameters inside the confidence region, which shrinks with the
number of revealed states and with the estimator's variance. That rate
is written once, in ``_finite_rate_kernel``, and run on Python floats
(``key_rate_finite``, the optimizer's polish) or on numpy arrays (the
optimizer's grid, ranked for a block of transmissions at once, so T is
an array there too). Its steps are written once each: the corner's hold
inside the physical region (``_hold``, also behind ``worst_case_params``),
the mutual information (``_i_ab``, also behind ``mutual_information``)
and the Holevo term's eigenvalues and entropies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt
from types import SimpleNamespace

import numpy as np

from .channel import _sigma2
from .estimators import EstimatorKind, sigma2_variance, var_t_mle

__all__ = [
    "TwoModeCovariance",
    "KeyRateResult",
    "covariance_matrix",
    "confidence_quantile",
    "worst_case_params",
    "mutual_information",
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


def _erfinv(x: float) -> float:
    # scipy.special (about 24 MB resident) loads on the first call, so the
    # verbs that compute no key rate never load it; the import rebinds this
    # name to scipy's ufunc, which every later call reaches directly
    global _erfinv
    from scipy.special import erfinv as _erfinv
    return _erfinv(x)


def confidence_quantile(epsilon_pe: float, convention: str = "paper") -> float:
    """Half-width multiplier z for the parameter-estimation confidence region.

    convention="paper" uses z = erfinv(1 - epsilon_pe/2); "gaussian" uses
    the two-sided normal quantile z = sqrt(2)*erfinv(1 - epsilon_pe). At
    epsilon_pe = 1e-10 these give about 4.65 and 6.47 respectively.
    """
    if not 0.0 < epsilon_pe < 1.0:
        raise ValueError(f"epsilon_pe must be in (0, 1), got {epsilon_pe}")
    if convention == "paper":
        return float(_erfinv(1.0 - epsilon_pe / 2.0))
    if convention == "gaussian":
        return float(sqrt(2.0) * _erfinv(1.0 - epsilon_pe))
    raise ValueError(f"unknown convention {convention!r}")


# The rate kernel takes z and holds the corner itself, with _hold; this
# function and holevo_bound stay public, and importable as
# cvqkd.security.*, which perfbench's tracer wraps.
def worst_case_params(t_hat: float, std_t: float, sigma2_hat: float,
                      std_sigma2: float, epsilon_pe: float,
                      convention: str = "paper") -> tuple[float, float, bool]:
    """(t_min, sigma2_max, clamped): the least favorable (t, sigma2) at
    confidence 1 - epsilon_pe.

    t_min = t_hat - z*std_t and sigma2_max = sigma2_hat + z*std_sigma2,
    held inside the physical region as the rate kernel holds them.
    """
    if std_t < 0 or std_sigma2 < 0:
        raise ValueError("standard deviations must be >= 0")
    z = confidence_quantile(epsilon_pe, convention)
    return _hold(t_hat - z * std_t, sigma2_hat + z * std_sigma2, _MATH)


def mutual_information(V_A: float, T: float, xi: float) -> float:
    """Alice-Bob mutual information (1/2)*log2(1 + T*V_A/(1 + T*xi))."""
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    return _i_ab(V_A, T, _sigma2(T, xi), _MATH)


def holevo_bound(cov: TwoModeCovariance) -> float:
    """Eve's information on Bob's homodyne outcome, S(AB) - S(A|y)."""
    return _holevo(cov.a, cov.b, cov.c, _MATH)


# ---------------------------------------------------------------------------
# The rate formula, written once for Python floats and for numpy arrays.
# Each step takes a namespace xp: _MATH runs it on floats through math and
# raises at the first failed check, _NUMPY runs it element by element and
# raises if any cell fails. Both do the same operations in the same order;
# where math and numpy round differently (log2, powers), each path keeps
# its own library's last bit.

def _raise_if(bad, what: str, value) -> None:
    if bad:
        raise ValueError(f"{what} ({value})")


def _grid_check(bad, what: str, _value) -> None:
    if np.any(bad):
        raise ValueError(f"{what} on the rate grid")


_MATH = SimpleNamespace(sqrt=sqrt, log2=log2, maximum=max, any=bool,
                        where=lambda cond, a, b: a if cond else b,
                        check=_raise_if)
_NUMPY = SimpleNamespace(sqrt=np.sqrt, log2=np.log2, maximum=np.maximum,
                         any=np.any, where=np.where, check=_grid_check)


def _hold(t_min, sigma2_max, xp):
    # the confidence-region corner held inside the physical region: the
    # channel cannot anti-correlate the quadratures (t_min >= 0) nor add
    # less than vacuum noise (sigma2_max >= 1); clamped says whether
    # either hold fired
    return (xp.maximum(t_min, 0.0), xp.maximum(sigma2_max, 1.0),
            (t_min < 0.0) | (sigma2_max < 1.0))


def _i_ab(V_A, T, sigma2, xp):
    # Alice-Bob mutual information of the Gaussian channel
    return 0.5 * xp.log2(1.0 + T * V_A / sigma2)


def _corner(t_min, sigma2_max, V_A, xp):
    # (a, b, c) of the covariance matrix at the worst-case (t, sigma2)
    return (V_A + 1.0, t_min**2 * V_A + sigma2_max,
            t_min * xp.sqrt(V_A**2 + 2.0 * V_A))


def _split(a, b, c):
    # disc below is (a - b)**2 * _split(a, b, c)
    return (a + b) ** 2 - 4.0 * c * c


def _symplectic(a, b, c, xp):
    # symplectic spectrum nu1 >= nu2 >= 1 of the two-mode matrix:
    # nu**2 = (delta +- sqrt(delta**2 - 4*d**2))/2
    delta = a * a + b * b - 2.0 * c * c
    d = a * b - c * c
    disc = delta * delta - 4.0 * d * d
    # Near a pure state (T -> 1, xi -> 0) disc is about 0, and the square
    # root of its round-off moves nu2 by more than _NU_TOL. A flagged cell
    # fails only if a form without that cancellation agrees: disc factored,
    # and nu2 = d/nu1 with nu1 from the factored root.
    bad = disc < -_NU_TOL
    if xp.any(bad):
        bad = bad & ((a - b) ** 2 * _split(a, b, c) < -_NU_TOL)
    xp.check(bad, "complex symplectic spectrum", disc)
    root = xp.sqrt(xp.maximum(disc, 0.0))
    nu1 = xp.sqrt((delta + root) / 2.0)
    nu2_sq = (delta - root) / 2.0
    xp.check(nu2_sq < 0.0, "negative squared eigenvalue", nu2_sq)
    nu2 = xp.sqrt(nu2_sq)
    bad = nu2 < 1.0 - _NU_TOL
    if xp.any(bad):
        factored = abs(a - b) * xp.sqrt(xp.maximum(_split(a, b, c), 0.0))
        bad = bad & (d < (1.0 - _NU_TOL) * xp.sqrt((delta + factored) / 2.0))
    xp.check(bad, "unphysical covariance matrix", nu2)
    return xp.maximum(nu1, 1.0), xp.maximum(nu2, 1.0)


def _conditional(a, b, c, xp):
    # mode A after Bob's homodyne of one quadrature of mode B has
    # covariance diag(a - c**2/b, a), so nu3 = sqrt(a*(a - c**2/b))
    reduced = a - c * c / b
    xp.check(reduced < -_NU_TOL, "negative conditional variance", reduced)
    nu3 = xp.sqrt(a * xp.maximum(reduced, 0.0))
    xp.check(nu3 < 1.0 - _NU_TOL, "unphysical conditional state", nu3)
    return xp.maximum(nu3, 1.0)


def _g(x, xp):
    # bosonic entropy g(x) = (x+1)*log2(x+1) - x*log2(x), g(0) = 0.
    # x >= 0: the eigenvalues are clamped to >= 1 before g is taken; only
    # exact zeros are masked, so a NaN eigenvalue gives a NaN entropy
    zero = x == 0.0
    x = xp.where(zero, 1.0, x)
    return xp.where(zero, 0.0, (x + 1.0) * xp.log2(x + 1.0) - x * xp.log2(x))


def _holevo(a, b, c, xp):
    nu1, nu2 = _symplectic(a, b, c, xp)
    nu3 = _conditional(a, b, c, xp)
    s = (_g((nu1 - 1.0) / 2.0, xp) + _g((nu2 - 1.0) / 2.0, xp)
         - _g((nu3 - 1.0) / 2.0, xp))
    # tiny negative values are round-off from the eigenvalue clamps
    return xp.where(s > -1e-9, xp.maximum(s, 0.0), s)


def _finite_rate_kernel(V_A, T, xi, beta, N, m, z, kind, xp):
    """(raw rate, I_AB, S_worst, clamped) of the finite-size rate.

    The raw rate is (n/N) * (beta*I_AB - S_worst), S_worst the Holevo
    bound at the confidence-region corner t_min = t - z*std_t, sigma2_max
    = sigma2 + z*std_sigma2, held by _hold at t_min >= 0 and sigma2_max
    >= 1; clamped says whether either hold fired. Needs V_A > 0, 1 <= m
    <= N-1, z from confidence_quantile and a kind of KEY_RATE_ESTIMATORS.
    """
    n = N - m
    sigma2 = _sigma2(T, xi)
    t_min, sigma2_max, clamped = _hold(
        xp.sqrt(T) - z * xp.sqrt(var_t_mle(V_A, T, sigma2, m)),
        sigma2 + z * xp.sqrt(sigma2_variance(kind, V_A, T, sigma2, m, n, N)),
        xp)
    s_wc = _holevo(*_corner(t_min, sigma2_max, V_A, xp), xp)
    i_ab = _i_ab(V_A, T, sigma2, xp)
    return (n / N) * (beta * i_ab - s_wc), i_ab, s_wc, clamped


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

    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    z = confidence_quantile(epsilon_pe, convention)
    raw, i_ab, s_wc, clamped = _finite_rate_kernel(
        V_A, T, xi, beta, N, m, z, estimator_kind, _MATH)
    return KeyRateResult(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        mutual_information=i_ab,
        holevo=s_wc,
        n_fraction=(N - m) / N,
        clamped=clamped,
    )

