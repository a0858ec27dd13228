"""Channel-noise and transmission estimators with their variances.

Every estimator reads moment sums, ``Moments(uu, uy, yy, k)``: the sums of
u**2, u*y and y**2 over k states, built by ``moments(u, y)``.
``collect_statistics`` gives ``(pe, key)`` for the m revealed and the n
key states, ``key = None`` when n = 0. The sums may be floats, one
session, or equal-shape arrays, one entry per trial (as
``channel.sample_moments`` draws them): the same code runs on both,
returns Python floats for floats and arrays for arrays, and raises if any
entry fails a check. The sigma2 estimators share one shape, the sums and
the slope ``t_hat`` of ``estimate_t_mle(pe)``:

* ``estimate_t_mle(pe)`` / ``estimate_sigma2_mle(pe, t_hat)`` -- slope and
  residual variance of the regression of y on x (maximum likelihood);
* ``estimate_sigma2_mm_full(pe, key, t_hat)`` -- both second moments from
  all N states;
* ``estimate_sigma2_mm_key(pe, key, t_hat)`` -- method of moments over the
  key states only, which makes it independent of the MLE;
* ``combine_optimal`` -- inverse-variance combination of two estimates;
* ``estimate_T_secondmod(m2, V_M2)`` / ``estimate_Vxi_secondmod(m2, T_est,
  V_A)`` -- correlation estimators on a second, publicly revealed
  modulation, with ``m2 = moments(x_m2, y)``.

``second_moment`` and ``residual_second_moment`` are not estimators: they
are the raw-array forms the sums are checked against. Every estimator's
closed-form variance is one entry of the kind -> form table ``_VARIANCE``,
a function of (V_A, T, sigma2, m, n, N, V_M2): ``theoretical_std`` reads
it at true parameters and the finite-size rate reads its sigma2 kind's
entry. The test suite cross-checks the forms against a delta-method
engine.
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
    "Moments",
    "moments",
    "second_moment",
    "residual_second_moment",
    "collect_statistics",
    "estimate_t_mle",
    "estimate_sigma2_mle",
    "estimate_sigma2_mm_full",
    "estimate_sigma2_mm_key",
    "combine_optimal",
    "estimate_T_secondmod",
    "estimate_Vxi_secondmod",
    "var_t_mle",
    "var_sigma2_mle",
    "var_sigma2_mm_full",
    "var_sigma2_mm_key",
    "var_T_secondmod",
    "var_vxi_secondmod",
    "theoretical_std",
]


class EstimatorKind(str, Enum):
    T_MLE = "t_mle"
    SIGMA2_MLE = "sigma2_mle"
    SIGMA2_MM_FULL = "sigma2_mm_full"
    SIGMA2_MM_KEY = "sigma2_mm_key"
    SIGMA2_OPT = "sigma2_opt"
    T_SECONDMOD = "t_secondmod"
    VXI_SECONDMOD = "vxi_secondmod"
    VXI_OPT = "vxi_opt"


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its (plug-in) variance, or arrays of them."""

    value: float
    variance: float

    @property
    def std(self) -> float:
        return _sqrt(self.variance)


def _sqrt(x):
    # math.sqrt keeps a float a Python float; numpy's takes the arrays
    return np.sqrt(x) if isinstance(x, np.ndarray) else sqrt(x)


# ---------------------------------------------------------------------------
# moment statistics

def second_moment(v: np.ndarray) -> float:
    """Mean of v**2 (moments are taken about zero throughout)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("second moment of an empty sample")
    return float(np.dot(v, v) / v.size)


def residual_second_moment(x: np.ndarray, y: np.ndarray, t_hat: float) -> float:
    """Mean of (y - t_hat*x)**2."""
    return second_moment(np.asarray(y, dtype=float) - t_hat * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Moments:
    """Sums of u**2, u*y and y**2 over k states; disjoint subsets add.

    The sums are floats, or arrays with one entry per trial.
    """

    uu: float
    uy: float
    yy: float
    k: int

    def __add__(self, other: Moments) -> Moments:
        return Moments(self.uu + other.uu, self.uy + other.uy,
                       self.yy + other.yy, self.k + other.k)

    def residual(self, t: float) -> float:
        """Mean of (y - t*u)**2, expanded in the sums."""
        return (self.yy - 2.0 * t * self.uy + t * t * self.uu) / self.k


def moments(u: np.ndarray, y: np.ndarray) -> Moments:
    """Moment sums of one subset of states."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != 1 or u.shape != y.shape or u.size == 0:
        raise ValueError("u and y must be non-empty 1-D arrays of equal length")
    return Moments(uu=float(np.dot(u, u)), uy=float(np.dot(u, y)),
                   yy=float(np.dot(y, y)), k=u.size)


def collect_statistics(session, split) -> tuple[Moments, Moments | None]:
    """Moment sums ``(pe, key)`` over the revealed and the key subsets of a
    session; ``key`` is None when no state is kept."""
    if split.m + split.n != session.n_states:
        raise ValueError("split does not partition the session")
    if split.m == 0:
        raise ValueError("need at least one revealed state")
    pe = moments(session.x[split.pe_indices], session.y[split.pe_indices])
    key = (moments(session.x[split.key_indices], session.y[split.key_indices])
           if split.n > 0 else None)
    return pe, key


# ---------------------------------------------------------------------------
# estimators

def estimate_t_mle(pe: Moments) -> Estimate:
    """Least-squares slope t_hat = sum(x*y)/sum(x**2).

    The plug-in variance is sigma2_hat / sum(x**2) with sigma2_hat the
    residual noise estimate from the same data.
    """
    if np.any(pe.uu == 0.0):
        raise ValueError("degenerate sample: sum(x**2) == 0")
    t_hat = pe.uy / pe.uu
    return Estimate(value=t_hat, variance=pe.residual(t_hat) / pe.uu)


def estimate_sigma2_mle(pe: Moments, t_hat: float) -> Estimate:
    """Residual noise estimate (1/m) * sum((y - t_hat*x)**2).

    m*sigma2_hat/sigma2 follows a chi-square law with m-1 degrees of
    freedom, hence the exact variance 2*sigma2**2*(m-1)/m**2 (plug-in).
    """
    m = pe.k
    if m < 2:
        raise ValueError(f"need m >= 2 revealed states, got {m}")
    value = pe.residual(t_hat)
    return Estimate(value=value, variance=var_sigma2_mle(value, m))


def estimate_sigma2_mm_full(pe: Moments, key: Moments | None,
                            t_hat: float) -> Estimate:
    """Moment estimate over all N states: sigma2_b - t_hat**2 * sigma2_a.

    With the slope taken over the full set this coincides exactly with the
    MLE residual estimate; with the slope from the revealed subset only,
    the N - m extra states enter through the second moments alone.
    """
    full = pe if key is None else pe + key
    sigma2_a = full.uu / full.k
    value = full.yy / full.k - t_hat**2 * sigma2_a
    var = var_sigma2_mm_full(sigma2_a, t_hat**2, value, pe.k, full.k)
    return Estimate(value=value, variance=var)


def estimate_sigma2_mm_key(pe: Moments, key: Moments | None,
                           t_hat: float) -> Estimate:
    """Moment estimate restricted to the n key states.

    sigma2_b_key - t_hat**2 * sigma2_a_key, t_hat from the revealed states.
    The key-subset cross term sum(x*y) is never disclosed (it would need one
    party's key values), so ``key.uy`` is unused; the residual form
    mean((y_key - t_hat*x_key)**2) needs it and is a different estimator.
    Independent of the MLE residual estimate because the slope is
    independent of its own residuals and the key states never entered the
    regression.
    """
    if key is None:
        raise ValueError("no key states: n == 0")
    sigma2_a = key.uu / key.k
    value = key.yy / key.k - t_hat**2 * sigma2_a
    var = var_sigma2_mm_key(sigma2_a, t_hat**2, value, pe.k, key.k)
    return Estimate(value=value, variance=var)


def combine_optimal(first: Estimate, second: Estimate) -> Estimate:
    """Inverse-variance weighted mean of two independent estimates.

    alpha = var2/(var1 + var2) weights the first estimate; the combined
    variance var1*var2/(var1 + var2) never exceeds either input variance.
    """
    v1, v2 = first.variance, second.variance
    if np.any(v1 < 0) or np.any(v2 < 0):
        raise ValueError("variances must be >= 0")
    if np.any(v1 + v2 == 0.0):
        raise ValueError("cannot weight two zero-variance estimates")
    alpha = v2 / (v1 + v2)
    value = alpha * first.value + (1.0 - alpha) * second.value
    return Estimate(value=value, variance=_combined_variance(v1, v2))


def estimate_T_secondmod(m2: Moments, V_M2: float) -> Estimate:
    """Transmission estimate from the revealed second modulation.

    ``m2`` holds the sums of (x_m2, y) over all N states.
    T_hat = (sum(x_m2*y) / (N*V_M2))**2. The variance formula needs the
    non-signal variance V_N = Var(y) - T*V_M2, estimated from y itself.
    """
    if V_M2 <= 0:
        raise ValueError(f"V_M2 must be > 0, got {V_M2}")
    N = m2.k
    # squared as r*r: Python's r**2 (libm pow) can round one ulp away from
    # numpy's square, and a float and an array of sums must agree
    r = m2.uy / (N * V_M2)
    value = r * r
    v_n = m2.yy / N - value * V_M2
    var = (4.0 / N) * (2.0 * value**2 + value * v_n / V_M2)
    return Estimate(value=value, variance=var)


def estimate_Vxi_secondmod(m2: Moments, t_est: Estimate,
                           V_A: float) -> Estimate:
    """Output excess noise from the second modulation.

    vxi_hat = (1/N) * sum((y - sqrt(T_hat)*x_m2)**2) - T_hat*V_A - 1.
    ``t_est`` is the matching transmission estimate; its variance feeds the
    plug-in variance (2/N)*V_N**2 + V_A**2 * Var(T_hat).
    """
    T_hat = t_est.value
    if np.any(T_hat < 0):
        raise ValueError(f"T_hat must be >= 0, got {T_hat}")
    value = m2.residual(_sqrt(T_hat)) - T_hat * V_A - 1.0
    v_n = 1.0 + value + T_hat * V_A
    var = (2.0 / m2.k) * v_n**2 + V_A**2 * t_est.variance
    return Estimate(value=value, variance=var)


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


def var_sigma2_mm_full(V_A: float, T: float, sigma2: float,
                       m: int, N: int) -> float:
    return 2.0 * sigma2**2 / N + (1.0 / m - 1.0 / N) * 4.0 * T * sigma2 * V_A


def var_sigma2_mm_key(V_A: float, T: float, sigma2: float, m: int,
                      n: int) -> float:
    """Variance of the key-subset moment estimator (delta method):
    2*sigma2**2/n + (1/m + 1/n) * 4*T*sigma2*V_A.
    """
    return 2.0 * sigma2**2 / n + (1.0 / m + 1.0 / n) * 4.0 * T * sigma2 * V_A


def var_T_secondmod(V_A: float, T: float, sigma2: float, N: int,
                    V_M2: float) -> float:
    """Var(T_hat) = (4/N)*T**2*(2 + V_N/(T*V_M2)), V_N = sigma2 + T*V_A.

    Defined only for T*V_M2 > 0: without transmission or without the
    second modulation there is nothing to correlate.
    """
    if not T * V_M2 > 0:
        raise ValueError(f"Var(T_hat) needs T*V_M2 > 0, got T={T}, "
                         f"V_M2={V_M2}")
    v_n = sigma2 + T * V_A
    return (4.0 / N) * T**2 * (2.0 + v_n / (T * V_M2))


def var_vxi_secondmod(V_A: float, T: float, sigma2: float, N: int,
                      V_M2: float) -> float:
    """Var(vxi_hat) = (2/N)*V_N**2 + V_A**2*Var(T_hat)."""
    v_n = sigma2 + T * V_A
    return (2.0 / N) * v_n**2 + V_A**2 * var_T_secondmod(V_A, T, sigma2, N,
                                                         V_M2)


def _combined_variance(v1: float, v2: float) -> float:
    """Variance of the inverse-variance weighted mean of two estimates."""
    return v1 * v2 / (v1 + v2)


# The closed-form variance of every estimator, as a function of (V_A, T,
# sigma2, m, n, N, V_M2): the one kind -> form table. theoretical_std reads
# it, and the finite-size rate looks its sigma2 kind's form up once per
# build, which sets the noise confidence width.
_VARIANCE = {
    EstimatorKind.T_MLE:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_t_mle(V_A, T, sigma2, m),
    EstimatorKind.SIGMA2_MLE:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_sigma2_mle(sigma2, m),
    EstimatorKind.SIGMA2_MM_FULL:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_sigma2_mm_full(
            V_A, T, sigma2, m, N),
    EstimatorKind.SIGMA2_MM_KEY:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_sigma2_mm_key(
            V_A, T, sigma2, m, n),
    EstimatorKind.SIGMA2_OPT:
        lambda V_A, T, sigma2, m, n, N, V_M2: _combined_variance(
            var_sigma2_mle(sigma2, m),
            var_sigma2_mm_key(V_A, T, sigma2, m, n)),
    EstimatorKind.T_SECONDMOD:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_T_secondmod(
            V_A, T, sigma2, N, V_M2),
    EstimatorKind.VXI_SECONDMOD:
        lambda V_A, T, sigma2, m, n, N, V_M2: var_vxi_secondmod(
            V_A, T, sigma2, N, V_M2),
    # Reconstruction: the second-modulation estimate combined with the
    # residual MLE recast as an excess-noise estimate (same variance).
    EstimatorKind.VXI_OPT:
        lambda V_A, T, sigma2, m, n, N, V_M2: _combined_variance(
            var_vxi_secondmod(V_A, T, sigma2, N, V_M2),
            var_sigma2_mle(sigma2, m)),
}


def theoretical_std(kind: EstimatorKind, V_A: float, T: float, xi: float,
                    m: int, n: int, N: int, V_M2: float = 0.0) -> float:
    """Closed-form standard deviation of an estimator at true parameters.

    ``kind`` is an EstimatorKind or its value, such as "t_mle"."""
    return sqrt(_VARIANCE[EstimatorKind(kind)](V_A, T, _sigma2(T, xi), m, n,
                                               N, V_M2))
