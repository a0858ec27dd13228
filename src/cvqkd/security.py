"""Key-rate calculation against collective Gaussian attacks.

The Alice-Bob state after the channel is Gaussian with covariance matrix

    Gamma = [[ a*I2, c*sz ],          a = V_A + 1
             [ c*sz, b*I2 ]],         b = T*V_A + 1 + T*xi
                                      c = sqrt(T*(V_A**2 + 2*V_A))

in shot-noise units, with sz = diag(1, -1); ``_channel_abc`` gives (a, b,
c). Finite-size security enters through confidence bounds on (t,
sigma2): Eve is credited with the least favorable parameters inside the
confidence region, which shrinks with the number of revealed states and
with the estimator's variance.

``holevo_bound``, ``key_rate_asymptotic`` and ``key_rate_finite`` take
(V_A, T, xi) and check them in one place, ``_check_inputs``: V_A > 0,
then T >= 0 and xi >= 0, then T and xi finite, then V_A and xi at most
``_MAX_VARIANCE``, the config's cap, each with one message; a NaN passes
and gives a NaN. ``key_rate_finite`` also rejects m outside [0, N], and
gives a zero rate with a reason at m = N and at m < 2.

The finite-size rate is written twice, once per input type, with the
same operations in the same order. ``_rate_at`` takes Python floats
through ``math`` and ``if`` tests and raises at the first failed check:
built once per channel and block size, with sigma2, sqrt(T) and the
estimator's variance form fixed there, it returns the rate as a function
of (V_A, m), the one float form of the rate. That function writes
Var(t_hat), the sigma2 variance, the corner's hold and the mutual
information out in one frame and calls only the Holevo term ``_holevo``,
as ``_asymptotic_at``, the asymptotic rate built the same way once per
channel as a function of V_A, does; each evaluation of the optimizer's
polish is two Python calls. ``_hold`` and ``_holevo`` also serve
``worst_case_params`` and ``holevo_bound``. Each built rate checks its
channel, and ``_rate_at`` also N >= 3, when it is built, and returns the
key rate, the raw rate held at 0, next to the raw rate: the check and
the zero clamp are written there and nowhere else. Rates are built once
and then evaluated many times by the optimizer's polish and cross
re-scores (``_rate_at``, once per transmission and estimator) and its
asymptotic search (``_asymptotic_at``, once per transmission);
``key_rate_finite`` and ``key_rate_asymptotic`` build one for a single
evaluation. ``_rate_grid`` takes numpy arrays, for the
optimizer's grid, ranked for a block of transmissions and a list of
estimator kinds at once (so T is an array there too, and the result has
one slice per kind), and raises if any cell of any kind fails a check;
``_asymptotic_grid`` is the asymptotic rate on arrays, for the
optimizer's V_A column of a list of transmissions.

Each path is the better one on its own input. numpy's log2 and powers
differ from math's in the last bit (log2 on 24 to 172 of 100k random
inputs, depending on their range), so the grid's values only rank cells
and every reported rate comes from the float path. On floats one
evaluation of a built rate costs 1.7-1.9 us and of a built asymptotic
rate 1.1-1.3 us, against over 60 us for a one-cell array (2-vCPU Xeon,
Python 3.11.7, numpy 2.4.6). The grid takes sigma2, Var(t_hat) and the
sigma2 variance from ``_sigma2``, ``var_t_mle`` and the estimators' one
kind -> variance table; the float rate restates the last two inline.
tests/test_security.py checks the float rate bit for bit against a
reference composed of those functions, the grid of several kinds bit for
bit against a reference that computes one kind at a time, and the two
paths against each other cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log2, sqrt
from sys import float_info

import numpy as np

from .channel import _sigma2
from .estimators import _VARIANCE, EstimatorKind, var_t_mle

__all__ = [
    "KeyRateResult",
    "confidence_quantile",
    "worst_case_params",
    "holevo_bound",
    "key_rate_asymptotic",
    "key_rate_finite",
]

# eigenvalues this far below 1 are treated as round-off on a physical state;
# the checks' two bounds are built from it once, here
_NU_TOL = 1e-9
_NEG_NU_TOL = -_NU_TOL
_NU_FLOOR = 1.0 - _NU_TOL
# V_A and xi set the covariance entries, whose squares' round-off, eps*v**2,
# passes the eigenvalue checks' tolerance _NU_TOL past this size; the rate
# functions and the config reject a larger one
_MAX_VARIANCE = sqrt(_NU_TOL / float_info.epsilon)
# the smallest normal float, the floor of the grid entropy's log2 argument
_TINY = float_info.min

KEY_RATE_ESTIMATORS = (
    EstimatorKind.SIGMA2_MLE,
    EstimatorKind.SIGMA2_MM_FULL,
    EstimatorKind.SIGMA2_OPT,
)


def _erfinv(x: float) -> float:
    # erf's inverse on [0.5, 1] and on 1 - e for e in (0.5, 1), from the
    # standard library's inverse normal CDF, Wichura's AS241 (Applied
    # Statistics 37, 477-484, 1988): erfinv(x) = -Phi^-1((1 - x)/2)/sqrt(2).
    # 1 - x is exact on both: by Sterbenz's lemma for x >= 0.5, and below as
    # the e that x = 1 - e came from, so no bit is lost before AS241. An x
    # that rounded to 1 gives inf. statistics loads on the first call, so
    # the verbs that compute no key rate never load it; the rate verbs run
    # on numpy and the standard library, and scipy is needed only by the
    # tests and perfbench
    from statistics import NormalDist

    if x == 1.0:
        return inf
    return -NormalDist().inv_cdf((1.0 - x) / 2.0) / sqrt(2.0)


def confidence_quantile(epsilon_pe: float, convention: str = "paper") -> float:
    """Half-width multiplier z for the parameter-estimation confidence region.

    convention="paper" uses z = erfinv(1 - epsilon_pe/2); "gaussian" uses
    the two-sided normal quantile z = sqrt(2)*erfinv(1 - epsilon_pe). At
    epsilon_pe = 1e-10 these give about 4.65 and 6.47 respectively. An
    epsilon_pe so small that the erfinv argument rounds to 1 (2**-53, about
    1.1e-16, and below for "paper"; 2**-54 and below for "gaussian") gives
    an infinite z, which raises ValueError.

    z is the quantile of the rounded argument fl(1 - epsilon_pe/2) or
    fl(1 - epsilon_pe), not of the exact one. At the default 1e-10 the
    paper tail 1 - fl(1 - 5e-11) is 5.000000413701855e-11, so the paper z,
    4.6463532876522295, sits 1.87e-9 (relative) below the exact
    4.6463532963627041, and the gaussian z, 6.466951074732417, 1.93e-9
    below 6.4669510872405162.
    """
    if not 0.0 < epsilon_pe < 1.0:
        raise ValueError(f"epsilon_pe must be in (0, 1), got {epsilon_pe}")
    if convention == "paper":
        z = float(_erfinv(1.0 - epsilon_pe / 2.0))
    elif convention == "gaussian":
        z = float(sqrt(2.0) * _erfinv(1.0 - epsilon_pe))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if not isfinite(z):
        raise ValueError(f"epsilon_pe = {epsilon_pe} is too small: the "
                         f"{convention!r} confidence quantile is {z}")
    return z


# The rate takes z and holds the corner itself, as _hold does; this
# function and holevo_bound stay public, and importable as
# cvqkd.security.*, which perfbench's tracer wraps.
def worst_case_params(t_hat: float, std_t: float, sigma2_hat: float,
                      std_sigma2: float, epsilon_pe: float,
                      convention: str = "paper") -> tuple[float, float, bool]:
    """(t_min, sigma2_max, clamped): the least favorable (t, sigma2) at
    confidence 1 - epsilon_pe.

    t_min = t_hat - z*std_t and sigma2_max = sigma2_hat + z*std_sigma2,
    held inside the physical region as the rate holds them.
    """
    if std_t < 0 or std_sigma2 < 0:
        raise ValueError("standard deviations must be >= 0")
    z = confidence_quantile(epsilon_pe, convention)
    return _hold(t_hat - z * std_t, sigma2_hat + z * std_sigma2)


def holevo_bound(V_A: float, T: float, xi: float) -> float:
    """Eve's information on Bob's homodyne outcome, S(AB) - S(A|y), at
    known channel parameters."""
    _check_inputs(V_A, T, xi)
    return _holevo(*_channel_abc(V_A, T, xi))


# ---------------------------------------------------------------------------
# The rate formula on Python floats: math.sqrt and math.log2, and a check
# that raises ValueError("<what> (<value>)") at once. The builtin max(a, c)
# is written "c if c > a else a", the one comparison max makes, so NaN and
# -0.0 come out as max gives them, without the call.

def _hold(t_min, sigma2_max):
    # the confidence-region corner held inside the physical region: the
    # channel cannot anti-correlate the quadratures (t_min >= 0) nor add
    # less than vacuum noise (sigma2_max >= 1); clamped says whether
    # either hold fired
    return (0.0 if 0.0 > t_min else t_min,
            1.0 if 1.0 > sigma2_max else sigma2_max,
            t_min < 0.0 or sigma2_max < 1.0)


def _check_channel(T, xi):
    # an infinite T or xi fails here, before the array path meets inf*0
    if T < 0 or xi < 0:
        raise ValueError(f"T and xi must be >= 0, got T={T}, xi={xi}")
    if T == inf or xi == inf:
        raise ValueError(f"T and xi must be finite, got T={T}, xi={xi}")


def _check_beta(beta):
    # the rates' check of the reconciliation efficiency: an infinite beta
    # fails here, before beta * I_AB meets inf*0 at I_AB = 0 on arrays
    if beta == inf or beta == -inf:
        raise ValueError(f"beta must be finite, got {beta}")


def _check_inputs(V_A, T, xi):
    # the public rate functions' one check of the channel and modulation;
    # a NaN passes every comparison and gives a NaN rate
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    _check_channel(T, xi)
    for name, val in (("V_A", V_A), ("xi", xi)):
        if val > _MAX_VARIANCE:
            raise ValueError(f"{name} must be <= {_MAX_VARIANCE!r}, past "
                             f"which the model's arithmetic breaks down, "
                             f"got {val}")


def _channel_abc(V_A, T, xi):
    # (a, b, c) of the covariance matrix at the channel's own (T, xi)
    return V_A + 1.0, T * V_A + 1.0 + T * xi, sqrt(T * (V_A**2 + 2.0 * V_A))


def _split(a, b, c):
    # disc below is (a - b)**2 * _split(a, b, c); floats or arrays
    return (a + b) ** 2 - 4.0 * c * c


def _holevo(a, b, c):
    # S(AB) - S(A|y) of the two-mode matrix (a, b, c): g of its symplectic
    # spectrum nu1 >= nu2, nu**2 = (delta +- sqrt(delta**2 - 4*d**2))/2,
    # less g of the conditional eigenvalue nu3, each checked and held at
    # >= 1; written out in one frame, as every evaluation of the polish
    # comes here
    # c*c is formed once, for d and the conditional variance; delta keeps
    # its own 2.0*c*c, that is (2.0*c)*c, whose rounding among subnormals
    # is not 2.0*(c*c)'s
    cc = c * c
    delta = a * a + b * b - 2.0 * c * c
    d = a * b - cc
    disc = delta * delta - 4.0 * d * d
    # Near a pure state (T -> 1, xi -> 0) disc is about 0, and the square
    # root of its round-off moves nu2 by more than _NU_TOL. A check fails
    # only if a form without that cancellation agrees: disc factored, and
    # nu2 = d/nu1 with nu1 from the factored root.
    if disc < _NEG_NU_TOL and (a - b) ** 2 * _split(a, b, c) < _NEG_NU_TOL:
        raise ValueError(f"complex symplectic spectrum ({disc})")
    root = sqrt(0.0 if 0.0 > disc else disc)
    # checked before nu1 = sqrt((delta + root)/2), as nu2**2 <= nu1**2: a
    # negative delta with disc rounded to 0 fails here, not in that root
    nu2_sq = (delta - root) * 0.5
    if nu2_sq < 0.0:
        raise ValueError(f"negative squared eigenvalue ({nu2_sq})")
    nu1 = sqrt((delta + root) * 0.5)
    nu2 = sqrt(nu2_sq)
    if nu2 < _NU_FLOOR:
        split = _split(a, b, c)
        factored = abs(a - b) * sqrt(0.0 if 0.0 > split else split)
        if d < _NU_FLOOR * sqrt((delta + factored) * 0.5):
            raise ValueError(f"unphysical covariance matrix ({nu2})")
    # mode A after Bob's homodyne of one quadrature of mode B has
    # covariance diag(a - c**2/b, a), so nu3 = sqrt(a*(a - c**2/b))
    reduced = a - cc / b
    if reduced < _NEG_NU_TOL:
        raise ValueError(f"negative conditional variance ({reduced})")
    nu3 = sqrt(a * (0.0 if 0.0 > reduced else reduced))
    if nu3 < _NU_FLOOR:
        raise ValueError(f"unphysical conditional state ({nu3})")
    # the bosonic entropy g(x) = (x+1)*log2(x+1) - x*log2(x) at x = (nu -
    # 1)/2 >= 0 of each held eigenvalue; only an exact zero is special,
    # g(0) = 0, so a NaN eigenvalue gives a NaN entropy
    x = ((1.0 if 1.0 > nu1 else nu1) - 1.0) * 0.5
    x1 = x + 1.0
    s = 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)
    x = ((1.0 if 1.0 > nu2 else nu2) - 1.0) * 0.5
    x1 = x + 1.0
    s += 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)
    x = ((1.0 if 1.0 > nu3 else nu3) - 1.0) * 0.5
    x1 = x + 1.0
    s -= 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)
    # tiny negative values are round-off from the eigenvalue clamps
    if s > -1e-9:
        return 0.0 if 0.0 > s else s
    return s


def _rate_at(T, xi, beta, N, z, kind):
    """rate(V_A, m) -> (key rate, raw rate, I_AB, S_worst, clamped): the
    finite-size rate of one channel and block size.

    The raw rate is (n/N) * (beta*I_AB - S_worst), S_worst the Holevo
    bound at the confidence-region corner t_min = t - z*std_t, sigma2_max
    = sigma2 + z*std_sigma2, held at t_min >= 0 and sigma2_max >= 1 as
    _hold holds it; clamped says whether either hold fired; the key rate
    is the raw rate held at 0 (a NaN or -0.0 passes). T, xi, a finite
    beta and N >= 3 are checked, and sigma2, sqrt(T) and the kind's
    variance form fixed, here, once. Needs z from confidence_quantile and a kind of
    KEY_RATE_ESTIMATORS; rate needs V_A > 0 and 2 <= m <= N-1.

    rate is the one float form of the finite-size rate, written out in one
    frame with _holevo as its only Python call: Var(t_hat) is var_t_mle's,
    the sigma2 variance the kind's entry of estimators._VARIANCE, the hold
    _hold's and I_AB = 0.5*log2(1 + T*V_A/sigma2), each with the same
    operations in the same order, so every value and error is theirs, bit
    for bit; tests/test_security.py checks the rate against a reference
    composed of those functions.
    """
    _check_channel(T, xi)
    _check_beta(beta)
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    sigma2 = _sigma2(T, xi)
    sqrt_t = sqrt(T)
    # the kind's sigma2 variance form, picked here once: the full-set
    # moment variance, or the MLE's chi-square variance, alone or combined
    # with the key-subset moment variance
    full = kind is EstimatorKind.SIGMA2_MM_FULL
    opt = kind is EstimatorKind.SIGMA2_OPT
    # 2*sigma2**2, the first factor of each sigma2 variance, and the whole
    # first term of sigma2_mm_full's, 2*sigma2**2/N
    two_s2 = 2.0 * sigma2**2
    two_s2_n = two_s2 / N

    def rate(V_A, m):
        n = N - m
        t_min = sqrt_t - z * sqrt(sigma2 / (m * V_A))
        if full:
            var = two_s2_n + (1.0 / m - 1.0 / N) * 4.0 * T * sigma2 * V_A
        else:
            # the MLE's chi-square variance, which sigma2_opt combines by
            # inverse variance with the key-subset moment estimator's
            var = two_s2 * (m - 1) / m**2
            if opt:
                key = two_s2 / n + (1.0 / m + 1.0 / n) * 4.0 * T * sigma2 * V_A
                var = var * key / (var + key)
        sigma2_max = sigma2 + z * sqrt(var)
        clamped = t_min < 0.0 or sigma2_max < 1.0
        if 0.0 > t_min:
            t_min = 0.0
        if 1.0 > sigma2_max:
            sigma2_max = 1.0
        # the covariance matrix at the worst-case (t, sigma2)
        s_wc = _holevo(V_A + 1.0, t_min**2 * V_A + sigma2_max,
                       t_min * sqrt(V_A**2 + 2.0 * V_A))
        i_ab = 0.5 * log2(1.0 + T * V_A / sigma2)
        raw = (n / N) * (beta * i_ab - s_wc)
        return 0.0 if 0.0 > raw else raw, raw, i_ab, s_wc, clamped
    return rate


def _asymptotic_at(T, xi, beta):
    """rate(V_A) -> (key rate, raw rate, I_AB, S): the asymptotic rate
    beta*I_AB - S of one channel, held at 0 as in _rate_at. T, xi and a
    finite beta are checked and sigma2 is fixed here, once; rate needs V_A > 0. It writes
    I_AB and the channel's (a, b, c) of _channel_abc out, as _rate_at
    does, and calls _holevo alone."""
    _check_channel(T, xi)
    _check_beta(beta)
    sigma2 = _sigma2(T, xi)
    t_xi = T * xi

    def rate(V_A):
        i_ab = 0.5 * log2(1.0 + T * V_A / sigma2)
        s = _holevo(V_A + 1.0, T * V_A + 1.0 + t_xi,
                    sqrt(T * (V_A**2 + 2.0 * V_A)))
        raw = beta * i_ab - s
        return 0.0 if 0.0 > raw else raw, raw, i_ab, s
    return rate


# ---------------------------------------------------------------------------
# The same formula on numpy arrays, for the optimizer's grid: the raw rate
# of _rate_at cell by cell, with the same operations in the same order, and a
# check that raises ValueError("<what> on the rate grid") if any cell
# fails it. numpy's log2 and powers may differ from math's in the last
# bit; tests/test_security.py bounds the gap cell by cell. One call ranks
# several estimator kinds: the terms that do not depend on the kind are
# computed once, and the kinds' b are stacked on a leading axis, which
# _holevo_grid runs over in one pass.

def _holevo_grid(a, b, c):
    # a, b and c broadcast against each other, b with the full shape (it
    # may stack the kinds on a leading axis that a and c lack). The
    # intermediates of b's shape live in three (3, ...) buffers of one
    # allocation, written in place with each product in the order of the
    # float path's, so every cell gets the bits it gets alone: delta, d
    # and disc (later the conditional variance, then x + 1 and x*log2(x))
    # in ``work``, the eigenvalues (later the entropies' x) in ``nu`` and
    # the entropies in ``g``.
    # Each check's first condition reads the least cell, NaN cells skipped
    # as a compare skips them and inf on an empty grid: one C reduction in
    # place of "(x < bound).any()". Its second, costlier condition is
    # computed only when the first one fires.
    work, nu, g = np.empty((3, 3, *b.shape))
    delta, d, disc = work
    nu1, nu2, nu3 = nu
    cc = c * c
    np.multiply(b, b, out=delta)
    delta += a * a
    delta -= 2.0 * cc
    np.multiply(a, b, out=d)
    d -= cc
    np.multiply(4.0, d, out=disc)
    disc *= d
    np.subtract(np.multiply(delta, delta, out=nu3), disc, out=disc)
    if np.fmin.reduce(disc, axis=None, initial=np.inf) < _NEG_NU_TOL and (
            (disc < _NEG_NU_TOL)
            & ((a - b) ** 2 * _split(a, b, c) < _NEG_NU_TOL)).any():
        raise ValueError("complex symplectic spectrum on the rate grid")
    root = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    # checked before nu1's root, as in _holevo
    nu2_sq = np.subtract(delta, root, out=nu2)
    nu2_sq *= 0.5
    if np.fmin.reduce(nu2_sq, axis=None, initial=np.inf) < 0.0:
        raise ValueError("negative squared eigenvalue on the rate grid")
    np.add(delta, root, out=nu1)
    nu1 *= 0.5
    np.sqrt(nu1, out=nu1)
    np.sqrt(nu2_sq, out=nu2)
    if np.fmin.reduce(nu2, axis=None, initial=np.inf) < _NU_FLOOR:
        factored = abs(a - b) * np.sqrt(np.maximum(_split(a, b, c), 0.0))
        if ((nu2 < _NU_FLOOR)
                & (d < _NU_FLOOR * np.sqrt((delta + factored) * 0.5))).any():
            raise ValueError("unphysical covariance matrix on the rate grid")
    reduced = np.subtract(a, np.divide(cc, b, out=disc), out=disc)
    if np.fmin.reduce(reduced, axis=None, initial=np.inf) < _NEG_NU_TOL:
        raise ValueError("negative conditional variance on the rate grid")
    np.multiply(a, np.maximum(reduced, 0.0, out=reduced), out=nu3)
    np.sqrt(nu3, out=nu3)
    if np.fmin.reduce(nu3, axis=None, initial=np.inf) < _NU_FLOOR:
        raise ValueError("unphysical conditional state on the rate grid")
    # g(x) = (x+1)*log2(x+1) - x*log2(x) at x = (nu - 1)/2 of each held
    # eigenvalue, the three at once; g(0) = 1*log2(1) - 0*log2(tiny) = 0
    # exactly, and NaN stays NaN
    x = np.maximum(nu, 1.0, out=nu)
    x -= 1.0
    x *= 0.5
    x1 = np.add(x, 1.0, out=work)
    np.log2(x1, out=g)
    g *= x1
    # x*log2(x), floored at the smallest normal float, into x1's buffer
    x_log_x = np.log2(np.maximum(x, _TINY, out=work), out=work)
    x_log_x *= x
    g -= x_log_x
    s = g[0] + g[1] - g[2]
    np.maximum(s, 0.0, out=s, where=s > -1e-9)
    return s


def _rate_grid(V_A, T, xi, beta, N, m, z, kinds):
    """The raw rate of _rate_at at every cell of the broadcast arrays, for
    each kind of ``kinds``: an array of shape (len(kinds), *cells).

    sigma2, t_min, c, a and I_AB do not depend on the kind and are
    computed once; each kind's sigma2_max comes from its entry of the
    estimators' variance table, and its b goes into one stack."""
    n = N - m
    sigma2 = _sigma2(T, xi)
    t_min = np.maximum(np.sqrt(T) - z * np.sqrt(var_t_mle(V_A, T, sigma2, m)),
                       0.0)
    # b = t_min**2*V_A + sigma2_max: the first term is every kind's, the
    # second each kind's own
    t2_va = t_min**2 * V_A
    b = np.empty((len(kinds), *t2_va.shape))
    for b_kind, kind in zip(b, kinds):
        np.add(t2_va, np.maximum(
            sigma2 + z * np.sqrt(_VARIANCE[kind](V_A, T, sigma2, m, n, N, 0.0)),
            1.0), out=b_kind)
    s_wc = _holevo_grid(V_A + 1.0, b, t_min * np.sqrt(V_A**2 + 2.0 * V_A))
    i_ab = 0.5 * np.log2(1.0 + T * V_A / sigma2)
    return (n / N) * (beta * i_ab - s_wc)


def _asymptotic_grid(V_A, T, xi, beta):
    """The raw rate of _asymptotic_at at every cell of the broadcast arrays
    V_A and T, with I_AB and (a, b, c) formed as there."""
    sigma2 = _sigma2(T, xi)
    i_ab = 0.5 * np.log2(1.0 + T * V_A / sigma2)
    s = _holevo_grid(V_A + 1.0, T * V_A + 1.0 + T * xi,
                     np.sqrt(T * (V_A**2 + 2.0 * V_A)))
    return beta * i_ab - s


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
    _check_inputs(V_A, T, xi)
    key, raw, i_ab, s = _asymptotic_at(T, xi, beta)(V_A)
    return KeyRateResult(
        key_rate=key,
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
    _check_inputs(V_A, T, xi)
    if not 0 <= m <= N:
        raise ValueError(f"m must be in [0, N], got m={m}, N={N}")
    if m == N:
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=0.0, reason="no key states (m == N)")
    if m < 2:
        # one revealed state leaves no noise estimate: t_hat fits it exactly
        return KeyRateResult(key_rate=0.0, key_rate_raw=0.0,
                             mutual_information=0.0, holevo=0.0,
                             n_fraction=(N - m) / N,
                             reason=f"no parameter estimation (m == {m})")

    z = confidence_quantile(epsilon_pe, convention)
    key, raw, i_ab, s_wc, clamped = _rate_at(T, xi, beta, N, z,
                                             estimator_kind)(V_A, m)
    return KeyRateResult(
        key_rate=key,
        key_rate_raw=raw,
        mutual_information=i_ab,
        holevo=s_wc,
        n_fraction=(N - m) / N,
        clamped=clamped,
    )

