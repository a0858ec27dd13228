"""The float rates composed from their named sources, the channel's
covariance matrix and the grid's raw rate one kind at a time, the
references the built rates and the stacked grid of cvqkd.security are
checked against bit for bit. A helper module: pytest does not collect
it."""

from math import log2, sqrt
from sys import float_info

import numpy as np

from cvqkd.channel import _sigma2
from cvqkd.estimators import _VARIANCE, var_t_mle
from cvqkd.optimizer import _round_m
from cvqkd.security import _hold, _holevo


def channel_abc(V_A, T, xi):
    """(a, b, c) of the Alice-Bob covariance matrix at the channel's own
    (T, xi), as security._asymptotic_at writes them out."""
    return V_A + 1.0, T * V_A + 1.0 + T * xi, sqrt(T * (V_A**2 + 2.0 * V_A))


def i_ab(V_A, T, sigma2):
    """Alice-Bob mutual information of the Gaussian channel."""
    return 0.5 * log2(1.0 + T * V_A / sigma2)


def finite_rate(V_A, T, xi, beta, N, m, z, kind):
    """(key rate, raw rate, I_AB, S_worst, clamped) of security._rate_at:
    Var(t_hat) from var_t_mle, the sigma2 variance from the kind's entry
    of _VARIANCE, the corner held by _hold, S_worst from _holevo and I_AB
    from i_ab."""
    n = N - m
    sigma2 = _sigma2(T, xi)
    t_min, sigma2_max, clamped = _hold(
        sqrt(T) - z * sqrt(var_t_mle(V_A, T, sigma2, m)),
        sigma2 + z * sqrt(_VARIANCE[kind](V_A, T, sigma2, m, n, N, 0.0)))
    s_wc = _holevo(V_A + 1.0, t_min**2 * V_A + sigma2_max,
                   t_min * sqrt(V_A**2 + 2.0 * V_A))
    i = i_ab(V_A, T, sigma2)
    raw = (n / N) * (beta * i - s_wc)
    return max(raw, 0.0), raw, i, s_wc, clamped


def search_rate(rate, N):
    """The polish's objective on (log10 V_A, m/N): the key rate of the
    built rate ``rate`` at 10**x and _round_m(y, N)."""
    return lambda x, y: rate(10.0 ** x, _round_m(y, N))[0]



def rate_grid(V_A, T, xi, beta, N, m, z, kind):
    """The raw rate of security._rate_grid for one kind, as one grid per
    kind computed it: every term from scratch, the Holevo term's
    eigenvalues one array each and g of each on its own. The grid's
    checks raise and change no value, so they are left out."""
    n = N - m
    sigma2 = _sigma2(T, xi)
    t_min = np.maximum(np.sqrt(T) - z * np.sqrt(var_t_mle(V_A, T, sigma2, m)),
                       0.0)
    sigma2_max = np.maximum(
        sigma2 + z * np.sqrt(_VARIANCE[kind](V_A, T, sigma2, m, n, N, 0.0)),
        1.0)
    a = V_A + 1.0
    b = t_min**2 * V_A + sigma2_max
    c = t_min * np.sqrt(V_A**2 + 2.0 * V_A)
    aa, bb, cc = a * a, b * b, c * c
    delta = aa + bb - 2.0 * cc
    d = a * b - cc
    disc = delta * delta - 4.0 * d * d
    root = np.sqrt(np.maximum(disc, 0.0))
    nu1 = np.sqrt((delta + root) / 2.0)
    nu2 = np.sqrt((delta - root) / 2.0)
    nu3 = np.sqrt(a * np.maximum(a - cc / b, 0.0))

    def g(nu):
        x = (np.maximum(nu, 1.0) - 1.0) / 2.0
        x1 = x + 1.0
        return x1 * np.log2(x1) - x * np.log2(np.maximum(x, float_info.min))

    s = g(nu1) + g(nu2) - g(nu3)
    s_wc = np.where(s > -1e-9, np.maximum(s, 0.0), s)
    i = 0.5 * np.log2(1.0 + T * V_A / sigma2)
    return (n / N) * (beta * i - s_wc)
