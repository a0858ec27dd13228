"""Protocol-parameter optimization for the finite-size key rate.

The rate is cheap to evaluate (closed form), so a coarse deterministic
grid over (V_A, m/N) followed by a Nelder-Mead polish is enough. V_A is
searched on a log scale; the revealed fraction linearly.
``optimize_key_rates`` optimizes a column of transmissions: one call of
the rate's array path, ``security._rate_grid``, ranks the grids of a
block of at most _T_BLOCK transmissions (a constant, not a parameter),
and ``optimize_key_rate`` is its one-transmission case. The re-scored
grid cells, the seeds and the polish of each transmission call the float
path, ``security._rate``, which is about 30 times cheaper than the array
path on one point, and every reported rate is the value
``key_rate_finite`` gives at that point, bit for bit. The reported
optimum is never below the best grid point.

The polish is a bounded Nelder-Mead written here, on Python floats. It
takes the steps that ``scipy.optimize.minimize(method="Nelder-Mead",
bounds=...)`` takes (scipy 1.17), so the iterates, and every output
byte, are the ones that scipy routine gives; tests/test_optimizer.py
checks this against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, log10
from operator import itemgetter

import numpy as np

from .channel import fiber_transmission
from .estimators import EstimatorKind
from .security import (
    _key_rate_kind,
    _rate,
    _rate_grid,
    confidence_quantile,
    key_rate_asymptotic,
    # unused here, kept importable as cvqkd.optimizer.key_rate_finite,
    # which perfbench's tracer wraps
    key_rate_finite,  # noqa: F401
)

__all__ = [
    "OptimizationResult",
    "MaximumDistanceResult",
    "RangeLimitRatio",
    "optimize_key_rate",
    "optimize_key_rates",
    "optimize_asymptotic_rate",
    "maximum_distance",
    "range_limit_ratio",
]


@dataclass
class OptimizationResult:
    best_V_A: float
    best_m_fraction: float
    best_key_rate: float
    evaluations: int
    trace: list = field(default_factory=list)


@dataclass(frozen=True)
class MaximumDistanceResult:
    distance_km: float
    positive_at_zero: bool
    evaluations: int


@dataclass(frozen=True)
class RangeLimitRatio:
    """Optimized-rate comparison of two estimators near the range limit.

    rows holds (distance_km, k_denominator, k_numerator, ratio,
    m_fraction_denominator, m_fraction_numerator) from the farthest
    sampled offset in to ``boundary_km``, the last distance at which the
    denominator estimator still yields a positive rate.
    """

    rows: tuple
    boundary_km: float
    max_ratio: float
    evaluations: int


# The search grid: 24 x 24 cells of log10 V_A over [0.1, 100] and of the
# revealed fraction m/N over [1e-3, 1 - 1e-3]; the asymptotic rate, a
# search over V_A alone, takes 48 points. Each Nelder-Mead polish runs at
# most _MAXITER iterations.
_LOG_VAS = [float(v) for v in np.linspace(log10(0.1), log10(100.0), 24)]
_FRACS = [float(v) for v in np.linspace(1e-3, 1.0 - 1e-3, 24)]
_ASYMPTOTIC_LOG_VAS = [float(v) for v in
                       np.linspace(log10(0.1), log10(100.0), 48)]
_MAXITER = 400
_BOUNDS = [(_LOG_VAS[0], _LOG_VAS[-1]), (_FRACS[0], _FRACS[-1])]
# the grid's V_A column, as _rate_grid takes it
_GRID_VAS = np.array([10.0 ** lv for lv in _LOG_VAS])[:, None]
# Transmissions whose grids one _rate_grid call ranks, as (block, 24, 24)
# arrays. A call's fixed cost is most of its time at one transmission;
# at 8 it is spread thin. Ranking the 41 default distances (2-vCPU Xeon,
# numpy 2.4.6) takes 172 us a transmission one at a time, 57 us in blocks
# of 8 and 56 us in one call, but that one call's temporaries peak at
# 2.5 MB (tracemalloc, the whole column optimized) against 0.54 MB.
_T_BLOCK = 8

# bound on the gap between the raw rates of the array path (_rate_grid)
# and of the float path (key_rate_finite.key_rate_raw) over the
# optimizer's grids; tests/test_security.py checks it cell by cell
_GRID_TOL = 1e-12


def _round_m(frac: float, N: int) -> int:
    # ties round up: revealing one more state is the conservative choice;
    # min(max(m, 1), N - 1), written out to save two builtin calls
    m = floor(frac * N + 0.5)
    m = 1 if 1 > m else m
    return N - 1 if N - 1 < m else m


def _nelder_mead(f, x0, bounds, maxiter: int, xatol: float,
                 fatol: float) -> tuple[list, float, int]:
    """Minimize f over the box ``bounds``; returns (x, f(x), evaluations).

    scipy.optimize.minimize(f, x0, method="Nelder-Mead", bounds=bounds,
    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol}) step for
    step: the same start simplex (x0 and x0 with one coordinate times
    1.05, or set to 0.00025 where it is 0), vertices above the upper
    bound reflected inside and every vertex clipped to the box, the same
    coefficients in the same operation order, the same strict and
    non-strict comparisons, a stable sort, iterations counted from 1, no
    evaluation limit and f(x) = min over the final simplex. f takes a list
    of floats and returns a number, never NaN.
    """
    n = len(x0)

    def clip(x):
        # numpy.clip on each float: a bound wins a tie, so -0.0 clipped at
        # a lower bound of 0.0 becomes 0.0
        return [w if (w := v if v > lo else lo) < hi else hi
                for v, (lo, hi) in zip(x, bounds)]

    x0 = clip(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(x, bounds)])
           for x in sim]
    # (f(x), x) pairs, best first; the sort is stable, as numpy's argsort
    # is on so few values, so ties keep their order
    simplex = [(f(x), x) for x in sim]
    nfev = n + 1
    simplex.sort(key=itemgetter(0))
    iterations = 1
    while iterations < maxiter:
        f0, best = simplex[0]
        # converged when every vertex is within xatol of the best in each
        # coordinate and within fatol of it in f; the first one that is
        # not settles it
        for fv, x in simplex[1:]:
            if not (abs(f0 - fv) <= fatol
                    and all(abs(v - b) <= xatol for v, b in zip(x, best))):
                break
        else:
            break
        xbar = best
        for _, x in simplex[1:-1]:
            xbar = [c + v for c, v in zip(xbar, x)]
        xbar = [c / n for c in xbar]
        f_worst, worst = simplex[-1]
        # reflection, expansion, outside and inside contraction: scipy's
        # (1 + rho)*xbar - rho*worst and its kin at rho = 1, chi = 2,
        # psi = 0.5
        xr = clip([2 * c - w for c, w in zip(xbar, worst)])
        fxr = f(xr)
        nfev += 1
        if fxr < f0:
            xe = clip([3 * c - 2 * w for c, w in zip(xbar, worst)])
            fxe = f(xe)
            nfev += 1
            simplex[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < simplex[-2][0]:
            simplex[-1] = (fxr, xr)
        else:
            if fxr < f_worst:
                xc = clip([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)])
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = clip([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)])
                fxc = f(xc)
                accept = fxc < f_worst
            nfev += 1
            if accept:
                simplex[-1] = (fxc, xc)
            else:
                # shrink every vertex halfway towards the best one
                for j in range(1, n + 1):
                    x = clip([b + 0.5 * (v - b)
                              for v, b in zip(simplex[j][1], best)])
                    simplex[j] = (f(x), x)
                nfev += n
        iterations += 1
        simplex.sort(key=itemgetter(0))
    return simplex[0][1], simplex[0][0], nfev


def _last_positive(positive, d_cap_km: float,
                   resolution_km: float) -> float | None:
    """Largest distance d with positive(d): doubling, then bisection.

    Probes 0, then 1, 2, 4, ... km, each clipped to the cap, until
    positive fails, then halves the bracket down to ``resolution_km``.
    Returns None when positive(0) fails and the cap when it never fails.
    """
    if not positive(0.0):
        return None
    lo, hi = 0.0, min(1.0, d_cap_km)
    while positive(hi):
        lo = hi
        if hi >= d_cap_km:
            # still secure at the cap; report the cap rather than extrapolate
            return d_cap_km
        hi = min(2.0 * hi, d_cap_km)
    while hi - lo > resolution_km:
        mid = (lo + hi) / 2.0
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _search_rate(T: float, xi: float, beta: float, N: int, z: float,
                 kind: EstimatorKind):
    """rate(log10 V_A, m/N) for the search, straight from the float rate.

    z is confidence_quantile(epsilon_pe, convention) and kind one of
    KEY_RATE_ESTIMATORS; each value is key_rate_finite(10**log_va, T, xi,
    beta, N, _round_m(frac, N), epsilon_pe, kind, convention).key_rate,
    bit for bit.
    """
    def rate(log_va: float, frac: float) -> float:
        raw = _rate(10.0 ** log_va, T, xi, beta, N, _round_m(frac, N), z,
                    kind)[0]
        # max(raw, 0.0), signed zeros and NaN included
        return 0.0 if 0.0 > raw else raw
    return rate


def optimize_key_rate(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                      *, T: float, convention: str = "paper",
                      seeds=None) -> OptimizationResult:
    """Maximize the finite-size key rate over (V_A, m/N) at transmission T.

    The search is fully deterministic: fixed grid, fixed simplex start, no
    randomness.

    ``seeds`` is an optional list of (V_A, m_fraction) starting points,
    refined in addition to the best grid cell. Near the range limit the
    positive region shrinks below the grid pitch, so continuation from a
    neighbouring distance's optimum keeps the search from reporting a
    false zero there.
    """
    return optimize_key_rates(xi, beta, N, epsilon_pe, estimator_kind,
                              Ts=[T], convention=convention, seeds=seeds)[0]


def optimize_key_rates(xi: float, beta: float, N: int,
                       epsilon_pe: float = 1e-10,
                       estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                       *, Ts, convention: str = "paper",
                       seeds=None) -> list[OptimizationResult]:
    """``optimize_key_rate`` at each transmission of ``Ts``, in order.

    The grids of up to _T_BLOCK transmissions are ranked by one call of
    the rate's array path; each transmission's cells are then
    re-scored and polished on their own, so every result is the one a
    call of ``optimize_key_rate`` at that T gives. ``seeds`` apply to
    every transmission.
    """
    z = confidence_quantile(epsilon_pe, convention)
    kind = _key_rate_kind(estimator_kind)
    # the grid inputs are the scalar path's own, bit for bit (m as float,
    # so m**2 cannot overflow); V_A outer and fraction inner
    ms = np.array([_round_m(fr, N) for fr in _FRACS], dtype=float)
    results = []
    for i in range(0, len(Ts), _T_BLOCK):
        block = Ts[i:i + _T_BLOCK]
        raw = _rate_grid(
            _GRID_VAS, np.array(block, dtype=float)[:, None, None], xi, beta,
            N, ms, z, kind)
        results += [_optimize_ranked(rank.ravel(),
                                     _search_rate(T, xi, beta, N, z, kind),
                                     seeds)
                    for T, rank in zip(block, raw)]
    return results


def _optimize_ranked(raw, rate, seeds) -> OptimizationResult:
    """One transmission's optimum from its grid's array rates ``raw`` and
    its scalar search rate."""
    # The array rate is the scalar one up to _GRID_TOL of round-off, so the
    # scalar scan's first strict maximum is among these cells, or is cell 0
    # when no rate is positive. Scanning them with the scalar rate returns
    # the cell, and the value, that scanning the whole grid would.
    top = raw.max()
    cells = np.flatnonzero(raw >= top - 2.0 * _GRID_TOL)
    if top <= _GRID_TOL and cells[0] != 0:
        cells = np.concatenate(([0], cells))
    best = (-1.0, _LOG_VAS[0], _FRACS[0])
    for i in cells:
        lv, fr = _LOG_VAS[i // len(_FRACS)], _FRACS[i % len(_FRACS)]
        k = rate(lv, fr)
        if k > best[0]:
            best = (k, lv, fr)
    evaluations = raw.size
    trace = [("grid", 10.0 ** best[1], best[2], best[0], evaluations)]

    starts = []
    if best[0] > 0.0:
        starts.append((best[1], best[2]))
    for va, fr in seeds or ():
        lv = min(max(log10(va), _LOG_VAS[0]), _LOG_VAS[-1])
        fr = min(max(fr, _FRACS[0]), _FRACS[-1])
        k = rate(lv, fr)
        evaluations += 1
        if k > best[0]:
            best = (k, lv, fr)
        if k > 0.0:
            starts.append((lv, fr))
        trace.append(("seed", 10.0 ** lv, fr, k, 1))

    for lv0, fr0 in starts:
        x, fun, nfev = _nelder_mead(
            lambda v: -rate(v[0], v[1]), [lv0, fr0], _BOUNDS, _MAXITER,
            xatol=1e-4, fatol=1e-12)
        evaluations += nfev
        if -fun > best[0]:
            best = (-fun, x[0], x[1])
        trace.append(("refine", 10.0 ** best[1], best[2], best[0], nfev))

    return OptimizationResult(
        best_V_A=10.0 ** best[1],
        best_m_fraction=best[2],
        best_key_rate=best[0],
        evaluations=evaluations,
        trace=trace,
    )


def optimize_asymptotic_rate(xi: float, beta: float,
                             T: float) -> OptimizationResult:
    """Maximize the asymptotic rate at transmission T over V_A only."""
    def rate(log_va: float) -> float:
        return key_rate_asymptotic(10.0 ** log_va, T, xi, beta).key_rate

    ks = [rate(lv) for lv in _ASYMPTOTIC_LOG_VAS]
    i = int(np.argmax(ks))
    best = (ks[i], _ASYMPTOTIC_LOG_VAS[i])
    evaluations = len(ks)
    if best[0] > 0.0:
        x, fun, nfev = _nelder_mead(
            lambda v: -rate(v[0]), [best[1]], _BOUNDS[:1], _MAXITER,
            xatol=1e-5, fatol=1e-13)
        evaluations += nfev
        if -fun > best[0]:
            best = (-fun, x[0])
    return OptimizationResult(
        best_V_A=10.0 ** best[1],
        best_m_fraction=0.0,
        best_key_rate=best[0],
        evaluations=evaluations,
        trace=[("asymptotic", 10.0 ** best[1], 0.0, best[0], evaluations)],
    )


def maximum_distance(xi: float, beta: float, N: int,
                     epsilon_pe: float = 1e-10,
                     estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                     loss_db_per_km: float = 0.2,
                     convention: str = "paper",
                     d_cap_km: float = 1000.0) -> MaximumDistanceResult:
    """Largest distance with a positive optimized key rate, by bisection to
    0.1 km."""
    evaluations = 0

    def positive(d: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        r = optimize_key_rate(xi, beta, N, epsilon_pe, estimator_kind,
                              T=fiber_transmission(d, loss_db_per_km),
                              convention=convention)
        return r.best_key_rate > 0.0

    d = _last_positive(positive, d_cap_km, 0.1)
    return MaximumDistanceResult(0.0 if d is None else d,
                                 positive_at_zero=d is not None,
                                 evaluations=evaluations)


def range_limit_ratio(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      numerator: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                      denominator: EstimatorKind = EstimatorKind.SIGMA2_MLE,
                      loss_db_per_km: float = 0.2,
                      convention: str = "paper",
                      d_cap_km: float = 1000.0) -> RangeLimitRatio:
    """Ratio of two estimators' optimized rates approaching the range limit.

    The two rate curves vanish within metres of each other, so the
    interesting behaviour lives in the last few metres before the
    denominator's boundary: there its rate goes to zero while the
    numerator's stays finite and the ratio grows without bound. The
    boundary is located by warm-started bisection to 0.5 m (continuation
    seeds keep the optimizer from losing the shrinking positive region),
    then both rates are sampled 50, 20, 10, 5, 2, 1 and 0 m inside it.
    """
    evaluations = 0
    seed_of: dict[EstimatorKind, tuple] = {}

    def opt(kind: EstimatorKind, d: float, extra=()) -> OptimizationResult:
        nonlocal evaluations
        seeds = [s for s in (seed_of.get(kind), *extra) if s is not None]
        r = optimize_key_rate(xi, beta, N, epsilon_pe, kind,
                              T=fiber_transmission(d, loss_db_per_km),
                              convention=convention, seeds=seeds)
        evaluations += r.evaluations
        if r.best_key_rate > 0.0:
            seed_of[kind] = (r.best_V_A, r.best_m_fraction)
        return r

    boundary = _last_positive(
        lambda d: opt(denominator, d).best_key_rate > 0.0, d_cap_km, 5e-4)
    if boundary is None:
        return RangeLimitRatio(rows=(), boundary_km=0.0,
                               max_ratio=float("nan"),
                               evaluations=evaluations)

    rows = []
    max_ratio = 0.0
    for w in (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0):
        d = boundary - w
        if d < 0.0:
            continue
        r_den = opt(denominator, d)
        r_num = opt(numerator, d, extra=(seed_of.get(denominator),))
        k_den, k_num = r_den.best_key_rate, r_num.best_key_rate
        ratio = k_num / k_den if k_den > 0.0 else float("nan")
        if k_den > 0.0:
            max_ratio = max(max_ratio, ratio)
        rows.append((d, k_den, k_num, ratio,
                     r_den.best_m_fraction, r_num.best_m_fraction))
    return RangeLimitRatio(rows=tuple(rows), boundary_km=boundary,
                           max_ratio=max_ratio, evaluations=evaluations)
