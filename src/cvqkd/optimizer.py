"""Protocol-parameter optimization for the finite-size key rate.

The rate is cheap to evaluate (closed form), so a coarse deterministic
grid over (V_A, m/N) followed by a Nelder-Mead polish is enough. V_A is
searched on a log scale; the revealed fraction linearly.
``optimize_key_rates`` optimizes a column of transmissions: one call of
the rate's array path, ``security._rate_grid``, ranks the grids of a
block of at most _T_BLOCK transmissions (a constant, not a parameter),
and ``optimize_key_rate`` is its one-transmission case. The re-scored
grid cells, the seeds and the polish of each transmission call the float
path, ``security._rate_at``, built once per transmission before its
block is ranked, so a bad channel or block size fails that build's check
before the array path runs; every reported rate is the value
``key_rate_finite`` gives at that point, bit for bit. The reported
optimum is never below the best grid point, and it is positive exactly
when that point is, so ``maximum_distance`` decides each probe's sign
from the grid alone, with no polish: from the best cell of its last
positive ranking when that cell's rate is positive, else from the
re-scored grid. ``range_limit_ratio`` polishes every probe, and ranks
the distances it knows before their polishes in blocks.
``optimize_asymptotic_rate`` builds the asymptotic float rate,
``security._asymptotic_at``, once per transmission in the same way.

The polishes are bounded Nelder-Mead searches written here on scalar
floats: ``_nelder_mead_2d`` over (log10 V_A, m/N) for the finite-size
rate and ``_nelder_mead_1d`` over log10 V_A for the asymptotic one. Each
takes the steps that ``scipy.optimize.minimize(method="Nelder-Mead",
bounds=...)`` takes (scipy 1.17), so the iterates, and every output
byte, are the ones that scipy routine gives; tests/test_optimizer.py
checks this against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, isnan, log10

import numpy as np

from .channel import fiber_transmission
from .estimators import EstimatorKind
from .security import (
    _asymptotic_at,
    _key_rate_kind,
    _rate_at,
    _rate_grid,
    confidence_quantile,
    # unused here, kept importable as cvqkd.optimizer.key_rate_asymptotic
    # and .key_rate_finite, which perfbench's tracer wraps
    key_rate_asymptotic,  # noqa: F401
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
# at 8 it is spread thin. Ranking the 41 default distances (N = 1e5 and
# 1e9, best of 9 in each of four runs, 2-vCPU Xeon, 2026-10-19) takes
# 118-145 us a transmission one at a time, 47-83 us in blocks of 8 and
# 70-110 us in one call, whose temporaries peak at 4.0 MB against 0.78.
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


# The polishes: bounded Nelder-Mead in two coordinates (log10 V_A, m/N)
# and in one (log10 V_A), each the run of scipy.optimize.minimize(f, x0,
# method="Nelder-Mead", bounds=..., options={"maxiter": maxiter, "xatol":
# xatol, "fatol": fatol}) (scipy 1.17) step for step: the same start
# simplex (x0 and x0 with one coordinate times 1.05, or set to 0.00025
# where it is 0), vertices above the upper bound reflected inside and every
# vertex clipped to the box, the same coefficients in the same operation
# order, the same strict and non-strict comparisons, a stable sort of the
# vertices, iterations counted from 1, no evaluation limit and f(x) = min
# over the final simplex, for f the rate negated: each routine negates
# the rate itself, so no wrapper runs per evaluation, and returns its
# maximum (-(-r) is r bit for bit, -0.0 included). The caller passes the
# rate at the start, which it has computed already; it counts as an
# evaluation, as in scipy. A vertex is an (f, x[, y]) tuple. Each clip is
# numpy.clip on one float, written out: a bound wins a tie, so -0.0
# clipped at a lower bound of 0.0 becomes 0.0. The trial points are
# scipy's (1 + rho)*xbar - rho*worst and its kin at rho = 1, chi = 2,
# psi = 0.5: reflection 2*c - w, expansion 3*c - 2*w, outside contraction
# 1.5*c - 0.5*w and inside contraction 0.5*c + 0.5*w.

def _nelder_mead_2d(f, x0: float, y0: float, f0: float, bounds,
                    maxiter: int, xatol: float, fatol: float):
    """Maximize f(x, y) over the box ``bounds`` from (x0, y0), clipped to
    it, where f is f0; returns (x, y, f(x, y), evaluations). f returns a
    number, never NaN."""
    (xlo, xhi), (ylo, yhi) = bounds
    x0 = w if (w := x0 if x0 > xlo else xlo) < xhi else xhi
    y0 = w if (w := y0 if y0 > ylo else ylo) < yhi else yhi
    x1 = (1 + 0.05) * x0 if x0 != 0 else 0.00025
    if x1 > xhi:
        x1 = 2 * xhi - x1
    x1 = w if (w := x1 if x1 > xlo else xlo) < xhi else xhi
    y2 = (1 + 0.05) * y0 if y0 != 0 else 0.00025
    if y2 > yhi:
        y2 = 2 * yhi - y2
    y2 = w if (w := y2 if y2 > ylo else ylo) < yhi else yhi
    # the best, second and worst vertex b, s, r, sorted by insertion: each
    # pass of the loop sorts the vertex ``new`` in after the ones it ties
    b, s = (-f0, x0, y0), (-f(x1, y0), x1, y0)
    if s[0] < b[0]:
        b, s = s, b
    new = (-f(x0, y2), x0, y2)
    nfev = 3
    iterations = 0
    while True:
        if new[0] < s[0]:
            r = s
            if new[0] < b[0]:
                b, s = new, b
            else:
                s = new
        else:
            r = new
        iterations += 1
        if iterations >= maxiter:
            break
        fb, bx, by = b
        fs, sx, sy = s
        fw, wx, wy = r
        # converged when both other vertices are within xatol of the best
        # in each coordinate and within fatol of it in f
        if (abs(fb - fs) <= fatol and abs(sx - bx) <= xatol
                and abs(sy - by) <= xatol and abs(fb - fw) <= fatol
                and abs(wx - bx) <= xatol and abs(wy - by) <= xatol):
            break
        cx = (bx + sx) / 2
        cy = (by + sy) / 2
        x, y = 2 * cx - wx, 2 * cy - wy
        xr = w if (w := x if x > xlo else xlo) < xhi else xhi
        yr = w if (w := y if y > ylo else ylo) < yhi else yhi
        fxr = -f(xr, yr)
        nfev += 1
        if fxr < fb:
            x, y = 3 * cx - 2 * wx, 3 * cy - 2 * wy
            x = w if (w := x if x > xlo else xlo) < xhi else xhi
            y = w if (w := y if y > ylo else ylo) < yhi else yhi
            fxe = -f(x, y)
            nfev += 1
            new = (fxe, x, y) if fxe < fxr else (fxr, xr, yr)
            continue
        if fxr < fs:
            new = (fxr, xr, yr)
            continue
        if fxr < fw:
            x, y = 1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy
        else:
            x, y = 0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy
        x = w if (w := x if x > xlo else xlo) < xhi else xhi
        y = w if (w := y if y > ylo else ylo) < yhi else yhi
        fxc = -f(x, y)
        nfev += 1
        if fxc <= fxr if fxr < fw else fxc < fw:
            new = (fxc, x, y)
            continue
        # shrink both other vertices halfway towards the best one; the
        # three are sorted again as the start simplex is
        x, y = bx + 0.5 * (sx - bx), by + 0.5 * (sy - by)
        x = w if (w := x if x > xlo else xlo) < xhi else xhi
        y = w if (w := y if y > ylo else ylo) < yhi else yhi
        s = (-f(x, y), x, y)
        if s[0] < b[0]:
            b, s = s, b
        x, y = bx + 0.5 * (wx - bx), by + 0.5 * (wy - by)
        x = w if (w := x if x > xlo else xlo) < xhi else xhi
        y = w if (w := y if y > ylo else ylo) < yhi else yhi
        new = (-f(x, y), x, y)
        nfev += 2
    return b[1], b[2], -b[0], nfev


def _nelder_mead_1d(f, x0: float, f0: float, bounds, maxiter: int,
                    xatol: float, fatol: float):
    """Maximize f(x) over the interval ``bounds`` from x0, clipped to it,
    where f is f0; returns (x, f(x), evaluations). f returns a number,
    never NaN."""
    lo, hi = bounds
    x0 = w if (w := x0 if x0 > lo else lo) < hi else hi
    x1 = (1 + 0.05) * x0 if x0 != 0 else 0.00025
    if x1 > hi:
        x1 = 2 * hi - x1
    x1 = w if (w := x1 if x1 > lo else lo) < hi else hi
    # the best and worst vertex b, r; each pass of the loop sorts the
    # vertex ``new`` in after b if they tie
    b, new = (-f0, x0), (-f(x1), x1)
    nfev = 2
    iterations = 0
    while True:
        b, r = (new, b) if new[0] < b[0] else (b, new)
        iterations += 1
        if iterations >= maxiter:
            break
        fb, c = b
        fw, wx = r
        if abs(fb - fw) <= fatol and abs(wx - c) <= xatol:
            break
        # the centroid c of all vertices but the worst is the best vertex,
        # which is also the second worst: a reflection that does not beat
        # it is contracted
        x = 2 * c - wx
        xr = w if (w := x if x > lo else lo) < hi else hi
        fxr = -f(xr)
        nfev += 1
        if fxr < fb:
            x = 3 * c - 2 * wx
            x = w if (w := x if x > lo else lo) < hi else hi
            fxe = -f(x)
            nfev += 1
            new = (fxe, x) if fxe < fxr else (fxr, xr)
            continue
        x = 1.5 * c - 0.5 * wx if fxr < fw else 0.5 * c + 0.5 * wx
        x = w if (w := x if x > lo else lo) < hi else hi
        fxc = -f(x)
        nfev += 1
        if not (fxc <= fxr if fxr < fw else fxc < fw):
            # shrink the worst vertex halfway towards the best one
            x = c + 0.5 * (wx - c)
            x = w if (w := x if x > lo else lo) < hi else hi
            fxc = -f(x)
            nfev += 1
        new = (fxc, x)
    return b[1], -b[0], nfev


def _ladder(d_cap_km: float) -> list[float]:
    """The distances _last_positive probes before it bisects: 0, then 1,
    2, 4, ... km, each clipped to the cap, up to the cap."""
    ds = [0.0]
    hi = min(1.0, d_cap_km)
    while True:
        ds.append(hi)
        if hi >= d_cap_km:
            return ds
        hi = min(2.0 * hi, d_cap_km)


def _last_positive(positive, d_cap_km: float,
                   resolution_km: float) -> float | None:
    """Largest distance d with positive(d): doubling, then bisection.

    Probes the ``_ladder`` until positive fails, then halves the bracket
    down to ``resolution_km``. Returns None when positive(0) fails and the
    cap when it never fails.
    """
    ladder = _ladder(d_cap_km)
    if not positive(ladder[0]):
        return None
    lo = ladder[0]
    for hi in ladder[1:]:
        if not positive(hi):
            break
        lo = hi
    else:
        # still secure at the cap; report the cap rather than extrapolate
        return d_cap_km
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
    bit for bit. Building the float rate checks T, xi and N.
    """
    rate_at = _rate_at(T, xi, beta, N, z, kind)

    def rate(log_va: float, frac: float) -> float:
        return rate_at(10.0 ** log_va, _round_m(frac, N))[0]
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
    return [_optimize_ranked(raw, rate, seeds)
            for raw, rate in _ranked_grids(xi, beta, N, z, kind, Ts,
                                           _grid_ms(N))]


def _grid_ms(N: int):
    """The grid's m column at block size N, as _rate_grid takes it."""
    # the grid inputs are the scalar path's own, bit for bit (m as float,
    # so m**2 cannot overflow)
    return np.array([_round_m(fr, N) for fr in _FRACS], dtype=float)


def _ranked_grids(xi: float, beta: float, N: int, z: float,
                  kind: EstimatorKind, Ts, ms):
    """(grid rates, search rate) of each transmission of ``Ts``, in order:
    the raw array rates of its 24 x 24 cells, flattened, and its
    ``_search_rate``; ``ms`` is ``_grid_ms(N)``. One _rate_grid call ranks
    each block of up to _T_BLOCK transmissions, V_A outer and fraction
    inner, when the first of them is asked for, after the block's search
    rates are built, so their checks fire before numpy sees the block."""
    for i in range(0, len(Ts), _T_BLOCK):
        block = Ts[i:i + _T_BLOCK]
        rates = [_search_rate(T, xi, beta, N, z, kind) for T in block]
        yield from zip(_rank(block, xi, beta, N, z, kind, ms), rates)


def _rank(Ts, xi: float, beta: float, N: int, z: float, kind: EstimatorKind,
          ms):
    """The raw array rates of the grids at the transmissions ``Ts``, one
    flattened row each, from one _rate_grid call."""
    return _rate_grid(_GRID_VAS, np.array(Ts, dtype=float)[:, None, None],
                      xi, beta, N, ms, z, kind).reshape(len(Ts), -1)


def _grid_best(raw, rate):
    """(k, log10 V_A, m/N) of the grid's best cell, re-scored by the
    scalar search rate ``rate`` from the array rates ``raw``."""
    # The array rate is the scalar one up to _GRID_TOL of round-off, so the
    # scalar scan's first strict maximum is among these cells, or is cell 0
    # when no rate is positive or none compares (NaN). Scanning them with
    # the scalar rate returns the cell and value a whole-grid scan would.
    top = raw.max()
    cells = np.flatnonzero(raw >= top - 2.0 * _GRID_TOL)
    if not top > _GRID_TOL and (cells.size == 0 or cells[0] != 0):
        cells = np.concatenate(([0], cells))
    best = None
    for i in cells:
        lv, fr = _LOG_VAS[i // len(_FRACS)], _FRACS[i % len(_FRACS)]
        k = rate(lv, fr)
        if best is None or k > best[0]:
            best = (k, lv, fr)
    return best


def _optimize_ranked(raw, rate, seeds) -> OptimizationResult:
    """One transmission's optimum from its grid's array rates ``raw`` and
    its scalar search rate."""
    best = _grid_best(raw, rate)
    evaluations = raw.size
    trace = [("grid", 10.0 ** best[1], best[2], best[0], evaluations)]

    # each polish start with its rate, (k, log10 V_A, m/N)
    starts = []
    if best[0] > 0.0:
        starts.append(best)
    for va, fr in seeds or ():
        if not va > 0.0 or isnan(fr):
            raise ValueError(f"a seed needs V_A > 0 and an m/N that is not "
                             f"NaN, got {(va, fr)}")
        lv = min(max(log10(va), _LOG_VAS[0]), _LOG_VAS[-1])
        fr = min(max(fr, _FRACS[0]), _FRACS[-1])
        k = rate(lv, fr)
        evaluations += 1
        if k > best[0]:
            best = (k, lv, fr)
        if k > 0.0:
            starts.append((k, lv, fr))
        trace.append(("seed", 10.0 ** lv, fr, k, 1))

    for k0, lv0, fr0 in starts:
        lv, fr, k, nfev = _nelder_mead_2d(rate, lv0, fr0, k0, _BOUNDS,
                                          _MAXITER, xatol=1e-4, fatol=1e-12)
        evaluations += nfev
        if k > best[0]:
            best = (k, lv, fr)
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
    rate_at = _asymptotic_at(T, xi, beta)

    def rate(log_va: float) -> float:
        # key_rate_asymptotic(10**log_va, T, xi, beta).key_rate, bit for bit
        return rate_at(10.0 ** log_va)[0]

    ks = [rate(lv) for lv in _ASYMPTOTIC_LOG_VAS]
    i = int(np.argmax(ks))
    best = (ks[i], _ASYMPTOTIC_LOG_VAS[i])
    evaluations = len(ks)
    if best[0] > 0.0:
        lv, k, nfev = _nelder_mead_1d(rate, best[1], best[0], _BOUNDS[0],
                                      _MAXITER, xatol=1e-5, fatol=1e-13)
        evaluations += nfev
        if k > best[0]:
            best = (k, lv)
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
    0.1 km; NaN when the rate at 0 km is NaN.

    The grid alone decides each probe's sign. optimize_key_rate polishes
    only from a positive grid cell, and a polish never lowers the grid's
    best, so its optimum is positive exactly when the re-scored best grid
    cell is. The re-scored best is the whole grid's scalar maximum, so a
    probe is positive when one cell's scalar rate is: each probe first
    scores the best cell of the last positive ranking, and ranks its
    transmission's grid and re-scores the best cells only when that cell's
    rate is not positive.
    """
    z = confidence_quantile(epsilon_pe, convention)
    kind = _key_rate_kind(estimator_kind)
    ms = _grid_ms(N)
    evaluations = 0
    # the best (log10 V_A, m/N) cell of the last positive ranking, and the
    # re-scored best of each ranking, the first at 0 km
    cell = None
    bests = []

    def positive(d: float) -> bool:
        nonlocal evaluations, cell
        evaluations += 1
        T = fiber_transmission(d, loss_db_per_km)
        rate = _search_rate(T, xi, beta, N, z, kind)
        if cell is not None and rate(*cell) > 0.0:
            return True
        k, *best = _grid_best(_rank([T], xi, beta, N, z, kind, ms)[0], rate)
        bests.append(k)
        if k > 0.0:
            cell = best
        return k > 0.0

    d = _last_positive(positive, d_cap_km, 0.1)
    return MaximumDistanceResult(_no_range(bests[0]) if d is None else d,
                                 positive_at_zero=d is not None,
                                 evaluations=evaluations)


def _no_range(k0: float) -> float:
    """The range when the best rate at 0 km, k0, is not positive: none, or
    NaN when k0 is NaN, as the optimum there is."""
    return k0 if isnan(k0) else 0.0


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
    Each probe is optimize_key_rate's optimum there. A grid's ranking
    needs no seed, so the distances known before their polishes, the
    search's ``_ladder`` and the sampled offsets, are ranked in blocks,
    and each (estimator, distance) pair is ranked once.
    """
    z = confidence_quantile(epsilon_pe, convention)
    kinds = {k: _key_rate_kind(k) for k in (denominator, numerator)}
    ms = _grid_ms(N)
    evaluations = 0
    seed_of: dict[EstimatorKind, tuple] = {}
    # (estimator, d) -> (grid rates, search rate) once ranked, and before
    # that the iterator that ranks it, in blocks
    ranked: dict[tuple, tuple] = {}
    queued: dict[tuple, object] = {}

    def queue(kind: EstimatorKind, ds) -> None:
        # kind's grids at ds, those not ranked yet, each block ranked when
        # its first grid is asked for
        ds = [d for d in dict.fromkeys(ds) if (kind, d) not in ranked]
        grids = zip(ds, _ranked_grids(
            xi, beta, N, z, kinds[kind],
            [fiber_transmission(d, loss_db_per_km) for d in ds], ms))
        queued.update(((kind, d), grids) for d in ds)

    def opt(kind: EstimatorKind, d: float, extra=()) -> OptimizationResult:
        nonlocal evaluations
        if (kind, d) not in ranked:
            if (kind, d) not in queued:
                queue(kind, [d])
            for dd, grid in queued[kind, d]:
                ranked[kind, dd] = grid
                if dd == d:
                    break
        seeds = [s for s in (seed_of.get(kind), *extra) if s is not None]
        r = _optimize_ranked(*ranked[kind, d], seeds)
        evaluations += r.evaluations
        if r.best_key_rate > 0.0:
            seed_of[kind] = (r.best_V_A, r.best_m_fraction)
        return r

    queue(denominator, _ladder(d_cap_km))
    bests = []  # the denominator's optimum at each probe, the first at 0 km

    def positive(d: float) -> bool:
        bests.append(opt(denominator, d).best_key_rate)
        return bests[-1] > 0.0

    boundary = _last_positive(positive, d_cap_km, 5e-4)
    if boundary is None:
        return RangeLimitRatio(rows=(), boundary_km=_no_range(bests[0]),
                               max_ratio=float("nan"),
                               evaluations=evaluations)

    ds = [boundary - w for w in (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)]
    ds = [d for d in ds if d >= 0.0]
    for kind in kinds:
        queue(kind, ds)
    rows = []
    max_ratio = 0.0
    for d in ds:
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
