"""Protocol-parameter optimization for the finite-size key rate.

The rate is cheap to evaluate (closed form), so a coarse deterministic
grid over (V_A, m/N) followed by a Nelder-Mead polish is enough. V_A is
searched on a log scale; the revealed fraction linearly.

Every grid is ranked by ``_ranked_grids``, the one caller of the rate's
array path, ``security._rate_grid``: one call ranks every kind asked for
at a block of up to _RANK_BLOCK transmissions. The re-scored grid cells,
any seeds, the polish and the cross re-score of each cell call the float
path, ``security._rate_at``, built once per transmission and kind before
its block is ranked, so a bad channel or block size fails that build's
check before the array path runs; every reported rate is the value
``key_rate_finite`` gives at that point, bit for bit.

``optimize_key_rates`` optimizes the table fig2, fig3 and optimize write
at one block size, a row of estimator kinds at each transmission, and
``optimize_key_rate`` is its case of one kind at one transmission, with
nothing to cross. That optimum is never below the best grid point and is
positive exactly when that point is, so ``maximum_distance`` decides each
probe's sign from the grid alone, with no polish; a crossed cell of the
table may be positive where its kind's grid is not. ``range_limit_ratio``,
sigma2_opt's rate over another estimator's, polishes every probe, also
from the optima of earlier probes as seeds, and keeps each (estimator,
distance) point's grid and polishes, so it ranks no point and polishes
no start of a point twice. Both range searches climb the same ladder of
distances up to a 1000 km cap in ``_last_positive``, which owns the
no-range rule too. ``optimize_asymptotic_rates`` optimizes the
asymptotic column fig2 writes in the same way: it builds the asymptotic
float rate, ``security._asymptotic_at``, once per transmission, ranks
the 48-point V_A column of every transmission in one call of its array
form, ``security._asymptotic_grid``, and re-scores with the float rate
only the cells ``_candidates`` keeps, the rule the finite grids' re-score
follows too; ``optimize_asymptotic_rate`` is its case of one
transmission.

The polishes are bounded Nelder-Mead searches written here on scalar
floats: ``_nelder_mead_2d`` over (log10 V_A, m/N) for the finite-size
rate and ``_nelder_mead_1d`` over log10 V_A for the asymptotic one. Each
is handed the built float rate and evaluates it at one site, where it
clips the next point, maps its search coordinates to (V_A, m) and counts
the evaluation, before it dispatches on the step the point belongs to;
so one evaluation runs two Python frames, the built rate and its Holevo
term. Each takes the steps that
``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)`` takes
(scipy 1.17) on that mapped rate, so the iterates, and every output
byte, are the ones that scipy routine gives; tests/test_optimizer.py
checks this against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import floor, isnan, log10

import numpy as np

from .channel import fiber_transmission
from .estimators import EstimatorKind
from .security import (
    _asymptotic_at,
    _asymptotic_grid,
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
    "optimize_asymptotic_rates",
    "maximum_distance",
    "range_limit_ratio",
]


@dataclass
class OptimizationResult:
    """An optimum and the trace of the search that found it.

    trace holds (stage, V_A, m_fraction, key_rate, evaluations) rows, and
    ``evaluations`` is the sum of their counts. Each row counts the
    search's size, not its float-rate calls: a "grid" row the 576 cells
    ranked on arrays, of which the float rate re-scores a few; a "seed"
    row 1, the seed's score; a "refine" row the polish's evaluations as
    scipy counts them (nfev), its start included, whose rate the polish
    does not compute; a "cross" row, there when another kind's optimum
    beats the cell's own, 1, however many optima the cross stage
    re-scored; and an "asymptotic" row the 48 cells of its column and its
    polish's nfev.
    """

    best_V_A: float
    best_m_fraction: float
    best_key_rate: float
    trace: list = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return sum(row[-1] for row in self.trace)


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
    denominator estimator still yields a positive rate; the numerator is
    always sigma2_opt. ``max_ratio`` is the largest ratio of a row whose
    denominator rate is positive, at least 0.0, and NaN when there are no
    rows.

    ``evaluations`` is the size of the search: every grid cell, seed score
    and polish evaluation of each probe, a polish that the search reuses
    from an earlier probe at the same point counted again. It is not the
    number of float-rate calls the search makes.
    """

    rows: tuple
    boundary_km: float
    evaluations: int

    @property
    def max_ratio(self) -> float:
        # a fold from 0.0: a NaN ratio, or one below 0.0, leaves it as is
        if not self.rows:
            return float("nan")
        return max([0.0, *(row[3] for row in self.rows if row[1] > 0.0)])


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
# the grids' V_A columns, as _rate_grid and _asymptotic_grid take them
_GRID_VAS = np.array([10.0 ** lv for lv in _LOG_VAS])[:, None]
_ASYMPTOTIC_VAS = np.array([10.0 ** v for v in _ASYMPTOTIC_LOG_VAS])
# Transmissions one _rate_grid call ranks, every kind asked for stacked
# on them as (kinds, block, 24, 24) arrays: 24 grids a call at three
# kinds. A call's fixed cost is most of its time at one grid: 181-191 us
# a grid at 1 grid a call, 104-111 at 3, 54-55 at 12 and 42-46 at 24
# (medians of 15 runs of 20 calls, three processes, each after a fig2
# table pass; 2-vCPU Xeon, numpy 2.4.6, 2026-10-20). Blocks of 12 to 24
# transmissions at three kinds ran the five rate tables within the spread
# of repeated runs at this one.
_RANK_BLOCK = 8

# bound on the gap between the raw rates of the array path (_rate_grid)
# and of the float path (key_rate_finite.key_rate_raw) over the
# optimizer's grids, whose largest gap over the default ones is 5.4e-14,
# and between _asymptotic_grid's and the asymptotic float rate's over its
# columns, 2.8e-14 from 0 to 1000 km; tests/test_optimizer.py checks both
# cell by cell
_GRID_TOL = 1e-12

# The distances the range searches probe before they bisect: 0, then 1, 2,
# 4, ... 512 km, then the cap, 1000 km, which no fiber link reaches.
_LADDER = [0.0, *(2.0 ** i for i in range(10)), 1000.0]


def _round_m(frac: float, N: int) -> int:
    # ties round up, revealing one more state being the conservative choice;
    # min(max(m, 2), N - 1) (m = 1 leaves no noise estimate), written out
    # to save two builtin calls, here and at _nelder_mead_2d's evaluation
    m = floor(frac * N + 0.5)
    m = 2 if 2 > m else m
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
# over the final simplex, for f the search's rate negated. Each routine is
# handed the built float rate, security._rate_at or _asymptotic_at, and
# evaluates f at one site: a loop whose every pass clips the next point
# (x[, y]) to the box, maps log10 V_A to V_A = 10.0**x and, in two
# coordinates, m/N to m by _round_m's rule, negates the key rate and counts
# the evaluation, then goes on by the step the point belongs to:
#   "vertex 1", "vertex 2" - the vertices of a new simplex besides the
#       best one, the start's (scipy's initial simplex) or a shrink's; the
#       first is sorted against the best vertex, the second goes in as the
#       vertex ``new``; in one coordinate there is only the second;
#   "reflect" - the reflection xr, which is kept as ``new`` if it beats
#       the second vertex but not the best;
#   "expand" - the expansion, tried when xr beats the best; the better of
#       the two is kept;
#   "contract" - the outside contraction when xr beats the worst, else the
#       inside one; kept if it beats xr, or the worst, else the simplex is
#       shrunk towards the best vertex.
# Each kept ``new`` is sorted in, the iteration counted and convergence
# tested, and the next reflection is the loop's next point. The returned
# key rate is the maximum (-(-r) is r bit for bit, -0.0 included), so each
# evaluation runs the built rate and its Holevo term and no other Python
# frame. The caller passes the rate at the start, which it has computed
# already; it counts as an evaluation, as in scipy. A vertex is an (f, x[,
# y]) tuple. Each clip is numpy.clip on one float, written out: a bound
# wins a tie, so -0.0 clipped at a lower bound of 0.0 becomes 0.0; clipping
# a clipped point again leaves it as it is. The trial points are scipy's
# (1 + rho)*xbar - rho*worst and its kin at rho = 1, chi = 2, psi = 0.5:
# reflection 2*c - w, expansion 3*c - 2*w, outside contraction 1.5*c -
# 0.5*w and inside contraction 0.5*c + 0.5*w.

def _nelder_mead_2d(rate, N: int, x0: float, y0: float, f0: float, bounds,
                    maxiter: int, xatol: float, fatol: float):
    """Maximize the key rate of the built finite-size rate at (10**x,
    _round_m(y, N)) over the box ``bounds`` from (x0, y0), clipped to it,
    where it is f0; returns (x, y, key rate, evaluations). The key rate is
    a number, never NaN."""
    (xlo, xhi), (ylo, yhi) = bounds
    n1 = N - 1
    x0 = w if (w := x0 if x0 > xlo else xlo) < xhi else xhi
    y0 = w if (w := y0 if y0 > ylo else ylo) < yhi else yhi
    # the best vertex b; the start's other two vertices, (x, y) and (x2,
    # y2), go in as a shrink's two do
    b = (-f0, x0, y0)
    x = (1 + 0.05) * x0 if x0 != 0 else 0.00025
    if x > xhi:
        x = 2 * xhi - x
    y = y0
    x2 = x0
    y2 = (1 + 0.05) * y0 if y0 != 0 else 0.00025
    if y2 > yhi:
        y2 = 2 * yhi - y2
    step = "vertex 1"
    nfev = 1
    iterations = 0
    while True:
        x = w if (w := x if x > xlo else xlo) < xhi else xhi
        y = w if (w := y if y > ylo else ylo) < yhi else yhi
        m = floor(y * N + 0.5)
        m = 2 if 2 > m else n1 if n1 < m else m
        f = -rate(10.0 ** x, m)[0]
        nfev += 1
        if step == "reflect":
            fxr, xr, yr = f, x, y
            if f < fb:
                x, y = 3 * cx - 2 * wx, 3 * cy - 2 * wy
                step = "expand"
                continue
            if f < fs:
                new = (f, x, y)
            else:
                if f < fw:
                    x, y = 1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy
                else:
                    x, y = 0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy
                step = "contract"
                continue
        elif step == "contract":
            if not (f <= fxr if fxr < fw else f < fw):
                # shrink both other vertices halfway towards the best one
                x, y = bx + 0.5 * (sx - bx), by + 0.5 * (sy - by)
                x2, y2 = bx + 0.5 * (wx - bx), by + 0.5 * (wy - by)
                step = "vertex 1"
                continue
            new = (f, x, y)
        elif step == "expand":
            new = (f, x, y) if f < fxr else (fxr, xr, yr)
        elif step == "vertex 1":
            s = (f, x, y)
            if f < b[0]:
                b, s = s, b
            x, y = x2, y2
            step = "vertex 2"
            continue
        else:
            new = (f, x, y)
        # the best, second and worst vertex b, s, r, sorted by insertion:
        # ``new`` goes in after the vertices it ties
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
        step = "reflect"
    return b[1], b[2], -b[0], nfev


def _nelder_mead_1d(rate, x0: float, f0: float, bounds, maxiter: int,
                    xatol: float, fatol: float):
    """Maximize the key rate of the built asymptotic rate at 10**x over
    the interval ``bounds`` from x0, clipped to it, where it is f0;
    returns (x, key rate, evaluations). The key rate is a number, never
    NaN."""
    lo, hi = bounds
    x0 = w if (w := x0 if x0 > lo else lo) < hi else hi
    # the best vertex b; the start's other one goes in as a shrink's does
    b = (-f0, x0)
    x = (1 + 0.05) * x0 if x0 != 0 else 0.00025
    if x > hi:
        x = 2 * hi - x
    step = "vertex 2"
    nfev = 1
    iterations = 0
    while True:
        x = w if (w := x if x > lo else lo) < hi else hi
        f = -rate(10.0 ** x)[0]
        nfev += 1
        # the centroid c of all vertices but the worst is the best vertex,
        # which is also the second worst: a reflection that does not beat
        # it is contracted
        if step == "reflect":
            fxr, xr = f, x
            if f < fb:
                x = 3 * c - 2 * wx
                step = "expand"
            else:
                x = 1.5 * c - 0.5 * wx if f < fw else 0.5 * c + 0.5 * wx
                step = "contract"
            continue
        if step == "contract":
            if not (f <= fxr if fxr < fw else f < fw):
                # shrink the worst vertex halfway towards the best one
                x = c + 0.5 * (wx - c)
                step = "vertex 2"
                continue
            new = (f, x)
        elif step == "expand":
            new = (f, x) if f < fxr else (fxr, xr)
        else:
            new = (f, x)
        # the best and worst vertex b, r: ``new`` goes in after b if they
        # tie
        b, r = (new, b) if new[0] < b[0] else (b, new)
        iterations += 1
        if iterations >= maxiter:
            break
        fb, c = b
        fw, wx = r
        if abs(fb - fw) <= fatol and abs(wx - c) <= xatol:
            break
        x = 2 * c - wx
        step = "reflect"
    return b[1], -b[0], nfev


def _last_positive(probe, resolution_km: float):
    """(d, positive at 0 km, probes) for the largest distance d at which
    probe(d), the best rate there or a rate of its sign, is positive:
    doubling, then bisection.

    Probes the ``_LADDER`` until the rate is not positive, then halves the
    bracket down to ``resolution_km``; the cap, the ladder's last rung, is
    the result when the rate never fails. When the rate at 0 km is not
    positive there is no range: d is 0.0, or NaN when that rate is NaN, as
    the optimum there is.
    """
    k0 = probe(_LADDER[0])
    if not k0 > 0.0:
        return k0 if isnan(k0) else 0.0, False, 1
    probes = 1
    lo = _LADDER[0]
    for hi in _LADDER[1:]:
        probes += 1
        if not probe(hi) > 0.0:
            break
        lo = hi
    else:
        # still secure at the cap; report the cap rather than extrapolate
        return lo, True, probes
    while hi - lo > resolution_km:
        mid = (lo + hi) / 2.0
        probes += 1
        if probe(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, True, probes


def optimize_key_rate(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                      *, T: float,
                      convention: str = "paper") -> OptimizationResult:
    """Maximize the finite-size key rate over (V_A, m/N) at transmission T.

    The search is fully deterministic: fixed grid, fixed simplex start, no
    randomness.
    """
    return optimize_key_rates(xi, beta, N, epsilon_pe, [estimator_kind],
                              Ts=[T], convention=convention)[0][0]


def optimize_key_rates(xi: float, beta: float, N: int,
                       epsilon_pe: float = 1e-10,
                       estimator_kinds=(EstimatorKind.SIGMA2_OPT,),
                       *, Ts,
                       convention: str = "paper"
                       ) -> list[list[OptimizationResult]]:
    """The optimizer's table: at each transmission of ``Ts``, in order, one
    optimum per kind of ``estimator_kinds``, in order.

    Every kind of a block of transmissions is ranked at once and each
    cell polished on its own, then crossed with the other kinds' optima
    at its transmission (``_cross``); with one kind each result is
    ``optimize_key_rate``'s.
    """
    z = confidence_quantile(epsilon_pe, convention)
    kinds = [_key_rate_kind(k) for k in estimator_kinds]
    if not kinds:
        raise ValueError("estimator_kinds must not be empty")
    # each transmission's row of (float rate, optimum), one per kind
    rows = [[(rate, _optimize_ranked(raw, rate, N, ())) for raw, rate in row]
            for row in _ranked_grids(xi, beta, N, z, kinds, Ts)]
    return [[_cross(rate, N, own, [o for k, (_, o) in zip(kinds, row)
                                   if k is not kind])
             for kind, (rate, own) in zip(kinds, row)]
            for row in rows]


def _cross(rate, N: int, own: OptimizationResult,
           others) -> OptimizationResult:
    """``own``, or the best of the optima ``others`` re-scored by the float
    rate ``rate`` at block size N that beats it, with one "cross" trace
    row, of one evaluation, past ``own``'s.

    An optimum found for one estimator is a valid candidate for the rest;
    re-scoring them keeps the table's curves free of polish jitter.
    """
    best = own
    for cand in others:
        k = rate(cand.best_V_A, _round_m(cand.best_m_fraction, N))[0]
        if k > best.best_key_rate:
            best = OptimizationResult(
                best_V_A=cand.best_V_A,
                best_m_fraction=cand.best_m_fraction,
                best_key_rate=k,
                trace=own.trace + [("cross", cand.best_V_A,
                                    cand.best_m_fraction, k, 1)],
            )
    return best


@cache
def _grid_ms(N: int):
    """The grid's m column at block size N, as _rate_grid takes it: one
    read-only array per N."""
    # the grid inputs are the scalar path's own, bit for bit (m as float,
    # so m**2 cannot overflow)
    ms = np.array([_round_m(fr, N) for fr in _FRACS], dtype=float)
    ms.flags.writeable = False
    return ms


def _ranked_grids(xi: float, beta: float, N: int, z: float, kinds, Ts):
    """Each transmission of ``Ts``, in order, as one (grid rates, float
    rate) pair per kind of ``kinds``, in order: the raw array rates of its
    24 x 24 cells, V_A outer and fraction inner, flattened, and its built
    float rate, ``security._rate_at``. One _rate_grid call ranks each
    block of up to _RANK_BLOCK transmissions, every kind at once, when the
    first of them is asked for, after the block's float rates are built,
    so their checks fire before numpy sees the block."""
    for i in range(0, len(Ts), _RANK_BLOCK):
        block = Ts[i:i + _RANK_BLOCK]
        rates = [[_rate_at(T, xi, beta, N, z, kind) for kind in kinds]
                 for T in block]
        T = np.array(block, dtype=float)[:, None, None]
        raws = _rate_grid(_GRID_VAS, T, xi, beta, N, _grid_ms(N), z, kinds)
        raws = raws.reshape(len(kinds), len(block), -1).swapaxes(0, 1)
        yield from ([*zip(raw, row)] for raw, row in zip(raws, rates))


def _candidates(raw):
    """The cells of the flat array rates ``raw`` that the float rate
    re-scores, in order: every cell within 2*_GRID_TOL of the top, that
    bound included, and cell 0 first when no rate passes _GRID_TOL."""
    # The array rate is the scalar one up to _GRID_TOL of round-off, so the
    # scalar scan's first strict maximum is among these cells, or is cell 0
    # when no rate is positive or none compares (NaN). Scanning them with
    # the scalar rate returns the cell and value a whole-grid scan would.
    # The cells are Python ints, whose index arithmetic is cheaper than
    # numpy's, and the row is read through the ufuncs, not their Python
    # wrappers; np.maximum propagates a NaN as raw.max() does.
    top = np.maximum.reduce(raw)
    cells = (raw >= top - 2.0 * _GRID_TOL).nonzero()[0].tolist()
    if not top > _GRID_TOL and cells[:1] != [0]:
        cells.insert(0, 0)
    return cells


def _grid_best(raw, rate, N: int):
    """(k, log10 V_A, m/N) of the grid's best cell, re-scored by the
    float rate ``rate`` at block size N from the array rates ``raw``."""
    best = None
    for i in _candidates(raw):
        lv, fr = _LOG_VAS[i // len(_FRACS)], _FRACS[i % len(_FRACS)]
        k = rate(10.0 ** lv, _round_m(fr, N))[0]
        if best is None or k > best[0]:
            best = (k, lv, fr)
    return best


def _optimize_ranked(raw, rate, N: int, seeds,
                     memo=None) -> OptimizationResult:
    """One transmission's optimum from its grid's array rates ``raw`` and
    its float rate at block size N, polished from the best grid cell and
    from each (V_A, m/N) of ``seeds`` at which the rate is positive.

    Near the range limit the positive region shrinks below the grid pitch;
    ``range_limit_ratio`` seeds each search with the positive optima of its
    earlier ones, so continuation keeps it from reporting a false zero.

    ``memo``, a dict, is this point's record across calls: its grid best
    under "grid" and, under each start's exact (log10 V_A, m/N), the
    (log10 V_A, m/N, key rate, evaluations) of the polish run from it,
    which a later start there reuses. The polish is deterministic in its
    float rate and start, so the result, evaluations and trace are the
    ones a call without ``memo`` gives, bit for bit.
    """
    memo = {} if memo is None else memo
    if "grid" not in memo:
        memo["grid"] = _grid_best(raw, rate, N)
    best = memo["grid"]
    trace = [("grid", 10.0 ** best[1], best[2], best[0], raw.size)]

    # each polish start with its rate, (k, log10 V_A, m/N)
    starts = []
    if best[0] > 0.0:
        starts.append(best)
    for va, fr in seeds:
        lv = min(max(log10(va), _LOG_VAS[0]), _LOG_VAS[-1])
        fr = min(max(fr, _FRACS[0]), _FRACS[-1])
        k = rate(10.0 ** lv, _round_m(fr, N))[0]
        if k > best[0]:
            best = (k, lv, fr)
        if k > 0.0:
            starts.append((k, lv, fr))
        trace.append(("seed", 10.0 ** lv, fr, k, 1))

    for k0, lv0, fr0 in starts:
        polish = memo.get((lv0, fr0))
        if polish is None:
            polish = memo[lv0, fr0] = _nelder_mead_2d(
                rate, N, lv0, fr0, k0, _BOUNDS, _MAXITER, xatol=1e-4,
                fatol=1e-12)
        lv, fr, k, nfev = polish
        if k > best[0]:
            best = (k, lv, fr)
        trace.append(("refine", 10.0 ** best[1], best[2], best[0], nfev))

    return OptimizationResult(
        best_V_A=10.0 ** best[1],
        best_m_fraction=best[2],
        best_key_rate=best[0],
        trace=trace,
    )


def optimize_asymptotic_rate(xi: float, beta: float,
                             T: float) -> OptimizationResult:
    """Maximize the asymptotic rate at transmission T over V_A only."""
    return optimize_asymptotic_rates(xi, beta, Ts=[T])[0]


def optimize_asymptotic_rates(xi: float, beta: float, *,
                              Ts) -> list[OptimizationResult]:
    """The asymptotic optimum over V_A at each transmission of ``Ts``, in
    order: the 48-point column of every transmission ranked on arrays in
    one call, its candidate cells re-scored by the float rate and the best
    polished when it is positive.

    Each float rate is built before the column is ranked, so a bad channel
    fails its check before numpy runs. Every reported rate is the float
    path's, the key rate key_rate_asymptotic gives at that V_A, and each
    result is that of a whole-column float scan, bit for bit.
    """
    rates = [_asymptotic_at(T, xi, beta) for T in Ts]
    T = np.array(Ts, dtype=float)[:, None]
    raws = _asymptotic_grid(_ASYMPTOTIC_VAS, T, xi, beta)
    results = []
    for raw, rate in zip(raws, rates):
        best = None
        for i in _candidates(raw):
            lv = _ASYMPTOTIC_LOG_VAS[i]
            k = rate(10.0 ** lv)[0]
            if best is None or k > best[0]:
                best = (k, lv)
        evaluations = raw.size
        if best[0] > 0.0:
            lv, k, nfev = _nelder_mead_1d(rate, best[1], best[0], _BOUNDS[0],
                                          _MAXITER, xatol=1e-5, fatol=1e-13)
            evaluations += nfev
            if k > best[0]:
                best = (k, lv)
        results.append(OptimizationResult(
            best_V_A=10.0 ** best[1],
            best_m_fraction=0.0,
            best_key_rate=best[0],
            trace=[("asymptotic", 10.0 ** best[1], 0.0, best[0],
                    evaluations)],
        ))
    return results


def maximum_distance(xi: float, beta: float, N: int,
                     epsilon_pe: float = 1e-10,
                     estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                     loss_db_per_km: float = 0.2,
                     convention: str = "paper") -> MaximumDistanceResult:
    """Largest distance with a positive optimized key rate, by bisection to
    0.1 km; NaN when the rate at 0 km is NaN.

    The grid alone decides each probe's sign. optimize_key_rate polishes
    only from a positive grid cell, and a polish never lowers the grid's
    best, so its optimum is positive exactly when the re-scored best grid
    cell is. The re-scored best is the whole grid's scalar maximum, so a
    probe is positive when one cell's scalar rate is: each probe first
    scores the best cell of the last positive ranking, and ranks its
    transmission's grid and re-scores the best cells only when that cell's
    rate is not positive. ``evaluations`` counts the probes.
    """
    z = confidence_quantile(epsilon_pe, convention)
    kind = _key_rate_kind(estimator_kind)
    # the best (V_A, m) cell of the last positive ranking
    cell = None

    def probe(d: float) -> float:
        nonlocal cell
        T = fiber_transmission(d, loss_db_per_km)
        if cell is not None and (
                k := _rate_at(T, xi, beta, N, z, kind)(*cell)[0]) > 0.0:
            return k
        [(raw, rate)], = _ranked_grids(xi, beta, N, z, [kind], [T])
        k, lv, fr = _grid_best(raw, rate, N)
        if k > 0.0:
            cell = 10.0 ** lv, _round_m(fr, N)
        return k

    return MaximumDistanceResult(*_last_positive(probe, 0.1))


def range_limit_ratio(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      denominator: EstimatorKind = EstimatorKind.SIGMA2_MLE,
                      loss_db_per_km: float = 0.2,
                      convention: str = "paper") -> RangeLimitRatio:
    """Ratio of sigma2_opt's optimized rate to the ``denominator``
    estimator's, approaching the range limit.

    The two rate curves vanish within metres of each other, so the
    interesting behaviour lives in the last few metres before the
    denominator's boundary: there its rate goes to zero while sigma2_opt's
    stays finite and the ratio grows without bound. The boundary is located
    by warm-started bisection to 0.5 m, then both rates are sampled 50, 20,
    10, 5, 2, 1 and 0 m inside it. Each probe is optimize_key_rate's optimum
    there, polished also from continuation seeds, the positive optima of
    earlier probes, which keep the search from losing the shrinking
    positive region.

    Each (estimator, distance) point is ranked once, in a lazy
    ``_ranked_grids`` stream of one kind: the ``_LADDER`` is one stream,
    pulled as far as the search climbs it, each bisection probe is ranked
    alone, and at the sampled offsets each kind ranks those it lacks. The
    point keeps its grid best and the result of each polish run there,
    keyed by the start's exact (log10 V_A, m/N), for a later search at the
    point, as the polish is deterministic in its float rate and start: the
    boundary searched again at offset 0, a seed at its point's best grid
    cell, and, when the denominator is sigma2_opt too, the numerator at
    each offset.
    """
    numerator = EstimatorKind.SIGMA2_OPT
    z = confidence_quantile(epsilon_pe, convention)
    kinds = {k: _key_rate_kind(k) for k in (denominator, numerator)}
    evaluations = 0
    seed_of: dict[EstimatorKind, tuple] = {}
    # (estimator, d) -> (grid rates, float rate, memo), the memo holding
    # the point's grid best and polishes across its searches
    ranked: dict[tuple, tuple] = {}

    def grids(kind, ds):
        # ((kind, d), (grid rates, float rate, {})) of each distance of ds
        Ts = [fiber_transmission(d, loss_db_per_km) for d in ds]
        return (((kind, d), (raw, rate, {})) for d, [(raw, rate)] in
                zip(ds, _ranked_grids(xi, beta, N, z, [kinds[kind]], Ts)))

    def opt(kind: EstimatorKind, d: float, extra=()) -> OptimizationResult:
        nonlocal evaluations
        # each seed once: a sigma2_opt denominator's seed is the numerator's
        seeds = [*dict.fromkeys(s for s in (seed_of.get(kind), *extra)
                                if s is not None)]
        raw, rate, memo = ranked[kind, d]
        r = _optimize_ranked(raw, rate, N, seeds, memo)
        evaluations += r.evaluations
        if r.best_key_rate > 0.0:
            seed_of[kind] = (r.best_V_A, r.best_m_fraction)
        return r

    # the search probes each rung once, in order, then bisects between two
    ladder = grids(denominator, _LADDER)

    def probe(d: float) -> float:
        ranked.update([next(ladder if d in _LADDER
                            else grids(denominator, [d]))])
        return opt(denominator, d).best_key_rate

    boundary, positive_at_zero, _ = _last_positive(probe, 5e-4)
    if not positive_at_zero:
        return RangeLimitRatio((), boundary, evaluations)

    ds = [boundary - w for w in (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)]
    ds = [d for d in ds if d >= 0.0]
    for kind in kinds:
        ranked.update(grids(kind, [d for d in ds if (kind, d) not in ranked]))
    rows = []
    for d in ds:
        r_den = opt(denominator, d)
        r_num = opt(numerator, d, extra=(seed_of.get(denominator),))
        k_den, k_num = r_den.best_key_rate, r_num.best_key_rate
        ratio = k_num / k_den if k_den > 0.0 else float("nan")
        rows.append((d, k_den, k_num, ratio,
                     r_den.best_m_fraction, r_num.best_m_fraction))
    return RangeLimitRatio(rows=tuple(rows), boundary_km=boundary,
                           evaluations=evaluations)
