"""Protocol-parameter optimization for the finite-size key rate.

The rate is cheap to evaluate (closed form), so a coarse deterministic
grid over (V_A, m/N) followed by a Nelder-Mead polish is enough. V_A is
searched on a log scale; the revealed fraction linearly. The reported
optimum is never below the best grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log10

import numpy as np
from scipy.optimize import minimize

from .channel import fiber_transmission
from .estimators import EstimatorKind
from .security import key_rate_asymptotic, key_rate_finite

__all__ = [
    "SearchConfig",
    "OptimizationResult",
    "MaximumDistanceResult",
    "RangeLimitRatio",
    "optimize_key_rate",
    "optimize_asymptotic_rate",
    "maximum_distance",
    "range_limit_ratio",
]


@dataclass(frozen=True)
class SearchConfig:
    va_min: float = 0.1
    va_max: float = 100.0
    va_points: int = 24
    frac_min: float = 1e-3
    frac_max: float = 1.0 - 1e-3
    frac_points: int = 24
    refine: bool = True
    refine_maxiter: int = 400

    def __post_init__(self):
        if not 0 < self.va_min < self.va_max:
            raise ValueError("need 0 < va_min < va_max")
        if not 0 < self.frac_min < self.frac_max < 1:
            raise ValueError("need 0 < frac_min < frac_max < 1")


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


def _round_m(frac: float, N: int) -> int:
    # ties round up: revealing one more state is the conservative choice
    m = int(np.floor(frac * N + 0.5))
    return min(max(m, 1), N - 1)


def _transmission(T: float | None, distance_km: float | None,
                  loss_db_per_km: float) -> float:
    if (T is None) == (distance_km is None):
        raise ValueError("give exactly one of T and distance_km")
    return fiber_transmission(distance_km, loss_db_per_km) if T is None else T


def _last_positive(positive, d_cap_km: float,
                   resolution_km: float) -> float | None:
    """Largest distance d with positive(d): doubling, then bisection.

    Probes 0, 1, 2, 4, ... km (the last step clipped to the cap) until
    positive fails, then halves the bracket down to ``resolution_km``.
    Returns None when positive(0) fails and the cap when it never fails.
    """
    if not positive(0.0):
        return None
    lo, hi = 0.0, 1.0
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


def optimize_key_rate(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      estimator_kind: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                      T: float | None = None,
                      distance_km: float | None = None,
                      loss_db_per_km: float = 0.2,
                      convention: str = "paper",
                      search: SearchConfig | None = None,
                      seeds=None) -> OptimizationResult:
    """Maximize the finite-size key rate over (V_A, m/N).

    Exactly one of ``T`` and ``distance_km`` must be given. The search is
    fully deterministic: fixed grid, fixed simplex start, no randomness.

    ``seeds`` is an optional list of (V_A, m_fraction) starting points,
    refined in addition to the best grid cell. Near the range limit the
    positive region shrinks below the grid pitch, so continuation from a
    neighbouring distance's optimum keeps the search from reporting a
    false zero there.
    """
    T = _transmission(T, distance_km, loss_db_per_km)
    cfg = search or SearchConfig()

    def rate(log_va: float, frac: float) -> float:
        va = 10.0 ** log_va
        m = _round_m(frac, N)
        return key_rate_finite(va, T, xi, beta, N, m, epsilon_pe,
                               estimator_kind, convention).key_rate

    evaluations = 0
    log_vas = [float(v) for v in
               np.linspace(log10(cfg.va_min), log10(cfg.va_max), cfg.va_points)]
    fracs = [float(v) for v in
             np.linspace(cfg.frac_min, cfg.frac_max, cfg.frac_points)]
    best = (-1.0, log_vas[0], fracs[0])
    for lv in log_vas:
        for fr in fracs:
            k = rate(lv, fr)
            evaluations += 1
            if k > best[0]:
                best = (k, lv, fr)
    trace = [("grid", 10.0 ** best[1], best[2], best[0], evaluations)]

    starts = []
    if best[0] > 0.0:
        starts.append((best[1], best[2]))
    for va, fr in seeds or ():
        lv = min(max(log10(va), log_vas[0]), log_vas[-1])
        fr = min(max(fr, cfg.frac_min), cfg.frac_max)
        k = rate(lv, fr)
        evaluations += 1
        if k > best[0]:
            best = (k, lv, fr)
        if k > 0.0:
            starts.append((lv, fr))
        trace.append(("seed", 10.0 ** lv, fr, k, 1))

    if cfg.refine:
        for lv0, fr0 in starts:
            res = minimize(
                lambda v: -rate(v[0], v[1]),
                x0=np.array([lv0, fr0]),
                method="Nelder-Mead",
                bounds=[(log_vas[0], log_vas[-1]),
                        (cfg.frac_min, cfg.frac_max)],
                options={"maxiter": cfg.refine_maxiter, "xatol": 1e-4,
                         "fatol": 1e-12},
            )
            evaluations += res.nfev
            if -res.fun > best[0]:
                best = (float(-res.fun), float(res.x[0]), float(res.x[1]))
            trace.append(("refine", 10.0 ** best[1], best[2], best[0],
                          res.nfev))

    return OptimizationResult(
        best_V_A=10.0 ** best[1],
        best_m_fraction=best[2],
        best_key_rate=best[0],
        evaluations=evaluations,
        trace=trace,
    )


def optimize_asymptotic_rate(xi: float, beta: float,
                             T: float | None = None,
                             distance_km: float | None = None,
                             loss_db_per_km: float = 0.2,
                             search: SearchConfig | None = None,
                             include_beta: bool = True) -> OptimizationResult:
    """Maximize the asymptotic rate over V_A only."""
    T = _transmission(T, distance_km, loss_db_per_km)
    cfg = search or SearchConfig()
    b = beta if include_beta else 1.0

    def rate(log_va: float) -> float:
        return key_rate_asymptotic(10.0 ** log_va, T, xi, b).key_rate

    log_vas = [float(v) for v in
               np.linspace(log10(cfg.va_min), log10(cfg.va_max),
                           max(cfg.va_points, 48))]
    ks = [rate(lv) for lv in log_vas]
    i = int(np.argmax(ks))
    best = (ks[i], log_vas[i])
    evaluations = len(ks)
    if cfg.refine and best[0] > 0.0:
        res = minimize(
            lambda v: -rate(v[0]), x0=np.array([best[1]]),
            method="Nelder-Mead",
            bounds=[(log_vas[0], log_vas[-1])],
            options={"maxiter": cfg.refine_maxiter, "xatol": 1e-5,
                     "fatol": 1e-13},
        )
        evaluations += res.nfev
        if -res.fun > best[0]:
            best = (float(-res.fun), float(res.x[0]))
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
                     search: SearchConfig | None = None,
                     d_cap_km: float = 1000.0,
                     resolution_km: float = 0.1) -> MaximumDistanceResult:
    """Largest distance with a positive optimized key rate, by bisection."""
    evaluations = 0

    def positive(d: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        r = optimize_key_rate(xi, beta, N, epsilon_pe, estimator_kind,
                              distance_km=d, loss_db_per_km=loss_db_per_km,
                              convention=convention, search=search)
        return r.best_key_rate > 0.0

    d = _last_positive(positive, d_cap_km, resolution_km)
    return MaximumDistanceResult(0.0 if d is None else d,
                                 positive_at_zero=d is not None,
                                 evaluations=evaluations)


def range_limit_ratio(xi: float, beta: float, N: int,
                      epsilon_pe: float = 1e-10,
                      numerator: EstimatorKind = EstimatorKind.SIGMA2_OPT,
                      denominator: EstimatorKind = EstimatorKind.SIGMA2_MLE,
                      loss_db_per_km: float = 0.2,
                      convention: str = "paper",
                      search: SearchConfig | None = None,
                      resolution_km: float = 5e-4,
                      offsets_km=(0.05, 0.02, 0.01, 0.005, 0.002, 0.001),
                      d_cap_km: float = 1000.0) -> RangeLimitRatio:
    """Ratio of two estimators' optimized rates approaching the range limit.

    The two rate curves vanish within metres of each other, so the
    interesting behaviour lives in the last few metres before the
    denominator's boundary: there its rate goes to zero while the
    numerator's stays finite and the ratio grows without bound. The
    boundary is located by warm-started bisection (continuation seeds keep
    the optimizer from losing the shrinking positive region), then both
    rates are sampled at the given offsets inside it.
    """
    evaluations = 0
    seed_of: dict[EstimatorKind, tuple] = {}

    def opt(kind: EstimatorKind, d: float, extra=()) -> OptimizationResult:
        nonlocal evaluations
        seeds = [s for s in (seed_of.get(kind), *extra) if s is not None]
        r = optimize_key_rate(xi, beta, N, epsilon_pe, kind, distance_km=d,
                              loss_db_per_km=loss_db_per_km,
                              convention=convention, search=search,
                              seeds=seeds)
        evaluations += r.evaluations
        if r.best_key_rate > 0.0:
            seed_of[kind] = (r.best_V_A, r.best_m_fraction)
        return r

    boundary = _last_positive(
        lambda d: opt(denominator, d).best_key_rate > 0.0, d_cap_km,
        resolution_km)
    if boundary is None:
        return RangeLimitRatio(rows=(), boundary_km=0.0,
                               max_ratio=float("nan"),
                               evaluations=evaluations)

    rows = []
    max_ratio = 0.0
    for w in sorted(set(offsets_km), reverse=True) + [0.0]:
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
