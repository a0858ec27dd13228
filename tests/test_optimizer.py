import numpy as np
import pytest

from cvqkd.estimators import EstimatorKind
from cvqkd.optimizer import (
    SearchConfig,
    _last_positive,
    maximum_distance,
    optimize_asymptotic_rate,
    optimize_key_rate,
    range_limit_ratio,
)
from cvqkd.security import key_rate_finite

XI, BETA = 0.01, 0.95

# bisection at 0.1 km resolution, fully deterministic
MAX_DIST_OPT = {10**5: 38.6875, 10**7: 75.4375, 10**9: 117.5625, 10**12: 184.1875}


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(va_min=1.0, va_max=0.5)
    with pytest.raises(ValueError):
        SearchConfig(frac_min=0.5, frac_max=0.5)
    with pytest.raises(ValueError):
        SearchConfig(frac_max=1.0)


def test_optimize_key_rate_requires_one_channel_argument():
    with pytest.raises(ValueError):
        optimize_key_rate(XI, BETA, 10**7)
    with pytest.raises(ValueError):
        optimize_key_rate(XI, BETA, 10**7, T=0.5, distance_km=20.0)


def test_optimize_key_rate_is_deterministic():
    a = optimize_key_rate(XI, BETA, 10**7, distance_km=30.0)
    b = optimize_key_rate(XI, BETA, 10**7, distance_km=30.0)
    assert a.best_key_rate == b.best_key_rate
    assert a.best_V_A == b.best_V_A
    assert a.best_m_fraction == b.best_m_fraction
    assert a.evaluations == b.evaluations


def test_refinement_never_loses_to_the_grid():
    res = optimize_key_rate(XI, BETA, 10**7, distance_km=25.0)
    stage, _, _, grid_rate, _ = res.trace[0]
    assert stage == "grid"
    assert res.best_key_rate >= grid_rate
    assert any(row[0] == "refine" for row in res.trace)
    coarse = optimize_key_rate(XI, BETA, 10**7, distance_km=25.0,
                               search=SearchConfig(refine=False))
    assert coarse.best_key_rate <= res.best_key_rate
    assert all(row[0] != "refine" for row in coarse.trace)


def test_grid_counts_every_cell():
    cfg = SearchConfig(va_points=7, frac_points=5)
    res = optimize_key_rate(XI, BETA, 10**7, distance_km=20.0, search=cfg)
    assert res.trace[0][0] == "grid"
    assert res.trace[0][-1] == 7 * 5
    assert res.evaluations == 7 * 5 + sum(row[-1] for row in res.trace[1:])


def test_optimizer_rejects_an_unphysical_channel():
    with pytest.raises(ValueError):
        optimize_key_rate(XI, BETA, 10**5, T=10.0)


def test_optimum_matches_brute_force_scan():
    """Dense grid evaluation of the same objective agrees within 1%."""
    N = 10**9
    res = optimize_key_rate(XI, BETA, N, distance_km=20.0)
    best = 0.0
    for log_va in np.linspace(-1.0, 2.0, 181):
        va = 10.0 ** log_va
        for frac in np.linspace(1e-3, 0.999, 200):
            m = int(np.floor(frac * N + 0.5))
            k = key_rate_finite(va, 10 ** -0.4, XI, BETA, N, m).key_rate
            best = max(best, k)
    assert res.best_key_rate >= best * (1.0 - 1e-9)
    assert res.best_key_rate == pytest.approx(best, rel=0.01)


def test_noiseless_unit_channel_needs_almost_no_estimation():
    """With nothing to estimate the revealed fraction collapses."""
    res = optimize_key_rate(0.0, BETA, 10**12, T=1.0)
    assert res.best_m_fraction <= 0.01
    ref = BETA * 0.5 * np.log2(1.0 + res.best_V_A)
    assert res.best_key_rate >= 0.98 * ref
    assert res.best_key_rate <= ref + 1e-12


def test_key_rate_monotone_in_distance_and_block_size():
    rates_d = [optimize_key_rate(XI, BETA, 10**7, distance_km=d).best_key_rate
               for d in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)]
    assert all(hi >= lo for hi, lo in zip(rates_d, rates_d[1:]))
    rates_n = [optimize_key_rate(XI, BETA, N, distance_km=30.0).best_key_rate
               for N in (10**5, 10**7, 10**9, 10**12)]
    assert all(lo <= hi for lo, hi in zip(rates_n, rates_n[1:]))


def test_seeds_are_clipped_and_traced():
    res = optimize_key_rate(XI, BETA, 10**7, distance_km=20.0,
                            seeds=[(1000.0, 0.99999)])
    assert any(row[0] == "seed" for row in res.trace)
    unseeded = optimize_key_rate(XI, BETA, 10**7, distance_km=20.0)
    assert res.best_key_rate >= unseeded.best_key_rate - 1e-15


def test_seed_continuation_rescues_boundary_optimum():
    """Near the range limit the positive region is smaller than the grid pitch."""
    N = 10**5
    kind = EstimatorKind.SIGMA2_MLE
    inside = optimize_key_rate(XI, BETA, N, estimator_kind=kind, distance_km=38.5)
    assert inside.best_key_rate > 0.0
    d_edge = 38.7207
    cold = optimize_key_rate(XI, BETA, N, estimator_kind=kind, distance_km=d_edge)
    warm = optimize_key_rate(XI, BETA, N, estimator_kind=kind, distance_km=d_edge,
                             seeds=[(inside.best_V_A, inside.best_m_fraction)])
    assert cold.best_key_rate == 0.0
    assert warm.best_key_rate > 0.0
    assert warm.best_m_fraction > 0.9


def test_optimize_asymptotic_rate_basics():
    res = optimize_asymptotic_rate(XI, BETA, distance_km=50.0)
    again = optimize_asymptotic_rate(XI, BETA, distance_km=50.0)
    assert res.best_key_rate == again.best_key_rate
    assert res.best_key_rate > 0.0
    assert res.best_m_fraction == 0.0
    unscaled = optimize_asymptotic_rate(XI, BETA, distance_km=50.0,
                                        include_beta=False)
    assert unscaled.best_key_rate >= res.best_key_rate
    with pytest.raises(ValueError):
        optimize_asymptotic_rate(XI, BETA)


def test_finite_optimum_below_asymptotic_optimum():
    for d in (0.0, 25.0, 50.0):
        fin = optimize_key_rate(XI, BETA, 10**9, distance_km=d)
        asym = optimize_asymptotic_rate(XI, BETA, distance_km=d)
        assert fin.best_key_rate <= asym.best_key_rate + 1e-12


def test_maximum_distance_frozen_values_and_growth():
    dists = []
    for N, expected in MAX_DIST_OPT.items():
        res = maximum_distance(XI, BETA, N)
        assert res.positive_at_zero
        assert res.distance_km == pytest.approx(expected, abs=1e-9)
        dists.append(res.distance_km)
    assert all(hi > lo for lo, hi in zip(dists, dists[1:]))


def test_maximum_distance_opt_at_least_mle():
    opt = maximum_distance(XI, BETA, 10**5, estimator_kind=EstimatorKind.SIGMA2_OPT)
    mle = maximum_distance(XI, BETA, 10**5, estimator_kind=EstimatorKind.SIGMA2_MLE)
    assert opt.distance_km >= mle.distance_km - 1e-9


def test_maximum_distance_dead_channel():
    res = maximum_distance(100.0, BETA, 10**5)
    assert res.distance_km == 0.0
    assert not res.positive_at_zero


def test_range_search_stops_at_the_cap():
    """Both range searches report the cap after the same probes."""
    res = maximum_distance(XI, BETA, 10**5, d_cap_km=3.0)
    assert res.distance_km == 3.0 and res.positive_at_zero
    assert res.evaluations == 4  # 0, 1, 2 and 3 km
    rr = range_limit_ratio(XI, BETA, 10**5, d_cap_km=3.0)
    assert rr.boundary_km == 3.0
    assert [row[0] for row in rr.rows] == [2.95, 2.98, 2.99, 2.995, 2.998,
                                           2.999, 3.0]
    assert rr.evaluations == 12757


def test_range_search_below_one_km_never_probes_past_the_cap():
    for limit in (0.3, 10.0):
        probes = []

        def positive(d):
            probes.append(d)
            return d <= limit

        d = _last_positive(positive, 0.5, 1e-3)
        assert max(probes) <= 0.5 and d <= 0.5
        assert d == (pytest.approx(limit, abs=1e-3) if limit < 0.5 else 0.5)


def test_range_limit_ratio_structure():
    rr = range_limit_ratio(XI, BETA, 10**5)
    assert 38.0 < rr.boundary_km < 39.5
    dists = [row[0] for row in rr.rows]
    assert dists == sorted(dists)
    assert dists[-1] == rr.boundary_km
    for d, k_den, k_num, ratio, f_den, f_num in rr.rows:
        assert k_den > 0.0
        # the numerator estimator is never worse at the same distance
        assert k_num >= k_den - 1e-15
        assert ratio >= 1.0 - 1e-12
        assert 0.0 < f_den < 1.0 and 0.0 < f_num < 1.0
    assert rr.max_ratio == max(row[3] for row in rr.rows)
    assert rr.max_ratio == rr.rows[-1][3]


def test_range_limit_ratio_grows_near_boundary():
    """The rate ratio diverges as the weaker estimator's rate vanishes."""
    rr = range_limit_ratio(XI, BETA, 10**5)
    ratios = [row[3] for row in rr.rows]
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))
    assert rr.max_ratio >= 2.0


def test_range_limit_ratio_fraction_approaches_one():
    """Both estimators reveal almost everything at the very edge."""
    rr = range_limit_ratio(XI, BETA, 10**5)
    assert rr.rows[-1][4] >= 0.99
    assert rr.rows[-1][5] >= 0.99
    own = range_limit_ratio(XI, BETA, 10**5,
                            numerator=EstimatorKind.SIGMA2_OPT,
                            denominator=EstimatorKind.SIGMA2_OPT)
    assert own.boundary_km >= rr.boundary_km - 1e-9
    assert own.rows[-1][4] >= 0.99


def test_range_limit_ratio_dead_channel():
    rr = range_limit_ratio(100.0, BETA, 10**5)
    assert rr.rows == ()
    assert rr.boundary_km == 0.0
    assert np.isnan(rr.max_ratio)
