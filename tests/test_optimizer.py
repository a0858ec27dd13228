import inspect
import sys
import warnings
from math import floor, log10

import numpy as np
import pytest

from cvqkd.channel import fiber_transmission
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import EstimatorKind
from cvqkd.optimizer import (
    _BOUNDS,
    _FRACS,
    _GRID_TOL,
    _GRID_VAS,
    _LOG_VAS,
    _MAXITER,
    _RANK_BLOCK,
    _last_positive,
    _nelder_mead_1d,
    _nelder_mead_2d,
    _round_m,
    maximum_distance,
    optimize_asymptotic_rate,
    optimize_key_rate,
    optimize_key_rates,
    range_limit_ratio,
)
from cvqkd import optimizer, security
from cvqkd.security import (
    KEY_RATE_ESTIMATORS,
    _rate_grid,
    confidence_quantile,
    key_rate_asymptotic,
    key_rate_finite,
)
from reference_rate import search_rate

XI, BETA = 0.01, 0.95

# bisection at 0.1 km resolution, fully deterministic
MAX_DIST_OPT = {10**5: 38.6875, 10**7: 75.4375, 10**9: 117.5625, 10**12: 184.1875}


def test_optimize_key_rate_fixes_the_quantile_and_kind_once(monkeypatch):
    """The grid and the scalar search share one z and one kind: one
    optimization computes each once, polish included. The float rate
    computes sigma2 once per transmission and kind, not once per
    evaluation; the grid looks each kind's form up in the variance table
    ("form") and computes sigma2 once per block of transmissions, every
    kind of the block at once."""
    calls = dict.fromkeys(("z", "kind", "sigma2", "form"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_table(name, table):
        class CountedTable(dict):
            def __getitem__(self, kind):
                calls[name] += 1
                return super().__getitem__(kind)
        return CountedTable(table)

    for module in (optimizer, security):
        monkeypatch.setattr(module, "confidence_quantile",
                            counted("z", confidence_quantile))
        monkeypatch.setattr(module, "_key_rate_kind",
                            counted("kind", security._key_rate_kind))
    monkeypatch.setattr(security, "_sigma2",
                        counted("sigma2", security._sigma2))
    monkeypatch.setattr(security, "_VARIANCE",
                        counted_table("form", security._VARIANCE))
    res = optimize_key_rate(XI, BETA, 10**7, T=fiber_transmission(30.0))
    assert res.best_key_rate > 0.0
    assert calls == {"z": 1, "kind": 1, "sigma2": 2, "form": 1}

    calls.update(dict.fromkeys(calls, 0))
    Ts = [fiber_transmission(d) for d in (10.0, 30.0, 50.0)]
    results = optimize_key_rates(XI, BETA, 10**7, Ts=Ts)
    # the three kinds of the three transmissions fit one block
    assert len(Ts) <= _RANK_BLOCK
    assert all(r.evaluations > 576 + 20 for r, in results)
    assert calls == {"z": 1, "kind": 1, "sigma2": 1 + len(Ts), "form": 1}

    # the table: one z per call, one kind check and one float rate per
    # transmission for each kind, and one grid call per block for all
    calls.update(dict.fromkeys(calls, 0))
    table = optimize_key_rates(XI, BETA, 10**7, 1e-10, KEY_RATE_ESTIMATORS,
                               Ts=Ts)
    assert [len(row) for row in table] == [3] * len(Ts)
    assert all(r.evaluations > 576 + 20 for row in table for r in row)
    assert calls == {"z": 1, "kind": 3, "sigma2": 3 * len(Ts) + 1,
                     "form": 3}


def test_optimize_key_rate_is_deterministic():
    a = optimize_key_rate(XI, BETA, 10**7, T=fiber_transmission(30.0))
    b = optimize_key_rate(XI, BETA, 10**7, T=fiber_transmission(30.0))
    assert a.best_key_rate == b.best_key_rate
    assert a.best_V_A == b.best_V_A
    assert a.best_m_fraction == b.best_m_fraction
    assert a.evaluations == b.evaluations


def test_refinement_never_loses_to_the_grid():
    res = optimize_key_rate(XI, BETA, 10**7, T=fiber_transmission(25.0))
    stage, _, _, grid_rate, _ = res.trace[0]
    assert stage == "grid"
    assert res.best_key_rate >= grid_rate
    assert any(row[0] == "refine" for row in res.trace)


def test_grid_counts_every_cell():
    res = optimize_key_rate(XI, BETA, 10**7, T=fiber_transmission(20.0))
    assert res.trace[0][0] == "grid"
    assert res.trace[0][-1] == len(_LOG_VAS) * len(_FRACS) == 576
    assert res.evaluations == 576 + sum(row[-1] for row in res.trace[1:])


def test_grid_best_rescores_every_cell_within_the_grid_tolerance():
    """The float rate's best cell can sit just below the array's top cell,
    the two paths differing by up to _GRID_TOL each: on a synthetic
    576-cell row and a stub float rate, the cell 1e-12 below the top one
    is the float best, and _grid_best finds it."""
    N = 10**5
    n = len(_FRACS)
    cell = {(10.0 ** _LOG_VAS[i // n], _round_m(_FRACS[i % n], N)): i
            for i in range(len(_LOG_VAS) * n)}
    assert len(cell) == 576
    top, near = 300, 17
    raw = np.full(576, -1.0)
    raw[top], raw[near] = 0.5, 0.5 - 1e-12
    # each float rate within 0.6e-12 of its array rate
    floats = dict(enumerate(raw.tolist()))
    floats[top], floats[near] = 0.5 - 0.6e-12, 0.5 - 0.4e-12

    def rate(V_A, m):
        return (floats[cell[V_A, m]],)

    assert optimizer._grid_best(raw, rate, N) == (
        floats[near], _LOG_VAS[near // n], _FRACS[near % n])


def test_grid_best_reads_a_nan_cell_as_the_row_max_does():
    """A NaN cell makes the row's top NaN, as raw.max() makes it, so no
    cell compares with it and _grid_best re-scores cell 0 alone, even
    beside a positive cell."""
    raw = np.full(576, -1.0)
    raw[300], raw[17] = 0.5, np.nan
    scored = []

    def rate(V_A, m):
        scored.append((V_A, m))
        return (-1.0,)

    assert optimizer._grid_best(raw, rate, 10**5) == (
        -1.0, _LOG_VAS[0], _FRACS[0])
    assert scored == [(10.0 ** _LOG_VAS[0], _round_m(_FRACS[0], 10**5))]


def test_optimizer_rejects_an_unphysical_channel():
    with pytest.raises(ValueError):
        optimize_key_rate(XI, BETA, 10**5, T=10.0)


def test_optimum_matches_brute_force_scan():
    """Dense grid evaluation of the same objective agrees within 1%."""
    # _round_m is the builtin min(max(...)) form, at the clamps and on ties
    for n in (2, 3, 2**53 + 1):
        for frac in (0.0, -0.0, -1.0, 0.5 / n, 0.5, 1.0 - 0.5 / n, 1.0, 2.0,
                     *((k + 0.5) / n for k in range(min(n, 4)))):
            assert _round_m(frac, n) == min(max(floor(frac * n + 0.5), 2),
                                            n - 1)
    N = 10**9
    res = optimize_key_rate(XI, BETA, N, T=fiber_transmission(20.0))
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
    rates_d = [optimize_key_rate(XI, BETA, 10**7,
                                 T=fiber_transmission(d)).best_key_rate
               for d in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)]
    assert all(hi >= lo for hi, lo in zip(rates_d, rates_d[1:]))
    rates_n = [optimize_key_rate(XI, BETA, N,
                                 T=fiber_transmission(30.0)).best_key_rate
               for N in (10**5, 10**7, 10**9, 10**12)]
    assert all(lo <= hi for lo, hi in zip(rates_n, rates_n[1:]))


def _ranked(N, kind, T):
    """(grid rates, float rate) of one transmission, as
    range_limit_ratio hands them to the seeded search."""
    [(raw, rate)], = optimizer._ranked_grids(
        XI, BETA, N, confidence_quantile(1e-10), [kind], [T],
        optimizer._grid_ms(N))
    return raw, rate


def test_seeds_are_clipped_and_traced():
    T = fiber_transmission(20.0)
    res = optimizer._optimize_ranked(*_ranked(10**7, EstimatorKind.SIGMA2_OPT,
                                              T), 10**7, [(1000.0, 0.99999)])
    seed_rows = [row for row in res.trace if row[0] == "seed"]
    assert seed_rows == [("seed", 10.0 ** _LOG_VAS[-1], _FRACS[-1],
                          seed_rows[0][3], 1)]
    unseeded = optimize_key_rate(XI, BETA, 10**7, T=T)
    assert res.best_key_rate >= unseeded.best_key_rate - 1e-15


def test_seed_continuation_rescues_boundary_optimum():
    """Near the range limit the positive region is smaller than the grid pitch."""
    N = 10**5
    kind = EstimatorKind.SIGMA2_MLE
    inside = optimize_key_rate(XI, BETA, N, estimator_kind=kind,
                               T=fiber_transmission(38.5))
    assert inside.best_key_rate > 0.0
    T_edge = fiber_transmission(38.7207)
    cold = optimize_key_rate(XI, BETA, N, estimator_kind=kind, T=T_edge)
    warm = optimizer._optimize_ranked(
        *_ranked(N, kind, T_edge), N,
        [(inside.best_V_A, inside.best_m_fraction)])
    assert cold.best_key_rate == 0.0
    assert warm.best_key_rate > 0.0
    assert warm.best_m_fraction > 0.9


def _python_calls(run):
    """(run's result, the Python call events it makes)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        res = run()
    finally:
        sys.setprofile(None)
    return res, calls


def test_polish_runs_few_python_frames_per_evaluation():
    """Each polish evaluation of the float rate runs 2 Python frames at
    the optimal estimator: the built rate, which writes Var(t_hat), the
    sigma2 variance, the corner's hold and I_AB out, and its Holevo term;
    the polish maps its coordinates to (V_A, m) inline. A frame added per
    evaluation, a wrapper or a helper split out again, costs time on
    every one; counting Python call events, with no clock, catches it."""
    N = 10**5
    raw, rate = _ranked(N, EstimatorKind.SIGMA2_OPT, fiber_transmission(20.0))
    res, calls = _python_calls(
        lambda: optimizer._optimize_ranked(raw, rate, N, ()))
    polished = sum(row[4] for row in res.trace if row[0] == "refine")
    assert polished > 20
    # the grid re-score and the polish's own frames are a few dozen calls
    assert calls <= 3 * polished


def test_asymptotic_search_runs_few_python_frames_per_evaluation():
    """Each evaluation of the asymptotic search, grid and polish, runs 2
    Python frames: the built rate, which writes I_AB and the channel's
    (a, b, c) out, and its Holevo term."""
    res, calls = _python_calls(
        lambda: optimize_asymptotic_rate(XI, BETA, fiber_transmission(20.0)))
    assert res.evaluations > len(optimizer._ASYMPTOTIC_LOG_VAS) + 20
    assert calls <= 3 * res.evaluations


# one figure column, the default distances: 41 = 5 blocks of 8 and a
# ragged tail of 1, ending past the range limit of every N below
COLUMN_KM = [float(d) for d in range(0, 201, 5)]


def _ranked_rows(monkeypatch, block, N, kind):
    """The grid rates optimize_key_rates ranks for COLUMN_KM, per
    transmission, with the column cut into blocks of ``block``."""
    rows = []
    ranked = optimizer._optimize_ranked

    def spy(raw, rate, N, seeds):
        rows.append(raw)
        return ranked(raw, rate, N, seeds)

    monkeypatch.setattr(optimizer, "_optimize_ranked", spy)
    monkeypatch.setattr(optimizer, "_RANK_BLOCK", block)
    Ts = [fiber_transmission(d) for d in COLUMN_KM]
    results = [r for r, in optimize_key_rates(XI, BETA, N,
                                               estimator_kinds=[kind], Ts=Ts)]
    monkeypatch.undo()
    assert len(rows) == len(results) == len(Ts)
    return Ts, rows, results


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_column_ranking_matches_per_transmission_kernel_calls(monkeypatch,
                                                              kind):
    """Blocks of 1, of _RANK_BLOCK with a ragged tail, and the whole
    column rank with the raw rates of one 2-D _rate_grid call per
    transmission, bit for bit, far distances with no positive rate
    included; the results are those of optimize_key_rate at each
    transmission."""
    assert len(COLUMN_KM) % _RANK_BLOCK == 1
    z = confidence_quantile(1e-10)
    for N in (10**5, 10**12):
        ms = np.array([_round_m(fr, N) for fr in _FRACS], dtype=float)
        runs = [_ranked_rows(monkeypatch, block, N, kind)
                for block in (1, _RANK_BLOCK, len(COLUMN_KM))]
        Ts = runs[0][0]
        for i, T in enumerate(Ts):
            ref = _rate_grid(_GRID_VAS, T, XI, BETA, N, ms[None, :], z,
                             [kind]).ravel()
            for _, rows, results in runs:
                assert rows[i].tobytes() == ref.tobytes()
                assert repr(results[i]) == repr(runs[0][2][i])
        # the farthest transmission has no positive rate in its grid
        assert np.max(runs[0][1][-1]) < 0.0
        assert runs[0][2][-1].best_key_rate == 0.0
        single = optimize_key_rate(XI, BETA, N, estimator_kind=kind,
                                   T=Ts[7])
        assert repr(single) == repr(runs[1][2][7])


def test_column_ranking_stays_within_the_grid_tolerance():
    """Over the default grids, each block size of the default n_list, each
    kind, ranked together as the table ranks them, and the 41 distances
    of COLUMN_KM, every ranked cell's array rate
    is its float raw rate within 1e-13 (the measured maximum is 5.4e-14),
    which _GRID_TOL bounds with room; and _grid_best re-scores 729 cells
    of those 492 grids with the float rate, which a looser _GRID_TOL would
    raise."""
    z = confidence_quantile(1e-10)
    Ts = [fiber_transmission(d) for d in COLUMN_KM]
    gap, rescored = 0.0, []
    for N in ExperimentConfig().n_list:
        for row in optimizer._ranked_grids(XI, BETA, N, z, KEY_RATE_ESTIMATORS,
                                           Ts, optimizer._grid_ms(N)):
            for raw, rate in row:
                floats = np.array([rate(10.0 ** lv, _round_m(fr, N))[1]
                                   for lv in _LOG_VAS for fr in _FRACS])
                gap = max(gap, np.max(np.abs(raw - floats)))

                def counted(V_A, m, rate=rate):
                    rescored.append((V_A, m))
                    return rate(V_A, m)
                optimizer._grid_best(raw, counted, N)
    assert gap <= 1e-13 < _GRID_TOL
    assert len(rescored) == 729


def test_one_failed_cell_fails_its_block():
    """T > 1 in the middle of a block is not physical: the column raises
    the grid's error, as a single transmission does."""
    Ts = [fiber_transmission(d) for d in range(0, 50, 5)]
    Ts[3] = 10.0
    with pytest.raises(ValueError, match="on the rate grid"):
        optimize_key_rates(XI, BETA, 10**5, Ts=Ts)
    with pytest.raises(ValueError, match="on the rate grid"):
        optimize_key_rate(XI, BETA, 10**5, T=10.0)


def test_a_kind_listed_twice_gets_the_same_optimum_twice():
    """Each kind is crossed with the other kinds' optima at its
    transmission: a kind listed twice gets one result in both places, the
    one the table without its twin gives; with one kind there is nothing
    to cross and each result is optimize_key_rate's; with none there is
    no table."""
    N = 10**5
    Ts = [fiber_transmission(d) for d in (0.0, 20.0, 38.5)]
    mle, opt = EstimatorKind.SIGMA2_MLE, EstimatorKind.SIGMA2_OPT
    table = optimize_key_rates(XI, BETA, N, 1e-10, [mle, "sigma2_mle", opt],
                               Ts=Ts)
    pairs = optimize_key_rates(XI, BETA, N, 1e-10, [mle, opt], Ts=Ts)
    for row, (r_mle, r_opt) in zip(table, pairs):
        assert repr(row) == repr([r_mle, r_mle, r_opt])
    for T, (r_mle,) in zip(Ts, optimize_key_rates(XI, BETA, N, 1e-10,
                                                    [mle], Ts=Ts)):
        assert repr(r_mle) == repr(optimize_key_rate(
            XI, BETA, N, estimator_kind=mle, T=T))
    with pytest.raises(ValueError, match="estimator_kinds must not be empty"):
        optimize_key_rates(XI, BETA, N, 1e-10, [], Ts=Ts)


def test_optimize_asymptotic_rate_basics():
    T = fiber_transmission(50.0)
    res = optimize_asymptotic_rate(XI, BETA, T)
    again = optimize_asymptotic_rate(XI, BETA, T)
    assert res.best_key_rate == again.best_key_rate
    assert res.best_key_rate > 0.0
    assert res.best_m_fraction == 0.0
    unscaled = optimize_asymptotic_rate(XI, 1.0, T)
    assert unscaled.best_key_rate >= res.best_key_rate
    for xi, T in ((-0.01, 0.5), (XI, -0.5)):
        with pytest.raises(ValueError, match="T and xi must be >= 0"):
            optimize_asymptotic_rate(xi, BETA, T)


def test_finite_optimum_below_asymptotic_optimum():
    for d in (0.0, 25.0, 50.0):
        fin = optimize_key_rate(XI, BETA, 10**9, T=fiber_transmission(d))
        asym = optimize_asymptotic_rate(XI, BETA, fiber_transmission(d))
        assert fin.best_key_rate <= asym.best_key_rate + 1e-12


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_small_blocks_reveal_two_states(kind):
    """Below N = 2000 the grid's m/N floor of 1e-3 rounds below m = 2. One
    revealed state leaves no noise estimate (t_hat fits it exactly, and
    sigma2's variance bound has zero width), so the optimizer reveals at
    least two: no optimum passes the asymptotic rate at its V_A, and the
    range grows with N."""
    for N in (3, 10, 1000, 1999):
        for d in (0.0, 5.0, 50.0):
            T = fiber_transmission(d)
            res = optimize_key_rate(XI, BETA, N, estimator_kind=kind, T=T)
            assert _round_m(res.best_m_fraction, N) >= 2
            asym = key_rate_asymptotic(res.best_V_A, T, XI, BETA).key_rate
            assert res.best_key_rate <= asym, (N, d, res, asym)
    dists = [maximum_distance(XI, BETA, N, estimator_kind=kind).distance_km
             for N in (10, 1000, 1500, 1999, 10**5)]
    assert dists == sorted(dists) and dists[0] == 0.0, dists


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


@pytest.mark.parametrize("convention", ["paper", "gaussian"])
def test_range_probe_signs_match_the_polished_optimum(monkeypatch,
                                                      convention):
    """maximum_distance decides each probe from the re-scored grid alone;
    at every distance it probes, that sign is the sign of
    optimize_key_rate's polished optimum there: the default n_list with
    every key-rate kind, a search stopped at a 3 km cap and a dead
    channel."""
    real = optimizer._last_positive
    probes = []

    def recording(probe, resolution_km):
        def recorded(d):
            k = probe(d)
            probes.append((d, k > 0.0))
            return k
        return real(recorded, resolution_km)

    monkeypatch.setattr(optimizer, "_last_positive", recording)
    ladder, capped = optimizer._LADDER, [0.0, 1.0, 2.0, 3.0]
    cases = [(XI, N, kind, ladder) for N in ExperimentConfig().n_list
             for kind in KEY_RATE_ESTIMATORS]
    cases += [(XI, 10**5, EstimatorKind.SIGMA2_OPT, capped),
              (100.0, 10**5, EstimatorKind.SIGMA2_OPT, ladder)]
    signs = set()
    for xi, N, kind, rungs in cases:
        probes.clear()
        monkeypatch.setattr(optimizer, "_LADDER", rungs)
        res = maximum_distance(xi, BETA, N, estimator_kind=kind,
                               convention=convention)
        assert res.evaluations == len(probes) > 0
        for d, sign in probes:
            best = optimize_key_rate(xi, BETA, N, estimator_kind=kind,
                                     T=fiber_transmission(d),
                                     convention=convention).best_key_rate
            assert sign == (best > 0.0), (xi, N, kind, rungs[-1], d, best)
            signs.add(sign)
    assert probes == [(0.0, False)]
    assert signs == {False, True}


def test_maximum_distance_dead_channel():
    res = maximum_distance(100.0, BETA, 10**5)
    assert res.distance_km == 0.0
    assert not res.positive_at_zero


def test_range_search_stops_at_the_cap(monkeypatch):
    """Both range searches report the cap, the ladder's last rung, after
    the same probes."""
    monkeypatch.setattr(optimizer, "_LADDER", [0.0, 1.0, 2.0, 3.0])
    res = maximum_distance(XI, BETA, 10**5)
    assert res.distance_km == 3.0 and res.positive_at_zero
    assert res.evaluations == 4  # 0, 1, 2 and 3 km
    rr = range_limit_ratio(XI, BETA, 10**5)
    assert rr.boundary_km == 3.0
    assert [row[0] for row in rr.rows] == [2.95, 2.98, 2.99, 2.995, 2.998,
                                           2.999, 3.0]
    assert rr.evaluations == 12757


def test_range_search_below_one_km_never_probes_past_the_cap():
    """The search brackets a limit below the first rung, or between two,
    to its resolution, and reports the cap when it is never insecure."""
    cap = optimizer._LADDER[-1]
    assert cap == 1000.0
    for limit in (0.3, 10.0, 2 * cap):
        probes = []

        def probe(d):
            probes.append(d)
            return 1.0 if d <= limit else 0.0

        d, positive_at_zero, count = _last_positive(probe, 1e-3)
        assert positive_at_zero and count == len(probes)
        assert max(probes) <= cap and d <= cap
        assert d == (pytest.approx(limit, abs=1e-3) if limit < cap else cap)
        assert (probes == optimizer._LADDER) == (limit > cap)


@pytest.mark.parametrize("k0, expected", [
    (float("nan"), "nan"), (0.0, 0.0), (-0.0, 0.0), (-1e-3, 0.0)])
def test_range_search_without_a_range_probes_once(k0, expected):
    """A rate at 0 km that is not positive gives no range after one probe:
    0 km, or NaN when that rate is NaN."""
    probes = []

    def probe(d):
        probes.append(d)
        return k0

    d, positive_at_zero, count = _last_positive(probe, 0.1)
    assert (repr(d), positive_at_zero, count) == (repr(float(expected)),
                                                   False, 1)
    assert probes == [0.0]


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
                            denominator=EstimatorKind.SIGMA2_OPT)
    assert own.boundary_km >= rr.boundary_km - 1e-9
    assert own.rows[-1][4] >= 0.99


def test_range_limit_ratio_dead_channel():
    rr = range_limit_ratio(100.0, BETA, 10**5)
    assert rr.rows == ()
    assert rr.boundary_km == 0.0
    assert np.isnan(rr.max_ratio)


# probes of maximum_distance at the default n_list
MAX_DIST_PROBES = {10**5: 17, 10**7: 19, 10**9: 19, 10**12: 21}

# the three range_limit_ratio calls of the range_limit benchmark, bit for
# bit: boundary_km and max_ratio, evaluations, then each row's six fields
RATIO_PINS = {
    (10**5, EstimatorKind.SIGMA2_MLE): (
        "0x1.35c4000000000p+5 0x1.7354ef3158f31p+3", 23592, (
            "0x1.355d99999999ap+5 0x1.aa71e3d8a6e98p-23 0x1.be9f2c831db23p-23 "
            "0x1.0c1cc838ad18ep+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.359b0a3d70a3dp+5 0x1.57251023978d5p-24 0x1.7f8cb9368b439p-24 "
            "0x1.1e24cae6b9b31p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35af851eb851fp+5 0x1.5adb948df3b64p-25 0x1.abb3d3936c8b4p-25 "
            "0x1.3baaf67ccede4p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872ap-1",
            "0x1.35b9c28f5c28fp+5 0x1.626f94038d4fep-26 0x1.021426e05a1cbp-25 "
            "0x1.74ceb0dfb556fp+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35bfe76c8b439p+5 0x1.2dd47c447ae15p-27 0x1.38a81b6fd70a4p-26 "
            "0x1.092ec6feaf3a1p+1 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35c1f3b645a1dp+5 0x1.4c5487fe978d5p-28 0x1.e9a96a17df3b6p-27 "
            "0x1.7932041728858p+1 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35c4000000000p+5 0x1.e820c2db22d0fp-31 0x1.6204b69c18937p-27 "
            "0x1.7354ef3158f31p+3 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
        )),
    (10**5, EstimatorKind.SIGMA2_OPT): (
        "0x1.35c9000000000p+5 0x1.0000000000000p+0", 23648, (
            "0x1.356299999999ap+5 0x1.a9dd944f5b22dp-23 0x1.a9dd944f5b22dp-23 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35a00a3d70a3dp+5 0x1.561c2f0d4fdf4p-24 0x1.561c2f0d4fdf4p-24 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35b4851eb851fp+5 0x1.58df18d256042p-25 0x1.58df18d256042p-25 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35bec28f5c28fp+5 0x1.5e8b6d991eb85p-26 0x1.5e8b6d991eb85p-26 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35c4e76c8b439p+5 0x1.2625d4f6d9169p-27 0x1.2625d4f6d9169p-27 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35c6f3b645a1dp+5 0x1.3d0851f2b020cp-28 0x1.3d0851f2b020cp-28 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
            "0x1.35c9000000000p+5 0x1.6e47d520c49bbp-31 0x1.6e47d520c49bbp-31 "
            "0x1.0000000000000p+0 0x1.ff7ced916872bp-1 0x1.ff7ced916872bp-1",
        )),
    (10**9, EstimatorKind.SIGMA2_OPT): (
        "0x1.d65f800000000p+6 0x1.0000530983f2ep+0", 26070, (
            "0x1.d62c4cccccccdp+6 0x1.105d0cd363be1p-22 0x1.105d0cd363be1p-22 "
            "0x1.0000000000000p+0 0x1.beee086519840p-1 0x1.beee086519840p-1",
            "0x1.d64b051eb851fp+6 0x1.b7a9cd9479a7ep-25 0x1.b7a9cd9479a7ep-25 "
            "0x1.0000000000000p+0 0x1.e01e9cb7df5c0p-1 0x1.e01e9cb7df5c0p-1",
            "0x1.d655428f5c28fp+6 0x1.19a1afb9f1997p-26 0x1.19a1b01d74a8fp-26 "
            "0x1.0000005a748c6p+0 0x1.ed5724e36c32dp-1 0x1.ed622edaed97ep-1",
            "0x1.d65a6147ae148p+6 0x1.9eade88efe57ep-28 0x1.9eae03aff95f4p-28 "
            "0x1.000010bf720cap+0 0x1.f482d678a2890p-1 0x1.f47828cae183cp-1",
            "0x1.d65d73b645a1dp+6 0x1.301d155d66472p-29 0x1.301d155d66472p-29 "
            "0x1.0000000000000p+0 0x1.f8f16e9dc85f6p-1 0x1.f8f16e9dc85f6p-1",
            "0x1.d65e79db22d0ep+6 0x1.73444e285a3abp-30 0x1.7344c6954c54bp-30 "
            "0x1.0000530983f2ep+0 0x1.fa74e91bad2fep-1 0x1.fa7cefc290b8cp-1",
            "0x1.d65f800000000p+6 0x1.7fe57c2636d8ep-31 0x1.7fe57c2636d8ep-31 "
            "0x1.0000000000000p+0 0x1.fc06c8385b1f9p-1 0x1.fc06c8385b1f9p-1",
        )),
}


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def test_maximum_distance_probe_counts_are_frozen():
    for N, probes in MAX_DIST_PROBES.items():
        assert maximum_distance(XI, BETA, N).evaluations == probes


@pytest.mark.parametrize("N, denominator", list(RATIO_PINS))
def test_range_limit_ratio_is_frozen_bit_for_bit(N, denominator):
    head, evaluations, rows = RATIO_PINS[N, denominator]
    rr = range_limit_ratio(XI, BETA, N, denominator=denominator)
    assert _hex((rr.boundary_km, rr.max_ratio)) == head
    assert rr.evaluations == evaluations
    assert [_hex(row) for row in rr.rows] == list(rows)


# _rate_grid calls and grids ranked, kinds times transmissions, by each
# benchmark ratio call: one call a block of up to 8 ladder rungs, one a
# bisection probe, and at the sampled offsets one call for the offsets
# both kinds lack, stacked, and one for those only the numerator lacks
RATIO_RANKINGS = {(10**5, EstimatorKind.SIGMA2_MLE): (19, 37),
                  (10**5, EstimatorKind.SIGMA2_OPT): (18, 30),
                  (10**9, EstimatorKind.SIGMA2_OPT): (20, 35)}


def test_range_searches_rank_only_the_grids_they_need(monkeypatch):
    """A maximum_distance probe decided by the carried positive cell ranks
    no grid; range_limit_ratio ranks its ladder and sampled offsets in
    blocks of up to _RANK_BLOCK transmissions, each (estimator, distance)
    pair once."""
    grids = []

    def counting(V_A, T, xi, beta, N, m, z, kinds):
        grids.append(len(kinds) * T.shape[0])
        return _rate_grid(V_A, T, xi, beta, N, m, z, kinds)

    monkeypatch.setattr(optimizer, "_rate_grid", counting)
    for N, probes in MAX_DIST_PROBES.items():
        grids.clear()
        assert maximum_distance(XI, BETA, N).evaluations == probes
        assert sum(grids) == len(grids) < probes
    for (N, denominator), (calls, ranked) in RATIO_RANKINGS.items():
        grids.clear()
        range_limit_ratio(XI, BETA, N, denominator=denominator)
        assert (len(grids), sum(grids)) == (calls, ranked)
        assert max(grids) <= 2 * _RANK_BLOCK


# Nelder-Mead polishes run by each benchmark ratio call; 43 / 45 / 58, 22
# of them repeats, when each search polished its starts afresh
RATIO_POLISHES = {(10**5, EstimatorKind.SIGMA2_MLE): 43,
                  (10**5, EstimatorKind.SIGMA2_OPT): 33,
                  (10**9, EstimatorKind.SIGMA2_OPT): 48}


def test_range_limit_ratio_polishes_each_start_once(monkeypatch):
    """range_limit_ratio keeps each (estimator, distance) point's polishes,
    one float rate built per point, so it polishes no start of a point
    twice: not the boundary searched again at offset 0, not a seed at its
    point's best grid cell and not sigma2_opt's own point when it is the
    denominator too. A reused polish still counts its evaluations, which
    RATIO_PINS freezes."""
    starts = []
    polish = optimizer._nelder_mead_2d

    def spy(rate, N, x0, y0, *args, **kwargs):
        starts.append((rate, x0, y0))
        return polish(rate, N, x0, y0, *args, **kwargs)

    monkeypatch.setattr(optimizer, "_nelder_mead_2d", spy)
    for (N, denominator), count in RATIO_POLISHES.items():
        starts.clear()
        range_limit_ratio(XI, BETA, N, denominator=denominator)
        assert len(starts) == len(set(starts)) == count


@pytest.mark.parametrize("xi, beta", [(float("nan"), BETA),
                                      (XI, float("nan"))])
def test_nan_inputs_give_a_nan_range(xi, beta):
    """A NaN rate at 0 km gives a NaN range, as it gives a NaN optimum,
    not a made-up 0 km one."""
    res = maximum_distance(xi, beta, 10**5)
    assert np.isnan(res.distance_km)
    assert not res.positive_at_zero and res.evaluations == 1
    rr = range_limit_ratio(xi, beta, 10**5)
    assert np.isnan(rr.boundary_km) and np.isnan(rr.max_ratio)
    assert rr.rows == () and rr.evaluations == len(_LOG_VAS) * len(_FRACS)


def _scipy_nelder_mead(f, x0, bounds, maxiter, xatol, fatol):
    # the reference the in-package polish retraces; the package itself
    # never imports scipy.optimize
    from scipy.optimize import minimize

    res = minimize(f, x0=np.array(x0), method="Nelder-Mead", bounds=bounds,
                   options={"maxiter": maxiter, "xatol": xatol,
                            "fatol": fatol})
    return [float(v) for v in res.x], float(res.fun), res.nfev


def _polish(rate, N, x0, bounds, maxiter, xatol, fatol):
    # rate is a built rate: the finite-size one on (V_A, m) at block size
    # N, or the asymptotic one on V_A when N is None. The polishes take it
    # as it is and map their coordinates at their one evaluation site; the
    # returned key is the same mapped function of a list of floats, the
    # key rate at 10**x and, in two coordinates, _round_m(y, N). The
    # polishes take the key rate at the start clipped to the box as numpy
    # clips it. Returns (x, key rate, evaluations, key).
    if N is None:
        def key(v):
            return rate(10.0 ** v[0])[0]
    else:
        search = search_rate(rate, N)

        def key(v):
            return search(*v)
    start = [float(v) for v in np.clip(x0, *np.array(bounds).T)]
    if N is None:
        *x, fun, nfev = _nelder_mead_1d(rate, *x0, key(start), *bounds,
                                        maxiter, xatol, fatol)
    else:
        *x, fun, nfev = _nelder_mead_2d(rate, N, *x0, key(start), bounds,
                                        maxiter, xatol, fatol)
    return x, fun, nfev, key


def _assert_same_run(rate, N, x0, bounds, maxiter, xatol, fatol):
    # scipy minimizes the polish's key, negated
    x, fun, nfev, key = _polish(rate, N, x0, bounds, maxiter, xatol, fatol)
    ref_x, ref_fun, ref_nfev = _scipy_nelder_mead(
        lambda v: -key([float(c) for c in v]), x0, bounds, maxiter, xatol,
        fatol)
    assert [v.hex() for v in x] == [v.hex() for v in ref_x]
    assert (-fun).hex() == ref_fun.hex()
    assert nfev == ref_nfev
    return nfev


def _key_rate_runs():
    """The polish on its objective: random channels, block sizes,
    estimators and conventions; starts on the optimum's slope, on the
    zero-rate plateau (ties), at a zero coordinate and at the upper bounds
    (reflection). Each run is _assert_same_run's arguments."""
    rng = np.random.default_rng(20261018)
    starts = [None, None, (0.0, None), (None, _BOUNDS[1][1]), (2.0, None)]
    for i in range(250):
        xi = float(rng.choice([0.0, rng.uniform(0.0, 0.1)]))
        beta = float(rng.uniform(0.85, 1.0))
        N = int(10 ** rng.uniform(3.0, 12.0))
        T = fiber_transmission(float(rng.uniform(0.0, 200.0)), 0.2)
        kind = KEY_RATE_ESTIMATORS[i % 3]
        convention = ("paper", "gaussian")[(i // 3) % 2]
        epsilon_pe = float(rng.choice([1e-10, 1e-5]))
        rate = security._rate_at(
            T, xi, beta, N, confidence_quantile(epsilon_pe, convention), kind)
        lv0, fr0 = starts[i % len(starts)] or (None, None)
        x0 = [float(rng.uniform(*_BOUNDS[0])) if lv0 is None else lv0,
              float(rng.uniform(*_BOUNDS[1])) if fr0 is None else fr0]
        maxiter = _MAXITER if i % 10 else 7
        yield rate, N, x0, _BOUNDS, maxiter, 1e-4, 1e-12


def _one_dimension_runs():
    """The asymptotic polish: one coordinate, its own tolerances."""
    rng = np.random.default_rng(7)
    for i in range(200):
        xi = float(rng.uniform(0.0, 0.1))
        beta = float(rng.uniform(0.85, 1.0))
        T = fiber_transmission(float(rng.uniform(0.0, 150.0)), 0.2)
        x0 = [(0.0, 2.0, float(rng.uniform(*_BOUNDS[0])))[min(i % 5, 2)]]
        yield (security._asymptotic_at(T, xi, beta), None, x0, _BOUNDS[:1],
               _MAXITER, 1e-5, 1e-13)


def _tie_runs():
    """Plateaus make ties in every sort; bounds at 0 and starts at -0.0
    exercise numpy's clip and the 0.00025 step; x0 at the upper bound
    exercises the reflection; a sharp valley makes shrink steps, and from
    (0.2, 0.7) a shrink whose first shrunk vertex beats the best one. Each
    f of the search coordinates is handed over as a built rate whose key
    rate is -f back at log10(V_A) and m/N, at N = 2**20."""
    def plateau(v):
        return float(np.round((v[0] - 0.3) ** 2 + (v[1] + 0.2) ** 2, 1))

    def valley(v):
        return abs(v[0] - 0.1) + 100.0 * abs(v[1] - v[0] ** 2)

    def capped(v):
        # flat past the cap: the expansion ties with the reflection
        return -min(sum(v), 0.42)

    cases = [
        (plateau, [0.5, 0.5], [(-1.0, 1.0), (-1.0, 1.0)]),
        (plateau, [-0.0, 0.0], [(0.0, 1.0), (-1.0, -0.0)]),
        (plateau, [1.0, 1.0], [(0.0, 1.0), (0.0, 1.0)]),
        (valley, [0.9, -0.5], [(-1.0, 1.0), (-1.0, 1.0)]),
        (valley, [0.0, 0.0], [(-0.0, 2.0), (0.0, 2.0)]),
        (valley, [0.2, 0.7], [(-1.0, 1.0), (-1.0, 1.0)]),
        (capped, [0.2, 0.2], [(-1.0, 1.0), (-1.0, 1.0)]),
        (capped, [0.4], [(-1.0, 1.0)]),
        (lambda v: -min(v[0], 0.5), [0.4], [(-1.0, 1.0)]),
        (lambda v: 0.0, [0.2, 0.7], [(0.0, 1.0), (0.0, 1.0)]),
        (lambda v: -abs(v[0]), [-0.0], [(-1.0, 0.0)]),
    ]
    for f, x0, bounds in cases:
        for maxiter in (1, 3, 400):
            yield (*_as_rate(f, len(x0)), x0, bounds, maxiter, 1e-4, 1e-12)


def test_nelder_mead_retraces_scipy_on_the_key_rate():
    """x, f(x) and the evaluation count equal scipy's, bit for bit, on the
    polish objective."""
    nfevs = [_assert_same_run(*run) for run in _key_rate_runs()]
    # the runs are real searches, not a start and a stop
    assert np.median(nfevs) > 20


def test_nelder_mead_retraces_scipy_in_one_dimension():
    for run in _one_dimension_runs():
        _assert_same_run(*run)


def test_nelder_mead_retraces_scipy_on_ties_and_signed_zeros():
    for run in _tie_runs():
        _assert_same_run(*run)


def test_the_retrace_runs_reach_every_line_of_the_polishes():
    """Every line of both polishes runs on the retrace corpus, so each
    scipy step the routines take is compared with scipy; the best-vertex
    swap runs for a shrink's first vertex, not only for the start's."""
    routines = (_nelder_mead_2d.__code__, _nelder_mead_1d.__code__)
    body = {code: dict(_body_lines(code)) for code in routines}
    swap = next(n for n, text in body[routines[0]].items()
                if text == "b, s = s, b")
    ran = {code: set() for code in routines}
    shrink_swaps = 0

    def line(frame, event, arg):
        nonlocal shrink_swaps
        if event == "line":
            ran[frame.f_code].add(frame.f_lineno)
            shrink_swaps += (frame.f_lineno == swap
                             and frame.f_locals["iterations"] > 0)
        return line

    def call(frame, event, arg):
        return line if frame.f_code in ran else None

    runs = [*_key_rate_runs(), *_one_dimension_runs(), *_tie_runs()]
    sys.settrace(call)
    try:
        for run in runs:
            _polish(*run)
    finally:
        sys.settrace(None)
    for code in routines:
        missed = {n: text for n, text in body[code].items()
                  if n not in ran[code]}
        assert not missed, (code.co_name, missed)
    assert shrink_swaps > 0


def _body_lines(code):
    """(line number, text) of each line of ``code``'s body that can run:
    every line the compiler placed an instruction on, after the def."""
    lines, first = inspect.getsourcelines(code)
    numbers = {n for _, _, n in code.co_lines() if n is not None}
    return [(first + i, text.strip()) for i, text in enumerate(lines)
            if first + i in numbers and first + i != first]


def _as_rate(f, dims, N=2**20):
    """(rate, N) of a built rate whose key rate is -f of the search
    coordinates, taken back as log10(V_A) and m/N; N is None in one
    coordinate."""
    if dims == 1:
        return (lambda V_A: (-f([log10(V_A)]),)), None
    return (lambda V_A, m: (-f([log10(V_A), m / N]),)), N


_CHANNEL = "T and xi must be >= 0"
_BLOCK = "N must be >= 3"


@pytest.mark.parametrize("search, message", [
    pytest.param(lambda: optimize_key_rate(-0.01, BETA, 10**5, T=0.5),
                 _CHANNEL, id="optimize_key_rate-xi"),
    pytest.param(lambda: optimize_key_rate(XI, BETA, 10**5, T=-0.1),
                 _CHANNEL, id="optimize_key_rate-T"),
    pytest.param(lambda: optimize_key_rate(XI, BETA, 2, T=0.5),
                 _BLOCK, id="optimize_key_rate-N"),
    pytest.param(lambda: optimize_key_rates(-0.01, BETA, 10**5,
                                            Ts=[0.9, 0.5]),
                 _CHANNEL, id="optimize_key_rates-xi"),
    pytest.param(lambda: optimize_key_rates(XI, BETA, 10**5,
                                            Ts=[0.9, 0.5, -0.1, 0.2]),
                 _CHANNEL, id="optimize_key_rates-T-inside-a-block"),
    pytest.param(lambda: optimize_key_rates(XI, BETA, 1, Ts=[0.9, 0.5]),
                 _BLOCK, id="optimize_key_rates-N"),
    pytest.param(lambda: maximum_distance(-0.01, BETA, 10**5),
                 _CHANNEL, id="maximum_distance-xi"),
    pytest.param(lambda: maximum_distance(XI, BETA, 1),
                 _BLOCK, id="maximum_distance-N"),
    pytest.param(lambda: range_limit_ratio(-0.01, BETA, 10**5),
                 _CHANNEL, id="range_limit_ratio-xi"),
    pytest.param(lambda: range_limit_ratio(XI, BETA, 1),
                 _BLOCK, id="range_limit_ratio-N"),
])
def test_searches_reject_a_bad_channel_or_block_size(search, message):
    """The optimizer and range searches build the float rate, which checks
    T, xi and N, before the array path ranks a block: each raises the rate
    layer's message, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            search()


@pytest.mark.parametrize("xi, beta, T", [
    (float("nan"), BETA, 0.5), (XI, BETA, float("nan")),
    (XI, float("nan"), 0.5)])
def test_nan_inputs_give_a_nan_optimum(xi, beta, T):
    """A NaN input gives a NaN rate at every grid cell; the search reports
    the scored cell 0's NaN, as the asymptotic search reports its NaN,
    and no start value of its own."""
    res = optimize_key_rate(xi, beta, 10**5, T=T)
    assert np.isnan(res.best_key_rate)
    assert (res.best_V_A, res.best_m_fraction) == (10.0 ** _LOG_VAS[0],
                                                   _FRACS[0])
    assert np.isnan(optimize_asymptotic_rate(xi, beta, T=T).best_key_rate)
