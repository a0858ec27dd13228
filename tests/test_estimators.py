from dataclasses import replace

import numpy as np
import pytest

from cvqkd.channel import ChannelParams, ProtocolParams, sample_session, split_session
from cvqkd.estimators import (
    _VARIANCE,
    Estimate,
    EstimatorKind,
    Moments,
    _combined_variance,
    collect_statistics,
    combine_optimal,
    estimate_T_secondmod,
    estimate_Vxi_secondmod,
    estimate_sigma2_mle,
    estimate_sigma2_mm_full,
    estimate_sigma2_mm_key,
    estimate_t_mle,
    moments,
    residual_second_moment,
    second_moment,
    theoretical_std,
    var_T_secondmod,
    var_sigma2_mle,
    var_sigma2_mm_full,
    var_sigma2_mm_key,
    var_t_mle,
    var_vxi_secondmod,
)

# Reference point used throughout: V_A=3, T=1, xi=0.01, m=N/2=5e4, V_M2=10.
REF = dict(V_A=3.0, T=1.0, xi=0.01, m=50_000, n=50_000, N=100_000, V_M2=10.0)
REF_SIGMA2 = 1.01

# Sessions for the moment-sum checks: T x V_A, each with its own seed.
SUM_GRID = [(T, V_A) for T in (1.0, 0.5, 0.1) for V_A in (0.5, 3.0, 10.0)]


def _grid_sessions(N=999, m=400):
    for i, (T, V_A) in enumerate(SUM_GRID):
        proto = ProtocolParams(V_A=V_A, N=N, m=m)
        sess = sample_session(proto, ChannelParams(T=T, xi=0.02), seed=55 + i)
        yield T, sess, split_session(sess, m, seed=155 + i)


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_second_moment_examples():
    assert second_moment(np.array([1.0, -1.0])) == 1.0
    assert second_moment(np.array([3.0, 4.0])) == 12.5
    with pytest.raises(ValueError):
        second_moment(np.array([]))


def test_moments_examples():
    mom = moments(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    assert mom == Moments(uu=5.0, uy=10.0, yy=20.0, k=2)
    assert mom + mom == Moments(uu=10.0, uy=20.0, yy=40.0, k=4)
    assert mom.residual(2.0) == 0.0
    assert mom.residual(0.0) == 10.0
    with pytest.raises(ValueError):
        moments(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        moments(np.array([]), np.array([]))


def test_residual_second_moment_exact_fit():
    x = np.array([1.0, 2.0, -3.0])
    assert residual_second_moment(x, 2.0 * x, 2.0) == 0.0
    assert residual_second_moment(x, 2.0 * x, 0.0) == pytest.approx(
        second_moment(2.0 * x), rel=1e-15
    )


def test_estimate_t_mle_on_exact_line():
    x = np.array([1.0, 2.0])
    est = estimate_t_mle(moments(x, 2.0 * x))
    assert est.value == pytest.approx(2.0, rel=1e-15)
    assert est.variance == pytest.approx(0.0, abs=1e-30)


def test_estimate_t_mle_orthogonal_and_degenerate():
    assert estimate_t_mle(moments(np.array([1.0, -1.0]),
                                  np.array([1.0, 1.0]))).value == 0.0
    with pytest.raises(ValueError):
        estimate_t_mle(moments(np.zeros(3), np.ones(3)))


def test_estimate_sigma2_mle_examples():
    est = estimate_sigma2_mle(moments(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                              t_hat=0.0)
    assert est.value == 0.5
    x = np.array([1.0, 2.0, 3.0])
    assert estimate_sigma2_mle(moments(x, 0.5 * x), t_hat=0.5).value == 0.0
    with pytest.raises(ValueError):
        estimate_sigma2_mle(moments(np.array([1.0]), np.array([1.0])), t_hat=1.0)


def test_sigma2_mle_sums_match_raw_residual():
    """The expanded residual (yy - 2t*uy + t**2*uu)/k against the raw array."""
    for T, sess, _ in _grid_sessions():
        mom = moments(sess.x, sess.y)
        for t in (np.sqrt(T), estimate_t_mle(mom).value):
            assert _rel(estimate_sigma2_mle(mom, t).value,
                        residual_second_moment(sess.x, sess.y, t)) <= 1e-12


def test_estimate_sigma2_mm_full_from_statistics():
    pe = Moments(uu=20.0, uy=20.0, yy=50.0, k=10)
    est = estimate_sigma2_mm_full(pe, None, estimate_t_mle(pe).value)
    assert est.value == pytest.approx(3.0, rel=1e-15)
    assert est.variance == pytest.approx(var_sigma2_mm_full(2.0, 1.0, 3.0, 10, 10), rel=1e-15)


def test_estimate_sigma2_mm_key_example_and_errors():
    half = Moments(uu=5.0, uy=5.0, yy=10.0, k=5)
    est = estimate_sigma2_mm_key(half, half, t_hat=1.0)
    assert est.value == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        estimate_sigma2_mm_key(half + half, None, t_hat=1.0)


def test_sigma2_mm_key_uses_no_key_cross_term():
    """The key-subset sum(x*y) is never disclosed: the moment estimators
    ignore it, and mm_key is sigma2_b_key - t_hat**2 * sigma2_a_key."""
    for _, sess, split in _grid_sessions():
        pe, key = collect_statistics(sess, split)
        t_hat = estimate_t_mle(pe).value
        moved = replace(key, uy=key.uy + 123.0)
        mm_key = estimate_sigma2_mm_key(pe, key, t_hat)
        assert estimate_sigma2_mm_key(pe, moved, t_hat) == mm_key
        assert estimate_sigma2_mm_full(pe, moved, t_hat) == \
            estimate_sigma2_mm_full(pe, key, t_hat)
        x_key, y_key = sess.x[split.key_indices], sess.y[split.key_indices]
        raw = second_moment(y_key) - t_hat**2 * second_moment(x_key)
        assert _rel(mm_key.value, raw) <= 1e-12


def test_mm_full_equals_mle_residual_when_all_states_revealed():
    proto = ProtocolParams(V_A=3.0, N=500, m=500)
    sess = sample_session(proto, ChannelParams(T=0.5, xi=0.05), seed=101)
    split = split_session(sess, 500, seed=0)
    pe, key = collect_statistics(sess, split)
    assert key is None
    full = moments(sess.x, sess.y)
    t_hat = estimate_t_mle(full)
    mle = estimate_sigma2_mle(full, t_hat.value)
    mm = estimate_sigma2_mm_full(pe, key, estimate_t_mle(pe).value)
    assert abs(mm.value - mle.value) <= 1e-12 * max(1.0, abs(mle.value))


def test_collect_statistics_split_additivity():
    """Revealed plus key sums recombine into the full-set dot products."""
    for _, sess, split in _grid_sessions():
        pe, key = collect_statistics(sess, split)
        full = pe + key
        assert (pe.k, key.k, full.k) == (split.m, split.n, sess.n_states)
        assert _rel(full.uu, float(np.dot(sess.x, sess.x))) <= 1e-12
        assert _rel(full.uy, float(np.dot(sess.x, sess.y))) <= 1e-12
        assert _rel(full.yy, float(np.dot(sess.y, sess.y))) <= 1e-12


def test_collect_statistics_requires_revealed_states():
    proto = ProtocolParams(V_A=3.0, N=20, m=0)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=1)
    split = split_session(sess, 0, seed=2)
    with pytest.raises(ValueError):
        collect_statistics(sess, split)


def test_float_sums_give_python_floats():
    # the README Quick-start estimator lines
    channel = ChannelParams.from_distance(20.0, xi=0.01)
    protocol = ProtocolParams(V_A=3.0, N=100_000, m=50_000)
    session = sample_session(protocol, channel, seed=12345)
    split = split_session(session, protocol.m, seed=67890)
    pe, key = collect_statistics(session, split)
    t_hat = estimate_t_mle(pe)
    sigma2_hat = estimate_sigma2_mle(pe, t_hat.value)
    assert all(type(v) is float for v in (t_hat.value, t_hat.std,
                                          sigma2_hat.value, sigma2_hat.std))

    m2_session = sample_session(replace(protocol, V_M2=10.0), channel, seed=7)
    m2 = moments(m2_session.x_m2, m2_session.y)
    T_est = estimate_T_secondmod(m2, 10.0)
    mm_key = estimate_sigma2_mm_key(pe, key, t_hat.value)
    for est in (estimate_sigma2_mm_full(pe, key, t_hat.value), mm_key,
                combine_optimal(sigma2_hat, mm_key), T_est,
                estimate_Vxi_secondmod(m2, T_est, 3.0)):
        assert type(est.value) is float and type(est.variance) is float, est


def test_array_sums_give_arrays_and_checks_see_every_entry():
    pe = Moments(uu=np.array([2.0, 4.0]), uy=np.array([2.0, 2.0]),
                 yy=np.array([4.0, 2.0]), k=2)
    est = estimate_t_mle(pe)
    np.testing.assert_array_equal(est.value, [1.0, 0.5])
    np.testing.assert_array_equal(est.std, np.sqrt(est.variance))
    assert estimate_sigma2_mle(pe, est.value).value.shape == (2,)
    with pytest.raises(ValueError):
        estimate_t_mle(replace(pe, uu=np.array([2.0, 0.0])))
    ok = Estimate(np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        combine_optimal(ok, replace(ok, variance=np.array([1.0, -1.0])))
    with pytest.raises(ValueError):
        combine_optimal(replace(ok, variance=np.array([1.0, 0.0])),
                        replace(ok, variance=np.array([2.0, 0.0])))
    m2 = Moments(uu=np.ones(2), uy=np.ones(2), yy=np.ones(2), k=2)
    T_est = Estimate(np.array([0.5, -0.1]), np.zeros(2))
    with pytest.raises(ValueError):
        estimate_Vxi_secondmod(m2, T_est, 1.0)


def test_combine_optimal_weighting_example():
    a = Estimate(value=1.0, variance=1.0)
    b = Estimate(value=0.0, variance=3.0)
    c = combine_optimal(a, b)
    assert c.value == pytest.approx(0.75, rel=1e-15)
    assert c.variance == pytest.approx(0.75, rel=1e-15)


def test_combine_optimal_never_exceeds_either_variance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v1, v2 = rng.uniform(1e-6, 10.0, size=2)
        c = combine_optimal(Estimate(1.0, v1), Estimate(2.0, v2))
        assert c.variance <= min(v1, v2) + 1e-15


def test_combine_optimal_degenerate_inputs():
    a = Estimate(1.0, 0.0)
    b = Estimate(2.0, 5.0)
    # a zero-variance input gets all the weight
    assert combine_optimal(a, b).value == 1.0
    with pytest.raises(ValueError):
        combine_optimal(a, Estimate(2.0, 0.0))
    with pytest.raises(ValueError):
        combine_optimal(Estimate(1.0, -1.0), b)


def test_estimate_T_secondmod_fabricated_values():
    x_m2 = np.ones(8)
    y = 2.0 * np.ones(8)
    est = estimate_T_secondmod(moments(x_m2, y), V_M2=2.0)
    assert est.value == pytest.approx(1.0, rel=1e-15)
    # plug-in V_N = 4 - 1*2 = 2, so var = (4/8)*(2 + 2/2) = 1.5
    assert est.variance == pytest.approx(1.5, rel=1e-15)
    ortho = estimate_T_secondmod(moments(np.array([1.0, -1.0]), np.array([1.0, 1.0])),
                                 V_M2=1.0)
    assert ortho.value == 0.0
    with pytest.raises(ValueError):
        estimate_T_secondmod(moments(x_m2, y), V_M2=0.0)


def test_estimate_Vxi_secondmod_noiseless_case():
    x_m2 = np.array([1.0, -1.0])
    t_est = Estimate(1.0, 0.0)
    m2 = moments(x_m2, x_m2.copy())
    est = estimate_Vxi_secondmod(m2, t_est, V_A=0.5)
    assert est.value == pytest.approx(-1.5, rel=1e-15)
    assert est.variance == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(ValueError):
        estimate_Vxi_secondmod(m2, Estimate(-0.1, 0.0), 1.0)


# --- closed-form variances at the reference point --------------------------

def test_var_t_mle_reference_value():
    std = np.sqrt(var_t_mle(REF["V_A"], REF["T"], REF_SIGMA2, REF["m"]))
    assert std == pytest.approx(0.0025948667274704753, rel=1e-12)


def test_var_sigma2_mle_reference_value():
    assert var_sigma2_mle(REF_SIGMA2, REF["m"]) == pytest.approx(4.080318392e-05, rel=1e-12)
    # exact chi-square scaling: m=2 gives 2*sigma2^2/4
    assert var_sigma2_mle(2.0, 2) == pytest.approx(2.0, rel=1e-15)


def test_var_sigma2_mm_reference_values():
    args = (REF["V_A"], REF["T"], REF_SIGMA2, REF["m"], REF["N"])
    assert var_sigma2_mm_full(*args) == pytest.approx(1.41602e-4, rel=1e-12)
    assert var_sigma2_mm_key(
        REF["V_A"], REF["T"], REF_SIGMA2, REF["m"], REF["n"]
    ) == pytest.approx(5.25604e-4, rel=1e-12)


def test_var_secondmod_reference_values():
    assert var_T_secondmod(
        REF["V_A"], REF["T"], REF_SIGMA2, REF["N"], REF["V_M2"]
    ) == pytest.approx(9.604e-5, rel=1e-12)
    assert var_vxi_secondmod(
        REF["V_A"], REF["T"], REF_SIGMA2, REF["N"], REF["V_M2"]
    ) == pytest.approx(1.185962e-3, rel=1e-12)


def test_theoretical_std_reference_values():
    kw = dict(V_A=REF["V_A"], T=REF["T"], xi=REF["xi"], m=REF["m"],
              n=REF["n"], N=REF["N"], V_M2=REF["V_M2"])
    assert theoretical_std(EstimatorKind.SIGMA2_MLE, **kw) == pytest.approx(
        0.006387736995211998, rel=1e-12)
    assert theoretical_std(EstimatorKind.SIGMA2_MM_FULL, **kw) == pytest.approx(
        0.011899663860798758, rel=1e-12)
    assert theoretical_std(EstimatorKind.SIGMA2_OPT, **kw) == pytest.approx(
        0.006153355136247036, rel=1e-12)
    assert theoretical_std(EstimatorKind.VXI_SECONDMOD, **kw) == pytest.approx(
        0.03443779900051686, rel=1e-12)
    assert theoretical_std(EstimatorKind.VXI_OPT, **kw) == pytest.approx(
        0.0062806080621258175, rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_std("not a kind", **kw)


def test_theoretical_std_takes_every_kind_by_its_value():
    """Each EstimatorKind's value string gives the kind's std bit for bit;
    a string that names no kind raises ValueError."""
    kw = dict(V_A=REF["V_A"], T=REF["T"], xi=REF["xi"], m=REF["m"],
              n=REF["n"], N=REF["N"], V_M2=REF["V_M2"])
    for kind in EstimatorKind:
        assert (theoretical_std(kind.value, **kw).hex()
                == theoretical_std(kind, **kw).hex()), kind
    with pytest.raises(ValueError):
        theoretical_std("sigma2_bogus", **kw)


def test_variance_table_dispatches_to_the_named_forms():
    """One kind -> closed-form table: each kind's variance is its named
    var_* form, or the combination of two, bit for bit; theoretical_std
    is the root of the table's entry at sigma2 = 1 + T*xi."""
    for V_A, T, xi, m, n, N, V_M2 in (
            (3.0, 1.0, 0.01, 50_000, 50_000, 100_000, 10.0),
            (0.37, 1e-4, 3.0, 7, 993, 1000, 0.5),
            (41.0, 0.25, 2.0, 10**9, 10**3, 10**9 + 10**3, 1e3)):
        sigma2 = 1.0 + T * xi
        named = {
            EstimatorKind.T_MLE: var_t_mle(V_A, T, sigma2, m),
            EstimatorKind.SIGMA2_MLE: var_sigma2_mle(sigma2, m),
            EstimatorKind.SIGMA2_MM_FULL: var_sigma2_mm_full(V_A, T, sigma2,
                                                             m, N),
            EstimatorKind.SIGMA2_MM_KEY: var_sigma2_mm_key(V_A, T, sigma2,
                                                           m, n),
            EstimatorKind.SIGMA2_OPT: _combined_variance(
                var_sigma2_mle(sigma2, m),
                var_sigma2_mm_key(V_A, T, sigma2, m, n)),
            EstimatorKind.T_SECONDMOD: var_T_secondmod(V_A, T, sigma2, N,
                                                       V_M2),
            EstimatorKind.VXI_SECONDMOD: var_vxi_secondmod(V_A, T, sigma2,
                                                           N, V_M2),
            EstimatorKind.VXI_OPT: _combined_variance(
                var_vxi_secondmod(V_A, T, sigma2, N, V_M2),
                var_sigma2_mle(sigma2, m)),
        }
        assert list(named) == list(EstimatorKind) == list(_VARIANCE)
        for kind, var in named.items():
            assert _VARIANCE[kind](V_A, T, sigma2, m, n, N,
                                   V_M2).hex() == var.hex()
            assert (theoretical_std(kind, V_A, T, xi, m, n, N, V_M2).hex()
                    == np.sqrt(var).hex()), kind


SECOND_MODULATION_KINDS = (EstimatorKind.T_SECONDMOD,
                           EstimatorKind.VXI_SECONDMOD, EstimatorKind.VXI_OPT)


def test_second_modulation_std_needs_v_m2():
    """Var(T_hat) divides by T*V_M2: at V_M2 = 0 the three kinds that use
    it raise ValueError, not ZeroDivisionError."""
    for kind in SECOND_MODULATION_KINDS:
        with pytest.raises(ValueError, match=r"T\*V_M2 > 0"):
            theoretical_std(kind, 3.0, 0.5, 0.01, 10, 10, 20)
    with pytest.raises(ValueError):
        var_T_secondmod(3.0, 0.5, 1.005, 20, 0.0)


def test_second_modulation_std_needs_transmission():
    for kind in SECOND_MODULATION_KINDS:
        with pytest.raises(ValueError, match=r"T\*V_M2 > 0"):
            theoretical_std(kind, 3.0, 0.0, 0.01, 10, 10, 20, V_M2=10.0)
    with pytest.raises(ValueError):
        var_vxi_secondmod(3.0, 0.0, 1.0, 20, 10.0)


def test_optimal_variance_dominates_both_inputs_in_closed_form():
    kw = dict(V_A=REF["V_A"], xi=REF["xi"], m=REF["m"], n=REF["n"], N=REF["N"])
    for T in (1.0, 0.5, 0.1, 0.01, 1e-3):
        s_opt = theoretical_std(EstimatorKind.SIGMA2_OPT, T=T, **kw)
        s_mle = theoretical_std(EstimatorKind.SIGMA2_MLE, T=T, **kw)
        s_key = theoretical_std(EstimatorKind.SIGMA2_MM_KEY, T=T, **kw)
        assert s_opt <= min(s_mle, s_key) + 1e-15


def test_low_transmission_std_ratio_approaches_subset_fraction():
    """As T -> 0 the full-set moment route gains sqrt(m/N) over the MLE."""
    kw = dict(V_A=3.0, xi=0.01, m=50_000, n=50_000, N=100_000)
    ratio = (theoretical_std(EstimatorKind.SIGMA2_MM_FULL, T=1e-4, **kw)
             / theoretical_std(EstimatorKind.SIGMA2_MLE, T=1e-4, **kw))
    assert ratio == pytest.approx(0.7073259544934841, rel=1e-12)
    assert abs(ratio - np.sqrt(0.5)) < 0.01 * np.sqrt(0.5)


def test_estimate_std_property():
    est = Estimate(value=1.0, variance=4.0)
    assert est.std == 2.0
