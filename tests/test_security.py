import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from cvqkd.channel import _sigma2, fiber_transmission
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import EstimatorKind
from cvqkd.optimizer import (
    _FRACS,
    _LOG_VAS,
    _round_m,
    _search_rate,
    optimize_key_rate,
)
from cvqkd.security import (
    _NU_TOL,
    KEY_RATE_ESTIMATORS,
    _asymptotic_at,
    _channel_abc,
    _conditional,
    _corner,
    _g,
    _hold,
    _holevo,
    _i_ab,
    _rate_grid,
    _symplectic,
    confidence_quantile,
    holevo_bound,
    key_rate_asymptotic,
    key_rate_finite,
    worst_case_params,
)

SQRT15 = 3.872983346207417
Z_PAPER = confidence_quantile(1e-10)


def _nu12(abc):
    return _symplectic(*abc)


def _nu3(abc):
    return _conditional(*abc)


def _grid_rate(V_A, T, xi, beta, N, m, kind=EstimatorKind.SIGMA2_OPT):
    """The raw rate on arrays, as the optimizer ranks its grid: m as
    float, z at epsilon_pe = 1e-10."""
    return _rate_grid(np.asarray(V_A, dtype=float), T, xi, beta, N,
                      np.asarray(m, dtype=float), Z_PAPER, kind)


def _symplectic_oracle(abc):
    """Symplectic spectrum via |eig(i * Omega * Gamma)| on the full 4x4 matrix."""
    a, b, c = abc
    sz = np.diag([1.0, -1.0])
    gamma = np.block([
        [a * np.eye(2), c * sz],
        [c * sz, b * np.eye(2)],
    ])
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))
    return float(ev[-1]), float(ev[0])


def _conditional_oracle(abc):
    """Mode-A spectrum after a perfect x-homodyne of mode B."""
    a, b, c = abc
    sz = np.diag([1.0, -1.0])
    gamma_a = a * np.eye(2)
    gamma_b = b * np.eye(2)
    gamma_c = c * sz
    x_proj = np.diag([1.0, 0.0])
    reduced = gamma_a - gamma_c @ np.linalg.pinv(x_proj @ gamma_b @ x_proj) @ gamma_c.T
    return float(np.sqrt(np.linalg.det(reduced)))


# (V_A, T, xi) of the channels the eigenvalue steps are checked on
GRID = [(V_A, T, xi) for V_A in (1.0, 3.0, 10.0)
        for T in (1.0, 0.5, 0.1, 0.01) for xi in (0.0, 0.01, 0.1)]


def test_channel_abc_reference_points():
    a, b, c = _channel_abc(3.0, 1.0, 0.0)
    assert (a, b) == (4.0, 4.0)
    assert c == pytest.approx(SQRT15, rel=1e-12)
    a, b, c = _channel_abc(3.0, 0.1, 0.01)
    assert a == 4.0
    assert b == pytest.approx(1.301, rel=1e-12)
    assert c == pytest.approx(1.224744871391589, rel=1e-12)
    assert _channel_abc(3.0, 0.0, 0.0) == (4.0, 1.0, 0.0)


def test_channel_abc_is_physical_on_grid():
    """Heisenberg: a*b - c**2 >= 1, and the symplectic step accepts it."""
    for params in GRID:
        a, b, c = _channel_abc(*params)
        assert a * b - c**2 >= 1.0 - _NU_TOL
        assert _nu12((a, b, c))[1] >= 1.0


@pytest.mark.parametrize("V_A, T, xi, m, message", [
    (0.0, 0.5, 0.01, 5 * 10**5, "V_A must be > 0, got 0.0"),
    (-1.0, -0.5, -0.5, 5 * 10**5, "V_A must be > 0, got -1.0"),
    (3.0, -0.5, 0.01, 5 * 10**5,
     "T and xi must be >= 0, got T=-0.5, xi=0.01"),
    (3.0, 0.5, -0.5, 5 * 10**5, "T and xi must be >= 0, got T=0.5, xi=-0.5"),
    (3.0, 0.5, 0.01, -1, "m must be in [0, N], got m=-1, N=1000000"),
    (3.0, 0.5, 0.01, 10**6 + 1,
     "m must be in [0, N], got m=1000001, N=1000000"),
], ids=["V_A=0", "V_A-first", "T<0", "xi<0", "m<0", "m>N"])
def test_rate_functions_reject_out_of_range_inputs(V_A, T, xi, m, message):
    """holevo_bound, key_rate_asymptotic and key_rate_finite check (V_A,
    T, xi) in one place, V_A first, each with one message;
    key_rate_finite also rejects m outside [0, N]."""
    calls = [lambda: key_rate_finite(V_A, T, xi, 0.95, 10**6, m)]
    if 0 <= m <= 10**6:
        calls += [lambda: holevo_bound(V_A, T, xi),
                  lambda: key_rate_asymptotic(V_A, T, xi, 0.95)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_confidence_quantile_conventions():
    assert confidence_quantile(1e-10) == pytest.approx(4.6463532876522295, rel=1e-12)
    assert confidence_quantile(1e-10, "gaussian") == pytest.approx(
        6.466951074732419, rel=1e-12)
    assert confidence_quantile(1e-2) < confidence_quantile(1e-10)
    with pytest.raises(ValueError):
        confidence_quantile(1e-10, "bogus")
    with pytest.raises(ValueError):
        confidence_quantile(0.0)
    with pytest.raises(ValueError):
        confidence_quantile(1.0)


def test_worst_case_params_example():
    t_min, sigma2_max, clamped = worst_case_params(0.9, 0.01, 1.0, 0.0, 1e-10)
    assert t_min == pytest.approx(0.8535364671234777, rel=1e-12)
    assert sigma2_max == 1.0
    assert not clamped
    # zero widths leave the point estimates untouched
    exact = worst_case_params(0.5, 0.0, 1.2, 0.0, 1e-10)
    assert exact[:2] == (0.5, 1.2)
    with pytest.raises(ValueError):
        worst_case_params(0.9, -0.01, 1.0, 0.0, 1e-10)


def test_worst_case_params_clamps_negative_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_min, _, clamped = worst_case_params(0.01, 0.1, 1.0, 0.0, 1e-10)
    assert t_min == 0.0
    assert clamped


def test_worst_case_covariance_example():
    t_min, sigma2_max, clamped = _hold(0.3, 1.05)
    a, b, c = _corner(t_min, sigma2_max, 3.0)
    assert a == 4.0
    assert b == pytest.approx(1.32, rel=1e-12)
    assert c == pytest.approx(1.161895003862225, rel=1e-12)
    assert not clamped


def test_worst_case_covariance_clamps_below_vacuum_noise():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_min, sigma2_max, clamped = _hold(0.5, 0.9)
        _, b, _ = _corner(t_min, sigma2_max, 3.0)
    assert b == pytest.approx(0.25 * 3.0 + 1.0, rel=1e-12)
    assert clamped
    # worst_case_params holds the noise bound the same way
    assert worst_case_params(0.5, 0.0, 0.9, 0.0, 1e-10) == (0.5, 1.0, True)


def test_worst_case_zero_width_recovers_channel_covariance():
    V_A, T, xi = 3.0, 0.4, 0.02
    ch_a, ch_b, ch_c = _channel_abc(V_A, T, xi)
    t_min, sigma2_max, _ = worst_case_params(np.sqrt(T), 0.0, 1.0 + T * xi,
                                             0.0, 1e-10)
    a, b, c = _corner(t_min, sigma2_max, V_A)
    assert a == ch_a
    assert b == pytest.approx(ch_b, rel=1e-14)
    assert c == pytest.approx(ch_c, rel=1e-14)


def test_mutual_information_reference_points():
    assert _i_ab(3.0, 1.0, _sigma2(1.0, 0.0)) == pytest.approx(1.0, rel=1e-15)
    assert _i_ab(3.0, 0.1, _sigma2(0.1, 0.01)) == pytest.approx(
        0.18908949394090097, rel=1e-12)
    assert _i_ab(3.0, 0.0, _sigma2(0.0, 0.0)) == 0.0


def test_symplectic_eigenvalues_epr_state_is_pure():
    nu1, nu2 = _nu12(_channel_abc(3.0, 1.0, 0.0))
    assert nu1 == pytest.approx(1.0, abs=1e-9)
    assert nu2 == pytest.approx(1.0, abs=1e-9)
    for V_A in (0.5, 3.0, 10.0):
        nus = _nu12(_channel_abc(V_A, 1.0, 0.0))
        np.testing.assert_allclose(nus, (1.0, 1.0), atol=1e-9)


def test_symplectic_eigenvalues_broken_channel():
    nu1, nu2 = _nu12(_channel_abc(3.0, 0.0, 0.0))
    assert nu1 == pytest.approx(4.0, rel=1e-12)
    assert nu2 == pytest.approx(1.0, rel=1e-12)


def test_symplectic_eigenvalues_match_brute_force():
    for params in GRID:
        abc = _channel_abc(*params)
        np.testing.assert_allclose(_nu12(abc), _symplectic_oracle(abc),
                                   rtol=1e-10, atol=1e-10)


def test_symplectic_eigenvalues_reject_unphysical_matrix():
    with pytest.raises(ValueError):
        _symplectic(2.0, 2.0, 2.5)


def test_near_pure_states_pass_the_eigenvalue_checks():
    """At T = 1 and a tiny xi the discriminant is about 0, and the square
    root of its round-off moves nu2 by more than the 1e-9 tolerance; the
    checks read well-conditioned forms, so these states are physical."""
    for V_A in (1.03, 11.0, 100.0, 1000.0):
        for xi in (0.0, 1e-14, 2.3e-10, 1e-8, 1e-6):
            nu1, nu2 = _nu12(_channel_abc(V_A, 1.0, xi))
            assert 1.0 <= nu2 <= nu1 < 1.001
            assert key_rate_asymptotic(V_A, 1.0, xi, 0.95).key_rate > 0.0
            _grid_rate([V_A], 1.0, xi, 0.95, 10**5, [5e4])


def test_conditional_eigenvalue_matches_schur_complement():
    for params in GRID:
        abc = _channel_abc(*params)
        assert _nu3(abc) == pytest.approx(_conditional_oracle(abc), rel=1e-10)
    assert _conditional(2.5, 3.0, 0.0) == pytest.approx(2.5, rel=1e-12)


def test_g_entropy_reference_points():
    assert _g(0.0) == 0.0
    assert _g(1.0) == pytest.approx(2.0, rel=1e-15)
    assert _g(0.5) == pytest.approx(1.3774437510817343, rel=1e-12)
    # an eigenvalue 2e-12 below 1 is round-off: the eigenvalue step holds
    # it at 1, so g's argument, (nu - 1)/2 = -1e-12 unheld, is exactly 0
    nu3 = _conditional(1.0 - 2e-12, 1.0, 0.0)
    assert _g((nu3 - 1.0) / 2.0) == 0.0
    # a negative argument is outside g's domain, and an eigenvalue that
    # far below 1 is rejected by the eigenvalue step
    with pytest.raises(ValueError):
        _g(-0.1)
    with pytest.raises(ValueError):
        _conditional(0.8, 1.0, 0.0)


def test_nan_entropy_propagates_to_the_rates():
    """Only g(0) is defined as 0: a NaN argument, or the NaN eigenvalues of
    V_A = inf, give a NaN entropy and a NaN rate, never S = 0."""
    assert math.isnan(_g(float("nan")))
    assert math.isnan(holevo_bound(math.inf, 0.5, 0.01))
    assert math.isnan(key_rate_asymptotic(math.inf, 0.5, 0.01, 0.95).key_rate)
    assert math.isnan(
        key_rate_finite(math.inf, 0.5, 0.01, 0.95, 10**6, 10**5).key_rate)
    with np.errstate(invalid="ignore"):
        grid = _grid_rate([3.0, math.inf], 0.5, 0.01, 0.95, 10**6, 10**5)
    assert np.isnan(grid).tolist() == [False, True]


def test_holevo_bound_vanishes_for_pure_and_broken_channels():
    assert holevo_bound(3.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert holevo_bound(3.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_matches_eigenvalue_composition():
    for params in GRID:
        abc = _channel_abc(*params)
        nu1, nu2 = _nu12(abc)
        nu3 = _nu3(abc)
        expected = (_g((nu1 - 1) / 2) + _g((nu2 - 1) / 2)
                    - _g((nu3 - 1) / 2))
        assert holevo_bound(*params) == pytest.approx(max(expected, 0.0),
                                                      abs=1e-12)


def test_holevo_bound_increases_with_excess_noise():
    values = [holevo_bound(3.0, 0.5, xi)
              for xi in (0.0, 0.02, 0.05, 0.1, 0.2)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_key_rate_asymptotic_reference_points():
    res = key_rate_asymptotic(3.0, 1.0, 0.0, beta=1.0)
    assert res.key_rate == pytest.approx(1.0, abs=1e-9)
    scaled = key_rate_asymptotic(3.0, 1.0, 0.0, beta=0.95)
    assert scaled.key_rate == pytest.approx(0.95, abs=1e-9)
    dead = key_rate_asymptotic(3.0, 0.0, 0.0, beta=0.95)
    assert dead.key_rate == 0.0
    assert dead.key_rate_raw <= 0.0


def test_built_asymptotic_rate_is_key_rate_asymptotic_bitwise():
    """The asymptotic rate built once per channel gives, at every V_A, the
    key rate, raw rate, I_AB and Holevo term that key_rate_asymptotic
    reports, and those are the terms composed from I_AB at sigma2 = 1 +
    T*xi and holevo_bound(V_A, T, xi), by .hex(): a seeded sample with
    T from 1 down to 1e-16."""
    rng = random.Random(1503)
    for _ in range(150):
        T = 10.0 ** (-16.0 * rng.random())
        xi = rng.choice((0.0, 10.0 ** rng.uniform(-6.0, -0.5)))
        beta = rng.uniform(0.85, 1.0)
        rate = _asymptotic_at(T, xi, beta)
        for _ in range(8):
            V_A = 10.0 ** rng.uniform(-1.0, 2.0)
            i_ab = _i_ab(V_A, T, _sigma2(T, xi))
            s = holevo_bound(V_A, T, xi)
            raw = beta * i_ab - s
            assert [v.hex() for v in rate(V_A)] == [
                max(raw, 0.0).hex(), raw.hex(), i_ab.hex(), s.hex()]
            res = key_rate_asymptotic(V_A, T, xi, beta)
            assert [v.hex() for v in (res.key_rate, res.key_rate_raw,
                                      res.mutual_information, res.holevo,
                                      res.n_fraction)] == [
                max(raw, 0.0).hex(), raw.hex(), i_ab.hex(), s.hex(),
                (1.0).hex()]
            assert (res.reason, res.clamped) == (None, False)


def test_key_rate_finite_edge_fractions():
    res_all_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=1000)
    assert res_all_pe.key_rate == 0.0
    assert "m == N" in res_all_pe.reason
    res_no_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=0)
    assert res_no_pe.key_rate == 0.0
    assert "m == 0" in res_no_pe.reason


def test_key_rate_finite_rejects_unsupported_estimator():
    with pytest.raises(ValueError):
        key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=500,
                        estimator_kind=EstimatorKind.SIGMA2_MM_KEY)


def test_key_rate_finite_accepts_the_kind_by_name():
    args = (3.0, 0.5, 0.01, 0.95, 1000, 500)
    by_name = key_rate_finite(*args, estimator_kind="sigma2_mle")
    assert by_name == key_rate_finite(*args,
                                      estimator_kind=EstimatorKind.SIGMA2_MLE)
    for name in ("t_mle", "bogus"):
        with pytest.raises(ValueError):
            key_rate_finite(*args, estimator_kind=name)
        with pytest.raises(ValueError):
            optimize_key_rate(0.01, 0.95, 1000, estimator_kind=name, T=0.5)


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_key_rate_finite_grid_matches_scalar_rate(kind):
    """The optimizer's default grid: same rates to 1e-12, same zero cells,
    and np.argmax picks the cell a scalar strict-> scan picks."""
    vas = [10.0 ** lv for lv in _LOG_VAS]
    for N in ExperimentConfig().n_list:
        ms = [_round_m(f, N) for f in _FRACS]
        for d in (0.0, 20.0, 38.7, 100.0, 184.0):
            T = fiber_transmission(d, 0.2)
            grid = _grid_rate(np.array(vas)[:, None], T, 0.01, 0.95, N,
                              np.array(ms)[None, :], kind).ravel()
            scalar = np.array([key_rate_finite(va, T, 0.01, 0.95, N, m, 1e-10,
                                               kind).key_rate_raw
                               for va in vas for m in ms])
            assert np.max(np.abs(grid - scalar)) <= 1e-12
            np.testing.assert_array_equal(grid <= 0.0, scalar <= 0.0)
            best, first = -1.0, None
            for i, k in enumerate(np.maximum(scalar, 0.0)):
                if k > best:
                    best, first = k, i
            assert np.argmax(np.maximum(grid, 0.0)) == first


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_search_rate_is_key_rate_finite_bitwise(kind):
    """The optimizer's polish evaluates the float rate directly; every
    value, signed zeros included, is key_rate_finite's key_rate."""
    log_vas = [float(v) for v in np.linspace(-1.0, 2.0, 19)]
    fracs = [float(f) for f in np.linspace(1e-3, 0.999, 19)]
    for N in (10**3, 10**5, 10**9, 10**12):
        for d in (0.0, 20.0, 38.7, 100.0, 184.0, 400.0):
            T = fiber_transmission(d, 0.2)
            for convention in ("paper", "gaussian"):
                rate = _search_rate(T, 0.01, 0.95, N,
                                    confidence_quantile(1e-10, convention),
                                    kind)
                for lv in log_vas:
                    for fr in fracs:
                        ref = key_rate_finite(10.0 ** lv, T, 0.01, 0.95, N,
                                              _round_m(fr, N), 1e-10, kind,
                                              convention)
                        assert rate(lv, fr).hex() == ref.key_rate.hex()


def test_key_rate_finite_grid_rejects_unphysical_cells():
    """T > 1 amplifies the signal beyond what a physical state allows."""
    with pytest.raises(ValueError):
        key_rate_finite(3.0, 10.0, 0.01, 0.95, N=1000, m=500)
    with pytest.raises(ValueError):
        _grid_rate([0.5, 3.0], 10.0, 0.01, 0.95, 1000, [500.0])


def test_key_rate_finite_below_scaled_asymptotic():
    """Worst-case parameters can only reduce the rate."""
    for kind in (EstimatorKind.SIGMA2_MLE, EstimatorKind.SIGMA2_MM_FULL,
                 EstimatorKind.SIGMA2_OPT):
        for T in (1.0, 0.5, 0.1):
            res = key_rate_finite(3.0, T, 0.01, 0.95, N=10**7, m=5 * 10**6,
                                  estimator_kind=kind)
            asym = key_rate_asymptotic(3.0, T, 0.01, beta=0.95)
            assert res.key_rate_raw <= res.n_fraction * asym.key_rate_raw + 1e-12
            assert res.key_rate <= max(res.n_fraction * asym.key_rate, 0.0) + 1e-12


def test_key_rate_finite_reduces_to_scaled_asymptotic():
    """Huge N shrinks the confidence region to a point."""
    V_A, T, xi, beta = 3.0, 0.1, 0.01, 0.95
    asym = key_rate_asymptotic(V_A, T, xi, beta=beta)
    res = key_rate_finite(V_A, T, xi, beta, N=10**18, m=5 * 10**17)
    assert res.key_rate_raw == pytest.approx(0.5 * asym.key_rate_raw, abs=1e-6)
    loose = key_rate_finite(V_A, T, xi, beta, N=10**18, m=5 * 10**17,
                            epsilon_pe=1.0 - 1e-6)
    assert loose.key_rate_raw == pytest.approx(0.5 * asym.key_rate_raw, abs=1e-6)


def test_key_rate_finite_monotone_in_n():
    rates = [key_rate_finite(3.0, 0.1, 0.01, 0.95, N=N, m=N // 2).key_rate
             for N in (10**5, 10**6, 10**7, 10**8)]
    assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


def test_key_rate_finite_clamps_when_t_uncertainty_dominates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = key_rate_finite(3.0, 1e-4, 0.01, 0.95, N=1000, m=500)
    assert res.clamped
    assert res.key_rate == 0.0


def test_key_rate_finite_reports_key_fraction():
    res = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=10**6, m=10**5)
    assert 0.0 < res.key_rate < 1.0
    assert res.n_fraction == pytest.approx(0.9, rel=1e-12)


# sha256 of _float_path_digest's sample; of its 9550 calls, 725 raise and
# 480 return a NaN. Re-pinned when key_rate_finite took the shared T/xi
# check: its 30 calls at T = -0.1 now raise "T and xi must be >= 0, ..."
# where they raised "math domain error", and mapping that message back
# gives the digest pinned before, 14a8b677...82c74dc7e
FLOAT_PATH_DIGEST = ("00b80f6b260e9de85eb8c8d52e84ad7d"
                     "e3baa1e52a5b5cf6b554f0e5135c24c3")


def mutual_information(V_A, T, xi):
    """I_AB at known channel parameters, with the V_A check the public
    function of that name made when the digest was pinned."""
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    return _i_ab(V_A, T, _sigma2(T, xi))


def _float_path_digest() -> str:
    """sha256 over a seeded sample of every public float-path output: the
    .hex() of each float, the repr of anything else, or, where a call
    raises, the exception's type and message."""
    rng = random.Random(2015)
    digest = hashlib.sha256()

    def put(fn, *args):
        try:
            out = fn(*args)
        except ValueError as exc:  # the message is part of the behaviour
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            return
        if hasattr(out, "__dataclass_fields__"):
            out = [getattr(out, f) for f in out.__dataclass_fields__]
        elif not isinstance(out, tuple):
            out = [out]
        digest.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                               for v in out).encode() + b"\n")

    def point(V_A, T, xi, beta, N, m, kind, convention):
        eps = rng.choice((1e-10, 1e-3))
        put(key_rate_finite, V_A, T, xi, beta, N, m, eps, kind, convention)
        put(holevo_bound, V_A, T, xi)
        put(key_rate_asymptotic, V_A, T, xi, beta)
        put(mutual_information, V_A, T, xi)
        put(worst_case_params, math.sqrt(T) if T >= 0 else T,
            0.1 * rng.random(), 1.0 + T * xi, 0.01 * rng.random(), eps,
            convention)

    nan = float("nan")
    for kind in KEY_RATE_ESTIMATORS:
        for N in (10, 10**3, 10**5, 10**9, 10**12):
            for convention in ("paper", "gaussian"):
                for _ in range(12):
                    for m in (1, N - 1, rng.randrange(1, N)):
                        point(10.0 ** rng.uniform(-1.0, 2.0),
                              10.0 ** (-16.0 * rng.random()),
                              rng.choice((0.0, 10.0 ** rng.uniform(-6, -0.5))),
                              rng.uniform(0.85, 1.0), N, m, kind, convention)
                # near-pure states: T -> 1, xi -> 0
                for T in (1.0, 1.0 - 1e-15, 1.0 - 1e-9, 1.0 - 1e-4):
                    for xi in (0.0, 1e-14, 2.3e-10, 1e-8):
                        point(10.0 ** rng.uniform(-1.0, 2.0), T, xi, 0.95, N,
                              rng.randrange(1, N), kind, convention)
                # NaN inputs, amplifying channels that fail a check, and
                # inputs out of range
                for V_A, T, xi, beta in ((nan, 0.5, 0.01, 0.95),
                                         (3.0, nan, 0.01, 0.95),
                                         (3.0, 0.5, nan, 0.95),
                                         (3.0, 0.5, 0.01, nan),
                                         (3.0, 10.0, 0.01, 0.95),
                                         (0.5, 2.0, 0.0, 0.95),
                                         (30.0, 1.5, 0.1, 0.95),
                                         (0.0, 0.5, 0.01, 0.95),
                                         (3.0, -0.1, 0.01, 0.95)):
                    point(V_A, T, xi, beta, N, N // 2, kind, convention)
    # raw covariance blocks, physical or not, reach the eigenvalue checks
    for _ in range(400):
        a, b, c = (rng.uniform(-1.0, 5.0) for _ in range(3))
        put(_holevo, a, b, rng.choice((c, c / 3.0)))
    return digest.hexdigest()


def test_float_path_outputs_match_the_pinned_digest():
    """Every float, NaN, signed zero and error message of the public rate
    functions stays bit for bit what it was when pinned: key-rate kinds,
    N from 10 to 1e12 with m = 1, N - 1 and a random m, T from 1 down to
    1e-16, both conventions, near-pure states, NaN inputs, unphysical
    channels and raw covariance blocks."""
    assert _float_path_digest() == FLOAT_PATH_DIGEST
