import hashlib
import math
import random
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cvqkd.channel import _sigma2, fiber_transmission
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import (
    _VARIANCE,
    EstimatorKind,
    var_sigma2_mle,
    var_t_mle,
)
from cvqkd.optimizer import (
    _FRACS,
    _GRID_VAS,
    _LOG_VAS,
    _RANK_BLOCK,
    _grid_ms,
    _round_m,
    optimize_key_rate,
    optimize_key_rates,
)
from cvqkd.security import (
    _MAX_VARIANCE,
    _NU_TOL,
    KEY_RATE_ESTIMATORS,
    _asymptotic_at,
    _channel_abc,
    _hold,
    _holevo,
    _holevo_grid,
    _rate_at,
    _rate_grid,
    confidence_quantile,
    holevo_bound,
    key_rate_asymptotic,
    key_rate_finite,
    worst_case_params,
)
from oracles import (
    conditional_eigenvalue,
    entropy,
    holevo,
    symplectic_spectrum,
)
from reference_rate import finite_rate, i_ab, rate_grid, search_rate

SQRT15 = 3.872983346207417
Z_PAPER = confidence_quantile(1e-10)


def _grid_rate(V_A, T, xi, beta, N, m, kind=EstimatorKind.SIGMA2_OPT):
    """The raw rate on arrays, as the optimizer ranks its grid: m as
    float, z at epsilon_pe = 1e-10."""
    return _rate_grid(np.asarray(V_A, dtype=float), T, xi, beta, N,
                      np.asarray(m, dtype=float), Z_PAPER, [kind])[0]


# (V_A, T, xi) of the channels the Holevo term is checked on
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
    """Heisenberg: a*b - c**2 >= 1, and the Holevo term's eigenvalue
    checks accept it."""
    for params in GRID:
        a, b, c = _channel_abc(*params)
        assert a * b - c**2 >= 1.0 - _NU_TOL
        assert _holevo(a, b, c) >= 0.0


@pytest.mark.parametrize("V_A, T, xi, m, message", [
    (0.0, 0.5, 0.01, 5 * 10**5, "V_A must be > 0, got 0.0"),
    (-1.0, -0.5, -0.5, 5 * 10**5, "V_A must be > 0, got -1.0"),
    (3.0, -0.5, 0.01, 5 * 10**5,
     "T and xi must be >= 0, got T=-0.5, xi=0.01"),
    (3.0, 0.5, -0.5, 5 * 10**5, "T and xi must be >= 0, got T=0.5, xi=-0.5"),
    (3.0, 0.5, 0.01, -1, "m must be in [0, N], got m=-1, N=1000000"),
    (3.0, 0.5, 0.01, 10**6 + 1,
     "m must be in [0, N], got m=1000001, N=1000000"),
    (3.0, math.inf, 0.01, 5 * 10**5,
     "T and xi must be finite, got T=inf, xi=0.01"),
    (3.0, 0.5, math.inf, 5 * 10**5,
     "T and xi must be finite, got T=0.5, xi=inf"),
    (1e4, 1.0, 0.0, 5 * 10**5,
     f"V_A must be <= {_MAX_VARIANCE!r}, past which the model's "
     f"arithmetic breaks down, got 10000.0"),
    (math.inf, 0.5, 0.01, 5 * 10**5,
     f"V_A must be <= {_MAX_VARIANCE!r}, past which the model's "
     f"arithmetic breaks down, got inf"),
    (3.0, 0.5, 1e4, 5 * 10**5,
     f"xi must be <= {_MAX_VARIANCE!r}, past which the model's "
     f"arithmetic breaks down, got 10000.0"),
], ids=["V_A=0", "V_A-first", "T<0", "xi<0", "m<0", "m>N", "T=inf",
        "xi=inf", "V_A-past-the-cap", "V_A=inf", "xi-past-the-cap"])
def test_rate_functions_reject_out_of_range_inputs(V_A, T, xi, m, message):
    """holevo_bound, key_rate_asymptotic and key_rate_finite check (V_A,
    T, xi) in one place, V_A first, each with one message, and with no
    numpy warning on the way; key_rate_finite also rejects m outside [0,
    N]. An infinite T or xi is not a channel, and past the config's
    modulation cap the Holevo term's round-off passes its checks'
    tolerance: the pure channel T = 1, xi = 0 at V_A = 1e4 would fail
    the term's eigenvalue check, and at 1e5 and 1e6 give -9.9e-7 and
    -4.4e-5, past its round-off hold."""
    calls = [lambda: key_rate_finite(V_A, T, xi, 0.95, 10**6, m)]
    if 0 <= m <= 10**6:
        calls += [lambda: holevo_bound(V_A, T, xi),
                  lambda: key_rate_asymptotic(V_A, T, xi, 0.95)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                call()
        assert str(info.value) == message


@pytest.mark.parametrize("beta", [math.inf, -math.inf])
def test_rate_functions_reject_an_infinite_beta(beta):
    """key_rate_asymptotic and key_rate_finite reject an infinite beta
    with one message and no numpy warning, also at T = 0, where I_AB = 0
    and beta * I_AB would be NaN; a NaN beta still gives a NaN rate."""
    for T in (0.5, 0.0):
        for call in (lambda: key_rate_asymptotic(3.0, T, 0.01, beta),
                     lambda: key_rate_finite(3.0, T, 0.01, beta, 10**6,
                                             5 * 10**5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError) as info:
                    call()
            assert str(info.value) == f"beta must be finite, got {beta}"
    assert math.isnan(key_rate_asymptotic(3.0, 0.5, 0.01, math.nan).key_rate)


def test_confidence_quantile_conventions():
    # exact: the benchmark's frozen fig2 and fig3 digests rest on these bits
    assert confidence_quantile(1e-10) == 4.6463532876522295
    assert confidence_quantile(1e-10, "gaussian") == pytest.approx(
        6.466951074732419, rel=1e-12)
    assert confidence_quantile(1e-2) < confidence_quantile(1e-10)
    with pytest.raises(ValueError):
        confidence_quantile(1e-10, "bogus")
    with pytest.raises(ValueError):
        confidence_quantile(0.0)
    with pytest.raises(ValueError):
        confidence_quantile(1.0)
    # where the erfinv argument rounds to 1 the quantile is infinite, and
    # every rate built on it NaN: that epsilon_pe raises, naming itself;
    # the last representable steps below 1 still give finite quantiles
    for epsilon_pe, convention in ((2.0**-53, "paper"), (1e-17, "paper"),
                                   (2.0**-54, "gaussian"),
                                   (1e-300, "gaussian")):
        with pytest.raises(ValueError, match=f"epsilon_pe = {epsilon_pe!r} "
                           f"is too small: the '{convention}' confidence "
                           "quantile is inf"):
            confidence_quantile(epsilon_pe, convention)
    assert 5.0 < confidence_quantile(2.0**-52) < 6.0
    assert 8.0 < confidence_quantile(2.0**-53, "gaussian") < 9.0


def test_confidence_quantile_is_within_6_ulp_of_erfinv():
    """Each convention's z is within 6 ulp of 50-digit mpmath erfinv of the
    same rounded argument, fl(1 - epsilon_pe/2) for paper and
    fl(1 - epsilon_pe) for gaussian, at log-spaced epsilon_pe from 1e-300 to
    0.999 and across (0.5, 0.999), where the gaussian argument falls below
    0.5; an argument that rounds to 1 raises."""
    epsilons = np.concatenate((np.geomspace(1e-300, 1e-17, 24),
                               np.geomspace(1e-16, 0.999, 240),
                               np.linspace(0.5, 0.999, 60)[1:]))
    with mpmath.workdps(50):
        for eps in epsilons.tolist():
            for convention, x, scale in (("paper", 1.0 - eps / 2.0, 1),
                                         ("gaussian", 1.0 - eps,
                                          mpmath.sqrt(2))):
                if x == 1.0:
                    with pytest.raises(ValueError, match="too small"):
                        confidence_quantile(eps, convention)
                    continue
                exact = scale * mpmath.erfinv(x)
                z = confidence_quantile(eps, convention)
                ulps = abs(z - exact) / math.ulp(float(exact))
                assert ulps <= 6, (eps, convention, z, float(ulps))


def test_readme_quotes_the_default_failure_probabilities():
    """README gives, for each convention at the default epsilon_pe, z and
    the one-sided failure probability 0.5*erfc(z/sqrt(2)) that a bound at
    that z delivers, at the digits it prints them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    eps = ExperimentConfig().epsilon_pe
    for convention, z_text, p_text in (("paper", "4.6464", "1.69e-6"),
                                       ("gaussian", "6.4670", "5.0e-11")):
        z = confidence_quantile(eps, convention)
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
        mantissa, exponent = p_text.split("e")
        assert f"{z:.4f}" == z_text, convention
        assert f"{p / 10.0 ** int(exponent):.{len(mantissa) - 2}f}" == \
            mantissa, (convention, p)
        assert f"| {z_text} | {p_text} |" in readme, convention
    # the paper convention's bounds fail about 3.4e4 times as often as
    # eps/2, which is the gaussian convention's one-sided tail
    paper = 0.5 * math.erfc(confidence_quantile(eps) / math.sqrt(2.0))
    assert f"{paper / (eps / 2.0):.1e}" == "3.4e+04"
    assert "3.4e4 times as often as ε_PE/2" in readme


def _chi2_lower_tail(m, z):
    # P(chi2_{m-1} < m*(1 - z*sqrt(Var)/sigma2)), the probability that the
    # upper bound sigma2_hat + z*sqrt(Var) on sigma2_MLE = sigma2*chi2/m
    # falls below the truth; P(a, x) is summed as
    # x**a * exp(-x) / Gamma(a + 1) * 1F1(1; a + 1; x), all terms positive
    with mpmath.workdps(40):
        a = mpmath.mpf(m - 1) / 2
        x = m * (1 - z * mpmath.sqrt(var_sigma2_mle(1.0, m))) / 2
        if x <= 0:
            return 0.0
        return float(mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
                     * mpmath.hyp1f1(1, a + 1, x, maxterms=10**6))


def test_sigma2_mle_corner_holds_its_exact_chi_square_tail():
    """At the gaussian convention's z, the upper bound on sigma2_MLE
    fails, by the exact chi-square law of m*sigma2_hat/sigma2, with
    probability at most epsilon_pe/2 at every m from 2 to 1e9. The bound
    fails when chi2_{m-1} < m - z*sqrt(2(m - 1)). The tail climbs toward
    the Gaussian limit epsilon_pe/2 from below, and reads 4.98e-11 at
    m = 1e9. m = 1e12 still reads 4.9994e-11, but its series takes about
    7 s on a 2-vCPU Xeon, so the grid stops at 1e9. mpmath's regularized gammainc does not
    converge on these arguments, and scipy.special.gammainc gives 2.24e-11
    at m = 1e9, so the tail is summed here."""
    eps = ExperimentConfig().epsilon_pe
    z = confidence_quantile(eps, "gaussian")
    # the series against tails computed once at these m
    for m, tail in ((500, 1.71334e-14), (17_804, 1.89835e-11),
                    (619_855, 4.27310e-11), (10**7, 4.80944e-11),
                    (10**9, 4.98065e-11)):
        assert _chi2_lower_tail(m, z) == pytest.approx(tail, rel=1e-5), m
    for m in np.unique(np.round(np.geomspace(2, 1e9, 64))):
        assert _chi2_lower_tail(int(m), z) <= eps / 2.0, int(m)


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


def _corner(T, xi, N, m, z, V_A, kind=EstimatorKind.SIGMA2_OPT):
    """(t_min, sigma2_max, clamped) of the built rate at (V_A, m): the
    confidence-region corner, held by _hold."""
    sigma2 = _sigma2(T, xi)
    return _hold(math.sqrt(T) - z * math.sqrt(var_t_mle(V_A, T, sigma2, m)),
                 sigma2 + z * math.sqrt(_VARIANCE[kind](V_A, T, sigma2, m,
                                                        N - m, N, 0.0)))


def test_worst_case_covariance_example():
    """At zero width the corner is the channel's own t = 0.3, sigma2 =
    1.05, and at V_A = 3 the rate's worst-case matrix is a = 4, b =
    t**2*V_A + sigma2 = 1.32, c = t*sqrt(V_A**2 + 2*V_A) = 1.1619..."""
    T, xi = 0.09, 0.05 / 0.09
    assert _corner(T, xi, 10**6, 10**5, 0.0, 3.0)[:2] == pytest.approx(
        (0.3, 1.05), rel=1e-15)
    *_, s_wc, clamped = _rate_at(T, xi, 0.95, 10**6, 0.0,
                                 EstimatorKind.SIGMA2_OPT)(3.0, 10**5)
    assert s_wc == pytest.approx(_holevo(4.0, 1.32, 1.161895003862225),
                                 rel=1e-12)
    assert not clamped


def test_worst_case_covariance_clamps_below_vacuum_noise():
    """Each hold of the rate's corner fires on its own, and the worst-case
    matrix is built from the held value: sigma2_max below 1 (reached with
    a negative z) becomes 1, t_min below 0 becomes 0, so c = 0."""
    V_A, T, xi, N, m = 3.0, 0.25, 0.001, 10**4, 10**3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-3.0, 80.0):
            t_min, sigma2_max, clamped = _corner(T, xi, N, m, z, V_A)
            assert clamped and (sigma2_max == 1.0 if z < 0 else t_min == 0.0)
            *_, s_wc, held = _rate_at(T, xi, 0.95, N, z,
                                      EstimatorKind.SIGMA2_OPT)(V_A, m)
            assert held
            assert s_wc.hex() == _holevo(
                V_A + 1.0, t_min**2 * V_A + sigma2_max,
                t_min * math.sqrt(V_A**2 + 2.0 * V_A)).hex()
    # worst_case_params holds the noise bound the same way
    assert worst_case_params(0.5, 0.0, 0.9, 0.0, 1e-10) == (0.5, 1.0, True)


def test_worst_case_zero_width_recovers_channel_covariance():
    """At z = 0 the rate's worst-case Holevo term is the channel's own."""
    for V_A, T, xi in ((3.0, 0.4, 0.02), *GRID):
        *_, s_wc, clamped = _rate_at(T, xi, 0.95, 10**6, 0.0,
                                     EstimatorKind.SIGMA2_OPT)(V_A, 10**5)
        assert s_wc == pytest.approx(holevo_bound(V_A, T, xi), rel=1e-12,
                                     abs=1e-14)
        assert not clamped


def test_mutual_information_reference_points():
    assert i_ab(3.0, 1.0, _sigma2(1.0, 0.0)) == pytest.approx(1.0, rel=1e-15)
    assert i_ab(3.0, 0.1, _sigma2(0.1, 0.01)) == pytest.approx(
        0.18908949394090097, rel=1e-12)
    assert i_ab(3.0, 0.0, _sigma2(0.0, 0.0)) == 0.0


def test_symplectic_eigenvalues_epr_state_is_pure():
    """The lossless noiseless channel shares a pure state: every
    eigenvalue is 1, so S(AB) = S(A|y) = 0 and the Holevo term is 0."""
    for V_A in (0.5, 3.0, 10.0):
        abc = _channel_abc(V_A, 1.0, 0.0)
        np.testing.assert_allclose(symplectic_spectrum(*abc), (1.0, 1.0),
                                   atol=1e-9)
        assert conditional_eigenvalue(*abc) == pytest.approx(1.0, abs=1e-9)
        assert _holevo(*abc) == pytest.approx(0.0, abs=1e-9)


def test_symplectic_eigenvalues_broken_channel():
    """At T = 0, nu1 = nu3 = a = 4 and nu2 = 1: their entropies cancel."""
    abc = _channel_abc(3.0, 0.0, 0.0)
    np.testing.assert_allclose(symplectic_spectrum(*abc), (4.0, 1.0),
                               rtol=1e-12)
    assert conditional_eigenvalue(*abc) == pytest.approx(4.0, rel=1e-12)
    assert _holevo(*abc) == 0.0


def test_symplectic_eigenvalues_match_brute_force():
    """The Holevo term against the entropies of the 4x4 |eig(i Omega
    Gamma)| spectrum and the Schur-complement conditional eigenvalue, on
    the channel grid and on raw physical matrices."""
    rng = random.Random(22)
    blocks = [_channel_abc(*params) for params in GRID]
    for _ in range(200):
        a, b = 1.0 + 9.0 * rng.random(), 1.0 + 9.0 * rng.random()
        # physical: a*b - c**2 >= max(a, b)
        blocks.append((a, b, math.sqrt((a * b - max(a, b)) * rng.random())))
    for abc in blocks:
        assert _holevo(*abc) == pytest.approx(holevo(*abc), rel=1e-10,
                                              abs=1e-10)


# (a, b, c) failing each eigenvalue check of the Holevo term, in the order
# the checks run, with the float path's message
EIGENVALUE_FAILURES = [
    ((2.0, 3.0, 3.0), "complex symplectic spectrum (-11.0)"),
    ((1.852533774049284, 1.8525337740492853, 1.8525337740492847),
     "negative squared eigenvalue (-8.881784197001252e-16)"),
    # delta rounds negative while disc rounds to 0, so the square root of
    # nu1**2 >= nu2**2 would fail first if it were taken before the check:
    # holevo_bound(1e9, 1 + 1e-15, 0.0)'s matrix, and one whose factored
    # discriminant is -4.0
    (_channel_abc(1e9, 1.000000000000001, 0.0),
     "negative squared eigenvalue (-128.0)"),
    ((1e8 + 0.5, 1e8, math.nextafter(1e8 + 0.25, math.inf)),
     "negative squared eigenvalue (-4.0)"),
    ((0.5, 0.5, 0.0), "unphysical covariance matrix (0.5)"),
    ((-2.0, -2.0, 0.0), "negative conditional variance (-2.0)"),
    ((0.5, -3.0, 1.0), "unphysical conditional state (0.6454972243679028)"),
]


def test_symplectic_eigenvalues_reject_unphysical_matrix():
    """Each eigenvalue check raises with its own message: a complex
    symplectic spectrum (c > (a + b)/2), a squared eigenvalue that
    round-off makes negative, nu2 < 1, a negative conditional variance
    and nu3 < 1. The grid path raises the same check's message, "... on
    the rate grid", for the case in a cell beside the physical (4, 4, 1)."""
    physical = (4.0, 4.0, 1.0)
    assert _holevo_grid(*(np.array([v]) for v in physical)) >= 0.0
    for abc, message in EIGENVALUE_FAILURES:
        with pytest.raises(ValueError) as info:
            _holevo(*abc)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            _holevo_grid(*(np.array(pair) for pair in zip(physical, abc)))
        assert str(info.value) == (message.rsplit(" (", 1)[0]
                                   + " on the rate grid")


def test_grid_checks_skip_nan_cells_and_pass_an_empty_grid():
    """Each grid check reads its cells as a cell-wise compare does: a NaN
    cell never fails it, so a block of a physical cell, a NaN cell and a
    failing one raises the failing cell's message, a block whose only
    other cell is NaN gives that cell a NaN term, and a grid of no
    transmissions is an empty result."""
    physical, nan_cell = (4.0, 4.0, 1.0), (4.0, math.nan, 1.0)
    for abc, message in EIGENVALUE_FAILURES:
        with pytest.raises(ValueError) as info:
            _holevo_grid(*(np.array(cells)
                           for cells in zip(physical, nan_cell, abc)))
        assert str(info.value) == (message.rsplit(" (", 1)[0]
                                   + " on the rate grid")
    s = _holevo_grid(*(np.array(cells) for cells in zip(physical, nan_cell)))
    assert s[0] == _holevo(*physical) and math.isnan(s[1])
    vas = np.array([10.0 ** lv for lv in _LOG_VAS])[:, None]
    ms = np.array([_round_m(f, 10**5) for f in _FRACS])[None, :]
    for kind in KEY_RATE_ESTIMATORS:
        grid = _grid_rate(vas, np.empty((0, 1, 1)), 0.01, 0.95, 10**5, ms,
                          kind)
        assert grid.shape == (0, len(_LOG_VAS), len(_FRACS))


def test_near_pure_states_pass_the_eigenvalue_checks():
    """At T = 1 and a tiny xi the discriminant is about 0, and the square
    root of its round-off moves nu2 by more than the 1e-9 tolerance; the
    checks read well-conditioned forms, so these states are physical, on
    both paths."""
    states = []
    for V_A in (1.03, 11.0, 100.0, 1000.0):
        for xi in (0.0, 1e-14, 2.3e-10, 1e-8, 1e-6):
            states.append(_channel_abc(V_A, 1.0, xi))
            # 1 <= nu2 <= nu1 < 1.001 bounds S(AB), and so the term
            assert 0.0 <= _holevo(*states[-1]) < 2.0 * entropy(1.001)
            assert key_rate_asymptotic(V_A, 1.0, xi, 0.95).key_rate > 0.0
            _grid_rate([V_A], 1.0, xi, 0.95, 10**5, [5e4])
    # at V_A = 3000 the discriminant's own round-off is below -1e-9
    states.append(_channel_abc(3000.0, 1.0, 2.3e-10))
    assert 0.0 <= _holevo(*states[-1]) < 2.0 * entropy(1.001)
    # one block, in which nu2 falls below 1 - 1e-9 at V_A = 1000, xi = 1e-8
    grid = _holevo_grid(*(np.array(column) for column in zip(*states)))
    np.testing.assert_allclose(grid, [_holevo(*abc) for abc in states],
                               rtol=1e-9, atol=1e-12)


def test_conditional_eigenvalue_matches_schur_complement():
    """S(A|y) = g(nu3) on its own: the term less the brute-force S(AB) is
    -g of the Schur-complement eigenvalue; at c = 0, nu3 = a = nu2 and
    their entropies cancel, leaving g(nu1)."""
    for params in GRID:
        abc = _channel_abc(*params)
        nu1, nu2 = symplectic_spectrum(*abc)
        assert _holevo(*abc) - entropy(nu1) - entropy(nu2) == pytest.approx(
            -entropy(conditional_eigenvalue(*abc)), rel=1e-10, abs=1e-10)
    assert _holevo(2.5, 3.0, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_g_entropy_reference_points():
    """g(x) = (x+1)*log2(x+1) - x*log2(x) at x = (nu - 1)/2: at a = 1 and
    c = 0, nu1 = b and nu2 = nu3 = 1, so the term is g((b - 1)/2)."""
    assert _holevo(1.0, 1.0, 0.0) == 0.0
    assert _holevo(1.0, 3.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert _holevo(1.0, 2.0, 0.0) == pytest.approx(1.3774437510817343,
                                                   rel=1e-12)
    # eigenvalues 2e-12 below 1 are round-off: they are held at 1, so g's
    # argument, (nu - 1)/2 = -1e-12 unheld and outside its domain, is
    # exactly 0 and adds nothing
    assert _holevo(1.0 - 2e-12, 1.0, 0.0) == 0.0
    assert _holevo(1.0 - 2e-12, 3.0, 0.0) == 2.0
    # an eigenvalue that far below 1 is rejected
    with pytest.raises(ValueError, match="unphysical covariance matrix"):
        _holevo(0.8, 1.0, 0.0)


def test_holevo_holds_only_round_off_below_zero():
    """S(AB) - S(A|y) of a physical state is >= 0, and a term within 1e-9
    below 0 is round-off, held at 0; one further below is returned as it
    is, on both paths. Both inputs are the pure state of V_A = 0.25
    through T = 1 (a = b = 1.25, c = 0.75) with a raised and b lowered by
    1e-12, then by 1e-9, which the checks' 1e-9 tolerance lets pass: the
    spectrum rounds to nu1 = nu2 = 1, while nu3 ends above 1, so the term
    is -g(nu3), -1.7e-11 and then -1.3e-8."""
    assert _holevo(1.25 + 1e-12, 1.25 - 1e-12, 0.75) == 0.0
    a, b = 1.25 + 1e-9, 1.25 - 1e-9
    kept = _holevo(a, b, 0.75)
    assert kept == -entropy(math.sqrt(a * (a - 0.75 * 0.75 / b)))
    assert -1e-7 < kept < -1e-8
    grid = _holevo_grid(np.array([1.25 + 1e-12, a]),
                        np.array([1.25 - 1e-12, b]), np.full(2, 0.75))
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(kept, rel=1e-12)


def test_nan_entropy_propagates_to_the_rates():
    """Only g(0) is defined as 0: a NaN matrix entry, or the NaN
    eigenvalues of V_A = inf, give a NaN entropy and a NaN rate, never
    S = 0. The public rate functions reject V_A = inf at the modulation
    cap, so the built rates take it here; a NaN V_A passes their checks
    and gives a NaN."""
    assert math.isnan(_holevo(1.0, float("nan"), 0.0))
    assert math.isnan(_holevo(*_channel_abc(math.inf, 0.5, 0.01)))
    assert math.isnan(_asymptotic_at(0.5, 0.01, 0.95)(math.inf)[0])
    assert math.isnan(_rate_at(0.5, 0.01, 0.95, 10**6, Z_PAPER,
                               EstimatorKind.SIGMA2_OPT)(math.inf, 10**5)[0])
    assert math.isnan(holevo_bound(math.nan, 0.5, 0.01))
    assert math.isnan(key_rate_asymptotic(math.nan, 0.5, 0.01, 0.95).key_rate)
    assert math.isnan(
        key_rate_finite(math.nan, 0.5, 0.01, 0.95, 10**6, 10**5).key_rate)
    with np.errstate(invalid="ignore"):
        grid = _grid_rate([3.0, math.inf], 0.5, 0.01, 0.95, 10**6, 10**5)
    assert np.isnan(grid).tolist() == [False, True]


def test_holevo_bound_vanishes_for_pure_and_broken_channels():
    assert holevo_bound(3.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert holevo_bound(3.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_matches_eigenvalue_composition():
    for params in GRID:
        assert holevo_bound(*params) == pytest.approx(
            max(holevo(*_channel_abc(*params)), 0.0), abs=1e-12)


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
            i = i_ab(V_A, T, _sigma2(T, xi))
            s = holevo_bound(V_A, T, xi)
            raw = beta * i - s
            assert [v.hex() for v in rate(V_A)] == [
                max(raw, 0.0).hex(), raw.hex(), i.hex(), s.hex()]
            res = key_rate_asymptotic(V_A, T, xi, beta)
            assert [v.hex() for v in (res.key_rate, res.key_rate_raw,
                                      res.mutual_information, res.holevo,
                                      res.n_fraction)] == [
                max(raw, 0.0).hex(), raw.hex(), i.hex(), s.hex(),
                (1.0).hex()]
            assert (res.reason, res.clamped) == (None, False)


def test_key_rate_finite_edge_fractions():
    res_all_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=1000)
    assert res_all_pe.key_rate == 0.0
    assert "m == N" in res_all_pe.reason
    res_no_pe = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=0)
    assert res_no_pe.key_rate == 0.0
    assert "m == 0" in res_no_pe.reason
    # at m = 1 t_hat fits the one revealed state exactly and leaves no
    # noise estimate
    res = key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=1)
    assert (res.key_rate, res.key_rate_raw, res.n_fraction, res.reason) == (
        0.0, 0.0, 0.999, "no parameter estimation (m == 1)")
    assert key_rate_finite(3.0, 0.5, 0.01, 0.95, N=1000, m=2).reason is None


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


def _outcome(f, *args):
    """Every member of f(*args) by .hex() (so NaN and -0.0 show) and repr,
    or the error's type and message."""
    try:
        out = f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(v.hex() if type(v) is float else repr(v) for v in out)


@pytest.mark.parametrize("kind", KEY_RATE_ESTIMATORS)
def test_float_rate_matches_the_reference_bitwise(kind):
    """The built rate writes Var(t_hat), the kind's sigma2 variance, the
    corner's hold and I_AB out inline: every member it returns (NaN, -0.0
    and clamped included) and every error it raises is the reference's,
    composed of var_t_mle, _VARIANCE[kind], _hold, _holevo and i_ab, at
    block sizes down to 3, m at both ends and at N, T from 0 to 1, a NaN xi, a
    negative beta (a raw rate of -0.0) and a zero, negative and huge z.
    key_rate_finite, which builds the same rate, reports its values, and
    the polish's objective is its key rate at 10**x and _round_m(y, N)."""
    seen = set()
    for N in (3, 10**5, 10**12):
        for T in (0.0, 1e-300, 1e-6, 0.5, 1.0):
            for xi in (0.0, 0.01, float("nan")):
                for beta, z in ((0.95, Z_PAPER), (0.95, 0.0), (-1.0, 80.0),
                                (0.95, -3.0)):
                    rate = _rate_at(T, xi, beta, N, z, kind)
                    for m in sorted({1, 2, N // 2, N - 1, N}):
                        for V_A in (1e-320, 0.1, 3.0, 100.0):
                            ref = _outcome(finite_rate, V_A, T, xi, beta, N,
                                           m, z, kind)
                            assert _outcome(rate, V_A, m) == ref, (
                                N, T, xi, beta, z, m, V_A)
                            seen.add(ref[0] if len(ref) == 2 else
                                     (ref[0] in ("-0x0.0p+0", "nan"),
                                      ref[4]))
    # errors, plain values, -0.0 or NaN key rates, and both clamp states;
    # at m = N (n = 0) only sigma2_opt's variance divides by n
    assert {"OverflowError", "ValueError", (False, "False"), (False, "True"),
            (True, "False"), (True, "True")} <= seen, seen
    assert ("ZeroDivisionError" in seen) == (kind is EstimatorKind.SIGMA2_OPT)
    for N in (3, 10**5):
        rate = _rate_at(0.5, 0.01, 0.95, N, Z_PAPER, kind)
        for lv in (-1.0, 0.5, 2.0):
            for fr in (1e-3, 0.5, 0.999):
                m = _round_m(fr, N)
                res = key_rate_finite(10.0 ** lv, 0.5, 0.01, 0.95, N, m,
                                      1e-10, kind)
                assert _outcome(rate, 10.0 ** lv, m) == tuple(
                    v.hex() if type(v) is float else repr(v) for v in (
                        res.key_rate, res.key_rate_raw,
                        res.mutual_information, res.holevo, res.clamped))
                assert search_rate(rate, N)(lv, fr).hex() == \
                    res.key_rate.hex()


def test_stacked_grid_matches_the_per_kind_reference_bitwise():
    """One _rate_grid call over a list of kinds gives each kind the raw
    rates of the per-kind reference, which computes every term from
    scratch and each eigenvalue's entropy on its own, bit for bit: at N =
    3, 10, 1000 and the default n_list, each kind alone and all three at
    once, both conventions, blocks of one transmission and of the
    optimizer's block size with a ragged tail, and T over 0-300 km, 1e-30
    and 0."""
    Ts = [fiber_transmission(d) for d in range(0, 301, 10)] + [1e-30, 0.0]
    for N in (3, 10, 1000, *ExperimentConfig().n_list):
        ms = _grid_ms(N)
        for convention in ("paper", "gaussian"):
            z = confidence_quantile(1e-10, convention)
            for kinds in (*([k] for k in KEY_RATE_ESTIMATORS),
                          KEY_RATE_ESTIMATORS):
                assert len(Ts) % _RANK_BLOCK != 0
                for size in (1, _RANK_BLOCK):
                    for i in range(0, len(Ts), size):
                        T = np.array(Ts[i:i + size])[:, None, None]
                        grid = _rate_grid(_GRID_VAS, T, 0.01, 0.95, N, ms, z,
                                          kinds)
                        assert grid.shape == (len(kinds), len(T),
                                              _GRID_VAS.size, ms.size)
                        for kind, rates in zip(kinds, grid):
                            ref = rate_grid(_GRID_VAS, T, 0.01, 0.95, N, ms,
                                            z, kind)
                            assert rates.tobytes() == ref.tobytes(), (
                                N, convention, kinds, i, size)


def test_a_merged_block_fails_as_a_single_transmission_does():
    """An unphysical transmission (T = 10) in a block ranked for all three
    kinds fails the block with the grid's message, the one a single-kind,
    single-transmission call at T = 10 raises, whichever kind the stack
    puts first and wherever the transmission sits in the block."""
    messages = set()
    for kind in KEY_RATE_ESTIMATORS:
        with pytest.raises(ValueError, match="on the rate grid$") as info:
            optimize_key_rate(0.01, 0.95, 10**5, estimator_kind=kind, T=10.0)
        messages.add(str(info.value))
    message, = messages
    assert _RANK_BLOCK > 1
    for first in range(len(KEY_RATE_ESTIMATORS)):
        kinds = KEY_RATE_ESTIMATORS[first:] + KEY_RATE_ESTIMATORS[:first]
        for at in (0, _RANK_BLOCK - 1):
            Ts = [fiber_transmission(d)
                  for d in range(0, 5 * _RANK_BLOCK, 5)]
            Ts[at] = 10.0
            with pytest.raises(ValueError) as info:
                optimize_key_rates(0.01, 0.95, 10**5, 1e-10, kinds, Ts=Ts)
            assert str(info.value) == message, (kinds, at)


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
# gives the digest pinned before, 14a8b677...82c74dc7e. Re-pinned when the
# rate's domain became m >= 2: its 382 key_rate_finite calls at m = 1 now
# return the zero rate with a reason, and with those outputs left out of
# the hash the digest before and after is 66dffc92...6c31bba4. Re-pinned
# when the quantile came from the standard library's inverse normal CDF:
# the gaussian z at epsilon_pe = 1e-10 went 6.466951074732419 ->
# 6.466951074732417, and patching that z back gives the digest pinned
# before, 2c1cf046...cb490008
FLOAT_PATH_DIGEST = ("37d335aff73b0be6c452774c34e73909"
                     "25c756b74b29c2367412e875c2cd78d1")


def mutual_information(V_A, T, xi):
    """I_AB at known channel parameters, with the V_A check the public
    function of that name made when the digest was pinned."""
    if V_A <= 0:
        raise ValueError(f"V_A must be > 0, got {V_A}")
    return i_ab(V_A, T, _sigma2(T, xi))


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
