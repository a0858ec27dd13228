import csv

import numpy as np
import pytest

from cvqkd.channel import (
    ChannelParams,
    ProtocolParams,
    SessionSplit,
    fiber_transmission,
    sample_moments,
    sample_session,
    split_session,
    trial_seed,
)
from cvqkd.config import ExperimentConfig
from cvqkd.experiments import _metadata_lines, run_simulate


def test_fiber_transmission_reference_points():
    assert fiber_transmission(0.0) == 1.0
    assert fiber_transmission(50.0) == pytest.approx(0.1, rel=1e-12)
    assert fiber_transmission(100.0) == pytest.approx(0.01, rel=1e-12)
    # 5 dB total at custom attenuation
    assert fiber_transmission(10.0, loss_db_per_km=0.5) == pytest.approx(10 ** -0.5, rel=1e-12)


def test_fiber_transmission_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fiber_transmission(-1.0)
    with pytest.raises(ValueError):
        fiber_transmission(10.0, loss_db_per_km=-0.2)


def test_output_noise_shot_noise_floor():
    assert ChannelParams(1.0, 0.0).sigma2 == 1.0
    assert ChannelParams(1.0, 0.01).sigma2 == pytest.approx(1.01, rel=1e-15)
    assert ChannelParams(0.1, 0.01).sigma2 == pytest.approx(1.001, rel=1e-15)
    with pytest.raises(ValueError):
        ChannelParams(1.5, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(0.5, -0.01)


def test_channel_params_derived_quantities():
    ch = ChannelParams(T=0.25, xi=0.04)
    assert ch.t == pytest.approx(0.5, rel=1e-15)
    assert ch.sigma2 == pytest.approx(1.01, rel=1e-15)
    assert ch.v_xi == pytest.approx(0.01, rel=1e-15)
    assert ChannelParams(T=0.3, xi=0.0).sigma2 == 1.0


def test_channel_params_from_distance():
    ch = ChannelParams.from_distance(50.0, xi=0.02)
    assert ch.T == pytest.approx(0.1, rel=1e-12)
    assert ch.xi == 0.02


def test_protocol_params_validation():
    p = ProtocolParams(V_A=3.0, N=1000, m=400)
    assert p.n == 600
    with pytest.raises(ValueError):
        ProtocolParams(V_A=0.0, N=1000, m=400)
    with pytest.raises(ValueError):
        ProtocolParams(V_A=3.0, N=1000, m=1001)
    with pytest.raises(ValueError):
        ProtocolParams(V_A=3.0, N=1000, m=400, V_M2=-1.0)
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        ProtocolParams(V_A=3.0, N=0, m=0)


def test_sample_session_is_deterministic():
    proto = ProtocolParams(V_A=3.0, N=500, m=200, V_M2=10.0)
    ch = ChannelParams(T=0.5, xi=0.05)
    a = sample_session(proto, ch, seed=42)
    b = sample_session(proto, ch, seed=42)
    c = sample_session(proto, ch, seed=43)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.x_m2, b.x_m2)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.n_states == 500


def test_sample_session_without_second_modulation():
    proto = ProtocolParams(V_A=3.0, N=100, m=50)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=1)
    assert sess.x_m2 is None
    assert sess.x.shape == (100,) and sess.y.shape == (100,)


def test_sample_session_vacuum_input_limit():
    # with (nearly) no modulation the output is pure shot noise
    proto = ProtocolParams(V_A=1e-12, N=200_000, m=100)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=7)
    vy = np.mean(sess.y**2)
    assert vy == pytest.approx(1.0, abs=3 * np.sqrt(2 / proto.N))


def test_output_moments_match_channel_model():
    """Var(y) and Cov(x, y) converge to their model values."""
    proto = ProtocolParams(V_A=3.0, N=1_000_000, m=100, V_M2=10.0)
    ch = ChannelParams(T=0.5, xi=0.05)
    sess = sample_session(proto, ch, seed=2024)
    vy_true = ch.T * (proto.V_A + proto.V_M2) + ch.sigma2
    se_vy = np.sqrt(2 * vy_true**2 / proto.N)
    assert np.mean(sess.y**2) == pytest.approx(vy_true, abs=5 * se_vy)
    cxy_true = ch.t * proto.V_A
    # Var(x*y) = 2 t^2 V_A^2 + V_A * (rest of the output variance)
    var_xy = 2 * ch.T * proto.V_A**2 + proto.V_A * (ch.T * proto.V_M2 + ch.sigma2)
    assert np.mean(sess.x * sess.y) == pytest.approx(cxy_true, abs=5 * np.sqrt(var_xy / proto.N))


def test_split_session_partitions_indices():
    proto = ProtocolParams(V_A=3.0, N=400, m=150)
    sess = sample_session(proto, ChannelParams(T=0.5, xi=0.01), seed=5)
    split = split_session(sess, 150, seed=6)
    assert split.m == 150 and split.n == 250
    merged = np.sort(np.concatenate([split.pe_indices, split.key_indices]))
    np.testing.assert_array_equal(merged, np.arange(400))
    # indices come back sorted within each half
    assert np.all(np.diff(split.pe_indices) > 0)
    assert np.all(np.diff(split.key_indices) > 0)


def test_split_session_deterministic_and_bounded():
    proto = ProtocolParams(V_A=3.0, N=100, m=30)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=9)
    s1 = split_session(sess, 30, seed=11)
    s2 = split_session(sess, 30, seed=11)
    np.testing.assert_array_equal(s1.pe_indices, s2.pe_indices)
    with pytest.raises(ValueError):
        split_session(sess, 101, seed=0)
    with pytest.raises(ValueError):
        split_session(sess, -1, seed=0)


def test_split_session_edge_sizes():
    proto = ProtocolParams(V_A=3.0, N=50, m=10)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=3)
    all_pe = split_session(sess, 50, seed=0)
    assert all_pe.n == 0 and all_pe.key_indices.size == 0
    none_pe = split_session(sess, 0, seed=0)
    assert none_pe.m == 0 and none_pe.pe_indices.size == 0


def test_trial_seed_is_stable_and_collision_free():
    assert trial_seed(123, 0, 0) == trial_seed(123, 0, 0)
    seen = {trial_seed(123, s, t) for s in range(4) for t in range(200)}
    assert len(seen) == 800
    assert all(0 <= v < 2**64 for v in seen)


# --- moment-sum sampler -------------------------------------------------------

def _covariances(protocol, channel):
    """Per-state covariances of (x, y) without and of (x_m2, y) with the
    second modulation."""
    T, V_A, V_M2 = channel.T, protocol.V_A, protocol.V_M2
    t, sigma2 = channel.t, channel.sigma2
    plain = np.array([[V_A, t * V_A], [t * V_A, T * V_A + sigma2]])
    second = np.array([[V_M2, t * V_M2],
                       [t * V_M2, T * (V_A + V_M2) + sigma2]])
    return plain, second


def _assert_wishart_moments(sums, cov, k):
    """Mean k*S_ij and variance k*(S_ij**2 + S_ii*S_jj) of the sums
    (uu, uy, yy), each within 5 standard errors."""
    draws = sums.shape[0]
    for col, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        v = sums[:, col]
        var_theory = k * (cov[i, j] ** 2 + cov[i, i] * cov[j, j])
        assert abs(v.mean() - k * cov[i, j]) <= 5.0 * np.sqrt(var_theory / draws)
        c = v - v.mean()
        var = c @ c / (draws - 1)
        m4 = np.mean(c**4)
        se_var = np.sqrt((m4 - var**2 * (draws - 3) / (draws - 1)) / draws)
        assert abs(var - var_theory) <= 5.0 * se_var, (col, var, var_theory)


@pytest.mark.parametrize("T, xi", [(0.5, 0.1), (1.0, 0.0), (0.01, 0.01)])
def test_sample_moments_match_wishart_moments(T, xi):
    protocol = ProtocolParams(V_A=3.0, N=200, m=80, V_M2=10.0)
    channel = ChannelParams(T=T, xi=xi)
    pe, key, m2 = sample_moments(protocol, channel, 100_000, 2024, 0)
    plain, second = _covariances(protocol, channel)
    _assert_wishart_moments(pe, plain, protocol.m)
    _assert_wishart_moments(key, plain, protocol.n)
    _assert_wishart_moments(m2, second, protocol.N)


def test_sample_moments_without_transmission_are_uncorrelated():
    protocol = ProtocolParams(V_A=3.0, N=200, m=80, V_M2=10.0)
    channel = ChannelParams(T=0.0, xi=0.1)
    pe, key, m2 = sample_moments(protocol, channel, 100_000, 2024, 0)
    for sums, k, var_u in ((pe, protocol.m, protocol.V_A),
                           (key, protocol.n, protocol.V_A),
                           (m2, protocol.N, protocol.V_M2)):
        # E[uy] = 0 and Var(uy) = k * var_u * sigma2 with sigma2 = 1
        se = np.sqrt(k * var_u / sums.shape[0])
        assert abs(sums[:, 1].mean()) <= 5.0 * se
        assert sums[:, 2].mean() == pytest.approx(k, rel=5e-3)


def test_sample_moments_stay_finite_at_1e12_states():
    protocol = ProtocolParams(V_A=3.0, N=10**12, m=5 * 10**11, V_M2=10.0)
    channel = ChannelParams.from_distance(100.0, xi=0.01)
    plain, second = _covariances(protocol, channel)
    for sums, k, cov in zip(sample_moments(protocol, channel, 1000, 5, 0),
                            (protocol.m, protocol.n, protocol.N),
                            (plain, plain, second)):
        assert np.isfinite(sums).all()
        # relative spread of each sum is about sqrt(2/k) ~ 2e-6
        np.testing.assert_allclose(sums.mean(axis=0) / k,
                                   [cov[0, 0], cov[0, 1], cov[1, 1]],
                                   rtol=1e-4)


def test_sample_moments_follow_the_stream_map():
    protocol = ProtocolParams(V_A=3.0, N=500, m=200, V_M2=10.0)
    channel = ChannelParams.from_distance(20.0, xi=0.01)
    pe, key, m2 = sample_moments(protocol, channel, 50, 99, 6)
    m, n, N = protocol.m, protocol.n, protocol.N
    chi = np.random.default_rng(np.random.SeedSequence((99, 6))).chisquare(
        [m, m - 1, n, n - 1, N, N - 1], size=(50, 6))
    z = np.random.default_rng(
        np.random.SeedSequence((99, 7))).standard_normal((50, 3))
    t, sigma2 = channel.t, channel.sigma2
    for sums, col, var_u, c2 in ((pe, 0, protocol.V_A, sigma2),
                                 (key, 2, protocol.V_A, sigma2),
                                 (m2, 4, protocol.V_M2,
                                  channel.T * protocol.V_A + sigma2)):
        a, b, c = np.sqrt(var_u), t * np.sqrt(var_u), np.sqrt(c2)
        x, xr, zz = chi[:, col], chi[:, col + 1], z[:, col // 2]
        np.testing.assert_allclose(sums[:, 0], a**2 * x, rtol=1e-12)
        np.testing.assert_allclose(
            sums[:, 1], a * (b * x + c * np.sqrt(x) * zz), rtol=1e-12)
        np.testing.assert_allclose(
            sums[:, 2], b**2 * x + 2 * b * c * np.sqrt(x) * zz
            + c**2 * (zz**2 + xr), rtol=1e-12)
    # a shorter run is a prefix of a longer one
    for short, full in zip(sample_moments(protocol, channel, 20, 99, 6),
                           (pe, key, m2)):
        np.testing.assert_array_equal(short, full[:20])


def test_sample_moments_single_key_state_and_bounds():
    channel = ChannelParams(T=0.5, xi=0.01)
    # n = 1: the chi2(n - 1) draw is 0, so the key sums have rank one
    pe, key, _ = sample_moments(ProtocolParams(V_A=3.0, N=10, m=9), channel,
                                100, 1, 0)
    np.testing.assert_allclose(key[:, 0] * key[:, 2], key[:, 1] ** 2,
                               rtol=1e-10)
    for m in (0, 10):
        with pytest.raises(ValueError):
            sample_moments(ProtocolParams(V_A=3.0, N=10, m=m), channel, 5, 1, 0)


def _simulate(tmp_path, **params):
    """(config, session, path): ``cvqkd simulate``'s session at 15 km
    (T about 0.5) and the session.csv it writes."""
    cfg = ExperimentConfig(distances_km=[15.0], seed=77, **params)
    path = tmp_path / "session.csv"
    assert run_simulate(cfg, str(tmp_path)) == str(path)
    proto = ProtocolParams(V_A=cfg.V_A, N=cfg.N, m=cfg.m, V_M2=cfg.V_M2)
    sess = sample_session(proto, ChannelParams.from_distance(15.0, cfg.xi),
                          seed=cfg.seed)
    return cfg, sess, path


def _read_session_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(line for line in fh
                                   if not line.startswith("#"))
    return header, rows


def test_session_csv_round_trip(tmp_path):
    _, sess, path = _simulate(tmp_path, V_A=3.0, N=64, m=32, V_M2=10.0,
                              xi=0.05)
    header, rows = _read_session_csv(path)
    assert header == ["index", "x", "x_m2", "y"]
    assert [int(r[0]) for r in rows] == list(range(64))
    for col, values in ((1, sess.x), (2, sess.x_m2), (3, sess.y)):
        np.testing.assert_array_equal([float(r[col]) for r in rows], values)
    assert "np.float64" not in path.read_text()


def test_session_csv_round_trip_without_x_m2(tmp_path):
    _, sess, path = _simulate(tmp_path, V_A=3.0, N=16, m=8, V_M2=0.0,
                              xi=0.0)
    _, rows = _read_session_csv(path)
    assert all(r[2] == "" for r in rows)
    np.testing.assert_array_equal([float(r[3]) for r in rows], sess.y)


def test_session_csv_starts_with_the_metadata_lines(tmp_path):
    """session.csv carries the `#` lines every output CSV starts with
    (version, master seed, effective configuration), then the header."""
    cfg, _, path = _simulate(tmp_path, N=16, m=8)
    lines = path.read_text().splitlines()
    head = _metadata_lines(cfg)
    assert "# master_seed = 77" in head
    assert lines[:len(head)] == head
    assert lines[len(head)] == "index,x,x_m2,y"
    assert not any(line.startswith("#") for line in lines[len(head):])
