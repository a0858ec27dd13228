import numpy as np
import pytest

from cvqkd.channel import (
    ChannelParams,
    ProtocolParams,
    SessionSplit,
    fiber_transmission,
    read_session_csv,
    sample_session,
    split_session,
    trial_seed,
    write_session_csv,
)


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
        ProtocolParams(V_A=3.0, N=1000, m=400, beta=1.5)
    with pytest.raises(ValueError):
        ProtocolParams(V_A=3.0, N=1000, m=400, epsilon_pe=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(V_A=3.0, N=1000, m=400, V_M2=-1.0)


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


def test_session_csv_round_trip(tmp_path):
    proto = ProtocolParams(V_A=3.0, N=64, m=32, V_M2=10.0)
    sess = sample_session(proto, ChannelParams(T=0.5, xi=0.05), seed=77)
    path = tmp_path / "session.csv"
    write_session_csv(sess, path)
    back = read_session_csv(path)
    np.testing.assert_array_equal(sess.x, back.x)
    np.testing.assert_array_equal(sess.x_m2, back.x_m2)
    np.testing.assert_array_equal(sess.y, back.y)
    text = path.read_text()
    assert text.splitlines()[0] == "index,x,x_m2,y"
    assert "np.float64" not in text


def test_session_csv_round_trip_without_x_m2(tmp_path):
    proto = ProtocolParams(V_A=3.0, N=16, m=8)
    sess = sample_session(proto, ChannelParams(T=1.0, xi=0.0), seed=8)
    path = tmp_path / "plain.csv"
    write_session_csv(sess, path)
    back = read_session_csv(path)
    assert back.x_m2 is None
    np.testing.assert_array_equal(sess.y, back.y)


def test_session_csv_rejects_mixed_x_m2_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,x,x_m2,y\n0,1.0,2.0,3.0\n1,1.0,,3.0\n")
    with pytest.raises(ValueError):
        read_session_csv(path)


def test_session_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_session_csv(path)
