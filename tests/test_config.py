from dataclasses import fields

import pytest

from cvqkd.config import _KIND_BY_NAME, ExperimentConfig, load_config, parse_config
from cvqkd.security import KEY_RATE_ESTIMATORS

NON_FINITE = ("V_A = inf\n", "V_A = nan\n", "xi = nan\n", "V_M2 = nan\n",
              "beta = nan\n", "epsilon_pe = nan\n", "loss_db_per_km = nan\n",
              "distances_km = 0, nan\n", "distances_km = 0:inf:5\n",
              "mc_distances_km = inf\n", "N = inf\n", "trials = nan\n")


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.N == 100_000
    assert cfg.m == 50_000
    assert cfg.distances_km[0] == 0.0
    assert cfg.distances_km[-1] == 200.0
    assert len(cfg.distances_km) == 41
    assert cfg.n_list == [10**5, 10**7, 10**9, 10**12]


def test_parse_basic_keys_and_comments():
    cfg = parse_config(
        "# comment line\n"
        "V_A = 5.0\n"
        "\n"
        "N = 1e6   # inline comment\n"
        "m = 2e5\n"
        "estimators = mle, opt\n"
        "convention = gaussian\n"
    )
    assert cfg.V_A == 5.0
    assert cfg.N == 1_000_000 and isinstance(cfg.N, int)
    assert cfg.m == 200_000
    assert cfg.estimators == ["mle", "opt"]
    assert cfg.convention == "gaussian"


def test_parse_distance_range_and_list():
    cfg = parse_config("distances_km = 0:50:10\n")
    assert cfg.distances_km == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    cfg2 = parse_config("mc_distances_km = 0, 25.5, 80\n")
    assert cfg2.mc_distances_km == [0.0, 25.5, 80.0]
    with pytest.raises(ValueError):
        parse_config("distances_km = 0:50\n")
    with pytest.raises(ValueError):
        parse_config("distances_km = 50:0:10\n")


def test_parse_bools():
    assert parse_config("asymptotic_includes_beta = yes\n"
                        ).asymptotic_includes_beta is True
    assert parse_config("asymptotic_includes_beta = 0\n"
                        ).asymptotic_includes_beta is False
    with pytest.raises(ValueError):
        parse_config("asymptotic_includes_beta = maybe\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("V_A = 3.0\nV_B = 1.0\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just some words\n")


def test_parse_rejects_fractional_counts():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("N = 100.5\n")


def test_validate_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        parse_config("m = 2e5\n")  # m > default N
    with pytest.raises(ValueError):
        parse_config("beta = 1.5\n")
    with pytest.raises(ValueError):
        parse_config("estimators = mle, magic\n")
    with pytest.raises(ValueError):
        parse_config("trials = 1\n")
    with pytest.raises(ValueError):
        parse_config("xi = -0.01\n")
    # m = N leaves no key states, m < 2 no residual degree of freedom; a
    # NaN passes every range check, an inf fails later
    for text in ("m = 1e5\n", "m = 1\n", "m = 0\n", "distances_km = \n",
                 "estimators = \n", "n_list = \n") + NON_FINITE:
        with pytest.raises(ValueError):
            parse_config(text)


def test_every_estimator_name_has_a_key_rate_kind():
    for name, kind in _KIND_BY_NAME.items():
        assert parse_config(f"estimators = {name}\n").estimators == [name]
        assert kind in KEY_RATE_ESTIMATORS
    assert set(ExperimentConfig().estimators) <= set(_KIND_BY_NAME)


def test_raw_lines_preserved():
    text = "# header\nV_A = 4.0\n"
    cfg = parse_config(text)
    assert cfg.raw_lines == ["# header", "V_A = 4.0"]


def test_echo_lines_cover_all_fields():
    cfg = ExperimentConfig()
    lines = cfg.echo_lines()
    keys = {line.split(" = ")[0] for line in lines}
    assert "V_A" in keys and "raw_lines" not in keys
    assert "asymptotic_includes_beta = true" in lines
    assert any(line.startswith("distances_km = 0.0,5.0,") for line in lines)
    # echoed lines parse back to the same settings, field by field, through
    # the parser of each field's type; raw_lines is not a key
    other = parse_config("V_A = 4.5\nN = 2e6\nm = 7e5\ntrials = 30\n"
                         "distances_km = 0:20:10\nn_list = 1e5, 1e9\n"
                         "estimators = opt, mle\nout_dir = elsewhere\n"
                         "asymptotic_includes_beta = false\n")
    for cfg in (cfg, other):
        round_trip = parse_config("\n".join(cfg.echo_lines()))
        for f in fields(ExperimentConfig):
            if f.name != "raw_lines":
                assert getattr(round_trip, f.name) == getattr(cfg, f.name)
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("raw_lines = V_A = 1\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("V_A = 2.5\nseed = 99\n")
    cfg = load_config(path)
    assert cfg.V_A == 2.5
    assert cfg.seed == 99
