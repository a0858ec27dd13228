import re
from dataclasses import fields

import pytest

from cvqkd import cli, config
from cvqkd.config import (
    _KIND_BY_NAME,
    _MAX_BLOCK,
    _MAX_N_TIMES_V_M2,
    _MAX_VARIANCE,
    ExperimentConfig,
    load_config,
    parse_config,
)
from cvqkd.security import KEY_RATE_ESTIMATORS


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


def test_range_points_do_not_drift():
    """Each point of a range is start + i*step, rounded to 1e-9 km, so a
    long fine grid keeps its endpoint; summing the step drifted 1e-8 km
    from 0:3000:0.01's and dropped it."""
    grid = parse_config("distances_km = 0:3000:0.01\n").distances_km
    assert len(grid) == 300_001 and grid[-1] == 3000.0
    assert grid == [round(i * 0.01, 9) for i in range(300_001)]
    assert parse_config("distances_km = 2.5:4:0.5\n").distances_km == [
        2.5, 3.0, 3.5, 4.0]


def test_range_grids_are_capped(monkeypatch):
    """A range stops at the point past _MAX_POINTS with a ValueError that
    names its key, before the list grows further: a grid of 1e-12 steps
    would otherwise exhaust memory."""
    with pytest.raises(ValueError, match=re.escape(
            "line 1: distances_km range must have at most 1000000 points, "
            "got '0:1:1e-6'")):
        parse_config("distances_km = 0:1:1e-6\n")
    assert config._MAX_POINTS == 10**6
    monkeypatch.setattr(config, "_MAX_POINTS", 5)
    assert parse_config("mc_distances_km = 0:4:1\n").mc_distances_km == [
        0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError, match="mc_distances_km range must have "
                                         "at most 5 points"):
        parse_config("mc_distances_km = 0:5:1\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("V_A = 3.0\nV_B = 1.0\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just some words\n")


def test_parse_rejects_fractional_counts():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("N = 100.5\n")
    # a non-finite count or range end fails in the parser, before validate
    for text, message in (
            ("N = inf\n", "N must be an integer, got 'inf'"),
            ("trials = nan\n", "trials must be an integer, got 'nan'"),
            ("distances_km = 0:inf:5\n",
             "distances_km range must be finite, got '0:inf:5'")):
        with pytest.raises(ValueError, match=re.escape(f"line 1: {message}")):
            parse_config(text)


# every rejection of ExperimentConfig.validate, as (config text, message):
# m = N leaves no key states, m < 2 no residual degree of freedom; a NaN
# passes every range check, an inf fails later
REJECTIONS = [
    ("V_A = inf\n", "V_A must be finite, got inf"),
    ("V_A = nan\n", "V_A must be finite, got nan"),
    ("xi = nan\n", "xi must be finite, got nan"),
    ("V_M2 = nan\n", "V_M2 must be finite, got nan"),
    ("beta = nan\n", "beta must be finite, got nan"),
    ("epsilon_pe = nan\n", "epsilon_pe must be finite, got nan"),
    ("loss_db_per_km = nan\n", "loss_db_per_km must be finite, got nan"),
    ("distances_km = 0, nan\n", "distances_km must be finite, got [0.0, nan]"),
    ("mc_distances_km = inf\n", "mc_distances_km must be finite, got [inf]"),
    ("V_A = 0\n", "V_A must be > 0, got 0.0"),
    ("V_A = -1\n", "V_A must be > 0, got -1.0"),
    ("xi = -0.01\n", "xi must be >= 0, got -0.01"),
    ("N = 1\n", "N must be >= 3, got 1"),
    ("N = 2\n", "N must be >= 3, got 2"),
    ("m = 2e5\n", "m must be in [2, N-1], got m=200000, N=100000"),
    ("m = 1e5\n", "m must be in [2, N-1], got m=100000, N=100000"),
    ("m = 1\n", "m must be in [2, N-1], got m=1, N=100000"),
    ("m = 0\n", "m must be in [2, N-1], got m=0, N=100000"),
    ("beta = 1.5\n", "beta must be in (0, 1], got 1.5"),
    ("beta = 0\n", "beta must be in (0, 1], got 0.0"),
    ("V_M2 = -1\n", "V_M2 must be >= 0, got -1.0"),
    ("V_A = 1e4\n", f"V_A must be <= {_MAX_VARIANCE!r}, past which the "
                    "model's arithmetic breaks down, got 10000.0"),
    ("xi = 1e4\n", f"xi must be <= {_MAX_VARIANCE!r}, past which"),
    ("V_M2 = 1e150\n", f"V_M2 must be <= {_MAX_N_TIMES_V_M2 / 10**5!r}, "
                       "past which"),
    ("epsilon_pe = 0\n", "epsilon_pe must be in (0, 1), got 0.0"),
    ("epsilon_pe = 1\n", "epsilon_pe must be in (0, 1), got 1.0"),
    ("loss_db_per_km = -0.1\n", "loss_db_per_km must be >= 0, got -0.1"),
    ("trials = 1\n", "trials must be >= 2, got 1"),
    ("seed = -1\n", "seed must be >= 0, got -1"),
    ("distances_km = \n", "distances_km must not be empty"),
    ("distances_km = 0, -5\n", "distances must be >= 0"),
    ("mc_distances_km = -1\n", "distances must be >= 0"),
    ("estimators = \n", "estimators must not be empty"),
    ("estimators = mle, magic\n",
     "unknown estimator 'magic', expected one of ('mle', 'mm', 'opt')"),
    ("convention = bayes\n",
     "unknown convention 'bayes', expected one of ('paper', 'gaussian')"),
    ("n_list = \n", "n_list must not be empty"),
    ("n_list = 1e5, 1\n", "block sizes must be >= 3"),
    ("n_list = 1e5, 2\n", "block sizes must be >= 3"),
    ("fig3_N = 1\n", "block sizes must be >= 3"),
    ("fig3_N = 2\n", "block sizes must be >= 3"),
    # a repeat would write a duplicate column or row; 1e5 is 100000
    ("estimators = opt, opt\n",
     "estimators must not repeat a value, got opt twice"),
    ("estimators = mle, mm, mle\n",
     "estimators must not repeat a value, got mle twice"),
    ("n_list = 1e5, 1e5\n", "n_list must not repeat a value, got 100000 twice"),
    ("n_list = 1e5, 1e7, 100000\n",
     "n_list must not repeat a value, got 100000 twice"),
]


@pytest.mark.parametrize("text, message", REJECTIONS,
                         ids=[text.replace(" ", "").strip()
                              for text, _ in REJECTIONS])
def test_validate_rejects_inconsistent_values(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)


@pytest.mark.parametrize("text, verb", [("V_A = -1\n", "keyrate"),
                                        ("seed = -1\n", "validate")],
                         ids=["V_A-keyrate", "seed-validate"])
def test_config_errors_exit_two_through_the_cli(tmp_path, capsys, text,
                                                verb):
    message = dict(REJECTIONS)[text]
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main([verb, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"cvqkd: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, verb", [
    ("N = 1e300\n", "fig2"), ("N = -1e300\n", "keyrate"),
    ("m = 1e300\n", "keyrate"), ("n_list = 1e5, 1e300\n", "fig2"),
    ("fig3_N = 1e300\n", "fig3"), ("trials = -1e300\n", "fig1"),
    ("trials = 1e300\n", "validate"), ("seed = -1e300\n", "validate"),
    ("N = 1e150\nm = 2\n", "simulate")],
    ids=["N", "N-negative", "m", "n_list", "fig3_N", "trials-negative",
         "trials-past-the-limit", "seed", "N-past-simulates-limit"])
def test_huge_integers_give_short_config_errors(tmp_path, capsys, text,
                                                verb):
    """An integer past 2**53 prints in float notation: the message names
    the key and the value, as the file writes it, in under 200
    characters, where it printed every one of the integer's digits."""
    key, value = text.split("\n")[0].split(" = ")
    value = value.split(", ")[-1]
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main([verb, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cvqkd: config error: ") and err.count("\n") == 1
    assert len(err) < 200, err
    assert key in err and repr(float(value)) in err, err


@pytest.mark.parametrize("key, value, shown", [
    ("N", 10**400, "1.0000000000000000e+400"),
    ("n_list", [10**5, 10**400], "[100000, 1.0000000000000000e+400]"),
    ("fig3_N", 10**400, "1.0000000000000000e+400")],
    ids=["N", "n_list", "fig3_N"])
def test_a_block_size_past_a_float_gives_its_cap_error(key, value, shown):
    """A block size too large to convert to float, which only code can
    set, fails its cap check before anything divides by it."""
    cfg = ExperimentConfig(**{key: value})
    with pytest.raises(ValueError, match=re.escape(
            f"{key} must be <= {_MAX_BLOCK!r}, past which the model's "
            f"arithmetic breaks down, got {shown}")):
        cfg.validate()


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
    assert "convention = paper" in lines
    assert any(line.startswith("distances_km = 0.0,5.0,") for line in lines)
    # echoed lines parse back to the same settings, field by field, through
    # the parser of each field's type; raw_lines is not a key
    other = parse_config("V_A = 4.5\nN = 2e6\nm = 7e5\ntrials = 30\n"
                         "distances_km = 0:20:10\nn_list = 1e5, 1e9\n"
                         "estimators = opt, mle\nout_dir = elsewhere\n")
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
