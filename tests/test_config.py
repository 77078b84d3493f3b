"""Config parsing: presets, violations, halving chains."""

import numpy as np
import pytest

from bbmb.config import ConfigError, parse_config, parse_config_text


def test_minimal_forced_sine_preset(tmp_path):
    path = tmp_path / "e1.cfg"
    path.write_text("experiment = example1\nT = 1\nM = 8 16\nN = 100\n")
    cfg = parse_config(path)
    assert cfg.length == pytest.approx(2.0)
    assert (cfg.mu, cfg.gamma, cfg.kappa, cfg.nu) == (1.0, 1.0, 1.0, 1.0)
    assert cfg.exact is not None and cfg.source is not None
    x = np.array([0.5])
    assert cfg.exact(x, 0.0) == pytest.approx(1.0)


def test_non_halving_chain_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = example1\nT=1\nM = 10 30\nN = 100\n")
    assert any("halving" in v for v in err.value.violations)


def test_posterior_chain_too_short_rejected():
    # the chain-length rule for posterior orders is a convergence check
    # (see test_cli); the parser accepts exact-error chains of two runs
    # and posterior chains of three
    assert parse_config_text("experiment = example1\nT = 1\nM = 8 16\nN = 100\n")
    assert parse_config_text("experiment = example2\nT = 1\nM = 40 80 160\nN = 100\n")


def test_empty_file_reports_missing_experiment():
    with pytest.raises(ConfigError) as err:
        parse_config_text("")
    assert "experiment missing" in err.value.violations


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = example1\nT=1\nM=8\nN=10\nwhatever = 3\n")
    assert any("whatever" in v for v in err.value.violations)


def test_all_violations_reported_at_once():
    text = "experiment = example2\nM = 10 30\nN = abc\nT = -2\nnu = x\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    joined = "\n".join(err.value.violations)
    assert "halving" in joined
    assert "N" in joined
    assert "T" in joined
    assert "nu" in joined


def test_custom_requires_domain_and_profile():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = custom\nM = 8\nN = 10\n")
    joined = "\n".join(err.value.violations)
    for needed in ("x_left", "x_right", "mu", "T"):
        assert needed in joined


def test_custom_with_named_profile():
    cfg = parse_config_text(
        "experiment = custom\nx_left = -10\nx_right = 10\nmu = 1\nT = 1\n"
        "M = 32\nN = 16\nphi = sech2 0.5 4\n")
    x = np.array([0.0])
    assert cfg.phi(x)[0] == pytest.approx(0.5)
    cfg2 = parse_config_text(
        "experiment = custom\nx_left = 0\nx_right = 2\nmu = 1\nT = 1\n"
        "M = 32\nN = 16\nphi = sine 1.0 1\n")
    assert cfg2.phi(np.array([0.5]))[0] == pytest.approx(1.0)


def test_flags_and_overrides():
    cfg = parse_config_text(
        "experiment = example2\nT = 8\nM = 250\nN = 2048\n"
        "mu = 100\nnu = 1\nenergy = on\nposterior = off\nout = results\n")
    assert cfg.mu == 100.0 and cfg.nu == 1.0
    assert cfg.energy is True and cfg.posterior is False
    assert cfg.out == "results"


def test_bad_flag_value():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = example2\nT=1\nM=8\nN=10\nenergy = maybe\n")
    assert any("energy" in v for v in err.value.violations)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = example1\nT=1\nT=2\nM=8\nN=10\n")
    assert any("duplicate" in v for v in err.value.violations)


def test_snapshot_times_range_checked():
    with pytest.raises(ConfigError) as err:
        parse_config_text("experiment = example2\nT=1\nM=8\nN=10\n"
                          "snapshot_times = 0.5 3.0\n")
    assert any("snapshot_times" in v for v in err.value.violations)
