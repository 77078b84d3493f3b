"""Config parsing: presets, violations, halving chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmb.config import ConfigError, parse_config, parse_config_text
from bbmb.scheme import SchemeParams

CUSTOM = "experiment = custom\nx_left = -10\nx_right = 10\nmu = 1\nT = 1\nM = 32\nN = 16\n"


def test_minimal_forced_sine_preset(tmp_path):
    path = tmp_path / "e1.cfg"
    path.write_text("experiment = example1\nT = 1\nM = 8 16\nN = 100\n")
    cfg = parse_config(path)
    assert cfg.length == pytest.approx(2.0)
    p = cfg.params
    assert (p.mu, p.gamma, p.kappa, p.nu) == (1.0, 1.0, 1.0, 1.0)
    assert cfg.exact is not None and p.source is not None
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
    assert cfg.params.mu == 100.0 and cfg.params.nu == 1.0
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


@pytest.mark.parametrize("text, needle", [
    (CUSTOM.replace("mu = 1", "mu = 0") + "phi = sech2 1 4\n", "mu must be > 0"),
    ("experiment = example1\nT = 1\nM = 8\nN = 10\nmu = 0\n", "mu must be > 0"),
    ("experiment = example2\nT = 1\nM = 8\nN = 10\ngamma = -1\n", "gamma must be >= 0"),
    ("experiment = example2\nT = 1\nM = 8\nN = 10\nkappa = inf\n", "kappa must be finite"),
    ("experiment = example3\nT = 1\nM = 8\nN = 10\nnu = nan\n", "nu must be finite"),
], ids=["custom-mu-0", "preset-mu-0", "gamma-negative", "kappa-inf", "nu-nan"])
def test_bad_coefficients_rejected(text, needle):
    # the coefficient rules are SchemeParams'; the parser reports them
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert any(needle in v for v in err.value.violations)


@pytest.mark.parametrize("profile, needle", [
    ("sech2 1 0", "width"),
    ("sech2 1 nan", "width"),
    ("sech2 inf 4", "amplitude"),
    ("sech2 nan 4", "amplitude"),
    ("sine inf 1", "amplitude"),
    ("sine 1 nan", "mode"),
    ("sine 1 -inf", "mode"),
    ("sine 1 0.5", "whole number"),  # the wrap would put a kink in the data
    ("sine 1 1e308", "min(M)/2"),    # 2*pi*MODE would overflow
    ("sine 1 16", "min(M)/2"),       # samples to zero on M = 32 nodes
])
def test_bad_profile_rejected(profile, needle):
    with pytest.raises(ConfigError) as err:
        parse_config_text(CUSTOM + f"phi = {profile}\n")
    assert any("phi" in v and needle in v for v in err.value.violations)


def test_sine_mode_resolved_on_the_coarsest_grid():
    # |MODE| < min(M)/2: the coarsest grid of the chain decides
    text = CUSTOM.replace("M = 32", "M = 16 32")
    for mode in ("8", "-8", "9"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text + f"phi = sine 1 {mode}\n")
        assert any("phi" in v and "min(M)/2 = 8" in v for v in err.value.violations)
    for mode in ("7", "-7", "0", "3.0"):
        cfg = parse_config_text(text + f"phi = sine 1 {mode}\n")
        assert np.isfinite(cfg.phi(np.linspace(-10, 10, 16))).all()


@pytest.mark.parametrize("line", ["T = inf", "T = nan", "x_left = -inf", "x_right = nan"])
def test_non_finite_domain_or_time_rejected(line):
    key = line.split()[0]
    text = "\n".join(ln for ln in CUSTOM.splitlines() if not ln.startswith(key + " "))
    with pytest.raises(ConfigError) as err:
        parse_config_text(text + f"\n{line}\nphi = sech2 1 4\n")
    assert any(v.startswith(key) for v in err.value.violations)


_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "2", "4", "8", "16", "0.5", "1e-300",
                     "1e308", "1e400", "inf", "-inf", "nan", "abc", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10 ** 6).map(str))
_VALUES = st.one_of(
    _NUMBERS,
    st.lists(_NUMBERS, max_size=4).map(" ".join),
    st.tuples(st.sampled_from(["sech2", "sine", "gauss"]), _NUMBERS, _NUMBERS)
    .map(" ".join),
    st.sampled_from(["example1", "example2", "example3", "custom", "on", "off", "maybe"]),
    st.text(max_size=12))
_KEYS = st.one_of(
    st.sampled_from(["experiment", "T", "M", "N", "x_left", "x_right", "mu",
                     "gamma", "kappa", "nu", "snapshot_times", "energy",
                     "posterior", "out", "phi"]),
    st.text(max_size=8))
_VALID = {"T": "1", "M": "8 16", "N": "10"}
_VALID_CUSTOM = dict(_VALID, x_left="0", x_right="2", mu="1", phi="sech2 1 1")


@settings(max_examples=300, deadline=None)
@given(experiment=st.sampled_from(["example1", "example2", "example3", "custom", "other"]),
       overrides=st.dictionaries(_KEYS, _VALUES, max_size=4),
       junk=st.lists(st.text(max_size=20), max_size=1))
def test_parse_config_text_raises_only_config_error(experiment, overrides, junk):
    # a valid config with random keys overridden or added, and perhaps a
    # random line, either parses into a config whose coefficients and
    # profile are usable or is rejected with a ConfigError
    entries = {**(_VALID_CUSTOM if experiment == "custom" else _VALID), **overrides}
    text = "\n".join([f"experiment = {experiment}"]
                     + [f"{k} = {v}" for k, v in entries.items()] + junk)
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg.params, SchemeParams)
    assert np.isfinite([cfg.x_left, cfg.x_right, cfg.T]).all()
    x = cfg.x_left + cfg.length * np.linspace(0.0, 1.0, 9)[:-1]
    with np.errstate(all="ignore"):
        assert cfg.phi(x).shape == x.shape
