"""Config parsing: presets, violations, halving chains."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmb import config
from bbmb.config import ConfigError, parse_config, parse_config_text
from bbmb.grid import Grid1D
from bbmb.scheme import SchemeParams

CUSTOM = "experiment = custom\nx_left = -10\nx_right = 10\nmu = 1\nT = 1\nM = 32\nN = 16\n"


def test_minimal_forced_sine_preset(tmp_path):
    path = tmp_path / "e1.cfg"
    path.write_text("experiment = example1\nT = 1\nM = 8 16\nN = 100\n")
    cfg = parse_config(path)
    assert cfg.grids[8, 100] == Grid1D(L=2.0, M=8, T=1.0, N=100)
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
        "mu = 100\nnu = 1\nenergy = on\nposterior = off\n")
    assert cfg.params.mu == 100.0 and cfg.params.nu == 1.0
    assert cfg.energy is True and cfg.posterior is False


@pytest.mark.parametrize("experiment", ["example1", "example2", "example3", "custom"])
def test_posterior_defaults_to_on_exactly_without_an_exact_solution(experiment):
    text = (CUSTOM + "phi = sech2 1 4\n" if experiment == "custom"
            else f"experiment = {experiment}\nT = 1\nM = 8\nN = 10\n")
    cfg = parse_config_text(text)
    assert cfg.posterior == (cfg.exact is None)
    assert cfg.posterior == (experiment != "example1")
    for flag, value in (("on", True), ("off", False)):
        assert parse_config_text(text + f"posterior = {flag}\n").posterior is value


def test_readme_config_table_names_exactly_the_known_keys():
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(config._KNOWN_KEYS)


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


@pytest.mark.parametrize("experiment", ["example1", "example2", "example3"])
@pytest.mark.parametrize("key", ["x_left", "x_right"])
def test_presets_keep_their_domain(experiment, key):
    # example1's exact solution is periodic on (0, 2) only
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"experiment = {experiment}\nT = 1\nM = 8\nN = 10\n{key} = 3\n")
    assert err.value.violations == [f"{key}: only allowed for experiment = custom"]


def test_example1_source_follows_the_coefficients():
    # the default coefficients are the unit ones, and so is the source, bit for bit
    default = parse_config_text("experiment = example1\nT = 1\nM = 8\nN = 10\n")
    unit = parse_config_text("experiment = example1\nT = 1\nM = 8\nN = 10\n"
                             "mu = 1\ngamma = 1\nkappa = 1\nnu = 1\n")
    x, t = np.linspace(0.0, 2.0, 17), 0.7
    assert np.array_equal(default.params.source(x, t), unit.params.source(x, t))
    cfg = parse_config_text("experiment = example1\nT = 1\nM = 8\nN = 10\n"
                            "mu = 2\ngamma = 0.5\nkappa = 3\nnu = 0.25\n")
    # f = u_t - mu u_xxt + gamma u u_x + kappa u_x - nu u_xx at u = e^t sin(pi x)
    u = np.exp(t) * np.sin(np.pi * x)
    u_x = np.pi * np.exp(t) * np.cos(np.pi * x)
    u_xx = -np.pi ** 2 * u
    want = u - 2.0 * u_xx + 0.5 * u * u_x + 3.0 * u_x - 0.25 * u_xx
    assert np.allclose(cfg.params.source(x, t), want, rtol=1e-13, atol=1e-13)


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
    grid = next(iter(cfg.grids.values()))
    assert np.isfinite([grid.x_left, grid.L, grid.T]).all()
    x = grid.x_left + grid.L * np.linspace(0.0, 1.0, 9)[:-1]
    with np.errstate(all="ignore"):
        assert cfg.phi(x).shape == x.shape


# the edge floats of test_cli's drawn configs, and counts about 2^53 and
# beyond, where the grid rules turn
_EDGE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e300,
                                   -1e300]),
                  st.floats(-1e3, 1e3), st.floats(0.01, 10.0))


@st.composite
def _halving_chain(draw):
    start = draw(st.one_of(st.sampled_from([4, 8, 16]),
                           st.sampled_from([1, 2, 3, 5, 2 ** 51, 2 ** 52 - 1, 2 ** 52,
                                            2 ** 53, 10 ** 400])))
    return [start * 2 ** i for i in range(draw(st.integers(1, 3)))]


@settings(max_examples=300, deadline=None)
@given(ends=st.tuples(_EDGE, _EDGE), ordered=st.booleans(), T=_EDGE,
       ms=_halving_chain(), ns=_halving_chain())
def test_a_config_holds_exactly_the_grids_grid1d_accepts(ends, ordered, T, ms, ns):
    # the parser and Grid1D judge grids by one rule, so a config parses
    # exactly when every one of its (M, N) grids constructs, and holds them
    x_left, x_right = sorted(ends) if ordered else ends
    text = (f"experiment = custom\nx_left = {x_left!r}\nx_right = {x_right!r}\n"
            f"T = {T!r}\nmu = 1\nphi = sech2 1 1\n"
            f"M = {' '.join(map(str, ms))}\nN = {' '.join(map(str, ns))}\n")
    try:
        grids = {(m, n): Grid1D(L=x_right - x_left, M=m, T=T, N=n, x_left=x_left)
                 for m in ms for n in ns}
    except ValueError:
        grids = None
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        assert grids is None
        return
    assert cfg.grids == grids
