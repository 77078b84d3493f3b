"""Experiment configuration: key-value config files and bundled presets.

Config files are plain text, one ``key = value`` pair per line, with
``#`` comments.  Lists are space-separated.  Parsing validates the
whole file and reports every violation at once, not just the first.

The bundled experiments:

  example1   forced sine benchmark on (0, 2) with a known exact
             solution u = exp(t)*sin(pi*x), for any coefficients (the
             source is built from them); exercises exact-error
             convergence tables in space and time.
  example2   solitary-wave benchmark: u(x,0) = 0.5*sech(x/4)^2 on
             (-25, 25); no exact solution, so convergence is measured
             with grid-halving posterior estimators, and the energy
             invariant is tracked.
  example3   reaction benchmark: adds F'(u) with F = (1 - u^2)^2 / 4
             on (-50, 50), starting from (sqrt(6)/3)*sech(x/3)^2;
             stepped with a one-shot Newton linearization.
  custom     user-supplied domain, coefficients and a named initial
             profile (``sech2 AMP WIDTH`` or ``sine AMP MODE``).

x_left, x_right and phi are custom keys.  A config holds the Grid1D of
each (M, N) case, judged at once by Grid1D's rules, grid_violations;
the grids alone hold the domain and T.  posterior defaults to on
exactly when there is no exact solution (example2, example3, custom).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .grid import Grid1D, grid_violations
from .scheme import SchemeParams

_KNOWN_KEYS = {
    "experiment", "T", "M", "N", "x_left", "x_right",
    "mu", "gamma", "kappa", "nu",
    "snapshot_times", "energy", "posterior", "phi",
}


class ConfigError(Exception):
    """Invalid configuration; carries the full list of violations.
    args holds the constructor's argument, so the error survives a
    pickle round trip."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(self.violations)

    def __str__(self):
        return "; ".join(self.violations)


@dataclass
class ExperimentConfig:
    """A validated experiment description plus its resolved callbacks;
    params is the SchemeParams whose construction validated the
    coefficients, and grids the Grid1D of each case, by (M, N), which
    alone hold the domain and T."""

    params: SchemeParams
    m_values: list
    n_values: list
    grids: dict
    posterior: bool
    snapshot_times: list = field(default_factory=list)
    energy: bool = True
    phi: Optional[Callable] = None
    exact: Optional[Callable] = None      # exact(x, t), when known


def _example1_exact(x, t):
    return np.exp(t) * np.sin(np.pi * x)


def _example1_source(mu, gamma, kappa, nu):
    """The source for which _example1_exact solves the equation."""
    def source(x, t):
        return ((1.0 + (mu + nu) * np.pi ** 2) * np.exp(t) * np.sin(np.pi * x)
                + 0.5 * gamma * np.pi * np.exp(2.0 * t) * np.sin(2.0 * np.pi * x)
                + kappa * np.pi * np.exp(t) * np.cos(np.pi * x))
    return source


def _example2_phi(x):
    return 0.5 / np.cosh(0.25 * x) ** 2


def _example3_phi(x):
    return (np.sqrt(6.0) / 3.0) / np.cosh(x / 3.0) ** 2


def _example3_reaction():
    return (lambda u: u ** 3 - u, lambda u: 3.0 * u ** 2 - 1.0)


# what every bundled experiment shares; _PRESETS lists what sets each
# apart (example1's source follows its coefficients: the parser builds it)
_NO_CALLBACKS = dict(exact=None, source=None, reaction=None)
_PRESET_DEFAULTS = dict(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0, T=1.0, **_NO_CALLBACKS)
_PRESETS = {
    "example1": dict(x_left=0.0, x_right=2.0, phi=lambda x: _example1_exact(x, 0.0),
                     exact=_example1_exact),
    "example2": dict(x_left=-25.0, x_right=25.0, phi=_example2_phi),
    "example3": dict(x_left=-50.0, x_right=50.0, phi=_example3_phi,
                     reaction=_example3_reaction()),
}
EXPERIMENTS = (*_PRESETS, "custom")


def preset_callbacks(name: str) -> dict:
    """Domain, coefficients and callbacks of a bundled experiment."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return {**_PRESET_DEFAULTS, **_PRESETS[name]}


def _named_profile(profile_text: str, m_values, violations):
    """Parse ``sech2 AMP WIDTH`` or ``sine AMP MODE`` (MODE periods of a
    sine over the domain) into a (kind, a, b) triple.

    MODE must be a whole number, or the wrap puts a kink into the data,
    and |MODE| < min(M)/2, or the coarsest grid cannot represent it
    (MODE = M/2 samples to zero).  The M check is skipped when M itself
    is invalid, which is reported on its own."""
    parts = profile_text.split()
    if len(parts) != 3:
        violations.append(f"phi: expected 'sech2 AMP WIDTH' or 'sine AMP MODE', got {profile_text!r}")
        return None
    kind, a_text, b_text = parts
    if kind not in ("sech2", "sine"):
        violations.append(f"phi: unknown profile {kind!r}")
        return None
    try:
        a, b = float(a_text), float(b_text)
    except ValueError:
        violations.append(f"phi: non-numeric parameters in {profile_text!r}")
        return None
    if not np.isfinite(a):
        violations.append(f"phi: amplitude must be finite, got {a_text!r}")
        return None
    if kind == "sech2" and not (np.isfinite(b) and b != 0):
        violations.append(f"phi: sech2 width must be finite and nonzero, got {b_text!r}")
        return None
    if kind == "sine" and not np.isfinite(b):
        violations.append(f"phi: sine mode must be finite, got {b_text!r}")
        return None
    if kind == "sine" and not b.is_integer():
        violations.append(f"phi: sine mode must be a whole number, got {b_text!r}")
        return None
    if kind == "sine" and m_values and 2 * abs(b) >= min(m_values):
        violations.append(f"phi: sine mode {b_text} needs |MODE| < min(M)/2 = "
                          f"{min(m_values) / 2:g} to be resolved")
        return None
    return kind, a, b


def _parse_float(key, text, violations):
    try:
        return float(text)
    except ValueError:
        violations.append(f"{key}: expected a number, got {text!r}")
        return None


def _parse_list(key, text, violations, kind, noun, allow_empty):
    """Space- or comma-separated values of kind, which a violation calls
    noun."""
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(kind(tok))
        except ValueError:
            violations.append(f"{key}: expected {noun}, got {tok!r}")
            return None
    if not out and not allow_empty:
        violations.append(f"{key}: empty list")
        return None
    return out


def _parse_flag(key, text, violations):
    t = text.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    violations.append(f"{key}: expected on/off, got {text!r}")
    return None


def _check_halving_chain(key, values, violations):
    """Refinement lists must double entry to entry (halving step sizes)."""
    for a, b in zip(values, values[1:]):
        if b != 2 * a:
            violations.append(f"{key}: {values} is not a halving chain "
                              f"({a} -> {b} is not a doubling)")
            return


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate the contents of a config file."""
    violations = []
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value

    if "experiment" not in raw:
        violations.append("experiment missing")
        raise ConfigError(violations)
    experiment = raw.pop("experiment")
    if experiment not in EXPERIMENTS:
        violations.append(f"experiment: unknown value {experiment!r} "
                          f"(expected one of {', '.join(EXPERIMENTS)})")
        raise ConfigError(violations)

    if experiment == "custom":
        base = dict(x_left=None, x_right=None, mu=None, gamma=0.0, kappa=0.0,
                    nu=0.0, T=None, phi=None, **_NO_CALLBACKS)
    else:
        base = preset_callbacks(experiment)

    for key, value in raw.items():
        if key in ("x_left", "x_right", "phi") and experiment != "custom":
            violations.append(f"{key}: only allowed for experiment = custom")
        elif key in ("x_left", "x_right", "mu", "gamma", "kappa", "nu", "T"):
            parsed = _parse_float(key, value, violations)
            if parsed is not None:
                base[key] = parsed
        elif key in ("M", "N"):
            base[f"{key.lower()}_values"] = _parse_list(key, value, violations,
                                                        int, "integers", False)
        elif key == "snapshot_times":
            base[key] = _parse_list(key, value, violations, float, "numbers", True)
        elif key in ("energy", "posterior"):
            flag = _parse_flag(key, value, violations)
            if flag is not None:
                base[key] = flag
    base.setdefault("posterior", base["exact"] is None)

    profile = None
    if "phi" in raw and experiment == "custom":
        profile = _named_profile(raw["phi"], base.get("m_values"), violations)
    for required in ("x_left", "x_right", "mu", "T"):
        if base.get(required) is None:
            violations.append(f"{required} missing")
    violations += [f"{key} missing" for key in ("M", "N") if key not in raw]

    ends = base.get("x_left"), base.get("x_right")
    length = None if None in ends else ends[1] - ends[0]
    # Grid1D's rules, judged for every case at once
    violations += grid_violations(length, base.get("T"), base.get("m_values"),
                                  base.get("n_values"), base.get("x_left"))
    if base.get("mu") is not None:
        if experiment == "example1":
            base["source"] = _example1_source(*(base[k] for k in ("mu", "gamma", "kappa", "nu")))
        # SchemeParams holds the coefficient rules; report its verdict here
        try:
            base["params"] = SchemeParams(**{f.name: base.pop(f.name)
                                             for f in fields(SchemeParams)})
        except ValueError as exc:
            violations.append(str(exc))
    for key, values in (("M", base.get("m_values")), ("N", base.get("n_values"))):
        if values is not None:
            _check_halving_chain(key, values, violations)
    if base.get("T") is not None:
        for t in base.get("snapshot_times") or []:
            if not (0.0 <= t <= base["T"]):
                violations.append(f"snapshot_times: {t} outside [0, {base['T']}]")

    if experiment == "custom" and "phi" not in raw:
        violations.append("phi missing (custom experiments need an initial profile)")
    if violations:
        raise ConfigError(violations)

    x_left, T = base.pop("x_left"), base.pop("T")
    del base["x_right"]  # the grids hold L
    if profile is not None:
        kind, a, b = profile
        if kind == "sech2":
            base["phi"] = lambda x: a / np.cosh(x / b) ** 2
        else:  # sine: b periods over the domain
            base["phi"] = lambda x: a * np.sin(2.0 * np.pi * b * (x - x_left) / length)
    base["grids"] = {(m, n): Grid1D(L=length, M=m, T=T, N=n, x_left=x_left)
                     for m in base["m_values"] for n in base["n_values"]}
    return ExperimentConfig(**base)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError listing every
    violation found."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    return parse_config_text(text)
