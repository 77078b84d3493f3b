"""Experiment configuration: key-value config files and bundled presets.

Config files are plain text, one ``key = value`` pair per line, with
``#`` comments.  Lists are space-separated.  Parsing validates the
whole file and reports every violation at once, not just the first.

The bundled experiments:

  example1   forced sine benchmark on (0, 2) with a known exact
             solution u = exp(t)*sin(pi*x); exercises exact-error
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import _MAX_COUNT, usable_steps
from .scheme import SchemeParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "preset_callbacks",
    "EXPERIMENTS",
]

EXPERIMENTS = ("example1", "example2", "example3", "custom")
_COEFFICIENTS = ("mu", "gamma", "kappa", "nu", "source", "reaction")

_KNOWN_KEYS = {
    "experiment", "T", "M", "N", "x_left", "x_right",
    "mu", "gamma", "kappa", "nu",
    "snapshot_times", "energy", "posterior", "out", "phi",
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
    coefficients."""

    x_left: float
    x_right: float
    params: SchemeParams
    T: float
    m_values: list
    n_values: list
    snapshot_times: list = field(default_factory=list)
    energy: bool = True
    posterior: bool = False
    out: Optional[str] = None
    phi: Optional[Callable] = None
    exact: Optional[Callable] = None      # exact(x, t), when known

    @property
    def length(self) -> float:
        return self.x_right - self.x_left


def _example1_exact(x, t):
    return np.exp(t) * np.sin(np.pi * x)


def _example1_source(x, t):
    return ((1.0 + 2.0 * np.pi ** 2) * np.exp(t) * np.sin(np.pi * x)
            + 0.5 * np.pi * np.exp(2.0 * t) * np.sin(2.0 * np.pi * x)
            + np.pi * np.exp(t) * np.cos(np.pi * x))


def _example2_phi(x):
    return 0.5 / np.cosh(0.25 * x) ** 2


def _example3_phi(x):
    return (np.sqrt(6.0) / 3.0) / np.cosh(x / 3.0) ** 2


def _example3_reaction():
    return (lambda u: u ** 3 - u, lambda u: 3.0 * u ** 2 - 1.0)


def preset_callbacks(name: str) -> dict:
    """Domain, coefficients and callbacks of a bundled experiment."""
    if name == "example1":
        return dict(x_left=0.0, x_right=2.0, mu=1.0, gamma=1.0, kappa=1.0, nu=1.0,
                    T=1.0, phi=lambda x: _example1_exact(x, 0.0),
                    exact=_example1_exact, source=_example1_source,
                    reaction=None, posterior=False)
    if name == "example2":
        return dict(x_left=-25.0, x_right=25.0, mu=1.0, gamma=1.0, kappa=1.0, nu=1.0,
                    T=1.0, phi=_example2_phi, exact=None, source=None,
                    reaction=None, posterior=True)
    if name == "example3":
        return dict(x_left=-50.0, x_right=50.0, mu=1.0, gamma=1.0, kappa=1.0, nu=1.0,
                    T=1.0, phi=_example3_phi, exact=None, source=None,
                    reaction=_example3_reaction(), posterior=True)
    raise ValueError(f"unknown preset {name!r}")


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


def _check_steps(base, violations):
    """Each case's grid steps, h = (x_right - x_left)/M and tau = T/N,
    must be usable (grid.usable_steps), as Grid1D requires."""
    ms, ns = base["m_values"], base["n_values"]
    h = (base["x_right"] - base["x_left"]) / np.array(ms, dtype=float)
    tau = base["T"] / np.array(ns, dtype=float)
    h_ok, tau_ok = usable_steps(h, tau)
    for m, step, ok in zip(ms, h, h_ok):
        if not ok:
            violations.append(f"M: grid step h = (x_right - x_left)/M = {step:g} at M = {m} "
                              "must be a positive normal float with finite h^2, 1/h^2 "
                              "and h^4")
    for n, step, ok in zip(ns, tau, tau_ok):
        if not ok:
            violations.append(f"N: time step tau = T/N = {step:g} at N = {n} "
                              "must be a positive normal float")


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
                    nu=0.0, T=None, phi=None, exact=None, source=None,
                    reaction=None, posterior=True)
    else:
        base = preset_callbacks(experiment)

    for key, value in raw.items():
        if key in ("x_left", "x_right", "mu", "gamma", "kappa", "nu", "T"):
            parsed = _parse_float(key, value, violations)
            if parsed is not None:
                base[key] = parsed
        elif key == "phi" and experiment != "custom":
            violations.append("phi: only allowed for experiment = custom")
        elif key in ("M", "N"):
            base[f"{key.lower()}_values"] = _parse_list(key, value, violations,
                                                        int, "integers", False)
        elif key == "snapshot_times":
            base[key] = _parse_list(key, value, violations, float, "numbers", True)
        elif key in ("energy", "posterior"):
            flag = _parse_flag(key, value, violations)
            if flag is not None:
                base[key] = flag
        elif key == "out":
            base["out"] = value

    profile = None
    if "phi" in raw and experiment == "custom":
        profile = _named_profile(raw["phi"], base.get("m_values"), violations)
    for required in ("x_left", "x_right", "mu", "T"):
        if base.get(required) is None:
            violations.append(f"{required} missing")
    if base.get("m_values") is None and "M" not in raw:
        violations.append("M missing")
    if base.get("n_values") is None and "N" not in raw:
        violations.append("N missing")

    for key in ("x_left", "x_right"):
        if base.get(key) is not None and not np.isfinite(base[key]):
            violations.append(f"{key} must be finite, got {base[key]}")
    if base.get("x_left") is not None and base.get("x_right") is not None \
            and base["x_right"] <= base["x_left"]:
        violations.append(f"domain is empty: x_left={base['x_left']}, x_right={base['x_right']}")
    if base.get("T") is not None and not (np.isfinite(base["T"]) and base["T"] > 0):
        violations.append(f"T must be positive and finite, got {base['T']}")
    if base.get("mu") is not None:
        # SchemeParams holds the coefficient rules; report its verdict here
        try:
            base["params"] = SchemeParams(**{key: base.pop(key) for key in _COEFFICIENTS})
        except ValueError as exc:
            violations.append(str(exc))
    for key, values in (("M", base.get("m_values")), ("N", base.get("n_values"))):
        if values is None:
            continue
        bad = [v for v in values if v < (4 if key == "M" else 2)]
        huge = [v for v in values if v > _MAX_COUNT]
        if bad:
            violations.append(f"{key}: entries too small: {bad}")
        elif huge:
            violations.append(f"{key}: entries too large for an array length "
                              f"(at most {_MAX_COUNT}): {huge}")
        else:
            _check_halving_chain(key, values, violations)
    if base.get("T") is not None:
        for t in base.get("snapshot_times") or []:
            if not (0.0 <= t <= base["T"]):
                violations.append(f"snapshot_times: {t} outside [0, {base['T']}]")

    if violations:
        raise ConfigError(violations)

    _check_steps(base, violations)
    if profile is not None:
        kind, a, b = profile
        if kind == "sech2":
            base["phi"] = lambda x: a / np.cosh(x / b) ** 2
        else:  # sine: b periods over the domain
            length = base["x_right"] - base["x_left"]
            x0 = base["x_left"]
            base["phi"] = lambda x: a * np.sin(2.0 * np.pi * b * (x - x0) / length)
    if experiment == "custom" and base.get("phi") is None:
        violations.append("phi missing (custom experiments need an initial profile)")

    if violations:
        raise ConfigError(violations)

    return ExperimentConfig(**base)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError listing every
    violation found."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    return parse_config_text(text)
