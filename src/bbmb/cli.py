"""Command-line front end: experiment runner and report emission.

Subcommands
    run           march one configuration; emit snapshots.csv + energy.csv
    convergence   refinement study along one direction; emit
                  spatial_orders.csv or temporal_orders.csv
    invariants    track the energy invariant over a run; emit energy.csv
    stability     error sweep over a (tau, h) grid against the exact
                  solution; emit stability.csv

Every subcommand takes --config PATH and an optional --out DIR.
Refinement cases run one after another in a fixed order, so the
emitted CSV files are byte-identical across reruns on one platform.
Cases are not run in threads: the work is many short numpy calls that
hold the interpreter lock, so threads only add lock waits.
Levels are reduced as they are computed (scheme.march), so every
subcommand holds O(M) memory per run, except posterior convergence,
which keeps the levels of two neighbouring runs to compare them.
All floats are printed with 15 significant digits.

Exit codes: 0 success, 2 invalid config, 3 solver failure,
4 acceptance check failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (boundedness_bound, convergence_table, fit_order,
                       max_norm_bound, max_norm_error, posterior_spatial_error,
                       posterior_temporal_error)
from .config import ConfigError, ExperimentConfig, parse_config
from .grid import Grid1D
from .linalg import SingularSystemError
from .scheme import DivergenceError, SolverFailure, march, run

__all__ = ["main", "run_experiment"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ACCEPT = 4

SPATIAL_ORDER_WINDOW = (3.7, 4.5)
TEMPORAL_ORDER_WINDOW = (1.9, 2.1)
ENERGY_DRIFT_RTOL = 1e-9
PLATEAU_RTOL = 0.05
# A refinement chain of n runs gives n - 1 posterior errors, and fitting
# an order takes at least two.
MIN_POSTERIOR_CHAIN = 3


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row) + "\n")


def _write_report(out_dir, checks, stale=False):
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if stale:
            fh.write("STALE: the run failed; other output files may be left over "
                     "from a previous run\n")
        for ok, label, detail in checks:
            fh.write(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}\n")
    return all(ok for ok, _, _ in checks)


def _grid(config: ExperimentConfig, m: int, n: int) -> Grid1D:
    return Grid1D(L=config.length, M=m, T=config.T, N=n, x_left=config.x_left)


def _levels(config, m, n):
    """Stream every level of one (M, N) case as (t, u) pairs."""
    grid = _grid(config, m, n)
    return ((st.k * grid.tau, st.u_curr)
            for st in march(config.phi, grid, config.params()))


def _conservative(config: ExperimentConfig) -> bool:
    return config.source is None and config.reaction is None and config.nu >= 0


def _energy_drift(energy):
    """Largest departure of the energy series from E(0), as (drift, kind):
    relative to |E(0)|, or absolute when E(0) = 0 (the zero solution)."""
    e0 = energy[0][1]
    drift = max(abs(e - e0) for _, e in energy)
    if e0 == 0:
        return drift, "absolute"
    return drift / abs(e0), "relative"


def _boundedness_check(config: ExperimentConfig, grid: Grid1D, result):
    """Check the largest L2 and max norms over the levels of a
    conservative run against the a-priori bounds sqrt(2*E(0)) and
    sqrt(2*E(0))*(1/sqrt(L) + sqrt(L/mu)) from its initial data."""
    u0, v0, params = result.initial.u_curr, result.initial.v_curr, config.params()
    l2_bound = boundedness_bound(u0, v0, grid, params)
    max_bound = max_norm_bound(u0, v0, grid, params)
    ok = result.max_l2 <= l2_bound and result.max_abs <= max_bound
    return (ok, "boundedness",
            f"max ||u|| = {result.max_l2:.6g} vs bound {l2_bound:.6g}, "
            f"max |u| = {result.max_abs:.6g} vs bound {max_bound:.6g}")


def _cmd_run(config: ExperimentConfig, out_dir) -> list:
    m, n = config.m_values[0], config.n_values[0]
    grid = _grid(config, m, n)
    result = run(config.phi, grid, config.params(),
                 snapshot_times=config.snapshot_times or [config.T],
                 track_energy=config.energy)

    x = grid.nodes()
    header = ["x"] + [f"t={_fmt(t)}" for t, _ in result.snapshots]
    rows = [[x[i]] + [u[i] for _, u in result.snapshots] for i in range(m)]
    _write_csv(os.path.join(out_dir, "snapshots.csv"), header, rows)

    checks = [(True, "completed", f"marched {n} steps on {m} nodes")]
    if config.energy:
        _write_csv(os.path.join(out_dir, "energy.csv"), ["t", "E"], result.energy)
        if _conservative(config):
            drift, kind = _energy_drift(result.energy)
            checks.append((drift <= ENERGY_DRIFT_RTOL, "energy drift",
                           f"{kind} drift {drift:.3e} (budget {ENERGY_DRIFT_RTOL:.0e})"))
    if _conservative(config):
        checks.append(_boundedness_check(config, grid, result))
    return checks


def _cmd_convergence(config: ExperimentConfig, out_dir) -> list:
    spatial = len(config.m_values) > 1
    temporal = len(config.n_values) > 1
    if spatial and temporal:
        raise ConfigError(["ambiguous refinement direction: both M and N are chains; "
                           "fix one of them to a single value"])
    if not (spatial or temporal):
        raise ConfigError(["nothing to refine: both M and N are single values"])
    if not config.posterior and config.exact is None:
        raise ConfigError(["no exact solution available: set posterior = on"])
    chain_key, chain = ("M", config.m_values) if spatial else ("N", config.n_values)
    if config.posterior and len(chain) < MIN_POSTERIOR_CHAIN:
        raise ConfigError([
            f"{chain_key}: {chain} is too short for posterior = on; each posterior "
            f"error compares two neighbouring runs, so an order fit needs "
            f"at least {MIN_POSTERIOR_CHAIN} values"])

    if spatial:
        sizes = [(m, config.n_values[0]) for m in config.m_values]
        steps = [config.length / m for m, _ in sizes]
        out_name = "spatial_orders.csv"
        window = SPATIAL_ORDER_WINDOW
    else:
        sizes = [(config.m_values[0], n) for n in config.n_values]
        steps = [config.T / n for _, n in sizes]
        out_name = "temporal_orders.csv"
        window = TEMPORAL_ORDER_WINDOW

    if config.posterior:
        # each estimate compares two neighbouring runs level by level,
        # so only the pair being compared is held
        estimator = posterior_spatial_error if spatial else posterior_temporal_error
        errors = []
        coarse = list(_levels(config, *sizes[0]))
        for step, (m, n) in zip(steps, sizes[1:]):
            fine = list(_levels(config, m, n))
            errors.append((step, estimator(coarse, fine)))
            coarse = fine
    else:
        errors = [(step, max_norm_error(_levels(config, m, n), config.exact,
                                        _grid(config, m, n)))
                  for step, (m, n) in zip(steps, sizes)]

    rows = convergence_table(errors)
    _write_csv(os.path.join(out_dir, out_name), ["step", "error", "order"],
               [[r.step, r.error, "" if r.order is None else _fmt(r.order)]
                for r in rows])

    label = "spatial order" if spatial else "temporal order"
    zero_steps = [step for step, error in errors if error <= 0]
    if zero_steps:
        return [(False, label,
                 f"no order to fit: error is 0 at step {_fmt(zero_steps[0])} "
                 f"({len(zero_steps)} of {len(errors)} levels)")]
    fitted = fit_order(errors)
    lo, hi = window
    return [(lo <= fitted <= hi, label,
             f"fitted order {fitted:.4f} in [{lo}, {hi}] over {len(errors)} levels")]


def _cmd_invariants(config: ExperimentConfig, out_dir) -> list:
    m, n = config.m_values[0], config.n_values[0]
    grid = _grid(config, m, n)
    result = run(config.phi, grid, config.params(), track_energy=True)
    _write_csv(os.path.join(out_dir, "energy.csv"), ["t", "E"], result.energy)

    checks = []
    drift, kind = _energy_drift(result.energy)
    ok = drift <= ENERGY_DRIFT_RTOL if _conservative(config) else True
    checks.append((ok, "energy drift",
                   f"{kind} drift {drift:.3e} over t in [0, {config.T}]"
                   + ("" if _conservative(config) else " (not gated: run is forced)")))
    if _conservative(config):
        checks.append(_boundedness_check(config, grid, result))
    return checks


def _cmd_stability(config: ExperimentConfig, out_dir) -> list:
    if config.exact is None:
        raise ConfigError(["stability sweep needs an exact solution "
                           "(use the example1 preset)"])
    if len(config.m_values) < 2:
        raise ConfigError([f"M: {config.m_values} is too short for a stability sweep; "
                           "the plateau check compares the last two M values, "
                           "so at least two are needed"])
    table = {(n, m): max_norm_error(_levels(config, m, n), config.exact,
                                    _grid(config, m, n))
             for n in config.n_values for m in config.m_values}

    header = ["h"] + [f"tau={_fmt(config.T / n)}" for n in config.n_values]
    rows = [[config.length / m] + [table[(n, m)] for n in config.n_values]
            for m in config.m_values]
    _write_csv(os.path.join(out_dir, "stability.csv"), header, rows)

    checks = []
    for n in config.n_values:
        curve = [table[(n, m)] for m in config.m_values]
        # The curve approaches its time-limited plateau; near the
        # space/time error crossover it may dip below the plateau and
        # come back up, so monotonicity is required of the distance to
        # the plateau, not of the raw values.
        plateau = curve[-1]
        dist = [abs(v - plateau) for v in curve]
        slack = PLATEAU_RTOL * abs(plateau)
        monotone = all(b <= a * (1.0 + PLATEAU_RTOL) + slack
                       for a, b in zip(dist, dist[1:]))
        flat = abs(curve[-1] - curve[-2]) <= PLATEAU_RTOL * abs(curve[-2])
        checks.append((monotone and flat, f"plateau tau={_fmt(config.T / n)}",
                       f"approach monotone={monotone}, last two within "
                       f"{abs(curve[-1] - curve[-2]) / abs(curve[-2]):.2%}"))
    return checks


_COMMANDS = {
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "invariants": _cmd_invariants,
    "stability": _cmd_stability,
}


def run_experiment(config: ExperimentConfig, mode: str, out_dir: str) -> int:
    """Execute one experiment and write its report; returns an exit code.

    Floating-point warnings are silenced: a run that overflows is caught
    by the solver's finiteness checks and reported as a solver failure.
    """
    os.makedirs(out_dir, exist_ok=True)
    try:
        with np.errstate(all="ignore"):
            checks = _COMMANDS[mode](config, out_dir)
    except ConfigError:
        raise
    except (DivergenceError, SolverFailure, SingularSystemError) as exc:
        _write_report(out_dir, [(False, "solver", str(exc))], stale=True)
        return EXIT_SOLVER
    passed = _write_report(out_dir, checks)
    return EXIT_OK if passed else EXIT_ACCEPT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bbmb",
        description="Conservative fourth-order compact solver for the "
                    "BBM-Burgers equation on a periodic interval.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "march one configuration and emit snapshots"),
            ("convergence", "grid-refinement study along one direction"),
            ("invariants", "track the energy invariant over a run"),
            ("stability", "error sweep over a (tau, h) grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        out_dir = args.out or config.out or "bbmb_out"
        return run_experiment(config, args.command, out_dir)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
