"""Command-line front end: experiment runner and report emission.

Subcommands
    run           march one configuration; emit snapshots.csv + energy.csv
    convergence   refinement study along one direction; emit
                  spatial_orders.csv or temporal_orders.csv
    invariants    track the energy invariant over a run; emit energy.csv
    stability     error sweep over a (tau, h) grid against the exact
                  solution; emit stability.csv

Every subcommand takes --config PATH and an optional --out DIR.
Cases that share a time grid (the M values of one N) march in
lockstep, as one grid.Batch: a spatial refinement chain and each N of
a stability sweep advance together, so each step's fixed cost is paid
once for all their cases, and their errors are folded level by level.
Each case's arithmetic is the same as when it runs alone, so the
emitted CSV files are byte-identical across reruns on one platform.
Every command of several cases (stability, and convergence along M or
N) fans out over the usable cores through one loop, _fan_out.  Its
groups are what one process would march whole: each N of an exact-error
run, or a posterior chain.  While there are fewer parts than cores, the
costliest part that can still split has its last case split off; a
posterior part keeps that case too, so that both halves hold a pair.
Each part is a lockstep batch, or, along N, runs driven in step, so no
case's bits change.  The parts are spread over min(parts, usable cores)
processes, this one and children made with os.fork, which write their
errors into one shared array.  Outputs and exit codes do not depend on
the number of processes.  Where os.fork or os.sched_getaffinity does
not exist, everything runs in this process.  Fork, not spawn: the config
holds lambdas, and a fresh interpreter would re-import numpy.  Nothing
runs in threads: the work is many short numpy calls that hold the
interpreter lock.
Levels are reduced as they are computed (scheme.march), so every
subcommand holds O(M) memory per case.
All floats are printed with 15 significant digits.

Exit codes: 0 success, 2 invalid config, 3 solver failure (the report
names the step and the case's M and N), 4 acceptance check failed.
"""

from __future__ import annotations

import functools
import mmap
import os
import signal
import sys

import numpy as np

from .analysis import (a_priori_bounds, convergence_table, fit_order, max_norm_errors,
                       posterior_spatial_errors, posterior_temporal_errors)
from .config import ConfigError, ExperimentConfig, parse_config
from .grid import Batch, Grid1D
from .scheme import SolverFailure, march, run

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


def _levels(config, batch: Batch):
    """Stream every level of a batch's cases, marched in lockstep, as
    (t, u) pairs; u spans the batch's nodes."""
    return ((st.k * batch.tau, st.u_curr)
            for st in march(config.phi, batch, config.params))


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _bins(costs: dict, w: int) -> list:
    """Split the keys of costs into w bins by Graham's LPT rule: largest
    cost first, each to the least-loaded bin.  Bin 0 holds the largest."""
    bins, loads = [[] for _ in range(w)], [0] * w
    for key in sorted(costs, key=costs.get, reverse=True):
        i = loads.index(min(loads))
        bins[i].append(key)
        loads[i] += costs[key]
    return bins


def _cost(part) -> int:
    """Node steps of a list of (M, N) cases: sum of M*N."""
    return sum(m * n for m, n in part)


def _parts(groups, w: int, shared: int) -> list:
    """The parts the groups, lists of (M, N) cases, run as on w cores, in
    group order.  A part yields len(part) - shared errors: shared is 0
    for an error per case and 1 for one per neighbouring pair.  While
    there are fewer than w parts, the costliest part that yields two or
    more has its last case split off, with the shared case before it, so
    a group's parts together yield the group's errors, in order."""
    parts = list(groups)
    while len(parts) < w:
        splittable = [i for i, part in enumerate(parts) if len(part) - shared > 1]
        if not splittable:
            break
        i = max(splittable, key=lambda i: _cost(parts[i]))
        part = parts[i]
        parts[i:i + 1] = [part[:-1], part[-1 - shared:]]
    return parts


def _errors(config: ExperimentConfig, part) -> list:
    """The errors of part's cases against the exact solution, in lockstep."""
    batch = Batch(_grid(config, m, n) for m, n in part)
    return max_norm_errors(_levels(config, batch), config.exact, batch)


def _estimates(config: ExperimentConfig, part) -> list:
    """The posterior errors of the neighbouring cases of part, a chain."""
    if len(config.n_values) > 1:
        return posterior_temporal_errors([_levels(config, Batch([_grid(config, m, n)]))
                                          for m, n in part])
    batch = Batch(_grid(config, m, n) for m, n in part)
    return posterior_spatial_errors(batch.split(u) for _, u in _levels(config, batch))


def _fan_out(groups, fold, shared: int) -> list:
    """fold(group) for each group of (M, N) cases that one process would
    march whole, computed by the parts of _parts, which fold into
    len(part) - shared errors each.  The parts are spread over
    w = min(parts, usable cores) processes: this one, which runs the
    heaviest, and w - 1 forked children.  All write their errors into
    one shared array, which stays NaN where a part raised or its
    process died.

    Once every child is reaped, each group with a NaN slot is marched
    again whole in this process, in group order, and the first that
    raises ends the run, so the outcome does not depend on w.  A group
    that raised whole in this process raises again at its turn, without
    being marched again.  Only the first group in group order that
    raises is reported, so each process marches its parts in group
    order and stops at the first that raises."""
    cores = _usable_cores()
    parts = _parts(groups, cores, shared)
    bins = _bins({i: _cost(part) for i, part in enumerate(parts)}, min(len(parts), cores))
    ends = np.cumsum([len(part) - shared for part in parts]).tolist()
    spans = list(zip([0] + ends, ends))
    # an anonymous mapping is shared with the children forked after it
    errors = np.frombuffer(mmap.mmap(-1, 8 * ends[-1]))
    errors.fill(np.nan)
    raised = {}  # span of a part that raised in this process -> its error

    def march_parts(keys):
        for i in sorted(keys):
            try:
                errors[slice(*spans[i])] = fold(parts[i])
            except Exception as exc:  # raised at its group's turn
                raised[spans[i]] = exc
                return

    children = []
    done = False
    try:
        for keys in bins[1:]:
            pid = os.fork()
            if pid == 0:
                try:
                    march_parts(keys)
                finally:
                    os._exit(0)
            children.append(pid)
        march_parts(bins[0])
        done = True
    finally:
        for pid in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    out, start = [], 0
    for group in groups:
        span = (start, start + len(group) - shared)
        start = span[1]
        if span in raised:
            raise raised[span]
        if np.isnan(errors[slice(*span)]).any():
            errors[slice(*span)] = fold(group)
        out.append(errors[slice(*span)].tolist())
    return out


def _conservative(config: ExperimentConfig) -> bool:
    params = config.params
    return params.source is None and params.reaction is None and params.nu >= 0


def _boundedness_check(config: ExperimentConfig, grid: Grid1D, result):
    """Check the largest L2 and max norms over the levels of a
    conservative run against the a-priori bounds from its E(0)."""
    l2_bound, max_bound = a_priori_bounds(result.scaled_e0, result.scale, grid,
                                          config.params)
    ok = result.max_l2 <= l2_bound and result.max_abs <= max_bound
    return (ok, "boundedness",
            f"max ||u|| = {result.max_l2:.6g} vs bound {l2_bound:.6g}, "
            f"max |u| = {result.max_abs:.6g} vs bound {max_bound:.6g}")


def _cmd_run(config: ExperimentConfig, out_dir) -> list:
    m, n = config.m_values[0], config.n_values[0]
    grid = _grid(config, m, n)
    result = run(config.phi, grid, config.params,
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
            drift, kind = result.drift
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

    # a posterior chain is one group, with an error per neighbouring pair
    groups = [[size] for size in sizes] if temporal and not config.posterior else [sizes]
    fold = functools.partial(_estimates if config.posterior else _errors, config)
    folded = _fan_out(groups, fold, int(config.posterior))
    errors = list(zip(steps, (error for group in folded for error in group)))

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
    result = run(config.phi, grid, config.params, track_energy=True)
    _write_csv(os.path.join(out_dir, "energy.csv"), ["t", "E"], result.energy)

    checks = []
    drift, kind = result.drift
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
    curves = _fan_out([[(m, n) for m in config.m_values] for n in config.n_values],
                      functools.partial(_errors, config), 0)

    header = ["h"] + [f"tau={_fmt(config.T / n)}" for n in config.n_values]
    rows = [[config.length / m, *row] for m, row in zip(config.m_values, zip(*curves))]
    _write_csv(os.path.join(out_dir, "stability.csv"), header, rows)

    checks = []
    for n, curve in zip(config.n_values, curves):
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


# each subcommand's function and help text
_COMMANDS = {
    "run": (_cmd_run, "march one configuration and emit snapshots"),
    "convergence": (_cmd_convergence, "grid-refinement study along one direction"),
    "invariants": (_cmd_invariants, "track the energy invariant over a run"),
    "stability": (_cmd_stability, "error sweep over a (tau, h) grid"),
}


def run_experiment(config: ExperimentConfig, mode: str, out_dir: str) -> int:
    """Execute one experiment and write its report; returns an exit code.

    Floating-point warnings are silenced: a run that overflows is caught
    by the solver's finiteness checks and reported as a solver failure.
    """
    os.makedirs(out_dir, exist_ok=True)
    try:
        with np.errstate(all="ignore"):
            checks = _COMMANDS[mode][0](config, out_dir)
    except SolverFailure as exc:
        _write_report(out_dir, [(False, "solver", str(exc))], stale=True)
        return EXIT_SOLVER
    passed = _write_report(out_dir, checks)
    return EXIT_OK if passed else EXIT_ACCEPT


def main(argv=None) -> int:
    import argparse  # here, so that library users do not load it and gettext

    parser = argparse.ArgumentParser(
        prog="bbmb",
        description="Conservative fourth-order compact solver for the "
                    "BBM-Burgers equation on a periodic interval.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
