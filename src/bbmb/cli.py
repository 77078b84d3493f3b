"""Command-line front end: experiment runner and report emission.

Subcommands
    run           march one configuration; emit snapshots.csv + energy.csv
    convergence   refinement study along one direction; emit
                  spatial_orders.csv or temporal_orders.csv
    invariants    track the energy invariant over a run; emit energy.csv
    stability     error sweep over a (tau, h) grid against the exact
                  solution; emit stability.csv

Every subcommand takes --config PATH and an optional --out DIR
(default bbmb_out).  The names of a command's output files follow from
its config, so each path is checked before anything marches: a path
that cannot be opened for writing, such as a directory, is refused
without creating a file.  report.txt then reads one STALE line until
the run ends, so an interrupted run leaves no earlier run's PASS lines.
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
processes, this one and children made with os.fork.  Each part has one
outcome, its errors or the exception it raised; a child sends its
parts' outcomes back pickled through a pipe.  Outputs and exit codes do
not depend on the number of processes: a group that failed as one part
raises its error here, and a group with a failing part or a part
without an outcome (its child died, or os.fork failed) is marched again
here.  Where os.fork or os.sched_getaffinity does not exist, everything
runs in this process.  Fork, not spawn: the config holds lambdas, and a
fresh interpreter would re-import numpy.  Nothing runs in threads: the
work is many short numpy calls that hold the interpreter lock.
Levels are reduced as they are computed (scheme.march), so every
subcommand holds O(M) memory per case.
All floats are printed with 15 significant digits.

Exit codes: 0 success; 2 invalid config (unreadable, not UTF-8,
breaking a rule, such as M > 2^53, or unfit for the subcommand, which
is refused before the output directory is made) or an output directory
or file that cannot be written, with a line on stderr per violation;
3 solver failure (the report names the step and the case's M and N) or
out of memory, with report.txt marked STALE; 4 acceptance check failed.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys

import numpy as np

from .analysis import (convergence_table, fit_order, max_norm_errors,
                       posterior_spatial_errors, posterior_temporal_errors)
from .config import ConfigError, ExperimentConfig, parse_config
from .grid import Batch
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


def _unwritable(path, exc: OSError) -> ConfigError:
    return ConfigError([f"out: cannot write {path}: {exc.strerror}"])


def _check_writable(paths):
    """Refuse the first path that cannot be opened for writing, such as a
    directory, without creating or truncating a file; a path that does
    not exist yet is left to its write.  O_NONBLOCK makes a FIFO without
    a reader fail at once instead of blocking."""
    for path in paths:
        try:
            os.close(os.open(path, os.O_WRONLY | getattr(os, "O_NONBLOCK", 0)))
        except FileNotFoundError:
            continue
        except OSError as exc:
            raise _unwritable(path, exc) from exc


def _write(path, lines):
    """Write lines to path; a write that fails, say on a full disk, makes
    the output directory unusable."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _write_csv(path, header, rows):
    _write(path, [",".join(header)] + [",".join(cell if isinstance(cell, str) else _fmt(cell)
                                                for cell in row) for row in rows])


def _write_report(path, checks, stale=None):
    """Write a PASS/FAIL line per check, after a STALE line when stale
    says why the run's other output files may be old ("failed" or "has
    not finished"); returns whether every check passed."""
    lines = [f"{'PASS' if ok else 'FAIL'}  {label}: {detail}" for ok, label, detail in checks]
    if stale:
        lines.insert(0, f"STALE: the run {stale}; other output files may be left over "
                        "from a previous run")
    _write(path, lines)
    return all(ok for ok, _, _ in checks)


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
    batch = Batch(config.grids[size] for size in part)
    return max_norm_errors(_levels(config, batch), config.exact, batch)


def _estimates(config: ExperimentConfig, part) -> list:
    """The posterior errors of the neighbouring cases of part, a chain."""
    if len(config.n_values) > 1:
        return posterior_temporal_errors([_levels(config, Batch([config.grids[size]]))
                                          for size in part])
    batch = Batch(config.grids[size] for size in part)
    return posterior_spatial_errors(batch.split(u) for _, u in _levels(config, batch))


def _fan_out(groups, fold, shared: int) -> list:
    """fold(group) for each group of (M, N) cases that one process would
    march whole, from the parts of _parts (len(part) - shared errors
    each) in w = min(parts, usable cores) processes: this one, which runs
    the heaviest, and w - 1 forked children.  A part's outcome is its
    errors or the exception it raised; each child pickles its own into a
    pipe, kept only if the child exited 0.  At each group's turn, in
    group order, a group that ran as one part and raised raises here,
    wherever it ran; a group with a part that raised (a part can fail
    otherwise than the whole) or that has no outcome (its child died, or
    os.fork failed) is marched again here.  So the outcome does not
    depend on w, and each process stops at its first part that raises."""
    cores = _usable_cores()
    parts = _parts(groups, cores, shared)
    bins = _bins({i: _cost(part) for i, part in enumerate(parts)}, min(len(parts), cores))
    outcomes = {}  # part index -> its errors, or the exception it raised

    def march_parts(keys):
        for i in sorted(keys):
            try:
                outcomes[i] = fold(parts[i])
            except Exception as exc:  # raised at its group's turn
                outcomes[i] = exc
                return

    children, done = [], False
    try:
        for keys in bins[1:]:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # e.g. out of process ids
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                try:
                    march_parts(keys)
                    payload = pickle.dumps(outcomes)
                    pickle.loads(payload)  # so that the reader can load it
                    with open(writer, "wb") as fh:
                        fh.write(payload)
                    os._exit(0)  # only once the outcomes are written whole
                finally:
                    os._exit(1)
            os.close(writer)
            children.append((pid, reader))  # reader: its outcomes' pipe
        march_parts(bins[0])
        done = True
    finally:
        for pid, reader in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
            with open(reader, "rb") as fh:
                payload = fh.read()  # until the child exits
            if os.waitpid(pid, 0)[1] == 0:
                outcomes.update(pickle.loads(payload))

    out = []
    for group in groups:
        mine = [outcomes.get(i) for i, part in enumerate(parts) if part[-1] in group]
        if len(mine) == 1 and isinstance(mine[0], Exception):
            raise mine[0]
        if any(o is None or isinstance(o, Exception) for o in mine):
            mine = [fold(group)]
        out.append([float(error) for o in mine for error in o])
    return out


def _conservative(config: ExperimentConfig) -> bool:
    params = config.params
    return params.source is None and params.reaction is None and params.nu >= 0


def _boundedness_check(result):
    """Check the largest L2 and max norms over the levels of a
    conservative run against the a-priori bounds from its E(0)."""
    l2_bound, max_bound = result.bounds
    ok = result.max_l2 <= l2_bound and result.max_abs <= max_bound
    return (ok, "boundedness",
            f"max ||u|| = {result.max_l2:.6g} vs bound {l2_bound:.6g}, "
            f"max |u| = {result.max_abs:.6g} vs bound {max_bound:.6g}")


def _cmd_run(config: ExperimentConfig, snapshots_path, energy_path=None) -> list:
    m, n = config.m_values[0], config.n_values[0]
    grid = config.grids[m, n]
    result = run(config.phi, grid, config.params,
                 snapshot_times=config.snapshot_times or [grid.T],
                 track_energy=config.energy)

    x = grid.nodes()
    header = ["x"] + [f"t={_fmt(t)}" for t, _ in result.snapshots]
    rows = [[x[i]] + [u[i] for _, u in result.snapshots] for i in range(m)]
    _write_csv(snapshots_path, header, rows)

    checks = [(True, "completed", f"marched {n} steps on {m} nodes")]
    if config.energy:
        _write_csv(energy_path, ["t", "E"], result.energy)
        if _conservative(config):
            drift, kind = result.drift
            checks.append((drift <= ENERGY_DRIFT_RTOL, "energy drift",
                           f"{kind} drift {drift:.3e} (budget {ENERGY_DRIFT_RTOL:.0e})"))
    if _conservative(config):
        checks.append(_boundedness_check(result))
    return checks


def _cmd_convergence(config: ExperimentConfig, orders_path) -> list:
    spatial = len(config.m_values) > 1
    if spatial:
        sizes = [(m, config.n_values[0]) for m in config.m_values]
        steps = [config.grids[size].h for size in sizes]
        window = SPATIAL_ORDER_WINDOW
    else:
        sizes = [(config.m_values[0], n) for n in config.n_values]
        steps = [config.grids[size].tau for size in sizes]
        window = TEMPORAL_ORDER_WINDOW

    # a posterior chain is one group, with an error per neighbouring pair
    groups = [sizes] if spatial or config.posterior else [[size] for size in sizes]
    fold = functools.partial(_estimates if config.posterior else _errors, config)
    folded = _fan_out(groups, fold, int(config.posterior))
    errors = list(zip(steps, (error for group in folded for error in group)))

    rows = convergence_table(errors)
    _write_csv(orders_path, ["step", "error", "order"],
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


def _cmd_invariants(config: ExperimentConfig, energy_path) -> list:
    grid = config.grids[config.m_values[0], config.n_values[0]]
    result = run(config.phi, grid, config.params, track_energy=True)
    _write_csv(energy_path, ["t", "E"], result.energy)

    checks = []
    drift, kind = result.drift
    ok = drift <= ENERGY_DRIFT_RTOL if _conservative(config) else True
    checks.append((ok, "energy drift",
                   f"{kind} drift {drift:.3e} over t in [0, {grid.T}]"
                   + ("" if _conservative(config) else " (not gated: run is forced)")))
    if _conservative(config):
        checks.append(_boundedness_check(result))
    return checks


def _cmd_stability(config: ExperimentConfig, stability_path) -> list:
    curves = _fan_out([[(m, n) for m in config.m_values] for n in config.n_values],
                      functools.partial(_errors, config), 0)

    m0, n0 = config.m_values[0], config.n_values[0]
    taus = [_fmt(config.grids[m0, n].tau) for n in config.n_values]
    header = ["h"] + [f"tau={tau}" for tau in taus]
    rows = [[config.grids[m, n0].h, *row] for m, row in zip(config.m_values, zip(*curves))]
    _write_csv(stability_path, header, rows)

    checks = []
    for tau, curve in zip(taus, curves):
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
        checks.append((monotone and flat, f"plateau tau={tau}",
                       f"approach monotone={monotone}, last two within "
                       f"{abs(curve[-1] - curve[-2]) / abs(curve[-2]):.2%}"))
    return checks


# each subcommand's function, the names of the files it writes besides
# report.txt (the function takes their paths in this order), and help text
_COMMANDS = {
    "run": (_cmd_run,
            lambda config: ["snapshots.csv"] + (["energy.csv"] if config.energy else []),
            "march one configuration and emit snapshots"),
    "convergence": (_cmd_convergence,
                    lambda config: ["spatial_orders.csv" if len(config.m_values) > 1
                                    else "temporal_orders.csv"],
                    "grid-refinement study along one direction"),
    "invariants": (_cmd_invariants, lambda _config: ["energy.csv"],
                   "track the energy invariant over a run"),
    "stability": (_cmd_stability, lambda _config: ["stability.csv"],
                  "error sweep over a (tau, h) grid"),
}


def _command_violations(config: ExperimentConfig, mode: str) -> list:
    """Every rule of mode that config breaks: convergence refines one
    chain against an exact solution or by posterior estimates, and a
    stability sweep needs an exact solution and two or more M."""
    violations = []
    spatial, temporal = len(config.m_values) > 1, len(config.n_values) > 1
    if mode == "convergence":
        if spatial and temporal:
            violations.append("ambiguous refinement direction: both M and N are chains; "
                              "fix one of them to a single value")
        if not (spatial or temporal):
            violations.append("nothing to refine: both M and N are single values")
        if not config.posterior and config.exact is None:
            violations.append("no exact solution available: set posterior = on")
        chain_key, chain = ("M", config.m_values) if spatial else ("N", config.n_values)
        if spatial != temporal and config.posterior and len(chain) < MIN_POSTERIOR_CHAIN:
            violations.append(
                f"{chain_key}: {chain} is too short for posterior = on; each posterior "
                f"error compares two neighbouring runs, so an order fit needs "
                f"at least {MIN_POSTERIOR_CHAIN} values")
    if mode == "stability":
        if config.exact is None:
            violations.append("stability sweep needs an exact solution "
                              "(use the example1 preset)")
        if not spatial:
            violations.append(f"M: {config.m_values} is too short for a stability sweep; "
                              "the plateau check compares the last two M values, "
                              "so at least two are needed")
    return violations


def run_experiment(config: ExperimentConfig, mode: str, out_dir: str) -> int:
    """Execute one experiment and write its report; returns an exit code.

    A config that breaks a rule of mode is refused before out_dir is
    made, and an output file that cannot be opened for writing before
    anything marches.  Until the run ends, report.txt is one STALE line,
    so that an interrupted run leaves no earlier run's report.
    Floating-point warnings are silenced: a run that overflows is
    caught by the solver's finiteness checks and reported as a solver
    failure.  A run that runs out of memory is reported likewise.
    """
    violations = _command_violations(config, mode)
    if violations:
        raise ConfigError(violations)
    command, names, _ = _COMMANDS[mode]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"out: cannot make directory {out_dir}: {exc.strerror}"]) from exc
    paths = [os.path.join(out_dir, name) for name in names(config) + ["report.txt"]]
    _check_writable(paths)
    *outputs, report = paths
    _write_report(report, [], stale="has not finished")
    try:
        with np.errstate(all="ignore"):
            checks = command(config, *outputs)
    except (SolverFailure, MemoryError) as exc:
        label = "solver" if isinstance(exc, SolverFailure) else "memory"
        _write_report(report, [(False, label, str(exc) or "out of memory")], stale="failed")
        return EXIT_SOLVER
    passed = _write_report(report, checks)
    return EXIT_OK if passed else EXIT_ACCEPT


def main(argv=None) -> int:
    import argparse  # here, so that library users do not load it and gettext

    parser = argparse.ArgumentParser(
        prog="bbmb",
        description="Conservative fourth-order compact solver for the "
                    "BBM-Burgers equation on a periodic interval.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default="bbmb_out", help="output directory")

    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        return run_experiment(config, args.command, args.out)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
