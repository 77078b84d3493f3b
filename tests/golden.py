"""Golden outputs of the bundled configs and of edge-case configs:
record them, or check a run against them.

Each golden <name> is one config run under one subcommand: a bundled
config configs/<name>.cfg, or an edge case that no bundled config
reaches, whose config lives under tests/golden/ (see EDGE_CASES).  It
runs through bbmb.cli.main in this process, once on all usable cores
and once with cli._usable_cores patched to 1.  Its exit code, CSV files
and report.txt are compared with the files under tests/golden/<name>/.
A mismatch names the file, row and column, and gives the largest
difference in tolerance units, so a roundoff move can be told from a
defect:

- solution values and errors: 1e-12*max|u|, energies: 1e-11*E(0), as
  perfbench's output check, but never below one ulp of max|u| or E(0);
- an order: 1e-9 of the order that its row's step and error give;
- a number in report.txt: one in its last printed digit.

Words, integers, grid values and the files' shapes have no tolerance.

    PYTHONPATH=src python tests/golden.py [--record]

checks every golden and exits 1 if any byte moved (on the platform the
goldens were recorded on, none does).  --record runs each on all cores
and writes its files as the goldens; a change that means to move bits
re-records them and lists the moved files.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import sys
import tempfile
from unittest import mock

import numpy as np

from bbmb import cli
from bbmb.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EXIT_CODE = "exit_code"
ERROR_TOL = 1e-12    # of max|u|
ENERGY_TOL = 1e-11   # of E(0)
ORDER_RTOL = 1e-9    # of the order its row's step and error give
# columns compared only as text: the grid, which config arithmetic fixes
_GRID = {"x", "t", "h", "step"}
# a printed number; re.split with it puts the numbers at odd indices
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def _mode(name: str) -> str:
    """The subcommand of a bundled config, from its name's suffix."""
    kind = name.rsplit("_", 1)[-1]
    return "convergence" if kind in ("spatial", "temporal") else kind


# goldens of configs under tests/golden/, by name: (config, subcommand).
# repair (nu < 0) is repaired by one refinement step; singular (tau = 2.5
# against example3's F'' >= -1) hits a singular pivot at step 3.  tiny's
# wave of amplitude 1e-160, whose squares underflow, conserves its energy
# to a relative drift.  example1 with mu = 0.001 hits a singular pivot at
# M = 64, at step 2 for N = 4 and at step 4 for N = 8 and 16: the failing
# sweep and exact chains report N = 4, first in config order, the
# posterior temporal chain (whose runs go in step) N = 16, and each split
# spatial chain the part that fails.  In the posterior chains of
# refined_chain only M = 256 refines, and the run passes; in
# failing_refined_chain every case refines at step 1 and M = 1024 still
# misses its budget.  energy_off writes snapshots.csv and no energy.csv.
# large is one case of 10^5 nodes: its curvature solve sweeps about 200
# chunks of rows, and its solver's levels work in the scratch that
# assembly and the gate share.
EDGE_CASES = {
    "repair": ("repair", "run"),
    "singular": ("singular", "run"),
    "tiny_invariants": ("tiny", "invariants"),
    "tiny_run": ("tiny", "run"),
    "failing_stability": ("failing_stability", "stability"),
    "failing_spatial": ("failing_spatial", "convergence"),
    "failing_posterior": ("failing_posterior", "convergence"),
    "failing_temporal": ("failing_temporal", "convergence"),
    "failing_temporal_posterior": ("failing_temporal_posterior", "convergence"),
    "refined_chain": ("refined_chain", "convergence"),
    "failing_refined_chain": ("failing_refined_chain", "convergence"),
    "energy_off": ("energy_off", "run"),
    "large": ("large", "invariants"),
}
# every golden, by name: (config file, subcommand)
RUNS = {
    **{name[:-4]: (os.path.join(CONFIGS, name), _mode(name[:-4]))
       for name in sorted(os.listdir(CONFIGS)) if name.endswith(".cfg")},
    **{name: (os.path.join(GOLDEN, config + ".cfg"), mode)
       for name, (config, mode) in EDGE_CASES.items()},
}


def _files(folder: str) -> dict:
    """The contents of a folder's files, by file name."""
    out = {}
    for file in sorted(os.listdir(folder)):
        with open(os.path.join(folder, file), "rb") as fh:
            out[file] = fh.read()
    return out


def run(name: str, out_dir: str, one_core: bool = False) -> dict:
    """The files a golden's run writes, and its exit code, by file name."""
    config, mode = RUNS[name]
    argv = [mode, "--config", config, "--out", out_dir]
    if one_core:
        with mock.patch.object(cli, "_usable_cores", lambda: 1):
            code = cli.main(argv)
    else:
        code = cli.main(argv)
    return {EXIT_CODE: f"{code}\n".encode(), **_files(out_dir)}


def _u_scale(name: str) -> float:
    """max|u| of a golden's run as perfbench reads it: the exact solution
    at T where there is one, else the initial profile, on the finest M."""
    config = parse_config(RUNS[name][0])
    grid = config.grids[max(config.m_values), config.n_values[0]]
    x = grid.nodes()
    u = config.exact(x, grid.T) if config.exact is not None else config.phi(x)
    return float(np.abs(u).max())


def _text_diff(file: str, got_lines: list, want_lines: list) -> tuple:
    """The first differing line of a text file, and the largest move of a
    printed number in units of its golden's last digit (inf if a word, an
    integer or the line count differs)."""
    if len(got_lines) != len(want_lines):
        return f"{file}: {len(got_lines)} lines against {len(want_lines)} in the golden", math.inf
    first, worst = None, 0.0
    for i, (line, ref) in enumerate(zip(got_lines, want_lines)):
        if line == ref:
            continue
        first = first or f"{file} line {i + 1}: {line!r} against golden {ref!r}"
        parts, ref_parts = _NUMBER.split(line), _NUMBER.split(ref)
        if len(parts) != len(ref_parts) or parts[::2] != ref_parts[::2]:
            worst = math.inf
            continue
        for a, r in zip(parts[1::2], ref_parts[1::2]):
            if a == r:
                continue
            mantissa, _, exponent = r.partition("e")
            if "." not in mantissa and not exponent:
                worst = math.inf
                continue
            digits = len(mantissa.partition(".")[2])
            worst = max(worst, abs(float(a) - float(r)) / 10.0 ** (int(exponent or 0) - digits))
    return f"{first}; largest difference {worst:.3g} tolerance units", worst


def _csv_diff(name: str, file: str, got_lines: list, want_lines: list) -> tuple:
    """The first differing row (the header is row 0) and column of a CSV
    file, and the largest difference in tolerance units (inf if the
    shape, the header, a grid value or an empty cell differs)."""
    got_rows = [line.split(",") for line in got_lines]
    want_rows = [line.split(",") for line in want_lines]
    if [len(row) for row in got_rows] != [len(row) for row in want_rows] \
            or got_rows[:1] != want_rows[:1]:
        return f"{file}: header or shape differs from the golden's", math.inf
    header = want_rows[0]
    first, worst, scale = None, 0.0, {}
    for i, (row, ref) in enumerate(zip(got_rows, want_rows)):
        for j, (a, r) in enumerate(zip(row, ref)):
            if a == r:
                continue
            column = header[j]
            first = first or f"{file} row {i} column {column}: {a!r} against golden {r!r}"
            if column in _GRID or not (a and r):
                units = math.inf
            elif column == "order":
                prev = got_rows[i - 1]
                step, error = header.index("step"), header.index("error")
                expected = (math.log(float(prev[error]) / float(row[error]))
                            / math.log(float(prev[step]) / float(row[step])))
                units = abs(float(a) - expected) / (ORDER_RTOL * max(1.0, abs(expected)))
            else:
                if column not in scale:
                    # at least one ulp, since E(0) or max|u| may be 0 or subnormal
                    value, tol = ((abs(float(want_rows[1][j])), ENERGY_TOL) if column == "E"
                                  else (_u_scale(name), ERROR_TOL))
                    scale[column] = max(tol * value, math.ulp(value))
                units = abs(float(a) - float(r)) / scale[column]
            worst = max(worst, units)
    return f"{first}; largest difference {worst:.3g} tolerance units", worst


def diff(name: str, file: str, got: bytes, want: bytes) -> tuple:
    """(where a file of a config's run differs from its golden, the
    largest difference in tolerance units)."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    if file.endswith(".csv"):
        return _csv_diff(name, file, got_lines, want_lines)
    return _text_diff(file, got_lines, want_lines)


def check(name: str, work: str) -> list:
    """Mismatches of a config's runs, on all cores and on one, against its
    golden files, each as (where, largest difference in tolerance units);
    work is a directory for the runs' outputs."""
    want = _files(os.path.join(GOLDEN, name))
    problems = []
    for one_core in (False, True):
        where = "one core" if one_core else "all cores"
        got = run(name, os.path.join(work, where.replace(" ", "_")), one_core)
        for file in sorted(set(got) | set(want)):
            if file not in got or file not in want:
                problems.append((f"{name} ({where}): {file} "
                                 f"{'missing' if file in want else 'not in the golden'}",
                                 math.inf))
            elif got[file] != want[file]:
                text, units = diff(name, file, got[file], want[file])
                problems.append((f"{name} ({where}): {text}", units))
    return problems


def record(name: str, work: str) -> None:
    folder = os.path.join(GOLDEN, name)
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    for file, data in run(name, work).items():
        with open(os.path.join(folder, file), "wb") as fh:
            fh.write(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the runs' outputs as the goldens")
    args = parser.parse_args(argv)
    problems = []
    for name in RUNS:
        with tempfile.TemporaryDirectory() as work:
            if args.record:
                record(name, work)
            else:
                problems += check(name, work)
        print(f"{name}: {'recorded' if args.record else 'checked'}", file=sys.stderr)
    for text, _ in problems:
        print(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
