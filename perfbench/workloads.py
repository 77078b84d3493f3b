"""Seeded workload inputs and the output checks against the recorded reference.

A workload seed selects one of VARIANTS input variants; each variant's
parameters come from a generator seeded with the workload name and the
variant number, so the same seed always gives the same config file.  The
size of the work (M, N, number of cases) does not depend on the seed.
The CSV values of every variant were recorded once, in reference.json,
because correct values can only be checked against a known answer.

Tolerances.  Swapping the block-Thomas solve for a sparse LU solve
(SuperLU) of the same systems moved the error columns by at most
4e-14 of max |u| and the energies by at most 4.3e-13 of E(0) (on
these workloads and on larger M); the tolerances below leave a factor
of about 25 over that.  They still catch changes the program's own
report gates pass: a 4e-8 relative change of one stencil coefficient,
or of 1e-9 in the dissipation sum of the energy ledger.
"""

import csv
import json
import math
import os
import random

VARIANTS = 16
ERROR_TOL = 1e-12    # of max |u_exact|, for max-norm error columns
ENERGY_TOL = 1e-11   # of |E(0)|, for energy columns
GRID_RTOL = 1e-12    # relative, for grid columns (t, h, step)

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _wave_wide(rng):
    amp = f"{rng.uniform(0.3, 0.7):.3f}"
    width = f"{rng.uniform(3.0, 5.0):.3f}"
    return (f"experiment = custom\nx_left = -25\nx_right = 25\n"
            f"mu = 1\ngamma = 1\nkappa = 1\nnu = 1\n"
            f"phi = sech2 {amp} {width}\nT = 1\nM = 5000\nN = 100\nenergy = on\n")


def _forced_narrow(rng):
    return (f"experiment = example1\nT = {rng.uniform(0.8, 1.0):.3f}\n"
            f"M = 8 16 32 64\nN = 1000\n")


def _sweep_many(rng):
    return (f"experiment = example1\nT = {rng.uniform(0.9, 1.25):.3f}\n"
            f"M = 4 8 16 32 64 128\nN = 8 16 32 64 128\n")


# name -> (CLI subcommand, config generator, checked CSV, column kinds)
WORKLOADS = {
    "wave-wide": ("invariants", _wave_wide, "energy.csv", ("grid", "energy")),
    "forced-narrow": ("convergence", _forced_narrow, "spatial_orders.csv",
                      ("grid", "error", "order")),
    "sweep-many": ("stability", _sweep_many, "stability.csv",
                   ("grid",) + ("error",) * 5),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def config_text(workload: str, variant: int) -> str:
    return WORKLOADS[workload][1](random.Random(f"{workload}/{variant}"))


def _values(text: str) -> dict:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def node_steps(text: str) -> int:
    """Sum over the config's cases of M*N: nodes advanced, times steps."""
    values = _values(text)
    return sum(int(m) * int(n) for m in values["M"].split()
               for n in values["N"].split())


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) if c else None for c in row] for row in rows[1:]]


def _read_report(path):
    """(verdict, check label) per report.txt line."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.split(None, 1) for line in fh if line.strip()]
    return [(verdict, rest.split(":", 1)[0]) for verdict, rest in lines]


def collect(workload: str, out_dir: str) -> dict:
    """The checked outputs of one instance, in the reference's format."""
    header, rows = _read_csv(os.path.join(out_dir, WORKLOADS[workload][2]))
    report = _read_report(os.path.join(out_dir, "report.txt"))
    return {"header": header, "rows": rows, "report": [label for _, label in report]}


def check(workload: str, variant: int, exit_code: int, out_dir: str, reference: dict):
    """Problems found in one instance's outputs (empty when correct).

    Besides the exit code, every report.txt line must PASS, the report
    must hold the same checks as the reference, and each CSV value must
    match the reference within the tolerances above.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = _read_report(os.path.join(out_dir, "report.txt"))
        got = collect(workload, out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    problems = [f"report line {label!r} is {verdict}" for verdict, label in report
                if verdict != "PASS"]
    ref = reference[workload][str(variant)]
    if got["report"] != ref["report"]:
        problems.append(f"report checks {got['report']} differ from {ref['report']}")
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        return problems + ["CSV shape or header differs from the reference"]

    kinds = WORKLOADS[workload][3]
    # max |exp(t) sin(pi x)| over the run is exp(T)
    scale = {"energy": abs(ref["rows"][0][1]),
             "error": math.exp(float(_values(config_text(workload, variant))["T"]))}
    prev = None
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        for j, (kind, a, r) in enumerate(zip(kinds, row, ref_row)):
            if kind == "order":
                ok = _order_consistent(prev, row, a)
            elif a is None or r is None:
                ok = a is None and r is None
            elif kind == "grid":
                ok = abs(a - r) <= GRID_RTOL * abs(r)
            else:
                tol = (ENERGY_TOL if kind == "energy" else ERROR_TOL) * scale[kind]
                ok = abs(a - r) <= tol
            if not ok:
                problems.append(f"{WORKLOADS[workload][2]} row {i + 1} column "
                                f"{got['header'][j]}: {a!r} vs reference {r!r}")
        prev = row
    return problems


def _order_consistent(prev, row, order):
    """The order column must follow from the step and error columns."""
    if prev is None:
        return order is None
    expected = math.log(prev[1] / row[1]) / math.log(prev[0] / row[0])
    return order is not None and abs(order - expected) <= 1e-9 * max(1.0, abs(expected))


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
