"""Lockstep batches: cases that share a time grid march on one node array
and give each case the bits it gets when marched alone."""

import re

import numpy as np
import pytest

from bbmb.cli import run_experiment
from bbmb.config import parse_config_text
from bbmb.grid import Batch, Grid1D
from bbmb.linalg import CyclicReductionSolver
from bbmb.scheme import (SchemeParams, SolverFailure, StepWorkspace, advance,
                         assemble_first_step, assemble_interior_step, init_state, march)

from conftest import (example1_exact, example1_grid, example1_params,
                      example2_grid, example2_params, example2_phi,
                      example3_grid, example3_params, example3_phi)
from test_scheme import _interior_step_calls

EXAMPLES = {
    "example1": (example1_grid, example1_params, lambda x: example1_exact(x, 0.0)),
    "example2": (example2_grid, example2_params, example2_phi),
    "example3": (example3_grid, example3_params, example3_phi),
}


def _alone(phi, grid, params):
    """Every level (u, v) of one case marched alone."""
    return [(st.u_curr, st.v_curr) for st in march(phi, grid, params)]


@pytest.mark.parametrize("chain", [(5, 33, 64, 65), (4, 8, 16, 32, 64, 128)])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_lockstep_levels_match_single_case_march(example, chain):
    make_grid, make_params, phi = EXAMPLES[example]
    params = make_params()
    grids = [make_grid(m, 6) for m in chain]
    batch = Batch(grids)
    kept = [(st.u_curr, st.v_curr, st.u_curr.copy(), st.v_curr.copy())
            for st in march(phi, batch, params)]
    assert len(kept) == batch.N + 1
    for j, grid in enumerate(grids):
        levels = _alone(phi, grid, params)
        for k, ((u, v, _, _), (u_ref, v_ref)) in enumerate(zip(kept, levels)):
            assert np.array_equal(batch.split(u)[j], u_ref), f"M={grid.M} level {k}: u"
            assert np.array_equal(batch.split(v)[j], v_ref), f"M={grid.M} level {k}: v"
    # no later step wrote into a level that was yielded earlier
    for u, v, u_copy, v_copy in kept:
        assert np.array_equal(u, u_copy) and np.array_equal(v, v_copy)


def test_batch_shift_wraps_inside_each_case():
    batch = Batch([Grid1D(L=1.0, M=m, T=1.0, N=2) for m in (4, 5)])
    a = np.arange(9.0)
    assert batch.shift(a, 1).tolist() == [1, 2, 3, 0, 5, 6, 7, 8, 4]
    assert batch.shift(a, -1).tolist() == [3, 0, 1, 2, 8, 4, 5, 6, 7]
    assert batch.case_max(np.stack((a, -a))).tolist() == [3.0, 8.0]
    with pytest.raises(ValueError):
        Batch([Grid1D(L=1.0, M=4, T=1.0, N=2), Grid1D(L=1.0, M=4, T=1.0, N=4)])


# The unknowns a corrupted solve shifts, as a column index of its (M, 2)
# solution: both, or v alone, which breaks only the compact relation row.
CORRUPTED = {"u_and_v": slice(None), "v_only": 1}


def _corrupt_solver(monkeypatch, m, unknowns, refinement_too=True, shift=1e-3):
    """Make the solvers of the M = m cases return a solution shifted by
    shift (1e-3 misses the residual budget, NaN is non-finite) in the
    CORRUPTED[unknowns] columns, at every solve or only at the first
    solve of each step (a solver's second solve of a step is its
    refinement).  Returns the list that gets the solver of each solve of
    those cases."""
    solve = CyclicReductionSolver.solve
    calls = []

    def corrupted(self, out=None):
        x = solve(self, out)
        if self.m == m:
            calls.append(self)
            if refinement_too or calls.count(self) % 2:
                x[:, CORRUPTED[unknowns]] += shift
        return x

    monkeypatch.setattr(CyclicReductionSolver, "solve", corrupted)
    return calls


@pytest.mark.parametrize("unknowns", sorted(CORRUPTED))
def test_failing_case_is_named_with_its_step(monkeypatch, tmp_path, unknowns):
    # a constant error survives refinement: the correction solve adds it too
    _corrupt_solver(monkeypatch, 16, unknowns)
    batch = Batch([example1_grid(m, 10) for m in (8, 16, 32)])
    with pytest.raises(SolverFailure, match=r"^step 1: solve residual .*\(case M = 16, N = 10\)$"):
        for _ in march(lambda x: example1_exact(x, 0.0), batch, example1_params()):
            pass
    config = parse_config_text("experiment = example1\nT = 1\nM = 8 16 32\nN = 10\n")
    assert run_experiment(config, "convergence", str(tmp_path)) == 3
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert report[1].startswith("FAIL  solver: step 1: solve residual")
    assert report[1].endswith("(case M = 16, N = 10)")


def test_non_finite_solution_is_named_with_its_step(monkeypatch, tmp_path):
    # a NaN fails the step before the residual gate, and is never refined
    _corrupt_solver(monkeypatch, 16, "u_and_v", shift=np.nan)
    message = "step 1: solver returned non-finite values (case M = 16, N = 10)"
    batch = Batch([example1_grid(m, 10) for m in (8, 16, 32)])
    with pytest.raises(SolverFailure, match=f"^{re.escape(message)}$"):
        for _ in march(lambda x: example1_exact(x, 0.0), batch, example1_params()):
            pass
    config = parse_config_text("experiment = example1\nT = 1\nM = 8 16 32\nN = 10\n")
    assert run_experiment(config, "convergence", str(tmp_path)) == 3
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert report[0].startswith("STALE: the run failed")
    assert report[1:] == [f"FAIL  solver: {message}"]


@pytest.mark.parametrize("unknowns", sorted(CORRUPTED))
def test_refinement_repairs_only_the_failing_case(monkeypatch, unknowns):
    params, phi = example1_params(), lambda x: example1_exact(x, 0.0)
    grids = [example1_grid(m, 4) for m in (8, 16, 32)]
    alone = [_alone(phi, g, params) for g in grids]
    calls = _corrupt_solver(monkeypatch, 16, unknowns, refinement_too=False)
    batch = Batch(grids)
    levels = [st.u_curr for st in march(phi, batch, params)]
    assert len(calls) == 2 * batch.N  # every step of M = 16 was refined once
    for k, u in enumerate(levels):
        coarse, middle, fine = batch.split(u)
        assert np.array_equal(coarse, alone[0][k][0])
        assert np.array_equal(fine, alone[2][k][0])
        assert np.allclose(middle, alone[1][k][0], rtol=0, atol=1e-12)


def test_cases_refined_in_one_step_share_no_scratch(monkeypatch):
    # two equal cases, both refined at every step: each correction solve
    # overwrites the scratch that holds the gate's residual of both
    params, phi = example1_params(), lambda x: example1_exact(x, 0.0)
    grid = example1_grid(64, 4)
    alone = _alone(phi, grid, params)
    calls = _corrupt_solver(monkeypatch, 64, "u_and_v", refinement_too=False)
    batch = Batch([grid] * 2)
    levels = [(st.u_curr, st.v_curr) for st in march(phi, batch, params)]
    assert len(set(calls)) == 2
    assert all(calls.count(solver) == 2 * batch.N for solver in calls)
    for k, (u, v) in enumerate(levels):
        for j in range(2):
            assert np.allclose(batch.split(u)[j], alone[k][0], rtol=0, atol=1e-12)
            assert np.allclose(batch.split(v)[j], alone[k][1], rtol=0, atol=1e-12)


def test_refined_step_leaves_the_assembled_system(monkeypatch):
    # refinement solves the residual in the step buffer's right-hand side
    # rows and writes b back, so after a refined step the buffer holds the
    # step system as assembled, right-hand side included
    params, phi = example1_params(), lambda x: example1_exact(x, 0.0)
    batch = Batch([example1_grid(m, 4) for m in (8, 16, 32)])
    calls = _corrupt_solver(monkeypatch, 16, "u_and_v", refinement_too=False)
    work = StepWorkspace(batch, params)
    state = init_state(phi, batch)
    for assemble in (assemble_first_step, assemble_interior_step, assemble_interior_step):
        new = advance(state, work)
        assert np.array_equal(work.coeffs,
                              assemble(state, StepWorkspace(batch, params)).coeffs)
        state = new
    assert len(calls) == 6  # each step of M = 16 was refined


def test_non_finite_system_names_its_case():
    # a source that overflows on the second case's nodes only
    params = SchemeParams(mu=1.0, source=lambda x, t: np.where(np.arange(x.size) >= 8,
                                                               np.inf, 0.0))
    batch = Batch([Grid1D(L=2.0, M=m, T=1.0, N=4) for m in (8, 16)])
    with pytest.raises(SolverFailure, match=r"^step 1: step system: .*\(case M = 16, N = 4\)$"):
        for _ in march(lambda x: np.sin(np.pi * x), batch, params):
            pass


# A lockstep step pays the fixed per-step cost once for all its cases:
# 286 calls for example1 at M = 8/16/32/64 against 486 for the four
# single-case steps (numpy 2.4.6).
LOCKSTEP_CALL_RATIO = 0.65


def test_lockstep_step_call_count():
    chain = (8, 16, 32, 64)
    params, phi = example1_params(), lambda x: example1_exact(x, 0.0)
    single = sum(_interior_step_calls(example1_grid(m, 100), params, phi) for m in chain)
    lockstep = _interior_step_calls(Batch([example1_grid(m, 100) for m in chain]),
                                    params, phi)
    assert lockstep <= LOCKSTEP_CALL_RATIO * single, (
        f"lockstep step made {lockstep} calls, four single-case steps {single}")
