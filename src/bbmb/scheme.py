"""Three-level linearized compact time stepper for the BBM-Burgers equation

    u_t - mu*u_xxt + gamma*u*u_x + kappa*u_x - nu*u_xx [+ F'(u)] = f(x, t)

on a periodic interval.  The equation is reduced to a coupled system in
(u, v) with v = u_xx tied to u through the fourth-order compact relation

    v = second_diff(u) - (h^2/12) * second_diff(v),

so only three-point stencils appear.  Each step solves one cyclic
block-tridiagonal system for the new (u, v) pair: a two-level starting
step linearized at the initial data, then three-level steps linearized
at the middle level, which keeps the advection term skew-symmetric and
the invariant of the analysis module exactly conserved (nu = 0) or
monotonically accounted (nu > 0).

Lockstep: cases that share a time grid (N and T) march together as one
grid.Batch, their nodes end to end on one array.  A step assembles one
packed system for all of them, solves each case's block of it with the
case's own solver, and holds every case to its own residual budget in
one pass over the batch; after the cases that miss it are refined, the
same pass checks the batch again.  The compact relation is the second
block row of the system, so that one gate also holds it.  Every way a
step can fail raises one SolverFailure that names the step and the
case's M and N.  A single grid is a batch of one and does the same
arithmetic as on its own.  A step keeps no energy books: run computes
every energy from the levels it is handed, on the data's scale.

Memory: a step takes its state and a StepWorkspace(grid, params) alone,
as advance(state, work), assemble_first_step(state, work) and
assemble_interior_step(state, work); init_state(phi, grid) needs none,
and march builds one per batch.  The workspace binds what does not
change between steps once: the h-dependent factors of assembly, the
packed (2, 7, M) step-system buffer with its constant entries (the
compact relation row and v's kappa coupling) and each case's view of
it, the compact row's absolute row sums for the gate, and each case's
cyclic-reduction solver, built for that view.
The workspace owns one flat scratch array, as large as the larger of
thirteen rows of the batch's nodes and the largest case's level
scratch.  Assembly and the gate work in its rows, and every case's
solver reduces in it.  These phases run one after another, and each
writes the scratch it reads, so no scratch content outlives its phase;
the one value a phase keeps past another's use of the scratch, the
gate's residual while it refines the cases that missed, moves into the
step buffer's right-hand side rows, whose values are copied out first
and written back after.  A step allocates little beyond its fresh
(u, v) solution, which no later step touches.  At M = 5000 a case's
workspace holds 3.74 packed systems, and assembly's thirteen rows size
its scratch.  init_state's curvature solve
sweeps its rows in chunks and reads constant coefficients broadcast
from one stencil, so it peaks below one packed system.

Consistency: _assemble_step is the one transcription of the difference
equations.  truncation_residual assembles each step's system at an
exact solution's levels and takes the residual of the exact new level,
so the measured defects are those of the systems every run solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .analysis import _data_scale, a_priori_bounds, energy_drift, gradient_energy
from .grid import _SMALLEST_NORMAL, Batch, Grid1D, as_field, second_diff
from .linalg import (CyclicBlockTriSystem, CyclicReductionSolver, ScalarCyclicTriSystem,
                     SingularSystemError, block_matvec, solve_cyclic_block_tridiagonal,
                     solve_scalar_cyclic)

__all__ = [
    "SchemeParams",
    "StepperState",
    "StepWorkspace",
    "RunResult",
    "TruncationResiduals",
    "SolverFailure",
    "compact_curvature",
    "init_state",
    "assemble_first_step",
    "assemble_interior_step",
    "newton_reaction_terms",
    "advance",
    "march",
    "run",
    "truncation_residual",
]

# Relative residual budget of every production solve.  The gate holds
# both block rows of each case's step system to it, so every accepted
# level meets the evolution equation and the compact relation to the
# case's solve budget.  The budget also admits residuals below the
# smallest normal float: there, data too small for normal floats carry
# no relative precision to enforce.
SOLVE_RESIDUAL_RTOL = 1e-11
# Entries of the compact relation's row: u's and v's three coefficients
# (times 1/h^2 for u) for the left neighbour, the node, the right one
_COMPACT_U = np.array([-1.0, 2.0, -1.0])[:, None]
_COMPACT_V = np.array([1.0 / 12.0, 5.0 / 6.0, 1.0 / 12.0])[:, None]


class SolverFailure(Exception):
    """A step failed for one case: its initial data were nonzero but below
    the normal float range, its initial curvature, step system or
    solution was non-finite (finite input can overflow), its system had a
    singular pivot, or its solution missed the residual budget even after
    one refinement step.  The message reads
    'step k: <reason> (case M = m, N = n)', with step 0 the initial data."""


@dataclass
class SchemeParams:
    """PDE coefficients plus optional source and reaction callbacks.

    source(x, t) is added to the right-hand side of the u-equation
    (vectorized over x).  reaction is a pair (fprime, fsecond) of
    vectorized callbacks for F'(u) and F''(u); the stepper linearizes
    F' at the middle level, one linearization per step.
    """

    mu: float
    gamma: float = 0.0
    kappa: float = 0.0
    nu: float = 0.0
    source: Optional[Callable] = None
    reaction: Optional[tuple] = None

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"dispersion coefficient mu must be > 0, got {self.mu}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"nonlinearity coefficient gamma must be >= 0, got {self.gamma}")
        if not np.isfinite(self.kappa):
            raise ValueError(f"advection coefficient kappa must be finite, got {self.kappa}")
        if not np.isfinite(self.nu):
            raise ValueError(f"diffusion coefficient nu must be finite, got {self.nu}")
        if self.reaction is not None and len(self.reaction) != 2:
            raise ValueError("reaction must be a pair (fprime, fsecond) of callbacks")


@dataclass
class StepperState:
    """Two consecutive levels of (u, v).  The fields span the batch's
    nodes, its cases end to end.  At k = 0 there is no previous level and
    u_prev/v_prev are None."""

    k: int
    u_curr: np.ndarray
    v_curr: np.ndarray
    u_prev: Optional[np.ndarray]
    v_prev: Optional[np.ndarray]


class StepWorkspace:
    """What one batch reuses at every step (see the module docstring),
    built for grid, a Grid1D or a Batch, and params; a step reads its
    grid, tau and coefficients from it.  It serves one step at a time.

    coeffs is the packed system of all the cases, system the system that
    holds it and cases each case's view of it; solvers holds one solver
    per case, built for the case's view and reducing in the flat array
    whose first rows are scratch.  The factors below are those of the
    assembly's terms, evaluated once in the same association, so each
    step computes the bits it did when it evaluated them itself.
    """

    def __init__(self, grid, params: SchemeParams):
        batch = self.batch = Batch.of(grid)
        self.params = params
        h, gamma, kappa = batch.h, params.gamma, params.kappa
        self.h6 = 6.0 * h
        self.neg_h6 = -self.h6
        self.h2 = 2.0 * h
        self.gamma_h2 = 0.25 * gamma * h * h
        self.kappa_4h = kappa / (4.0 * h)
        self.kappa_h2 = kappa * h * h / 12.0
        # the system adopts the zeroed buffer; every step's assembly
        # checks all its entries, the constant ones below included
        c = self.coeffs = np.zeros((2, 7, batch.M))
        self.system = CyclicBlockTriSystem.packed(c)
        self.cases = [CyclicBlockTriSystem.packed(c[:, :, start:stop])
                      for start, stop in batch.bounds]
        # evolution equation: v's coefficients in the sub and sup blocks
        c[0, 1] = kappa * h / 24.0
        c[0, 5] = -kappa * h / 24.0
        # compact relation at the new level, with a zero right-hand side
        c[1, 0:6:2] = _COMPACT_U * (1.0 / (h * h))
        c[1, 1:6:2] = _COMPACT_V
        # the largest absolute row sum of each case's compact row, for
        # the gate's matrix norm
        self.compact_norm = batch.case_max(np.abs(c[1, :6]).sum(axis=0))
        # one flat scratch array for the phases of a step (see the module
        # docstring): assembly and the gate use six (2, M) pairs and one
        # row of it, each case's solver its reduction levels' buffers
        flat = np.empty(max(13 * batch.M,
                            *(CyclicReductionSolver.scratch_size(g.M) for g in batch.grids)))
        self.scratch = flat[:13 * batch.M].reshape(13, batch.M)
        self.pairs = self.scratch[:12].reshape(6, 2, batch.M)
        self.solvers = [CyclicReductionSolver(case, scratch=flat) for case in self.cases]


def _failure(step: int, reason: str, batch: Batch, j) -> SolverFailure:
    """The SolverFailure of case j of batch at step (np.argmax of per-case
    flags, as Batch.case_max gives them, picks the first flagged case)."""
    grid = batch.grids[j]
    return SolverFailure(f"step {step}: {reason} (case M = {grid.M}, N = {grid.N})")


@dataclass
class RunResult:
    """Outcome of a full march: requested snapshots as (t, field) pairs,
    the per-level energy series, the largest L2 norm and largest |u|
    over all levels, the (L2, max) bounds from E(0) that hold for
    conservative runs (analysis.a_priori_bounds) and the series' (drift,
    kind) (analysis.energy_drift; None when untracked)."""

    snapshots: list
    energy: list
    max_l2: float
    max_abs: float
    bounds: tuple
    drift: Optional[tuple]


def compact_curvature(u, h: float) -> np.ndarray:
    """Solve the compact relation v + (h^2/12)*second_diff(v) = second_diff(u)
    for the fourth-order curvature v of a periodic field."""
    u = np.asarray(u, dtype=float)
    sub, diag, sup = np.broadcast_to(_COMPACT_V, (3, u.shape[0]))
    return solve_scalar_cyclic(ScalarCyclicTriSystem(sub=sub, diag=diag, sup=sup,
                                                     rhs=second_diff(u, h)))


def init_state(phi, grid) -> StepperState:
    """Sample the initial condition and solve each case's compact
    curvature.  grid is a Grid1D or a Batch.  A case whose data are
    nonzero but below the normal float range, where they carry no
    relative precision to gate, fails at step 0."""
    batch = Batch.of(grid)
    x = batch.nodes()
    u0 = np.asarray(phi(x), dtype=float)
    if u0.shape != x.shape:
        raise ValueError("initial condition callback must be vectorized over x")
    u0 = as_field(u0, batch.M)
    v0 = []
    for j, (g, u) in enumerate(zip(batch.grids, batch.split(u0))):
        try:
            v0.append(compact_curvature(u, g.h))
        except (ValueError, SingularSystemError) as exc:  # an overflowed rhs, a zero pivot
            raise _failure(0, f"initial curvature: {exc}", batch, j) from exc
        peak = max(np.abs(u).max(), np.abs(v0[-1]).max())
        if 0.0 < peak < _SMALLEST_NORMAL:
            raise _failure(0, f"initial data: max(|u|, |v|) = {peak:.6g} is below the "
                              f"smallest normal float {_SMALLEST_NORMAL:.6g}", batch, j)
    v0 = v0[0] if len(v0) == 1 else np.concatenate(v0)
    return StepperState(k=0, u_curr=u0, v_curr=v0, u_prev=None, v_prev=None)


def newton_reaction_terms(u_k, params: SchemeParams):
    """One-step Newton linearization of the reaction term F'(u) about u_k.

    The term enters the step equation at the averaged level, so writing
    F'(avg) ~ F'(u_k) + F''(u_k)*(avg - u_k) and splitting avg into its
    known and unknown halves gives a diagonal coefficient of
    0.5*F''(u_k) on the new level; the rest is known.  Returns
    (diag_coeff, known_part) where known_part still must be combined
    with the known half of the average (see the assemblers).
    """
    if params.reaction is None:
        raise ValueError("reaction callbacks are not configured")
    fprime, fsecond = params.reaction
    u_k = np.asarray(u_k, dtype=float)
    fp = np.asarray(fprime(u_k), dtype=float)
    fpp = np.asarray(fsecond(u_k), dtype=float)
    return 0.5 * fpp, fp - fpp * u_k


def _assemble_step(u_ref, v_ref, u_known, v_known, rate, work: StepWorkspace,
                   t_source: float, step: int) -> CyclicBlockTriSystem:
    """Shared assembly of the per-step system of every case of work's
    batch into work.coeffs, whose constant entries the workspace wrote;
    every other entry is overwritten.  Returns work.system.

    rate is 1/tau for the starting step and 1/(2*tau) for interior
    steps; (u_ref, v_ref) carry the linearization level and
    (u_known, v_known) the mirrored data level.  Block row i couples
    the unknown pair (u[i], v[i]) at the new level to its neighbours:
    its first equation (coeffs[0]) is the time-discrete PDE, its second
    (coeffs[1]) the compact relation at the new level.  Each level is
    shifted once each way; the skew rows, the skew product and the
    central differences are built from those shifts in work's scratch,
    in the operation order of grid.skew_advection, grid.central_diff and
    the skew rows c_super[i] = (a[i] + a[i+1])/(6h) and c_sub[i] =
    -(a[i-1] + a[i])/(6h) of b -> skew_advection(a, b).  Non-finite
    coefficients raise SolverFailure for the given step.
    """
    batch, params = work.batch, work.params
    shift = batch.shift
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu
    g = 0.5 * gamma
    ref, known, ref_r, ref_l, known_r, known_l = work.pairs
    row = work.scratch[12]
    c = work.coeffs

    ref[0], ref[1] = u_ref, v_ref
    known[0], known[1] = u_known, v_known
    shift(ref, 1, out=ref_r)
    shift(ref, -1, out=ref_l)
    shift(known, 1, out=known_r)
    shift(known, -1, out=known_l)

    # evolution equation: sub, diag and sup blocks' first rows; the skew
    # rows are (ref + ref_r)/(6h) above and -((ref_l + ref)/(6h)) below,
    # whose bits division by -(6h) gives: rounding ignores the sign
    skew_rows = known  # free once shifted
    np.divide(np.add(ref, ref_r, out=skew_rows), work.h6, out=skew_rows)
    sup = np.multiply(skew_rows[0], g, out=c[0, 4])
    sup -= np.multiply(work.gamma_h2, skew_rows[1], out=row)
    sup += work.kappa_4h
    np.divide(np.add(ref_l, ref, out=skew_rows), work.neg_h6, out=skew_rows)
    sub = np.multiply(skew_rows[0], g, out=c[0, 0])
    sub -= np.multiply(work.gamma_h2, skew_rows[1], out=row)
    sub -= work.kappa_4h
    c[0, 2] = rate
    c[0, 3] = -mu * rate - 0.5 * nu

    # skew_advection(ref, u_known) and central_diff((u_known, v_known))
    skew, tmp = skew_rows, ref  # ref is read for the last time below
    np.multiply(ref, np.subtract(known_r[0], known_l[0], out=row), out=skew)
    skew += np.multiply(ref_r, known_r[0], out=tmp)
    skew -= np.multiply(ref_l, known_l[0], out=tmp)
    skew /= work.h6
    diff = np.subtract(known_r, known_l, out=known_r)
    diff /= work.h2

    rhs = np.multiply(u_known, rate, out=c[0, 6])
    rhs -= np.multiply(v_known, mu * rate, out=row)
    rhs -= np.multiply(skew[0], g, out=row)
    rhs += np.multiply(work.gamma_h2, skew[1], out=row)
    rhs -= np.multiply(diff[0], 0.5 * kappa, out=row)
    rhs += np.multiply(work.kappa_h2, diff[1], out=row)
    rhs += np.multiply(v_known, 0.5 * nu, out=row)
    if params.source is not None:
        rhs += np.asarray(params.source(batch.nodes(), t_source), dtype=float)
    if params.reaction is not None:
        diag_coeff, known_part = newton_reaction_terms(u_ref, params)
        c[0, 2] += diag_coeff
        rhs -= known_part + diag_coeff * u_known

    finite = np.isfinite(c)
    if not finite.all():
        raise _failure(step, "step system: block system contains non-finite values",
                       batch, np.argmax(batch.case_max(~finite)))
    return work.system


def assemble_first_step(state: StepperState, work: StepWorkspace) -> CyclicBlockTriSystem:
    """System for the two-level starting step (unknowns at level 1) of
    work's batch, linearized at the initial data and written into work's
    buffer; the source is taken at t = tau/2."""
    if state.k != 0:
        raise ValueError(f"first step requires k == 0, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_curr, state.v_curr,
                          rate=1.0 / work.batch.tau, work=work,
                          t_source=0.5 * work.batch.tau, step=1)


def assemble_interior_step(state: StepperState, work: StepWorkspace) -> CyclicBlockTriSystem:
    """System for a three-level interior step (unknowns at level k+1) of
    work's batch, linearized at level k with level k-1 mirrored to the
    right-hand side and written into work's buffer; the source is taken
    at t_k."""
    if state.k < 1 or state.u_prev is None:
        raise ValueError(f"interior step requires k >= 1, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_prev, state.v_prev,
                          rate=0.5 / work.batch.tau, work=work,
                          t_source=state.k * work.batch.tau, step=state.k + 1)


def _checked_solve(work: StepWorkspace, step: int) -> np.ndarray:
    """Solve each case's block of the step system in work with the case's
    solver and hold every case to its own residual budget.  The cases
    that miss it get one refinement step (Skeel 1980; Higham 2002,
    ch. 12): the residual r = b - A x takes the place of b in the step
    buffer's right-hand side rows, each case that missed solves it with
    its own solver and adds the correction to x, and b is written back
    before the gate checks the batch again against the budgets of its
    first pass.  Returns the solution rows (u, v) as one fresh (2, M)
    array."""
    batch, cases, solvers = work.batch, work.cases, work.solvers
    uv = np.empty((2, batch.M))
    for j, (case, solver, (start, stop)) in enumerate(zip(cases, solvers, batch.bounds)):
        try:
            solve_cyclic_block_tridiagonal(case, solver, out=uv[:, start:stop])
        except SingularSystemError as exc:
            raise _failure(step, str(exc), batch, j) from exc
    finite = np.isfinite(uv)
    if not finite.all():
        raise _failure(step, "solver returned non-finite values", batch,
                       np.argmax(batch.case_max(~finite)))
    c, scratch = work.coeffs, work.scratch
    rhs = c[:, 6]
    # the matrix norm, the largest absolute row sum: row 0's sums here,
    # the constant compact row's from the workspace
    row_sums = np.abs(c[0, :6], out=scratch[:6]).sum(axis=0, out=scratch[12])
    norm = np.maximum(batch.case_max(row_sums), work.compact_norm)
    bound = SOLVE_RESIDUAL_RTOL * (batch.case_max(np.abs(rhs, out=scratch[:2]))
                                   + norm * batch.case_max(np.abs(uv, out=scratch[2:4]))
                                   ) + _SMALLEST_NORMAL
    for refined in (False, True):
        product = block_matvec(work.system, uv.T, batch.stencil,
                               near=scratch[:6].reshape(2, -1), out=scratch[6:8])
        r = np.subtract(rhs, product.T, out=scratch[8:10])
        res = batch.case_max(np.abs(r, out=scratch[6:8]))
        missed = ~(res <= bound)  # a NaN residual misses too
        if not missed.any():
            return uv
        if refined:
            j = np.argmax(missed)
            raise _failure(step, f"solve residual {np.ravel(res)[j]:.3e} exceeds budget "
                                 f"{np.ravel(bound)[j]:.3e} after one refinement step",
                           batch, j)
        # r moves out of the scratch that the correction solves overwrite
        b = rhs.copy()
        rhs[...] = r
        for j in np.flatnonzero(missed):
            uv[:, slice(*batch.bounds[j])] += solve_cyclic_block_tridiagonal(
                cases[j], solvers[j]).T
        rhs[...] = b


def advance(state: StepperState, work: StepWorkspace) -> StepperState:
    """Take one time step of every case of work's batch; returns the new
    state.

    The step system is assembled into work's buffer and each case's
    block is solved with the case's solver.  The new state's u and v are
    the rows of a fresh (2, M) array.
    """
    if state.k == 0:
        assemble_first_step(state, work)
    else:
        assemble_interior_step(state, work)
    u_next, v_next = _checked_solve(work, state.k + 1)
    return StepperState(k=state.k + 1, u_curr=u_next, v_curr=v_next,
                        u_prev=state.u_curr, v_prev=state.v_curr)


def march(phi, grid, params: SchemeParams) -> Iterator[StepperState]:
    """Yield the accepted state at each level k = 0..N, one at a time.

    grid is a Grid1D, or a Batch of cases that share the time grid,
    which march in lockstep: each yielded state holds every case's
    level, the cases end to end (Batch.split gives each case's view).
    Only the current state is held, so memory stays O(M) however long
    the run.  One StepWorkspace serves every step of the run and is
    dropped with the generator.  Fields are fresh arrays that are never
    modified after they are yielded, so a caller may keep references to
    them.  No energy is computed; run sums it for the callers that
    report it.
    """
    batch = Batch.of(grid)
    state = init_state(phi, batch)
    yield state
    work = StepWorkspace(batch, params)
    for _ in range(batch.N):
        state = advance(state, work)
        yield state


def run(phi, grid: Grid1D, params: SchemeParams, snapshot_times=None,
        track_energy: bool = True) -> RunResult:
    """March one case from t = 0 to t = T and fold the levels into a
    RunResult.

    snapshot_times must each lie within tau/2 of a grid time; snapshots
    are recorded at the nearest grid time without interpolation.  Norms
    and energies are taken on the fields divided by the initial data's
    power-of-two scale s (analysis._data_scale), which changes no bit in
    normal range and keeps tiny data's squares from underflowing.  Each
    level's energy e = ||u/s||^2 + mu*G(u/s, v/s) is computed once; level
    0's is E(0)/s^2, and level k's invariant is (e_k + e_{k-1})/2 plus
    the dissipation of steps 1..k, each step's weight (nu*tau for the
    starting step, 2*nu*tau after) times G at the average of its new
    level and the one it mirrors.  The drift is taken on this series,
    and RunResult.energy is it times s^2.  With track_energy off only
    E(0) is computed.  Callers that need every level iterate march().
    """
    wanted = (set() if snapshot_times is None
              else {grid.time_index(t) for t in snapshot_times})
    snapshots, series, max_l2_sq, max_abs, dissipation = [], [], 0.0, 0.0, 0.0
    for st in march(phi, grid, params):
        if st.k == 0:
            scale = _data_scale(st.u_curr, st.v_curr)
        if st.k in wanted:
            snapshots.append((st.k * grid.tau, st.u_curr))
        u = st.u_curr / scale
        l2_sq = grid.h * float((u * u).sum())
        max_l2_sq = max(max_l2_sq, l2_sq)
        max_abs = max(max_abs, float(np.abs(st.u_curr).max()))
        if st.k > 0 and not track_energy:
            continue
        v = st.v_curr / scale
        e = l2_sq + params.mu * gradient_energy(u, v, grid.h)
        if st.k == 0:
            series.append(e)
        else:
            # diffusion at the average of the new level and the one it mirrors
            u_old, v_old = mirrored
            weight = (1.0 if st.k == 1 else 2.0) * params.nu * grid.tau
            dissipation += weight * gradient_energy(0.5 * (u_old + u), 0.5 * (v_old + v),
                                                    grid.h)
            series.append(0.5 * (e + e_prev) + dissipation)
        # the level the next step mirrors: k - 1, or 0 for the starting step
        mirrored = (u, v) if st.k == 0 else level
        level, e_prev = (u, v), e
    energy = [(k * grid.tau, e * scale * scale) for k, e in enumerate(series)]
    return RunResult(snapshots=snapshots, energy=energy if track_energy else [],
                     max_l2=scale * float(np.sqrt(max_l2_sq)), max_abs=max_abs,
                     bounds=a_priori_bounds(series[0], scale, grid, params),
                     drift=energy_drift(series) if track_energy else None)


@dataclass(frozen=True)
class TruncationResiduals:
    """Max defects left by an exact solution in the three discrete
    equations: the starting step, the interior steps, and the compact
    relation."""

    first_step: float
    interior: float
    compact: float


def truncation_residual(u_exact, u_xx_exact, grid: Grid1D,
                        params: SchemeParams) -> TruncationResiduals:
    """Insert exact-solution samples into the production step systems and
    measure the defects they leave.

    u_exact(x, t) and u_xx_exact(x, t) must broadcast over x and t.  Each
    step's system is assembled by assemble_first_step or
    assemble_interior_step at the exact levels it linearizes at and
    mirrors, and r = b - A x is taken at the exact new level x = (U, V):
    row 0 is the step's defect, row 1 the compact relation's at the new
    level.  The compact row is the same in every system, with a zero
    right-hand side, so level 0's compact defect is row 1 of the first
    system applied to (U^0, V^0).  The compact-relation defect decays
    like h^4 and the interior defect like tau^2 + h^4, which the
    verification suite checks by halving.
    """
    x, t = grid.nodes(), grid.times()
    U = np.asarray(u_exact(x[None, :], t[:, None]), dtype=float)
    V = np.asarray(u_xx_exact(x[None, :], t[:, None]), dtype=float)
    if U.shape != (grid.N + 1, grid.M) or V.shape != (grid.N + 1, grid.M):
        raise ValueError("exact-solution callbacks must broadcast to (N+1, M)")
    levels = np.stack((U, V), axis=-1)  # level k's unknowns, (M, 2)

    def defects(system, k):
        """Largest |r| of each row of system at level k: (step, compact)."""
        return np.abs(system.rhs - block_matvec(system, levels[k])).max(axis=0)

    work = StepWorkspace(grid, params)
    system = assemble_first_step(StepperState(0, U[0], V[0], None, None), work)
    compact0 = defects(system, 0)[1]
    rows = [defects(system, 1)]
    for k in range(1, grid.N):
        state = StepperState(k, U[k], V[k], U[k - 1], V[k - 1])
        rows.append(defects(assemble_interior_step(state, work), k + 1))
    rows = np.array(rows)  # step k+1's defects at row k
    return TruncationResiduals(first_step=float(rows[0, 0]),
                               interior=float(rows[1:, 0].max()),
                               compact=float(max(compact0, rows[:, 1].max())))
