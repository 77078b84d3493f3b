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
one pass over the batch.  The compact relation is the second block row
of the system, so that one gate also holds it.  A single grid is a
batch of one and does the same arithmetic as on its own.  A step keeps
no energy books: run, the one caller that reports the invariant, sums
the dissipation from the levels it is handed.

Memory: march builds one StepWorkspace per batch.  It binds what does
not change between steps once: the h-dependent factors of assembly, the
packed (2, 7, M) step-system buffer with its constant entries (the
compact relation row and v's kappa coupling) and each case's view of
it, the compact row's absolute row sums for the gate, and each case's
cyclic-reduction solver, whose level views stay bound to that view.
Each step overwrites the rest of the buffer through scratch rows that
the assembly and the gate share, so a step allocates little beyond its
fresh (u, v) solution, which no later step touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .analysis import _data_scale, gradient_energy, initial_energy
from .grid import (Batch, Grid1D, as_field, central_diff, periodic_shift,
                   second_diff, skew_advection)
from .linalg import (CyclicBlockTriSystem, CyclicReductionSolver, ScalarCyclicTriSystem,
                     SingularSystemError, block_matvec, solve_cyclic_block_tridiagonal,
                     solve_scalar_cyclic)

__all__ = [
    "SchemeParams",
    "StepperState",
    "StepWorkspace",
    "RunResult",
    "TruncationResiduals",
    "DivergenceError",
    "SolverFailure",
    "skew_advection_rows",
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
_SMALLEST_NORMAL = np.finfo(float).tiny
# Entries of the compact relation's row: u's and v's three coefficients
# (times 1/h^2 for u) for the left neighbour, the node, the right one
_COMPACT_U = np.array([-1.0, 2.0, -1.0])[:, None]
_COMPACT_V = np.array([1.0 / 12.0, 5.0 / 6.0, 1.0 / 12.0])[:, None]


class DivergenceError(Exception):
    """A step system or solution became non-finite (finite input can
    overflow); carries the failing step index, 0 for the initial data.
    The message names the failing case's M.  args holds the
    constructor's arguments, so the error survives a pickle round trip."""

    def __init__(self, step: int, message: str):
        super().__init__(step, message)
        self.step = step

    def __str__(self):
        return f"step {self.step}: {self.args[1]}"


class SolverFailure(Exception):
    """A step's solve failed: a case's system had a singular pivot, or
    its solution missed the residual budget even after one refinement
    step.  The message names the step and the failing case's M."""


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
    built for grid, a Grid1D or a Batch, and params.  It serves one step
    at a time.

    coeffs is the packed system of all the cases, system the system that
    holds it and cases each case's view of it; solvers holds one solver
    per case.  The factors below are those of the assembly's terms,
    evaluated once in the same association, so each step computes the
    bits it did when it evaluated them itself.
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
        self.cases = self.system.segments(batch.bounds)
        self.solvers = [CyclicReductionSolver(g.M) for g in batch.grids]
        # evolution equation: v's coefficients in the sub and sup blocks
        c[0, 1] = kappa * h / 24.0
        c[0, 5] = -kappa * h / 24.0
        # compact relation at the new level, with a zero right-hand side
        c[1, 0:6:2] = _COMPACT_U * (1.0 / (h * h))
        c[1, 1:6:2] = _COMPACT_V
        # the largest absolute row sum of each case's compact row, for
        # the gate's matrix norm
        self.compact_norm = batch.case_max(np.abs(c[1, :6]).sum(axis=0))
        # scratch: six (2, M) pairs and one row, shared by assembly and
        # the gate, which run one after the other
        self.scratch = np.empty((13, batch.M))
        self.pairs = self.scratch[:12].reshape(6, 2, batch.M)


def _failing_case(batch: Batch, failed) -> str:
    """' (case M = m)' for the first case whose flag is set in failed,
    per-case flags as Batch.case_max gives them."""
    return f" (case M = {batch.grids[int(np.argmax(failed))].M})"


@dataclass
class RunResult:
    """Outcome of a full march: requested snapshots as (t, field) pairs,
    the per-level energy series, the largest L2 norm and largest |u|
    over all levels, and the k = 0 state, whose (u_curr, v_curr) are
    the initial data that the analysis bounds take."""

    snapshots: list
    energy: list
    max_l2: float
    max_abs: float
    initial: StepperState


def skew_advection_rows(a, h, shift=periodic_shift):
    """Per-node stencil coefficients of b -> skew_advection(a, b).

    Returns (c_sub, c_super) with
        c_sub[i]   = -(a[i] + a[i-1]) / (6*h)
        c_super[i] =  (a[i] + a[i+1]) / (6*h)
    so that skew_advection(a, b)[i] = c_sub[i]*b[i-1] + c_super[i]*b[i+1]
    for every b (the diagonal coefficient is 0); a stacked (..., M)
    input gives stacked rows.  c_sub is c_super shifted one node right,
    with its sign flipped; a sum is the same in either order, so this is
    exact.  shift and a per-node h serve a Batch, as in the grid module.
    """
    a = np.asarray(a, dtype=float)
    c_super = (a + shift(a, 1)) / (6.0 * h)
    return -shift(c_super, -1), c_super


def compact_curvature(u, h: float) -> np.ndarray:
    """Solve the compact relation v + (h^2/12)*second_diff(v) = second_diff(u)
    for the fourth-order curvature v of a periodic field."""
    u = np.asarray(u, dtype=float)
    m = u.shape[0]
    system = ScalarCyclicTriSystem(
        sub=np.full(m, 1.0 / 12.0),
        diag=np.full(m, 5.0 / 6.0),
        sup=np.full(m, 1.0 / 12.0),
        rhs=second_diff(u, h),
    )
    return solve_scalar_cyclic(system)


def init_state(phi, grid, params: SchemeParams) -> StepperState:
    """Sample the initial condition and solve each case's compact
    curvature.  grid is a Grid1D or a Batch."""
    batch = Batch.of(grid)
    x = batch.nodes()
    u0 = np.asarray(phi(x), dtype=float)
    if u0.shape != x.shape:
        raise ValueError("initial condition callback must be vectorized over x")
    u0 = as_field(u0, batch.M)
    v0 = []
    for g, u in zip(batch.grids, batch.split(u0)):
        try:
            v0.append(compact_curvature(u, g.h))
        except ValueError as exc:  # the second difference of u0 overflowed
            raise DivergenceError(0, f"initial curvature: {exc} (case M = {g.M})") from exc
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
    in the operation order of skew_advection_rows, skew_advection and
    central_diff.  Non-finite coefficients raise DivergenceError for
    the given step.
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
        where = _failing_case(batch, batch.case_max(~finite))
        raise DivergenceError(step, f"step system: block system contains "
                                    f"non-finite values{where}")
    return work.system


def assemble_first_step(state: StepperState, grid, params: SchemeParams,
                        work: Optional[StepWorkspace] = None) -> CyclicBlockTriSystem:
    """System for the two-level starting step (unknowns at level 1),
    linearized at the initial data; the source is taken at t = tau/2.
    grid is a Grid1D or a Batch.  It is written into work's buffer if
    given (a workspace built for grid and params), else into a fresh
    workspace's."""
    if state.k != 0:
        raise ValueError(f"first step requires k == 0, got k={state.k}")
    if work is None:
        work = StepWorkspace(grid, params)
    return _assemble_step(state.u_curr, state.v_curr, state.u_curr, state.v_curr,
                          rate=1.0 / work.batch.tau, work=work,
                          t_source=0.5 * work.batch.tau, step=1)


def assemble_interior_step(state: StepperState, grid, params: SchemeParams,
                           work: Optional[StepWorkspace] = None) -> CyclicBlockTriSystem:
    """System for a three-level interior step (unknowns at level k+1),
    linearized at level k with level k-1 mirrored to the right-hand
    side; the source is taken at t_k.  grid is a Grid1D or a Batch.  It
    is written into work's buffer if given (a workspace built for grid
    and params), else into a fresh workspace's."""
    if state.k < 1 or state.u_prev is None:
        raise ValueError(f"interior step requires k >= 1, got k={state.k}")
    if work is None:
        work = StepWorkspace(grid, params)
    return _assemble_step(state.u_curr, state.v_curr, state.u_prev, state.v_prev,
                          rate=0.5 / work.batch.tau, work=work,
                          t_source=state.k * work.batch.tau, step=state.k + 1)


def _checked_solve(work: StepWorkspace, step: int) -> np.ndarray:
    """Solve each case's block of the step system in work with the case's
    solver and hold every case to its own residual budget.  A case that
    misses it gets one refinement step (Skeel 1980; Higham 2002, ch. 12):
    its residual r = b - A x is solved with the same blocks and solver
    and added to x, which must then meet the same budget.  Returns the
    solution rows (u, v) as one fresh (2, M) array."""
    batch, cases, solvers = work.batch, work.cases, work.solvers
    uv = np.empty((2, batch.M))
    for case, solver, (start, stop) in zip(cases, solvers, batch.bounds):
        try:
            solve_cyclic_block_tridiagonal(case, solver, out=uv[:, start:stop])
        except SingularSystemError as exc:
            raise SolverFailure(f"step {step}: {exc} (case M = {case.m})") from exc
    finite = np.isfinite(uv)
    if not finite.all():
        where = _failing_case(batch, batch.case_max(~finite))
        raise DivergenceError(step, f"solver returned non-finite values{where}")
    c, scratch = work.coeffs, work.scratch
    rhs = c[:, 6]
    # the matrix norm, the largest absolute row sum: row 0's sums here,
    # the constant compact row's from the workspace
    row_sums = np.abs(c[0, :6], out=scratch[:6]).sum(axis=0, out=scratch[12])
    norm = np.maximum(batch.case_max(row_sums), work.compact_norm)
    bound = SOLVE_RESIDUAL_RTOL * (batch.case_max(np.abs(rhs, out=scratch[:2]))
                                   + norm * batch.case_max(np.abs(uv, out=scratch[2:4]))
                                   ) + _SMALLEST_NORMAL
    product = block_matvec(work.system, uv.T, batch.stencil,
                           near=scratch[:6].reshape(2, -1), out=scratch[6:8])
    r = np.subtract(rhs, product.T, out=scratch[8:10])
    failed = batch.case_max(np.abs(r, out=scratch[6:8])) > bound
    if failed.any():
        for j in np.flatnonzero(failed):
            case, rows, budget = cases[j], slice(*batch.bounds[j]), np.atleast_1d(bound)[j]
            fix = np.concatenate((case.coeffs[:, :6], r[:, None, rows]), axis=1)
            uv[:, rows] += solve_cyclic_block_tridiagonal(
                CyclicBlockTriSystem.packed(fix), solvers[j]).T
            res = float(np.abs(block_matvec(case, uv[:, rows].T) - case.rhs).max())
            if not res <= budget:
                raise SolverFailure(f"step {step}: solve residual {res:.3e} exceeds budget "
                                    f"{budget:.3e} after one refinement step (case M = {case.m})")
    return uv


def advance(state: StepperState, grid, params: SchemeParams,
            work: Optional[StepWorkspace] = None) -> StepperState:
    """Take one time step of every case; returns the new state.

    grid is a Grid1D or a Batch.  The step system is assembled into
    work's buffer (a workspace built for grid and params) and each
    case's block is solved with the case's solver; without a workspace,
    one is built for this step.  The new state's u and v are the rows of
    a fresh (2, M) array.
    """
    if work is None:
        work = StepWorkspace(grid, params)
    if state.k == 0:
        assemble_first_step(state, grid, params, work)
    else:
        assemble_interior_step(state, grid, params, work)
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
    state = init_state(phi, batch, params)
    yield state
    work = StepWorkspace(batch, params)
    for _ in range(batch.N):
        state = advance(state, batch, params, work)
        yield state


def run(phi, grid: Grid1D, params: SchemeParams, snapshot_times=None,
        track_energy: bool = True) -> RunResult:
    """March one case from t = 0 to t = T and fold the levels into a
    RunResult.

    snapshot_times must each lie within tau/2 of a grid time; snapshots
    are recorded at the nearest grid time without interpolation.  The
    energy series carries one invariant value per level: E(0) from
    initial_energy at t = 0, then (e_k + e_{k-1})/2 plus the dissipation
    summed over the steps so far.  Each level's energy
    e = ||u||^2 + mu*G is computed once and reused for the next pair,
    and each step's dissipation is its weight (nu*tau for the starting
    step, 2*nu*tau after) times G at the average of the new level and
    the one it mirrors, which run keeps from the step before.  With
    track_energy off no energy is computed.  ||u||^2 is summed on u
    divided by the initial data's power-of-two scale (as
    boundedness_bound does), so max_l2 does not underflow on tiny data.
    Callers that need every level iterate march() instead.
    """
    wanted = (set() if snapshot_times is None
              else {grid.time_index(t) for t in snapshot_times})
    snapshots, energy, max_l2_sq, max_abs = [], [], 0.0, 0.0
    dissipation = 0.0
    for st in march(phi, grid, params):
        u, v = st.u_curr, st.v_curr
        t = st.k * grid.tau
        if st.k == 0:
            initial = st
            scale = _data_scale(u, v)
        if st.k in wanted:
            snapshots.append((t, u))
        w = u / scale
        l2_sq = grid.h * float((w * w).sum())  # ||u / scale||^2
        if track_energy:
            e = l2_sq * scale * scale + params.mu * gradient_energy(u, v, grid.h)
            if st.k == 0:
                energy.append((t, initial_energy(u, v, grid, params)))
            else:
                # diffusion at the average of the new level and the one it mirrors
                weight = (1.0 if st.k == 1 else 2.0) * params.nu * grid.tau
                dissipation += weight * gradient_energy(0.5 * (u_old + u), 0.5 * (v_old + v),
                                                        grid.h)
                energy.append((t, 0.5 * (e + e_prev) + dissipation))
            e_prev = e
            # the level the next step mirrors: k - 1, or 0 for the starting step
            u_old, v_old = (u, v) if st.k == 0 else (st.u_prev, st.v_prev)
        max_l2_sq = max(max_l2_sq, l2_sq)
        max_abs = max(max_abs, float(np.abs(u).max()))
    return RunResult(snapshots=snapshots, energy=energy,
                     max_l2=scale * float(np.sqrt(max_l2_sq)), max_abs=max_abs, initial=initial)


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
    """Insert exact-solution samples into the difference equations and
    measure the residuals.

    u_exact(x, t) and u_xx_exact(x, t) must broadcast over x and t.
    The compact-relation defect decays like h^4 and the interior defect
    like tau^2 + h^4, which the verification suite checks by halving.
    """
    x = grid.nodes()
    t = grid.times()
    h = grid.h
    tau = grid.tau
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu

    U = np.asarray(u_exact(x[None, :], t[:, None]), dtype=float)
    V = np.asarray(u_xx_exact(x[None, :], t[:, None]), dtype=float)
    if U.shape != (grid.N + 1, grid.M) or V.shape != (grid.N + 1, grid.M):
        raise ValueError("exact-solution callbacks must broadcast to (N+1, M)")

    def pde_residual(u_lin, v_lin, u_avg, v_avg, du, dv, t_src):
        res = (du - mu * dv
               + gamma * (skew_advection(u_lin, u_avg, h)
                          - 0.5 * h * h * skew_advection(v_lin, u_avg, h))
               + kappa * (central_diff(u_avg, h)
                          - h * h / 6.0 * central_diff(v_avg, h))
               - nu * v_avg)
        if params.source is not None:
            res = res - np.asarray(params.source(x[None, :] if res.ndim == 2 else x,
                                                 t_src), dtype=float)
        if params.reaction is not None:
            fprime, fsecond = params.reaction
            res = res + (np.asarray(fprime(u_lin), dtype=float)
                         + np.asarray(fsecond(u_lin), dtype=float) * (u_avg - u_lin))
        return res

    # starting step
    q_first = pde_residual(U[0], V[0],
                           0.5 * (U[0] + U[1]), 0.5 * (V[0] + V[1]),
                           (U[1] - U[0]) / tau, (V[1] - V[0]) / tau,
                           0.5 * tau)
    # interior steps, vectorized over k = 1..N-1
    q_interior = pde_residual(U[1:-1], V[1:-1],
                              0.5 * (U[:-2] + U[2:]), 0.5 * (V[:-2] + V[2:]),
                              (U[2:] - U[:-2]) / (2.0 * tau),
                              (V[2:] - V[:-2]) / (2.0 * tau),
                              t[1:-1, None])
    # compact relation at every level
    r_compact = V - second_diff(U, h) + h * h / 12.0 * second_diff(V, h)

    return TruncationResiduals(
        first_step=float(np.max(np.abs(q_first))),
        interior=float(np.max(np.abs(q_interior))),
        compact=float(np.max(np.abs(r_compact))),
    )
