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
one pass over the batch; each case keeps its own energy ledger.  The
compact relation is the second block row of the system, so that one
gate also holds it.  A single grid is a batch of one and does the same
arithmetic as on its own.

Memory: march builds one StepWorkspace per batch, which owns the packed
(2, 7, M) step-system buffer that every step's assembly overwrites and
each case's cyclic-reduction solver with its level buffers.  A step then
allocates only its fresh (u, v) solution, which no later step touches,
plus temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .analysis import EnergyLedger, _data_scale, gradient_energies, gradient_energy, initial_energy
from .grid import (Batch, Grid1D, as_field, central_diff, periodic_shift,
                   second_diff, skew_advection)
from .linalg import (CyclicBlockTriSystem, CyclicReductionSolver, ScalarCyclicTriSystem,
                     SingularSystemError, block_matvec, block_row_sum_norm,
                     solve_cyclic_block_tridiagonal, solve_scalar_cyclic)

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
    """Two consecutive levels of (u, v) plus one running energy ledger
    per case.  The fields span the batch's nodes, its cases end to end.
    At k = 0 there is no previous level and u_prev/v_prev are None."""

    k: int
    u_curr: np.ndarray
    v_curr: np.ndarray
    u_prev: Optional[np.ndarray]
    v_prev: Optional[np.ndarray]
    ledgers: tuple

    @property
    def ledger(self) -> EnergyLedger:
        """The energy ledger of a one-case state."""
        if len(self.ledgers) != 1:
            raise ValueError(f"a state of {len(self.ledgers)} cases has one ledger per case")
        return self.ledgers[0]


class StepWorkspace:
    """The buffers one batch reuses at every step (see the module
    docstring): the packed system of all its cases and one solver per
    case.  grid is a Grid1D or a Batch; it serves one step at a time."""

    def __init__(self, grid):
        self.batch = Batch.of(grid)
        self.coeffs = np.empty((2, 7, self.batch.M))
        self.solvers = [CyclicReductionSolver(g.M) for g in self.batch.grids]


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
    """Sample the initial condition, solve each case's compact curvature,
    and open each case's energy ledger.  grid is a Grid1D or a Batch."""
    batch = Batch.of(grid)
    x = batch.nodes()
    u0 = np.asarray(phi(x), dtype=float)
    if u0.shape != x.shape:
        raise ValueError("initial condition callback must be vectorized over x")
    u0 = as_field(u0, batch.M)
    v0, ledgers = [], []
    for g, u in zip(batch.grids, batch.split(u0)):
        try:
            v = compact_curvature(u, g.h)
        except ValueError as exc:  # the second difference of u0 overflowed
            raise DivergenceError(0, f"initial curvature: {exc} (case M = {g.M})") from exc
        v0.append(v)
        ledgers.append(EnergyLedger(rhs0=initial_energy(u, v, g, params)))
    v0 = v0[0] if len(v0) == 1 else np.concatenate(v0)
    return StepperState(k=0, u_curr=u0, v_curr=v0, u_prev=None, v_prev=None,
                        ledgers=tuple(ledgers))


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


def _assemble_step(u_ref, v_ref, u_known, v_known, rate, batch: Batch,
                   params: SchemeParams, t_source: float, step: int,
                   out: Optional[np.ndarray]) -> CyclicBlockTriSystem:
    """Shared assembly of the per-step system of every case of the
    batch, straight into out, a (2, 7, M) array in the packed layout of
    CyclicBlockTriSystem (a fresh one if out is None); every entry is
    overwritten and the returned system holds the array.

    rate is 1/tau for the starting step and 1/(2*tau) for interior
    steps; (u_ref, v_ref) carry the linearization level and
    (u_known, v_known) the mirrored data level.  Block row i couples
    the unknown pair (u[i], v[i]) at the new level to its neighbours:
    its first equation (coeffs[0]) is the time-discrete PDE, its second
    (coeffs[1]) the compact relation at the new level.  Non-finite
    coefficients raise DivergenceError for the given step.
    """
    if out is None:
        out = np.empty((2, 7, batch.M))
    elif out.shape != (2, 7, batch.M):
        raise ValueError(f"out has shape {out.shape}, expected {(2, 7, batch.M)}")
    h, shift = batch.h, batch.shift
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu

    ref = np.array((u_ref, v_ref))
    c_sub, c_sup = skew_advection_rows(ref, h, shift)
    skew = skew_advection(ref, u_known, h, shift)
    diff = central_diff(np.array((u_known, v_known)), h, shift)

    c = out
    # evolution equation: sub, diag and sup blocks' first rows, then rhs
    c[0, 0] = 0.5 * gamma * c_sub[0] - 0.25 * gamma * h * h * c_sub[1] - kappa / (4.0 * h)
    c[0, 1] = kappa * h / 24.0
    c[0, 2] = rate
    c[0, 3] = -mu * rate - 0.5 * nu
    c[0, 4] = 0.5 * gamma * c_sup[0] - 0.25 * gamma * h * h * c_sup[1] + kappa / (4.0 * h)
    c[0, 5] = -kappa * h / 24.0
    c[0, 6] = (rate * u_known
               - mu * rate * v_known
               - 0.5 * gamma * skew[0]
               + 0.25 * gamma * h * h * skew[1]
               - 0.5 * kappa * diff[0]
               + kappa * h * h / 12.0 * diff[1]
               + 0.5 * nu * v_known)
    if params.source is not None:
        c[0, 6] += np.asarray(params.source(batch.nodes(), t_source), dtype=float)
    if params.reaction is not None:
        diag_coeff, known = newton_reaction_terms(u_ref, params)
        c[0, 2] += diag_coeff
        c[0, 6] -= known + diag_coeff * u_known

    # compact relation at the new level, with a zero right-hand side
    c[1, 0:6:2] = _COMPACT_U * (1.0 / (h * h))
    c[1, 1:6:2] = _COMPACT_V
    c[1, 6] = 0.0

    try:
        return CyclicBlockTriSystem.packed(c)
    except ValueError as exc:
        where = _failing_case(batch, batch.case_max(~np.isfinite(c)))
        raise DivergenceError(step, f"step system: {exc}{where}") from exc


def assemble_first_step(state: StepperState, grid, params: SchemeParams,
                        out: Optional[np.ndarray] = None) -> CyclicBlockTriSystem:
    """System for the two-level starting step (unknowns at level 1),
    linearized at the initial data; the source is taken at t = tau/2.
    grid is a Grid1D or a Batch.  It is written into out (2, 7, M) if
    given, else into a fresh array."""
    if state.k != 0:
        raise ValueError(f"first step requires k == 0, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_curr, state.v_curr,
                          rate=1.0 / grid.tau, batch=Batch.of(grid), params=params,
                          t_source=0.5 * grid.tau, step=1, out=out)


def assemble_interior_step(state: StepperState, grid, params: SchemeParams,
                           out: Optional[np.ndarray] = None) -> CyclicBlockTriSystem:
    """System for a three-level interior step (unknowns at level k+1),
    linearized at level k with level k-1 mirrored to the right-hand
    side; the source is taken at t_k.  grid is a Grid1D or a Batch.  It
    is written into out (2, 7, M) if given, else into a fresh array."""
    if state.k < 1 or state.u_prev is None:
        raise ValueError(f"interior step requires k >= 1, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_prev, state.v_prev,
                          rate=0.5 / grid.tau, batch=Batch.of(grid), params=params,
                          t_source=state.k * grid.tau, step=state.k + 1, out=out)


def _checked_solve(system: CyclicBlockTriSystem, batch: Batch, step: int,
                   solvers) -> tuple:
    """Solve each case's block of a batch's step system with the case's
    solver and hold every case to its own residual budget.  A case that
    misses it gets one refinement step (Skeel 1980; Higham 2002, ch. 12):
    its residual r = b - A x is solved with the same blocks and solver
    and added to x, which must then meet the same budget.  Returns the
    solution rows (u, v) as one fresh (2, M) array."""
    uv = np.empty((2, batch.M))
    cases = system.segments(batch.bounds)
    for case, solver, (start, stop) in zip(cases, solvers, batch.bounds):
        try:
            solve_cyclic_block_tridiagonal(case, solver, out=uv[:, start:stop])
        except SingularSystemError as exc:
            raise SolverFailure(f"step {step}: {exc} (case M = {case.m})") from exc
    finite = np.isfinite(uv)
    if not finite.all():
        where = _failing_case(batch, batch.case_max(~finite))
        raise DivergenceError(step, f"solver returned non-finite values{where}")
    c = system.coeffs
    rhs = c[:, 6]
    bound = SOLVE_RESIDUAL_RTOL * (batch.case_max(np.abs(rhs))
                                   + block_row_sum_norm(system, batch.case_max)
                                   * batch.case_max(np.abs(uv))) + _SMALLEST_NORMAL
    r = rhs - block_matvec(system, uv.T, batch.stencil).T
    failed = batch.case_max(np.abs(r)) > bound
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
    """Take one time step of every case; returns the new state and
    updates each case's ledger.

    grid is a Grid1D or a Batch.  The step system is assembled into
    work's buffer and each case's block is solved with the case's
    solver; without a workspace, one is built for this step.  The new
    state's u and v are the rows of a fresh (2, M) array.
    """
    if work is None:
        work = StepWorkspace(grid)
    batch = work.batch
    first = state.k == 0
    if first:
        system = assemble_first_step(state, batch, params, out=work.coeffs)
    else:
        system = assemble_interior_step(state, batch, params, out=work.coeffs)
    u_next, v_next = _checked_solve(system, batch, state.k + 1, work.solvers)

    # diffusion at the average of the new level and the one it mirrors
    u_old, v_old = (state.u_curr, state.v_curr) if first else (state.u_prev, state.v_prev)
    weight = (1.0 if first else 2.0) * params.nu * batch.tau
    energies = gradient_energies(0.5 * (u_old + u_next), 0.5 * (v_old + v_next), batch)
    for ledger, g in zip(state.ledgers, energies):
        ledger.dissipation += weight * g

    return StepperState(k=state.k + 1, u_curr=u_next, v_curr=v_next,
                        u_prev=state.u_curr, v_prev=state.v_curr,
                        ledgers=state.ledgers)


def march(phi, grid, params: SchemeParams) -> Iterator[StepperState]:
    """Yield the accepted state at each level k = 0..N, one at a time.

    grid is a Grid1D, or a Batch of cases that share the time grid,
    which march in lockstep: each yielded state holds every case's
    level, the cases end to end (Batch.split gives each case's view).
    Only the current state is held, so memory stays O(M) however long
    the run.  One StepWorkspace serves every step of the run and is
    dropped with the generator.  The yielded states share the cases'
    energy ledgers, which are up to date for the state just yielded;
    read them before advancing.  Fields are fresh arrays that are never
    modified after they are yielded, so a caller may keep references to
    them.
    """
    batch = Batch.of(grid)
    state = init_state(phi, batch, params)
    yield state
    work = StepWorkspace(batch)
    for _ in range(batch.N):
        state = advance(state, batch, params, work)
        yield state


def run(phi, grid: Grid1D, params: SchemeParams, snapshot_times=None,
        track_energy: bool = True) -> RunResult:
    """March one case from t = 0 to t = T and fold the levels into a
    RunResult.

    snapshot_times must each lie within tau/2 of a grid time; snapshots
    are recorded at the nearest grid time without interpolation.  The
    energy series carries one invariant value per level (the t = 0
    entry is the ledger's initial value); each level's energy
    e = ||u||^2 + mu*G is computed once and reused for the next pair.
    ||u||^2 is summed on u divided by the initial data's power-of-two
    scale (as boundedness_bound does), so max_l2 does not underflow on
    tiny data.  Callers that need every level iterate march() instead.
    """
    wanted = (set() if snapshot_times is None
              else {grid.time_index(t) for t in snapshot_times})
    snapshots, energy, max_l2_sq, max_abs = [], [], 0.0, 0.0
    for st in march(phi, grid, params):
        u = st.u_curr
        t = st.k * grid.tau
        if st.k == 0:
            initial = st
            scale = _data_scale(u, st.v_curr)
        if st.k in wanted:
            snapshots.append((t, u))
        w = u / scale
        l2_sq = grid.h * float((w * w).sum())  # ||u / scale||^2
        if track_energy:
            e = l2_sq * scale * scale + params.mu * gradient_energy(u, st.v_curr, grid.h)
            energy.append((t, st.ledger.rhs0 if st.k == 0 else
                           0.5 * (e + e_prev) + st.ledger.dissipation))
            e_prev = e
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
