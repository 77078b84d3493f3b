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

Memory: march builds one StepWorkspace per case, which owns the packed
(2, 7, M) step-system buffer that every step's assembly overwrites and
the cyclic-reduction solver with its level buffers.  A step then
allocates only its fresh (u, v) solution, which no later step touches,
plus temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .analysis import EnergyLedger, gradient_energy, initial_energy
from .grid import (Grid1D, as_field, central_diff, periodic_shift, second_diff,
                   skew_advection)
from .linalg import (
    DENSE_ORACLE_MAX_N,
    CyclicBlockTriSystem,
    CyclicReductionSolver,
    ScalarCyclicTriSystem,
    block_matvec,
    block_row_sum_norm,
    block_system_matrix,
    solve_cyclic_block_tridiagonal,
    solve_dense_oracle,
    solve_scalar_cyclic,
)

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

# Relative residual budget for every production solve and for the
# compact-relation consistency of each accepted level.  The solve budget
# also admits residuals below the smallest normal float: there, data
# too small for normal floats carry no relative precision to enforce.
SOLVE_RESIDUAL_RTOL = 1e-11
CONSISTENCY_RTOL = 1e-11
_SMALLEST_NORMAL = np.finfo(float).tiny


class DivergenceError(Exception):
    """A step system or solution became non-finite (finite input can
    overflow); carries the failing step index, 0 for the initial data."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class SolverFailure(Exception):
    """A production solve missed its residual budget and no fallback applied."""


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
    """Two consecutive levels of (u, v) plus the running energy ledger.
    At k = 0 there is no previous level and u_prev/v_prev are None."""

    k: int
    u_curr: np.ndarray
    v_curr: np.ndarray
    u_prev: Optional[np.ndarray]
    v_prev: Optional[np.ndarray]
    ledger: EnergyLedger


class StepWorkspace:
    """The buffers one case reuses at every step (see the module
    docstring); it serves one step at a time."""

    def __init__(self, m: int):
        self.coeffs = np.empty((2, 7, m))
        self.solver = CyclicReductionSolver(m)


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


def skew_advection_rows(a, h: float):
    """Per-node stencil coefficients of b -> skew_advection(a, b).

    Returns (c_sub, c_diag, c_super) with
        c_sub[i]   = -(a[i] + a[i-1]) / (6*h)
        c_diag[i]  = 0
        c_super[i] =  (a[i] + a[i+1]) / (6*h)
    so that skew_advection(a, b)[i] = c_sub[i]*b[i-1] + c_super[i]*b[i+1]
    for every b; a stacked (..., M) input gives stacked rows.  c_sub is
    c_super shifted one node right, with its sign flipped; a sum is the
    same in either order, so this is exact.
    """
    a = np.asarray(a, dtype=float)
    c_super = (a + periodic_shift(a, 1)) / (6.0 * h)
    return -periodic_shift(c_super, -1), np.zeros_like(a), c_super


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


def init_state(phi, grid: Grid1D, params: SchemeParams) -> StepperState:
    """Sample the initial condition, solve for its compact curvature, and
    open the energy ledger."""
    x = grid.nodes()
    u0 = np.asarray(phi(x), dtype=float)
    if u0.shape != x.shape:
        raise ValueError("initial condition callback must be vectorized over x")
    u0 = as_field(u0, grid.M)
    try:
        v0 = compact_curvature(u0, grid.h)
    except ValueError as exc:  # the second difference of u0 overflowed
        raise DivergenceError(0, f"initial curvature: {exc}") from exc
    ledger = EnergyLedger(rhs0=initial_energy(u0, v0, grid, params))
    return StepperState(k=0, u_curr=u0, v_curr=v0, u_prev=None, v_prev=None,
                        ledger=ledger)


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


def _assemble_step(u_ref, v_ref, u_known, v_known, rate, grid: Grid1D,
                   params: SchemeParams, t_source: float, step: int,
                   out: Optional[np.ndarray]) -> CyclicBlockTriSystem:
    """Shared assembly of the per-step system, straight into out, a
    (2, 7, M) array in the packed layout of CyclicBlockTriSystem (a
    fresh one if out is None); every entry is overwritten and the
    returned system holds the array.

    rate is 1/tau for the starting step and 1/(2*tau) for interior
    steps; (u_ref, v_ref) carry the linearization level and
    (u_known, v_known) the mirrored data level.  Block row i couples
    the unknown pair (u[i], v[i]) at the new level to its neighbours:
    its first equation (coeffs[0]) is the time-discrete PDE, its second
    (coeffs[1]) the compact relation at the new level.  Non-finite
    coefficients raise DivergenceError for the given step.
    """
    if out is None:
        out = np.empty((2, 7, grid.M))
    elif out.shape != (2, 7, grid.M):
        raise ValueError(f"out has shape {out.shape}, expected {(2, 7, grid.M)}")
    h = grid.h
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu

    ref = np.array((u_ref, v_ref))
    c_sub, _, c_sup = skew_advection_rows(ref, h)
    skew = skew_advection(ref, u_known, h)
    diff = central_diff(np.array((u_known, v_known)), h)

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
        c[0, 6] += np.asarray(params.source(grid.nodes(), t_source), dtype=float)
    if params.reaction is not None:
        diag_coeff, known = newton_reaction_terms(u_ref, params)
        c[0, 2] += diag_coeff
        c[0, 6] -= known + diag_coeff * u_known

    # compact relation at the new level, with a zero right-hand side
    inv_h2 = 1.0 / (h * h)
    c[1] = [[-inv_h2], [1.0 / 12.0], [2.0 * inv_h2], [5.0 / 6.0],
            [-inv_h2], [1.0 / 12.0], [0.0]]

    try:
        return CyclicBlockTriSystem.packed(c)
    except ValueError as exc:
        raise DivergenceError(step, f"step system: {exc}") from exc


def assemble_first_step(state: StepperState, grid: Grid1D, params: SchemeParams,
                        out: Optional[np.ndarray] = None) -> CyclicBlockTriSystem:
    """System for the two-level starting step (unknowns at level 1),
    linearized at the initial data; the source is taken at t = tau/2.
    It is written into out (2, 7, M) if given, else into a fresh array."""
    if state.k != 0:
        raise ValueError(f"first step requires k == 0, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_curr, state.v_curr,
                          rate=1.0 / grid.tau, grid=grid, params=params,
                          t_source=0.5 * grid.tau, step=1, out=out)


def assemble_interior_step(state: StepperState, grid: Grid1D, params: SchemeParams,
                           out: Optional[np.ndarray] = None) -> CyclicBlockTriSystem:
    """System for a three-level interior step (unknowns at level k+1),
    linearized at level k with level k-1 mirrored to the right-hand
    side; the source is taken at t_k.  It is written into out (2, 7, M)
    if given, else into a fresh array."""
    if state.k < 1 or state.u_prev is None:
        raise ValueError(f"interior step requires k >= 1, got k={state.k}")
    return _assemble_step(state.u_curr, state.v_curr, state.u_prev, state.v_prev,
                          rate=0.5 / grid.tau, grid=grid, params=params,
                          t_source=state.k * grid.tau, step=state.k + 1, out=out)


def _checked_solve(system: CyclicBlockTriSystem, step: int,
                   solver: CyclicReductionSolver) -> np.ndarray:
    """Solve a step system with the case's solver and enforce the
    residual budget; falls back to the dense oracle at desk scale if the
    fast path misses it.  Returns (M, 2), the transpose of the (2, M)
    rows u and v."""
    x = solve_cyclic_block_tridiagonal(system, solver)
    if not np.isfinite(x).all():
        raise DivergenceError(step, "solver returned non-finite values")
    rhs = system.rhs
    rhs_inf = float(np.abs(rhs).max())
    bound = SOLVE_RESIDUAL_RTOL * (rhs_inf + block_row_sum_norm(system)
                                   * float(np.abs(x).max())) + _SMALLEST_NORMAL
    res = float(np.abs(block_matvec(system, x) - rhs).max())
    if res <= bound:
        return x
    if 2 * system.m <= DENSE_ORACLE_MAX_N:
        xd = solve_dense_oracle(block_system_matrix(system), rhs.reshape(-1))
        xd = xd.reshape(system.m, 2)
        res_d = float(np.abs(block_matvec(system, xd) - rhs).max())
        if res_d <= bound:
            return xd
    raise SolverFailure(
        f"step {step}: solve residual {res:.3e} exceeds budget {bound:.3e}")


def _check_consistency(uv, h: float, step: int):
    """The second block row enforces the compact relation; verify it held
    for the solution rows uv = (u, v).

    The scale reflects the stencil terms before cancellation: second
    differences are formed from O(|u|/h^2) quantities, so their roundoff
    floor is eps*4*|u|/h^2 even when the difference itself is tiny.
    """
    u, v = uv
    d2u, d2v = second_diff(uv, h)
    res = float(np.abs(v - d2u + (h * h / 12.0) * d2v).max())
    scale = float((4.0 / (h * h)) * np.abs(u).max()
                  + (4.0 / 3.0) * np.abs(v).max())
    if res > CONSISTENCY_RTOL * max(scale, 1e-30):
        raise SolverFailure(
            f"step {step}: compact relation residual {res:.3e} "
            f"exceeds {CONSISTENCY_RTOL:.0e} * {scale:.3e}")


def advance(state: StepperState, grid: Grid1D, params: SchemeParams,
            work: Optional[StepWorkspace] = None) -> StepperState:
    """Take one time step; returns the new state and updates the ledger.

    The step system is assembled into work's buffer and solved with its
    solver; without a workspace, one is built for this step.  The new
    state's u and v are the rows of a fresh (2, M) array.
    """
    if work is None:
        work = StepWorkspace(grid.M)
    first = state.k == 0
    if first:
        system = assemble_first_step(state, grid, params, out=work.coeffs)
    else:
        system = assemble_interior_step(state, grid, params, out=work.coeffs)
    uv = _checked_solve(system, state.k + 1, work.solver).T
    if not np.isfinite(uv).all():
        raise DivergenceError(state.k + 1, "non-finite values in solution")
    _check_consistency(uv, grid.h, state.k + 1)
    u_next, v_next = uv

    # diffusion at the average of the new level and the one it mirrors
    u_old, v_old = (state.u_curr, state.v_curr) if first else (state.u_prev, state.v_prev)
    weight = (1.0 if first else 2.0) * params.nu * grid.tau
    state.ledger.dissipation += weight * gradient_energy(
        0.5 * (u_old + u_next), 0.5 * (v_old + v_next), grid.h)

    return StepperState(k=state.k + 1, u_curr=u_next, v_curr=v_next,
                        u_prev=state.u_curr, v_prev=state.v_curr,
                        ledger=state.ledger)


def march(phi, grid: Grid1D, params: SchemeParams) -> Iterator[StepperState]:
    """Yield the accepted state at each level k = 0..N, one at a time.

    Only the current state is held, so memory stays O(M) however long
    the run.  One StepWorkspace serves every step of the run and is
    dropped with the generator.  The yielded states share one energy
    ledger, which is up to date for the state just yielded; read it
    before advancing.  Fields are fresh arrays that are never modified
    after they are yielded, so a caller may keep references to them.
    """
    state = init_state(phi, grid, params)
    yield state
    work = StepWorkspace(grid.M)
    for _ in range(grid.N):
        state = advance(state, grid, params, work)
        yield state


def run(phi, grid: Grid1D, params: SchemeParams, snapshot_times=None,
        track_energy: bool = True) -> RunResult:
    """March from t = 0 to t = T and fold the levels into a RunResult.

    snapshot_times must each lie within tau/2 of a grid time; snapshots
    are recorded at the nearest grid time without interpolation.  The
    energy series carries one invariant value per level (the t = 0
    entry is the ledger's initial value); each level's energy
    e = ||u||^2 + mu*G is computed once and reused for the next pair.
    Callers that need every level iterate march() instead.
    """
    wanted = (set() if snapshot_times is None
              else {grid.time_index(t) for t in snapshot_times})
    snapshots, energy, max_l2_sq, max_abs = [], [], 0.0, 0.0
    for st in march(phi, grid, params):
        u = st.u_curr
        t = st.k * grid.tau
        if st.k == 0:
            initial = st
        if st.k in wanted:
            snapshots.append((t, u))
        l2_sq = grid.h * float((u * u).sum())
        if track_energy:
            e = l2_sq + params.mu * gradient_energy(u, st.v_curr, grid.h)
            energy.append((t, st.ledger.rhs0 if st.k == 0 else
                           0.5 * (e + e_prev) + st.ledger.dissipation))
            e_prev = e
        max_l2_sq = max(max_l2_sq, l2_sq)
        max_abs = max(max_abs, float(np.abs(u).max()))
    return RunResult(snapshots=snapshots, energy=energy,
                     max_l2=float(np.sqrt(max_l2_sq)), max_abs=max_abs, initial=initial)


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
