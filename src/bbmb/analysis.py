"""Energy bookkeeping, error measurement, and order-of-accuracy tables.

Every energy quantity comes from one quadratic form, gradient_energy
G(u, v) = |u|_1^2 + (h^2/12)*||v||^2 - (h^4/144)*|v|_1^2 >= 0, through
the level energy e(u, v) = ||u||^2 + mu*G(u, v).  The invariant at the
levels (k, k+1) is E_k = (e_{k+1} + e_k)/2 + ledger.dissipation, and it
equals E(0) = e(u^0, v^0).  With nu >= 0 the dissipation is nonnegative,
so a conservative run has ||u^k||^2 + mu*|u^k|_1^2 <= 2*E(0) at every
level: ||u^k|| <= sqrt(2*E(0)), and, as ||u||_inf <= ||u||/sqrt(L) +
sqrt(L)*|u|_1 on a period L, ||u^k||_inf <= sqrt(2*E(0))*(1/sqrt(L) +
sqrt(L/mu)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Batch, Grid1D, backward_diff, norms

__all__ = [
    "EnergyLedger",
    "ConvergenceRow",
    "gradient_energy",
    "energy_pair",
    "initial_energy",
    "boundedness_bound",
    "max_norm_bound",
    "max_norm_error",
    "max_norm_errors",
    "posterior_spatial_error",
    "posterior_spatial_errors",
    "posterior_temporal_error",
    "convergence_table",
    "fit_order",
    "stability_gap",
]


@dataclass
class EnergyLedger:
    """Accumulated pieces of the discrete energy identity.

    rhs0 is the value of the invariant at t = 0 (fixed at
    initialization); dissipation sums the diffusion terms of every
    step, nondecreasing when nu >= 0.
    """

    rhs0: float
    dissipation: float = 0.0


def gradient_energy(u, v, h: float) -> float:
    """|u|_1^2 + (h^2/12)*||v||^2 - (h^4/144)*|v|_1^2.

    The compact-weighted gradient energy of a (field, curvature) pair;
    nonnegative for any v by the inverse inequality |v|_1 <= (2/h)*||v||,
    since (h^4/144)*(2/h)^2 = h^2/36 < h^2/12.
    """
    du, dv = backward_diff(u, h), backward_diff(v, h)
    return h * float((du * du).sum() + (h * h / 12.0) * (v * v).sum()
                     - (h ** 4 / 144.0) * (dv * dv).sum())


def _level_energy(u, v, h: float, mu: float) -> float:
    """e(u, v) = ||u||^2 + mu*G(u, v), one level's share of the invariant."""
    return h * float((u * u).sum()) + mu * gradient_energy(u, v, h)


def energy_pair(u_next, u_curr, v_next, v_curr, ledger: EnergyLedger,
                grid: Grid1D, params) -> float:
    """Full discrete invariant at a pair of consecutive levels.

    Symmetric two-level functional plus the accumulated dissipation;
    for a conservative run this is constant in k and equal to
    ledger.rhs0 up to roundoff.
    """
    return (0.5 * (_level_energy(u_next, v_next, grid.h, params.mu)
                   + _level_energy(u_curr, v_curr, grid.h, params.mu))
            + ledger.dissipation)


def initial_energy(u0, v0, grid: Grid1D, params) -> float:
    """Value of the invariant at t = 0, E(0) = e(u0, v0): the two-level
    functional collapses because both levels coincide."""
    return _level_energy(u0, v0, grid.h, params.mu)


def _data_scale(u0, v0) -> float:
    """The power of two above the initial data's largest entry (1 for zero
    data): norms taken on fields divided by it and scaled back keep their
    bits, and no square of tiny data underflows."""
    return float(np.ldexp(1.0, np.frexp(max(np.abs(u0).max(), np.abs(v0).max()))[1]))


def boundedness_bound(u0, v0, grid: Grid1D, params) -> float:
    """A-priori bound sqrt(2*E(0)) on ||u^k|| for conservative runs with
    nu >= 0.  E(0) is evaluated on the data divided by _data_scale."""
    scale = _data_scale(u0, v0)
    return float(scale * np.sqrt(2.0 * initial_energy(u0 / scale, v0 / scale, grid, params)))


def max_norm_bound(u0, v0, grid: Grid1D, params) -> float:
    """A-priori bound sqrt(2*E(0))*(1/sqrt(L) + sqrt(L/mu)) on ||u^k||_inf
    for conservative runs with nu >= 0."""
    factor = 1.0 / np.sqrt(grid.L) + np.sqrt(grid.L / params.mu)
    return boundedness_bound(u0, v0, grid, params) * float(factor)


def max_norm_error(levels, exact, grid: Grid1D) -> float:
    """Max over nodes and levels of |exact(x, t) - numeric|.  levels is
    any iterable of (t, u) pairs; a stream is consumed one level at a
    time."""
    return max_norm_errors(levels, exact, Batch.of(grid))[0]


def max_norm_errors(levels, exact, batch: Batch) -> list:
    """max_norm_error of each case of a batch marched in lockstep.
    levels is any iterable of (t, u) pairs with u spanning the batch's
    nodes; exact is called once per level, on all nodes at once."""
    x = batch.nodes()
    worst = np.zeros(len(batch.grids))
    for t, u in levels:
        err = np.abs(np.asarray(exact(x, t), dtype=float) - u)
        worst = np.maximum(worst, batch.case_max(err))
    return worst.tolist()


def _check_times_match(coarse, fine, stride: int):
    if (len(fine) - 1) != stride * (len(coarse) - 1):
        raise ValueError(
            f"trajectory lengths incompatible: {len(coarse)} coarse vs "
            f"{len(fine)} fine levels (stride {stride})")
    tol = 1e-9 * max(1.0, abs(coarse[-1][0]))
    for k, (t, _) in enumerate(coarse):
        tf = fine[stride * k][0]
        if abs(t - tf) > tol:
            raise ValueError(f"time mismatch at level {k}: {t} vs {tf}")


def posterior_spatial_error(coarse, fine) -> float:
    """Grid-halving spatial error estimate.

    Both runs share the time grid; the fine run has exactly twice the
    nodes, and coarse node i coincides with fine node 2i.  Returns the
    max over shared nodes and all recorded times of the difference.
    """
    if len(coarse) != len(fine):
        raise ValueError(
            f"runs record different numbers of levels: {len(coarse)} vs {len(fine)}")
    _check_times_match(coarse, fine, stride=1)
    return posterior_spatial_errors((uc, uf) for (_, uc), (_, uf) in zip(coarse, fine))[0]


def posterior_spatial_errors(levels) -> list:
    """Grid-halving spatial error estimates along a refinement chain of
    runs that share the time grid, such as a lockstep batch.

    levels is any iterable of per-level sequences (u_0, ..., u_n), one
    field per run; run j+1 has exactly twice the nodes of run j, and
    node i of run j coincides with its node 2i.  Returns, for
    j = 0..n-1, the max over shared nodes and levels of |u_j - u_{j+1}|.
    A stream is consumed one level at a time.
    """
    worst = None
    for fields in levels:
        pairs = list(zip(fields, fields[1:]))
        if worst is None:
            for uc, uf in pairs:
                if len(uf) != 2 * len(uc):
                    raise ValueError(
                        f"fine grid must have exactly 2M nodes: {len(uc)} vs {len(uf)}")
            worst = [0.0] * len(pairs)
        worst = [max(w, float(np.max(np.abs(uc - uf[::2]))))
                 for w, (uc, uf) in zip(worst, pairs)]
    return [] if worst is None else worst


def posterior_temporal_error(coarse, fine) -> float:
    """Step-halving temporal error estimate.

    Both runs share the spatial grid; the fine run has twice the steps,
    and coarse level k coincides with fine level 2k.  Returns the max
    over nodes and coarse times of the difference.
    """
    if len(coarse[0][1]) != len(fine[0][1]):
        raise ValueError(
            f"runs use different spatial grids: M={len(coarse[0][1])} vs "
            f"M={len(fine[0][1])}")
    _check_times_match(coarse, fine, stride=2)
    worst = 0.0
    for k, (_, uc) in enumerate(coarse):
        worst = max(worst, float(np.max(np.abs(uc - fine[2 * k][1]))))
    return worst


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level: step size, error, and the observed order
    log2(error_prev / error_curr) (absent on the first row, and where
    either error is 0)."""

    step: float
    error: float
    order: float | None = None


def convergence_table(errors) -> "list[ConvergenceRow]":
    """Turn a halving chain of (step, error) pairs into rows with observed
    orders.  Steps must decrease by exactly a factor of two."""
    pairs = [(float(s), float(e)) for s, e in errors]
    if not pairs:
        raise ValueError("empty error table")
    for (s0, _), (s1, _) in zip(pairs, pairs[1:]):
        if not np.isclose(s1, 0.5 * s0, rtol=1e-9, atol=0.0):
            raise ValueError(f"steps must halve: {s0} -> {s1}")
    rows = [ConvergenceRow(step=pairs[0][0], error=pairs[0][1])]
    for (s_prev, e_prev), (s, e) in zip(pairs, pairs[1:]):
        order = float(np.log2(e_prev / e)) if e_prev > 0 and e > 0 else None
        rows.append(ConvergenceRow(step=s, error=e, order=order))
    return rows


def fit_order(errors) -> float:
    """Least-squares slope of log(error) against log(step) over the chain.
    Needs at least two errors: a line through one point has no slope."""
    if len(errors) < 2:
        raise ValueError(f"need at least two errors to fit an order, got {len(errors)}")
    steps = np.array([float(s) for s, _ in errors])
    errs = np.array([float(e) for _, e in errors])
    if np.any(errs <= 0):
        raise ValueError("errors must be positive to fit an order")
    return float(np.polyfit(np.log(steps), np.log(errs), 1)[0])


def stability_gap(run_base, run_perturbed, grid: Grid1D) -> "list[tuple[float, float]]":
    """H1-seminorm of the trajectory difference at each recorded level.

    Both runs must share the grid and record the same time levels; the
    perturbed run started from the base initial data plus a small
    perturbation, and the returned series measures how the gap evolves.
    """
    if len(run_base) != len(run_perturbed):
        raise ValueError("runs record different numbers of levels")
    out = []
    tol = 1e-9 * max(1.0, abs(run_base[-1][0]))
    for (t0, u0), (t1, u1) in zip(run_base, run_perturbed):
        if abs(t0 - t1) > tol:
            raise ValueError(f"time mismatch: {t0} vs {t1}")
        if len(u0) != grid.M or len(u1) != grid.M:
            raise ValueError("trajectory fields do not match the grid")
        out.append((t0, norms(u0 - u1, grid.h).h1_semi))
    return out
