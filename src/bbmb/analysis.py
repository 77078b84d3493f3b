"""Energy bookkeeping, error measurement, and order-of-accuracy tables.

The conserved functional of the time stepper is quadratic in the two
current levels plus a running dissipation sum; the ledger carries the
pieces that accumulate across steps so that the whole invariant can be
re-evaluated at any time level and compared with its value at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, norms

__all__ = [
    "EnergyLedger",
    "ConvergenceRow",
    "gradient_energy",
    "energy_pair",
    "boundedness_bound",
    "max_norm_error",
    "posterior_spatial_error",
    "posterior_temporal_error",
    "convergence_table",
    "fit_order",
    "stability_gap",
]


@dataclass
class EnergyLedger:
    """Accumulated pieces of the discrete energy identity.

    rhs0 is the value of the invariant at t = 0 (fixed at
    initialization); nu_tau_first is the dissipation weight of the
    two-level starting step; nu_tau_sum accumulates the per-step
    dissipation of the three-level interior steps.  With a nonnegative
    diffusion coefficient both accumulators are nondecreasing.
    """

    rhs0: float
    nu_tau_first: float = 0.0
    nu_tau_sum: float = 0.0


def gradient_energy(u, v, h: float) -> float:
    """|u|_1^2 + (h^2/12)*||v||^2 - (h^4/144)*|v|_1^2.

    The compact-weighted gradient energy of a (field, curvature) pair;
    nonnegative whenever v satisfies the inverse inequality, since
    (h^4/144)*(2/h)^2 = h^2/36 < h^2/12.
    """
    nu_ = norms(u, h)
    nv = norms(v, h)
    return (nu_.h1_semi ** 2
            + (h * h / 12.0) * nv.l2 ** 2
            - (h ** 4 / 144.0) * nv.h1_semi ** 2)


def _two_level_energy(u_next, u_curr, v_next, v_curr, h: float, mu: float) -> float:
    nn = norms(u_next, h)
    nc = norms(u_curr, h)
    vn = norms(v_next, h)
    vc = norms(v_curr, h)
    return (0.5 * (nn.l2 ** 2 + nc.l2 ** 2)
            + 0.5 * mu * ((nn.h1_semi ** 2 + nc.h1_semi ** 2)
                          + (h * h / 12.0) * (vn.l2 ** 2 + vc.l2 ** 2)
                          - (h ** 4 / 144.0) * (vn.h1_semi ** 2 + vc.h1_semi ** 2)))


def energy_pair(u_next, u_curr, v_next, v_curr, ledger: EnergyLedger,
                grid: Grid1D, params) -> float:
    """Full discrete invariant at a pair of consecutive levels.

    Symmetric two-level functional plus the accumulated dissipation
    terms; for a conservative run this is constant in k and equal to
    ledger.rhs0 up to roundoff.
    """
    return (_two_level_energy(u_next, u_curr, v_next, v_curr, grid.h, params.mu)
            + ledger.nu_tau_first + ledger.nu_tau_sum)


def initial_energy(u0, v0, grid: Grid1D, params) -> float:
    """Value of the invariant at t = 0 (the two-level functional collapses
    because both levels coincide)."""
    n0 = norms(u0, grid.h)
    nv = norms(v0, grid.h)
    h = grid.h
    return (n0.l2 ** 2
            + params.mu * n0.h1_semi ** 2
            + params.mu * (h * h / 12.0) * nv.l2 ** 2
            - params.mu * (h ** 4 / 144.0) * nv.h1_semi ** 2)


def boundedness_bound(u0, v0, grid: Grid1D, params) -> float:
    """A-priori bound on ||u^k|| for conservative runs, computed from the
    initial data:  2*(||u0|| + mu*|u0|_1^2 + (mu*h^2/12)*||v0||^2
    - (mu*h^2/144)*|v0|_1^2)."""
    n0 = norms(u0, grid.h)
    nv = norms(v0, grid.h)
    h = grid.h
    return 2.0 * (n0.l2
                  + params.mu * n0.h1_semi ** 2
                  + params.mu * (h * h / 12.0) * nv.l2 ** 2
                  - params.mu * (h * h / 144.0) * nv.h1_semi ** 2)


def max_norm_error(levels, exact, grid: Grid1D) -> float:
    """Max over nodes and levels of |exact(x, t) - numeric|.  levels is
    any iterable of (t, u) pairs; a stream is consumed one level at a
    time."""
    x = grid.nodes()
    worst = 0.0
    for t, u in levels:
        err = float(np.max(np.abs(np.asarray(exact(x, t), dtype=float) - u)))
        worst = max(worst, err)
    return worst


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
    mc = len(coarse[0][1])
    mf = len(fine[0][1])
    if mf != 2 * mc:
        raise ValueError(f"fine grid must have exactly 2M nodes: {mc} vs {mf}")
    worst = 0.0
    for (_, uc), (_, uf) in zip(coarse, fine):
        worst = max(worst, float(np.max(np.abs(uc - uf[::2]))))
    return worst


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
