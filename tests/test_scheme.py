"""Time stepper: assembly, stepping, conservation, and truncation defects."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bbmb.analysis
import bbmb.scheme
from bbmb.analysis import (a_priori_bounds, convergence_table, fit_order, gradient_energy,
                           initial_energy, max_norm_error, max_norm_errors)
from bbmb.cli import SPATIAL_ORDER_WINDOW, TEMPORAL_ORDER_WINDOW, run_experiment
from bbmb.config import parse_config_text
from bbmb.grid import Batch, Grid1D, central_diff, norms, second_diff, skew_advection
from bbmb.linalg import CyclicReductionSolver, block_system_matrix
from bbmb.scheme import (SchemeParams, SolverFailure, StepWorkspace,
                         advance, assemble_first_step, assemble_interior_step,
                         init_state, march, newton_reaction_terms,
                         run, solve_cyclic_block_tridiagonal, truncation_residual)

from conftest import (below_normal_range, example1_exact, example1_grid,
                      example1_params, example2_grid, example2_params, example2_phi,
                      example3_grid, example3_params, example3_phi, levels)


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(mu=0.0)
    with pytest.raises(ValueError):
        SchemeParams(mu=1.0, gamma=-0.5)
    with pytest.raises(ValueError):
        SchemeParams(mu=1.0, kappa=np.nan)
    SchemeParams(mu=1.0, nu=-0.2)  # negative diffusion is allowed, just not gated


# -- initialization -------------------------------------------------------------

def test_init_state_constant_profile():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=10)
    state = init_state(lambda x: np.full_like(x, 0.7), grid)
    assert np.allclose(state.u_curr, 0.7)
    assert np.max(np.abs(state.v_curr)) <= 1e-13


def test_init_state_curvature_is_fourth_order():
    errs = []
    for m in (64, 128):
        grid = Grid1D(L=2.0, M=m, T=1.0, N=10)
        k = 2.0 * np.pi / grid.L
        state = init_state(lambda x: np.sin(k * x), grid)
        errs.append(np.max(np.abs(state.v_curr + k * k * state.u_curr)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_init_state_solitary_wave_mass():
    grid = example2_grid(250, 2048, T=8.0)
    state = init_state(example2_phi, grid)
    # integral of the squared profile over the line is 4/3
    assert norms(state.u_curr, grid.h).l2 ** 2 == pytest.approx(4.0 / 3.0, abs=1e-3)


# -- assembly: finite-difference Jacobian oracle ---------------------------------

def _first_step_residual(state, grid, params, u1, v1):
    h, tau = grid.h, grid.tau
    u0, v0 = state.u_curr, state.v_curr
    uh, vh = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    r_a = ((u1 - u0) / tau - params.mu * (v1 - v0) / tau
           + params.gamma * (skew_advection(u0, uh, h)
                             - 0.5 * h * h * skew_advection(v0, uh, h))
           + params.kappa * (central_diff(uh, h) - h * h / 6.0 * central_diff(vh, h))
           - params.nu * vh)
    if params.source is not None:
        r_a = r_a - params.source(grid.nodes(), 0.5 * tau)
    if params.reaction is not None:
        fprime, fsecond = params.reaction
        r_a = r_a + fprime(u0) + fsecond(u0) * (uh - u0)
    r_b = -second_diff(u1, h) + v1 + h * h / 12.0 * second_diff(v1, h)
    return np.stack([r_a, r_b], axis=1).reshape(-1)


def _interior_residual(state, grid, params, u2, v2):
    h, tau = grid.h, grid.tau
    uk, vk = state.u_curr, state.v_curr
    um, vm = state.u_prev, state.v_prev
    ub, vb = 0.5 * (um + u2), 0.5 * (vm + v2)
    r_a = ((u2 - um) / (2 * tau) - params.mu * (v2 - vm) / (2 * tau)
           + params.gamma * (skew_advection(uk, ub, h)
                             - 0.5 * h * h * skew_advection(vk, ub, h))
           + params.kappa * (central_diff(ub, h) - h * h / 6.0 * central_diff(vb, h))
           - params.nu * vb)
    if params.source is not None:
        r_a = r_a - params.source(grid.nodes(), state.k * tau)
    if params.reaction is not None:
        fprime, fsecond = params.reaction
        r_a = r_a + fprime(uk) + fsecond(uk) * (ub - uk)
    r_b = -second_diff(u2, h) + v2 + h * h / 12.0 * second_diff(v2, h)
    return np.stack([r_a, r_b], axis=1).reshape(-1)


def _fd_jacobian(residual, n, eps=1.0):
    jac = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        up = (e[0::2].copy(), e[1::2].copy())
        jac[:, j] = (residual(up[0], up[1]) - residual(-up[0], -up[1])) / (2 * eps)
    return jac


@pytest.mark.parametrize("which", ["first", "interior"])
def test_assembled_matrix_matches_fd_jacobian(rng, which):
    grid = Grid1D(L=2.0, M=12, T=1.0, N=50)
    params = example1_params()
    work = StepWorkspace(grid, params)
    state = init_state(lambda x: example1_exact(x, 0.0), grid)
    if which == "first":
        system = assemble_first_step(state, work)
        base = state

        def residual(u_new, v_new):
            return _first_step_residual(base, grid, params, u_new, v_new)
    else:
        state = advance(state, work)
        system = assemble_interior_step(state, work)
        base = state

        def residual(u_new, v_new):
            return _interior_residual(base, grid, params, u_new, v_new)

    dense = block_system_matrix(system)
    # the residual is affine in the unknowns, so central differences with a
    # unit step recover the matrix exactly up to roundoff
    jac = _fd_jacobian(residual, 2 * grid.M)
    assert np.max(np.abs(dense - jac)) <= 1e-7 * max(1.0, np.max(np.abs(dense)))
    # and the assembled rhs is minus the residual at zero
    at_zero = residual(np.zeros(grid.M), np.zeros(grid.M))
    assert np.max(np.abs(system.rhs.reshape(-1) + at_zero)) <= 1e-9 / grid.tau


def test_reaction_enters_first_step():
    # with reaction configured, the starting step must carry its linearization
    grid = example3_grid(64, 10)
    params = example3_params()
    state = init_state(example3_phi, grid)
    with_reaction = assemble_first_step(state, StepWorkspace(grid, params))
    without = assemble_first_step(
        state, StepWorkspace(grid, SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0)))
    assert not np.allclose(with_reaction.diag, without.diag)
    assert not np.allclose(with_reaction.rhs, without.rhs)


def test_step_preconditions():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=10)
    work = StepWorkspace(grid, SchemeParams(mu=1.0))
    state = init_state(lambda x: np.sin(np.pi * x), grid)
    with pytest.raises(ValueError):
        assemble_interior_step(state, work)
    advanced = advance(state, work)
    with pytest.raises(ValueError):
        assemble_first_step(advanced, work)


# -- homogeneous systems only admit the zero solution -----------------------------

@pytest.mark.parametrize("which", ["first", "interior"])
def test_homogeneous_step_returns_zero(rng, which):
    grid = example2_grid(32, 20)
    work = StepWorkspace(grid, example2_params())
    state = init_state(example2_phi, grid)
    if which == "interior":
        state = advance(state, work)
        system = assemble_interior_step(state, work)
    else:
        system = assemble_first_step(state, work)
    system.rhs = np.zeros_like(system.rhs)
    x = solve_cyclic_block_tridiagonal(system)
    assert np.max(np.abs(x)) <= 1e-12


def test_zero_data_stays_zero():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=10)
    params = SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0)
    for _, u in levels(lambda x: np.zeros_like(x), grid, params):
        assert np.max(np.abs(u)) == 0.0


# -- pivot-free reduction in the paper's regime -----------------------------------

class _CountingSolver(CyclicReductionSolver):
    """A cyclic-reduction solver that counts its solves."""

    solves = 0

    def solve(self, out=None):
        self.solves += 1
        return super().solve(out)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(4, 3000), length=st.floats(1.0, 100.0), mu=st.floats(1e-3, 10.0),
       gamma=st.floats(0.0, 3.0), kappa=st.floats(-3.0, 3.0), nu=st.floats(0.0, 3.0),
       tau=st.floats(1e-4, 1.0), amp=st.floats(0.0, 3.0), mode=st.integers(1, 8),
       shift=st.floats(0.0, 1.0), slope=st.one_of(st.none(), st.floats(-3.0, 0.95)))
def test_unrefined_solve_meets_its_budget(m, length, mu, gamma, kappa, nu, tau, amp,
                                          mode, shift, slope):
    # nu >= 0 and rate + min F''/2 > 0: the eliminated operator has a
    # positive definite symmetric part (linalg module docstring), so the
    # first cyclic-reduction solve of both kinds of step meets its
    # budget and no refinement solve runs.  F'(u) = u^3 + c*u with
    # F'' >= c = -2*slope*rate at the interior step's rate 1/(2*tau)
    reaction = None
    if slope is not None:
        c = -slope / tau
        reaction = (lambda u: u ** 3 + c * u, lambda u: 3.0 * u ** 2 + c)
    grid = Grid1D(L=length, M=m, T=2.0 * tau, N=2)
    params = SchemeParams(mu=mu, gamma=gamma, kappa=kappa, nu=nu, reaction=reaction)
    k = 2.0 * np.pi * mode / length
    phi = lambda x: amp * (np.sin(k * x) + 0.5 * np.cos(3.0 * k * x + shift))
    assume(not below_normal_range(phi, grid))  # those fail at step 0, before any solve
    work = StepWorkspace(grid, params)
    work.solvers = [_CountingSolver(work.cases[0])]
    state = init_state(phi, grid)
    for step in (1, 2):
        state = advance(state, work)
        assert work.solvers[0].solves == step


# -- stepping accuracy and conservation -------------------------------------------

def test_first_step_accuracy_forced_sine():
    grid = example1_grid(16, 5000)
    state = init_state(lambda x: example1_exact(x, 0.0), grid)
    state = advance(state, StepWorkspace(grid, example1_params()))
    err = np.max(np.abs(state.u_curr - example1_exact(grid.nodes(), grid.tau)))
    assert err <= 1e-6


def test_v_consistency_along_run():
    grid = example2_grid(50, 40)
    work = StepWorkspace(grid, example2_params())
    state = init_state(example2_phi, grid)
    h = grid.h
    for _ in range(grid.N):
        state = advance(state, work)
        res = np.max(np.abs(state.v_curr - second_diff(state.u_curr, h)
                            + h * h / 12.0 * second_diff(state.v_curr, h)))
        scale = (4.0 / (h * h)) * np.max(np.abs(state.u_curr)) \
            + (4.0 / 3.0) * np.max(np.abs(state.v_curr))
        assert res <= 1e-11 * scale


def test_undamped_stepping_conserves_energy():
    # no source, no reaction, nu = 0: the invariant is exact up to roundoff
    grid = Grid1D(L=2.0, M=32, T=1.0, N=64)
    params = SchemeParams(mu=0.8, gamma=1.3, kappa=0.0, nu=0.0)
    result = run(lambda x: np.sin(np.pi * x) + 0.2 * np.cos(2 * np.pi * x),
                 grid, params, track_energy=True)
    e0 = result.energy[0][1]
    drift = max(abs(e - e0) for _, e in result.energy) / abs(e0)
    assert drift <= 1e-13


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 20.0), gamma=st.floats(0.0, 3.0),
       kappa=st.floats(-3.0, 3.0), m=st.integers(8, 200), n=st.integers(2, 100),
       amp=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)))
def test_undamped_energy_conserved_property(mu, gamma, kappa, m, n, amp):
    # nu = 0 and no source: the invariant is exact up to roundoff for any
    # coefficients and resolution; drift is absolute when E(0) = 0
    grid = Grid1D(L=2.0, M=m, T=1.0, N=n)
    params = SchemeParams(mu=mu, gamma=gamma, kappa=kappa, nu=0.0)
    result = run(lambda x: amp * (np.sin(np.pi * x) + 0.5 * np.cos(2 * np.pi * x)),
                 grid, params)
    e0 = result.energy[0][1]
    drift = max(abs(e - e0) for _, e in result.energy)
    assert drift <= 1e-12 * (abs(e0) if e0 != 0 else 1.0)


def test_march_yields_every_level_and_run_folds_it():
    grid = example2_grid(40, 12)
    params = example2_params()
    states = list(march(example2_phi, grid, params))
    assert [s.k for s in states] == list(range(grid.N + 1))
    assert states[0].u_prev is None
    for prev, curr in zip(states, states[1:]):
        assert curr.u_prev is prev.u_curr  # the previous level, not a copy

    result = run(example2_phi, grid, params, snapshot_times=[0.5, 1.0])
    u0, v0 = states[0].u_curr, states[0].v_curr
    scale = bbmb.analysis._data_scale(u0, v0)
    scaled_e0 = initial_energy(u0 / scale, v0 / scale, grid, params)
    assert result.bounds == a_priori_bounds(scaled_e0, scale, grid, params)
    assert result.energy[0][1] == scaled_e0 * scale ** 2
    assert result.max_l2 == max(norms(s.u_curr, grid.h).l2 for s in states)
    assert [t for t, _ in result.snapshots] == [6 * grid.tau, 12 * grid.tau]
    assert np.array_equal(result.snapshots[1][1], states[-1].u_curr)
    assert len(result.energy) == grid.N + 1


def test_run_max_l2_does_not_underflow_on_tiny_data():
    # a linear run (gamma = 0, no source) scales every level exactly, so
    # the norm of data far below sqrt(tiny) must scale with them
    grid = Grid1D(L=2.0, M=16, T=1.0, N=8)
    params = SchemeParams(mu=1.0, gamma=0.0, kappa=0.5, nu=0.1)

    def phi(x):
        return np.sin(np.pi * x) + 0.3 * np.cos(3 * np.pi * x)

    tiny = run(lambda x: 2.0 ** -900 * phi(x), grid, params).max_l2
    assert tiny == 2.0 ** -900 * run(phi, grid, params).max_l2 > 0.0


EXAMPLES = {
    "example1": (example1_grid, example1_params, lambda x: example1_exact(x, 0.0)),
    "example2": (example2_grid, example2_params, example2_phi),
    "example3": (example3_grid, example3_params, example3_phi),
}


# Python and C calls in one interior step that reuses its workspace, as
# a march step does: the fixed per-step cost that dominates small grids.
# With numpy 2.4.6 a step at M = 16 makes 104/101/107 calls for
# example1/2/3, and a lockstep step of M = 8, 16, 32 makes 181/178/184.
# The bounds leave at least 21 and 35 calls of margin over these counts.
# The count is exact for a given numpy, so these guards do not depend on
# timing.
MAX_CALLS_PER_STEP = 128
MAX_CALLS_PER_LOCKSTEP_STEP = 219


def _interior_step_calls(grid, params, phi):
    """Python and C calls of one interior step that reuses its workspace."""
    work = StepWorkspace(grid, params)
    state = init_state(phi, grid)
    state = advance(advance(state, work), work)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        advance(state, work)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_interior_step_call_count(example):
    make_grid, make_params, phi = EXAMPLES[example]
    calls = _interior_step_calls(make_grid(16, 100), make_params(), phi)
    assert calls <= MAX_CALLS_PER_STEP, f"{calls} calls in one interior step"


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_lockstep_interior_step_call_count(example):
    make_grid, make_params, phi = EXAMPLES[example]
    batch = Batch([make_grid(m, 100) for m in (8, 16, 32)])
    calls = _interior_step_calls(batch, make_params(), phi)
    assert calls <= MAX_CALLS_PER_LOCKSTEP_STEP, f"{calls} calls in one lockstep step"


@pytest.mark.parametrize("m", [5, 33, 64, 65, 250, 1001])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_march_levels_match_advance_and_stay_intact(example, m):
    # march reuses one workspace for every step; the public advance builds
    # a fresh one per step.  Both must give the same bits, and no level
    # march yields may be overwritten by a later step.
    make_grid, make_params, phi = EXAMPLES[example]
    grid, params = make_grid(m, 6), make_params()
    kept = [(st.u_curr, st.v_curr, st.u_curr.copy(), st.v_curr.copy())
            for st in march(phi, grid, params)]
    work = StepWorkspace(grid, params)
    state = init_state(phi, grid)
    reference = [(state.u_curr, state.v_curr)]
    for _ in range(grid.N):
        state = advance(state, work)
        reference.append((state.u_curr, state.v_curr))
    assert len(kept) == len(reference) == grid.N + 1
    for (u, v, u_copy, v_copy), (u_ref, v_ref) in zip(kept, reference):
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(u, u_copy) and np.array_equal(v, v_copy)


def test_odd_symmetry_is_preserved():
    # reflection through the domain midpoint with a sign flip commutes with
    # the stepper when kappa = 0, so odd data stays odd
    grid = Grid1D(L=2.0, M=64, T=1.0, N=50)
    params = SchemeParams(mu=1.0, gamma=1.5, kappa=0.0, nu=0.5)
    for _, u in levels(lambda x: np.sin(np.pi * x), grid, params):
        mirrored = -np.roll(u[::-1], 1)
        assert np.max(np.abs(u - mirrored)) <= 1e-10


def test_even_symmetry_without_advection():
    # with gamma = kappa = 0 the stepper is linear in second differences
    # and commutes with the plain reflection, so even data stays even
    grid = Grid1D(L=2.0, M=64, T=1.0, N=50)
    params = SchemeParams(mu=1.0, gamma=0.0, kappa=0.0, nu=0.5)
    for _, u in levels(lambda x: np.cos(np.pi * (x - 1.0)), grid, params):
        mirrored = np.roll(u[::-1], 1)
        assert np.max(np.abs(u - mirrored)) <= 1e-10


def test_divergence_reports_step_index():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=10)
    params = SchemeParams(mu=1.0, source=lambda x, t: np.full_like(x, np.inf))
    with pytest.raises((SolverFailure, ValueError)):
        run(lambda x: np.zeros_like(x), grid, params)


# -- the reaction linearization ----------------------------------------------------

def test_newton_reaction_terms_examples():
    params_zero = SchemeParams(mu=1.0, reaction=(lambda u: 0.0 * u,
                                                 lambda u: 0.0 * u))
    diag, known = newton_reaction_terms(np.ones(8), params_zero)
    assert np.allclose(diag, 0.0) and np.allclose(known, 0.0)

    params3 = example3_params()
    diag, known = newton_reaction_terms(np.zeros(8), params3)
    assert np.allclose(diag, -0.5)   # 0.5 * F''(0) with F'' = 3u^2 - 1
    assert np.allclose(known, 0.0)   # F'(0) = 0

    with pytest.raises(ValueError):
        newton_reaction_terms(np.zeros(8), SchemeParams(mu=1.0))


def test_reaction_linearization_defect_is_quadratic():
    # the accepted step satisfies the linearized equation exactly, so the
    # defect of the true nonlinear equation is the Taylor remainder of F'
    grid = example3_grid(200, 20)
    params = example3_params()
    fprime, _ = params.reaction
    work = StepWorkspace(grid, params)
    state = advance(init_state(example3_phi, grid), work)
    prev = state
    state = advance(state, work)
    h, tau = grid.h, grid.tau
    uk, vk = prev.u_curr, prev.v_curr
    um, vm = prev.u_prev, prev.v_prev
    u2, v2 = state.u_curr, state.v_curr
    ub, vb = 0.5 * (um + u2), 0.5 * (vm + v2)
    res = ((u2 - um) / (2 * tau) - params.mu * (v2 - vm) / (2 * tau)
           + params.gamma * (skew_advection(uk, ub, h)
                             - 0.5 * h * h * skew_advection(vk, ub, h))
           + params.kappa * (central_diff(ub, h) - h * h / 6.0 * central_diff(vb, h))
           - params.nu * vb + fprime(ub))
    delta = np.max(np.abs(ub - uk))
    # |F'''| <= 6*max|u| on the relevant range; allow slack for the solve residual
    assert np.max(np.abs(res)) <= 5.0 * delta ** 2 + 1e-10


# The reaction against an exact solution: u = exp(t)*sin(pi*x) on [0, 2]
# with example1's coefficients and F'(u) = u^3 - u, so the source is
# example1's plus F'(u).

def _reaction_params():
    p = example1_params()
    fprime, fsecond = example3_params().reaction

    def source(x, t):
        return p.source(x, t) + fprime(example1_exact(x, t))

    return SchemeParams(mu=p.mu, gamma=p.gamma, kappa=p.kappa, nu=p.nu,
                        source=source, reaction=(fprime, fsecond))


def _reaction_error(m, n):
    grid = example1_grid(m, n)
    return max_norm_error(levels(lambda x: example1_exact(x, 0.0), grid,
                                 _reaction_params()), example1_exact, grid)


def test_reaction_exact_solution_orders():
    # tau = 1e-3 keeps the time error to a few per cent of the finest
    # spatial error, and M = 64 the space error to about 1 % of the
    # finest time error
    spatial = fit_order([(2.0 / m, _reaction_error(m, 1000)) for m in (8, 16, 32)])
    assert 3.7 <= spatial <= 4.5, f"spatial order {spatial:.3f}"
    temporal = fit_order([(1.0 / n, _reaction_error(64, n)) for n in (20, 40, 80)])
    assert 1.9 <= temporal <= 2.1, f"temporal order {temporal:.3f}"


# The BBM solitary wave (Benjamin, Bona & Mahony 1972): with nu = 0 and no
# source, u = A*sech^2(K*(x - c*t)) is exact, with c = kappa + gamma*A/3
# and K = sqrt(gamma*A/(3*mu*c))/2, from the travelling-wave equation
# (kappa - c)*f + mu*c*f'' + gamma*f^2/2 = 0.  No code of the package
# derives it, so it checks gamma and kappa against a solution the scheme
# and the presets' sources could not both get wrong.  On L = 200 the
# periodic wrap changes u by about 1e-16.
WAVE_A, WAVE_T = 0.5, 4.0


def _exact_errors(exact, params, grids):
    """max_norm_error of each grid's run from exact's data at t = 0,
    marched in lockstep."""
    batch = Batch(grids)
    stream = ((state.k * batch.tau, state.u_curr)
              for state in march(lambda x: exact(x, 0.0), batch, params))
    return max_norm_errors(stream, exact, batch)


def _wave_errors(ms, n):
    """max_norm_error of the solitary wave at mu = gamma = kappa = 1 for
    each M of ms, marched in lockstep with N = n."""
    mu = gamma = kappa = 1.0
    c = kappa + gamma * WAVE_A / 3.0
    k = 0.5 * np.sqrt(gamma * WAVE_A / (3.0 * mu * c))

    def exact(x, t):
        return WAVE_A / np.cosh(k * (x - c * t)) ** 2

    return _exact_errors(exact, SchemeParams(mu=mu, gamma=gamma, kappa=kappa, nu=0.0),
                         [Grid1D(L=200.0, M=m, T=WAVE_T, N=n, x_left=-100.0) for m in ms])


@pytest.mark.parametrize("direction", ["spatial", "temporal"])
def test_solitary_wave_orders(direction):
    # N = 1600 keeps the time error below 10 % of the finest space error,
    # and M = 1600 the space error below 1 % of the finest time error
    if direction == "spatial":
        ms = (100, 200, 400, 800)
        errors = list(zip((200.0 / m for m in ms), _wave_errors(ms, 1600)))
        lo, hi = SPATIAL_ORDER_WINDOW
    else:
        ns = (8, 16, 32, 64, 128)
        errors = [(WAVE_T / n, _wave_errors((1600,), n)[0]) for n in ns]
        lo, hi = TEMPORAL_ORDER_WINDOW
    orders = [row.order for row in convergence_table(errors)[1:]] + [fit_order(errors)]
    assert all(lo <= order <= hi for order in orders), f"{direction} orders {orders}"


# A linear Fourier mode: with gamma = 0 and no source,
# u = exp(-nu*k^2*t/q)*sin(k*(x - kappa*t/q)), q = 1 + mu*k^2, is exact,
# since (1 + mu*k^2)*u_t + kappa*u_x + nu*k^2*u = 0 for a mode of
# wavenumber k.  It checks nu and kappa one at a time, then with mu, against
# a solution that no code of the package derives.
MODE_COEFFICIENTS = {"nu": (1.0, 0.0, 1.0), "kappa": (1.0, 1.0, 0.0),
                     "all": (0.5, 2.0, 0.3), "steady": (1.0, 0.0, 0.0)}


def _mode_errors(case, ms, n):
    """max_norm_error of the k = 1 mode on L = 2*pi up to T = 1, with
    (mu, kappa, nu) of MODE_COEFFICIENTS[case], for each M of ms, marched
    in lockstep with N = n."""
    mu, kappa, nu = MODE_COEFFICIENTS[case]
    q = 1.0 + mu

    def exact(x, t):
        return np.exp(-nu * t / q) * np.sin(x - kappa * t / q)

    return _exact_errors(exact, SchemeParams(mu=mu, kappa=kappa, nu=nu),
                         [Grid1D(L=2.0 * np.pi, M=m, T=1.0, N=n) for m in ms])


@pytest.mark.parametrize("direction", ["spatial", "temporal"])
@pytest.mark.parametrize("case", ["nu", "kappa", "all"])
def test_linear_mode_orders(case, direction):
    # N = 2000 keeps the time error far below the finest space error, and
    # M = 256 the space error below the finest time error
    if direction == "spatial":
        ms = (8, 16, 32, 64)
        errors = list(zip((2.0 * np.pi / m for m in ms), _mode_errors(case, ms, 2000)))
        lo, hi = SPATIAL_ORDER_WINDOW
    else:
        ns = (8, 16, 32, 64)
        errors = [(1.0 / n, _mode_errors(case, (256,), n)[0]) for n in ns]
        lo, hi = TEMPORAL_ORDER_WINDOW
    orders = [row.order for row in convergence_table(errors)[1:]] + [fit_order(errors)]
    assert all(lo <= order <= hi for order in orders), f"{case} {direction} orders {orders}"


def test_steady_linear_mode_stays_at_roundoff():
    # kappa = nu = 0: the mode does not move, and neither do the levels,
    # so there is no order to fit
    errors = _mode_errors("steady", (8, 16, 32, 64), 64)
    assert max(errors) <= 1e-13, errors


def test_reaction_truncation_defects_decay():
    params = _reaction_params()

    def exact_xx(x, t):
        return -np.pi ** 2 * example1_exact(x, t)

    def defects(m, n):
        return truncation_residual(example1_exact, exact_xx, example1_grid(m, n), params)

    coarse, fine = defects(16, 2000), defects(32, 2000)  # halving h, tau^2 negligible
    assert 12.0 <= coarse.compact / fine.compact <= 20.0
    assert 12.0 <= coarse.interior / fine.interior <= 20.0
    coarse, fine = defects(128, 20), defects(128, 40)    # halving tau, h^4 negligible
    assert 3.4 <= coarse.interior / fine.interior <= 4.6


# -- driver ---------------------------------------------------------------------

def test_run_snapshot_at_zero_returns_initial_profile():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=10)
    params = SchemeParams(mu=1.0)
    result = run(lambda x: np.sin(np.pi * x), grid, params, snapshot_times=[0.0, 1.0])
    t0, u0 = result.snapshots[0]
    assert t0 == 0.0
    assert np.allclose(u0, np.sin(np.pi * grid.nodes()))
    assert result.snapshots[1][0] == 1.0


def test_run_rejects_out_of_range_snapshots():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=10)
    with pytest.raises(ValueError):
        run(lambda x: np.zeros_like(x), grid, SchemeParams(mu=1.0),
            snapshot_times=[2.0])


def test_subnormal_data_pass_the_residual_gate():
    # data that diffuse below the smallest normal float leave residuals
    # there, which carry no relative precision, so they meet the solve
    # budget (without its floor of one smallest normal, step 26 fails)
    grid = Grid1D(L=1.0, M=4, T=1.0, N=32)
    params = SchemeParams(mu=1e-3, nu=1.0)
    states = list(march(lambda x: 1e-300 * np.sin(2.0 * np.pi * x), grid, params))
    assert np.abs(states[0].u_curr).max() >= np.finfo(float).tiny
    assert 0.0 < np.abs(states[-1].u_curr).max() < np.finfo(float).tiny
    assert states[-1].k == grid.N


def test_subnormal_initial_data_fail_at_step_0():
    # initial data below the normal range carry no relative precision, so
    # neither the energy drift nor the a-priori bounds can hold on them
    step0 = (r"^step 0: initial data: .* below the smallest normal float .* "
             r"\(case M = 4, N = 2\)$")
    grid = Grid1D(L=1.0, M=4, T=1.0, N=2, x_left=19.0)
    with pytest.raises(SolverFailure, match=step0):
        init_state(lambda x: 2.1e-283 / np.cosh(x / 0.5) ** 2, grid)
    # each case of a batch is checked on its own nodes: only the fine
    # case's node at 1/8 reaches the normal range, so the coarse one fails
    bump = lambda x: 1e-300 * np.exp(-((x - 0.125) / 0.026) ** 2)
    batch = Batch([Grid1D(L=1.0, M=8, T=1.0, N=2), Grid1D(L=1.0, M=4, T=1.0, N=2)])
    with pytest.raises(SolverFailure, match=step0):
        init_state(bump, batch)
    init_state(bump, batch.grids[0])


def test_energy_pair_zero_fields():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=4)
    params = SchemeParams(mu=1.0, nu=0.5)
    result = run(lambda x: np.zeros_like(x), grid, params)
    assert [e for _, e in result.energy] == [0.0] * (grid.N + 1)


def _energy_from_levels(phi, grid, params):
    """The invariant series of one run recomputed from march's levels:
    E(0), then at each level k the pair functional of levels k and k-1
    plus the dissipation of steps 1..k, each step's at the average of
    its new level and the level it mirrors (level 0 for the first step,
    k-2 after), weighted nu*tau for the first step and 2*nu*tau after.
    initial_energy gives each level's energy e(u, v) on the fields
    themselves; run divides u and v by a power of two first, which
    changes no bit for data of normal range."""
    levels = [(st.u_curr, st.v_curr) for st in march(phi, grid, params)]
    energy = [(0.0, initial_energy(*levels[0], grid, params))]
    dissipation = 0.0
    for k in range(1, grid.N + 1):
        (u, v), (u_old, v_old) = levels[k], levels[max(k - 2, 0)]
        weight = (1.0 if k == 1 else 2.0) * params.nu * grid.tau
        dissipation += weight * gradient_energy(0.5 * (u_old + u), 0.5 * (v_old + v), grid.h)
        e_pair = 0.5 * (initial_energy(u, v, grid, params)
                        + initial_energy(*levels[k - 1], grid, params))
        energy.append((k * grid.tau, e_pair + dissipation))
    return energy


@pytest.mark.parametrize("case", ["example2", "example3", "nu0"])
def test_run_energy_matches_a_recomputation_from_the_levels(case):
    if case == "nu0":
        grid, params = example2_grid(40, 30), example2_params(nu=0.0)
        phi = example2_phi
    else:
        make_grid, make_params, phi = EXAMPLES[case]
        grid, params = make_grid(40, 30), make_params()
    assert run(phi, grid, params).energy == _energy_from_levels(phi, grid, params)


@pytest.mark.parametrize("mode, text", [
    ("stability", "experiment = example1\nT = 1\nM = 4 8 16 32 64 128\nN = 32 64\n"),
    ("convergence", "experiment = example1\nT = 1\nM = 8 16 32\nN = 400\n"),
])
def test_exact_error_runs_compute_no_energy(monkeypatch, tmp_path, mode, text):
    # no report of these runs reads an energy, so no step may compute one
    def refuse(*args, **kwargs):
        raise AssertionError("gradient_energy was called")

    monkeypatch.setattr(bbmb.analysis, "gradient_energy", refuse)
    monkeypatch.setattr(bbmb.scheme, "gradient_energy", refuse)
    assert run_experiment(parse_config_text(text), mode, str(tmp_path)) == 0
    with pytest.raises(AssertionError, match="gradient_energy was called"):
        run(example2_phi, example2_grid(16, 4), example2_params())


# -- truncation defects ------------------------------------------------------------

def test_truncation_residual_zero_solution():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=8)
    params = SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0)
    res = truncation_residual(lambda x, t: 0.0 * x + 0.0 * t,
                              lambda x, t: 0.0 * x + 0.0 * t, grid, params)
    assert res.first_step == 0.0
    assert res.interior == 0.0
    assert res.compact == 0.0


def exact1_xx(x, t):
    return -np.pi ** 2 * np.exp(t) * np.sin(np.pi * x)


def transcribed_truncation_residual(u_exact, u_xx_exact, grid, params):
    """Oracle for truncation_residual: the difference equations written
    out term by term with the grid operators, vectorized over levels.
    Returns (first_step, interior, compact) like TruncationResiduals."""
    x, t, h, tau = grid.nodes(), grid.times(), grid.h, grid.tau
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu
    U = np.asarray(u_exact(x[None, :], t[:, None]), dtype=float)
    V = np.asarray(u_xx_exact(x[None, :], t[:, None]), dtype=float)

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

    q_first = pde_residual(U[0], V[0], 0.5 * (U[0] + U[1]), 0.5 * (V[0] + V[1]),
                           (U[1] - U[0]) / tau, (V[1] - V[0]) / tau, 0.5 * tau)
    q_interior = pde_residual(U[1:-1], V[1:-1], 0.5 * (U[:-2] + U[2:]), 0.5 * (V[:-2] + V[2:]),
                              (U[2:] - U[:-2]) / (2.0 * tau), (V[2:] - V[:-2]) / (2.0 * tau),
                              t[1:-1, None])
    r_compact = V - second_diff(U, h) + h * h / 12.0 * second_diff(V, h)
    return tuple(float(np.max(np.abs(q))) for q in (q_first, q_interior, r_compact))


def _mode(grid):
    """A smooth periodic field on grid, which solves no example there, and
    its exact second derivative, each a callback of (x, t)."""
    k = 2.0 * np.pi / grid.L

    def u(x, t):
        return 0.5 + (1.0 + t) * np.sin(k * (x - grid.x_left) + 1.0)

    def u_xx(x, t):
        return -k * k * (1.0 + t) * np.sin(k * (x - grid.x_left) + 1.0)

    return u, u_xx


# grid, coefficients and the (u, u_xx) pair inserted on that grid: the
# exact solution where the coefficients have one
TRUNCATION_CASES = {
    "example1": (example1_grid, example1_params, lambda grid: (example1_exact, exact1_xx)),
    "example2": (example2_grid, example2_params, _mode),
    "example3": (example3_grid, example3_params, _mode),
    "source_and_reaction": (example1_grid, _reaction_params,
                            lambda grid: (example1_exact, exact1_xx)),
}


@pytest.mark.parametrize("m", [8, 16, 33, 128])
@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_truncation_residual_matches_transcribed_equations(case, m):
    # the defects of the assembled step systems are those of the
    # difference equations written out term by term, to roundoff
    make_grid, make_params, fields = TRUNCATION_CASES[case]
    grid, params = make_grid(m, 20), make_params()
    got = truncation_residual(*fields(grid), grid, params)
    want = transcribed_truncation_residual(*fields(grid), grid, params)
    assert got.first_step > 0.0 and got.interior > 0.0 and got.compact > 0.0
    assert (got.first_step, got.interior, got.compact) == pytest.approx(want, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("m", [16, 33])
def test_truncation_residual_reads_the_production_assembly(monkeypatch, m):
    # a kappa factor that is wrong only in the workspace the steps use
    # must move the measured step defects far beyond roundoff
    grid, params = example1_grid(m, 20), example1_params()
    exact = (example1_exact, exact1_xx)
    before = truncation_residual(*exact, grid, params)

    class Perturbed(StepWorkspace):
        def __init__(self, grid, params):
            super().__init__(grid, params)
            self.kappa_4h *= 1.0 + 1e-3

    monkeypatch.setattr(bbmb.scheme, "StepWorkspace", Perturbed)
    after = truncation_residual(*exact, grid, params)
    assert abs(after.first_step - before.first_step) > 1e-5
    assert abs(after.interior - before.interior) > 1e-5
    assert after.compact == before.compact  # the compact row has no kappa

