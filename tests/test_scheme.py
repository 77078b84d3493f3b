"""Time stepper: assembly, stepping, conservation, and truncation defects."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbmb.analysis
import bbmb.scheme
from bbmb.analysis import (EnergyLedger, energy_pair, fit_order, gradient_energy,
                           initial_energy, max_norm_error)
from bbmb.cli import run_experiment
from bbmb.config import parse_config_text, preset_callbacks
from bbmb.grid import Batch, Grid1D, central_diff, norms, second_diff, skew_advection
from bbmb.linalg import CyclicReductionSolver, block_system_matrix
from bbmb.scheme import (DivergenceError, SchemeParams, StepWorkspace,
                         advance, assemble_first_step, assemble_interior_step,
                         init_state, march, newton_reaction_terms,
                         run, skew_advection_rows, solve_cyclic_block_tridiagonal,
                         truncation_residual)

from conftest import (example1_exact, example1_grid, example1_params,
                      example2_grid, example2_params, example2_phi,
                      example3_grid, example3_params, example3_phi, levels)


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(mu=0.0)
    with pytest.raises(ValueError):
        SchemeParams(mu=1.0, gamma=-0.5)
    with pytest.raises(ValueError):
        SchemeParams(mu=1.0, kappa=np.nan)
    SchemeParams(mu=1.0, nu=-0.2)  # negative diffusion is allowed, just not gated


# -- stencil coefficients -------------------------------------------------------

def test_skew_advection_rows_constant():
    # the diagonal coefficient is 0, so only the sub and super rows exist
    c_sub, c_sup = skew_advection_rows(np.full(4, 2.0), 1.0)
    assert np.allclose(c_sub, -2.0 / 3.0)
    assert np.allclose(c_sup, 2.0 / 3.0)


def test_skew_advection_rows_reproduce_operator(rng):
    a = rng.standard_normal(32)
    h = 0.37
    c_sub, c_sup = skew_advection_rows(a, h)
    for _ in range(5):
        b = rng.standard_normal(32)
        want = skew_advection(a, b, h)
        got = c_sub * np.roll(b, 1) + c_sup * np.roll(b, -1)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    zero_rows = skew_advection_rows(np.zeros(8), h)
    assert all(np.allclose(r, 0.0) for r in zero_rows)
    # c_sub is taken as a shift of c_super; it must equal the direct
    # np.roll formula bit for bit
    assert np.array_equal(c_sub, -(a + np.roll(a, 1)) / (6.0 * h))
    assert np.array_equal(c_sup, (a + np.roll(a, -1)) / (6.0 * h))


# -- initialization -------------------------------------------------------------

def test_init_state_constant_profile():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=10)
    params = SchemeParams(mu=1.0)
    state = init_state(lambda x: np.full_like(x, 0.7), grid, params)
    assert np.allclose(state.u_curr, 0.7)
    assert np.max(np.abs(state.v_curr)) <= 1e-13


def test_init_state_curvature_is_fourth_order():
    params = SchemeParams(mu=1.0)
    errs = []
    for m in (64, 128):
        grid = Grid1D(L=2.0, M=m, T=1.0, N=10)
        k = 2.0 * np.pi / grid.L
        state = init_state(lambda x: np.sin(k * x), grid, params)
        errs.append(np.max(np.abs(state.v_curr + k * k * state.u_curr)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_init_state_solitary_wave_mass():
    grid = example2_grid(250, 2048, T=8.0)
    state = init_state(example2_phi, grid, example2_params())
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
    state = init_state(lambda x: example1_exact(x, 0.0), grid, params)
    if which == "first":
        system = assemble_first_step(state, grid, params)
        base = state

        def residual(u_new, v_new):
            return _first_step_residual(base, grid, params, u_new, v_new)
    else:
        state = advance(state, grid, params)
        system = assemble_interior_step(state, grid, params)
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
    state = init_state(example3_phi, grid, params)
    with_reaction = assemble_first_step(state, grid, params)
    without = assemble_first_step(
        state, grid, SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0))
    assert not np.allclose(with_reaction.diag, without.diag)
    assert not np.allclose(with_reaction.rhs, without.rhs)


def test_step_preconditions():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=10)
    params = SchemeParams(mu=1.0)
    state = init_state(lambda x: np.sin(np.pi * x), grid, params)
    with pytest.raises(ValueError):
        assemble_interior_step(state, grid, params)
    advanced = advance(state, grid, params)
    with pytest.raises(ValueError):
        assemble_first_step(advanced, grid, params)


# -- homogeneous systems only admit the zero solution -----------------------------

@pytest.mark.parametrize("which", ["first", "interior"])
def test_homogeneous_step_returns_zero(rng, which):
    grid = example2_grid(32, 20)
    params = example2_params()
    state = init_state(example2_phi, grid, params)
    if which == "interior":
        state = advance(state, grid, params)
        system = assemble_interior_step(state, grid, params)
    else:
        system = assemble_first_step(state, grid, params)
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

    def solve(self, system, out=None):
        self.solves += 1
        return super().solve(system, out)


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
    work = StepWorkspace(grid, params)
    work.solvers = [_CountingSolver(m)]
    state = init_state(lambda x: amp * (np.sin(k * x) + 0.5 * np.cos(3.0 * k * x + shift)),
                       grid, params)
    for step in (1, 2):
        state = advance(state, grid, params, work)
        assert work.solvers[0].solves == step


# -- stepping accuracy and conservation -------------------------------------------

def test_first_step_accuracy_forced_sine():
    grid = example1_grid(16, 5000)
    params = example1_params()
    state = init_state(lambda x: example1_exact(x, 0.0), grid, params)
    state = advance(state, grid, params)
    err = np.max(np.abs(state.u_curr - example1_exact(grid.nodes(), grid.tau)))
    assert err <= 1e-6


def test_v_consistency_along_run():
    grid = example2_grid(50, 40)
    params = example2_params()
    state = init_state(example2_phi, grid, params)
    h = grid.h
    for _ in range(grid.N):
        state = advance(state, grid, params)
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
    assert result.initial.k == 0
    assert np.array_equal(result.initial.u_curr, states[0].u_curr)
    assert np.array_equal(result.initial.v_curr, states[0].v_curr)
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
# With numpy 2.4.6 a step at M = 16 makes 111/108/114 calls for
# example1/2/3, and a lockstep step of M = 8, 16, 32 makes 202/199/205.
# The bounds leave the margin of 14 calls that the single-case bound had
# over its count before.  The count is exact for a given numpy, so these
# guards do not depend on timing.
MAX_CALLS_PER_STEP = 128
MAX_CALLS_PER_LOCKSTEP_STEP = 219


def _interior_step_calls(grid, params, phi):
    """Python and C calls of one interior step that reuses its workspace."""
    work = StepWorkspace(grid, params)
    state = init_state(phi, grid, params)
    state = advance(advance(state, grid, params, work), grid, params, work)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        advance(state, grid, params, work)
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
    state = init_state(phi, grid, params)
    reference = [(state.u_curr, state.v_curr)]
    for _ in range(grid.N):
        state = advance(state, grid, params)
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
    with pytest.raises((DivergenceError, ValueError)):
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
    state = init_state(example3_phi, grid, params)
    state = advance(state, grid, params)
    prev = state
    state = advance(state, grid, params)
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
    p = preset_callbacks("example1")
    fprime, fsecond = example3_params().reaction

    def source(x, t):
        return p["source"](x, t) + fprime(example1_exact(x, t))

    return SchemeParams(mu=p["mu"], gamma=p["gamma"], kappa=p["kappa"], nu=p["nu"],
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
    # a residual below the smallest normal float carries no relative
    # precision, so it meets the solve budget
    grid = Grid1D(L=1.0, M=4, T=1.0, N=2, x_left=19.0)
    params = SchemeParams(mu=1.0, nu=1.0)
    states = list(march(lambda x: 2.1e-283 / np.cosh(x / 0.5) ** 2, grid, params))
    assert 0.0 < np.abs(states[0].u_curr).max() < np.finfo(float).tiny
    assert states[-1].k == grid.N


def test_energy_pair_zero_fields():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=4)
    params = SchemeParams(mu=1.0, nu=0.5)
    z = np.zeros(8)
    assert energy_pair(z, z, z, z, EnergyLedger(rhs0=0.0), grid, params) == 0.0
    result = run(lambda x: np.zeros_like(x), grid, params)
    assert [e for _, e in result.energy] == [0.0] * (grid.N + 1)


def _energy_from_levels(phi, grid, params):
    """The invariant series of one run recomputed from march's levels:
    E(0), then at each level k the pair functional of levels k and k-1
    plus the dissipation of steps 1..k, each step's at the average of
    its new level and the level it mirrors (level 0 for the first step,
    k-2 after), weighted nu*tau for the first step and 2*nu*tau after.
    energy_pair sums ||u||^2 on u itself; run divides u by a power of
    two first, which changes no bit for data of normal range."""
    levels = [(st.u_curr, st.v_curr) for st in march(phi, grid, params)]
    energy = [(0.0, initial_energy(*levels[0], grid, params))]
    dissipation = 0.0
    for k in range(1, grid.N + 1):
        (u, v), (u_old, v_old) = levels[k], levels[max(k - 2, 0)]
        weight = (1.0 if k == 1 else 2.0) * params.nu * grid.tau
        dissipation += weight * gradient_energy(0.5 * (u_old + u), 0.5 * (v_old + v), grid.h)
        ledger = EnergyLedger(rhs0=energy[0][1], dissipation=dissipation)
        energy.append((k * grid.tau, energy_pair(u, levels[k - 1][0], v, levels[k - 1][1],
                                                 ledger, grid, params)))
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


def test_truncation_compact_defect_is_fourth_order():
    params = example1_params()
    vals = []
    for m in (32, 64):
        grid = Grid1D(L=2.0, M=m, T=1.0, N=10000)
        vals.append(truncation_residual(example1_exact, exact1_xx, grid, params).compact)
    assert 12.0 <= vals[0] / vals[1] <= 20.0


def test_truncation_interior_defect_is_second_order_in_time():
    params = example1_params()
    vals = []
    for n in (20, 40):
        grid = Grid1D(L=2.0, M=128, T=1.0, N=n)
        vals.append(truncation_residual(example1_exact, exact1_xx, grid, params).interior)
    assert 3.4 <= vals[0] / vals[1] <= 4.6
