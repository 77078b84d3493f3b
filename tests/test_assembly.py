"""Step-system assembly into the packed layout, bit for bit against the
block-by-block (M, 2, 2) assembly it replaced and against the allocating
packed assembly that the workspace's scratch rows replaced."""

import numpy as np
import pytest

from bbmb.grid import Batch, central_diff, skew_advection
from bbmb.scheme import (StepWorkspace, advance, assemble_first_step,
                         assemble_interior_step, init_state, newton_reaction_terms,
                         skew_advection_rows)

from conftest import (example1_exact, example1_grid, example1_params,
                      example2_grid, example2_params, example2_phi,
                      example3_grid, example3_params, example3_phi)


def reference_assembly(u_ref, v_ref, u_known, v_known, rate, grid, params, t_source):
    """The (M, 2, 2) assembly: sub, diag, sup and rhs written block entry
    by block entry."""
    m = grid.M
    h = grid.h
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu

    cs_u, cp_u = skew_advection_rows(u_ref, h)
    cs_v, cp_v = skew_advection_rows(v_ref, h)

    sub = np.zeros((m, 2, 2))
    diag = np.zeros((m, 2, 2))
    sup = np.zeros((m, 2, 2))
    rhs = np.zeros((m, 2))

    diag[:, 0, 0] = rate
    sub[:, 0, 0] = 0.5 * gamma * cs_u - 0.25 * gamma * h * h * cs_v - kappa / (4.0 * h)
    sup[:, 0, 0] = 0.5 * gamma * cp_u - 0.25 * gamma * h * h * cp_v + kappa / (4.0 * h)
    diag[:, 0, 1] = -mu * rate - 0.5 * nu
    sub[:, 0, 1] = kappa * h / 24.0
    sup[:, 0, 1] = -kappa * h / 24.0

    rhs[:, 0] = (rate * u_known
                 - mu * rate * v_known
                 - 0.5 * gamma * skew_advection(u_ref, u_known, h)
                 + 0.25 * gamma * h * h * skew_advection(v_ref, u_known, h)
                 - 0.5 * kappa * central_diff(u_known, h)
                 + kappa * h * h / 12.0 * central_diff(v_known, h)
                 + 0.5 * nu * v_known)
    if params.source is not None:
        rhs[:, 0] += np.asarray(params.source(grid.nodes(), t_source), dtype=float)
    if params.reaction is not None:
        diag_coeff, known = newton_reaction_terms(u_ref, params)
        diag[:, 0, 0] += diag_coeff
        rhs[:, 0] -= known + diag_coeff * u_known

    inv_h2 = 1.0 / (h * h)
    sub[:, 1, 0] = -inv_h2
    diag[:, 1, 0] = 2.0 * inv_h2
    sup[:, 1, 0] = -inv_h2
    sub[:, 1, 1] = 1.0 / 12.0
    diag[:, 1, 1] = 5.0 / 6.0
    sup[:, 1, 1] = 1.0 / 12.0
    return sub, diag, sup, rhs


CASES = {
    "example1": (example1_grid, example1_params, lambda x: example1_exact(x, 0.0)),
    "example2": (example2_grid, example2_params, example2_phi),
    "example3": (example3_grid, example3_params, example3_phi),
}


@pytest.mark.parametrize("m", [4, 5, 16, 33])
@pytest.mark.parametrize("case", sorted(CASES))
def test_assembly_matches_block_reference_bitwise(case, m):
    make_grid, make_params, phi = CASES[case]
    grid, params = make_grid(m, 20), make_params()
    state = init_state(phi, grid, params)
    first = assemble_first_step(state, grid, params)
    want_first = reference_assembly(state.u_curr, state.v_curr, state.u_curr,
                                    state.v_curr, 1.0 / grid.tau, grid, params,
                                    0.5 * grid.tau)
    state = advance(state, grid, params)
    interior = assemble_interior_step(state, grid, params)
    want_interior = reference_assembly(state.u_curr, state.v_curr, state.u_prev,
                                       state.v_prev, 0.5 / grid.tau, grid, params,
                                       state.k * grid.tau)
    for system, want in ((first, want_first), (interior, want_interior)):
        got = (system.sub, system.diag, system.sup, system.rhs)
        for name, g, w in zip(("sub", "diag", "sup", "rhs"), got, want):
            assert np.array_equal(g, w), f"{case} M={m}: {name} differs"


def allocating_assembly(u_ref, v_ref, u_known, v_known, rate, batch, params, t_source):
    """The packed (2, 7, M) assembly with a fresh array for every term:
    skew rows and the skew product from shifts of their operands, the
    rows of each block set by broadcasting."""
    h, shift = batch.h, batch.shift
    mu, gamma, kappa, nu = params.mu, params.gamma, params.kappa, params.nu
    ref = np.array((u_ref, v_ref))
    c_sub, c_sup = skew_advection_rows(ref, h, shift)
    skew = skew_advection(ref, u_known, h, shift)
    diff = central_diff(np.array((u_known, v_known)), h, shift)

    c = np.empty((2, 7, batch.M))
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
    c[1, 0:6:2] = np.array([-1.0, 2.0, -1.0])[:, None] * (1.0 / (h * h))
    c[1, 1:6:2] = np.array([1.0 / 12.0, 5.0 / 6.0, 1.0 / 12.0])[:, None]
    c[1, 6] = 0.0
    return c


def _source_and_reaction():
    """example1's coefficients and source with example3's reaction."""
    params = example1_params()
    params.reaction = example3_params().reaction
    return params


ASSEMBLED = dict(CASES, source_and_reaction=(example1_grid, _source_and_reaction,
                                              lambda x: example1_exact(x, 0.0)))


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("sizes", [(33,), (5, 33, 64)], ids=["one case", "batch"])
@pytest.mark.parametrize("case", sorted(ASSEMBLED))
def test_workspace_assembly_matches_allocating_assembly_bitwise(case, sizes):
    make_grid, make_params, phi = ASSEMBLED[case]
    params = make_params()
    batch = Batch([make_grid(m, 20) for m in sizes])
    work = StepWorkspace(batch, params)
    state = init_state(phi, batch, params)
    for _ in range(3):  # the first step and two interior steps
        if state.k == 0:
            got = assemble_first_step(state, batch, params, work).coeffs
            want = allocating_assembly(state.u_curr, state.v_curr, state.u_curr,
                                       state.v_curr, 1.0 / batch.tau, batch, params,
                                       0.5 * batch.tau)
        else:
            got = assemble_interior_step(state, batch, params, work).coeffs
            want = allocating_assembly(state.u_curr, state.v_curr, state.u_prev,
                                       state.v_prev, 0.5 / batch.tau, batch, params,
                                       state.k * batch.tau)
        assert got is work.coeffs
        assert _same_bits(got, want), f"{case} {sizes}: step {state.k + 1} differs"
        state = advance(state, batch, params, work)


@pytest.mark.parametrize("case", sorted(CASES))
def test_assembly_into_a_used_buffer_overwrites_every_entry(case):
    # a workspace's buffer still holds the previous step's system when
    # the next step is assembled into it; every entry that changes from
    # step to step (here set to NaN) must be rewritten, and the ones that
    # do not must keep the bits the workspace wrote
    make_grid, make_params, phi = CASES[case]
    grid, params = make_grid(16, 20), make_params()
    work = StepWorkspace(grid, params)
    stepwise = np.ones((2, 7, 1), dtype=bool)
    stepwise[0, 1] = stepwise[0, 5] = stepwise[1] = False
    state = init_state(phi, grid, params)
    for _ in range(3):
        np.putmask(work.coeffs, np.broadcast_to(stepwise, work.coeffs.shape), np.nan)
        if state.k == 0:
            system = assemble_first_step(state, grid, params, work)
            fresh = assemble_first_step(state, grid, params)
        else:
            system = assemble_interior_step(state, grid, params, work)
            fresh = assemble_interior_step(state, grid, params)
        assert system.coeffs is work.coeffs
        assert _same_bits(work.coeffs, fresh.coeffs)
        state = advance(state, grid, params, work)

