"""Step-system assembly into the packed layout, bit for bit against the
block-by-block (M, 2, 2) assembly it replaced."""

import numpy as np
import pytest

from bbmb.grid import central_diff, skew_advection
from bbmb.scheme import (advance, assemble_first_step, assemble_interior_step,
                         init_state, newton_reaction_terms, skew_advection_rows)

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_assembly_into_a_used_buffer_overwrites_every_entry(case):
    # a case's workspace buffer still holds the previous step's system
    # (here: NaN) when the next step is assembled into it
    make_grid, make_params, phi = CASES[case]
    grid, params = make_grid(16, 20), make_params()
    state = init_state(phi, grid, params)
    buffer = np.full((2, 7, grid.M), np.nan)
    first = assemble_first_step(state, grid, params, out=buffer)
    assert first.coeffs is buffer
    assert np.array_equal(buffer, assemble_first_step(state, grid, params).coeffs)
    state = advance(state, grid, params)
    interior = assemble_interior_step(state, grid, params, out=buffer)
    assert interior.coeffs is buffer
    assert np.array_equal(buffer, assemble_interior_step(state, grid, params).coeffs)
    with pytest.raises(ValueError):
        assemble_interior_step(state, grid, params, out=np.empty((2, 7, grid.M + 1)))
