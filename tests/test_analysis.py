"""Error estimators, convergence tables, energy bookkeeping, stability gap."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbmb.analysis import (a_priori_bounds, boundedness_bound, convergence_table,
                           fit_order, gradient_energy, initial_energy, max_norm_error,
                           posterior_spatial_error, posterior_temporal_error,
                           posterior_temporal_errors, stability_gap)
from bbmb.config import parse_config_text
from bbmb.grid import Grid1D, norms
from bbmb.scheme import SchemeParams, SolverFailure, init_state, run

from conftest import (below_normal_range, example2_grid, example2_params, example2_phi,
                      levels)


def test_gradient_energy_nonnegative(rng):
    for _ in range(50):
        m = int(rng.integers(4, 65))
        h = float(rng.uniform(0.05, 1.0))
        assert gradient_energy(rng.standard_normal(m), rng.standard_normal(m), h) >= 0.0


def test_initial_energy_zero_fields():
    grid = Grid1D(L=2.0, M=8, T=1.0, N=4)
    z = np.zeros(8)
    assert initial_energy(z, z, grid, example2_params()) == 0.0


def test_boundedness_bound_examples():
    grid = example2_grid(250, 64)
    params = example2_params()
    state = init_state(example2_phi, grid, params)
    z = np.zeros(grid.M)
    assert boundedness_bound(z, z, grid, params) == 0.0
    bound1 = boundedness_bound(state.u_curr, state.v_curr, grid, params)
    bound2 = boundedness_bound(state.u_curr, state.v_curr, grid,
                               example2_params(mu=2.0))
    assert bound2 > bound1  # monotone in the dispersion coefficient

    # and the bound actually holds along a conservative run
    worst = max(norms(u, grid.h).l2 for _, u in levels(example2_phi, grid, params))
    assert worst <= bound1


def test_bounds_do_not_underflow():
    # the squares of data near 1e-280 underflow to a zero E(0); the
    # bounds are evaluated on scaled data and stay above max |u0|
    grid = Grid1D(L=1.0, M=4, T=1.0, N=2)
    params = SchemeParams(mu=1.0)
    state = init_state(lambda x: 1.68e-280 / np.cosh(x) ** 2, grid, params)
    u0, v0 = state.u_curr, state.v_curr
    assert initial_energy(u0, v0, grid, params) == 0.0
    # ||u0|| >= sqrt(h) * max |u0|, though norms() underflows to 0 here
    assert boundedness_bound(u0, v0, grid, params) >= np.sqrt(grid.h) * np.abs(u0).max()
    result = run(lambda x: 1.68e-280 / np.cosh(x) ** 2, grid, params)
    assert a_priori_bounds(result.scaled_e0, result.scale, grid, params)[1] >= np.abs(u0).max()


_POSITIVE = st.floats(0.05, 20.0)
_COEFFICIENT = st.floats(0.0, 3.0)


@st.composite
def _conservative_config(draw):
    """Text of a custom config with no source, no reaction and nu >= 0,
    starting from a sine mode below M/2 or a sech2 profile; short T
    gives coarse runs with mu/tau >> 1/h^2."""
    m = draw(st.integers(4, 64))
    amp = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        phi = f"sine {amp!r} {draw(st.integers(0, (m - 1) // 2))}"
    else:
        phi = f"sech2 {amp!r} {draw(st.floats(0.05, 10.0))!r}"
    x_left = draw(st.floats(-50.0, 50.0))
    return "\n".join([
        "experiment = custom",
        f"x_left = {x_left!r}",
        f"x_right = {x_left + draw(st.floats(0.5, 100.0))!r}",
        f"mu = {draw(_POSITIVE)!r}",
        f"gamma = {draw(_COEFFICIENT)!r}",
        f"kappa = {draw(_COEFFICIENT)!r}",
        f"nu = {draw(_COEFFICIENT)!r}",
        f"T = {draw(st.floats(0.01, 2.0))!r}",
        f"M = {m}",
        f"N = {draw(st.integers(2, 40))}",
        f"phi = {phi}"])


# data below the normal float range: max |u0| = 5e-324 carries no
# relative precision, and the bounds rounded below the levels on it
_SUBNORMAL_CONFIG = "\n".join([
    "experiment = custom", "x_left = 0", "x_right = 1", "mu = 0.0546875", "gamma = 0",
    "kappa = 0", "nu = 0", "T = 1", "M = 5", "N = 10", "phi = sech2 5e-324 1.0"])


@settings(max_examples=80, deadline=None)
@given(text=_conservative_config())
@example(text=_SUBNORMAL_CONFIG)
def test_bounds_hold_on_conservative_runs_property(text):
    # E_k >= e(u^{k+1}, v^{k+1})/2 once nu >= 0, so every level of any
    # conservative run obeys both a-priori bounds, high sine modes
    # included; a run whose initial data are nonzero but below the normal
    # float range fails at step 0 instead
    config = parse_config_text(text)
    grid = Grid1D(L=config.length, M=config.m_values[0], T=config.T,
                  N=config.n_values[0], x_left=config.x_left)
    params = config.params
    with np.errstate(over="ignore"):  # cosh of a narrow sech2 far out
        if below_normal_range(config.phi, grid):
            with pytest.raises(SolverFailure, match=r"^step 0: initial data: "):
                run(config.phi, grid, params)
            return
        result = run(config.phi, grid, params)
        state = init_state(config.phi, grid, params)
    l2_bound, max_bound = a_priori_bounds(result.scaled_e0, result.scale, grid, params)
    assert result.max_l2 <= l2_bound
    assert result.max_abs <= max_bound
    # the run's E(0) is the one boundedness_bound takes from the same data
    assert boundedness_bound(state.u_curr, state.v_curr, grid, params) == l2_bound
    assert result.energy[0][1] == result.scaled_e0 * result.scale ** 2


def test_max_norm_error_exact_match():
    grid = Grid1D(L=2.0, M=16, T=1.0, N=4)
    x = grid.nodes()
    snaps = [(0.0, np.sin(np.pi * x)), (0.5, 2.0 * np.sin(np.pi * x))]
    exact = lambda xx, t: (1.0 + 2.0 * t) * np.sin(np.pi * xx)
    assert max_norm_error(snaps, exact, grid) == 0.0
    snaps_off = [(0.0, np.sin(np.pi * x) + 0.25)]
    assert max_norm_error(snaps_off, exact, grid) == pytest.approx(0.25)


# -- posterior estimators ---------------------------------------------------------

def _traj(times, fields):
    return [(t, np.asarray(u, dtype=float)) for t, u in zip(times, fields)]


def test_posterior_spatial_identical_dynamics():
    times = [0.0, 0.5, 1.0]
    coarse = _traj(times, [np.zeros(8)] * 3)
    fine = _traj(times, [np.zeros(16)] * 3)
    assert posterior_spatial_error(coarse, fine) == 0.0


def test_posterior_spatial_detects_difference():
    times = [0.0, 1.0]
    uc = np.arange(8.0)
    uf = np.repeat(np.arange(8.0), 2) + 0.125
    assert posterior_spatial_error(_traj(times, [uc, uc]),
                                   _traj(times, [uf, uf])) == pytest.approx(0.125)


def test_posterior_spatial_incompatible_grids():
    times = [0.0, 1.0]
    with pytest.raises(ValueError):
        posterior_spatial_error(_traj(times, [np.zeros(8)] * 2),
                                _traj(times, [np.zeros(24)] * 2))
    with pytest.raises(ValueError):
        posterior_spatial_error(_traj([0.0, 1.0], [np.zeros(8)] * 2),
                                _traj([0.0, 0.5], [np.zeros(16)] * 2))


def test_posterior_temporal_identical_trajectories():
    coarse = _traj([0.0, 0.5, 1.0], [np.zeros(8)] * 3)
    fine = _traj([0.0, 0.25, 0.5, 0.75, 1.0], [np.zeros(8)] * 5)
    assert posterior_temporal_error(coarse, fine) == 0.0


def test_posterior_temporal_incompatible():
    with pytest.raises(ValueError):
        posterior_temporal_error(_traj([0.0, 1.0], [np.zeros(8)] * 2),
                                 _traj([0.0, 1.0], [np.zeros(8)] * 2))
    with pytest.raises(ValueError):
        posterior_temporal_error(_traj([0.0, 1.0], [np.zeros(8)] * 2),
                                 _traj([0.0, 0.5, 1.0], [np.zeros(10)] * 3))


def _run_levels(j, n, produced, stop=None):
    """Stream levels 0..stop (default n) of a made-up run j with n steps
    on [0, 1], noting j in produced as each level is made."""
    for k in range(n + 1 if stop is None else stop + 1):
        produced.append(j)
        t = k / n
        yield t, np.sin(np.arange(8.0) + t) * (1.0 + 0.1 * j)


def test_posterior_temporal_errors_drive_the_runs_in_step():
    produced = []
    runs = [_run_levels(j, 2 ** j, produced) for j in range(3)]
    got = posterior_temporal_errors(runs)
    # run j+1 makes two levels per level of run j, each only once it is due
    assert produced == [0, 1, 2, 0, 1, 2, 2, 1, 2, 2]
    kept = [list(_run_levels(j, 2 ** j, [])) for j in range(3)]
    assert got == [posterior_temporal_error(kept[j], kept[j + 1]) for j in range(2)]
    assert all(err > 0 for err in got)


def test_posterior_temporal_errors_check_lengths_when_the_streams_end():
    # the fine run ends early, or runs on past the coarse one
    with pytest.raises(ValueError, match="3 coarse vs 4 fine levels"):
        posterior_temporal_errors([_run_levels(0, 2, []), _run_levels(1, 4, [], stop=3)])
    with pytest.raises(ValueError, match="2 coarse vs 5 fine levels"):
        posterior_temporal_errors([_run_levels(0, 2, [], stop=1), _run_levels(1, 4, [])])


# -- convergence tables ------------------------------------------------------------

def test_convergence_table_exact_ratio():
    rows = convergence_table([(1.0, 1.0), (0.5, 0.25)])
    assert rows[0].order is None
    assert rows[1].order == pytest.approx(2.0)


def test_convergence_table_equal_errors():
    rows = convergence_table([(1.0, 0.3), (0.5, 0.3)])
    assert rows[1].order == pytest.approx(0.0)


def test_convergence_table_rejects_non_halving():
    with pytest.raises(ValueError):
        convergence_table([(1.0, 1.0), (0.3, 0.1)])
    with pytest.raises(ValueError):
        convergence_table([])


def test_fit_order_recovers_slope():
    steps = [0.4, 0.2, 0.1, 0.05]
    errors = [(s, 3.0 * s ** 4) for s in steps]
    assert fit_order(errors) == pytest.approx(4.0, abs=1e-12)


def test_fit_order_needs_two_errors():
    # one point fixes no slope; a least-squares solve would return an
    # arbitrary one
    with pytest.raises(ValueError, match="at least two"):
        fit_order([(0.1, 1e-3)])
    with pytest.raises(ValueError, match="at least two"):
        fit_order([])


def test_fit_order_rejects_equal_steps():
    # log(step) has no spread, so no line through the points has a slope;
    # polyfit returned one (1.4247 here) with only a RankWarning
    with pytest.raises(ValueError, match="distinct steps"):
        fit_order([(0.1, 1e-3), (0.1, 2e-3)])
    with pytest.raises(ValueError, match="positive"):
        fit_order([(0.1, 1e-3), (-0.05, 2e-3)])


def test_fit_order_makes_no_lapack_solve(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("fit_order called a LAPACK least-squares solve")

    # np.polyfit binds lstsq at import, so the LAPACK gufunc that every
    # least-squares solve reaches is refused too
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    monkeypatch.setattr(np.linalg._umath_linalg, "lstsq", refused)
    errors = [(s, 2.0 * s ** 2) for s in (0.4, 0.2, 0.1)]
    assert fit_order(errors) == pytest.approx(2.0, abs=1e-12)


# -- stability gap -----------------------------------------------------------------

def test_stability_gap_zero_perturbation():
    grid = example2_grid(50, 20)
    params = example2_params()
    base = levels(example2_phi, grid, params)
    series = stability_gap(base, base, grid)
    assert all(v == 0.0 for _, v in series)


def test_stability_gap_grid_mismatch():
    grid = example2_grid(50, 20)
    base = [(0.0, np.zeros(50))]
    with pytest.raises(ValueError):
        stability_gap(base, [(0.5, np.zeros(50))], grid)
    with pytest.raises(ValueError):
        stability_gap(base, [(0.0, np.zeros(40))], grid)


def test_stability_gap_linear_scaling():
    grid = example2_grid(100, 100)
    params = example2_params()
    x = grid.nodes()
    base = levels(example2_phi, grid, params)

    def perturbed(amp):
        phi = lambda xx: example2_phi(xx) + amp * np.sin(2 * np.pi * xx / grid.L)
        traj = levels(phi, grid, params)
        series = stability_gap(base, traj, grid)
        pert0 = norms(amp * np.sin(2 * np.pi * x / grid.L), grid.h).h1_semi
        return max(v for _, v in series) / pert0

    ratio_full = perturbed(1e-3)
    ratio_half = perturbed(5e-4)
    assert ratio_full <= 10.0
    assert abs(ratio_half - ratio_full) <= 0.05 * ratio_full
