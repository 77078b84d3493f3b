"""Cyclic solvers against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmb.linalg import (REDUCTION_BASE, CyclicBlockTriSystem,
                         CyclicReductionSolver, ScalarCyclicTriSystem,
                         SingularSystemError, _dense_block_matrix,
                         block_matvec, block_row_sum_norm, block_system_matrix,
                         scalar_system_matrix, solve_cyclic_block_tridiagonal,
                         solve_dense_oracle, solve_scalar_cyclic)
from bbmb.scheme import advance, assemble_interior_step, init_state

from conftest import example2_grid, example2_params, example2_phi


def random_scalar_system(rng, m, dominance=4.0):
    return ScalarCyclicTriSystem(
        sub=rng.standard_normal(m),
        diag=dominance + rng.standard_normal(m),
        sup=rng.standard_normal(m),
        rhs=rng.standard_normal(m))


def random_block_system(rng, m, dominance=4.0):
    return CyclicBlockTriSystem(
        sub=rng.standard_normal((m, 2, 2)),
        diag=dominance * np.eye(2) + rng.standard_normal((m, 2, 2)),
        sup=rng.standard_normal((m, 2, 2)),
        rhs=rng.standard_normal((m, 2)))


def assert_block_matches_oracle(system):
    x = solve_cyclic_block_tridiagonal(system).reshape(-1)
    xd = solve_dense_oracle(block_system_matrix(system), system.rhs.reshape(-1))
    assert np.max(np.abs(x - xd)) <= 1e-10 * max(1.0, float(np.max(np.abs(xd))))


# -- scalar solver -------------------------------------------------------------

def test_scalar_identity_system():
    m = 8
    rhs = np.arange(m, dtype=float)
    sys_ = ScalarCyclicTriSystem(sub=np.zeros(m), diag=np.ones(m),
                                 sup=np.zeros(m), rhs=rhs)
    assert np.allclose(solve_scalar_cyclic(sys_), rhs)


def test_scalar_shifted_laplacian_matches_oracle():
    m = 4
    sys_ = ScalarCyclicTriSystem(sub=-np.ones(m), diag=2.5 * np.ones(m),
                                 sup=-np.ones(m), rhs=np.array([1.0, 0, 0, 0]))
    x = solve_scalar_cyclic(sys_)
    xd = solve_dense_oracle(scalar_system_matrix(sys_), sys_.rhs)
    assert np.max(np.abs(x - xd)) <= 1e-12


def test_scalar_unshifted_laplacian_is_singular():
    # with diag exactly 2 the wrap-around matrix annihilates constants
    m = 4
    sys_ = ScalarCyclicTriSystem(sub=-np.ones(m), diag=2.0 * np.ones(m),
                                 sup=-np.ones(m), rhs=np.array([1.0, 0, 0, 0]))
    with pytest.raises(SingularSystemError):
        solve_scalar_cyclic(sys_)


def test_scalar_round_trip(rng):
    for _ in range(20):
        m = int(rng.integers(4, 65))
        sys_ = random_scalar_system(rng, m)
        x = rng.standard_normal(m)
        a = scalar_system_matrix(sys_)
        sys_.rhs = a @ x
        got = solve_scalar_cyclic(sys_)
        assert np.max(np.abs(got - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


# -- block solver --------------------------------------------------------------

def test_block_identity_system():
    m = 6
    rhs = np.arange(2 * m, dtype=float).reshape(m, 2)
    sys_ = CyclicBlockTriSystem(sub=np.zeros((m, 2, 2)),
                                diag=np.tile(np.eye(2), (m, 1, 1)),
                                sup=np.zeros((m, 2, 2)), rhs=rhs)
    assert np.allclose(solve_cyclic_block_tridiagonal(sys_), rhs)


def test_block_random_matches_oracle(rng):
    m = 5
    sys_ = random_block_system(rng, m)
    x = solve_cyclic_block_tridiagonal(sys_)
    xd = solve_dense_oracle(block_system_matrix(sys_), sys_.rhs.reshape(-1))
    assert np.max(np.abs(x.reshape(-1) - xd)) <= 1e-10 * max(1.0, np.max(np.abs(xd)))


def test_block_interior_step_system_matches_oracle():
    # an actual interior step system from the solitary-wave benchmark
    grid = example2_grid(20, 50)
    params = example2_params()
    state = init_state(example2_phi, grid, params)
    state = advance(state, grid, params)
    system = assemble_interior_step(state, grid, params)
    x = solve_cyclic_block_tridiagonal(system)
    xd = solve_dense_oracle(block_system_matrix(system), system.rhs.reshape(-1))
    scale = max(1.0, float(np.max(np.abs(xd))))
    assert np.max(np.abs(x.reshape(-1) - xd)) <= 1e-10 * scale


def test_oracle_equivalence_on_random_systems(rng):
    # 100 scalar + 100 block well-conditioned cyclic systems
    for _ in range(100):
        m = int(rng.integers(4, 65))
        sys_s = random_scalar_system(rng, m)
        xs = solve_scalar_cyclic(sys_s)
        xd = solve_dense_oracle(scalar_system_matrix(sys_s), sys_s.rhs)
        assert np.max(np.abs(xs - xd)) <= 1e-10 * max(1.0, np.max(np.abs(xd)))
    for _ in range(100):
        m = int(rng.integers(4, 65))
        sys_b = random_block_system(rng, m)
        xb = solve_cyclic_block_tridiagonal(sys_b).reshape(-1)
        xd = solve_dense_oracle(block_system_matrix(sys_b), sys_b.rhs.reshape(-1))
        assert np.max(np.abs(xb - xd)) <= 1e-10 * max(1.0, np.max(np.abs(xd)))


def test_block_residual_helper(rng):
    for m in (4, 7, 33):
        sys_ = random_block_system(rng, m)
        x = rng.standard_normal((m, 2))
        dense = block_system_matrix(sys_) @ x.reshape(-1)
        assert np.allclose(block_matvec(sys_, x).reshape(-1), dense, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("m", [4, 5, 16, 33])
def test_block_row_sum_norm_matches_dense(rng, m):
    systems = [random_block_system(rng, m)]
    grid = example2_grid(m, 20)
    params = example2_params()
    state = advance(init_state(example2_phi, grid, params), grid, params)
    systems.append(assemble_interior_step(state, grid, params))
    for sys_ in systems:
        dense = np.abs(block_system_matrix(sys_)).sum(axis=1).max()
        assert block_row_sum_norm(sys_) == pytest.approx(dense, rel=1e-14)


def _loop_block_matrix(system):
    """The dense matrix of a block system, one entry at a time; the
    corner blocks are added to a zero, as the wrap-around terms."""
    m = system.m
    a = np.zeros((2 * m, 2 * m))
    for i in range(m):
        for p in range(2):
            for q in range(2):
                a[2 * i + p, 2 * i + q] = system.diag[i][p, q]
                if i > 0:
                    a[2 * i + p, 2 * (i - 1) + q] = system.sub[i][p, q]
                if i < m - 1:
                    a[2 * i + p, 2 * (i + 1) + q] = system.sup[i][p, q]
    for p in range(2):
        for q in range(2):
            a[p, 2 * (m - 1) + q] += system.sub[0][p, q]
            a[2 * (m - 1) + p, q] += system.sup[m - 1][p, q]
    return a


@pytest.mark.parametrize("m", [4, 5, 16, 32])
def test_dense_block_matrix_matches_loop_bitwise(rng, m):
    coeffs = rng.standard_normal((2, 7, m))
    coeffs[rng.random(coeffs.shape) < 0.3] = -0.0  # corners and the rest
    coeffs[:, 0:2, 0] = coeffs[:, 4:6, -1] = -0.0
    system = CyclicBlockTriSystem.packed(coeffs)
    want = _loop_block_matrix(system)
    reused = np.zeros((2 * m, 2 * m))
    _dense_block_matrix(rng.standard_normal((m, 2, 6)), reused)
    for got in (block_system_matrix(system),
                _dense_block_matrix(coeffs[:, :6].transpose(2, 0, 1), reused)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not np.signbit(want[0:2, -2:]).any()  # a -0.0 corner reads +0.0
    assert np.signbit(want).any()


def test_block_system_packs_and_round_trips(rng):
    m = 7
    sub, diag, sup = (rng.standard_normal((m, 2, 2)) for _ in range(3))
    rhs = rng.standard_normal((m, 2))
    sys_ = CyclicBlockTriSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
    assert sys_.coeffs.shape == (2, 7, m) and sys_.m == m
    for got, want in ((sys_.sub, sub), (sys_.diag, diag), (sys_.sup, sup), (sys_.rhs, rhs)):
        assert np.array_equal(got, want)
    assert np.array_equal(sys_.coeffs[1, 2:4, 5], diag[5, 1])
    assert np.array_equal(sys_.coeffs[:, 6, 3], rhs[3])
    packed = CyclicBlockTriSystem.packed(sys_.coeffs)
    assert packed.coeffs is sys_.coeffs

    new_rhs = rng.standard_normal((m, 2))
    sys_.rhs = new_rhs
    assert np.array_equal(sys_.rhs, new_rhs)
    for bad in (np.full((m, 2), np.nan), np.ones((m, 3))):
        with pytest.raises(ValueError):
            sys_.rhs = bad
    assert np.array_equal(sys_.rhs, new_rhs)
    with pytest.raises(ValueError):
        CyclicBlockTriSystem(sub=sub[:, :1], diag=diag, sup=sup, rhs=rhs)
    for bad in (np.zeros((2, 6, m)), np.zeros((2, 7, 3)), np.full((2, 7, m), np.inf)):
        with pytest.raises(ValueError):
            CyclicBlockTriSystem.packed(bad)


def test_block_singular_pivot_raises():
    m = 4
    sys_ = CyclicBlockTriSystem(sub=np.zeros((m, 2, 2)),
                                diag=np.zeros((m, 2, 2)),
                                sup=np.zeros((m, 2, 2)),
                                rhs=np.ones((m, 2)))
    with pytest.raises(SingularSystemError):
        solve_cyclic_block_tridiagonal(sys_)


def test_system_validation():
    with pytest.raises(ValueError):
        ScalarCyclicTriSystem(sub=np.zeros(3), diag=np.ones(3), sup=np.zeros(3),
                              rhs=np.zeros(3))
    with pytest.raises(ValueError):
        CyclicBlockTriSystem(sub=np.zeros((6, 2, 2)), diag=np.full((6, 2, 2), np.inf),
                             sup=np.zeros((6, 2, 2)), rhs=np.zeros((6, 2)))


# -- block cyclic reduction (M > REDUCTION_BASE) ---------------------------------

@pytest.mark.parametrize("m", [33, 63, 65, 127, 128, 129, 250, 1001, 2047])
def test_block_reduction_random_matches_oracle(rng, m):
    # odd sizes drop a last block at some level; powers of two never do
    assert m > REDUCTION_BASE
    assert_block_matches_oracle(random_block_system(rng, m))


@pytest.mark.parametrize("m", [250, 1001])
def test_block_reduction_step_system_matches_oracle(m):
    grid = example2_grid(m, 50)
    params = example2_params()
    state = advance(init_state(example2_phi, grid, params), grid, params)
    assert_block_matches_oracle(assemble_interior_step(state, grid, params))


def test_block_reduction_zero_system_raises():
    m = 100
    sys_ = CyclicBlockTriSystem(sub=np.zeros((m, 2, 2)),
                                diag=np.zeros((m, 2, 2)),
                                sup=np.zeros((m, 2, 2)),
                                rhs=np.ones((m, 2)))
    with pytest.raises(SingularSystemError):
        solve_cyclic_block_tridiagonal(sys_)


@pytest.mark.parametrize("m", [5, 32, 33, 64, 65, 250, 1001])
def test_reused_solver_matches_fresh_solver_bitwise(rng, m):
    # the level buffers are overwritten by every solve and the views of
    # the last array solved are kept: arrays A, B, A in turn, then A with
    # its entries rewritten in place (as a step workspace does), must
    # each give a fresh solver's bits, and each solution is a fresh array
    solver = CyclicReductionSolver(m)
    a, b = random_block_system(rng, m), random_block_system(rng, m)
    solutions = []
    for system in (a, b, a, a):
        if len(solutions) == 3:
            a.coeffs[...] = random_block_system(rng, m).coeffs
        x = solve_cyclic_block_tridiagonal(system, solver)
        fresh = CyclicReductionSolver(m).solve(system)
        assert np.array_equal(x, fresh) and np.array_equal(np.signbit(x), np.signbit(fresh))
        assert np.array_equal(x, solve_cyclic_block_tridiagonal(system))
        solutions.append((x, x.copy()))
    for x, kept in solutions:
        assert np.array_equal(x, kept)
    assert not np.shares_memory(solutions[0][0], solutions[1][0])


def test_solver_rejects_other_sizes(rng):
    with pytest.raises(ValueError):
        CyclicReductionSolver(3)
    with pytest.raises(ValueError):
        CyclicReductionSolver(64).solve(random_block_system(rng, 65))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(4, 300), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.integers(-6, 6))
def test_block_solver_property_matches_oracle(m, seed, exponent):
    # strictly diagonally dominant (diagonal >= 7, off-diagonal row sum
    # <= 5) at any overall scale, so the pivot floor must scale with it
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    assert_block_matches_oracle(CyclicBlockTriSystem(
        sub=scale * rng.uniform(-1, 1, (m, 2, 2)),
        diag=scale * (8 * np.eye(2) + rng.uniform(-1, 1, (m, 2, 2))),
        sup=scale * rng.uniform(-1, 1, (m, 2, 2)),
        rhs=rng.standard_normal((m, 2))))


# -- dense oracle ----------------------------------------------------------------

def test_dense_oracle_examples(rng):
    assert np.allclose(solve_dense_oracle(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
    x = solve_dense_oracle([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    assert np.allclose(x, [1.0, 1.0])
    a = rng.standard_normal((50, 50)) + 10 * np.eye(50)
    want = rng.standard_normal(50)
    got = solve_dense_oracle(a, a @ want)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_dense_oracle_errors():
    with pytest.raises(SingularSystemError):
        solve_dense_oracle(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        solve_dense_oracle(np.eye(3), np.ones(4))
    with pytest.raises(ValueError):
        solve_dense_oracle(np.eye(5000), np.ones(5000))
