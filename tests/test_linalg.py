"""Cyclic solvers against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmb.grid import Batch
from bbmb.linalg import (PIVOT_RTOL, REDUCTION_BASE, SWEEP_CHUNK, CyclicBlockTriSystem,
                         CyclicReductionSolver, ScalarCyclicTriSystem,
                         SingularSystemError, block_matvec, block_system_matrix,
                         scalar_system_matrix, solve_cyclic_block_tridiagonal,
                         solve_dense_oracle, solve_scalar_cyclic)
from bbmb.scheme import StepWorkspace, advance, assemble_interior_step, init_state

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


def _list_sweep(system):
    """The scalar solve as one sweep over whole-length lists of Python
    floats: the reference whose bits the chunked sweep must keep."""
    m = system.m
    sub = system.sub.tolist()
    diag = system.diag.tolist()
    sup = system.sup.tolist()

    scale = max(float(np.max(np.abs(system.sub))),
                float(np.max(np.abs(system.diag))),
                float(np.max(np.abs(system.sup))))
    floor = PIVOT_RTOL * scale
    ca = sub[0]
    cb = sup[m - 1]

    b0 = system.rhs.tolist()
    b1 = [0.0] * m
    b2 = [0.0] * m
    b1[0] = ca
    b2[m - 1] = cb

    piv = [0.0] * m
    p = diag[0]
    if abs(p) <= floor:
        raise SingularSystemError(f"zero pivot in row 0 (|{p}| <= {floor})")
    piv[0] = 1.0 / p
    for i in range(1, m):
        w = sub[i] * piv[i - 1]
        p = diag[i] - w * sup[i - 1]
        if abs(p) <= floor:
            raise SingularSystemError(f"zero pivot in row {i} (|{p}| <= {floor})")
        piv[i] = 1.0 / p
        b0[i] -= w * b0[i - 1]
        b1[i] -= w * b1[i - 1]
        b2[i] -= w * b2[i - 1]

    b0[m - 1] *= piv[m - 1]
    b1[m - 1] *= piv[m - 1]
    b2[m - 1] *= piv[m - 1]
    for i in range(m - 2, -1, -1):
        s = sup[i]
        q = piv[i]
        b0[i] = (b0[i] - s * b0[i + 1]) * q
        b1[i] = (b1[i] - s * b1[i + 1]) * q
        b2[i] = (b2[i] - s * b2[i + 1]) * q

    c11 = 1.0 + b1[m - 1]
    c12 = b2[m - 1]
    c21 = b1[0]
    c22 = 1.0 + b2[0]
    det = c11 * c22 - c12 * c21
    if abs(det) <= PIVOT_RTOL * max(1.0, abs(c11), abs(c12), abs(c21), abs(c22)) ** 2:
        raise SingularSystemError("singular Woodbury capacitance matrix")
    g1 = b0[m - 1]
    g2 = b0[0]
    w1 = (c22 * g1 - c12 * g2) / det
    w2 = (c11 * g2 - c21 * g1) / det

    y = np.asarray(b0)
    return y - w1 * np.asarray(b1) - w2 * np.asarray(b2)


@pytest.mark.parametrize("m", [4, 5, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
                               2 * SWEEP_CHUNK + 1, 5000])
def test_chunked_scalar_sweep_matches_list_sweep_bitwise(rng, m):
    # the compact relation's system, then random ones, diagonally dominant
    # or not, at coefficient scales from 1e-3 to 1e3
    systems = [ScalarCyclicTriSystem(sub=np.full(m, 1 / 12), diag=np.full(m, 5 / 6),
                                     sup=np.full(m, 1 / 12), rhs=rng.standard_normal(m))]
    for k in range(19):
        system = random_scalar_system(rng, m, dominance=4.0 if k % 2 else 0.0)
        scale = 10.0 ** (k % 7 - 3)
        system.sub, system.diag, system.sup = (scale * a for a in
                                               (system.sub, system.diag, system.sup))
        systems.append(system)
    # a -0.0 corner cb, whose column only its last row's update touches,
    # with that update's factor of either sign, and a zero right-hand side
    for sign, rhs in ((1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (-1.0, 0.0)):
        system = random_scalar_system(rng, m)
        system.sup[m - 1], system.sub[m - 1] = -0.0, sign
        system.rhs *= rhs
        systems.append(system)
    for system in systems:
        want, got = _list_sweep(system), solve_scalar_cyclic(system)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_chunked_scalar_sweep_names_the_absolute_pivot_row(rng):
    m, row = 1500, 1200
    system = random_scalar_system(rng, m)
    system.sub[row] = system.diag[row] = 0.0
    with pytest.raises(SingularSystemError) as want:
        _list_sweep(system)
    assert str(want.value).startswith(f"zero pivot in row {row} (")
    with pytest.raises(SingularSystemError) as got:
        solve_scalar_cyclic(system)
    assert str(got.value) == str(want.value)


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
    work = StepWorkspace(grid, params)
    state = advance(init_state(example2_phi, grid), work)
    system = assemble_interior_step(state, work)
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


def test_compact_norm_is_the_largest_compact_row_sum():
    # the residual gate's matrix norm takes the compact rows' share from
    # the workspace: each case's largest absolute row sum over the odd
    # rows of its interleaved matrix
    batch, params = Batch([example2_grid(m, 20) for m in (5, 16, 33)]), example2_params()
    work = StepWorkspace(batch, params)
    state = advance(init_state(example2_phi, batch), work)
    assemble_interior_step(state, work)
    dense = [np.abs(block_system_matrix(case)[1::2]).sum(axis=1).max() for case in work.cases]
    assert work.compact_norm.tolist() == dense


@pytest.mark.parametrize("m", [4, 5, 16, 33])
def test_block_row_sum_norm_matches_dense(m):
    # the gate's norm of one case's step system, the larger of its
    # evolution rows' largest absolute row sum and the workspace's
    # compact share, is the infinity norm of the dense matrix
    grid, params = example2_grid(m, 20), example2_params()
    work = StepWorkspace(grid, params)
    state = advance(init_state(example2_phi, grid), work)
    system = assemble_interior_step(state, work)
    gate = max(np.abs(system.coeffs[0, :6]).sum(axis=0).max(), float(work.compact_norm))
    dense = np.abs(block_system_matrix(system)).sum(axis=1).max()
    assert gate == pytest.approx(dense, rel=1e-14)


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
    got = block_system_matrix(system)
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
    work = StepWorkspace(grid, example2_params())
    state = advance(init_state(example2_phi, grid), work)
    assert_block_matches_oracle(assemble_interior_step(state, work))


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
    # the system are taken once: its array rewritten in place (as a step
    # workspace does) three times must each give a fresh solver's bits,
    # and each solution is a fresh array
    a = random_block_system(rng, m)
    solver = CyclicReductionSolver(a)
    solutions = []
    for _ in range(4):
        if solutions:
            a.coeffs[...] = random_block_system(rng, m).coeffs
        x = solve_cyclic_block_tridiagonal(a, solver)
        fresh = CyclicReductionSolver(a).solve()
        assert np.array_equal(x, fresh) and np.array_equal(np.signbit(x), np.signbit(fresh))
        assert np.array_equal(x, solve_cyclic_block_tridiagonal(a))
        solutions.append((x, x.copy()))
    for x, kept in solutions:
        assert np.array_equal(x, kept)
    assert not np.shares_memory(solutions[0][0], solutions[1][0])


def _scratch_spans(m):
    """The (start, size) spans in an m-block solver's scratch that each
    reduction level uses: what it reduces in, from (None at the top, the
    system) and into, then what it back-substitutes in, from and into
    (None at the top, the solution returned).  A level of n blocks, k of
    them odd, reduces in 2k + 20(n - k) floats into the 14(n - k) that
    follow, and back-substitutes in 2n floats from the first 2(n - k)
    of its reduced system."""
    n, above = m, None
    while n > REDUCTION_BASE:
        k = n // 2
        reduced = (2 * k + 20 * (n - k), 14 * (n - k))
        solution = None if above is None else (above[0], 2 * n)
        yield (((0, reduced[0]), above, reduced),
               ((0, 2 * n), (reduced[0], 2 * (n - k)), solution))
        n, above = n - k, reduced


def _offset(view, scratch):
    return (view.__array_interface__["data"][0] - scratch.__array_interface__["data"][0]) // 8


@pytest.mark.parametrize("m", [33, 63, 65, 127, 129, 1001, 2047, 5000])
def test_solver_keeps_its_levels_in_the_scratch_it_is_given(rng, m):
    # every level's reduced system and solution are views of the scratch,
    # which each solve writes before it reads: NaN left there, or what the
    # last solve left, changes no bit
    grid = example2_grid(m, 50)
    work = StepWorkspace(grid, example2_params())
    step = assemble_interior_step(advance(init_state(example2_phi, grid), work), work)
    for system in (random_block_system(rng, m), step):
        fresh = CyclicReductionSolver(system).solve()
        scratch = np.full(CyclicReductionSolver.scratch_size(m), np.nan)
        solver = CyclicReductionSolver(system, scratch)
        for _ in range(2):
            x = solver.solve()
            assert np.array_equal(x, fresh) and np.array_equal(np.signbit(x), np.signbit(fresh))
        spans = list(_scratch_spans(m))
        assert len(spans) == len(solver._levels)
        for level, ((_, _, reduced), (_, x_in, _)) in zip(solver._levels, spans):
            assert np.shares_memory(level.reduced, scratch)
            assert np.shares_memory(level.x_in, scratch)
            assert (_offset(level.reduced, scratch), _offset(level.x_in, scratch)) == (
                reduced[0], x_in[0])


def test_scratch_spans_of_each_phase_are_apart():
    for m in [*range(REDUCTION_BASE + 1, 5001), 10 ** 5, 10 ** 6]:
        size = CyclicReductionSolver.scratch_size(m)
        for phase in (span for level in _scratch_spans(m) for span in level):
            spans = sorted(s for s in phase if s is not None)
            assert all(a + n <= b for (a, n), (b, _) in zip(spans, spans[1:])), (m, spans)
            assert spans[-1][0] + spans[-1][1] <= size, (m, spans)


def test_solver_rejects_other_sizes(rng):
    # a solver solves the array it was built for: a system of another
    # size is refused, and so is another array of the same size
    solver = CyclicReductionSolver(random_block_system(rng, 64))
    for m in (65, 64):
        with pytest.raises(ValueError, match="another system"):
            solve_cyclic_block_tridiagonal(random_block_system(rng, m), solver)


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
