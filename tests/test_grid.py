"""Grid construction, discrete operators, and their algebraic identities."""

import re

import numpy as np
import pytest

from bbmb.grid import (Grid1D, as_field, backward_diff, central_diff,
                       inner_product, norms, periodic_shift, second_diff,
                       skew_advection)


def random_field(rng, m):
    return rng.standard_normal(m)


# -- grid validation ----------------------------------------------------------

def test_grid_steps():
    g = Grid1D(L=2.0, M=16, T=1.0, N=100)
    assert g.h == 2.0 / 16
    assert g.tau == 1.0 / 100
    assert g.nodes()[0] == 0.0
    assert np.isclose(g.nodes()[-1], 2.0 - g.h)
    assert len(g.times()) == 101
    assert Grid1D(L=2.0, M=np.int64(16), T=1.0, N=np.int32(100)).h == g.h


@pytest.mark.parametrize("kwargs", [
    dict(L=2.0, M=3, T=1.0, N=10),
    dict(L=2.0, M=16, T=1.0, N=1),
    dict(L=-1.0, M=16, T=1.0, N=10),
    dict(L=2.0, M=16, T=0.0, N=10),
    dict(L=2.0, M=8, T=1.0, N=10, x_left=np.inf),
    dict(L=2.0, M=10**400, T=1.0, N=10),
    dict(L=2.0, M=16, T=1.0, N=10**400),
    dict(L=2.0, M=16.5, T=1.0, N=10),
])
def test_grid_rejects_degenerate(kwargs):
    with pytest.raises(ValueError):
        Grid1D(**kwargs)


@pytest.mark.parametrize("kwargs, needle", [
    # T/N rounds to 0, which time_index would divide by
    (dict(L=1.0, M=16, T=5e-324, N=2), "tau = T/N = 0 "),
    # h = 6.25e298, whose fourth power the energy takes
    (dict(L=1e300, M=16, T=1.0, N=4), "h = L/M = 6.25e+298 "),
], ids=["subnormal-tau", "huge-h"])
def test_grid_rejects_steps_out_of_float_range(kwargs, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        Grid1D(**kwargs)


def test_time_index_snaps_to_grid():
    g = Grid1D(L=1.0, M=8, T=1.0, N=10)
    assert g.time_index(0.5) == 5
    assert g.time_index(0.52) == 5
    assert g.time_index(0.56) == 6
    with pytest.raises(ValueError):
        g.time_index(1.2)
    with pytest.raises(ValueError):
        g.time_index(-0.3)


def test_as_field_validation():
    with pytest.raises(ValueError):
        as_field([1.0, 2.0], 4)
    with pytest.raises(ValueError):
        as_field([1.0, np.nan, 0.0, 0.0], 4)


# -- worked operator values ---------------------------------------------------

def test_second_diff_annihilates_constants():
    assert np.allclose(second_diff(np.full(4, 3.7), 0.3), 0.0)


def test_second_diff_hand_value():
    got = second_diff(np.array([1.0, 0.0, -1.0, 0.0]), 0.5)
    assert np.allclose(got, [-8.0, 0.0, 8.0, 0.0])


def test_central_diff_hand_value():
    assert np.allclose(central_diff(np.full(4, 2.2), 0.5), 0.0)
    got = central_diff(np.array([1.0, 0.0, -1.0, 0.0]), 0.5)
    assert np.allclose(got, [0.0, -2.0, 0.0, 2.0])


def test_backward_diff_hand_value():
    assert np.allclose(backward_diff(np.full(4, 1.1), 0.5), 0.0)
    got = backward_diff(np.array([1.0, 0.0, -1.0, 0.0]), 0.5)
    assert np.allclose(got, [2.0, -2.0, -2.0, 2.0])


def test_skew_advection_hand_values(rng):
    a = np.array([1.0, 0.0, -1.0, 0.0])
    assert np.allclose(skew_advection(a, a, 0.5), 0.0)
    # constant first argument reduces to (2c/3) * central_diff
    b = random_field(rng, 16)
    c = 1.7
    got = skew_advection(np.full(16, c), b, 0.25)
    assert np.allclose(got, (2.0 * c / 3.0) * central_diff(b, 0.25), atol=1e-14)


def test_skew_advection_length_mismatch():
    with pytest.raises(ValueError):
        skew_advection(np.zeros(4), np.zeros(5), 0.5)


def test_inner_product_hand_value():
    u = np.array([1.0, 0.0, -1.0, 0.0])
    assert inner_product(u, u, 0.5) == pytest.approx(1.0)
    assert inner_product(u, np.zeros(4), 0.5) == 0.0
    with pytest.raises(ValueError):
        inner_product(u, np.zeros(5), 0.5)


def test_norms_hand_value():
    n = norms(np.array([1.0, 0.0, -1.0, 0.0]), 0.5)
    assert n.l2 == pytest.approx(1.0)
    assert n.h1_semi == pytest.approx(np.sqrt(8.0))
    assert n.max == 1.0
    z = norms(np.zeros(6), 0.3)
    assert (z.l2, z.h1_semi, z.max) == (0.0, 0.0, 0.0)


# -- periodic shifts against np.roll --------------------------------------------

SHIFT_SIZES = (4, 5, 8, 33)


@pytest.mark.parametrize("m", SHIFT_SIZES)
def test_periodic_shift_matches_roll(rng, m):
    stacked = rng.standard_normal((3, m))
    blocks = rng.standard_normal((m, 2))
    for offset in (1, -1, 2, -3, 0, m, -m, m + 1):
        assert np.array_equal(periodic_shift(stacked, offset),
                              np.roll(stacked, -offset, axis=-1))
        assert np.array_equal(periodic_shift(stacked[0], offset),
                              np.roll(stacked[0], -offset))
        assert np.array_equal(periodic_shift(blocks, offset, axis=0),
                              np.roll(blocks, -offset, axis=0))
        out = np.empty_like(stacked)
        assert periodic_shift(stacked, offset, out=out) is out
        assert np.array_equal(out, np.roll(stacked, -offset, axis=-1))


@pytest.mark.parametrize("m", SHIFT_SIZES)
def test_operators_match_roll_reference(rng, m):
    # the operators as written with np.roll: the shift only moves data,
    # so the results must agree bit for bit, stacked or not
    h = 0.37
    a, b = rng.standard_normal((2, 3, m))
    right, left = (lambda u: np.roll(u, -1, axis=-1)), (lambda u: np.roll(u, 1, axis=-1))
    for x, y in ((a, b), (a[1], b[1])):
        assert np.array_equal(second_diff(x, h),
                              (right(x) - 2.0 * x + left(x)) / (h * h))
        assert np.array_equal(central_diff(x, h), (right(x) - left(x)) / (2.0 * h))
        assert np.array_equal(backward_diff(x, h), (x - left(x)) / h)
        assert np.array_equal(skew_advection(x, y, h),
                              (x * (right(y) - left(y)) + right(x) * right(y)
                               - left(x) * left(y)) / (6.0 * h))


# -- algebraic identities on random fields ------------------------------------

def _identity_scale(terms, h):
    """Largest intermediate magnitude of a discrete inner product."""
    return max(float(h * np.sum(np.abs(t))) for t in terms) + 1e-300


def test_skew_inner_product_vanishes(rng):
    for _ in range(500):
        m = int(rng.integers(4, 257))
        h = float(rng.uniform(0.01, 2.0))
        u, w = random_field(rng, m), random_field(rng, m)
        val = inner_product(skew_advection(u, w, h), w, h)
        scale = _identity_scale([skew_advection(u, w, h) * w], h)
        assert abs(val) <= 1e-13 * scale


def test_central_diff_inner_products_vanish(rng):
    for _ in range(500):
        m = int(rng.integers(4, 257))
        h = float(rng.uniform(0.01, 2.0))
        u = random_field(rng, m)
        cd = central_diff(u, h)
        assert abs(inner_product(cd, u, h)) <= 1e-13 * _identity_scale([cd * u], h)
        d2 = second_diff(u, h)
        assert abs(inner_product(cd, d2, h)) <= 1e-13 * _identity_scale([cd * d2], h)


def test_summation_by_parts(rng):
    for _ in range(500):
        m = int(rng.integers(4, 257))
        h = float(rng.uniform(0.01, 2.0))
        u, w = random_field(rng, m), random_field(rng, m)
        lhs = inner_product(second_diff(u, h), w, h)
        rhs = -inner_product(backward_diff(u, h), backward_diff(w, h), h)
        scale = _identity_scale([second_diff(u, h) * w,
                                 backward_diff(u, h) * backward_diff(w, h)], h)
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_product_rule_identity(rng):
    # central_diff(u*v)[i] = 0.5*du[i+1/2]*v[i+1] + 0.5*du[i-1/2]*v[i-1]
    #                        + u[i]*central_diff(v)[i], pointwise
    for _ in range(500):
        m = int(rng.integers(4, 129))
        h = float(rng.uniform(0.01, 2.0))
        u, v = random_field(rng, m), random_field(rng, m)
        lhs = central_diff(u * v, h)
        du = backward_diff(u, h)
        rhs = (0.5 * np.roll(du, -1) * np.roll(v, -1)
               + 0.5 * du * np.roll(v, 1)
               + u * central_diff(v, h))
        uv = np.abs(u * v)
        scale = ((np.roll(uv, -1) + np.roll(uv, 1)) / (2 * h)
                 + np.abs(u * central_diff(v, h)) + 1e-300)
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)


def test_inverse_inequality(rng):
    for _ in range(200):
        m = int(rng.integers(4, 257))
        h = float(rng.uniform(0.01, 2.0))
        n = norms(random_field(rng, m), h)
        assert n.h1_semi <= (2.0 / h) * n.l2 * (1 + 1e-12)


def test_translation_equivariance(rng):
    for op in (lambda u, h: second_diff(u, h),
               lambda u, h: central_diff(u, h),
               lambda u, h: backward_diff(u, h)):
        for _ in range(50):
            m = int(rng.integers(4, 129))
            h = float(rng.uniform(0.1, 1.5))
            s = int(rng.integers(1, m))
            u = random_field(rng, m)
            assert np.allclose(op(np.roll(u, s), h), np.roll(op(u, h), s),
                               rtol=0, atol=1e-12 * max(1.0, 4 / h ** 2))


def test_skew_advection_translation_equivariance(rng):
    for _ in range(50):
        m = int(rng.integers(4, 129))
        h = float(rng.uniform(0.1, 1.5))
        s = int(rng.integers(1, m))
        a, b = random_field(rng, m), random_field(rng, m)
        assert np.allclose(skew_advection(np.roll(a, s), np.roll(b, s), h),
                           np.roll(skew_advection(a, b, h), s), atol=1e-12 / h)


# -- fourth-order operator accuracy --------------------------------------------

def test_compact_operator_fourth_order():
    from conftest import compact_operator_errors
    errs = [compact_operator_errors(m) for m in (32, 64, 128)]
    for j in range(3):
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse[j] / fine[j]
            assert 12.0 <= ratio <= 20.0, f"component {j}: ratio {ratio}"
