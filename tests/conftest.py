"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bbmb.config import preset_callbacks
from bbmb.grid import Grid1D
from bbmb.scheme import SchemeParams, compact_curvature, march


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def levels(phi, grid, params):
    """Every level of one run as a list of (t, u) pairs, built on march."""
    return [(st.k * grid.tau, st.u_curr) for st in march(phi, grid, params)]


def below_normal_range(phi, grid):
    """Whether phi's data on grid are nonzero but have max(|u0|, |v0|)
    below the smallest normal float, which init_state fails at step 0."""
    u0 = phi(grid.nodes())
    peak = max(np.abs(u0).max(), np.abs(compact_curvature(u0, grid.h)).max())
    return 0.0 < peak < np.finfo(float).tiny


def example1_params():
    p = preset_callbacks("example1")
    return SchemeParams(mu=p["mu"], gamma=p["gamma"], kappa=p["kappa"],
                        nu=p["nu"], source=p["source"])


def example2_params(mu=1.0, nu=1.0):
    return SchemeParams(mu=mu, gamma=1.0, kappa=1.0, nu=nu)


def example3_params():
    p = preset_callbacks("example3")
    return SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0,
                        reaction=p["reaction"])


def example1_grid(m, n):
    return Grid1D(L=2.0, M=m, T=1.0, N=n)


def example2_grid(m, n, T=1.0):
    return Grid1D(L=50.0, M=m, T=T, N=n, x_left=-25.0)


def example3_grid(m, n, T=1.0):
    return Grid1D(L=100.0, M=m, T=T, N=n, x_left=-50.0)


def example1_exact(x, t):
    return np.exp(t) * np.sin(np.pi * x)


def example2_phi(x):
    return 0.5 / np.cosh(0.25 * x) ** 2


def example3_phi(x):
    return (np.sqrt(6.0) / 3.0) / np.cosh(x / 3.0) ** 2


def compact_operator_errors(m, length=2.0):
    """Max errors of the three compact approximations (product of a field
    with its slope, first derivative, second derivative) on one sine mode."""
    from bbmb.grid import central_diff, second_diff, skew_advection

    g = Grid1D(L=length, M=m, T=1.0, N=2)
    x = g.nodes()
    k = 2.0 * np.pi / length
    f = np.sin(k * x)
    fp = k * np.cos(k * x)
    fpp = -k * k * np.sin(k * x)
    h = g.h
    e_prod = np.max(np.abs(f * fp - (skew_advection(f, f, h)
                                     - 0.5 * h * h * skew_advection(fpp, f, h))))
    e_first = np.max(np.abs(fp - (central_diff(f, h)
                                  - h * h / 6.0 * central_diff(fpp, h))))
    e_second = np.max(np.abs(fpp - (second_diff(f, h)
                                    - h * h / 12.0 * second_diff(fpp, h))))
    return e_prod, e_first, e_second
