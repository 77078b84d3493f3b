"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bbmb.config import parse_config_text, preset_callbacks
from bbmb.grid import Grid1D
from bbmb.scheme import SchemeParams, compact_curvature, march


def pytest_report_header(config):
    """numpy's version and the SIMD extensions it dispatches to here: the
    goldens were recorded with AVX-512 kernels, and a narrower dispatch
    moves some of their last digits."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath

    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return (f"numpy {np.__version__}: SIMD baseline {' '.join(umath.__cpu_baseline__)}, "
            f"dispatched {' '.join(found) or 'none'}")


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
    """example1's coefficients and source, as the parser builds them."""
    return parse_config_text("experiment = example1\nT = 1\nM = 8\nN = 10\n").params


def example2_params(mu=1.0, nu=1.0):
    return SchemeParams(mu=mu, gamma=1.0, kappa=1.0, nu=nu)


def example3_params():
    p = preset_callbacks("example3")
    return SchemeParams(mu=1.0, gamma=1.0, kappa=1.0, nu=1.0,
                        reaction=p["reaction"])


def _preset_grid(name, m, n, T):
    """A grid on the domain of the bundled experiment name."""
    p = preset_callbacks(name)
    return Grid1D(L=p["x_right"] - p["x_left"], M=m, T=T, N=n, x_left=p["x_left"])


def example1_grid(m, n):
    return _preset_grid("example1", m, n, 1.0)


def example2_grid(m, n, T=1.0):
    return _preset_grid("example2", m, n, T)


def example3_grid(m, n, T=1.0):
    return _preset_grid("example3", m, n, T)


# the presets' own callbacks, so that the tests check what the CLI runs
example1_exact = preset_callbacks("example1")["exact"]
example2_phi = preset_callbacks("example2")["phi"]
example3_phi = preset_callbacks("example3")["phi"]


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
