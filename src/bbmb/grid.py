"""Uniform periodic space-time grid and the discrete spatial operators.

Fields are plain 1-D float arrays of length M; node i carries
x_i = x_left + i*h and indices wrap modulo M, never through ghost
nodes: periodic_shift realizes the wrap with two slices and one
concatenate, which takes about a third of np.roll's time on the short
arrays of a time step.  All operators accept stacked inputs of shape
(..., M) and act along the last axis, so whole trajectories can be
processed at once.

A Batch lays the grids of several cases that share one time grid end
to end on one node array, so the cases can be marched in lockstep.  The
operators take its h, one value per node, and its shift, which wraps
inside each case.  A batch of one keeps the grid's float h and
periodic_shift, so it does the arithmetic of the plain grid.

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
    "Batch",
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


class Batch:
    """The grids of cases that share one time grid (N and T), laid end to
    end on one node array of M = sum of the cases' M nodes.

    Case j owns the nodes bounds[j] = (start, stop).  h holds each
    node's grid step and shift(a, offset, out=None) brings each node the
    value offset nodes to its right (offset = +-1), wrapping inside the
    node's own case: one np.take through precomputed indices, into out
    if given.  A batch of one
    keeps the grid's float step as h and uses periodic_shift, so it
    computes what the plain grid would, with no per-node arrays.
    """

    def __init__(self, grids):
        self.grids = tuple(grids)
        if not self.grids:
            raise ValueError("a batch needs at least one grid")
        first = self.grids[0]
        for g in self.grids[1:]:
            if (g.N, g.T) != (first.N, first.T):
                raise ValueError(f"batched grids must share N and T: "
                                 f"{(first.N, first.T)} vs {(g.N, g.T)}")
        self.N, self.T, self.tau = first.N, first.T, first.tau
        if len(self.grids) == 1:
            self.M = first.M
            self.bounds = ((0, first.M),)
            self.h = first.h
            self.shift = periodic_shift
            self.starts = self.stencil = None
            self._x = first.nodes()
            return
        sizes = np.array([g.M for g in self.grids])
        stops = np.cumsum(sizes)
        starts = stops - sizes
        self.M = int(stops[-1])
        self.bounds = tuple(zip(starts.tolist(), stops.tolist()))
        self.h = np.repeat([g.h for g in self.grids], sizes)
        self.shift = self._take
        self.starts = starts
        node = np.arange(self.M)
        right, left = node + 1, node - 1
        right[stops - 1] = starts
        left[starts] = stops - 1
        self._neighbour = {1: right, -1: left}
        # left neighbours, the nodes, right neighbours: block_matvec's order
        self.stencil = np.concatenate((left, node, right))
        self._x = np.concatenate([g.nodes() for g in self.grids])

    @classmethod
    def of(cls, grid) -> "Batch":
        """grid itself if it is a Batch, else the batch of one Grid1D."""
        return grid if isinstance(grid, cls) else cls((grid,))

    def _take(self, a, offset: int, out=None) -> np.ndarray:
        # the indices are in range, so "clip" only spares take the
        # buffered copy that its default mode makes when out is given
        return a.take(self._neighbour[offset], axis=-1, out=out, mode="clip")

    def nodes(self) -> np.ndarray:
        """The cases' node coordinates, end to end (one shared array)."""
        return self._x

    def split(self, a) -> list:
        """Each case's view of a (..., M) array."""
        return [a[..., start:stop] for start, stop in self.bounds]

    def case_max(self, a):
        """Largest entry of each case in a (..., M) array, over the
        leading axes too: one value per case (a scalar for one case)."""
        if self.stencil is None:
            return a.max()
        per_case = np.maximum.reduceat(a, self.starts, axis=-1)
        return per_case.reshape(-1, len(self.grids)).max(axis=0)


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


def second_diff(u, h, shift=periodic_shift) -> np.ndarray:
    """Periodic second difference (u[i+1] - 2*u[i] + u[i-1]) / h**2.

    shift(a, offset) supplies the neighbours (a Batch's wraps inside each
    case); h may then be an array with one value per node."""
    u = np.asarray(u, dtype=float)
    return (shift(u, 1) - 2.0 * u + shift(u, -1)) / (h * h)


def central_diff(u, h, shift=periodic_shift) -> np.ndarray:
    """Periodic centered first difference (u[i+1] - u[i-1]) / (2*h)."""
    u = np.asarray(u, dtype=float)
    return (shift(u, 1) - shift(u, -1)) / (2.0 * h)


def backward_diff(u, h, shift=periodic_shift) -> np.ndarray:
    """Half-node differences: entry i holds (u[i] - u[i-1]) / h.

    These are the slopes on the M cells ending at each node; the H1
    seminorm and the summation-by-parts identity are built from them.
    """
    u = np.asarray(u, dtype=float)
    return (u - shift(u, -1)) / h


def skew_advection(a, b, h, shift=periodic_shift) -> np.ndarray:
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
    ap = shift(a, 1)
    am = shift(a, -1)
    bp = shift(b, 1)
    bm = shift(b, -1)
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
