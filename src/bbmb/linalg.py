"""Direct solvers for the periodic step systems.

The time stepper produces one cyclic block-tridiagonal system per step
(2x2 blocks coupling the two unknowns at each node, with wrap-around
corner blocks).  The stepper assembles it straight into one (2, 7, M)
array, node index last, which is the layout the solver, the residual
helpers and the norm work in; no step converts it.  It is solved in
O(M) by periodic block cyclic reduction: each level eliminates the
odd-indexed blocks and halves the system, with all 2x2 block arithmetic
vectorized over the nodes, until a small periodic system is left for
one dense LU solve.  A scalar variant handles the constant-coefficient
relation between a field and its curvature, and a dense LU oracle backs
both in the tests.

The 2x2 pivots are not row-pivoted.  Eliminating v through the compact
row leaves rate*I + (mu*rate + nu/2)*A^-1 P + K + diag(F''(u))/2 on u,
where A = tridiag(1/12, 5/6, 1/12) and P = -delta^2 are commuting
symmetric circulants (so A^-1 P >= 0) and K is skew.  For
mu*rate + nu/2 >= 0 its symmetric part is >= (rate + min F''/2)*I, so
positive definite in the paper's regime (nu >= 0, rate + min F''/2 > 0),
and a property test holds the unrefined solve to its budget there; this
bounds the eliminated operator, not each reduction level's pivots.  For
mu*rate + nu/2 < 0 it is indefinite at high wavenumbers, where A^-1 P
reaches 6/h^2: a solve can then miss its budget, which the stepper
repairs with one refinement step, or meet a singular pivot.

A CyclicReductionSolver is built for one M and owns the buffers of
every reduction level, with the views of them that each level reads and
writes; the stepper keeps one per case, so a step's solve allocates
nothing but the (2, M) solution it returns, or writes it into a given
array.  The views of the input system are taken when its array first
arrives and kept while the same array comes back, as the stepper's
per-case view of its step buffer does at every step.
solve_cyclic_block_tridiagonal without a solver builds one for the call.

Cases marched in lockstep share one (2, 7, sum of M) array, their
systems end to end: segments() gives each case's system as a view, and
block_matvec applies all of them at once through a stencil index that
wraps inside each case.

The scalar solver runs once per case and keeps its elimination loops
on plain Python floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSystemError",
    "ScalarCyclicTriSystem",
    "CyclicBlockTriSystem",
    "solve_scalar_cyclic",
    "CyclicReductionSolver",
    "solve_cyclic_block_tridiagonal",
    "solve_dense_oracle",
    "scalar_system_matrix",
    "block_system_matrix",
    "block_matvec",
    "block_row_sum_norm",
]

DENSE_ORACLE_MAX_N = 4096

# Cyclic reduction stops once this many blocks remain; the rest is one
# dense LU solve of a 2n x 2n matrix.
REDUCTION_BASE = 32

# Pivot floor: a 2x2 determinant (or scalar pivot) is declared singular
# below 1e-14 of the natural scale of the system's coefficients.
PIVOT_RTOL = 1e-14


class SingularSystemError(Exception):
    """Raised when elimination hits a pivot or capacitance matrix that is
    numerically singular relative to the system's coefficient scale, or
    when a dense LU solve meets an exactly singular matrix."""


@dataclass
class ScalarCyclicTriSystem:
    """Cyclic tridiagonal system: row i reads
    sub[i]*x[i-1] + diag[i]*x[i] + sup[i]*x[i+1] = rhs[i]  (indices mod M).

    sub[0] and sup[M-1] are the periodic corner entries.  Diagonal
    dominance is not assumed.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = np.shape(self.diag)[0]
        if m < 4:
            raise ValueError(f"need M >= 4 rows, got {m}")
        for name in ("sub", "diag", "sup", "rhs"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (m,):
                raise ValueError(f"{name} has shape {a.shape}, expected ({m},)")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, a)

    @property
    def m(self) -> int:
        return self.diag.shape[0]


class CyclicBlockTriSystem:
    """Cyclic block-tridiagonal system with 2x2 blocks: block row i reads
    sub[i] @ x[i-1] + diag[i] @ x[i] + sup[i] @ x[i+1] = rhs[i]  (mod M),
    with x[i] a 2-vector.  sub[0] and sup[M-1] are the corner blocks.

    The system is held in one array, coeffs, of shape (2, 7, M) with the
    node index last: coeffs[r, 0:2, i] is row r of sub[i], 2:4 of
    diag[i], 4:6 of sup[i], and coeffs[r, 6, i] is rhs[i][r].  This is
    the layout the solver works in.  sub, diag and sup are (M, 2, 2)
    views of it and rhs an (M, 2) view.  The keyword constructor packs
    the four block arrays; packed() adopts an assembled array as is.
    """

    def __init__(self, *, sub, diag, sup, rhs):
        m = np.shape(diag)[0]
        coeffs = np.empty((2, 7, m))
        for name, value, cols in (("sub", sub, slice(0, 2)), ("diag", diag, slice(2, 4)),
                                  ("sup", sup, slice(4, 6)), ("rhs", rhs, 6)):
            a = np.asarray(value, dtype=float)
            shape = (m, 2) if name == "rhs" else (m, 2, 2)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            coeffs[:, cols] = np.moveaxis(a, 0, -1)
        self.coeffs = _checked_coeffs(coeffs)

    @classmethod
    def packed(cls, coeffs) -> "CyclicBlockTriSystem":
        """A system holding the given (2, 7, M) array, checked and not copied."""
        system = cls.__new__(cls)
        system.coeffs = _checked_coeffs(coeffs)
        return system

    @property
    def m(self) -> int:
        return self.coeffs.shape[2]

    def segments(self, bounds) -> list:
        """The systems of block rows start:stop for each (start, stop)
        in the tuple bounds, each holding a view of coeffs whose entries
        were checked with this system (the system itself for the one
        segment of all rows).  Each is a cyclic system of its own: its
        corner blocks couple its first and last rows."""
        if bounds == ((0, self.m),):
            return [self]
        segments = []
        for start, stop in bounds:
            system = type(self).__new__(type(self))
            system.coeffs = self.coeffs[:, :, start:stop]
            segments.append(system)
        return segments

    @property
    def sub(self) -> np.ndarray:
        return np.moveaxis(self.coeffs[:, 0:2], -1, 0)

    @property
    def diag(self) -> np.ndarray:
        return np.moveaxis(self.coeffs[:, 2:4], -1, 0)

    @property
    def sup(self) -> np.ndarray:
        return np.moveaxis(self.coeffs[:, 4:6], -1, 0)

    @property
    def rhs(self) -> np.ndarray:
        return self.coeffs[:, 6].T

    @rhs.setter
    def rhs(self, value):
        a = np.asarray(value, dtype=float)
        if a.shape != (self.m, 2):
            raise ValueError(f"rhs has shape {a.shape}, expected {(self.m, 2)}")
        if not np.isfinite(a).all():
            raise ValueError("rhs contains non-finite values")
        self.coeffs[:, 6] = a.T


def _checked_coeffs(coeffs) -> np.ndarray:
    """coeffs as a float (2, 7, M) array with M >= 4 and finite entries."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 3 or c.shape[:2] != (2, 7):
        raise ValueError(f"coeffs has shape {c.shape}, expected (2, 7, M)")
    if c.shape[2] < 4:
        raise ValueError(f"need M >= 4 block rows, got {c.shape[2]}")
    if not np.isfinite(c).all():
        raise ValueError("block system contains non-finite values")
    return c


def solve_scalar_cyclic(system: ScalarCyclicTriSystem) -> np.ndarray:
    """Solve a cyclic tridiagonal system in O(M).

    Thomas elimination on the acyclic core; the two corner entries are
    peeled off as a rank-2 update and restored with a Sherman-Morrison-
    Woodbury correction (2x2 capacitance matrix).
    """
    m = system.m
    sub = system.sub.tolist()
    diag = system.diag.tolist()
    sup = system.sup.tolist()

    scale = max(float(np.max(np.abs(system.sub))),
                float(np.max(np.abs(system.diag))),
                float(np.max(np.abs(system.sup))))
    floor = PIVOT_RTOL * scale
    ca = sub[0]        # corner entry at (0, M-1)
    cb = sup[m - 1]    # corner entry at (M-1, 0)

    # Columns: actual rhs, then the two Woodbury columns ca*e_0, cb*e_{M-1}.
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

    # Capacitance C = I2 + [[z1[M-1], z2[M-1]], [z1[0], z2[0]]]
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


# The block solver works on CyclicBlockTriSystem.coeffs and on one array
# of the same (2, 7, n) layout per reduction level, node index last, so
# each elementwise op runs over all n blocks: columns 0:2 hold sub[i],
# 2:4 diag[i], 4:6 sup[i] and 6 rhs[i].
_BMUL = "ikn,kjn->ijn"  # per-node 2x2 product of (2, 2, n) and (2, j, n)
_BVEC = "ikn,kn->in"    # per-node 2x2 block times 2-vector
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
# Stand-in factors [Pa|Pc|g] for a neighbour that _reduce keeps: Pa = -I
# (left) or Pc = -I (right), g = 0, so its coupling block passes unchanged.
_KEEP_LEFT, _KEEP_RIGHT = np.zeros((2, 2, 5, 1))
_KEEP_LEFT[:, 0:2, 0] = _KEEP_RIGHT[:, 2:4, 0] = -np.eye(2)


def _views(flat: np.ndarray, *shapes) -> list:
    """Consecutive C-contiguous views of flat with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class _Level:
    """Buffers of one reduction level of n blocks, k = n // 2 of them odd,
    and the views of them that every solve reuses.

    The odd blocks' factors p, the reduced system and (below the top
    level) the level's solution x are its own; the other buffers are
    views of scratch that every level reuses while it reduces or
    back-substitutes.  bind() takes the views of the level's input
    system and bind_solution() those of the solution of its reduced
    system.  Both arrays are the neighbouring levels' own buffers,
    bound once, except the top level's input, the system being solved,
    which the solver binds again when a different array arrives.
    """

    def __init__(self, n: int, k: int, scratch: np.ndarray, top: bool):
        m = n - k
        self.n, self.k = n, k
        p = self.p = np.empty((2, 5, k))
        r = self.reduced = np.empty((2, 7, m))
        self.x = None if top else np.empty((2, n))
        (self.det, self.tmp, self.adj, self.cols, self.left, self.right, self.ap,
         self.cp) = _views(scratch, (k,), (k,), (2, 2, k), (2, 5, k), (2, 5, m),
                           (2, 5, m), (2, 5, m), (2, 5, m))
        if n % 2 == 0:
            # no block is kept: the right neighbours are p, the left ones
            # p shifted one block right, copied in two slices
            self.right = p
            self.shift_left = ((self.left[..., :1], p[..., -1:]),
                               (self.left[..., 1:], p[..., :-1]))
        self.x_next, self.vec = _views(scratch, (2, m), (2, k))
        self.pa, self.pc, self.pg = p[:, 0:2], p[:, 2:4], p[:, 4]
        ap, cp = self.ap, self.cp
        self.ap_a, self.ap_d, self.ap_g = ap[:, 0:2], ap[:, 2:4], ap[:, 4:]
        self.cp_a, self.cp_d, self.cp_g = cp[:, 0:2], cp[:, 2:4], cp[:, 4:]
        self.r_a, self.r_d, self.r_c, self.r_g = r[:, 0:2], r[:, 2:4], r[:, 4:6], r[:, 6:]
        if self.x is not None:
            self.x_even, self.x_odd = self.x[:, 0::2], self.x[:, 1::2]

    def bind(self, s: np.ndarray):
        """Take the views of s, the (2, 7, n) system this level reduces."""
        odd, even = s[..., 1::2], s[..., 0::2]
        piv = odd[:, 2:4]
        self.piv = (piv[0, 0], piv[1, 1], piv[0, 1], piv[1, 0])
        self.piv_swapped = piv[::-1, ::-1].swapaxes(0, 1)
        self.odd_cols = (odd[:, 0:2], odd[:, 4:])
        self.even_a, self.even_d, self.even_c, self.even_g = (
            even[:, 0:2], even[:, 2:4], even[:, 4:6], even[:, 6:])

    def bind_solution(self, x: np.ndarray):
        """Take the views of x, the (2, n - k) solution of the reduced
        system, which back-substitution reads."""
        k = self.k
        self.x_in, self.x_left = x, x[:, :k]
        # odd block j sits between even blocks j and j + 1 (mod n - k):
        # with a kept last block no index wraps, else the last one does
        if x.shape[1] > k:
            self.shift_right = ()
            self.x_right = x[:, 1:k + 1]
        else:
            self.shift_right = ((self.x_next[:, :k - 1], x[:, 1:]),
                                (self.x_next[:, k - 1:], x[:, :1]))
            self.x_right = self.x_next

    def reduce(self, floor: float):
        """Eliminate the odd-indexed blocks of the bound system.

        Each odd block j is solved for x[j] = g - Pa @ x[j-1] - Pc @ x[j+1]
        and substituted into its even neighbours, which leaves a periodic
        system in the even blocks alone.  With an odd block count the
        last block is even too, and it and block 0 keep their direct
        coupling.  Fills p with the factors [Pa|Pc|g] and reduced with
        the reduced system.
        """
        p00, p11, p01, p10 = self.piv
        det = np.multiply(p00, p11, out=self.det)
        det -= np.multiply(p01, p10, out=self.tmp)
        smallest = float(np.abs(det, out=self.tmp).min())
        if smallest <= floor:
            raise SingularSystemError(f"singular 2x2 pivot (|det|={smallest} <= {floor})")
        adj = np.multiply(self.piv_swapped, _ADJ_SIGN, out=self.adj)
        cols = np.concatenate(self.odd_cols, axis=1, out=self.cols)
        p = np.einsum(_BMUL, adj, cols, out=self.p)
        p /= det
        if self.n % 2:
            np.concatenate((_KEEP_LEFT, p), axis=-1, out=self.left)
            np.concatenate((p, _KEEP_RIGHT), axis=-1, out=self.right)
        else:
            for dst, src in self.shift_left:
                dst[...] = src
        np.einsum(_BMUL, self.even_a, self.left, out=self.ap)
        np.einsum(_BMUL, self.even_c, self.right, out=self.cp)
        np.negative(self.ap_a, out=self.r_a)
        np.subtract(self.even_d, self.ap_d, out=self.r_d)
        np.subtract(self.r_d, self.cp_a, out=self.r_d)
        np.negative(self.cp_d, out=self.r_c)
        np.subtract(self.even_g, self.ap_g, out=self.r_g)
        np.subtract(self.r_g, self.cp_g, out=self.r_g)

    def substitute(self, x_even: np.ndarray, x_odd: np.ndarray):
        """Recover the level's solution from the bound solution of its
        reduced system: the even blocks into x_even, the odd ones into
        x_odd."""
        for dst, src in self.shift_right:
            dst[...] = src
        x_even[...] = self.x_in
        np.subtract(self.pg, np.einsum(_BVEC, self.pa, self.x_left, out=self.vec),
                    out=x_odd)
        x_odd -= np.einsum(_BVEC, self.pc, self.x_right, out=self.vec)


class CyclicReductionSolver:
    """Periodic block cyclic reduction for systems of m block rows, with
    every level's buffers allocated once, when the solver is built.
    solve() overwrites them, so a solver serves one solve at a time.

    The views of the input system that the reduction reads are taken
    when a system's array first arrives and reused while the same array
    comes back, as a step workspace's system does at every step; any
    other array is bound anew.
    """

    def __init__(self, m: int):
        if m < 4:
            raise ValueError(f"need M >= 4 block rows, got {m}")
        self.m = m
        sizes, n = [], m
        while n > REDUCTION_BASE:
            sizes.append((n, n // 2))
            n -= n // 2
        # scratch for level 0's reduce buffers, the most any level uses
        scratch = np.empty(16 * (m // 2) + 40 * (m - m // 2))
        self._levels = levels = [_Level(n, k, scratch, top=i == 0)
                                 for i, (n, k) in enumerate(sizes)]
        self._base = np.zeros((2 * n, 2 * n))  # the base solve's dense matrix
        self._scatter = _block_scatter(n)
        # the base solve's solution, which the deepest level reads
        self._x_base = np.empty((2, n))
        for level, below in zip(levels, levels[1:]):
            below.bind(level.reduced)
            level.bind_solution(below.x)
        if levels:
            levels[-1].bind_solution(self._x_base)
            self._bind_base(levels[-1].reduced)
        self._input = None

    def _bind_base(self, s: np.ndarray):
        """Take the views of s, the (2, 7, n) system of the base solve."""
        b = s.transpose(2, 0, 1)
        self._base_blocks, self._base_rhs = b[..., :6], b[..., 6]

    def _bind(self, s: np.ndarray):
        """Take the views of the input system's (2, 7, m) array s."""
        if s.shape[2] != self.m:
            raise ValueError(f"solver built for M = {self.m}, system has M = {s.shape[2]}")
        self._blocks = s[:, :6]
        if self._levels:
            self._levels[0].bind(s)
        else:
            self._bind_base(s)
        self._input = s

    def solve(self, system: CyclicBlockTriSystem, out=None) -> np.ndarray:
        """Solve system in O(M); returns (M, 2), the transpose of a (2, M)
        array whose rows are the two unknowns: out if given, else a
        fresh one."""
        if system.coeffs is not self._input:
            self._bind(system.coeffs)
        if out is None:
            out = np.empty((2, self.m))
        blocks = self._blocks
        scale = max(float(blocks.max()), -float(blocks.min()))  # max |entry|
        floor = PIVOT_RTOL * scale * scale  # determinant scale is entries squared
        for level in self._levels:
            level.reduce(floor)

        index, zeros = self._scatter
        self._base.put(index, self._base_blocks + zeros)
        try:
            x = np.linalg.solve(self._base, self._base_rhs.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        x = x.reshape(-1, 2).T
        if not self._levels:
            out[...] = x
            return out.T
        self._x_base[...] = x
        levels = self._levels
        for level in reversed(levels[1:]):
            level.substitute(level.x_even, level.x_odd)
        levels[0].substitute(out[:, 0::2], out[:, 1::2])
        return out.T


def solve_cyclic_block_tridiagonal(system: CyclicBlockTriSystem,
                                   solver: CyclicReductionSolver | None = None,
                                   out=None) -> np.ndarray:
    """Solve a cyclic block-tridiagonal system in O(M); returns (M, 2),
    the transpose of a (2, M) array whose rows are the two unknowns
    (out, if given).

    Periodic block cyclic reduction (Buzbee, Golub & Nielson 1970;
    Heller 1976): each level eliminates the odd-indexed blocks and
    halves the system.  Once REDUCTION_BASE or fewer blocks remain, the
    periodic system is solved densely by LU with partial pivoting, and
    the eliminated blocks are recovered level by level.  The 2x2 pivots
    are not row-pivoted; each must clear PIVOT_RTOL of the squared
    coefficient scale.  solver, built for the system's M, supplies the
    level buffers; without one, a solver is built for this call.
    """
    if solver is None:
        solver = CyclicReductionSolver(system.m)
    return solver.solve(system, out)


def solve_dense_oracle(matrix, rhs) -> np.ndarray:
    """Dense LU solve with partial pivoting; a test oracle."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("matrix or rhs contains non-finite values")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


# -- dense assembly and residual helpers (tests, diagnostics) ----------------

def scalar_system_matrix(system: ScalarCyclicTriSystem) -> np.ndarray:
    """Assemble the full M x M matrix of a scalar cyclic system."""
    m = system.m
    a = np.zeros((m, m))
    idx = np.arange(m)
    a[idx, idx] = system.diag
    a[idx, (idx - 1) % m] += system.sub
    a[idx, (idx + 1) % m] += system.sup
    return a


@functools.lru_cache(maxsize=None)
def _block_scatter(n: int) -> tuple:
    """The flat indices, in the 2n x 2n matrix of an n-row cyclic block
    system, of its (n, 2, 6) blocks [sub | diag | sup], and the signed
    zeros added to the blocks: +0.0 on the corner blocks, which are
    wrap-around terms added to a zero (a -0.0 becomes +0.0), and -0.0
    elsewhere, which leaves every bit as it is."""
    i, p, j = np.ix_(np.arange(n), np.arange(2), np.arange(6))
    col = 2 * ((i + j // 2 - 1) % n) + j % 2
    zeros = np.full((n, 2, 6), -0.0)
    zeros[0, :, 0:2] = zeros[-1, :, 4:6] = 0.0
    return (2 * i + p) * (2 * n) + col, zeros


def _dense_block_matrix(blocks, out) -> np.ndarray:
    """Write the (n, 2, 6) blocks [sub | diag | sup] of a cyclic block
    system (n >= 3) into out, a zeroed 2n x 2n matrix (interleaved
    unknowns u_0, v_0, u_1, v_1, ...), in one scatter; returns out.  The
    scatter writes the same entries for every system of n rows, so out
    can be reused for the next."""
    index, zeros = _block_scatter(blocks.shape[0])
    out.put(index, blocks + zeros)
    return out


def block_system_matrix(system: CyclicBlockTriSystem) -> np.ndarray:
    """Assemble the full 2M x 2M matrix of a block cyclic system
    (unknown ordering interleaved: u_0, v_0, u_1, v_1, ...)."""
    m = system.m
    return _dense_block_matrix(system.coeffs[:, :6].transpose(2, 0, 1),
                               np.zeros((2 * m, 2 * m)))


def block_matvec(system: CyclicBlockTriSystem, x: np.ndarray, stencil=None,
                 near=None, out=None) -> np.ndarray:
    """Apply the block cyclic matrix to x of shape (M, 2); returns (M, 2).

    stencil, if given, is a (3M,) index array: each row's left
    neighbour, the row itself, then its right neighbour.  A Batch's
    stencil applies the systems of all its cases at once, each wrapping
    inside its own rows; without one, the rows wrap as one system.
    near, a (2, 3M) array, receives those neighbour values, and out, a
    (2, M) array, the product, whose transpose is returned; each is
    allocated if not given.
    """
    xt = np.asarray(x).T
    m = system.m
    # x[i-1], x[i] and x[i+1] for every node i, side by side: (2, 3M)
    if stencil is None:
        near = np.concatenate((xt[:, -1:], xt[:, :-1], xt, xt[:, 1:], xt[:, :1]), axis=1,
                              out=near)
    else:
        near = np.take(xt, stencil, axis=1, out=near, mode="clip")
    return np.einsum("rbjn,jbn->rn", system.coeffs[:, :6].reshape(2, 3, 2, m),
                     near.reshape(2, 3, m), out=out).T


def block_row_sum_norm(system: CyclicBlockTriSystem, reduce=np.max):
    """Infinity norm of the assembled matrix (max absolute row sum).

    reduce takes the (2, M) absolute row sums; Batch.case_max gives the
    norm of each case of a batch's system.
    """
    return reduce(np.abs(system.coeffs[:, :6]).sum(axis=1))
