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

A CyclicReductionSolver is built for one system.  It takes the views
of that system and of every level once, when it is built, and each
solve reads the system's array as it is then, so a caller that
rewrites the array in place solves the new system with the same
solver.  It owns each level's odd-block factors, which back
substitution reads, and the dense base; every other buffer is a view
of one flat scratch array (scratch_size).  A level reduces in the
scratch's first floats, folding its left neighbours' product into the
reduced system before it forms the right neighbours', in buffers that
reuse those its odd-block factors were formed in.  Its reduced system
follows them, below its input, the level above's reduced system, and
later holds its own solution.  The solver allocates that scratch
unless its owner hands it one, as the stepper's workspace does, so
that every case's solver, the assembly and the residual gate share one
array; a solve writes the scratch before it reads it, and nothing it
leaves there is read by a later solve.  The stepper keeps one solver
per case, built for the case's view of its step buffer, so a step's
solve allocates nothing but the (2, M) solution it returns, or writes
it into a given array.  solve_cyclic_block_tridiagonal without a
solver builds one for the call.

Cases marched in lockstep share one (2, 7, sum of M) array, their
systems end to end: each case's system is packed() on its slice of the
node axis, and block_matvec applies all of them at once through a
stencil index that wraps inside each case.

The scalar solver runs once per case and keeps its elimination loops
on plain Python floats.  It sweeps the rows forward, then backward, in
chunks of SWEEP_CHUNK rows, so only one chunk's coefficients and
columns are Python floats at a time; its three columns and its pivots
are rows of one (4, M) array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DENSE_ORACLE_MAX_N = 4096

# Cyclic reduction stops once this many blocks remain; the rest is one
# dense LU solve of a 2n x 2n matrix.
REDUCTION_BASE = 32

# The scalar solver sweeps its rows in chunks of this many, so only one
# chunk's coefficients and columns are Python floats at a time.
SWEEP_CHUNK = 512

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
    Woodbury correction (2x2 capacitance matrix).  Both sweeps run over
    chunks of SWEEP_CHUNK rows.
    """
    m = system.m
    scale = max(float(np.max(np.abs(system.sub))),
                float(np.max(np.abs(system.diag))),
                float(np.max(np.abs(system.sup))))
    floor = PIVOT_RTOL * scale

    # Rows: the actual rhs, the two Woodbury columns ca*e_0 and
    # cb*e_{M-1} (ca = sub[0] is the corner entry at (0, M-1), cb =
    # sup[M-1] the one at (M-1, 0)), then the pivots' reciprocals.
    cols = np.zeros((4, m))
    cols[0] = system.rhs
    cols[1, 0] = system.sub[0]
    cols[2, m - 1] = system.sup[m - 1]

    p = float(system.diag[0])
    if abs(p) <= floor:
        raise SingularSystemError(f"zero pivot in row 0 (|{p}| <= {floor})")
    cols[3, 0] = 1.0 / p
    # Each chunk's lists start one row before it, at the row it carries on
    # from, so index i below is row lo + i.
    for lo in range(0, m - 1, SWEEP_CHUNK):
        hi = min(lo + SWEEP_CHUNK, m - 1)
        sub = system.sub[lo:hi + 1].tolist()
        diag = system.diag[lo:hi + 1].tolist()
        sup = system.sup[lo:hi].tolist()
        b0, b1, b2, piv = cols[:, lo:hi + 1].tolist()
        for i in range(1, hi - lo + 1):
            w = sub[i] * piv[i - 1]
            p = diag[i] - w * sup[i - 1]
            if abs(p) <= floor:
                raise SingularSystemError(f"zero pivot in row {lo + i} (|{p}| <= {floor})")
            piv[i] = 1.0 / p
            b0[i] -= w * b0[i - 1]
            b1[i] -= w * b1[i - 1]
        cols[:, lo:hi + 1] = b0, b1, b2, piv
    # the cb column is +0.0 above row M-1 (0.0 - w*0.0 with w finite), so
    # only its last row is swept, which may flip a -0.0 corner's sign
    cols[2, m - 1] -= w * 0.0

    cols[:3, m - 1] *= cols[3, m - 1]
    # Each chunk's lists end one row after it, at the row it carries on from.
    for hi in range(m - 1, 0, -SWEEP_CHUNK):
        lo = max(hi - SWEEP_CHUNK, 0)
        sup = system.sup[lo:hi].tolist()
        b0, b1, b2, piv = cols[:, lo:hi + 1].tolist()
        for i in range(hi - lo - 1, -1, -1):
            s = sup[i]
            q = piv[i]
            b0[i] = (b0[i] - s * b0[i + 1]) * q
            b1[i] = (b1[i] - s * b1[i + 1]) * q
            b2[i] = (b2[i] - s * b2[i + 1]) * q
        cols[:3, lo:hi + 1] = b0, b1, b2

    # Capacitance C = I2 + [[z1[M-1], z2[M-1]], [z1[0], z2[0]]]
    b0, b1, b2 = cols[:3, [0, -1]].tolist()
    c11 = 1.0 + b1[-1]
    c12 = b2[-1]
    c21 = b1[0]
    c22 = 1.0 + b2[0]
    det = c11 * c22 - c12 * c21
    if abs(det) <= PIVOT_RTOL * max(1.0, abs(c11), abs(c12), abs(c21), abs(c22)) ** 2:
        raise SingularSystemError("singular Woodbury capacitance matrix")
    g1 = b0[-1]
    g2 = b0[0]
    w1 = (c22 * g1 - c12 * g2) / det
    w2 = (c11 * g2 - c21 * g1) / det

    return cols[0] - w1 * cols[1] - w2 * cols[2]


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
    """Buffers of one reduction level of the (2, 7, n) system s, k = n // 2
    of its blocks odd, and the views of them and of s that every solve
    reuses, all taken when the level is built.

    The odd blocks' factors p are its own; every other buffer is a view
    of scratch (see the module docstring).  det, tmp, adj and cols come
    first, and shift and prod reuse them from 2k on, as they are dead
    once p is formed.  The reduced system follows prod and ends by
    18n + 16 floats, below its input, which below the top level starts
    at 20n or above (n > 16).  Its first 2(n - k) floats hold its
    solution, x_in, once the base solve has read the last reduced
    system, as every reduced system is dead by then.  x, the level's own
    solution (None at the top), is the level above's x_in.  s is the
    system being solved at the top level, else the reduced system of
    the level above.
    """

    def __init__(self, s: np.ndarray, scratch: np.ndarray, x: np.ndarray | None):
        n = s.shape[2]
        k = n // 2
        m = n - k
        self.n = n
        p = self.p = np.empty((2, 5, k))
        self.det, self.tmp, self.adj, self.cols = _views(scratch, (k,), (k,), (2, 2, k),
                                                         (2, 5, k))
        shift, prod, r = self.shift, self.prod, self.reduced = _views(
            scratch[2 * k:], (2, 5, m), (2, 5, m), (2, 7, m))
        x_in = self.x_in = r.reshape(-1)[:2 * m].reshape(2, m)
        # the reduced system lies below its input and x_in apart from x
        assert not np.may_share_memory(r, s)
        assert x is None or not np.may_share_memory(x_in, x)
        # a kept last block's stand-in factors join p in shift, on the left
        # and then on the right
        self.right = shift if n % 2 else p
        if n % 2 == 0:
            # no block is kept: the left neighbours are p shifted one block
            # right, copied into shift in two slices
            self.shift_left = ((shift[..., :1], p[..., -1:]), (shift[..., 1:], p[..., :-1]))
        x_next, self.vec = _views(scratch, (2, m), (2, k))
        self.pa, self.pc, self.pg = p[:, 0:2], p[:, 2:4], p[:, 4]
        self.prod_a, self.prod_d, self.prod_g = prod[:, 0:2], prod[:, 2:4], prod[:, 4:]
        self.r_a, self.r_d, self.r_c, self.r_g = r[:, 0:2], r[:, 2:4], r[:, 4:6], r[:, 6:]
        if x is not None:
            self.x_even, self.x_odd = x[:, 0::2], x[:, 1::2]
        # the views of s that reduce() reads
        odd, even = s[..., 1::2], s[..., 0::2]
        piv = odd[:, 2:4]
        self.piv = (piv[0, 0], piv[1, 1], piv[0, 1], piv[1, 0])
        self.piv_swapped = piv[::-1, ::-1].swapaxes(0, 1)
        self.odd_cols = (odd[:, 0:2], odd[:, 4:])
        self.even_a, self.even_d, self.even_c, self.even_g = (
            even[:, 0:2], even[:, 2:4], even[:, 4:6], even[:, 6:])
        # the views of x_in that substitute() reads: odd block j sits
        # between even blocks j and j + 1 (mod m); with a kept last block
        # no index wraps, else the last one does
        self.x_left = x_in[:, :k]
        if m > k:
            self.shift_right = ()
            self.x_right = x_in[:, 1:k + 1]
        else:
            self.shift_right = ((x_next[:, :k - 1], x_in[:, 1:]),
                                (x_next[:, k - 1:], x_in[:, :1]))
            self.x_right = x_next

    def reduce(self, floor: float):
        """Eliminate the odd-indexed blocks of the level's system.

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
        # the left neighbours' factors into shift and their product into
        # prod, folded in; then the right neighbours', in the same buffers
        if self.n % 2:
            np.concatenate((_KEEP_LEFT, p), axis=-1, out=self.shift)
        else:
            for dst, src in self.shift_left:
                dst[...] = src
        np.einsum(_BMUL, self.even_a, self.shift, out=self.prod)
        np.negative(self.prod_a, out=self.r_a)
        np.subtract(self.even_d, self.prod_d, out=self.r_d)
        np.subtract(self.even_g, self.prod_g, out=self.r_g)
        if self.n % 2:
            np.concatenate((p, _KEEP_RIGHT), axis=-1, out=self.shift)
        np.einsum(_BMUL, self.even_c, self.right, out=self.prod)
        np.subtract(self.r_d, self.prod_a, out=self.r_d)
        np.negative(self.prod_d, out=self.r_c)
        np.subtract(self.r_g, self.prod_g, out=self.r_g)

    def substitute(self, x_even: np.ndarray, x_odd: np.ndarray):
        """Recover the level's solution from x_in, that of its reduced
        system: the even blocks into x_even, the odd ones into x_odd."""
        for dst, src in self.shift_right:
            dst[...] = src
        x_even[...] = self.x_in
        np.subtract(self.pg, np.einsum(_BVEC, self.pa, self.x_left, out=self.vec),
                    out=x_odd)
        x_odd -= np.einsum(_BVEC, self.pc, self.x_right, out=self.vec)


class CyclicReductionSolver:
    """Periodic block cyclic reduction for one CyclicBlockTriSystem, with
    every level's buffers placed and every view of the system and of the
    levels taken once, when the solver is built.  solve() solves the
    system as its array holds it at the call and overwrites the level
    buffers, so a solver serves one solve at a time.

    scratch, if given, is a flat float array of at least scratch_size(m)
    entries that holds the levels' reduced systems and solutions and
    that they reduce and back-substitute in, and that code running
    before or after a solve may share (see the module docstring);
    without it the solver allocates its own.
    """

    def __init__(self, system: CyclicBlockTriSystem, scratch: np.ndarray | None = None):
        s = self.coeffs = system.coeffs
        self.m = s.shape[2]
        self._blocks = s[:, :6]
        if scratch is None:
            scratch = np.empty(self.scratch_size(self.m))
        # each level reduces the system above it and back-substitutes into
        # the solution the level above reads; the base solves the last
        self._levels = levels = []
        x = None
        while s.shape[2] > REDUCTION_BASE:
            levels.append(_Level(s, scratch, x))
            s, x = levels[-1].reduced, levels[-1].x_in
        n = s.shape[2]
        self._base = np.zeros((2 * n, 2 * n))  # the base solve's dense matrix
        self._scatter = _block_scatter(n)
        b = s.transpose(2, 0, 1)
        self._base_blocks, self._base_rhs = b[..., :6], b[..., 6]
        self._x_base = x  # the base solve's solution, which the deepest level reads

    @staticmethod
    def scratch_size(m: int) -> int:
        """Floats of scratch a solver for m block rows works in: level 0's
        buffers, the most any level uses.  With k = m // 2 odd blocks, det
        and tmp take 2k, then the shift and product buffers 20(m - k) and
        the reduced system 14(m - k)."""
        k = m // 2
        return 2 * k + 34 * (m - k)

    def solve(self, out=None) -> np.ndarray:
        """Solve the system in O(M); returns (M, 2), the transpose of a
        (2, M) array whose rows are the two unknowns: out if given, else
        a fresh one."""
        if out is None:
            out = np.empty((2, self.m))
        levels = self._levels
        if levels:  # only a reduction level checks its pivots against the floor
            blocks = self._blocks
            scale = max(float(blocks.max()), -float(blocks.min()))  # max |entry|
            floor = PIVOT_RTOL * scale * scale  # determinant scale is entries squared
            for level in levels:
                level.reduce(floor)

        index, zeros = self._scatter
        self._base.put(index, self._base_blocks + zeros)
        try:
            x = np.linalg.solve(self._base, self._base_rhs.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        x = x.reshape(-1, 2).T
        if not levels:
            out[...] = x
            return out.T
        self._x_base[...] = x
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
    coefficient scale.  solver, built for this system's array, supplies
    the level buffers; without one, a solver is built for this call.
    """
    if solver is None:
        solver = CyclicReductionSolver(system)
    elif solver.coeffs is not system.coeffs:
        raise ValueError("solver was built for another system's array")
    return solver.solve(out)


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


def block_system_matrix(system: CyclicBlockTriSystem) -> np.ndarray:
    """Assemble the full 2M x 2M matrix of a block cyclic system
    (unknown ordering interleaved: u_0, v_0, u_1, v_1, ...) by one
    scatter of its (M, 2, 6) blocks [sub | diag | sup]."""
    m = system.m
    index, zeros = _block_scatter(m)
    out = np.zeros((2 * m, 2 * m))
    out.put(index, system.coeffs[:, :6].transpose(2, 0, 1) + zeros)
    return out


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

