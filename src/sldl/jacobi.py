"""Generalized block Jacobi matrices and their determinacy diagnostics.

A block Jacobi matrix is given by Hermitian diagonal blocks A_j and
invertible off-diagonal blocks B_j acting through the three-term
recurrence

    (lu)_j = B_j u_{j+1} + A_j u_j + B*_{j-1} u_{j-1},    j = 1, 2, ...

Delta-interaction lattices map onto such matrices: with spacings
d_k = x_k - x_{k-1}, jumps H_k, and r_{k+1} = sqrt(d_k + d_{k+1}),

    A_k = [H_k + (1/d_k + 1/d_{k+1}) I] / r_{k+1}^2,
    B_k = -I / (r_{k+1} r_{k+2} d_{k+1}),          k = 1, 2, ...

while A_0, B_0 are free boundary blocks (O and -I for a lattice, stored with
the others so reports are reproducible). The determinacy tests here are series
diagnostics: a divergent sum of 1 / ||B_k|| certifies the determinate
(limit point) case; the paired product series checks (codes t7 and cor3)
certify the completely indeterminate (limit circle) case.

Sequence storage: each block or jump sequence is one read-only (K, n, n) array, and the block
formulas and series terms above are array expressions over it. A lattice is one ``Lattice``, its
data checked once (a delta model checks its own and hands them over): one float64 array of
spacings (``matcore.floats``) and one exactly symmetric float64 stack of jumps, which every lattice
form slices as they are (t7's logs and exps are ``matcore.libm`` passes, with the bits of
``math.log`` and ``math.exp``), and one lazily built stack of
the shifted jumps H_k + (1/d_k + 1/d_{k+1}) I that A_k, t7 and cor3 slice. ``JacobiBlocks`` stores
A exactly Hermitian and B as ``as_stack`` gives it, float64 for every lattice. The recurrence
marches with the lazily built stacks B_inv and B_star. Where every B_k read is a scalar b_k I
(every lattice's blocks, and every order-1 stack), a step of a real vector of up to six entries
is one BLAS product A_k u_k and Python arithmetic on the entries (at n = 2 on two unrolled
Python floats, with no list), at order 1 Python products alone; other states and blocks take
three BLAS products into buffers per step. t4 steps a 2n x 2n gram by two matmuls per row.
Where every A_k read is O as well (every ``cancel`` lattice), a march from a finite start is one
running product of b_k factors per parity, and t4's rows are two scalar chains in Python floats.
States take the dtype of blocks and start: float64 when both are real, complex128 otherwise.
Slot k holds A_k and B_k from A_0, B_0; indices k are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    COND_LIMIT,
    FloatRangeError,
    ShapeMismatchError,
    as_stack,
    condition,
    first_nonfinite,
    floats,
    frobenius_norm,
    hermitian,
    inexact,
    libm,
    matrices_from_json,
    matrix_to_json,
    real_symmetric,
    scalars,
)
from .reports import (
    CONVERGES,
    DIVERGES,
    CriterionReport,
    build_report,
    periodic_positive_floor,
)

_LOG_MAX = math.log(np.finfo(float).max)
# the most state entries a scalar-B step takes in Python floats: from about 7 on, their
# arithmetic costs more than the two BLAS products it saves (n = 4 .. 8, 2500 steps)
_SCALAR_STEP_ENTRIES = 6


class NonPositiveSpacingError(ValueError):
    """A lattice spacing is not strictly positive."""


class IndexOutOfRangeError(IndexError):
    """Recurrence index outside the stored block range."""


# ---------------------------------------------------------------------------
# the lattice and its blocks


@dataclass(frozen=True, eq=False)
class Lattice:
    """Spacings d_k = x_k - x_{k-1} and real symmetric jumps H_k of a delta lattice.

    Checked once, on construction: ``d`` becomes one read-only float64 array
    of positive finite spacings (``matcore.floats``), and ``H`` one read-only
    (K, n, n) float64 exactly symmetric stack (``real_symmetric``); the
    lattice criteria and blocks read both as they are.
    """

    d: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        d = floats(self.d)
        if not (d > 0.0).all():  # NaN fails too
            raise NonPositiveSpacingError("spacings must be strictly positive")
        if (d == math.inf).any():
            raise ValueError("spacings must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "H", real_symmetric(self.H, "jump matrices"))

    @classmethod
    def checked(cls, d: np.ndarray, H: np.ndarray) -> Lattice:
        """The Lattice of d and H checked by the caller, a step model's ``_freeze_sigma``, as
        construction checks them: d a new 1-D float64 array of positive finite spacings, made
        read-only, H a read-only exactly symmetric float64 stack."""
        d.flags.writeable = False
        lat = object.__new__(cls)
        lat.__dict__.update(d=d, H=H)  # the frozen fields, set as __post_init__ sets them
        return lat

    @cached_property
    def shifted_jumps(self) -> np.ndarray:
        """Read-only stack of H_k + (1/d_k + 1/d_{k+1}) I, k = 1 .. min(len(H), len(d) - 1).

        Every entry takes + 0.0 (-0.0 reads 0.0, as in a sum with I) and only
        the diagonal the reciprocal sum, so a subnormal spacing gives inf
        diagonal entries, as 1/d does in Python, and no NaN or warning.
        """
        count = max(min(len(self.H), len(self.d) - 1), 0)
        with np.errstate(over="ignore"):
            recip = 1.0 / self.d[:count] + 1.0 / self.d[1:count + 1]
        out = self.H[:count] + 0.0
        for i in range(out.shape[1]):
            out[:, i, i] += recip
        out.flags.writeable = False
        return out


def cancel_jumps(d, n: int = 1) -> np.ndarray:
    """H_k = -(1/d_k + 1/d_{k+1}) I, k = 1 .. len(d) - 1; d is checked as a Lattice's."""
    zero = Lattice(d, np.zeros((max(len(d) - 1, 0), n, n)))
    return as_stack(-zero.shifted_jumps, n)  # rejects inf


def christ_stolz_family(count: int, n: int = 1) -> tuple[tuple[float, ...], np.ndarray]:
    """Harmonic lattice d_k = 1/k with jumps H_k = -(1/d_k + 1/d_{k+1}) I.

    In exact arithmetic the jumps equal -(2k + 1) I. ``cancel_jumps``
    computes them from the stored spacings so that the defining
    cancellation H_k + (1/d_k + 1/d_{k+1}) I = O holds exactly in floats
    as well, which is what every criterion of this family measures.
    """
    if count < 2:
        raise ValueError("need at least two spacings")
    d = tuple(1.0 / k for k in range(1, count + 1))
    return d, cancel_jumps(d, n)


@dataclass(frozen=True, eq=False)
class JacobiBlocks:
    """Blocks A_k, B_k from slot 0, as read-only float64 stacks when every imaginary
    part of both is zero, as complex128 stacks otherwise (a real stack paired with a
    complex one is promoted); A in its exact Hermitian form (``matcore.hermitian``)."""

    n: int
    A: np.ndarray
    B: np.ndarray
    provenance: Lattice | None = None

    def __post_init__(self):
        A, B = hermitian(self.A, "diagonal blocks", self.n), as_stack(self.B, self.n)
        if A.dtype != B.dtype:
            A, B = A.astype(complex), B.astype(complex)
            A.flags.writeable = B.flags.writeable = False
        if not np.all(condition(B) <= COND_LIMIT):
            raise ValueError("off-diagonal blocks must be invertible")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @cached_property
    def B_inv(self) -> np.ndarray:
        """Read-only stack of the inverses B_k^-1, stored like B, built on first use.

        The condition of every B_k was checked on construction. Real stacks of scalars b_k I
        (every order-1 stack is one) take (1.0 / b_k) I: LAPACK's bits, zero signs included.
        """
        b = scalars(self.B) if self.B.dtype == float else None
        inv = np.linalg.inv(self.B) if b is None else (1.0 / b)[:, None, None] * np.eye(self.n)
        inv.flags.writeable = False
        return inv

    @cached_property
    def B_star(self) -> np.ndarray:
        """Read-only stack of the adjoints B*_k (transposed views), stored like B."""
        adj = _adjoint(self.B)
        adj.flags.writeable = False
        return adj

    def _stored(self, lo: int, hi: int) -> slice:
        """Storage slice of the recurrence indices lo .. hi - 1.

        A march from u_lo to u_hi reads B_lo .. B_{hi-1} and A_{lo+1} ..
        A_{hi-1}; IndexOutOfRangeError names the first of them, in march
        order, that is not stored.
        """
        if lo < 0 and lo < hi:
            raise IndexOutOfRangeError(f"B_{lo} not stored")
        first_a, first_b = max(len(self.A), lo + 1), max(len(self.B), lo)
        if min(first_a, first_b) < hi:
            k, name = (first_a, "A") if first_a <= first_b else (first_b, "B")
            raise IndexOutOfRangeError(f"{name}_{k} not stored")
        return slice(lo, hi)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transposes over the trailing two axes; a transposed view for real m."""
    return (m.conj() if m.dtype == complex else m).swapaxes(-1, -2)


def blocks_from_lattice(lat: Lattice) -> JacobiBlocks:
    """Blocks of the lattice correspondence, with ``lat`` as their provenance.

    Needs len(H) >= len(d) - 1; an extra trailing jump is ignored. (A_0, B_0) is (O, -I),
    only stored, never used by the determinacy criteria (another pair enters by blocks JSON
    or the ``JacobiBlocks`` constructor). A block past the float range is a FloatRangeError.
    """
    m = len(lat.d)
    if m < 2:
        raise ValueError("need at least two spacings")
    if len(lat.H) not in (m - 1, m):
        raise ShapeMismatchError(f"need {m - 1} (or {m}) jumps for {m} spacings")
    n = lat.H.shape[1]
    # r_{k+1}^2 = d_k + d_{k+1}; one square root per r_{k+1} r_{k+2} keeps
    # integer-valued products exact (d == 1 gives exactly 2.0). A takes the
    # product with 1 / r^2: the bits of the complex division by r^2 it replaces
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r2 = (lat.d[:-1] + lat.d[1:])[:, None, None]
        A = lat.shifted_jumps[:m - 1] * (1.0 / r2)
        B = -np.eye(n) / (np.sqrt(r2[:-1] * r2[1:]) * lat.d[1:-1, None, None])
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise FloatRangeError("lattice blocks overflow: spacings too small or jumps too large")
    return JacobiBlocks(n, np.concatenate([np.zeros((1, n, n)), A]),
                        np.concatenate([-np.eye(n)[None], B]), lat)


def blocks_from_delta(d, H) -> JacobiBlocks:
    """``blocks_from_lattice`` of the lattice (d, H)."""
    return blocks_from_lattice(Lattice(d, H))


# ---------------------------------------------------------------------------
# recurrence


def _as_vec(v, n: int) -> np.ndarray:
    arr = inexact(v).reshape(-1)
    if arr.size != n:
        raise ShapeMismatchError(f"expected a vector of length {n}")
    return arr


def recurrence_summands(blocks: JacobiBlocks, u: np.ndarray, lo: int, hi: int):
    """(B_j u_{j+1}, A_j u_j, B*_{j-1} u_{j-1}), each stacked over j = lo .. hi - 1; u[j] = u_j."""
    s = blocks._stored(lo - 1, hi)
    matvec = lambda m, v: (m @ v[:, :, None])[:, :, 0]
    return (matvec(blocks.B[s][1:], u[lo + 1:hi + 1]), matvec(blocks.A[s][1:], u[lo:hi]),
            matvec(blocks.B_star[s][:-1], u[lo - 1:hi - 1]))


def _steps(A, B_inv, B_star, prev: np.ndarray, cur: np.ndarray, out: np.ndarray) -> None:
    """out[m] = u_{m+1} = -B_inv[m] (A[m] u_m + B_star[m] u_{m-1}), from (u_-1, u_0) = (prev, cur).

    The states are (n,) or (n, k) arrays in the blocks' dtype, n >= 2; each step is three
    BLAS products into buffers (a Python sum would lose the FMA of the kernel). ``_march``
    takes it for complex states, matrix states, vectors of more than ``_SCALAR_STEP_ENTRIES``
    entries and off-diagonal blocks that are not all scalar.
    """
    t1, t2 = np.empty_like(cur), np.empty_like(cur)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b_inv, b_star, row in zip(A, B_inv, B_star, out):
            np.add(a.dot(cur, t1), b_star.dot(prev, t2), out=t1)
            prev, cur = cur, np.negative(b_inv.dot(t1, t2), out=row)


def _scalar_steps(A, b_inv: list, b_star: list, prev: np.ndarray, cur: np.ndarray,
                  out: np.ndarray) -> None:
    """``_steps`` for B_m = b_m I, b_inv and b_star lists of Python numbers: each state entry
    steps as -(0.0 + b_inv[m] (x + b_star[m] p)), x its entry of A[m] u_m and p of u_{m-1}.

    x is a u_m at order 1, where each column steps alone in Python floats or complex numbers
    (0j + for complex blocks), and one BLAS product at n >= 2 (real vectors; a Python sum would
    lose the FMA of the kernel). At n = 2 the two entries step unrolled in Python floats, the
    product read through a memoryview and the new entries written into their output row, which
    is the next product's input; at n = 3 .. 6 the entries step as lists. A BLAS
    matrix-vector product with b I starts from +0 and adds only exact zeros to one product, so
    the 0.0 + gives every zero the sign of ``_steps`` and every bit matches; where its zero
    off-diagonal entries make a NaN of 0 * inf, the entry here may be a number, in a row that
    leaves the float range all the same. A matrix-matrix product starts from its first
    product instead: a zero whose products are all -0 stays -0, which no 0.0 + copies, so
    matrix states at n >= 2 keep ``_steps``. NaN signs aside: where two NaNs meet, CPython
    returns either one, depending on how warm its interpreter is. A zero + on each summand
    would change only zero signs, which the products keep and that add turns into +0.0, inf
    and NaN included.
    """
    zero, rows = 0.0 if out.dtype == float else 0j, out.reshape(len(out), -1)
    ps, cs = prev.reshape(-1).tolist(), cur.reshape(-1).tolist()
    if len(cur) == 1:
        entries = A[:, 0, 0].tolist()
        for j, (p, c) in enumerate(zip(ps, cs)):
            col = []
            for a, bi, bs in zip(entries, b_inv, b_star):
                p, c = c, -(zero + bi * (a * c + bs * p))
                col.append(c)
            rows[:, j] = col
        return
    au = np.empty_like(cur)
    with np.errstate(over="ignore", invalid="ignore"):
        if cur.shape == (2,):
            x = memoryview(au)
            (p0, p1), (c0, c1) = ps, cs
            for a, bi, bs, row in zip(A, b_inv, b_star, out):
                a.dot(cur, au)
                x0, x1 = x
                p0, p1, c0, c1 = (c0, c1, -(0.0 + bi * (x0 + bs * p0)),
                                  -(0.0 + bi * (x1 + bs * p1)))
                row[0], row[1] = c0, c1
                cur = row
            return
        for a, bi, bs, row in zip(A, b_inv, b_star, out):
            a.dot(cur, au)
            ps, cs = cs, [-(zero + bi * (x + bs * p)) for x, p in zip(au.tolist(), ps)]
            row[:], cur = cs, row


def _products(b_inv, b_star, prev: np.ndarray, cur: np.ndarray, out: np.ndarray) -> None:
    """``_steps`` for A = O, scalar blocks and finite seeds: u_{m+1} = -(b_inv[m] (b_star[m]
    u_{m-1})), so each parity is one running product of its seed and b_star, -b_inv in turn
    (real and imaginary parts apart), rounded as the step rounds; a zero reads -(0.0 + +-0)."""
    rows, factors = out.reshape(len(out), -1).view(float), np.stack([b_star, -b_inv], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for parity, seed in enumerate((prev, cur)):
            chain = np.empty((1 + 2 * len(factors[parity::2]), rows.shape[1]))
            chain[0], chain[1:] = seed.reshape(-1).view(float), factors[parity::2].reshape(-1, 1)
            rows[parity::2] = np.multiply.accumulate(chain, axis=0, out=chain)[2::2]
    rows[rows == 0.0] = -0.0


def _zero_diagonal(blocks: JacobiBlocks, s: slice) -> np.ndarray | None:
    """The b_k of real B_k = b_k I, k in s, if every A_k the rows s read (A[s][1:]) is O."""
    return None if blocks.B.dtype != float or blocks.A[s][1:].any() else scalars(blocks.B[s])


def _march(blocks: JacobiBlocks, prev, cur, start: int, stop: int) -> np.ndarray:
    """The stack u_{start+1} .. u_stop of u_{m+1} = -B_m^{-1} (A_m u_m + B*_{m-1} u_{m-1}).

    (prev, cur) = (u_{start-1}, u_start), vectors or n x n matrices alike.
    The stack is float64 when the blocks and (prev, cur) are real and
    complex128 otherwise; complex states on real blocks march on complex
    copies of the blocks they read. The steps are ``_products`` from a finite
    start where every A_k read is O and every B_k a real b_k I, ``_scalar_steps``
    at order 1 and where every B_k read is a real b_k I and the state is a real
    vector of at most ``_SCALAR_STEP_ENTRIES`` entries, and ``_steps`` otherwise.
    Raises IndexOutOfRangeError before the first step if a block is not stored,
    and FloatRangeError naming the first step whose state leaves the float range.
    """
    dtype = np.result_type(blocks.A, prev, cur)
    out = np.empty((max(stop - start, 0),) + cur.shape, dtype=dtype)
    if start >= stop:
        return out
    s = blocks._stored(start - 1, stop)
    prev, cur = prev.astype(dtype, copy=False), cur.astype(dtype, copy=False)
    b = _zero_diagonal(blocks, s)
    if b is not None and np.isfinite([prev, cur]).all():
        _products(blocks.B_inv[s][1:, 0, 0], b[:-1], prev, cur, out)
    else:
        A, B_inv, B_star = (x.astype(dtype, copy=False) for x in (
            blocks.A[s][1:], blocks.B_inv[s][1:], blocks.B_star[s][:-1]))
        if blocks.n == 1 or (dtype == float and cur.ndim == 1 and len(cur) <= _SCALAR_STEP_ENTRIES
                             and scalars(blocks.B[s]) is not None):
            _scalar_steps(A, B_inv[:, 0, 0].tolist(), B_star[:, 0, 0].tolist(), prev, cur, out)
        else:
            _steps(A, B_inv, B_star, prev, cur, out)
    if (k := first_nonfinite(out)) is not None:
        raise FloatRangeError(f"the recurrence leaves the float range at step {start + k} "
                              f"(u_{start + k + 1})")
    return out


def solve_recurrence(blocks: JacobiBlocks, u0, u1, count: int) -> np.ndarray:
    """March u_{j+1} = -B_j^{-1} (A_j u_j + B*_{j-1} u_{j-1}) from (u_0, u_1).

    Returns the first ``count`` entries, float64 when the blocks and (u_0, u_1)
    are real and complex128 otherwise; (lu)_j = 0 holds for
    1 <= j <= count - 2. Raises FloatRangeError if an entry leaves the float range.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    u0, u1 = _as_vec(u0, blocks.n), _as_vec(u1, blocks.n)
    out = np.empty((count, blocks.n), dtype=np.result_type(blocks.A, u0, u1))
    out[0], out[1] = u0, u1
    out[2:] = _march(blocks, u0, u1, 1, count - 1)
    return out


def discrete_cauchy(blocks: JacobiBlocks, i: int, j: int) -> np.ndarray:
    """Matrix solution K_ij of the recurrence with K_jj = O, K_{j+1,j} = B_j^{-1}, in the
    blocks' dtype."""
    if j < 1 or i < j:
        raise IndexOutOfRangeError("need 1 <= j <= i")
    zeros = np.zeros((blocks.n, blocks.n), dtype=blocks.B.dtype)
    if i == j:
        return zeros
    first = blocks.B_inv[blocks._stored(j, j + 1)][0]
    if i == j + 1:
        return first.copy()
    return _march(blocks, zeros, first, j + 1, i)[-1]


def _t4_grams(blocks: JacobiBlocks, s: slice) -> np.ndarray:
    """t4's row traces over the rows s: gram = sum_j S_j S_j* over the stacked columns
    S_j = (K_ij; K_{i-1,j}), whose top-left trace is row i's share; each row steps gram
    by the recurrence and adds (B_i^{-1}; O), two matmuls on stacks in the blocks' dtype."""
    n, dtype, eye = blocks.n, blocks.A.dtype, np.eye(2 * blocks.n)
    top = -(blocks.B_inv[s][1:] @ (blocks.A[s][1:] @ eye[:n] + blocks.B_star[s][:-1] @ eye[n:]))
    steps = np.concatenate([top, np.broadcast_to(eye[:n], top.shape)], axis=1)
    adjoints = np.ascontiguousarray(_adjoint(steps))
    shares = blocks.B_inv[s] @ _adjoint(blocks.B_inv[s])
    grams = np.zeros((len(shares), 2 * n, 2 * n), dtype=dtype)  # gram after each row
    tops, left = grams[:, :n, :n], np.empty((2 * n, 2 * n), dtype=dtype)
    tops[:1] += shares[:1]
    for step, adjoint, gram, nxt, share, tl in zip(steps, adjoints, grams, grams[1:],
                                                   shares[1:], tops[1:]):
        np.matmul(np.matmul(step, gram, out=left), adjoint, out=nxt)
        tl += share
    return np.trace(tops, axis1=1, axis2=2).real


def _t4_chain(b_inv: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``_t4_grams`` for real A = O, B = b I: each product there has one nonzero term per entry,
    so gram = diag(p I, q I) steps as p <- c (c q) + s, q <- p, c = b_i^-1 b_{i-1} (its sign
    squares away), s = (b_i^-1)^2, in Python floats with the loop's bits, non-finite p alike."""
    cs, ss = (b_inv[1:] * b[:-1]).tolist(), (b_inv * b_inv).tolist()
    ps = [0.0] + ss[:1]  # q, p before the second row
    for c, s in zip(cs, ss[1:]):
        ps.append(c * ps[-2] * c + s)
    ps = np.array(ps[1:])  # the n equal diagonal entries summed as np.trace sums them:
    return ps if n == 1 else np.trace(ps[:, None, None] * np.eye(n), axis1=1, axis2=2)


def t4_term(blocks: JacobiBlocks, n_k: int, m_k: int) -> float:
    """(sum_{i=n_k}^{m_k} sum_{j=n_k}^{i} ||K_ij||_F^2)^(1/2) for one segment.

    Row i's share, the trace of sum_j K_ij K_ij*, steps as two scalar chains (``_t4_chain``)
    where every A_i read is O and every B_i a real b_i I (each ``cancel`` lattice), else by
    2n x 2n matmuls (``_t4_grams``), with the same bits; the shares are summed in row order
    from 0.0, and FloatRangeError names the first row where the sum leaves the float range.
    """
    if n_k < 1 or m_k < n_k:
        raise IndexOutOfRangeError("need 1 <= n_k <= m_k")
    s = blocks._stored(n_k, m_k)  # row i + 1 > n_k + 1 steps with A_i, B_i^-1, B*_{i-1}
    b = _zero_diagonal(blocks, s)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = (_t4_grams(blocks, s) if b is None else
                  _t4_chain(blocks.B_inv[s][:, 0, 0], b, blocks.n))
        totals = np.cumsum(np.concatenate([[0.0], traces]))
    if (k := first_nonfinite(totals)) is not None:
        raise FloatRangeError(f"the t4 sum leaves the float range at row {n_k + k}")
    return math.sqrt(totals[-1])


def t4_report(blocks: JacobiBlocks, segments) -> CriterionReport:
    """Segment series of discrete kernel roots (code t4).

    Divergence for one admissible segment system rules out the completely
    indeterminate case; the full criterion quantifies over all systems,
    so convergence here proves nothing by itself.
    """
    segs = [(int(a), int(b)) for a, b in segments]
    for (_, b0), (a1, b1) in zip(segs, segs[1:]):
        if not b0 <= a1 <= b1:
            raise ValueError("segments must satisfy m_k <= n_{k+1} <= m_{k+1}")
    terms = [t4_term(blocks, a, b) for a, b in segs]
    return build_report(
        "t4", terms,
        notes=("one admissible segment system; the completely indeterminate "
               "criterion quantifies over all of them",))


# ---------------------------------------------------------------------------
# determinacy series


def _power_exponent(d) -> float | None:
    """Common power-law exponent of the tail of d, or None."""
    tail = np.asarray(d[len(d) // 2:], dtype=float)
    if len(tail) < 6 or (tail <= 0.0).any():
        return None
    k = np.arange(len(d) // 2 + 1, len(d) // 2 + len(tail), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = tail[1:] / tail[:-1]
        if not ((0.0 < ratios) & (ratios < math.inf)).all():
            return None  # a ratio underflowed to 0.0 or overflowed: no power law
        ps = libm(np.log, ratios) / libm(np.log, (k + 1.0) / k)
        mean = sum(ps.tolist()) / len(ps)
        spread = max(np.abs(ps - mean).tolist())  # Python's max skips a NaN after the first
    if spread <= 1e-6 * max(1.0, abs(mean)):
        return mean
    return None


def spacing_square_divergence(d) -> str | None:
    """Certificate that sum d_k^2 diverges, from the structure of d."""
    if len(d) < 8:
        return None
    h = len(d) // 2
    hit = periodic_positive_floor(d[h:])
    if hit is not None:
        floor, p = hit
        kind = "constant" if p == 1 else f"periodic (period {p})"
        return f"eventually {kind} spacings with floor {floor:.6g}"
    # The power-law basis needs every local exponent of the tail within
    # 1e-6 max(1, |p|) of their mean p, and p >= -1/2 - 1e-12, so the first
    # one, ps_0, is at least -1/2 - 1.000001e-6 whenever the basis is given
    # (for |p| > 1, p > 1 and ps_0 > 0). ps_0 is computed here with the float
    # operations of _power_exponent, so it is the same float; the rounding of
    # the mean and the spread is ~1e-12 relative, far inside the 1e-5 margin.
    # Below -1/2 - 1e-5 the answer is None, without the logs of the tail.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = np.asarray(d[h:h + 2], dtype=float)
        ratio = first[1] / first[0]
    if 0.0 < ratio < math.inf:
        k = h + 1.0
        if math.log(ratio) / math.log((k + 1.0) / k) < -0.5 - 1e-5:
            return None
    p = _power_exponent(d)
    if p is not None and p >= -0.5 - 1e-12:
        return f"power-law spacings with exponent {p:.6g} >= -1/2"
    return None


def carleman_report(blocks: JacobiBlocks, N: int) -> CriterionReport:
    """Series of 1 / ||B_k||_F over the canonical blocks k = 1..N.

    For lattice blocks the term equals r_{k+1} r_{k+2} d_{k+1} / sqrt(n)
    and dominates d_{k+1}^2 / sqrt(n), so a divergent square sum of the
    spacings certifies divergence. Divergence certifies the determinate
    (limit point) case; convergence of this series proves nothing.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if N >= len(blocks.B):
        raise IndexOutOfRangeError(f"B_1 .. B_{N} not all stored")
    report = build_report("carleman", 1.0 / frobenius_norm(blocks.B[1:N + 1]))
    if report.verdict != DIVERGES and blocks.provenance is not None:
        d = blocks.provenance.d[:N + 2]
        basis = spacing_square_divergence(d)
        if basis is not None:
            report = CriterionReport(
                "carleman", report.terms, report.partial_sums, DIVERGES,
                f"terms >= d_(k+1)^2 / sqrt(n) and {basis}", report.notes)
    return report


def carleman_spacing_bounds(d, n: int = 1) -> bool:
    """Two-sided spacing bounds on 1 / ||B_k|| for the constructed blocks.

    Checks d_{k+1}^2 / sqrt(n) <= 1/||B_k|| <= (d_k^2 + 6 d_{k+1}^2 + d_{k+2}^2) / (4 sqrt(n))
    for every admissible k, on the blocks of the spacings d with zero jumps.
    Holds for all positive spacings.
    """
    lat = Lattice(d, np.zeros((max(len(d) - 1, 0), n, n)))
    if len(lat.d) < 3:
        raise ValueError("need at least three spacings")
    rn = math.sqrt(n)
    val, d = 1.0 / frobenius_norm(blocks_from_lattice(lat).B[1:]), lat.d
    lower = d[1:-1] ** 2 / rn
    upper = (d[:-2] ** 2 + 6.0 * d[1:-1] ** 2 + d[2:] ** 2) / (4.0 * rn)
    slack = 1e-12 * np.maximum(np.maximum(lower, val), upper)
    return bool(np.all((val >= lower - slack) & (val <= upper + slack)))


@dataclass(frozen=True, eq=False)
class T7Result:
    """Product-series check; s indexes the two lattice parities (1 and 2).

    ``log_terms_a`` holds the logs of the ``series_a`` terms as read-only float64 arrays."""

    series_a: tuple[CriterionReport, CriterionReport]
    series_b: tuple[CriterionReport, CriterionReport]
    log_terms_a: tuple[np.ndarray, np.ndarray]
    limit_circle_certified: bool

    def reports(self):
        return [*self.series_a, *self.series_b]


def t7_check(d, H, N: int) -> T7Result:
    """``t7_lattice`` of the lattice (d, H)."""
    return t7_lattice(Lattice(d, H), N)


def t7_lattice(lat: Lattice, N: int) -> T7Result:
    """Alternating-product series certifying the completely indeterminate case.

    For s in {1, 2} and j = 1..N, with the partial products
    ratio_j = (d_{1+s} d_{3+s} ... d_{2j-1+s}) / (d_s d_{2+s} ... d_{2j-2+s}),
    series (a) has terms (r_{2j+s} ratio_j)^2 and series (b) has terms
    ratio_j^2 ||H_{2j+s-1} + (1/d_{2j+s-1} + 1/d_{2j+s}) I||_F.

    Products are carried as log magnitudes; terms too large to represent
    are reported as inf and their logs kept in ``log_terms_a``.
    Certification requires convergence certificates on all four series.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if len(lat.d) < 2 * N + 2:
        raise IndexOutOfRangeError(f"need at least {2 * N + 2} spacings for N = {N}")
    if len(lat.H) < 2 * N + 1:
        raise IndexOutOfRangeError(f"need at least {2 * N + 1} jumps for N = {N}")
    # log d_k and log r_{k+1}^2 = log(d_k + d_{k+1}) for k = 1 .. 2N + 1, each taken once
    norms, x = frobenius_norm(lat.shifted_jumps[:2 * N + 1]), lat.d[:2 * N + 2]
    with np.errstate(over="ignore"):
        log_d, log_r2 = libm(np.log, x[:-1]), libm(np.log, x[:-1] + x[1:])
    series_a, series_b, logs_a = [], [], []
    for s in (1, 2):
        # 2 log ratio_j, summed in j order from the first log ratio; the jump and
        # r^2 of term j have index m = 2j + s - 1, and a zero defect takes no log
        lr2 = 2.0 * np.cumsum(log_d[s:2 * N + s:2] - log_d[s - 1:2 * N + s - 1:2])
        nf = norms[s:2 * N + s:2]
        live = nf != 0.0
        log_t = np.concatenate([log_r2[s:2 * N + s:2] + lr2, lr2[live] + libm(np.log, nf[live])])
        terms, fit = np.full(len(log_t), math.inf), ~(log_t >= _LOG_MAX)  # NaN takes exp
        terms[fit] = libm(np.exp, log_t[fit])
        tb = np.zeros(N)
        tb[live] = terms[N:]
        overflowed = int(np.count_nonzero(~fit[:N]))
        notes = ((f"{overflowed} terms overflow; log values kept in log_terms_a",)
                 if overflowed else ())
        series_a.append(build_report(f"t7_a_s{s}", terms[:N], notes=notes))
        series_b.append(build_report(f"t7_b_s{s}", tb))
        log_t.flags.writeable = False
        logs_a.append(log_t[:N])
    certified = all(r.verdict == CONVERGES for r in series_a + series_b)
    return T7Result(tuple(series_a), tuple(series_b), tuple(logs_a), certified)


@dataclass(frozen=True, eq=False)
class Cor3Result:
    """Monotone-comparability variant of the product-series check."""

    cond1: bool
    cond1_direction: str
    cond2: CriterionReport
    cond3: CriterionReport
    limit_circle_certified: bool

    def reports(self):
        return [self.cond2, self.cond3]


def cor3_check(d, H, N: int) -> Cor3Result:
    """``cor3_lattice`` of the lattice (d, H)."""
    return cor3_lattice(Lattice(d, H), N)


def cor3_lattice(lat: Lattice, N: int) -> Cor3Result:
    """Spacing and jump series with a sign-uniform comparability condition.

    cond1: r_k r_{k+3} d_k d_{k+2} compares with r_{k+1} r_{k+2} d_{k+1}^2
    with one uniform sign for k = 2..N (k = 1 would need the undefined
    spacing d_0 and is skipped). cond2 is the series of d_k^2 and cond3
    the series of d_{k+1} ||H_k + (1/d_k + 1/d_{k+1}) I||_F, k = 1..N.
    Certification requires cond1 plus convergence certificates on both.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if len(lat.d) < N + 3:
        raise IndexOutOfRangeError(f"need at least {N + 3} spacings for N = {N}")
    if len(lat.H) < N:
        raise IndexOutOfRangeError(f"need at least {N} jumps for N = {N}")

    # over k = 2..N, slice [j:N - 1 + j] picks index k - 2 + j of x[i] = d_{i+1}
    # and of r2[i] = d_{i+1} + d_{i+2} = r_{i+2}^2
    x = lat.d[:N + 3]
    with np.errstate(over="ignore", invalid="ignore"):  # huge spacings give inf, as in Python
        r2 = x[:-1] + x[1:]
        lhs = np.sqrt(r2[:N - 1] * r2[3:N + 2]) * x[1:N] * x[3:N + 2]
        rhs = np.sqrt(r2[1:N] * r2[2:N + 1]) * x[2:N + 1] ** 2
        tol = 1e-12 * np.maximum(lhs, rhs)
        above = not np.any(lhs < rhs - tol)
        below = not np.any(lhs > rhs + tol)
        jump_terms = x[1:N + 1] * frobenius_norm(lat.shifted_jumps[:N])
        spacing_terms = np.square(x[:N])  # one correctly rounded product each
    cond1 = above or below
    direction = ("equal" if above and below else
                 ">=" if above else "<=" if below else "mixed")

    cond2 = build_report("cor3_spacing", spacing_terms)
    cond3 = build_report("cor3_jump", jump_terms)
    certified = cond1 and cond2.verdict == CONVERGES and cond3.verdict == CONVERGES
    return Cor3Result(cond1, direction, cond2, cond3, certified)


# ---------------------------------------------------------------------------
# JSON forms


def blocks_to_json(blocks: JacobiBlocks) -> dict:
    """JSON form; ``boundary_default`` records whether (A_0, B_0) == (O, -I)."""
    out = {"n": blocks.n,
           "A": [matrix_to_json(a) for a in blocks.A],
           "B": [matrix_to_json(b) for b in blocks.B],
           "offset": 0}
    prov = blocks.provenance
    if prov is not None:  # a jump past the last block is not written
        default = not blocks.A[0].any() and (blocks.B[0] == -np.eye(blocks.n)).all()
        out["provenance"] = {"d": prov.d.tolist(),
                             "H": [matrix_to_json(h) for h in prov.H[:len(prov.d) - 1]],
                             "boundary_default": bool(default)}
    return out


def _check_provenance(A: np.ndarray, B: np.ndarray, prov: Lattice):
    """ValueError unless A_k, B_k for k >= 1 are the blocks ``prov`` builds; A_0, B_0 may differ."""
    ref = blocks_from_lattice(prov)
    if len(A) != len(ref.A) or len(B) != len(ref.B):
        raise ValueError(f"the provenance builds A_0 .. A_{len(ref.A) - 1} and "
                         f"B_0 .. B_{len(ref.B) - 1}")
    for name, got, want in (("A", A, ref.A), ("B", B, ref.B)):
        diff = np.flatnonzero(np.any(got[1:] != want[1:], axis=(1, 2)))
        if len(diff):
            raise ValueError(f"{name}_{diff[0] + 1} differs from the block its provenance builds")


def blocks_from_json(obj: dict) -> JacobiBlocks:
    """Blocks from their JSON form; a missing or bad key is a ValueError that names it.

    The stored A_0 and B_0 are the boundary record; ``boundary_default`` is not read.
    """
    try:
        n = int(obj["n"])
        if obj.get("offset", 0) != 0:
            raise ValueError("blocks JSON key 'offset' must be 0: storage starts at A_0, B_0")
        A = hermitian(matrices_from_json(obj["A"]), "diagonal blocks", n)
        B = as_stack(matrices_from_json(obj["B"]), n)
        prov = None
        if "provenance" in obj:
            p = obj["provenance"]
            prov = Lattice(p["d"], as_stack(matrices_from_json(p["H"]), n))
            # the lattice criteria read the provenance in place of the blocks
            _check_provenance(A, B, prov)
    except KeyError as exc:
        raise ValueError(f"blocks JSON has no key {exc}") from None
    return JacobiBlocks(n, A, B, prov)
