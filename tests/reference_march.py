"""Step-at-a-time reference marches for the stacked marches of sldl.

Each function here redoes one march the plain way: one ``np.linalg.solve``
(in ``inverse_march``, one product with the stored inverse) per lattice
step, on real columns for real blocks, one ``invert`` per
kernel row, and one ``np.block`` jump and one
``expm`` per continuous cell (``matrix_step``), in the same float operation
order as the stacked code. At lam = 0 step and delta models, and general and
distributional models with real pieces, have real jumps and propagators
(``real_cells``), and ``flow`` marches their states as real columns (the
real parts, then the imaginary parts that are not all zero).
Order-1 step and delta models at lam = 0 march by ``kick_drift`` instead:
each cell reads dS from its jump matrix and updates each real column in
Python floats, as sldl's scalar march does; ``matrix_step`` stays available
for them as the per-cell BLAS march. The marches here return complex
states. sldl marches a real start on real blocks or cells in float64 with
the float operations of these real columns, so its states are the real
parts of these, whose imaginary parts are zero; a start with an imaginary
part it marches in complex arithmetic on the real blocks or cells, which
may round apart from the real columns at n >= 2 (the accuracy tests bound
it). ``expm`` and ``piece_system`` are kept here one matrix and one piece at
a time, in the dtype of their data: the exponential scales, expands and
squares a single matrix, and each general or distributional piece takes its
own ``np.linalg.inv``. ``complex_march`` and ``complex_t4_term`` keep the lattice
code of the time when every block stack was complex128: an order-1 march in
Python complex arithmetic, and t4 grams of complex matrices.
The tests compare with ``np.array_equal`` (``tobytes`` for
``inverse_march``, and ``==`` for the residual float), so any change of
that order shows. ``nodes_to_Z`` rescales one node at a time, in float64
when the samples are real (imaginary parts exactly zero), as sldl does, and
``equivalence_residual`` takes its summands in that dtype;
``grid_index`` scans the whole grid, ``to_quasi`` subtracts sigma f from f'
one sample at a time, and ``interval_kernel_pass`` is the exact kernel pass
over one interval alone, with its own Gram loop: three Python floats per
cell for order-1 step and delta models, as in sldl, or the matrix products,
real or complex as the cells are, or complex on request.

The kernel and solution-norm integrals are kept in their quadrature form:
a 7-point Gauss-Legendre rule on every cell, refined by halving the cells
of general models until two passes agree to a relative tolerance (1e-8,
the old rule of sldl, by default). The exact cell integrals of sldl are
compared with it. ``fixed_t1_term`` redoes the kernel pass in fixed-point
integer arithmetic with 140 fraction bits (about 42 digits), from the same
float generators and lengths, as an accuracy reference for t1 terms of
general and distributional models; ``exact_t1_square`` redoes it for step and
delta models of any order in Fraction arithmetic, from the float jumps and
lengths. ``stacked_cells`` keeps sldl's stacked cell walk as it was before
its loop invariants were hoisted (``len(cuts)``, ``model.X`` and a
``model.lattice.d`` entry, as a float, read per full cell of a step or delta model,
``min(end, mark)``), so the hoisted walk can be compared with it field by field.
"""

import math
from fractions import Fraction

import numpy as np

from sldl.criteria import _cell_integrals
from sldl.jacobi import blocks_from_delta
from sldl.matcore import frobenius_norm, invert
from sldl.quasidiff import (
    Cells,
    DeltaNodes,
    Distributional,
    GeneralTriple,
    StepModel,
    StepSigma,
    _cells,
    _jumps,
    _piece_generators,
    piece_cuts,
    piece_index,
)
from sldl.quasidiff import expm as stacked_expm

# ---------------------------------------------------------------------------
# lattice side


def march(blocks, prev, cur, start, stop):
    """u_{m+1} = -solve(B_m, A_m u_m + B*_{m-1} u_{m-1}) for m = start .. stop - 1, in complex128.

    A complex solve divides by a real B_m through its reciprocal, so at order
    1 the real parts are those of the product with B_m^-1, real or complex.
    """
    A, B = blocks.A.astype(complex), blocks.B.astype(complex)
    out = []
    for m in range(start, stop):
        rhs = A[m] @ cur + B[m - 1].conj().T @ prev
        prev, cur = cur, -np.linalg.solve(B[m], rhs)
        out.append(cur)
    return out


def lattice_columns(prev, cur):
    """(prev, cur) as real column arrays, and the indices of their imaginary columns.

    Every real part comes first, then each imaginary column in which prev or
    cur is not all zero.
    """
    cols = [np.asarray(y, dtype=complex).reshape(len(y), -1) for y in (prev, cur)]
    live = [j for j in range(cols[0].shape[1]) if any(c[:, j].imag.any() for c in cols)]
    return [np.hstack([c.real, c.imag[:, live]]) for c in cols], live


def inverse_march(blocks, prev, cur, start, stop):
    """u_{m+1} = -(B_m^-1 @ (A_m @ u_m + B*_{m-1} @ u_{m-1})), one matmul step at a time.

    The step takes B_m^-1 from ``blocks.B_inv``. A solve reaches the same
    values, but not always the same zero signs; this march fixes them. Real
    blocks step the ``lattice_columns`` in float64, the float operations of
    sldl's march from a real start, and the states return complex.
    """
    shape = np.shape(cur)
    real = blocks.A.dtype == float
    if real:
        (prev, cur), live = lattice_columns(prev, cur)
    out = []
    for m in range(start, stop):
        rhs = blocks.A[m] @ cur + blocks.B_star[m - 1] @ prev
        prev, cur = cur, -(blocks.B_inv[m] @ rhs)
        out.append(complex_state(cur, live, shape) if real else cur)
    return out


def solve_recurrence(blocks, u0, u1, count, march=march):
    u0, u1 = np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex)
    return np.array([u0, u1] + march(blocks, u0, u1, 1, count - 1))


def discrete_cauchy(blocks, i, j, march=march):
    n = blocks.n
    if i == j:
        return np.zeros((n, n), dtype=complex)
    first = invert(blocks.B[j]).astype(complex)
    steps = march(blocks, np.zeros((n, n), dtype=complex), first, j + 1, i)
    return steps[-1] if steps else first


def t4_term(blocks, n_k, m_k):
    """One row at a time, the grams in the blocks' dtype."""
    n = blocks.n
    eye = np.eye(2 * n)
    gram = np.zeros((2 * n, 2 * n), dtype=blocks.A.dtype)
    total = 0.0
    for i in range(n_k, m_k):
        if i > n_k:
            (top,) = march(blocks, eye[n:], eye[:n], i, i + 1)
            step = np.vstack([top.real if gram.dtype == float else top, eye[:n]])
            gram = step @ gram @ step.conj().T
        binv = invert(blocks.B[i])
        gram[:n, :n] += binv @ binv.conj().T
        total += float(np.trace(gram[:n, :n]).real)
        if not math.isfinite(total):
            raise ValueError(f"the t4 sum leaves the float range at row {i + 1}")
    return math.sqrt(total)


# the lattice code as it was while every block stack was complex128


def complex_stacks(blocks):
    """(A, B_inv, B_star) of ``blocks`` as complex128 stacks, the inverse taken by LAPACK."""
    A, B = blocks.A.astype(complex), blocks.B.astype(complex)
    return A, np.linalg.inv(B), B.conj().swapaxes(-1, -2)


def complex_march(blocks, prev, cur, start, stop):
    """The order-1 march in Python complex arithmetic on ``complex_stacks``, as one list.

    Each 0j + gives a product the +0 start of a BLAS accumulator.
    """
    A, B_inv, B_star = complex_stacks(blocks)
    shape = np.shape(cur)
    p, c = complex(np.asarray(prev).item()), complex(np.asarray(cur).item())
    out = []
    for m in range(start, stop):
        a, b_inv, b_star = A[m, 0, 0].item(), B_inv[m, 0, 0].item(), B_star[m - 1, 0, 0].item()
        p, c = c, -(0j + b_inv * ((0j + a * c) + (0j + b_star * p)))
        out.append(np.full(shape, c, dtype=complex))
    return out


def complex_t4_term(blocks, n_k, m_k):
    """t4_term with complex128 steps, shares and grams on ``complex_stacks``."""
    n = blocks.n
    A, B_inv, B_star = complex_stacks(blocks)
    s = slice(n_k, m_k)
    eye = np.eye(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        top = -(B_inv[s][1:] @ (A[s][1:] @ eye[:n] + B_star[s][:-1] @ eye[n:]))
        steps = np.concatenate([top, np.broadcast_to(eye[:n], top.shape)], axis=1)
        adjoints = np.ascontiguousarray(steps.conj().swapaxes(-1, -2))
        shares = B_inv[s] @ B_inv[s].conj().swapaxes(-1, -2)
        grams = np.zeros((len(shares), 2 * n, 2 * n), dtype=complex)
        tops, left = grams[:, :n, :n], np.empty((2 * n, 2 * n), dtype=complex)
        tops[:1] += shares[:1]
        for step, adjoint, gram, nxt, share, tl in zip(steps, adjoints, grams, grams[1:],
                                                       shares[1:], tops[1:]):
            np.matmul(np.matmul(step, gram, out=left), adjoint, out=nxt)
            tl += share
        totals = np.cumsum(np.concatenate([[0.0], np.trace(tops, axis1=1, axis2=2).real]))
    return math.sqrt(totals[-1])


# ---------------------------------------------------------------------------
# continuous side

_PADE6 = [1.0]
for _k in range(1, 7):
    _PADE6.append(_PADE6[-1] * (6 - _k + 1) / (_k * (12 - _k + 1)))


def expm(a):
    """Pade(6, 6) exponential of one matrix, scaled so the scaled norm is <= 0.5.

    Real where a is real; an index-2 nilpotent matrix gives I + a.
    """
    a = np.asarray(a)
    m = a.shape[0]
    if not (a @ a).any():
        return np.eye(m) + a
    nrm = frobenius_norm(a)
    s = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    b = a / (2.0 ** s)
    num = np.eye(m) * _PADE6[0]
    den = np.eye(m) * _PADE6[0]
    pw = np.eye(m)
    for k in range(1, 7):
        pw = pw @ b
        num = num + _PADE6[k] * pw
        den = den + (-1) ** k * _PADE6[k] * pw
    x = np.linalg.solve(den, num)
    for _ in range(s):
        x = x @ x
    return x


def classical(model):
    """Step and delta models, marched in (f, f')."""
    return isinstance(model, (StepSigma, DeltaNodes))


def block2n(tl, tr, bl, br, dtype=None):
    """The 2n x 2n matrix [[tl, tr], [bl, br]] of four order-n blocks, in the blocks' dtype
    unless ``dtype`` is given."""
    return np.block([[tl, tr], [bl, br]]).astype(dtype or np.result_type(tl, tr, bl, br))


def piece_system(model, lam, i):
    """The 2n x 2n system matrix F - L on piece i, from that piece alone, in the dtype of the
    model's stacks at lam = 0 (complex at lam != 0): its inverse of the leading piece is in
    that piece stack's dtype, and phi = P1 + i Q0 is real where it is real on every piece."""
    n = model.n
    if classical(model):
        s = model.values[i]
        f = block2n(s, np.eye(n), -(s @ s), -s)
    elif isinstance(model, GeneralTriple):
        p, q, r = model.P[i], model.Q[i], model.R[i]
        pinv = np.linalg.inv(p)
        f = block2n(r, pinv, q, -r.conj().T)
    else:
        assert isinstance(model, Distributional)
        pinv = np.linalg.inv(model.P0[i])
        phi = model.P1[i] + 1j * model.Q0[i]
        if not (model.P1 + 1j * model.Q0).imag.any():  # Q0 = O and P1 real
            phi = phi.real
        phs = phi.conj().T
        f = block2n(pinv @ phi, pinv, -(phs @ pinv @ phi), -(phs @ pinv))
    if lam != 0:
        f = f.astype(complex)
        f[n:, :n] -= lam * np.eye(n)
    return f


def real_cells(model, lam):
    """Cells with real jumps and generators: lam = 0 and real piece systems (step and
    delta models, and general and distributional models with real pieces)."""
    return lam == 0 and (classical(model) or all(
        piece_system(model, 0.0, i).dtype == float for i in range(len(model.cuts))))


def cells(model, lam, x0, x1, stops=()):
    """Yield (piece, jump, generator, length, end) per cell, one matrix at a time.

    Real matrices for step and delta models at lam = 0, complex ones otherwise.
    """
    delta = model if isinstance(model, DeltaNodes) else None
    eye = np.eye(model.n)
    dtype = float if real_cells(model, lam) else complex
    flight = block2n(0 * eye, eye, 0 * eye if lam == 0 else -lam * eye, 0 * eye, dtype)
    cuts = piece_cuts(model)
    marks = iter([x for x in stops if x0 < x < x1])
    mark = next(marks, x1)
    i, pos = piece_index(model, x0), x0
    while pos < x1:
        end = cuts[i + 1] if i + 1 < len(cuts) else model.X
        stop = min(end, mark)
        if not classical(model):
            jump, gen = None, piece_system(model, lam, i)
        else:
            jump, gen = None, flight
            ds = None
            if pos == x0:
                ds = model.values[i]
            elif pos == cuts[i]:
                ds = delta.jumps[i - 1].real if delta else model.values[i] - model.values[i - 1]
            if ds is not None:
                jump = block2n(eye, 0 * eye, ds, eye, dtype)
        full = classical(model) and pos == cuts[i] and stop == end and i < len(cuts) - 1
        yield i, jump, gen, (float(model.lattice.d[i]) if full else stop - pos), stop
        if stop == mark:
            mark = next(marks, x1)
        if stop == end:
            i += 1
        pos = stop


def stacked_cells(model, lam, spans, stops=()):
    """sldl's ``_cells`` with its walk as it was: the same fields, values and types."""
    classical = isinstance(model, StepModel)
    cuts = piece_cuts(model)
    pieces, jumped, picks, lengths, ends, first = [], [], [], [], [], []
    for x0, x1 in spans:
        first.append(len(pieces))
        marks = iter([x for x in stops if x0 < x < x1])
        i, pos, mark = piece_index(model, x0), x0, next(marks, x1)
        while pos < x1:
            end = cuts[i + 1] if i + 1 < len(cuts) else model.X
            stop = min(end, mark)
            if classical and (pos == x0 or pos == cuts[i]):
                jumped.append(len(pieces))
                picks.append(i if pos == x0 else len(cuts) - 1 + i)
            full = classical and pos == cuts[i] and stop == end and i < len(cuts) - 1
            pieces.append(i)
            lengths.append(float(model.lattice.d[i]) if full else stop - pos)
            ends.append(stop)
            if stop == mark:
                mark = next(marks, x1)
            if stop == end:
                i += 1
            pos = stop
    n, m, ends = model.n, 2 * model.n, np.array(ends)
    jump = [None] * len(pieces)
    if classical and n == 1 and lam == 0:
        for c, ds in zip(jumped, model.cell_jumps[picks, 0, 0].tolist()):
            jump[c] = ds
        return Cells(pieces, jump, None, lengths, ends, None, first)
    if not classical:
        gen = _piece_generators(model, lam, pieces)
    else:
        flight = np.eye(m, k=n, dtype=float if lam == 0 else complex)
        if lam != 0:
            flight[n:, :n] = -lam * np.eye(n)
        gen = np.broadcast_to(flight, (len(pieces), m, m))
        for c, matrix in zip(jumped, _jumps(model.cell_jumps[picks], flight.dtype)):
            jump[c] = matrix
    scaled = gen * np.array(lengths)[:, None, None]
    prop = np.eye(m) + scaled if classical and lam == 0 else stacked_expm(scaled)
    return Cells(pieces, jump, gen, lengths, ends, prop, first)


def matrix_step(jump, gen, length, y):
    """One cell as matrix products: the jump, if any, then the propagator expm(gen * length)."""
    if jump is not None:
        y = jump @ y
    return expm(gen * length) @ y


def kick_drift(jump, gen, length, y):
    """One cell of an order-1 step or delta model at lam = 0, real column by column in Python floats.

    A kick f' = dS f + f' with dS the lower-left entry of the jump, if the cell
    has one, then the drift f = f + L f' of the free flight.
    """
    y = np.array(y, dtype=float)
    for column in y.reshape(2, -1).T:  # views into the copy
        f, g = float(column[0]), float(column[1])
        if jump is not None:
            g = float(jump[1, 0]) * f + g
        column[0], column[1] = f + length * g, g
    return y


def default_step(model, lam):
    """kick_drift for order-1 step and delta models at lam = 0, matrix_step otherwise."""
    scalar = model.n == 1 and lam == 0 and classical(model)
    return kick_drift if scalar else matrix_step


def real_columns(y):
    """The columns of a complex state as real ones, and the indices of the imaginary ones.

    Every real part comes first, then each imaginary part that is not all zero.
    """
    cols = np.asarray(y, dtype=complex).reshape(len(y), -1)
    live = [j for j in range(cols.shape[1]) if cols[:, j].imag.any()]
    return np.hstack([cols.real, cols.imag[:, live]]), live


def complex_state(x, live, shape):
    """The complex state of shape ``shape`` whose real columns ``real_columns`` gave x."""
    count = x.shape[1] - len(live)
    out = np.zeros((len(x), count), dtype=complex)
    out.real = x[:, :count]
    out.imag[:, live] = x[:, count:]
    return out.reshape(shape)


def flow(model, lam, y, x0, x1, stops=(), step=None):
    """Yield (piece, state, end) after each cell; real cells march ``real_columns``."""
    step = step or default_step(model, lam)
    real, shape = real_cells(model, lam), np.shape(y)
    if real:
        y, live = real_columns(y)
    for piece, jump, gen, length, end in cells(model, lam, x0, x1, stops):
        y = step(jump, gen, length, y)
        yield piece, (complex_state(y, live, shape) if real else y), end


def grid_index(grid, x):
    """Index of the first grid point within the pair tolerance of x, by a scan; None if none."""
    tol = 1e-12 * max(1.0, abs(grid[-1] - grid[0]), abs(grid[-1]))
    hits = np.flatnonzero(np.abs(np.array(grid) - x) <= tol)  # each |g - x| as Python rounds it
    return int(hits[0]) if len(hits) else None


def to_quasi(model, piece, y):
    """(f, f') on ``piece`` back to (f, f1) of a step or delta model: f1 = f' - sigma f."""
    if not classical(model):
        return y
    n, y = model.n, np.array(y, dtype=complex)
    y[n:] = y[n:] - model.values[piece] @ y[:n]
    return y


def transfer(model, lam, x0, x1, step=None):
    m, piece = np.eye(2 * model.n, dtype=complex), None
    for piece, m, _ in flow(model, lam, m, x0, x1, step=step):
        pass
    return m if piece is None else to_quasi(model, piece, m)


def fundamental_samples(model, lam, grid, step=None):
    """The stacked 2n x 2n samples [[Phi, Psi], [Phi1, Psi1]] on the grid."""
    n = model.n
    t = np.empty((len(grid), 2 * n, 2 * n), dtype=complex)
    t[0] = np.eye(2 * n)
    k = 1
    for piece, y, end in flow(model, lam, t[0], 0.0, grid[-1], stops=grid, step=step):
        if end == grid[k]:
            t[k] = to_quasi(model, piece, y)
            k += 1
    return t


def nodes_to_Z(f_at_nodes, d):
    """Z_k = sqrt(d_k + d_{k+1}) f(x_k), one node at a time: in float64 when every
    sample's imaginary parts are exactly zero (or it has none), in complex128 otherwise."""
    d = [float(v) for v in d]
    samples = [np.asarray(f).reshape(-1) for f in f_at_nodes]
    dtype = complex if any(np.iscomplexobj(f) and f.imag.any() for f in samples) else float
    samples = [(f if dtype is complex else f.real).astype(dtype) for f in samples]
    return np.array([np.sqrt(d[k - 1] + d[k]) * samples[k - 1] for k in range(1, len(d))])


def equivalence_residual(model, count, seed_state):
    """The residual with the summands in the dtype of Z: real matrix-vector products for real Z."""
    y = np.concatenate([seed_state.f, seed_state.f1])
    samples = [y[:model.n] for _, y, _ in flow(model, 0.0, y, 0.0, model.nodes[-1])]
    z = nodes_to_Z(samples, model.spacings)
    u = np.vstack([np.zeros((1, model.n), dtype=z.dtype), z])
    blocks = blocks_from_delta(model.spacings, model.jumps)
    worst = 0.0
    for k in range(2, count + 2):
        parts = (blocks.B[k] @ u[k + 1], blocks.A[k] @ u[k],
                 blocks.B[k - 1].conj().T @ u[k - 1])
        scale = max(1.0, *(float(np.linalg.norm(p)) for p in parts))
        worst = max(worst, float(np.linalg.norm(parts[0] + parts[1] + parts[2])) / scale)
    return worst


# ---------------------------------------------------------------------------
# kernel quadrature: the 7-point Gauss-Legendre rule with refinement

_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0
QUAD_REL_TOL = 1e-8
MAX_SPLIT = 256


def split_cells(model, x0, x1, splits):
    """Yield (jump, generator, length) with each cell cut into ``splits`` equal parts."""
    for _, jump, gen, length, _ in cells(model, 0.0, x0, x1):
        for part in range(splits):
            yield (jump if part == 0 else None), gen, length / splits


def kernel_pass(model, a, b, splits):
    """Per-entry kernel double integrals with a 7-point rule on every cell."""
    n = model.n
    gram = np.zeros((n, 2 * n, 2 * n), dtype=complex)
    total = np.zeros((n, n))
    for jump, gen, length in split_cells(model, a, b, splits):
        if jump is not None:
            gram = jump @ gram @ jump.conj().T
        e = np.array([expm(gen * (x * length)) for x in _GL_X])
        w, top, right = _GL_W * length, e[:, :n, :], e[:, :, n:]
        total += np.einsum("p,pik,jkl,pil->ij", w, top, gram, top.conj()).real
        total += np.einsum("p,pij->ij", w * (1.0 - _GL_X) * length, np.abs(right[:, :n]) ** 2)
        step = expm(gen * length)
        gram = step @ gram @ step.conj().T + np.einsum("p,pkj,plj->jkl", w, right, right.conj())
    return total


def solution_norm_pass(model, a, b, splits):
    n = model.n
    total = 0.0
    t = transfer(model, 0.0, 0.0, a)
    for jump, gen, length in split_cells(model, a, b, splits):
        if jump is not None:
            t = jump @ t
        e = np.array([expm(gen * (x * length)) for x in _GL_X])
        total += float(np.einsum("p,pij->", _GL_W * length, np.abs((e @ t)[:, :n]) ** 2))
        t = expm(gen * length) @ t
    return total


def refined(model, one_pass, rel_tol=QUAD_REL_TOL):
    """One pass for step and delta models; otherwise passes at 1, 2, 4, ... splits
    until two agree to ``rel_tol`` of the largest entry."""
    if classical(model):
        return one_pass(1)
    prev, splits = None, 1
    while splits <= MAX_SPLIT:
        cur = one_pass(splits)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
            return cur
        prev, splits = cur, splits * 2
    raise RuntimeError("kernel quadrature did not stabilize")


def interval_kernel_pass(model, a, b, scalar=None, dtype=None):
    """The exact kernel pass of sldl over the cells of [a, b] alone, one cell at a time.

    Takes the cell integrals from sldl and the jumps and propagators from the
    walk above, and keeps a Gram loop of its own for the single interval: the
    per-interval pass that a pass over several intervals has to equal bit for
    bit. Order-1 step and delta models (``scalar`` None or True) carry the Gram
    entries in Python floats, reading dS from each jump matrix and the
    powers of L from the cell integrals; otherwise (``scalar`` False too) each
    cell is a product with its jump and propagator, each adjoint taken per cell,
    and each trace per cell. The Gram matrices are real where the cells are,
    or of ``dtype`` when given (``complex``: the complex loop of general models).
    """
    n = model.n
    w, tri, v = _cell_integrals(model, _cells(model, 0.0, [(a, b)]))
    walk = [(jump, expm(gen * length)) for _, jump, gen, length, _ in cells(model, 0.0, a, b)]
    if (n == 1 and classical(model)) if scalar is None else scalar:
        total = ga = gb = gc = 0.0  # the Gram matrix [[ga, gb], [gb, gc]]
        for (jump, _), w_c, tri_c in zip(walk, w, tri):
            length, half, third = float(w_c[0, 0, 0]), float(w_c[0, 0, 1]), float(w_c[0, 1, 1])
            if jump is not None:
                ds = float(jump[1, 0].real)
                kicked = gb + ds * ga
                gc = gc + ds * (gb + kicked)
                gb = kicked
            total += length * ga + half * gb + half * gb + third * gc + float(tri_c[0, 0])
            across = gb + length * gc
            ga = ga + length * gb + across * length + third
            gb, gc = across + half, gc + length
        return np.array([[total]])
    wt = w.transpose(0, 1, 3, 2).reshape(len(w), n, 4 * n * n)
    dtype = dtype or (float if real_cells(model, 0.0) else complex)
    gram, total = np.zeros((n, 2 * n, 2 * n), dtype=dtype), np.zeros((n, n))
    for (jump, step), wt_c, tri_c, v_c in zip(walk, wt, tri, v):
        if jump is not None:
            gram = jump @ gram @ jump.conj().T
        total += (wt_c @ gram.reshape(n, -1).T).real + tri_c
        gram = step @ gram @ step.conj().T + v_c
    return total


def exact_t1_square(model, a, b) -> Fraction:
    """The squared t1 term of [a, b] for a step or delta model, any order n, in exact arithmetic.

    The kernel pass of sldl in Fraction arithmetic, from the float dS and
    lengths L of the walk above. Channel j carries the Gram matrix
    [[A, B], [B^T, C]] in order-n blocks. A kick by dS makes B' = B + A dS and
    C' = C + dS A dS + B^T dS + dS B; the cell adds
    L tr A + L^2 tr B + (L^3/3) tr C + L^4/12; the drift makes
    A' = A + L (B + B^T) + L^2 C + (L^3/3) E_j, B' = B + L C + (L^2/2) E_j and
    C' = C + L E_j, with E_j = e_j e_j^T.
    """
    assert classical(model)
    n = model.n
    exact = np.vectorize(lambda v: Fraction(float(v)), otypes=[object])
    zero = exact(np.zeros((n, n)))
    grams = [(zero, zero, zero)] * n
    total = Fraction(0)
    for _, jump, _, length, _ in cells(model, 0.0, a, b):
        ln = Fraction(length)
        ds = None if jump is None else exact(jump[n:, :n].real)
        for j, (ga, gb, gc) in enumerate(grams):
            if ds is not None:
                ga, gb, gc = ga, gb + ga @ ds, gc + ds @ ga @ ds + gb.T @ ds + ds @ gb
            total += ln * np.trace(ga) + ln ** 2 * np.trace(gb) + ln ** 3 / 3 * np.trace(gc)
            total += ln ** 4 / 12
            e = exact(np.diag(np.eye(n)[j]))
            grams[j] = (ga + ln * (gb + gb.T) + ln ** 2 * gc + ln ** 3 / 3 * e,
                        gb + ln * gc + ln ** 2 / 2 * e, gc + ln * e)
    return total


def kernel_square_integrals(model, a, b, rel_tol=QUAD_REL_TOL):
    return refined(model, lambda splits: kernel_pass(model, a, b, splits), rel_tol)


def solution_norm_integral(model, a, b, rel_tol=QUAD_REL_TOL):
    return refined(model, lambda splits: solution_norm_pass(model, a, b, splits), rel_tol)


# ---------------------------------------------------------------------------
# the kernel pass in fixed point: a complex matrix is a pair (re, im) of
# object arrays of Python ints, each value v held as floor(v * 2**FIXED_BITS)

FIXED_BITS = 140
_ONE = 1 << FIXED_BITS


def _fixed(a):
    a = np.asarray(a, dtype=complex)
    exact = np.vectorize(lambda v: math.floor(Fraction(v) * _ONE), otypes=[object])
    return exact(a.real), exact(a.imag)


def _fmul(a, b):
    (ar, ai), (br, bi) = a, b
    return (ar @ br - ai @ bi) >> FIXED_BITS, (ar @ bi + ai @ br) >> FIXED_BITS


def _fadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _fdiv(a, k):
    return a[0] // k, a[1] // k


def _fscale(a, x):
    """a times the fixed-point scalar x."""
    return (a[0] * x) >> FIXED_BITS, (a[1] * x) >> FIXED_BITS


def _taylor(step, y, bound):
    """Yield (k, y_k), the Taylor coefficients of y(u) = sum y_k u^k with y' = step(y).

    Stops past the k = ``bound`` (at least the ratio bound 2 ||G L||_F, so
    the coefficients decay from there on) once a coefficient falls below
    16 units of the last place.
    """
    k = 0
    while True:
        yield k, y
        y = _fdiv(step(y), k + 1)
        k += 1
        if k > bound and max(abs(v) for v in (*y[0].flat, *y[1].flat)) < 16:
            return


def fixed_t1_term(model, a, b) -> Fraction:
    """The t1 term of [a, b] for a general or distributional model, to about 42 digits.

    The kernel pass of sldl in exact integer arithmetic, truncated to
    FIXED_BITS after each product: on each cell of length L, with G L
    converted exactly to fixed point and u = s / L, E = exp(G L),
    W_i = L int_0^1 Y_i du and the triangle L^2 int_0^1 (1 - u) Y_i du with
    Y_i(u) = E(uL)* e_i e_i^T E(uL), and V_j = L int_0^1 Z_j du with
    Z_j(u) = E(uL) e_{n+j} e_{n+j}^T E(uL)*, all from Taylor series in u.
    """
    n, m = model.n, 2 * model.n
    cells = _cells(model, 0.0, [(a, b)])
    zero = _fixed(np.zeros((m, m)))
    grams, total = [zero] * n, 0
    for g, length in zip(cells.gen, cells.length):
        ln = math.floor(Fraction(length) * _ONE)
        gl = _fscale(_fixed(g), ln)
        gh = gl[0].T, -gl[1].T
        bound = 2.0 * float(np.linalg.norm(g)) * length + 2.0
        e = zero
        for _, term in _taylor(lambda y: _fmul(gl, y), _fixed(np.eye(m)), bound):
            e = _fadd(e, term)
        for i in range(n):
            w = tri = zero
            for k, y in _taylor(lambda y: _fadd(_fmul(gh, y), _fmul(y, gl)),
                                _fixed(np.diag(np.eye(m)[i])), bound):
                w, tri = _fadd(w, _fdiv(y, k + 1)), _fadd(tri, _fdiv(y, (k + 1) * (k + 2)))
            w, tri = _fscale(w, ln), _fscale(_fscale(tri, ln), ln)
            for j, gram in enumerate(grams):
                total += int(np.sum(w[0] * gram[0].T - w[1] * gram[1].T)) >> FIXED_BITS
                total += tri[0][n + j, n + j]
        eh = e[0].T, -e[1].T
        for j in range(n):
            v = zero
            for k, z in _taylor(lambda z: _fadd(_fmul(gl, z), _fmul(z, gh)),
                                _fixed(np.diag(np.eye(m)[n + j])), bound):
                v = _fadd(v, _fdiv(z, k + 1))
            grams[j] = _fadd(_fmul(_fmul(e, grams[j]), eh), _fscale(v, ln))
    return Fraction(math.isqrt(total << FIXED_BITS), _ONE)
