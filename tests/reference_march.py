"""Step-at-a-time reference marches for the stacked marches of sldl.

Each function here redoes one march the plain way: one ``np.linalg.solve``
(in ``inverse_march``, one product with the stored inverse) per lattice
step, one ``invert`` per kernel row, and one ``np.block`` jump and one
``expm`` per continuous cell, in the same float operation order as the
stacked code. The tests compare with ``np.array_equal`` (``tobytes`` for
``inverse_march``, and ``==`` for the residual float), so any change of
that order shows.

The kernel and solution-norm integrals are kept in their quadrature form:
a 7-point Gauss-Legendre rule on every cell, refined by halving the cells
of general models until two passes agree to a relative tolerance (1e-8,
the old rule of sldl, by default). The exact cell integrals of sldl are
compared with it.
"""

import math

import numpy as np

from sldl.bridge import nodes_to_Z
from sldl.jacobi import blocks_from_delta
from sldl.matcore import block2n, invert
from sldl.quasidiff import DeltaNodes, _sigma_of, expm, piece_cuts, piece_index, piece_system

# ---------------------------------------------------------------------------
# lattice side


def march(blocks, prev, cur, start, stop):
    """u_{m+1} = -solve(B_m, A_m u_m + B*_{m-1} u_{m-1}) for m = start .. stop - 1."""
    out = []
    for m in range(start, stop):
        rhs = blocks.A_at(m) @ cur + blocks.B_at(m - 1).conj().T @ prev
        prev, cur = cur, -np.linalg.solve(blocks.B_at(m), rhs)
        out.append(cur)
    return out


def inverse_march(blocks, prev, cur, start, stop):
    """u_{m+1} = -(B_m^-1 @ (A_m @ u_m + B*_{m-1} @ u_{m-1})), one matmul step at a time.

    The step takes B_m^-1 from ``blocks.B_inv``. A solve reaches the same
    values, but not always the same zero signs; this march fixes them.
    """
    out = []
    for m in range(start, stop):
        rhs = blocks.A_at(m) @ cur + blocks.B_star[m - 1 - blocks.offset] @ prev
        prev, cur = cur, -(blocks.B_inv[m - blocks.offset] @ rhs)
        out.append(cur)
    return out


def solve_recurrence(blocks, u0, u1, count, march=march):
    u0, u1 = np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex)
    return np.array([u0, u1] + march(blocks, u0, u1, 1, count - 1))


def discrete_cauchy(blocks, i, j, march=march):
    n = blocks.n
    if i == j:
        return np.zeros((n, n), dtype=complex)
    steps = march(blocks, np.zeros((n, n), dtype=complex), invert(blocks.B_at(j)), j + 1, i)
    return steps[-1] if steps else invert(blocks.B_at(j))


def t4_term(blocks, n_k, m_k):
    n = blocks.n
    eye = np.eye(2 * n)
    gram = np.zeros((2 * n, 2 * n), dtype=complex)
    total = 0.0
    for i in range(n_k, m_k):
        if i > n_k:
            (top,) = march(blocks, eye[n:], eye[:n], i, i + 1)
            step = np.vstack([top, eye[:n]])
            gram = step @ gram @ step.conj().T
        binv = invert(blocks.B_at(i))
        gram[:n, :n] += binv @ binv.conj().T
        total += float(np.trace(gram[:n, :n]).real)
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# continuous side


def _jump(ds):
    eye = np.eye(ds.shape[0])
    return block2n(eye, 0 * eye, ds, eye)


def cells(model, lam, x0, x1, stops=()):
    """Yield (piece, jump, generator, length, end) per cell, one matrix at a time."""
    sigma = _sigma_of(model)
    delta = model if isinstance(model, DeltaNodes) else None
    eye = np.eye(model.n)
    flight = block2n(0 * eye, eye, -lam * eye, 0 * eye)
    cuts = piece_cuts(model)
    marks = iter([x for x in stops if x0 < x < x1])
    mark = next(marks, x1)
    i, pos = piece_index(model, x0), x0
    while pos < x1:
        end = cuts[i + 1] if i + 1 < len(cuts) else model.X
        stop = min(end, mark)
        if sigma is None:
            jump, gen = None, piece_system(model, lam, i)
        else:
            jump, gen = None, flight
            if pos == x0:
                jump = _jump(sigma.values[i])
            elif pos == cuts[i]:
                jump = _jump(delta.jumps[i - 1] if delta else sigma.values[i] - sigma.values[i - 1])
        full = delta is not None and pos == cuts[i] and stop == end and i < len(cuts) - 1
        yield i, jump, gen, (delta.spacings[i] if full else stop - pos), stop
        if stop == mark:
            mark = next(marks, x1)
        if stop == end:
            i += 1
        pos = stop


def flow(model, lam, y, x0, x1, stops=()):
    for piece, jump, gen, length, end in cells(model, lam, x0, x1, stops):
        if jump is not None:
            y = jump @ y
        y = expm(gen * length) @ y
        yield piece, y, end


def to_quasi(model, piece, y):
    sigma = _sigma_of(model)
    return y if sigma is None else _jump(-sigma.values[piece]) @ y


def transfer(model, lam, x0, x1):
    m, piece = np.eye(2 * model.n, dtype=complex), None
    for piece, m, _ in flow(model, lam, m, x0, x1):
        pass
    return m if piece is None else to_quasi(model, piece, m)


def fundamental_samples(model, lam, grid):
    """The stacked 2n x 2n samples [[Phi, Psi], [Phi1, Psi1]] on the grid."""
    n = model.n
    t = np.empty((len(grid), 2 * n, 2 * n), dtype=complex)
    t[0] = np.eye(2 * n)
    k = 1
    for piece, y, end in flow(model, lam, t[0], 0.0, grid[-1], stops=grid):
        if end == grid[k]:
            t[k] = to_quasi(model, piece, y)
            k += 1
    return t


def equivalence_residual(model, count, seed_state):
    y = np.concatenate([seed_state.f, seed_state.f1])
    samples = [y[:model.n] for _, y, _ in flow(model, 0.0, y, 0.0, model.nodes[-1])]
    u = np.vstack([np.zeros((1, model.n), dtype=complex), nodes_to_Z(samples, model.spacings)])
    blocks = blocks_from_delta(model.spacings, model.jumps)
    worst = 0.0
    for k in range(2, count + 2):
        parts = (blocks.B_at(k) @ u[k + 1], blocks.A_at(k) @ u[k],
                 blocks.B_at(k - 1).conj().T @ u[k - 1])
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
    if _sigma_of(model) is not None:
        return one_pass(1)
    prev, splits = None, 1
    while splits <= MAX_SPLIT:
        cur = one_pass(splits)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
            return cur
        prev, splits = cur, splits * 2
    raise RuntimeError("kernel quadrature did not stabilize")


def kernel_square_integrals(model, a, b, rel_tol=QUAD_REL_TOL):
    return refined(model, lambda splits: kernel_pass(model, a, b, splits), rel_tol)


def solution_norm_integral(model, a, b, rel_tol=QUAD_REL_TOL):
    return refined(model, lambda splits: solution_norm_pass(model, a, b, splits), rel_tol)
