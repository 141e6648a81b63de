"""Term-at-a-time references for the array passes of ``sldl.jacobi``.

Each function here computes its terms one lattice index at a time, with
the float operations of the array code: ``math.log`` for the power-law
exponent, products ``a * a`` where numpy squares (the cor3 spacing squares
among them), and one numpy expression per block (so a complex block
divided by a float takes numpy's complex division, and a block norm is
``frobenius_norm`` of that one block). The
tests compare with ``tobytes`` and ``==``, so any change of an operation
or of its order shows. A shifted jump H_k + (1/d_k + 1/d_{k+1}) I takes the
reciprocal sum on its diagonal only, so an infinite sum leaves the
off-diagonal entries finite. ``spacing_square_divergence`` decides on the
whole tail, from the term-at-a-time periodic floor and ``power_exponent``,
with no early exit; ``float_spacings`` takes each spacing by ``float``, as
``Lattice`` did before it converted them in one pass. ``weyl_log_sums`` is
an independent oracle for the limit point / limit circle truth of an order-1
lattice: Weyl's alternative at z = i, read from one solution of the
recurrence, marched in Python complex numbers.
"""

import math

import numpy as np

from reference_reports import periodic_positive_floor

from sldl.matcore import frobenius_norm
from sldl.reports import build_report


def shifted_jump(d, H, k: int) -> np.ndarray:
    """H_k + (1/d_k + 1/d_{k+1}) I for 1-based k, the sum added on the diagonal only."""
    h = np.asarray(H[k - 1], dtype=complex)
    with np.errstate(over="ignore"):
        r = 1.0 / d[k - 1] + 1.0 / d[k]
    return h + np.diag(np.full(h.shape[0], r))


def block_stacks(d, H):
    """(A, B) of ``blocks_from_delta(d, H)`` with the default boundary, built block by block."""
    n = np.asarray(H[0]).shape[0]
    eye = np.eye(n)
    A = [np.zeros((n, n), dtype=complex)]
    B = [-np.eye(n, dtype=complex)]
    for k in range(1, len(d)):
        A.append(shifted_jump(d, H, k) / (d[k - 1] + d[k]))
    for k in range(1, len(d) - 1):
        r = math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1]))
        B.append(-eye / (r * d[k]))
    return np.array(A), np.array(B)


def power_exponent(d):
    tail = d[len(d) // 2:]
    if len(tail) < 6:
        return None
    k0 = len(d) // 2 + 1
    ps = []
    for i in range(len(tail) - 1):
        if tail[i] <= 0.0 or tail[i + 1] <= 0.0:
            return None
        ratio = tail[i + 1] / tail[i]
        if ratio == 0.0 or ratio == math.inf:  # underflowed or overflowed: no power law
            return None
        ps.append(math.log(ratio) / math.log((k0 + i + 1) / (k0 + i)))
    mean = sum(ps) / len(ps)
    if max(abs(p - mean) for p in ps) <= 1e-6 * max(1.0, abs(mean)):
        return mean
    return None


def spacing_square_divergence(d):
    if len(d) < 8:
        return None
    hit = periodic_positive_floor(d[len(d) // 2:])
    if hit is not None:
        floor, p = hit
        kind = "constant" if p == 1 else f"periodic (period {p})"
        return f"eventually {kind} spacings with floor {floor:.6g}"
    p = power_exponent(d)
    if p is not None and p >= -0.5 - 1e-12:
        return f"power-law spacings with exponent {p:.6g} >= -1/2"
    return None


def float_spacings(d) -> np.ndarray:
    return np.fromiter(map(float, d), float)


def carleman_terms(blocks, N: int) -> list[float]:
    return [1.0 / frobenius_norm(blocks.B[k]) for k in range(1, N + 1)]


def cor3(d, H, N: int):
    """(cond1, direction, spacing report, jump report) of ``cor3_check``."""
    above = below = True
    for k in range(2, N + 1):
        lhs = math.sqrt((d[k - 2] + d[k - 1]) * (d[k + 1] + d[k + 2])) * d[k - 1] * d[k + 1]
        rhs = math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1])) * (d[k] * d[k])
        tol = 1e-12 * max(lhs, rhs)
        above = above and not lhs < rhs - tol
        below = below and not lhs > rhs + tol
    direction = "equal" if above and below else ">=" if above else "<=" if below else "mixed"
    spacing = [d[k - 1] * d[k - 1] for k in range(1, N + 1)]
    jump = [d[k] * frobenius_norm(shifted_jump(d, H, k)) for k in range(1, N + 1)]
    return (above or below, direction, build_report("cor3_spacing", spacing),
            build_report("cor3_jump", jump))


def t7(d, H, N: int):
    """Per parity s = 1, 2: (terms a, terms b, log terms a, overflow count) of ``t7_check``.

    Carries log ratio_j as a running sum of two logs per step and takes
    ``math.log`` and ``math.exp`` once per term, as the term loop did.
    """
    log_max = math.log(np.finfo(float).max)
    out = []
    for s in (1, 2):
        lr, ta, tb, la, overflowed = 0.0, [], [], [], 0
        for j in range(1, N + 1):
            lr += math.log(d[2 * j - 2 + s]) - math.log(d[2 * j - 3 + s])
            m = 2 * j + s - 1
            log_a = math.log(d[m - 1] + d[m]) + 2.0 * lr
            la.append(log_a)
            overflowed += log_a >= log_max
            ta.append(math.inf if log_a >= log_max else math.exp(log_a))
            nf = frobenius_norm(shifted_jump(d, H, m))
            if nf == 0.0:
                tb.append(0.0)
            else:
                log_b = 2.0 * lr + math.log(nf)
                tb.append(math.inf if log_b >= log_max else math.exp(log_b))
        out.append((ta, tb, la, overflowed))
    return out


def weyl_log_sums(blocks, count: int) -> list[float]:
    """log sum_{j <= k} |u_j|^2 for k = 1 .. count - 1 (entry k - 1), order-1 blocks.

    u solves u_{k+1} = -B_k^-1 ((A_k - i) u_k + B*_{k-1} u_{k-1}) from
    (u_0, u_1) = (0, 1), the recurrence (lu)_k = i u_k for k >= 1. The state
    and the sum are divided by 1e100 and 1e200 whenever |u_k| > 1e100, and
    the log of the scale is carried, so the sums of limit point lattices,
    which grow exponentially, stay in range. The sums diverge in the limit
    point case and converge in the limit circle case (Weyl's alternative;
    N. I. Akhiezer, The Classical Moment Problem, 1965, ch. 1).
    """
    assert blocks.n == 1
    A, B = blocks.A[:count, 0, 0].tolist(), blocks.B[:count, 0, 0].tolist()
    prev, cur, total, log_scale = 0j, 1 + 0j, 1.0, 0.0
    out = [math.log(total)]
    for k in range(1, count - 1):
        prev, cur = cur, -((A[k] - 1j) * cur + B[k - 1].conjugate() * prev) / B[k]
        if abs(cur) > 1e100:
            prev, cur, total = prev / 1e100, cur / 1e100, total / 1e200
            log_scale += 2.0 * math.log(1e100)
        total += abs(cur) ** 2
        out.append(math.log(total) + log_scale)
    return out
