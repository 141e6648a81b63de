"""Accuracy of the lattice recurrence march, against a 50-digit reference.

Lattice blocks are real, and ``solve_recurrence`` and ``discrete_cauchy``
march a real state in float64 and a state with an imaginary part in
complex128 on the same blocks: Python numbers at order 1, BLAS products at
order n >= 2. Every fixture marches one seed with an imaginary part; the
christ-stolz blocks of order 2 also march the seed ([1, 0.5i], [0, 1]) of
``scripts/march_sweep.py``. The reference marches
u_{k+1} = -B_k^{-1} (A_k u_k + B*_{k-1} u_{k-1}) in 50-digit arithmetic
(mpmath) on the same stored float blocks, with B_k^{-1} taken to 50 digits.
The bound is fixed: on every fixture the worst error of the states,
max |u_k - u_ref,k| / max |u_ref,k| over the entries of each state k, must
stay below 1e-12 and within twice that of the per-step complex solve, which
has the values of the complex march the lattice code used before its blocks
were real.
"""

import numpy as np
import pytest

import reference_march
from sldl import blocks_from_delta, christ_stolz_family, discrete_cauchy, solve_recurrence

BOUND = 1e-12
STEPS = 2000


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def lattice(kind):
    """Lattice blocks over 2002 christ-stolz spacings: cancelled or perturbed jumps."""
    d, H = christ_stolz_family(STEPS + 2)
    if kind == "christ-stolz":
        return blocks_from_delta(d, H)
    if kind == "christ-stolz-2":
        return blocks_from_delta(*christ_stolz_family(STEPS + 2, 2))
    n = int(kind[-1])
    rng = np.random.default_rng(40 + n)
    a = rng.uniform(-0.5, 0.5, (len(H), n, n))
    return blocks_from_delta(d, H[:, :1, :1] * np.eye(n) + (a + a.transpose(0, 2, 1)) / 2.0)


def mp_march(mp, blocks, prev, cur, start, stop):
    """u_{start+1} .. u_stop as (n, k) mp matrices, from (u_{start-1}, u_start)."""
    as_mp = lambda m: mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.atleast_2d(m)])
    prev, cur = (as_mp(np.reshape(u, (blocks.n, -1))) for u in (prev, cur))
    A = [as_mp(a) for a in blocks.A[start:stop]]
    B = [as_mp(b) for b in blocks.B[start - 1:stop]]
    out = []
    for a, b_prev, b in zip(A, B, B[1:]):
        prev, cur = cur, -(mp.inverse(b) * (a * cur + b_prev.H * prev))
        out.append(cur)
    return out


def worst_error(got, ref) -> float:
    """max_k ||got_k - ref_k|| / ||ref_k||; a zero reference state must be matched exactly."""
    worst = 0.0
    for g, r in zip(got, ref):
        g = np.reshape(g, (r.rows, r.cols))
        diff = max(abs(complex(g[i, j]) - r[i, j]) for i in range(r.rows) for j in range(r.cols))
        size = max(abs(r[i, j]) for i in range(r.rows) for j in range(r.cols))
        assert size > 0 or diff == 0
        worst = max(worst, float(diff / size) if size else 0.0)
    return worst


@pytest.mark.parametrize("kind", ["christ-stolz", "christ-stolz-2", "perturbed-1", "perturbed-2"])
def test_lattice_march_accuracy(mp, kind):
    blocks = lattice(kind)
    n = blocks.n
    rng = np.random.default_rng(7)
    seeds = [(np.ones(n), np.zeros(n)), (np.zeros(n), np.ones(n)),
             (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n))]
    if kind == "christ-stolz-2":
        seeds.append((np.array([1.0, 0.5j]), np.array([0.0, 1.0])))
    for u0, u1 in seeds:
        ref = mp_march(mp, blocks, u0, u1, 1, STEPS - 1)
        new = worst_error(solve_recurrence(blocks, u0, u1, STEPS)[2:], ref)
        old = worst_error(reference_march.solve_recurrence(blocks, u0, u1, STEPS)[2:], ref)
        assert new <= BOUND and new <= 2.0 * old, (new, old)
    for i, j in ((STEPS - 1, 1), (1500, 700)):
        first = blocks.B_inv[j]
        ref = mp_march(mp, blocks, np.zeros((n, n)), first, j + 1, i)[-1:]
        new = worst_error([discrete_cauchy(blocks, i, j)], ref)
        old = worst_error([reference_march.discrete_cauchy(blocks, i, j)], ref)
        assert new <= BOUND and new <= 2.0 * old, (new, old)
