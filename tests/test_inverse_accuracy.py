"""Accuracy of the inverses behind the one condition rule, against 60-digit references.

A block or piece is invertible when its condition estimate is at most
COND_LIMIT, and its inverse is one ``np.linalg.inv``. A backward-stable
inverse has a relative forward error of about eps times the condition, so
the kernels that read B_k^-1 and the P^-1 block of a generator must stay
within cond * eps of the same quantities computed from the same float
entries in 60-digit arithmetic (mpmath).
"""

import numpy as np
import pytest

from sldl import GeneralTriple, discrete_cauchy, t4_term
from sldl.jacobi import JacobiBlocks, blocks_from_delta
from sldl.matcore import condition

EPS = np.finfo(float).eps
CONDITIONS = [1e4, 1e7, 1e10, 1e12]


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        yield mpmath


def ill_conditioned(cond: float, seed: int) -> np.ndarray:
    """A 2 x 2 Hermitian matrix with singular values 1 and 1 / cond."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (q * np.array([1.0, 1.0 / cond])) @ q.conj().T


def lattice(cond: float) -> JacobiBlocks:
    """Unit-spacing n = 2 blocks (A_k = I, B_k = -I / 2) whose B_5 has the given condition."""
    base = blocks_from_delta([1.0] * 12, np.zeros((11, 2, 2)))
    B = base.B.astype(complex)  # lattice blocks are real
    B[5] = -0.5 * ill_conditioned(cond, 5)
    return JacobiBlocks(2, base.A, B)


def to_mp(mp, m):
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in m])


def mp_cauchy(mp, blocks, i, j):
    """K_ij, i > j, of the recurrence marched in mpmath: K_jj = O, K_{j+1,j} = B_j^-1."""
    A, B = [to_mp(mp, a) for a in blocks.A], [to_mp(mp, b) for b in blocks.B]
    prev, cur = mp.zeros(2, 2), mp.inverse(B[j])
    for m in range(j + 1, i):
        prev, cur = cur, -(mp.inverse(B[m]) * (A[m] * cur + B[m - 1].H * prev))
    return cur


def relative_error(mp, got, want) -> float:
    return float(mp.mnorm(to_mp(mp, got) - want, "f") / mp.mnorm(want, "f"))


@pytest.mark.parametrize("cond", CONDITIONS)
def test_lattice_kernels_through_an_ill_conditioned_block_are_within_cond_eps(mp, cond):
    blocks = lattice(cond)
    bound = float(condition(blocks.B[5])) * EPS
    assert bound == pytest.approx(cond * EPS, rel=1e-3)
    for i, j in ((6, 5), (9, 5), (9, 2), (11, 4)):
        want = mp_cauchy(mp, blocks, i, j)
        assert relative_error(mp, discrete_cauchy(blocks, i, j), want) <= bound
    for n_k, m_k in ((5, 6), (2, 9), (4, 11)):
        want = mp.sqrt(sum(mp.mnorm(mp_cauchy(mp, blocks, i, j), "f") ** 2
                           for i in range(n_k, m_k + 1) for j in range(n_k, i)))
        assert abs(t4_term(blocks, n_k, m_k) - want) <= bound * want


@pytest.mark.parametrize("cond", CONDITIONS)
def test_generator_inverse_block_of_an_ill_conditioned_piece_is_within_cond_eps(mp, cond):
    p = ill_conditioned(cond, 7)
    z = np.zeros((2, 2))
    model = GeneralTriple(2, (0.0, 1.0), (np.eye(2), p), (z, z), (z, z), 2.0)
    bound = float(condition(model.P[1])) * EPS
    want = mp.inverse(to_mp(mp, model.P[1]))
    assert relative_error(mp, model.generators[1][:2, 2:], want) <= bound
