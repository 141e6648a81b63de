"""States and results in the dtype of their data.

The marches and everything read off them follow the one dtype rule of
``matcore.inexact``. Real blocks or cells with a real start give float64, and
its bytes are the real parts of the complex references in
``reference_march``, whose imaginary parts are zero. A start with an
imaginary part, complex blocks or coefficients and a spectral parameter off
zero give complex128.
"""

import numpy as np
import pytest
import reference_march
from conftest import random_symmetric, real_parts

from sldl.bridge import nodes_to_Z
from sldl.jacobi import (
    JacobiBlocks,
    blocks_from_delta,
    christ_stolz_family,
    discrete_cauchy,
    solve_recurrence,
)
from sldl.quasidiff import (
    DeltaNodes,
    Distributional,
    GeneralTriple,
    QuasiState,
    StepSigma,
    cauchy_kernel,
    fundamental_pair,
    propagate,
    transfer,
)


def lattices():
    """Real christ-stolz blocks at orders 1 and 2, and perturbed real blocks of order 2."""
    d, H = christ_stolz_family(402)
    rng = np.random.default_rng(29)
    perturbed = H[:, :1, :1] * np.eye(2) + np.array([random_symmetric(rng, 2, 0.5) for _ in H])
    return [blocks_from_delta(d, H), blocks_from_delta(*christ_stolz_family(402, 2)),
            blocks_from_delta(d, perturbed)]


def models():
    """Real step and delta models of orders 1 and 2, a real general triple of order 1 and a
    real distributional model of order 2 with Q0 = O."""
    rng = np.random.default_rng(31)
    out = []
    for n in (1, 2):
        jumps = [random_symmetric(rng, n, 2.0) for _ in range(6)]
        out.append(DeltaNodes(n, tuple(0.7 * k for k in range(1, 7)), jumps, 5.1))
        out.append(StepSigma(n, (0.0, 1.3, 2.9), [random_symmetric(rng, n, 2.0) for _ in range(3)],
                             4.0))
    out.append(real_triple())
    p0 = [np.eye(2) + random_symmetric(rng, 2, 0.3) for _ in range(3)]
    p1 = [random_symmetric(rng, 2, 1.0) for _ in range(3)]
    out.append(Distributional(2, (0.0, 1.3, 2.9), p0, [np.zeros((2, 2))] * 3, p1, 4.0))
    return out


def real_triple(r=0.25):
    """A general triple of order 1 with real P and Q and second R piece ``r``."""
    return GeneralTriple(1, (0.0, 1.5), [[[1.0]], [[2.0]]], [[[0.5]], [[-0.5]]],
                         [[[0.0]], [[r]]], 4.0)


LATTICES = ["christ-stolz", "christ-stolz-2", "perturbed-2"]
MODELS = ["delta-1", "step-1", "delta-2", "step-2", "general-1", "distributional-2"]
GRID = (0.0, 0.35, 1.3, 2.2, 3.5, 4.0)


@pytest.mark.parametrize("blocks", lattices(), ids=LATTICES)
def test_real_lattices_march_real_seeds_in_float64(blocks):
    n, step = blocks.n, reference_march.inverse_march
    for u0, u1 in ((np.ones(n), np.zeros(n)), (np.arange(n) - 0.5, [-0.0] * n)):
        got = solve_recurrence(blocks, u0, u1, 400)
        assert got.dtype == np.float64
        assert got.tobytes() == real_parts(
            reference_march.solve_recurrence(blocks, u0, u1, 400, step)).tobytes()
    for i, j in ((3, 3), (4, 3), (9, 3), (399, 150)):
        got = discrete_cauchy(blocks, i, j)
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == real_parts(
            reference_march.discrete_cauchy(blocks, i, j, step)).tobytes()


@pytest.mark.parametrize("blocks", lattices(), ids=LATTICES)
def test_complex_seeds_and_complex_blocks_march_in_complex128(blocks):
    n = blocks.n
    seeds = ((np.full(n, 1.0 + 0.5j), np.zeros(n)), (np.ones(n), np.full(n, -2j)))
    for u0, u1 in seeds:
        got = solve_recurrence(blocks, u0, u1, 400)
        assert got.dtype == np.complex128 and got[:, 0].imag.any()
        if n == 1:  # Python complex arithmetic: the bits of the complex loop
            want = reference_march.solve_recurrence(blocks, u0, u1, 400,
                                                    reference_march.complex_march)
            assert got.tobytes() == want.tobytes()
    B = blocks.B.astype(complex)
    B[5] = B[5] * np.exp(0.25j)  # one complex block makes both stacks complex
    cplx = JacobiBlocks(n, blocks.A, B)
    assert cplx.A.dtype == np.complex128
    assert solve_recurrence(cplx, np.ones(n), np.zeros(n), 400).dtype == np.complex128
    for i, j in ((3, 3), (4, 3), (399, 150)):
        assert discrete_cauchy(cplx, i, j).dtype == np.complex128


@pytest.mark.parametrize("model", models(), ids=MODELS)
def test_real_cells_give_float64_transfers_pairs_kernels_and_states(model):
    n = model.n
    got = transfer(model, 0.0, 0.35, 3.5)
    assert got.dtype == np.float64
    assert got.tobytes() == real_parts(reference_march.transfer(model, 0.0, 0.35, 3.5)).tobytes()
    pair = fundamental_pair(model, 0.0, GRID)
    want = real_parts(reference_march.fundamental_samples(model, 0.0, GRID))
    assert pair.samples.dtype == np.float64 and pair.samples.tobytes() == want.tobytes()
    for view in (pair.phi, pair.psi, pair.phi1, pair.psi1):
        assert view.dtype == np.float64
    kernel = cauchy_kernel(pair, 3.5, 1.3)
    phi, psi = want[:, :n, :n], want[:, :n, n:]
    assert kernel.dtype == np.float64
    assert kernel.tobytes() == (psi[4] @ phi[2].T - phi[4] @ psi[2].T).tobytes()
    state = QuasiState(np.linspace(-1.0, 1.0, n), np.ones(n))
    assert state.f.dtype == state.f1.dtype == np.float64
    moved = propagate(model, 0.0, state, 0.35, 3.5)
    y = real_parts(reference_march.transfer(model, 0.0, 0.35, 3.5)) @ np.r_[state.f, state.f1]
    assert moved.f.dtype == moved.f1.dtype == np.float64
    assert moved.f.tobytes() == y[:n].tobytes() and moved.f1.tobytes() == y[n:].tobytes()


@pytest.mark.parametrize("model", models(), ids=MODELS)
def test_complex_cells_and_complex_states_give_complex128(model):
    n = model.n
    assert transfer(model, 0.5j, 0.35, 3.5).dtype == np.complex128
    pair = fundamental_pair(model, 0.5j, GRID)
    assert pair.samples.dtype == pair.phi.dtype == np.complex128
    state = QuasiState(np.full(n, 1j), np.ones(n))
    assert state.f.dtype == np.complex128 and state.f1.dtype == np.float64
    moved = propagate(model, 0.0, state, 0.35, 3.5)
    assert moved.f.dtype == moved.f1.dtype == np.complex128


def test_general_triples_march_in_the_dtype_of_their_coefficients():
    # real coefficients give float64 at lam = 0, as every real model does; a complex R
    # piece gives complex128, and so does a spectral parameter off zero
    for model, dtype in ((real_triple(), np.float64), (real_triple(0.25 + 0.5j), np.complex128)):
        assert model.R.dtype == model.generators.dtype == dtype
        pair = fundamental_pair(model, 0.0, (0.0, 1.0, 3.0))
        assert pair.samples.dtype == dtype
        assert transfer(model, 0.0, 0.0, 3.0).dtype == dtype
        assert cauchy_kernel(pair, 3.0, 1.0).dtype == dtype
        assert transfer(model, 0.5, 0.0, 3.0).dtype == np.complex128


def test_node_samples_rescale_in_the_dtype_of_their_data():
    d = [0.5, 1.0, 0.25, 2.0]
    samples = np.array([[1.0, -2.0], [0.5, 0.0], [3.0, 1e-300], [-1.0, 2.0]])
    for f in (samples, samples + 0j, samples.tolist()):
        got = nodes_to_Z(f, d)
        assert got.dtype == np.float64
        assert got.tobytes() == reference_march.nodes_to_Z(list(samples + 0j), d).tobytes()
    got = nodes_to_Z(samples * (1.0 - 0.5j), d)
    assert got.dtype == np.complex128
    assert got.tobytes() == reference_march.nodes_to_Z(list(samples * (1.0 - 0.5j)), d).tobytes()
