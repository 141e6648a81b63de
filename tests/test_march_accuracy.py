"""Accuracy of the kick-drift march and of solution norms, against 50-digit references.

At lam = 0 an order-1 step or delta model is marched in Python float
arithmetic, column by real column: f' = dS f + f' at each jump, then
f = f + L f' across the cell. The same march in 50-digit arithmetic
(mpmath), from the same float jumps and lengths, is the reference. On every
fixture the worst normwise error of the samples, ||T - T_ref||_F / ||T_ref||_F,
must stay within twice that of the per-cell BLAS march (one real 2 x 2
product per jump and per propagator) and below 1e-13.

Solution-norm integrals int_a^b (||Phi||^2 + ||Psi||^2) read the states of
one march from 0. Their reference is the 50-digit march from 0, of order n
with block jumps and flights, with each cell's integral
L |f|^2 + L^2 <f, g> + (L^3/3) |g|^2 taken exactly; the bounds are fixed:
1e-14 relative on christ-stolz windows that start deep in the lattice, where
sigma is about -3.6e6, and 1e-13 on the seeded models of order 1 and 2.
"""

import numpy as np
import pytest

import reference_march
from sldl import DeltaNodes, StepSigma, fundamental_pair, gallery_entry, solution_norm_integral
from sldl.quasidiff import piece_cuts, transfer

BOUND = 1e-13


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


def mp_march(mp, model, x0, x1, stops=()):
    """{cell end: the quasi-coordinate transfer matrix from x0}, marched to 50 digits."""
    f, g = [mp.mpc(1), mp.mpc(0)], [mp.mpc(0), mp.mpc(1)]
    out = {}
    for piece, jump, _, length, end in reference_march.cells(model, 0.0, x0, x1, stops):
        if jump is not None:
            ds = mp.mpc(complex(jump[1, 0]))
            g = [ds * a + b for a, b in zip(f, g)]
        f = [a + length * b for a, b in zip(f, g)]
        s = mp.mpc(complex(model.values[piece][0, 0]))
        out[end] = mp.matrix([f, [b - s * a for a, b in zip(f, g)]])
    return out


def mp_solution_norm(mp, model, a, b):
    """int_a^b (||Phi||^2 + ||Psi||^2) over the cells of a 50-digit march from 0, each exactly.

    The state is the real 2n x 2n propagator in classical coordinates, f its
    top rows and g its bottom rows: a jump adds dS f to g, a flight L g to f.
    """
    n = model.n
    state = [[mp.mpf(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    f, g, total = state[:n], state[n:], mp.mpf(0)
    for _, jump, _, length, end in reference_march.cells(model, 0.0, 0.0, b, (a,)):
        if jump is not None:
            ds = [[mp.mpf(float(h)) for h in row[:n]] for row in jump[n:]]
            g = [[v + mp.fsum(h * col for h, col in zip(hs, cols)) for v, cols in zip(gs, zip(*f))]
                 for hs, gs in zip(ds, g)]
        if end > a:
            span = mp.mpf(length)
            total += mp.fsum(span * u * u + span ** 2 * u * v + span ** 3 / 3 * v * v
                             for fs, gs in zip(f, g) for u, v in zip(fs, gs))
        f = [[u + length * v for u, v in zip(fs, gs)] for fs, gs in zip(f, g)]
    return total


def solution_norm_error(mp, model, a, b) -> float:
    want = mp_solution_norm(mp, model, a, b)
    return float(abs(solution_norm_integral(model, a, b) - want) / want)


def worst_error(mp, got, want) -> float:
    """max over the samples of ||got - want||_F / ||want||_F."""
    return max(float(mp.mnorm(mp.matrix(g.tolist()) - w, "f") / mp.mnorm(w, "f"))
               for g, w in zip(got, want))


def fixture_errors(mp, model, grid, x0):
    """Worst errors of sldl's and of the per-cell BLAS march over the pair samples on the grid
    and the transfer matrices over [x0, X] and [0, x0]."""
    exact = mp_march(mp, model, 0.0, grid[-1], stops=grid)
    want = [exact[x] for x in grid[1:]]
    got = list(fundamental_pair(model, 0.0, grid).samples[1:])
    blas = list(reference_march.fundamental_samples(model, 0.0, grid,
                                                    step=reference_march.matrix_step)[1:])
    for a, b in ((x0, model.X), (0.0, x0)):
        want.append(mp_march(mp, model, a, b)[b])
        got.append(transfer(model, 0.0, a, b))
        blas.append(reference_march.transfer(model, 0.0, a, b, step=reference_march.matrix_step))
    return worst_error(mp, got, want), worst_error(mp, blas, want)


def symmetric(rng, n, bound):
    """400 / n symmetric n x n matrices of entries up to bound; at n = 1 the draws themselves.

    Order-2 solutions grow faster: over 400 cells they leave the float range.
    """
    a = rng.uniform(-bound, bound, (400 // n, n, n))
    return (a + a.transpose(0, 2, 1)) / 2


def random_delta(seed: int, n: int = 1) -> DeltaNodes:
    rng = np.random.default_rng(seed)
    return DeltaNodes.from_spacings(n, rng.uniform(0.05, 2.0, 400 // n), symmetric(rng, n, 5.0))


def random_step(seed: int, n: int = 1) -> StepSigma:
    rng = np.random.default_rng(seed)
    cuts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, 400 // n - 1))])
    return StepSigma(n, tuple(cuts), symmetric(rng, n, 3.0), cuts[-1] + 1.0)


def off_cut_grid(model, seed: int):
    """0, the inner cuts, and one seeded point inside every piece."""
    rng = np.random.default_rng(seed)
    ends = np.array([*piece_cuts(model), model.X])
    inner = ends[:-1] + rng.uniform(0.1, 0.9, len(ends) - 1) * np.diff(ends)
    return (0.0, *sorted({*ends[1:-1].tolist(), *inner.tolist()}))


def test_christ_stolz_march_is_within_twice_the_blas_error(mp):
    model = gallery_entry("christ-stolz").problem
    grid = (0.0,) + model.nodes
    assert len(grid) == 2001
    got, blas = fixture_errors(mp, model, grid, model.nodes[100] + 0.25 * model.spacings[101])
    assert got <= min(2.0 * blas, BOUND)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("build", [random_delta, random_step], ids=["delta", "step"])
def test_seeded_marches_are_within_twice_the_blas_error(mp, build, seed):
    model = build(seed)
    grid = off_cut_grid(model, seed)
    got, blas = fixture_errors(mp, model, grid, grid[3])  # x0 inside the second piece
    assert got <= min(2.0 * blas, BOUND)


@pytest.mark.parametrize("k", [1000, 1900])
def test_christ_stolz_solution_norms_deep_in_the_lattice(mp, k):
    # from 30 % into piece k to the middle of piece k + 5; a prefix transfer
    # in quasi coordinates, turned back by f' = f1 + sigma f, read 1.5e-14
    # and 5.4e-14 here
    model = gallery_entry("christ-stolz").problem
    cuts, d = piece_cuts(model), model.spacings
    a, b = cuts[k] + 0.3 * d[k], cuts[k + 5] + 0.5 * d[k + 5]
    assert solution_norm_error(mp, model, a, b) <= 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("build", [random_delta, random_step], ids=["delta", "step"])
def test_seeded_solution_norms_past_the_middle(mp, build, n, seed):
    model = build(seed, n)
    for a, b in ((0.5 * model.X, model.X), (0.6 * model.X, 0.8 * model.X)):
        assert solution_norm_error(mp, model, a, b) <= 1e-13
