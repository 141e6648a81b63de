"""Accuracy of the t1 terms of step and delta models, against exact references.

``reference_march.exact_t1_square`` is the kernel pass of sldl in Fraction
arithmetic, from the same float jumps and lengths, so the squared term it
returns has no rounding at all. The errors are set against those of the
per-cell complex matrix loop (one complex product per jump and per
propagator, each trace per cell). Order-1 models at lam = 0 carry their Gram
entries in Python floats; on every order-1 fixture the worst relative error
of a term must stay within four times that of the complex loop, or 64 eps
where that loop is nearly exact, and below 1e-12. Orders 2 and 3 carry real
Gram matrices through the kick and drift products and take the traces after
the loop; their terms must stay below 1e-12 as well, and on seeds 13-16 each
term within twice the complex loop's error of that term, or 64 eps. The
fixtures are fixed: seeded random models of 60 cells with jumps up to 6 in
modulus, and windows of 60 cells of the christ-stolz model.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference_march
from sldl import DeltaNodes, IntervalSeq, StepSigma, gallery_entry, t1_series

BOUND = 1e-12
EPS = np.finfo(float).eps
CELLS = 60


def symmetric(rng, n, bound):
    a = rng.uniform(-bound, bound, (CELLS, n, n))
    return (a + a.transpose(0, 2, 1)) / 2


def random_delta(n: int, seed: int) -> DeltaNodes:
    rng = np.random.default_rng(seed)
    return DeltaNodes.from_spacings(n, rng.uniform(0.05, 2.0, CELLS), symmetric(rng, n, 6.0))


def random_step(n: int, seed: int) -> StepSigma:
    """Sigma levels up to 3 in modulus, so each change of sigma is up to 6."""
    rng = np.random.default_rng(seed)
    cuts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, CELLS - 1))])
    return StepSigma(n, tuple(cuts), symmetric(rng, n, 3.0), cuts[-1] + 1.0)


def seeded_intervals(model) -> IntervalSeq:
    """Three intervals: from 0 to the 20th cut, and two between midpoints of pieces."""
    ends = np.array([*model.cuts, model.X])
    mid = (ends[:-1] + ends[1:]) / 2
    return IntervalSeq(((0.0, ends[20]), (mid[25], mid[45]), (mid[50], model.X)))


def christ_stolz_windows() -> IntervalSeq:
    """From the midpoint of cell k to that of cell k + 60, for k = 0, 600 and 1900."""
    nodes = (0.0, *gallery_entry("christ-stolz").problem.nodes)
    mid = [(a + b) / 2 for a, b in zip(nodes, nodes[1:])]
    return IntervalSeq(tuple((mid[k], mid[k + CELLS]) for k in (0, 600, 1900)))


def relative_error(term: float, square: Fraction) -> float:
    """|term - r| / r for r = sqrt(square), as |term^2 - square| / square / (1 + term / r)."""
    root = math.sqrt(square)
    return float(abs(Fraction(term) ** 2 - square) / square) / (1.0 + term / root)


def term_errors(model, intervals):
    """Relative errors of sldl's terms and of the per-cell complex matrix loop's, term by term."""
    exact = [reference_march.exact_t1_square(model, a, b) for a, b in intervals.intervals]
    terms = t1_series(model, intervals).terms
    matrix = [reference_march.interval_kernel_pass(model, a, b, False, complex)
              for a, b in intervals.intervals]
    return ([relative_error(t, s) for t, s in zip(terms, exact)],
            [relative_error(math.sqrt(float(np.sum(m))), s) for m, s in zip(matrix, exact)])


def worst_errors(model, intervals):
    """Worst relative errors of sldl's terms and of the per-cell complex matrix loop's."""
    got, matrix = term_errors(model, intervals)
    return max(got), max(matrix)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("build", [random_delta, random_step], ids=["delta", "step"])
def test_seeded_t1_terms_match_the_exact_kernel_pass(build, n, seed):
    model = build(n, seed)
    got, matrix = worst_errors(model, seeded_intervals(model))
    assert got <= BOUND
    if n == 1:  # the Gram recursion in Python floats
        assert got <= max(4.0 * matrix, 64 * EPS)


@pytest.mark.parametrize("seed", [13, 14, 15, 16])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [random_delta, random_step], ids=["delta", "step"])
def test_real_gram_terms_are_as_accurate_as_the_complex_loop(build, n, seed):
    model = build(n, seed)
    for got, matrix in zip(*term_errors(model, seeded_intervals(model))):
        assert got <= BOUND
        assert got <= max(2.0 * matrix, 64 * EPS)


def test_christ_stolz_t1_terms_match_the_exact_kernel_pass():
    got, matrix = worst_errors(gallery_entry("christ-stolz").problem, christ_stolz_windows())
    assert got <= min(max(4.0 * matrix, 64 * EPS), BOUND)


def test_exact_reference_gives_the_free_closed_form():
    # one free cell of length L at order n: n L^4 / 12, exactly
    for n in (1, 3):
        free = StepSigma(n, (0.0,), (np.zeros((n, n)),), 4.0)
        assert reference_march.exact_t1_square(free, 0.5, 3.5) == n * Fraction(81, 12)
