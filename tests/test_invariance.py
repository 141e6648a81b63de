"""Metamorphic relations of ``classify`` on order-2 delta lattices.

The problem has exact symmetries, so relations between outputs can be
checked where no single output is known:

- scaling x -> x / c maps d_k -> d_k / c and H_k -> c H_k and multiplies the
  Jacobi matrix by c^2, so the deficiency is kept; for c a power of two every
  float scales exactly, and the classification and every per-item verdict
  must stay;
- swapping the two channels permutes the diagonal channels' evidence and
  keeps the rest;
- a constant rotation Q maps H_k -> Q H_k Q^T, and B_k rotates with it since
  it is a multiple of I; the rotated jumps are symmetric only to rounding, so
  a rotated lattice may lose a certificate that rests on an exact
  cancellation (Inconclusive), but never gains an opposite one or raises
  once ``Lattice`` has accepted its jumps;
- a ``DeltaNodes`` model and the blocks of its lattice are one operator;
- a step model ``StepSigma(S)`` and the general triple P = I, R = S,
  Q = -S^2 are one operator, marched by different code: free flights and
  jumps in classical coordinates for the one, matrix exponentials of the
  piece generators for the other. Their t1 terms agree within a bound fixed
  in advance, and so do their t1 verdicts.
"""

import math

import numpy as np
import pytest
from conftest import random_symmetric
from reference_march import exact_t1_square

from sldl import DeltaNodes, GeneralTriple, IntervalSeq, StepSigma, classify, t1_series
from sldl.bridge import classify_detailed
from sldl.jacobi import Lattice, blocks_from_lattice, cancel_jumps
from sldl.quasidiff import _cells, fundamental_pair

COUNT = 400  # spacings; the models have one node and one jump per spacing
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _lattice(jumps: str, p: float) -> tuple[list[float], np.ndarray]:
    """Spacings d_k = k^-p, k = 1 .. COUNT + 1, and COUNT order-2 jumps."""
    d = [float(k) ** -p for k in range(1, COUNT + 2)]
    cancel = cancel_jumps(d)[:, 0, 0]
    if jumps == "cancel":  # cancel_k I
        diag = np.stack([cancel, cancel], axis=1)
    elif jumps == "zero":
        diag = np.zeros((COUNT, 2))
    elif jumps == "cancel-one":  # diag(cancel_k, 1)
        diag = np.stack([cancel, np.ones(COUNT)], axis=1)
    else:  # unit spacings with one constant jump
        return d, np.broadcast_to(np.array([[-3.0, 1.0], [1.0, 2.0]]), (COUNT, 2, 2))
    return d, diag[:, :, None] * np.eye(2)


LATTICES = {f"{jumps} p={p}": (jumps, p) for jumps in ("cancel", "zero", "cancel-one")
            for p in (0.5, 1.0, 2.0)}
LATTICES["unit constant"] = ("constant", 0.0)


def _model(d, H) -> DeltaNodes:
    return DeltaNodes.from_spacings(2, d[:COUNT], H, tail=d[COUNT])


def _outcome(d, H):
    """The classification and the (criterion, verdict) pairs of its evidence."""
    verdict, _ = classify_detailed(_model(d, H))
    return verdict.classification, [(e.criterion, e.verdict) for e in verdict.evidence]


@pytest.mark.parametrize("name", list(LATTICES))
def test_scaling_by_a_power_of_two_keeps_every_verdict(name):
    d, H = _lattice(*LATTICES[name])
    want = _outcome(d, H)
    for c in (4.0, 0.25):
        assert _outcome([v / c for v in d], c * H) == want


@pytest.mark.parametrize("name", list(LATTICES))
def test_swapping_the_channels_permutes_their_evidence(name):
    d, H = _lattice(*LATTICES[name])
    relabel = {"cor2:diag:1": "cor2:diag:2", "cor2:diag:2": "cor2:diag:1"}
    classification, items = _outcome(d, H)
    swapped, swapped_items = _outcome(d, SWAP @ H @ SWAP)
    assert swapped == classification
    assert sorted((relabel.get(c, c), v) for c, v in swapped_items) == sorted(items)


@pytest.mark.parametrize("name", list(LATTICES))
def test_a_rotation_never_gives_an_opposite_certificate(name):
    d, H = _lattice(*LATTICES[name])
    c, s = math.cos(0.3), math.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    rotated = q @ H @ q.T
    # accepted: at this length the jumps stay below about 3.2e5, whose rounding
    # asymmetry is within the absolute tolerance (jumps near 2.9e6, as at p = 2
    # over 1200 spacings, are refused by Lattice itself)
    Lattice(d[:COUNT], rotated)
    want = classify(_model(d, H)).classification
    got = classify(_model(d, rotated)).classification
    assert got in (want, "Inconclusive")  # so never an opposite certificate


@pytest.mark.parametrize("name", list(LATTICES))
def test_a_model_and_the_blocks_of_its_lattice_classify_alike(name):
    d, H = _lattice(*LATTICES[name])
    model = _model(d, H)
    blocks = blocks_from_lattice(Lattice(model.spacings, model.jumps))
    assert classify(blocks).classification == classify(model).classification


T1_TOL = 32 * np.finfo(float).eps  # relative, fixed before the first run


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", range(1, 11))
def test_a_step_model_and_its_general_triple_give_the_same_t1(n, seed):
    rng = np.random.default_rng(seed)
    cuts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, 9))]).tolist()
    sigma = np.array([random_symmetric(rng, n, 2.0) for _ in cuts])
    X = cuts[-1] + 0.5
    step = StepSigma(n, cuts, sigma, X)
    general = GeneralTriple(n, cuts, [np.eye(n)] * len(cuts), -(sigma @ sigma), sigma, X)
    marks = np.linspace(0.0, X, 6).tolist()
    intervals = IntervalSeq(tuple(zip(marks, marks[1:])))
    got, want = t1_series(general, intervals), t1_series(step, intervals)
    for term, (a, b) in zip(got.terms.tolist(), intervals.intervals):
        exact = math.sqrt(exact_t1_square(step, a, b))
        assert abs(term - exact) <= T1_TOL * exact
    assert got.verdict == want.verdict
    # real coefficients: the general model's cells and states are float64
    assert _cells(general, 0.0, [(0.0, X)]).prop.dtype == np.float64
    assert fundamental_pair(general, 0.0, marks).samples.dtype == np.float64
