import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import reference_march
import reference_series
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    delta_models,
    distributional_models,
    exact_square,
    frozen_floats,
    general_triple_models,
    random_symmetric,
    spread_floats,
    step_sigma_models,
)
import sldl.criteria as criteria
import sldl.matcore as matcore
from sldl import (
    DeltaNodes,
    Diagonal,
    Distributional,
    GeneralTriple,
    IntervalSeq,
    LinearSigma,
    OffDiagonal,
    StepSigma,
    christ_stolz_family,
    cor1_series,
    cor2_series,
    fundamental_pair,
    jump_kernel_diag_integral,
    jump_kernel_diag_lower_bound,
    jump_kernel_offdiag_integral,
    kernel_square_integrals,
    solution_kernel_inequality,
    solution_norm_integral,
    t1_series,
    t1_term,
    t2_predicate,
    t5_series,
)
from sldl.bridge import ClassifyConfig, classify_detailed
from sldl.matcore import NonSymmetricError, ShapeMismatchError, condition, matrix_to_json
from sldl.quasidiff import (
    OffGridError,
    VariantUnsupportedError,
    model_from_json,
    piece_cuts,
    piece_index,
)
from sldl.reports import CONVERGES, DIVERGES, INCONCLUSIVE

FREE = StepSigma(1, (0.0,), (np.zeros((1, 1)),), 200.0)


def single_jump_model(H, a, c, b):
    n = np.asarray(H).shape[0]
    return DeltaNodes(n, (c,), (np.asarray(H, dtype=float),), b + 0.25 * (b - a))


# ---------------------------------------------------------------------------
# interval sequences


def test_interval_seq_validation():
    IntervalSeq(((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        IntervalSeq(((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        IntervalSeq(((1.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalSeq(((0.0, 1.0),), markers=(1.5,))
    with pytest.raises(ShapeMismatchError):
        IntervalSeq(((0.0, 1.0), (2.0, 3.0)), markers=(0.5,))


def test_unit_intervals():
    seq = IntervalSeq.unit(3)
    assert seq.intervals == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))


# ---------------------------------------------------------------------------
# t1 term and series


def test_t1_free_unit_interval():
    pair = fundamental_pair(FREE, 0.0, [0.0, 200.0])
    assert t1_term(pair, 0.0, 1.0) == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 7.5])
def test_t1_free_scaling(L):
    # int_0^L int_0^x (x - t)^2 dt dx = L^4 / 12, so the root is L^2 / sqrt(12)
    pair = fundamental_pair(FREE, 0.0, [0.0, 200.0])
    assert t1_term(pair, 0.0, L) == pytest.approx(L ** 2 / math.sqrt(12.0), rel=1e-13)


def test_t1_single_jump_value():
    # h = -3 with rho = s = 1: closed form gives 1 - 2 + 4/3 = 1/3
    m = single_jump_model([[-3.0]], 0.0, 1.0, 2.0)
    pair = fundamental_pair(m, 0.0, [0.0, 2.0])
    assert t1_term(pair, 0.0, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)


def test_t1_off_span():
    pair = fundamental_pair(FREE, 0.0, [0.0, 10.0])
    with pytest.raises(OffGridError):
        t1_term(pair, 5.0, 11.0)


def test_t1_series_free_lattice():
    rep = t1_series(FREE, IntervalSeq.unit(100))
    want = math.sqrt(1.0 / 12.0)
    assert all(abs(t - want) <= 1e-12 for t in rep.terms)
    assert rep.verdict == DIVERGES
    assert rep.partial_sums[-1] == pytest.approx(100 * want, rel=1e-12)
    assert any("inside" in note for note in rep.notes)


def test_t1_series_empty():
    rep = t1_series(FREE, IntervalSeq(()))
    assert rep.verdict == INCONCLUSIVE
    assert frozen_floats(rep.terms, ())


def test_t1_series_threshold_mode():
    # slowly shrinking intervals defeat the structural certificates but the
    # caller may still request the threshold policy
    ivs = []
    pos = 0.0
    for k in range(1, 60):
        width = (1.0 + 1.0 / k) ** 0.5
        ivs.append((pos, pos + width))
        pos += width
    seq = IntervalSeq(tuple(ivs))
    plain = t1_series(FREE, seq)
    assert plain.verdict == INCONCLUSIVE
    forced = t1_series(FREE, seq, threshold=5.0)
    assert forced.verdict == DIVERGES
    assert "threshold" in forced.verdict_basis


# ---------------------------------------------------------------------------
# solution norm inequality


def test_inequality_free_interval():
    pair = fundamental_pair(FREE, 0.0, [0.0, 10.0])
    lhs, rhs = solution_kernel_inequality(pair, 0.0, 1.0)
    assert lhs == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert rhs == pytest.approx(math.sqrt(2.0 / 12.0), rel=1e-13)
    assert lhs >= rhs


def test_inequality_degenerate():
    pair = fundamental_pair(FREE, 0.0, [0.0, 10.0])
    assert solution_kernel_inequality(pair, 2.0, 2.0) == (0.0, 0.0)


def test_inequality_single_jump():
    m = single_jump_model([[-3.0]], 0.0, 1.0, 2.0)
    pair = fundamental_pair(m, 0.0, [0.0, 2.0])
    lhs, rhs = solution_kernel_inequality(pair, 0.0, 2.0)
    assert lhs >= rhs > 0.0


def test_inequality_random_models():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        count = int(rng.integers(1, 5))
        nodes = np.cumsum(rng.uniform(0.3, 1.2, count))
        jumps = tuple(random_symmetric(rng, n, 3.0) for _ in range(count))
        model = DeltaNodes(n, tuple(nodes), jumps, float(nodes[-1] + 1.0))
        pair = fundamental_pair(model, 0.0, [0.0, model.X])
        a, b = sorted(rng.uniform(0.0, model.X, 2).tolist())
        lhs, rhs = solution_kernel_inequality(pair, a, b)
        assert lhs >= rhs - 1e-12 * max(1.0, lhs)


# ---------------------------------------------------------------------------
# closed forms for a single jump


def test_diag_closed_form_values():
    assert jump_kernel_diag_integral(0.0, 1.0, 1.0) == pytest.approx(4.0 / 3.0)
    assert jump_kernel_diag_integral(-3.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert jump_kernel_diag_integral(1.0, 1.0, 2.0) == pytest.approx(419.0 / 36.0)


def test_offdiag_closed_form_values():
    assert jump_kernel_offdiag_integral(1.0, 1.0, 1.0) == pytest.approx(1.0 / 9.0)
    assert jump_kernel_offdiag_integral(0.0, 1.0, 1.0) == 0.0
    assert jump_kernel_offdiag_integral(3.0, 1.0, 2.0) == pytest.approx(8.0)


def test_diag_lower_bound_values():
    assert jump_kernel_diag_lower_bound(-3.0, 1.0, 1.0) == 0.0
    assert jump_kernel_diag_lower_bound(0.0, 1.0, 1.0) == pytest.approx(2.0 / math.sqrt(3.0))
    assert jump_kernel_diag_lower_bound(0.0, 1.0, 2.0) == pytest.approx(3.0 * math.sqrt(3.0))
    # and the bound is dominated by the closed form in these spots
    assert jump_kernel_diag_lower_bound(0.0, 1.0, 1.0) <= 4.0 / 3.0
    assert jump_kernel_diag_lower_bound(0.0, 1.0, 2.0) <= 81.0 / 12.0


@given(st.floats(-8.0, 8.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
@settings(max_examples=200, deadline=None)
def test_lower_bound_dominated(h, rho, s):
    lo = jump_kernel_diag_lower_bound(h, rho, s)
    hi = jump_kernel_diag_integral(h, rho, s)
    assert lo <= hi * (1.0 + 1e-12) + 1e-12


@given(st.floats(-6.0, 6.0), st.floats(0.2, 2.5), st.floats(0.2, 2.5))
@settings(max_examples=25, deadline=None)
def test_scalar_quadrature_matches_diag_closed_form(h, rho, s):
    a = 0.5
    c, b = a + rho, a + rho + s
    m = single_jump_model([[h]], a, c, b)
    got = float(kernel_square_integrals(m, a, b)[0, 0])
    want = jump_kernel_diag_integral(h, rho, s)
    assert got == pytest.approx(want, rel=1e-11)


def test_matrix_quadrature_matches_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        H = random_symmetric(rng, n, 10.0)
        a = float(rng.uniform(0.0, 3.0))
        rho, s = rng.uniform(0.2, 3.0, 2)
        m = single_jump_model(H, a, a + rho, a + rho + s)
        got = kernel_square_integrals(m, a, a + rho + s)
        for i in range(n):
            for j in range(n):
                if i == j:
                    want = jump_kernel_diag_integral(H[i, i], rho, s)
                else:
                    want = jump_kernel_offdiag_integral(H[i, j], rho, s)
                assert got[i, j] == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_general_triple_refinement_matches_exact_path():
    # the same operator written as a general triple goes through the
    # block-exponential integrals and must land on the step-model value
    h = 1.3
    sig0, sig1 = np.zeros((1, 1)), np.array([[h]])
    step = DeltaNodes(1, (1.0,), (sig1,), 2.0)
    triple = GeneralTriple(
        1, (0.0, 1.0),
        (np.eye(1), np.eye(1)),
        (-sig0 @ sig0, -sig1 @ sig1),
        (sig0, sig1), 2.0)
    exact = float(kernel_square_integrals(step, 0.0, 2.0)[0, 0])
    general = float(kernel_square_integrals(triple, 0.0, 2.0)[0, 0])
    assert general == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("S", [1e4, 1e6, 1e8])
def test_quadrature_exact_after_large_accumulated_potential(S):
    # a jump S before the interval shifts sigma by S but leaves the kernel
    # inside (2, 4.5), and so the one-jump closed form, unchanged
    m = DeltaNodes(1, (1.0, 3.0), (S * np.eye(1), -2.0 * np.eye(1)), 5.0)
    got = float(kernel_square_integrals(m, 2.0, 4.5)[0, 0])
    want = jump_kernel_diag_integral(-2.0, 1.0, 1.5)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [110, 1000, 2000])
def test_christ_stolz_single_node_interval_matches_closed_form(k):
    # deep in the harmonic lattice the accumulated potential is about -k**2
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    x = model.nodes[k - 1]
    a, b = x - 0.4 * d[k - 1], x + 0.4 * d[k]
    got = float(kernel_square_integrals(model, a, b)[0, 0])
    want = jump_kernel_diag_integral(float(H[k - 1][0, 0].real), x - a, b - x)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _random_pieces(rng, kind, n, pieces=3):
    """A general triple or distributional model: pieces of length about 1, ||Q||_F <= 10."""
    widths = rng.uniform(0.8, 1.2, pieces)
    cuts = (0.0, *np.cumsum(widths[:-1]))

    def complex_entries(bound):
        return rng.uniform(-bound, bound, (n, n)) + 1j * rng.uniform(-bound, bound, (n, n))

    def hermitian(norm):
        h = complex_entries(1.0)
        h = h + h.conj().T
        return norm * rng.uniform(0.0, 1.0) * h / np.linalg.norm(h)

    def positive():
        a = complex_entries(0.5)
        return a @ a.conj().T + np.eye(n)

    lead = [positive() for _ in range(pieces)]
    q = [hermitian(10.0) for _ in range(pieces)]
    if kind == "general":
        r = [complex_entries(0.5) for _ in range(pieces)]
        return GeneralTriple(n, cuts, lead, q, r, float(widths.sum()))
    p1 = [hermitian(1.0) for _ in range(pieces)]
    return Distributional(n, cuts, lead, q, p1, float(widths.sum()))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["general", "distributional"])
def test_exact_cell_integrals_match_the_refined_rule(kind, n):
    # the reference is the 7-point rule refined until two passes agree to
    # 1e-12, so it is itself good to well below the tested 1e-12
    rng = np.random.default_rng([n, kind == "general"])
    for _ in range(4):
        model = _random_pieces(rng, kind, n)
        a, b = sorted(rng.uniform(0.0, model.X, 2).tolist())
        got = kernel_square_integrals(model, a, b)
        want = reference_march.kernel_square_integrals(model, a, b, rel_tol=1e-12)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        got = solution_norm_integral(model, a, b)
        want = reference_march.solution_norm_integral(model, a, b, rel_tol=1e-12)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["step", "delta"])
def test_step_and_delta_integrals_match_the_gauss_rule(kind, n):
    # the 7-point rule integrates the cells' polynomials of degree <= 4 exactly,
    # so it differs from the exact cell integrals by rounding alone; order 1
    # takes the scalar Gram and solution-norm passes
    rng = np.random.default_rng([n, kind == "step", 7])
    for _ in range(4):
        count = int(rng.integers(3, 12))
        widths = rng.uniform(0.2, 1.5, count)
        if kind == "step":
            cuts = (0.0, *np.cumsum(widths[:-1]).tolist())
            model = StepSigma(n, cuts, [random_symmetric(rng, n, 3.0) for _ in cuts],
                              float(widths.sum()))
        else:
            model = DeltaNodes.from_spacings(n, widths, [random_symmetric(rng, n, 3.0)
                                                         for _ in widths])
        a, b = sorted(rng.uniform(0.0, model.X, 2).tolist())
        got = kernel_square_integrals(model, a, b)
        want = reference_march.kernel_square_integrals(model, a, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert solution_norm_integral(model, a, b) == pytest.approx(
            reference_march.solution_norm_integral(model, a, b), rel=1e-12, abs=0.0)


def _four_kinds(n):
    """A step, a delta, a general and a distributional model of order n, three pieces each."""
    rng = np.random.default_rng(60 + n)
    cuts = (0.0, 0.9, 2.1)
    return (StepSigma(n, cuts, [random_symmetric(rng, n, 2.0) for _ in cuts], 3.0),
            DeltaNodes(n, cuts[1:], [random_symmetric(rng, n, 4.0) for _ in cuts[1:]], 3.0),
            _random_pieces(rng, "general", n), _random_pieces(rng, "distributional", n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_spans_give_exact_zeros(n):
    from sldl.criteria import _exact, _kernel_pass

    for model in _four_kinds(n):
        cut = piece_cuts(model)[1]
        inside = (cut + piece_cuts(model)[2]) / 2
        for a in (0.0, cut, inside, model.X):
            assert np.array_equal(kernel_square_integrals(model, a, a), np.zeros((n, n)))
            assert solution_norm_integral(model, a, a) == 0.0
            # a span without cells keeps its zero row between spans that have some
            rows = _exact(_kernel_pass, model, [(0.0, cut), (a, a), (cut, model.X)], "kernels")
            assert np.array_equal(rows[1], np.zeros((n, n)))
            assert rows[2].tobytes() == kernel_square_integrals(model, cut, model.X).tobytes()


def test_solution_norms_read_one_walk_and_one_march_from_zero(monkeypatch):
    # no prefix transfer: the states at a and on come from the march over [0, b]
    from sldl import criteria, quasidiff

    calls = []
    for name in ("_cells", "_march"):
        def counted(*args, name=name, real=getattr(criteria, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(criteria, name, counted)

    def refuse(*args):
        raise AssertionError("transfer was called")

    monkeypatch.setattr(quasidiff, "transfer", refuse)
    assert not hasattr(criteria, "transfer")
    rng = np.random.default_rng(11)
    for model in (DeltaNodes.from_spacings(1, [0.5, 1.0, 0.75], [[[1.0]], [[-2.0]], [[0.5]]]),
                  DeltaNodes.from_spacings(2, [0.5, 1.0, 0.75], [np.eye(2), -np.eye(2), np.eye(2)]),
                  _random_pieces(rng, "general", 2)):
        calls.clear()
        solution_norm_integral(model, 0.3 * model.X, 0.9 * model.X)
        assert calls == ["_cells", "_march"]


def _digest_general(seed, n, pieces):
    """A seeded general triple, built as ``scripts/cli_digest.py`` builds general20.

    Seed 20, n = 2 and 20 pieces give general20 itself.
    """
    rng = np.random.default_rng(seed)
    cplx = lambda b: rng.uniform(-b, b, (pieces, n, n)) + 1j * rng.uniform(-b, b, (pieces, n, n))
    adj = lambda m: m.conj().transpose(0, 2, 1)
    widths, p, q = rng.uniform(0.8, 1.2, pieces), cplx(0.5), cplx(1.0)
    return model_from_json({"n": n, "X": float(np.sum(widths)), "variant": "general_triple",
                            "cuts": [0.0, *np.cumsum(widths[:-1]).tolist()],
                            "P": [matrix_to_json(m) for m in p @ adj(p) + np.eye(n)],
                            "Q": [matrix_to_json(m) for m in q + adj(q)],
                            "R": [matrix_to_json(m) for m in cplx(0.5)]})


# the digest's distributional.json
DIGEST_DISTRIBUTIONAL = model_from_json({
    "n": 1, "X": 3.0, "variant": "distributional", "cuts": [0.0, 1.0, 2.0],
    "P0": [[[1.0]], [[1.5]], [[1.0]]], "Q0": [[[0.0]], [[0.5]], [[-0.5]]],
    "P1": [[[0.0]], [[0.25]], [[0.0]]]})

# the largest relative error of a term against the fixed-point reference, as
# measured with the fused Van Loan block (one exponential of order 2m + 3mn
# per cell) that the split blocks replaced
FUSED_MAX_ERROR = {"general20": 1.9133e-15, "distributional": 1.1229e-15, "general n=3": 2.1671e-15}


@pytest.mark.parametrize("name, model, count", [
    ("general20", _digest_general(20, 2, 20), 16),
    ("distributional", DIGEST_DISTRIBUTIONAL, 3),
    ("general n=3", _digest_general(3, 3, 6), 5),
], ids=["general20", "distributional", "general-n3"])
def test_t1_terms_match_the_fixed_point_reference(name, model, count):
    intervals = IntervalSeq.unit(count)
    errors = []
    for term, (a, b) in zip(t1_series(model, intervals).terms, intervals.intervals):
        want = reference_march.fixed_t1_term(model, a, b)
        errors.append(float(abs(Fraction(term) - want) / want))
    assert max(errors) <= 2e-15
    assert max(errors) <= FUSED_MAX_ERROR[name]


def test_fixed_point_reference_gives_the_free_closed_form():
    # P = I, Q = R = 0 at n = 2: the double integral of a unit interval is 2 / 12
    z = np.zeros((2, 2))
    free = GeneralTriple(2, (0.0,), (np.eye(2),), (z,), (z,), 1.0)
    assert abs(reference_march.fixed_t1_term(free, 0.0, 1.0) ** 2 - Fraction(1, 6)) < 1e-40


def ill_conditioned_middle_piece():
    """P pieces [I, B, I] on unit pieces, Q = R = 0 at n = 2, B real symmetric of condition 1e10."""
    q, _ = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = q @ np.diag([1.0, 1e-10]) @ q.T
    z = np.zeros((2, 2))
    return GeneralTriple(2, (0.0, 1.0, 2.0), (np.eye(2), b, np.eye(2)), (z,) * 3, (z,) * 3, 3.0)


def exact_t1_square(model, a, b) -> Fraction:
    """The squared t1 term of [a, b] for a real 2 x 2 model with Q = R = 0, in exact arithmetic.

    There K(x, t) = int_t^x P^-1, with each piece's P^-1 the exact inverse
    of its float entries. For t in cell i and x in cell j > i of [a, b],
    each kernel entry is c + p u + q v in u = x - start_j and v = end_i - t;
    the cell pairs i == j are triangles, where K = (x - t) P^-1.
    """
    edges = [a, *(x for x in model.cuts if a < x < b), b]
    lengths = [Fraction(hi) - Fraction(lo) for lo, hi in zip(edges, edges[1:])]
    inverses = []
    for lo in edges[:-1]:
        m = [[Fraction(float(v.real)) for v in row] for row in model.P[piece_index(model, lo)]]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        inverses.append([m[1][1] / det, -m[0][1] / det, -m[1][0] / det, m[0][0] / det])
    total = Fraction(0)
    for j, (lj, inv_x) in enumerate(zip(lengths, inverses)):
        total += sum(e * e for e in inv_x) * lj ** 4 / 12
        for i, (li, inv_t) in enumerate(zip(lengths[:j], inverses)):
            between = [sum(lengths[k] * inverses[k][e] for k in range(i + 1, j)) for e in range(4)]
            for c, p, q in zip(between, inv_x, inv_t):
                total += (c * c * li * lj + p * p * lj ** 3 * li / 3 + q * q * li ** 3 * lj / 3
                          + c * p * lj ** 2 * li + c * q * li ** 2 * lj
                          + p * q * li ** 2 * lj ** 2 / 2)
    return total


def test_an_ill_conditioned_piece_marches_everywhere():
    # piece 1 passes the one condition rule, so every march over it runs; the
    # terms agree with the exact kernel int_t^x P^-1 within cond(B) eps
    model = ill_conditioned_middle_piece()
    bound = condition(model.P[1]) * np.finfo(float).eps
    # P = I on [2, 3]: the term is 1/sqrt(6) = 0.408248290463863016..., here 1.1e-16 above it
    assert frozen_floats(t1_series(model, IntervalSeq(((2.0, 3.0),))).terms, (0.40824829046386313,))
    for interval in ((0.5, 1.5), (1.0, 2.0), (0.0, 3.0), (2.0, 3.0)):
        (got,) = t1_series(model, IntervalSeq((interval,))).terms
        want = math.sqrt(exact_t1_square(model, *interval))
        assert abs(got - want) <= bound * want


@pytest.mark.parametrize("a, b", [(0.0, 0.5), (0.0, 1.0), (0.0, 3.0), (2.0, 9.5),
                                  (10.0, 10.1), (0.3, 0.7), (50.0, 57.0)])
def test_free_interval_integrals_are_the_closed_forms(a, b):
    # one free cell of length L: int_0^L (L - s) s^2 ds = L^4 / 12, exactly
    L = b - a
    assert t1_term(fundamental_pair(FREE, 0.0, [0.0, 200.0]), a, b) == math.sqrt(L ** 4 / 12)
    # Phi = 1 and Psi = x; the closed form in exact arithmetic, since
    # b**3 - a**3 in floats cancels digits when a and b are close
    want = float((Fraction(b) - Fraction(a)) + (Fraction(b) ** 3 - Fraction(a) ** 3) / 3)
    assert solution_norm_integral(FREE, a, b) == pytest.approx(want, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# the t1 series in one pass against one kernel pass per interval


@st.composite
def interval_sets(draw, model):
    """Disjoint intervals of [0, X] between consecutive ends drawn from cuts, X and inner points.

    Each interval between two consecutive ends is kept or left as a gap, at
    least one is kept, and half the draws keep one alone; so the sets hold
    intervals that start or end on cuts, lie inside one piece, or stand alone.
    """
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=6))
    ends = sorted(set(piece_cuts(model)) | {model.X} | {model.X * u for u in inner})
    pairs = list(zip(ends, ends[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = draw(st.integers(0, len(pairs) - 1))
    if draw(st.booleans()):
        keep = [False] * len(pairs)
    keep[chosen] = True
    return IntervalSeq(tuple(p for p, k in zip(pairs, keep) if k))


@given(st.one_of(step_sigma_models(max_n=2), delta_models(max_n=2),
                 general_triple_models(), distributional_models(max_n=2)), st.data())
@settings(max_examples=60, deadline=None)
def test_one_pass_t1_terms_equal_the_per_interval_kernel_passes(model, data):
    intervals = data.draw(interval_sets(model))
    want = [reference_march.interval_kernel_pass(model, a, b) for a, b in intervals.intervals]
    terms = t1_series(model, intervals).terms
    assert [t.hex() for t in terms] == [math.sqrt(float(np.sum(w))).hex() for w in want]
    for (a, b), w in zip(intervals.intervals, want):
        assert kernel_square_integrals(model, a, b).tobytes() == w.tobytes()


def _q_pieces(*qs):
    """A unit-piece general triple with P = 1, R = 0 and the given Q values."""
    count = len(qs)
    return GeneralTriple(1, tuple(float(k) for k in range(count)), [np.eye(1)] * count,
                         [[[q]] for q in qs], [np.zeros((1, 1))] * count, float(count))


@pytest.mark.parametrize("qs, a", [
    ((0.0, 1e300, 0.0), 1.0),
    ((0.0, 1e300, 1e300), 1.0),
    ((1e300, 0.0, 1e300), 0.0),
    ((0.0, 0.0, 1e300), 2.0),
])
def test_an_overflowing_series_names_its_first_failing_interval(qs, a):
    model = _q_pieces(*qs)
    with pytest.raises(ValueError, match=re.escape(f"overflowed on ({a}, {a + 1.0})")):
        kernel_square_integrals(model, a, a + 1.0)
    with pytest.raises(ValueError) as caught:
        t1_series(model, IntervalSeq.unit(3))
    assert str(caught.value) == f"kernel quadrature overflowed on ({a}, {a + 1.0})"


def test_an_overflow_names_the_quantity_that_overflowed():
    # a delta cell of length 1e80: no kernel is integrated for the solution norm
    model = DeltaNodes(1, (1e80, 2e80), [[[1.0]], [[-1.0]]], 3e80)
    with pytest.raises(ValueError) as caught:
        solution_norm_integral(model, 0.0, 3e80)
    assert str(caught.value) == "the solution norm integral overflowed on (0.0, 3e+80)"
    with pytest.raises(ValueError) as caught:
        kernel_square_integrals(model, 0.0, 3e80)
    assert str(caught.value) == "kernel quadrature overflowed on (0.0, 3e+80)"


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_t1_refuses_a_threshold_that_is_not_finite_before_its_kernel_pass(monkeypatch, threshold):
    def kernel_pass(model, spans):
        raise AssertionError("the kernel pass ran")

    monkeypatch.setattr(criteria, "_kernel_pass", kernel_pass)
    with pytest.raises(ValueError) as caught:
        t1_series(FREE, IntervalSeq.unit(3), threshold=threshold)
    assert str(caught.value) == f"threshold must be finite, got {threshold}"


@pytest.mark.parametrize("qs", [(0.0, 4e307, 0.0), (0.0, 0.0, 4e307), (0.0, 1e300, 4e307)])
def test_an_exponential_past_the_float_range_keeps_its_message(qs):
    # every stacked exponential of the series runs before its Gram loop, so
    # the exponential's error comes first, also after an interval whose
    # quadrature alone overflows
    model, k = _q_pieces(*qs), qs.index(4e307)
    message = "the matrix exponential cannot scale a norm of 6.928e+307"
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel_square_integrals(model, float(k), k + 1.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        t1_series(model, IntervalSeq.unit(3))


def test_solution_norms_past_the_float_range_exit_with_a_value_error():
    # every order reads the states of one march from 0, whose check names the
    # first cell end past the float range
    for n in (1, 2, 3):
        model = DeltaNodes(n, [float(k) for k in range(1, 41)], [1e200 * np.eye(n)] * 40, 41.0)
        with pytest.raises(ValueError, match="^the march leaves the float range at x = 3.0$"):
            solution_norm_integral(model, 0.5, 41.0)


# ---------------------------------------------------------------------------
# jump series


def test_t5_diag_terms():
    seq = IntervalSeq(((0.0, 2.0), (3.0, 5.0)), markers=(1.0, 4.0))
    zero = np.zeros((1, 1))
    rep = t5_series(seq, [zero, zero], Diagonal(1))
    assert rep.criterion == "t5_diag"
    assert all(t == pytest.approx(math.sqrt(6.0)) for t in rep.terms)
    rep = t5_series(seq, [np.array([[-3.0]])] * 2, Diagonal(1))
    assert all(t == 0.0 for t in rep.terms)


def test_t5_offdiag_terms():
    seq = IntervalSeq(((0.0, 2.0),), markers=(1.0,))
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = t5_series(seq, [H], OffDiagonal(1, 2))
    assert rep.criterion == "t5_offdiag"
    assert frozen_floats(rep.terms, (1.0,))


def test_t5_requires_markers_and_matching_jumps():
    seq = IntervalSeq(((0.0, 2.0),))
    with pytest.raises(ValueError):
        t5_series(seq, [np.zeros((1, 1))], Diagonal(1))
    seq = IntervalSeq(((0.0, 2.0),), markers=(1.0,))
    with pytest.raises(ShapeMismatchError):
        t5_series(seq, [np.zeros((1, 1))] * 2, Diagonal(1))


def test_t5_channel_validation():
    seq = IntervalSeq(((0.0, 2.0),), markers=(1.0,))
    with pytest.raises(ValueError):
        t5_series(seq, [np.zeros((2, 2))], Diagonal(3))
    with pytest.raises(ValueError):
        t5_series(seq, [np.zeros((2, 2))], OffDiagonal(1, 1))


def test_t1_dominates_scaled_t5_term():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        H = random_symmetric(rng, n, 6.0)
        a = float(rng.uniform(0.0, 2.0))
        rho, s = rng.uniform(0.3, 2.0, 2)
        c, b = a + rho, a + rho + s
        m = single_jump_model(H, a, c, b)
        pair = fundamental_pair(m, 0.0, [0.0, m.X])
        kernel_root = t1_term(pair, a, b)
        for i in range(1, n + 1):
            seq = IntervalSeq(((a, b),), markers=(c,))
            term = t5_series(seq, [H], Diagonal(i)).terms[0]
            assert kernel_root >= 3.0 ** -0.75 * term - 1e-12


def test_cor1_values():
    rep = cor1_series([2.0], [np.zeros((1, 1))], Diagonal(1))
    assert rep.terms[0] == pytest.approx(2.0 ** 2.5 * math.sqrt(3.0))
    rep = cor1_series([1.5], [np.array([[0.0, 2.0], [2.0, 0.0]])], OffDiagonal(1, 2))
    assert rep.terms[0] == pytest.approx(1.5 ** 3 * 2.0)


JUMP_SEQ = IntervalSeq(((0.0, 2.0), (3.0, 5.5)), markers=(0.5, 4.0))
REAL_JUMPS = np.array([[[1.5, -0.75], [-0.75, 2.0]], [[-3.0, 0.3], [0.3, 0.5]]])
COMPLEX_JUMPS = np.array([[[1.5, 0.25 + 0.5j], [0.25 - 0.5j, -2.0]], [[0.0, -1.0j], [1.0j, 4.0]]])
# the terms of t5 (on JUMP_SEQ) and cor1 (lengths 2 and 0.75) before either checked its jumps
HERMITIAN_TERMS = {
    ("real", Diagonal(1)): (["0x1.3e655eefe1368p+1", "0x1.ad5336963eefcp+0"],
                           ["0x1.8000000000000p+3", "0x1.16dad43bc9c5bp+0"]),
    ("real", Diagonal(2)): (["0x1.4c8dc2e423980p+1", "0x1.06e825da8fc2bp+2"],
                           ["0x1.94c583ada5b53p+3", "0x1.6b95099a6200ap+0"]),
    ("real", OffDiagonal(1, 2)): (["0x1.f2d4a45635640p-2", "0x1.1a2e6453b6aaap-1"],
                                 ["0x1.8000000000000p+2", "0x1.0333333333333p-3"]),
    ("complex", Diagonal(1)): (["0x1.3e655eefe1368p+1", "0x1.e000000000001p+1"],
                              ["0x1.8000000000000p+3", "0x1.60b9fd68a4555p+0"]),
    ("complex", Diagonal(2)): (["0x1.8000000000001p+0", "0x1.82fd05f129838p+2"],
                              ["0x1.6a09e667f3bcdp+2", "0x1.b000000000000p+0"]),
    ("complex", OffDiagonal(1, 2)): (["0x1.73ce704fb7b24p-2", "0x1.d64d51e0db1c6p+0"],
                                    ["0x1.1e3779b97f4a8p+2", "0x1.b000000000000p-2"]),
}


@pytest.mark.parametrize("kind, channel", HERMITIAN_TERMS)
def test_t5_and_cor1_keep_their_terms_on_hermitian_jumps(kind, channel):
    jumps = REAL_JUMPS if kind == "real" else COMPLEX_JUMPS
    t5_terms, cor1_terms = HERMITIAN_TERMS[kind, channel]
    mirror = OffDiagonal(channel.j, channel.i) if isinstance(channel, OffDiagonal) else channel
    for ch in (channel, mirror):  # |h_ji| = |h_ij|
        assert frozen_floats(t5_series(JUMP_SEQ, jumps, ch).terms, [*map(float.fromhex, t5_terms)])
        assert frozen_floats(cor1_series([2.0, 0.75], jumps, ch).terms,
                             [*map(float.fromhex, cor1_terms)])


@pytest.mark.parametrize("jumps", [
    np.array([[[0.0, 1.0], [5.0, 0.0]]] * 2),  # skew: h_21 != conj(h_12)
    COMPLEX_JUMPS + 1e-9j * np.eye(2),  # an imaginary diagonal part past the tolerance
    REAL_JUMPS + np.array([[0.0, 0.0], [1e-9, 0.0]]),
])
def test_t5_and_cor1_refuse_jumps_that_are_not_hermitian(jumps):
    with pytest.raises(NonSymmetricError, match="^jump matrices must be Hermitian$"):
        t5_series(JUMP_SEQ, jumps, Diagonal(1))
    with pytest.raises(NonSymmetricError, match="^jump matrices must be Hermitian$"):
        cor1_series([2.0, 0.75], jumps, OffDiagonal(1, 2))


def test_cor2_reads_the_checked_stack_of_its_lattice(monkeypatch):
    # the lattice checked its jumps once; a channel of cor2 re-stacks none of them
    d, H = christ_stolz_family(2001, 2)
    model = DeltaNodes.from_spacings(2, d[:2000], H[:2000], tail=d[2000])
    calls = []

    def spy(stack):
        def counted(*args, **kwargs):
            calls.append(args)
            return stack(*args, **kwargs)
        return counted
    for module in (criteria, matcore):  # criteria's own name for it, if it imports one
        if hasattr(module, "as_stack"):
            monkeypatch.setattr(module, "as_stack", spy(module.as_stack))
    _, reports = classify_detailed(model, ClassifyConfig(criteria=("cor2",)))
    assert [r.criterion for r in reports] == ["cor2"] * 3  # diag:1, diag:2, offdiag:1,2
    assert calls == []


def test_cor2_values_and_t5_consistency():
    zero = np.zeros((1, 1))
    rep = cor2_series([1.0] * 10, [zero] * 10, Diagonal(1))
    assert all(t == pytest.approx(math.sqrt(6.0)) for t in rep.terms)
    assert rep.verdict == DIVERGES
    # term k of the lattice series equals the marked-interval term with
    # rho = d_k, s = d_{k+1}
    rng = np.random.default_rng(9)
    for _ in range(10):
        dk, dk1 = rng.uniform(0.2, 2.5, 2)
        h = float(rng.uniform(-5, 5))
        lattice = cor2_series([dk, dk1], [np.array([[h]])], Diagonal(1)).terms[0]
        seq = IntervalSeq(((0.0, dk + dk1),), markers=(dk,))
        marked = t5_series(seq, [np.array([[h]])], Diagonal(1)).terms[0]
        assert lattice == pytest.approx(marked, rel=1e-12)


def test_cor2_harmonic_cancel_family_is_summable():
    from sldl import christ_stolz_family

    d, H = christ_stolz_family(400)
    rep = cor2_series(d, H, Diagonal(1))
    assert rep.verdict != DIVERGES
    # terms behave like sqrt(2) * k^-2 asymptotically
    k = 300
    want = (d[k - 1] * d[k] * math.sqrt(d[k - 1] + d[k])
            * math.sqrt(k + 0.5))
    assert rep.terms[k - 1] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# monotonicity test


def test_t2_monotone_linear_sigma():
    model = LinearSigma(1, (0.0, 50.0), (np.zeros((1, 1)), 50.0 * np.eye(1)))
    res = t2_predicate(model, IntervalSeq.unit(50))
    assert res.hypothesis_ok
    assert res.series.verdict == DIVERGES
    assert res.limit_point_certified


def test_t2_terms_are_the_correctly_rounded_squares():
    w = next(v for v in spread_floats(2604).tolist() if v ** 2 != v * v)
    model = LinearSigma(1, (0.0, 1e300), (np.zeros((1, 1)), np.eye(1)))
    assert frozen_floats(t2_predicate(model, IntervalSeq(((0.0, w),))).series.terms,
                         (exact_square(w),))


def test_t2_indefinite_slope():
    model = LinearSigma(2, (0.0, 2.0, 4.0),
                        (np.zeros((2, 2)), np.diag([2.0, -2.0]), np.diag([2.0, -2.0])))
    res = t2_predicate(model, IntervalSeq(((0.5, 1.5),)))
    assert not res.hypothesis_ok
    assert not res.limit_point_certified


def test_t2_short_intervals_not_certified():
    model = LinearSigma(1, (0.0, 60.0), (np.zeros((1, 1)), 60.0 * np.eye(1)))
    starts = np.cumsum([1.0 / k for k in range(1, 40)])
    ivs = tuple((float(s), float(s + 1.0 / (k + 1)))
                for k, s in enumerate(starts[:-1], start=1))
    res = t2_predicate(model, IntervalSeq(ivs))
    assert res.hypothesis_ok
    assert not res.limit_point_certified
    assert res.series.verdict in (CONVERGES, INCONCLUSIVE)


def test_t2_variant_support():
    jumpy = DeltaNodes(1, (1.0,), (np.eye(1),), 3.0)
    with pytest.raises(VariantUnsupportedError):
        t2_predicate(jumpy, IntervalSeq.unit(2))
    steppy = StepSigma(1, (0.0, 1.0), (np.zeros((1, 1)), np.eye(1)), 3.0)
    with pytest.raises(VariantUnsupportedError):
        t2_predicate(steppy, IntervalSeq.unit(2))
    flat = StepSigma(1, (0.0, 1.0), (np.eye(1), np.eye(1)), 3.0)
    with pytest.raises(VariantUnsupportedError, match="no sigma description for"):
        t2_predicate(flat, IntervalSeq.unit(3))


def _t2_case(seed):
    """A seeded LinearSigma, mostly with PSD slopes, and intervals that end on knots and between.

    Half the cases take consecutive points as intervals, so neighbours share
    an end; the others pair the points off.
    """
    rng = np.random.default_rng(seed)
    n, pieces = int(rng.integers(1, 4)), int(rng.integers(1, 40))
    knots = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, pieces))))
    values = [np.zeros((n, n))]
    for h in np.diff(knots):
        g = rng.uniform(-1.0, 1.0, (n, n))
        slope = random_symmetric(rng, n, 1.0) if rng.random() < 0.02 else g @ g.T
        values.append(values[-1] + h * slope)
    model = LinearSigma(n, tuple(knots.tolist()), values)
    points = np.concatenate((rng.choice(knots, min(len(knots), 8), replace=False),
                             rng.uniform(0.0, model.X, 8)))
    points = np.unique(points)
    pairs = zip(points[:-1], points[1:]) if rng.random() < 0.5 else zip(points[::2], points[1::2])
    return model, IntervalSeq(tuple((float(a), float(b)) for a, b in pairs))


def test_t2_matches_the_per_piece_loop_on_random_models():
    outcomes = set()
    for seed in range(3101, 3261):
        model, intervals = _t2_case(seed)
        got = t2_predicate(model, intervals)
        ok, terms = reference_series.t2_predicate(model, intervals)
        assert got.hypothesis_ok is ok
        assert frozen_floats(got.series.terms, terms)
        assert got.series.notes == (() if ok else ("sigma' indefinite on some interval",))
        outcomes.add(ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("slope", [0.0, -0.0, criteria.PSD_TOL, -criteria.PSD_TOL,
                                   float(np.nextafter(-criteria.PSD_TOL, -np.inf))])
def test_t2_slopes_at_the_tolerance(n, slope):
    # the middle piece's slope is exactly ``slope`` (a difference over a unit length)
    # in the last channel; (1, 2) meets only it, and (0, 1) and (2, 3) end on its knots
    rise = np.diag([1.0] * (n - 1) + [0.0])
    top = rise + np.diag([0.0] * (n - 1) + [slope])
    model = LinearSigma(n, (0.0, 1.0, 2.0, 3.0),
                        (np.zeros((n, n)), rise, rise + top, rise + top + np.eye(n)))
    for intervals in (((1.0, 2.0),), ((0.0, 1.0), (2.0, 3.0)), ((0.5, 1.5),)):
        seq = IntervalSeq(intervals)
        got = t2_predicate(model, seq)
        assert got.hypothesis_ok is reference_series.t2_predicate(model, seq)[0]
    assert t2_predicate(model, IntervalSeq(((1.0, 2.0),))).hypothesis_ok is (slope >= -1e-10)
    assert t2_predicate(model, IntervalSeq(((0.0, 1.0), (2.0, 3.0)))).hypothesis_ok


def test_t2_evaluates_no_piece_outside_the_intervals():
    # the middle piece's slope overflows; no interval meets it, so it raises no warning
    big = np.finfo(float).max
    model = LinearSigma(1, (0.0, 1.0, 2.0, 3.0),
                        (np.zeros((1, 1)), np.full((1, 1), big), np.full((1, 1), -big),
                         np.full((1, 1), -big)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = t2_predicate(model, IntervalSeq(((0.0, 1.0), (2.0, 3.0))))
        empty = t2_predicate(model, IntervalSeq(()))
    assert got.hypothesis_ok and frozen_floats(got.series.terms, [1.0, 1.0])
    assert empty.hypothesis_ok and frozen_floats(empty.series.terms, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        met = t2_predicate(model, IntervalSeq(((0.5, 1.5),)))
        assert met.hypothesis_ok is reference_series.t2_predicate(
            model, IntervalSeq(((0.5, 1.5),)))[0]


def test_t2_intervals_past_the_domain():
    model = LinearSigma(1, (0.0, 2.0), (np.zeros((1, 1)), np.eye(1)))
    for intervals in (((0.0, 2.5),), ((0.0, 1.0), (1.5, 2.0 + 1e-12))):
        for fn in (t2_predicate, reference_series.t2_predicate):
            with pytest.raises(ValueError, match="^intervals exceed the model domain$"):
                fn(model, IntervalSeq(intervals))
