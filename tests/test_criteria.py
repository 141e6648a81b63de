import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric
from sldl import (
    DeltaNodes,
    Diagonal,
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
    t1_series,
    t1_term,
    t2_predicate,
    t5_series,
)
from sldl.matcore import ShapeMismatchError
from sldl.quasidiff import OffGridError, VariantUnsupportedError
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
    assert rep.terms == ()


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
    # refinement loop and must land on the step-model exact value
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
    assert rep.terms == (1.0,)


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
    res = t2_predicate(flat, IntervalSeq.unit(3))
    assert res.hypothesis_ok
