import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldl import (
    blocks_from_delta,
    carleman_report,
    carleman_spacing_bounds,
    christ_stolz_family,
    cor3_check,
    discrete_cauchy,
    recurrence_apply,
    solve_recurrence,
    t4_report,
    t4_term,
    t7_check,
)
from sldl.jacobi import (
    IndexOutOfRangeError,
    JacobiBlocks,
    NonPositiveSpacingError,
    NonSymmetricJumpError,
    blocks_from_json,
    blocks_to_json,
    reciprocal_sum,
)
from sldl.matcore import frobenius_norm
from sldl.reports import CONVERGES, DIVERGES


def constant_blocks(count=12, n=1):
    """Uniform lattice blocks, boundary pair included (A_j = I, B_j = -I/2)."""
    d = [1.0] * count
    H = [np.zeros((n, n))] * count
    return blocks_from_delta(d, H, boundary=(np.eye(n), -np.eye(n) / 2.0))


# ---------------------------------------------------------------------------
# block construction


def test_blocks_constant_lattice():
    blocks = blocks_from_delta([1.0] * 12, [np.zeros((1, 1))] * 12)
    assert np.array_equal(blocks.A_at(1), np.eye(1))
    assert np.array_equal(blocks.B_at(1), -np.eye(1) / 2.0)
    # boundary defaults
    assert np.array_equal(blocks.A_at(0), np.zeros((1, 1)))
    assert np.array_equal(blocks.B_at(0), -np.eye(1))
    assert blocks.provenance.boundary_default


def test_blocks_degenerate_diagonal():
    blocks = blocks_from_delta([1.0] * 5, [np.array([[-2.0]])] * 5)
    assert blocks.A_at(1)[0, 0] == 0.0


def test_blocks_cancel_family_diagonal_exactly_zero():
    d, H = christ_stolz_family(300)
    blocks = blocks_from_delta(d, H)
    assert all(float(np.max(np.abs(a))) == 0.0 for a in blocks.A[1:])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vectorized_blocks_are_bit_exact(n):
    rng = np.random.default_rng(70 + n)
    d = tuple(np.exp(rng.uniform(-5.0, 5.0, 40)).tolist())
    H = [(a + a.T) / 2 for a in rng.normal(size=(39, n, n))]
    blocks = blocks_from_delta(d, H)
    eye = np.eye(n)
    for k in range(1, len(d)):
        h = np.asarray(H[k - 1], dtype=complex)
        assert np.array_equal(blocks.A[k], (h + reciprocal_sum(d, k) * eye) / (d[k - 1] + d[k]))
    for k in range(1, len(d) - 1):
        r = math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1]))
        assert np.array_equal(blocks.B[k], -eye / (r * d[k]))
    d, H = christ_stolz_family(300, n)
    assert np.array_equal(blocks_from_delta(d, H).A[1:], np.zeros((299, n, n)))


def test_blocks_boundary_override():
    a0 = np.array([[2.0]])
    b0 = np.array([[3.0]])
    blocks = blocks_from_delta([1.0] * 4, [np.zeros((1, 1))] * 4, boundary=(a0, b0))
    assert np.array_equal(blocks.A_at(0), a0)
    assert not blocks.provenance.boundary_default


def test_blocks_validation():
    with pytest.raises(NonPositiveSpacingError):
        blocks_from_delta([1.0, -1.0, 1.0], [np.zeros((1, 1))] * 3)
    with pytest.raises(NonSymmetricJumpError):
        blocks_from_delta([1.0] * 3, [np.array([[0.0, 1.0], [0.0, 0.0]])] * 3)
    with pytest.raises(ValueError):
        blocks_from_delta([1.0] * 4, [np.zeros((1, 1))] * 2)
    with pytest.raises(ValueError):
        JacobiBlocks(1, (np.array([[1j]]),), (np.eye(1),))
    with pytest.raises(ValueError):
        JacobiBlocks(1, (np.eye(1),), (np.zeros((1, 1)),))


# ---------------------------------------------------------------------------
# recurrence


def test_recurrence_apply_examples():
    blocks = constant_blocks()
    assert recurrence_apply(blocks, [[0.0], [1.0], [2.0]], 1)[0] == 0.0
    assert recurrence_apply(blocks, [[1.0], [1.0], [1.0]], 1)[0] == 0.0
    assert recurrence_apply(blocks, [[0.0], [1.0], [0.0]], 1)[0] == 1.0


def test_recurrence_apply_index_errors():
    blocks = constant_blocks()
    with pytest.raises(IndexOutOfRangeError):
        recurrence_apply(blocks, [[0.0], [1.0], [2.0]], 0)
    with pytest.raises(IndexOutOfRangeError):
        recurrence_apply(blocks, [[0.0], [1.0]], 1)


def test_solve_recurrence_free_closed_form():
    blocks = constant_blocks(30)
    u = solve_recurrence(blocks, [0.0], [1.0], 28)
    assert all(u[k, 0] == float(k) for k in range(28))
    u = solve_recurrence(blocks, [1.0], [1.0], 28)
    assert all(u[k, 0] == 1.0 for k in range(28))
    u = solve_recurrence(blocks, [2.0], [5.0], 28)
    assert all(u[k, 0] == 2.0 + 3.0 * k for k in range(28))


def test_solve_recurrence_satisfies_recurrence():
    rng = np.random.default_rng(2)
    d = rng.uniform(0.1, 2.0, 20)
    H = [np.array([[v]]) for v in rng.uniform(-4, 4, 20)]
    blocks = blocks_from_delta(d, H)
    u = solve_recurrence(blocks, [0.3], [1.1], 18)
    for j in range(1, 16):
        res = recurrence_apply(blocks, u, j)
        scale = max(1.0, float(np.max(np.abs(u[j - 1:j + 2]))))
        assert abs(res[0]) <= 1e-10 * scale


def test_cancel_family_recurrence_interleaves():
    d, H = christ_stolz_family(40)
    blocks = blocks_from_delta(d, H)
    u = solve_recurrence(blocks, [1.0], [0.0], 30)
    # A_k = O decouples even and odd chains; the seeded odd chain stays zero
    assert all(u[k, 0] == 0.0 for k in range(1, 30, 2))
    assert all(u[k, 0] != 0.0 for k in range(0, 30, 2))


# ---------------------------------------------------------------------------
# discrete kernel


def test_discrete_cauchy_initial_data():
    blocks = constant_blocks()
    assert np.array_equal(discrete_cauchy(blocks, 3, 3), np.zeros((1, 1)))
    assert discrete_cauchy(blocks, 4, 3)[0, 0] == -2.0
    assert discrete_cauchy(blocks, 5, 3)[0, 0] == -4.0


def test_discrete_cauchy_solves_recurrence():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.2, 1.5, 12)
    H = [np.array([[v]]) for v in rng.uniform(-3, 3, 12)]
    blocks = blocks_from_delta(d, H)
    j = 2
    cols = {i: discrete_cauchy(blocks, i, j) for i in range(j, 10)}
    for i in range(j + 1, 9):
        res = (blocks.B_at(i) @ cols[i + 1] + blocks.A_at(i) @ cols[i]
               + blocks.B_at(i - 1).conj().T @ cols[i - 1])
        scale = max(1.0, max(frobenius_norm(cols[m]) for m in (i - 1, i, i + 1)))
        assert frobenius_norm(res) <= 1e-10 * scale


def test_t4_values():
    blocks = constant_blocks()
    assert t4_term(blocks, 3, 3) == 0.0
    assert t4_term(blocks, 3, 4) == pytest.approx(2.0)
    assert t4_term(blocks, 3, 5) == pytest.approx(math.sqrt(24.0))


def test_t4_term_matches_direct_double_sum():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        A, B = [], []
        for _ in range(16):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A.append((a + a.conj().T) / 2.0)
            B.append(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n))
        blocks = JacobiBlocks(n, tuple(A), tuple(B))
        n_k = int(rng.integers(1, 6))
        m_k = int(rng.integers(n_k, 15))
        direct = math.sqrt(sum(frobenius_norm(discrete_cauchy(blocks, i, j)) ** 2
                               for i in range(n_k, m_k + 1) for j in range(n_k, i + 1)))
        assert t4_term(blocks, n_k, m_k) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_t4_report_and_segment_validation():
    blocks = constant_blocks(40)
    rep = t4_report(blocks, [(1, 4), (5, 8), (9, 12)])
    assert rep.criterion == "t4"
    assert len(rep.terms) == 3
    with pytest.raises(ValueError):
        t4_report(blocks, [(1, 6), (3, 8)])


# ---------------------------------------------------------------------------
# determinacy series


def test_carleman_constant_lattice_exact_terms():
    blocks = constant_blocks(20)
    rep = carleman_report(blocks, 15)
    assert all(t == 2.0 for t in rep.terms)
    assert rep.verdict == DIVERGES


def test_carleman_order_scaling():
    d = [1.0] * 10
    H = [np.zeros((4, 4))] * 10
    rep = carleman_report(blocks_from_delta(d, H), 5)
    assert all(t == pytest.approx(1.0) for t in rep.terms)


def test_carleman_harmonic_not_divergent():
    d = [1.0 / k for k in range(1, 40)]
    H = [np.zeros((1, 1))] * 39
    rep = carleman_report(blocks_from_delta(d, H), 30)
    assert rep.verdict != DIVERGES


def test_carleman_power_law_certificate():
    d = [float(k) ** -0.3 for k in range(1, 60)]
    H = [np.zeros((1, 1))] * 59
    rep = carleman_report(blocks_from_delta(d, H), 50)
    assert rep.verdict == DIVERGES
    assert "power-law" in rep.verdict_basis


def test_carleman_terms_match_spacing_formula():
    # 1/||B_k|| = r_{k+1} r_{k+2} d_{k+1} / sqrt(n) for lattice blocks
    rng = np.random.default_rng(13)
    d = rng.uniform(0.1, 3.0, 25)
    n = 3
    H = [random_sym(rng, n) for _ in range(25)]
    blocks = blocks_from_delta(d, H)
    rep = carleman_report(blocks, 20)
    for k in range(1, 21):
        want = (math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1])) * d[k]
                / math.sqrt(n))
        assert abs(rep.terms[k - 1] - want) <= 1e-12 * want


def random_sym(rng, n):
    a = rng.uniform(-2, 2, (n, n))
    return (a + a.T) / 2.0


def test_carleman_needs_stored_blocks():
    blocks = constant_blocks(5)
    with pytest.raises(IndexOutOfRangeError):
        carleman_report(blocks, 10)


def test_spacing_bounds_examples():
    assert carleman_spacing_bounds([1.0, 1.0, 1.0])
    assert carleman_spacing_bounds([1.0, 4.0, 1.0])
    assert carleman_spacing_bounds([1.0] * 6, n=4)


@given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=12),
       st.integers(1, 4))
@settings(max_examples=250, deadline=None)
def test_spacing_bounds_always_hold(d, n):
    assert carleman_spacing_bounds(d, n=n)


def test_t7_constant_spacings_refused():
    c = 1.0
    d = [c] * 30
    H = [np.zeros((1, 1))] * 30
    res = t7_check(d, H, 14)
    assert all(t == pytest.approx(2.0 * c) for t in res.series_a[0].terms)
    assert not res.limit_circle_certified


def test_t7_cancel_family_certified():
    d, H = christ_stolz_family(600)
    res = t7_check(d, H, 299)
    for rep in res.series_b:
        assert all(t == 0.0 for t in rep.terms)
        assert rep.verdict == CONVERGES
    for rep in res.series_a:
        assert rep.verdict == CONVERGES
        assert "Raabe" in rep.verdict_basis
    assert res.limit_circle_certified


def test_t7_bounded_jump_factor_not_certified():
    # harmonic spacings but jumps that do NOT cancel the lattice shift
    d = tuple(1.0 / k for k in range(1, 100))
    H = [np.zeros((1, 1))] * 99
    res = t7_check(d, H, 40)
    assert not res.limit_circle_certified


def test_t7_length_validation():
    d, H = christ_stolz_family(20)
    with pytest.raises(IndexOutOfRangeError):
        t7_check(d, H, 50)


def test_t7_overflowing_products_flagged():
    # alternating spacings make one parity's products grow like 16**j
    count = 2 * 300 + 2
    d = [4.0 if k % 2 else 1.0 for k in range(1, count + 1)]
    H = [np.zeros((1, 1))] * (count - 1)
    res = t7_check(d, H, 300)
    rep = res.series_a[1]
    assert any(t == math.inf for t in rep.terms)
    assert any("overflow" in note for note in rep.notes)
    assert len(res.log_terms_a[1]) == 300
    assert all(math.isfinite(v) for v in res.log_terms_a[1])
    assert not res.limit_circle_certified


def test_cor3_constant_lattice():
    d = [1.0] * 30
    H = [np.zeros((1, 1))] * 30
    res = cor3_check(d, H, 20)
    assert res.cond1 and res.cond1_direction == "equal"
    assert res.cond2.verdict == DIVERGES
    assert not res.limit_circle_certified


def test_cor3_constructed_degenerate_family():
    d = tuple(float(k) ** -2 for k in range(1, 60))
    H = tuple(-reciprocal_sum(d, k) * np.eye(1) for k in range(1, 59))
    res = cor3_check(d, H, 40)
    assert all(t == 0.0 for t in res.cond3.terms)
    assert res.cond2.verdict == CONVERGES
    assert res.cond1
    assert res.limit_circle_certified


@pytest.mark.parametrize("family", ["random", "power:-1", "power:0.5", "const"])
def test_cor3_comparability_matches_scalar_loop(family):
    if family == "random":
        d = tuple(np.random.default_rng(3).uniform(0.1, 2.0, 40).tolist())
    elif family == "const":
        d = (0.7,) * 40
    else:
        d = tuple(float(k) ** float(family[6:]) for k in range(1, 41))
    N = len(d) - 3
    above = below = True
    for k in range(2, N + 1):
        lhs = math.sqrt((d[k - 2] + d[k - 1]) * (d[k + 1] + d[k + 2])) * d[k - 1] * d[k + 1]
        rhs = math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1])) * d[k] ** 2
        tol = 1e-12 * max(lhs, rhs)
        above = above and not lhs < rhs - tol
        below = below and not lhs > rhs + tol
    want = "equal" if above and below else ">=" if above else "<=" if below else "mixed"
    res = cor3_check(d, [np.zeros((1, 1))] * N, N)
    assert (res.cond1, res.cond1_direction) == (above or below, want)


def test_cor3_cancel_family_certified():
    d, H = christ_stolz_family(300)
    res = cor3_check(d, H, 200)
    assert res.limit_circle_certified
    assert all(t == 0.0 for t in res.cond3.terms)


# ---------------------------------------------------------------------------
# serialization


def test_blocks_json_roundtrip():
    d = [1.0, 0.5, 2.0, 1.5]
    H = [np.array([[v]]) for v in (0.5, -1.0, 2.0, 0.0)]
    blocks = blocks_from_delta(d, H)
    back = blocks_from_json(blocks_to_json(blocks))
    assert back.n == blocks.n and back.offset == blocks.offset
    for a, b in zip(back.A, blocks.A):
        assert np.array_equal(a, b)
    for a, b in zip(back.B, blocks.B):
        assert np.array_equal(a, b)
    assert back.provenance.d == blocks.provenance.d
