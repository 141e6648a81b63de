import math
import re
from fractions import Fraction

import numpy as np
import pytest
import reference_lattice
import reference_march
from hypothesis import given, settings
from conftest import (
    exact_square,
    frozen_floats,
    periodic_tails,
    power_law_spacings,
    report_key,
    spread_floats,
)
from hypothesis import strategies as st

from sldl import (
    DeltaNodes,
    blocks_from_delta,
    carleman_report,
    carleman_spacing_bounds,
    christ_stolz_family,
    cor3_check,
    discrete_cauchy,
    jacobi,
    solve_recurrence,
    t4_report,
    t4_term,
    t7_check,
)
from sldl.bridge import ClassifyConfig, classify_detailed
from sldl.jacobi import (
    IndexOutOfRangeError,
    JacobiBlocks,
    Lattice,
    NonPositiveSpacingError,
    _order1_steps,
    _order2_steps,
    _power_exponent,
    _steps,
    blocks_from_json,
    blocks_to_json,
    cancel_jumps,
    recurrence_summands,
    spacing_square_divergence,
)
from sldl.matcore import (
    FloatRangeError,
    NonSymmetricError,
    condition,
    first_nonfinite,
    frobenius_norm,
)
from sldl.reports import CONVERGES, DIVERGES, INCONCLUSIVE, build_report


def with_boundary(blocks: JacobiBlocks, a0, b0) -> JacobiBlocks:
    """``blocks`` with the boundary pair (A_0, B_0) spliced in, built by the constructor."""
    A = np.concatenate([np.asarray(a0)[None], blocks.A[1:]])
    B = np.concatenate([np.asarray(b0)[None], blocks.B[1:]])
    return JacobiBlocks(blocks.n, A, B, blocks.provenance)


def constant_blocks(count=12, n=1):
    """Uniform lattice blocks, boundary pair included (A_j = I, B_j = -I/2)."""
    d = [1.0] * count
    H = [np.zeros((n, n))] * count
    return with_boundary(blocks_from_delta(d, H), np.eye(n), -np.eye(n) / 2.0)


# ---------------------------------------------------------------------------
# block construction


def test_blocks_constant_lattice():
    blocks = blocks_from_delta([1.0] * 12, [np.zeros((1, 1))] * 12)
    assert np.array_equal(blocks.A[1], np.eye(1))
    assert np.array_equal(blocks.B[1], -np.eye(1) / 2.0)
    # boundary defaults
    assert np.array_equal(blocks.A[0], np.zeros((1, 1)))
    assert np.array_equal(blocks.B[0], -np.eye(1))
    assert blocks_to_json(blocks)["provenance"]["boundary_default"] is True


def test_blocks_degenerate_diagonal():
    blocks = blocks_from_delta([1.0] * 5, [np.array([[-2.0]])] * 5)
    assert blocks.A[1][0, 0] == 0.0


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
        assert np.array_equal(blocks.A[k], (h + (1.0 / d[k - 1] + 1.0 / d[k]) * eye) / (d[k - 1] + d[k]))
    for k in range(1, len(d) - 1):
        r = math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1]))
        assert np.array_equal(blocks.B[k], -eye / (r * d[k]))
    d, H = christ_stolz_family(300, n)
    assert np.array_equal(blocks_from_delta(d, H).A[1:], np.zeros((299, n, n)))


def test_blocks_boundary_override():
    a0 = np.array([[2.0]])
    b0 = np.array([[3.0]])
    lattice = blocks_from_delta([1.0] * 4, [np.zeros((1, 1))] * 4)
    blocks = with_boundary(lattice, a0, b0)
    assert np.array_equal(blocks.A[0], a0)
    assert blocks_to_json(blocks)["provenance"]["boundary_default"] is False
    # the written flag tests the stored pair, so an explicit (O, -I) is the default
    explicit = with_boundary(lattice, np.zeros((1, 1)), -np.eye(1))
    assert blocks_to_json(explicit)["provenance"]["boundary_default"] is True
    # the lattice builders store (O, -I) and take no other pair
    with pytest.raises(TypeError):
        blocks_from_delta([1.0] * 4, [np.zeros((1, 1))] * 4, boundary=(a0, b0))
    with pytest.raises(TypeError):
        jacobi.blocks_from_lattice(lattice.provenance, (a0, b0))


def test_a_custom_boundary_pair_takes_the_rule_of_the_blocks():
    # A_0 Hermitian and B_0 invertible, as for every slot: a complex Hermitian B_0 and a
    # real non-symmetric one enter through the constructor and through blocks JSON alike
    lattice = blocks_from_delta([1.0] * 6, np.zeros((5, 2, 2)))
    for b0 in ([[2.0, 0.5j], [-0.5j, 1.0]], [[2.0, 0.5], [0.0, 1.0]]):
        blocks = with_boundary(lattice, [[1.0, 0.25], [0.25, 0.0]], b0)
        assert np.array_equal(blocks.B[0], b0)
        assert np.array_equal(blocks.B[1:], lattice.B[1:])
        again = blocks_from_json(blocks_to_json(blocks))
        assert np.array_equal(again.A, blocks.A) and np.array_equal(again.B, blocks.B)
        assert blocks_to_json(again)["provenance"]["boundary_default"] is False
    with pytest.raises(NonSymmetricError, match="^diagonal blocks must be Hermitian$"):
        with_boundary(lattice, [[1.0, 0.25], [0.0, 0.0]], -np.eye(2))
    with pytest.raises(ValueError, match="^off-diagonal blocks must be invertible$"):
        with_boundary(lattice, np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]])


def test_blocks_validation():
    with pytest.raises(NonPositiveSpacingError):
        blocks_from_delta([1.0, -1.0, 1.0], [np.zeros((1, 1))] * 3)
    with pytest.raises(NonSymmetricError):
        blocks_from_delta([1.0] * 3, [np.array([[0.0, 1.0], [0.0, 0.0]])] * 3)
    with pytest.raises(ValueError):
        blocks_from_delta([1.0] * 4, [np.zeros((1, 1))] * 2)
    with pytest.raises(ValueError):
        JacobiBlocks(1, (np.array([[1j]]),), (np.eye(1),))
    with pytest.raises(ValueError):
        JacobiBlocks(1, (np.eye(1),), (np.zeros((1, 1)),))


@pytest.mark.parametrize("d, error, message", [
    ([[1.0, 2.0], [3.0, 4.0]], TypeError, "float() argument"),
    ([[1.0], 2.0], TypeError, "float() argument"),
    (np.ones((3, 2)), TypeError, "array"),
    (3.0, TypeError, "not iterable"),
    ([1.0, math.inf, 2.0], ValueError, "spacings must be finite"),
    ([1.0, math.nan, 2.0], NonPositiveSpacingError, "spacings must be strictly positive"),
    ([1.0, -math.inf, 2.0], NonPositiveSpacingError, "spacings must be strictly positive"),
    ([1.0, 0.0, 2.0], NonPositiveSpacingError, "spacings must be strictly positive"),
    ([1.0, -1.0, 2.0], NonPositiveSpacingError, "spacings must be strictly positive"),
])
def test_lattice_rejects_bad_spacings(d, error, message):
    # each spacing is taken by float(): nested spacings are a TypeError, not an array
    with pytest.raises(error, match=re.escape(message)) as info:
        Lattice(d, np.zeros((2, 1, 1)))
    assert type(info.value) is error


def test_lattice_spacings_are_one_read_only_float_array():
    lat = Lattice((1, True, "0.5", np.float32(0.25)), np.zeros((3, 1, 1)))
    assert lat.d.dtype == float and lat.d.shape == (4,) and not lat.d.flags.writeable
    assert lat.d.tolist() == [1.0, 1.0, 0.5, 0.25]


# the spacings a caller may pass, each as the same values in another container
_SPACING_FORMS = {
    "tuple": lambda: (1.0, 0.5, 2.0, 5e-324, 1e300),
    "list": lambda: [1.0, 0.5, 2.0, 5e-324, 1e300],
    "ndarray slice": lambda: np.array([1.0, 9.0, 0.5, 9.0, 2.0, 9.0, 5e-324])[::2],
    "float32 array": lambda: np.array([1.0, 0.1, 3.0], dtype=np.float32),
    "int array": lambda: np.arange(1, 6),
    "generator": lambda: (1.0 / k for k in range(1, 7)),
    "ints": lambda: (1, 2, 3, 2**53 + 1),
    "strs": lambda: ("1.5", " 2 ", "1_000", "1e-310", b"0.25"),
    "numpy scalars": lambda: (np.float64(0.5), np.float32(0.1), np.int64(3), np.bool_(True)),
    "mixed": lambda: [1, True, "0.5", np.float32(0.25), 2.0],
}


@pytest.mark.parametrize("form", sorted(_SPACING_FORMS))
def test_lattice_takes_each_spacing_as_float_does(form):
    want = reference_lattice.float_spacings(_SPACING_FORMS[form]())
    assert Lattice(_SPACING_FORMS[form](), np.zeros((3, 1, 1))).d.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [
    [1.0, None, 2.0],
    (x for x in (1.0, 2.0, None)),
    [1.0, [2.0]],
    [(1.0,), 2.0],
    [np.array([1.0])],
    [np.array(2.0), {}],
    ["abc"],
    ["0x10"],
    [10**400],
    [1j],
    [1.0, object()],
    [None, 10**400],
    [1.0, [2.0], 10**400],
    ["abc", 10**400],
])
def test_lattice_raises_the_error_float_raises(d):
    # one fromiter pass reads None as NaN, a nested entry as a ValueError and raises
    # OverflowError past an earlier None; the spacings are then taken again by float(),
    # so its error class and message show
    d = list(d)
    with pytest.raises(Exception) as want:
        reference_lattice.float_spacings(d)
    for form in (d, tuple(d), iter(d)):
        with pytest.raises(type(want.value)) as got:
            Lattice(form, np.zeros((2, 1, 1)))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@given(st.lists(st.floats(5e-324, 1e308) | st.integers(1, 10**300), min_size=1, max_size=40),
       st.sampled_from([tuple, list, iter, np.array]))
@settings(max_examples=200, deadline=None)
def test_lattice_spacings_hold_the_bits_float_gives(values, form):
    d = form(values) if form is not np.array else np.array(values, dtype=float)
    lat = Lattice(d, np.zeros((len(values), 1, 1)))
    assert lat.d.tobytes() == reference_lattice.float_spacings(values).tobytes()


# ---------------------------------------------------------------------------
# recurrence


def recurrence_at(blocks, u, j):
    """(lu)_j = B_j u_{j+1} + A_j u_j + B*_{j-1} u_{j-1}, summed from the stacked summands."""
    return sum(recurrence_summands(blocks, np.asarray(u, dtype=complex), j, j + 1))[0]


def test_recurrence_sum_examples():
    blocks = constant_blocks()
    assert recurrence_at(blocks, [[0.0], [1.0], [2.0]], 1)[0] == 0.0
    assert recurrence_at(blocks, [[1.0], [1.0], [1.0]], 1)[0] == 0.0
    assert recurrence_at(blocks, [[0.0], [1.0], [0.0]], 1)[0] == 1.0


def test_recurrence_sum_index_errors():
    blocks = constant_blocks()
    with pytest.raises(IndexOutOfRangeError, match=r"B_-1 not stored"):
        recurrence_at(blocks, [[0.0], [1.0], [2.0]], 0)
    with pytest.raises(IndexOutOfRangeError, match=r"B_11 not stored"):
        recurrence_at(blocks, np.zeros((13, 1)), 11)


def test_recurrence_summands_are_the_per_index_products():
    rng = np.random.default_rng(5)
    n, count = 2, 9
    d = rng.uniform(0.2, 2.0, count + 2)
    H = [(lambda a: a + a.T)(rng.uniform(-2, 2, (n, n))) for _ in range(count + 1)]
    blocks = blocks_from_delta(d, H)
    u = rng.uniform(-1, 1, (count + 1, n)) + 1j * rng.uniform(-1, 1, (count + 1, n))
    parts = recurrence_summands(blocks, u, 1, count)
    for j in range(1, count):
        want = (blocks.B[j] @ u[j + 1], blocks.A[j] @ u[j],
                blocks.B[j - 1].conj().T @ u[j - 1])
        for part, w in zip(parts, want):
            assert np.allclose(part[j - 1], w, rtol=1e-15, atol=0.0)
        assert np.array_equal(recurrence_at(blocks, u, j),
                              parts[0][j - 1] + parts[1][j - 1] + parts[2][j - 1])
    with pytest.raises(IndexOutOfRangeError):
        recurrence_summands(blocks, u, 1, len(blocks.B) + 1)


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
        res = recurrence_at(blocks, u, j)
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
        res = (blocks.B[i] @ cols[i + 1] + blocks.A[i] @ cols[i]
               + blocks.B[i - 1].conj().T @ cols[i - 1])
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
# the stacked march against exact oracles and a per-step solve


def christ_stolz_exact(steps, u0, u1):
    """u_0 .. u_{steps-1} of the cancel lattice d_k = 1/k from its closed form.

    With A_k = O the recurrence reduces to f_{k+1} = -(k / (k + 1)) f_{k-1}
    for k >= 2, u_k = r_{k+1} f_k, f_1 = u_1 / r_2 and f_2 = -r_2 d_2 u_0.
    The products are carried exactly as integer numerator and denominator,
    r_j^2 = d_{j-1} + d_j exactly as a Fraction; each value is rounded once
    per factor.
    """
    r2 = lambda j: Fraction(2 * j - 1, j * (j - 1))
    out = [u0, u1]
    num, den = [1, 1], [1, 1]  # the product for the parity of k
    for k in range(2, steps):
        p = k % 2
        if k >= 3:
            num[p] *= -(k - 1)
            den[p] *= k
        if p:
            out.append(num[p] / den[p] * u1 * math.sqrt(r2(k + 1) / r2(2)))
        else:
            out.append(-(num[p] / den[p]) * u0 * math.sqrt(r2(k + 1) * r2(2)) / 2.0)
    return np.array(out)


@pytest.mark.parametrize("seed", [(1.0, 0.0), (0.0, 1.0)])
def test_christ_stolz_march_matches_the_exact_closed_form(seed):
    steps = 10_000
    d, H = christ_stolz_family(steps + 2)
    u = solve_recurrence(blocks_from_delta(d, H), [seed[0]], [seed[1]], steps)[:, 0]
    exact = christ_stolz_exact(steps, *seed)
    zero = exact == 0.0
    assert np.all(u[zero] == 0.0)
    assert np.max(np.abs(u[~zero] - exact[~zero]) / np.abs(exact[~zero])) <= 1e-13


def _lattice_blocks(kind):
    d, H = christ_stolz_family(2002)
    if kind == "harmonic-cancel":
        return blocks_from_delta(d, H)
    if kind == "const-n2":
        return blocks_from_delta([1.0] * 2002, np.zeros((2001, 2, 2)))
    n = int(kind[-1])
    rng = np.random.default_rng(n)
    sym = lambda a: (a + a.T) / 2.0
    return blocks_from_delta(d, [h[0, 0].real * np.eye(n) + sym(rng.uniform(-0.5, 0.5, (n, n)))
                                 for h in H])


@pytest.mark.parametrize("kind", ["harmonic-cancel", "perturbed-n1", "perturbed-n2", "const-n2"])
def test_stacked_march_equals_the_per_step_solve(kind):
    # the complex per-step solve divides by B_m through its reciprocal, so its
    # values are those of the real march, except the vector steps of perturbed
    # n = 2 blocks, where a real matrix-vector product may round an entry
    # apart from the complex one; there the per-step product with the stored
    # inverse on real columns is the reference (test_lattice_march_accuracy
    # bounds both against a 50-digit march)
    blocks = _lattice_blocks(kind)
    n, count = blocks.n, len(blocks.B)
    march = reference_march.inverse_march if kind == "perturbed-n2" else reference_march.march
    rng = np.random.default_rng(11)
    for u0, u1 in ((np.ones(n), np.zeros(n)), (np.zeros(n), np.ones(n)),
                   (rng.normal(size=n), rng.normal(size=n))):
        assert np.array_equal(solve_recurrence(blocks, u0, u1, count),
                              reference_march.solve_recurrence(blocks, u0, u1, count, march))
    for i, j in ((4, 3), (5, 3), (1200, 150), (count - 1, 1)):
        assert np.array_equal(discrete_cauchy(blocks, i, j),
                              reference_march.discrete_cauchy(blocks, i, j))
    for n_k, m_k in ((1, 200), (700, 899), (count - 201, count - 2)):
        assert t4_term(blocks, n_k, m_k) == reference_march.t4_term(blocks, n_k, m_k)


@pytest.mark.parametrize("kind", ["harmonic-cancel", "perturbed-n1", "perturbed-n2", "const-n2"])
def test_march_keeps_every_bit_and_zero_sign_of_the_matmul_step(kind):
    # lattice blocks are real: n = 1 steps in Python floats, n >= 2 by real
    # matmul; both must give the real parts of one real matmul step per
    # lattice step, signed zeros included, and imaginary parts +0.0
    blocks = _lattice_blocks(kind)
    n, count = blocks.n, len(blocks.B)
    step = reference_march.inverse_march
    zero_imag = lambda u: not (u.imag.any() or np.signbit(u.imag).any())
    for u0, u1 in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 0.0), (1.0, -0.0),
                   (-0.0, 1.0), (-1.0, 0.0)):
        u0, u1 = np.full(n, u0), np.full(n, u1)
        got = solve_recurrence(blocks, u0, u1, count)
        want = reference_march.solve_recurrence(blocks, u0, u1, count, step)
        assert got.real.tobytes() == want.real.tobytes() and zero_imag(got)
    for i, j in ((4, 3), (5, 3), (6, 3), (1200, 150), (count - 1, 1)):
        got = discrete_cauchy(blocks, i, j)
        want = reference_march.discrete_cauchy(blocks, i, j, step)
        assert got.real.tobytes() == want.real.tobytes() and zero_imag(got)


@pytest.mark.parametrize("kind", ["harmonic-cancel", "perturbed-n1"])
def test_real_order_1_lattices_keep_the_bits_of_the_complex_loop(kind):
    # the float march, its reciprocal inverses and its real t4 grams against the
    # complex128 code they replace: real parts bit for bit, and imaginary parts
    # too where a complex seed puts them in the march, else +0.0
    blocks = _lattice_blocks(kind)
    count = len(blocks.B)
    old = reference_march.complex_march

    def same(got, want):
        imag = want.imag if want.imag.any() else np.zeros(want.shape)
        return got.real.tobytes() == want.real.tobytes() and got.imag.tobytes() == imag.tobytes()

    rng = np.random.default_rng(5)
    for u0, u1 in ((1.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (rng.normal(), 1j),
                   (rng.normal() + 1j * rng.normal(), rng.normal())):
        assert same(solve_recurrence(blocks, [u0], [u1], count),
                    reference_march.solve_recurrence(blocks, [u0], [u1], count, old))
    assert blocks.B_inv.dtype == float
    assert blocks.B_inv.tobytes() == np.linalg.inv(blocks.B.astype(complex)).real.tobytes()
    for i, j in ((4, 3), (5, 3), (1200, 150), (count - 1, 1)):
        assert same(discrete_cauchy(blocks, i, j),
                    reference_march.discrete_cauchy(blocks, i, j, old))
    for n_k, m_k in ((1, 1), (1, 2), (1, 200), (700, 899), (count - 201, count - 2)):
        assert t4_term(blocks, n_k, m_k) == reference_march.complex_t4_term(blocks, n_k, m_k)


def test_t4_term_at_order_3_equals_the_per_row_march():
    blocks = _lattice_blocks("perturbed-n3")
    for n_k, m_k in ((1, 1), (1, 2), (1, 200), (700, 899), (len(blocks.B) - 3, len(blocks.B) - 1)):
        assert t4_term(blocks, n_k, m_k) == reference_march.t4_term(blocks, n_k, m_k)


@pytest.mark.parametrize("n", [1, 2])
def test_an_overflowing_t4_segment_names_the_row_of_the_per_row_sum(n):
    def outcome(t4, m_k):
        try:
            return t4(blocks, 1, m_k)
        except ValueError as exc:
            return str(exc)

    blocks = blocks_from_delta([1.0] * 50, np.full((49, n, n), 1e200) * np.eye(n))
    assert outcome(t4_term, 40) == "the t4 sum leaves the float range at row 3"
    with np.errstate(over="ignore", invalid="ignore"):
        for m_k in (1, 2, 3, 4, 40):
            assert outcome(t4_term, m_k) == outcome(reference_march.t4_term, m_k)


@pytest.mark.parametrize("kind", ["harmonic-cancel", "perturbed-n1", "perturbed-n2", "const-n2"])
def test_t4_term_of_one_and_two_row_segments_equals_the_per_row_march(kind):
    blocks = _lattice_blocks(kind)
    for n_k in (1, 2, 3, 700, len(blocks.B) - 3):
        for m_k in (n_k, n_k + 1, n_k + 2):
            assert t4_term(blocks, n_k, m_k) == reference_march.t4_term(blocks, n_k, m_k)


class Gaussian:
    """Exact Gaussian rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, z):
        self.re, self.im = (Fraction(z.real), Fraction(z.imag)) if isinstance(z, complex) else z

    def __add__(self, o):
        return Gaussian((self.re + o.re, self.im + o.im))

    def __sub__(self, o):
        return Gaussian((self.re - o.re, self.im - o.im))

    def __mul__(self, o):
        return Gaussian((self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re))

    def __truediv__(self, o):
        den = o.re * o.re + o.im * o.im
        return Gaussian(((self.re * o.re + self.im * o.im) / den,
                         (self.im * o.re - self.re * o.im) / den))

    def conj(self):
        return Gaussian((self.re, -self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _exact_solve(m, rhs):
    """m^-1 rhs by Gauss-Jordan elimination in exact arithmetic."""
    n = len(m)
    rows = [list(row) + [r] for row, r in zip(m, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c].re or rows[r][c].im)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_recurrence(blocks, u0, u1, count):
    """solve_recurrence in exact Gaussian rationals, from the float blocks and seeds."""
    q = lambda v: [Gaussian(complex(x)) for x in v]
    mats = lambda seq: [[q(row) for row in m] for m in seq]
    mv = lambda m, v: [sum((a * b for a, b in zip(row, v)), Gaussian((0, 0))) for row in m]
    A, B = mats(blocks.A), mats(blocks.B)
    u = [q(u0), q(u1)]
    for m in range(1, count - 1):
        b_star = [[row[i].conj() for row in B[m - 1]] for i in range(blocks.n)]
        rhs = [x + y for x, y in zip(mv(A[m], u[-1]), mv(b_star, u[-2]))]
        u.append([Gaussian((0, 0)) - x for x in _exact_solve(B[m], rhs)])
    return np.array([[complex(x) for x in v] for v in u])


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)])
def test_march_of_random_complex_blocks_matches_exact_arithmetic(n, seed):
    rng = np.random.default_rng(seed)
    count = 30
    cplx = lambda: rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    A = [(lambda a: (a + a.conj().T) / 2.0)(cplx()) for _ in range(count)]
    B = [cplx() + 2.0 * np.eye(n) for _ in range(count)]
    blocks = JacobiBlocks(n, A, B)
    u0, u1 = cplx()[0], cplx()[0]
    u = solve_recurrence(blocks, u0, u1, count)
    exact = exact_recurrence(blocks, u0, u1, count)
    assert np.all(np.linalg.norm(u - exact, axis=1) <= 1e-12 * np.linalg.norm(exact, axis=1))


def test_B_inv_and_B_star_stacks_are_cached_and_read_only():
    blocks = constant_blocks()
    assert blocks.B_inv is blocks.B_inv and blocks.B_star is blocks.B_star
    assert np.array_equal(blocks.B_inv @ blocks.B, np.broadcast_to(np.eye(1), blocks.B.shape))
    assert np.array_equal(blocks.B_star, np.swapaxes(blocks.B, -1, -2).conj())
    for stack in (blocks.B_inv, blocks.B_star):
        with pytest.raises(ValueError):
            stack[0] = 0.0


def ill_conditioned_block():
    """A 2x2 Hermitian block of condition 1e7."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (q * np.array([1.0, 1e7])) @ q.conj().T


def test_ill_conditioned_block_is_inverted_by_every_kernel():
    # B_9 passes the one condition rule, so the kernels that invert it return
    # values, as the marches through it do: those of the per-step references
    b = ill_conditioned_block()
    assert condition(b) == pytest.approx(1e7, rel=1e-6)
    base = constant_blocks(14, n=2)
    B = base.B.astype(complex)  # lattice blocks are real
    B[9] = b
    blocks = JacobiBlocks(2, base.A, B)
    u0, u1 = [1.0, 0.0], [0.0, 1.0]
    step = reference_march.inverse_march
    assert (solve_recurrence(blocks, u0, u1, 13).tobytes()
            == reference_march.solve_recurrence(blocks, u0, u1, 13, step).tobytes())
    for i, j in ((8, 2), (12, 5), (11, 9), (10, 9)):
        got = discrete_cauchy(blocks, i, j)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == reference_march.discrete_cauchy(blocks, i, j, step).tobytes()
    for n_k, m_k in ((2, 9), (8, 11), (9, 9), (1, 13)):
        got = t4_term(blocks, n_k, m_k)
        assert math.isfinite(got) and got == reference_march.t4_term(blocks, n_k, m_k)


def test_march_checks_stored_blocks_before_stepping():
    blocks = constant_blocks(5)
    with pytest.raises(IndexOutOfRangeError):
        solve_recurrence(blocks, [0.0], [1.0], 10)
    with pytest.raises(IndexOutOfRangeError):
        discrete_cauchy(blocks, 9, 2)
    with pytest.raises(IndexOutOfRangeError):
        t4_term(blocks, 2, 9)


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


def test_carleman_takes_no_power_law_from_a_spacing_ratio_that_underflows():
    # the tail ratio 1e-175 / 1e150 reads 0.0, and log(0.0) raised a math domain error
    d = [1.0] * 8 + [1e150, 1e-175, 1.0, 2.0, 3.0, 5.0, 7.0, 11.0]
    assert _power_exponent(d[:14]) is None
    rep = carleman_report(blocks_from_delta(d, np.zeros((15, 1, 1))), 12)
    assert (rep.verdict, rep.verdict_basis) == (
        INCONCLUSIVE, "no divergence or convergence certificate fired")


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


@pytest.mark.parametrize("n", [1, 3])
def test_cancel_jumps_zero_the_shifted_jumps_exactly(n):
    d, H = christ_stolz_family(300, n)
    assert np.array_equal(cancel_jumps(d, n), H)
    eye = np.eye(n)
    for k in range(1, 300):
        assert np.array_equal(H[k - 1], -(1.0 / d[k - 1] + 1.0 / d[k]) * eye)
    d = tuple(np.random.default_rng(4).uniform(0.05, 3.0, 50).tolist())
    assert np.all(blocks_from_delta(d, cancel_jumps(d, n)).A[1:] == 0.0)


def test_cor3_constructed_degenerate_family():
    d = tuple(float(k) ** -2 for k in range(1, 60))
    H = tuple(-(1.0 / d[k - 1] + 1.0 / d[k]) * np.eye(1) for k in range(1, 59))
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


def test_cor3_spacing_terms_are_the_correctly_rounded_squares():
    for d in (spread_floats(2603), np.array(christ_stolz_family(20_002)[0])):
        N = len(d) - 3
        assert any(v ** 2 != v * v for v in d[:N].tolist())  # where pow misrounds
        res = cor3_check(d, np.zeros((N, 1, 1)), N)
        assert list(res.cond2.terms) == [exact_square(v) for v in d[:N].tolist()]


def _lattice(kind):
    """Spacings and jumps of the lattices the array passes are compared on."""
    rng = np.random.default_rng(2024)
    if kind == "christ-stolz":
        return christ_stolz_family(20_002)
    if kind.startswith("perturbed"):
        n = int(kind[-1])
        d, H = christ_stolz_family(2002, n)
        a = rng.uniform(-1e-3, 1e-3, (len(H), n, n))
        return d, H + (a + a.transpose(0, 2, 1)) / 2.0
    if kind == "random":
        a = rng.uniform(-2.0, 2.0, (2001, 1, 1))
        return tuple(rng.uniform(0.1, 2.0, 2002).tolist()), a
    return tuple(float(k) ** -0.75 for k in range(1, 2003)), np.zeros((2001, 1, 1))


@pytest.mark.parametrize("kind", ["christ-stolz", "perturbed-1", "perturbed-2", "random",
                                  "power"])
def test_lattice_array_passes_equal_the_term_at_a_time_references(kind):
    d, H = _lattice(kind)
    N = len(d) - 3
    blocks = blocks_from_delta(d, H)
    # the complex stacks of the block-at-a-time division hold the real blocks' bits
    A, B = reference_lattice.block_stacks(d, H)
    assert not (A.imag.any() or B.imag.any())
    assert blocks.A.dtype == blocks.B.dtype == float
    assert blocks.A.tobytes() == A.real.tobytes()
    assert blocks.B.tobytes() == B.real.tobytes()
    for window in (d, d[:N + 2], d[:100], d[:13]):
        assert repr(_power_exponent(window)) == repr(reference_lattice.power_exponent(window))
    rep = carleman_report(blocks, N)
    assert np.array(rep.terms).tobytes() == np.array(
        reference_lattice.carleman_terms(blocks, N)).tobytes()
    res = cor3_check(d, H, N)
    cond1, direction, spacing, jump = reference_lattice.cor3(d, H, N)
    assert (res.cond1, res.cond1_direction) == (cond1, direction)
    for got, want in ((res.cond2, spacing), (res.cond3, jump)):
        assert np.array(got.terms).tobytes() == np.array(want.terms).tobytes()
        assert (got.verdict, got.verdict_basis) == (want.verdict, want.verdict_basis)
    assert_t7_equals_the_term_loop(d, H, (len(d) - 2) // 2)


def assert_t7_equals_the_term_loop(d, H, N):
    res = t7_check(d, H, N)
    for s, (ta, tb, la, overflowed) in enumerate(reference_lattice.t7(d, H, N)):
        a, b = res.series_a[s], res.series_b[s]
        assert np.array(a.terms).tobytes() == np.array(ta).tobytes()
        assert np.array(b.terms).tobytes() == np.array(tb).tobytes()
        assert frozen_floats(res.log_terms_a[s], la)
        assert (a.notes != ()) == (overflowed > 0) and all(str(overflowed) in v for v in a.notes)
        assert report_key(a) == report_key(build_report(a.criterion, ta, notes=a.notes))
        assert report_key(b) == report_key(build_report(b.criterion, tb))


@pytest.mark.parametrize("d", [
    (1e-300, 1e300) * 9,  # products past the float range in one parity, zero terms in the other
    tuple(10.0 ** e for e in (-300, 300, -150, 200, 5, -5, 300, -300, 1, 2, 3, 4, 250, -250)),
    (1.0, 5e-324, 2.0, 1e-310, 3.0, 1.0, 0.5, 1e308, 1e308, 1.0, 2.0, 1.0),  # inf defects, inf r^2
    (4.0, 1.0) * 40,
])
@pytest.mark.parametrize("n", [1, 2])
def test_t7_of_extreme_lattices_equals_the_term_loop(d, n):
    rng = np.random.default_rng(len(d))
    a = rng.uniform(-2.0, 2.0, (len(d), n, n))
    N = (len(d) - 2) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        for H in (a + a.transpose(0, 2, 1), np.zeros((len(d), n, n))):
            assert_t7_equals_the_term_loop(d, H, N)
            assert_t7_equals_the_term_loop(d, H, 1)


def _wide_lattice(kind):
    """Spacings from near 1e-300 to near 1e300, whose products leave the float range."""
    rng = np.random.default_rng(4401)
    if kind == "alternating":
        return (1e-300, 1e300) * 2001, np.zeros((4001, 1, 1))
    n = int(kind[-1])
    a = rng.uniform(-2.0, 2.0, (4001, n, n))
    return 10.0 ** rng.uniform(-300.0, 300.0, 4002), a + a.transpose(0, 2, 1)


@pytest.mark.parametrize("kind", ["christ-stolz", "power", "wide-1", "wide-2", "alternating"])
def test_t7_and_the_power_exponent_on_either_libm_path_equal_the_term_loops(libm_path, kind):
    # t7's logs and exps and the exponent's logs are libm passes: their reversed numpy
    # pass and the per-entry map a failed probe keeps give the term loop's bits
    wide = kind not in ("christ-stolz", "power")
    d, H = _wide_lattice(kind) if wide else _lattice(kind)
    with np.errstate(over="ignore", under="ignore"):
        assert_t7_equals_the_term_loop(d, H, (len(d) - 2) // 2)
        for window in (d, d[:len(d) // 3]):
            assert repr(_power_exponent(window)) == repr(reference_lattice.power_exponent(window))
    if wide:  # terms past the float range read inf and keep their logs
        notes = [r.notes for r in t7_check(d, H, (len(d) - 2) // 2).series_a]
        assert any("overflow" in note for note in sum(notes, ()))


@pytest.mark.parametrize("d", [
    (1e-300, 1e10) * 8,  # ratios past the float range: no exponent
    (1e10, 1e-300) * 8,  # the same after a finite one, where Python's max kept inf
    (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    (1.0,) * 12 + (float("nan"),),
])
def test_power_exponent_of_extreme_tails_equals_the_loop(d):
    assert repr(_power_exponent(d)) == repr(reference_lattice.power_exponent(d))


@given(power_law_spacings())
@settings(max_examples=600, deadline=None)
def test_spacing_fallback_equals_the_whole_tail_decision(d):
    # the early exit on the first local exponent gives what the whole tail gives
    got = spacing_square_divergence(d)
    assert got == reference_lattice.spacing_square_divergence(d)
    assert got == spacing_square_divergence(np.array(d))


@given(periodic_tails())
@settings(max_examples=400, deadline=None)
def test_spacing_fallback_of_periodic_tails_equals_the_whole_tail_decision(d):
    assert spacing_square_divergence(d) == reference_lattice.spacing_square_divergence(d)


def spike_spacings(count: int, base: int = 4, p: float = 2.0) -> tuple[float, ...]:
    """d_k = k^-p, except d_k = 1 at k = base^j (j >= 1)."""
    spikes = {base**j for j in range(1, 20)}
    return tuple(1.0 if k in spikes else float(k) ** -p for k in range(1, count + 1))


@pytest.mark.parametrize("count", [8, 9, 16, 17, 64, 65, 100, 1000, 4097, 20_000])
def test_spacing_fallback_of_the_spike_lattice_equals_the_whole_tail_decision(count):
    for d in (spike_spacings(count), christ_stolz_family(count)[0],
              tuple(float(k) ** -0.5 for k in range(1, count + 1))):
        assert spacing_square_divergence(d) == reference_lattice.spacing_square_divergence(d)


_STEP_VALUES = st.sampled_from([0.0, -0.0, 0.5, -3.0, 5e-324, 1e308, math.inf, -math.inf,
                                 math.nan, -math.nan])


@given(st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_order_1_steps_keep_the_bits_of_a_zero_add_on_every_summand(data, cplx):
    # the step takes one 0.0 + (0j +) on the product; one on each summand as well
    # changes no bit, zero signs and inf included. Where two NaNs meet, CPython
    # returns either one (its specialized float operations take the other operand
    # from its generic ones), so NaNs compare as one NaN
    entry = st.builds(complex, _STEP_VALUES, _STEP_VALUES) if cplx else _STEP_VALUES
    dtype, zero = (complex, 0j) if cplx else (float, 0.0)
    m = data.draw(st.integers(1, 6))
    A, B_inv, B_star = (np.array(data.draw(st.lists(entry, min_size=m, max_size=m)),
                                 dtype=dtype).reshape(m, 1, 1) for _ in range(3))
    p, c = data.draw(entry), data.draw(entry)
    out = np.empty((m, 1), dtype=dtype)
    _order1_steps(A, B_inv.ravel().tolist(), B_star.ravel().tolist(),
                  np.array([p], dtype=dtype), np.array([c], dtype=dtype), out)
    want = []
    for a, b_inv, b_star in zip(A.ravel().tolist(), B_inv.ravel().tolist(),
                                B_star.ravel().tolist()):
        p, c = c, -(zero + b_inv * ((zero + a * c) + (zero + b_star * p)))
        want.append(c)
    got, want = out.ravel().view(float), np.array(want, dtype=dtype).view(float)
    nan = np.isnan(got)
    assert (nan == np.isnan(want)).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# zero-diagonal marches: two running products


def cancel_lattice(seed: int):
    """(d, H) of a seeded ``cancel`` lattice: order 1 .. 3, 5 .. 300 spacings scaled by 10^e."""
    rng = np.random.default_rng([seed, 34])
    n, count = int(rng.integers(1, 4)), int(rng.integers(5, 301))
    scale = 10.0 ** int(rng.choice([-150, -3, 0, 3, 150]))
    d = tuple((scale * rng.uniform(0.1, 2.0, count)).tolist())
    return d, cancel_jumps(d, n)


FINITE_SEEDS = [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 0.0), (1e200, 1.0), (1.0, -1e200),
                (1 + 2j, 0.5j), (0.25, -3j), (-0.0 + 1e-300j, 1e200 - 0.0j)]
NONFINITE_SEEDS = [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
                   (complex(1.0, math.nan), 1j), (1.0, complex(math.inf, 0.0))]


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``sldl.jacobi.<name>``, which still runs."""
    calls, real = [], getattr(jacobi, name)
    monkeypatch.setattr(jacobi, name, lambda *args: calls.append(args) or real(*args))
    return calls


def reference_error(states, first_step: int) -> str | None:
    """The FloatRangeError message of a march whose steps first_step, ... give ``states``."""
    for r, state in enumerate(states):
        if not np.isfinite(state).all():
            m = first_step + r
            return f"the recurrence leaves the float range at step {m} (u_{m + 1})"
    return None


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal by bytes and sign bits; ``want`` is complex, and real for a real ``got``."""
    want = want.astype(got.dtype) if got.dtype == complex else want.real
    return (got.tobytes() == want.tobytes()
            and np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float))))


def check_against_the_matmul_step(blocks, u0, u1, pairs):
    """solve_recurrence and discrete_cauchy against ``reference_march.inverse_march``: the same
    bits, or the same FloatRangeError message where the reference leaves the float range."""
    step, count, n = reference_march.inverse_march, len(blocks.B), blocks.n
    u0, u1 = np.full(n, u0), np.full(n, u1)
    with np.errstate(all="ignore"):
        want = step(blocks, u0.astype(complex), u1.astype(complex), 1, count - 1)
    error = reference_error(want, 1)
    if error is None:
        assert same_bits(solve_recurrence(blocks, u0, u1, count), np.array([u0, u1, *want]))
    else:
        with pytest.raises(FloatRangeError, match=re.escape(error)):
            solve_recurrence(blocks, u0, u1, count)
    for i, j in pairs:
        first = np.linalg.inv(blocks.B[j]).astype(complex)
        with np.errstate(all="ignore"):
            want = step(blocks, np.zeros((n, n), dtype=complex), first, j + 1, i)
        error = reference_error(want, j + 1)
        if error is None:
            assert same_bits(discrete_cauchy(blocks, i, j), want[-1] if want else first)
        else:
            with pytest.raises(FloatRangeError, match=re.escape(error)):
                discrete_cauchy(blocks, i, j)


def cauchy_pairs(count: int):
    return [(j + 1, j) for j in (1, count - 2)] + [(count - 1, 1), (max(count // 2, 3), 2),
                                                    (count - 1, count // 3 + 1)]


@pytest.mark.parametrize("seed", range(40))
def test_zero_diagonal_marches_keep_every_bit_of_the_matmul_step(seed, monkeypatch):
    # every A_k of a cancel lattice is O and every B_k a real scalar, so finite
    # vector seeds (and every seed at order 1) march as two running products; the
    # matmul step per lattice step gives the same bits and zero signs, and the same
    # first step out of range. Kernels K_ij at n >= 2 are matrix states on _steps
    d, H = cancel_lattice(seed)
    blocks = blocks_from_delta(d, H)
    loops, products = count_calls(monkeypatch, "_steps"), count_calls(monkeypatch, "_products")
    for u0, u1 in FINITE_SEEDS:
        check_against_the_matmul_step(blocks, u0, u1, cauchy_pairs(len(blocks.B)))
    assert products and all(blocks.n > 1 and cur.ndim == 2 for _, _, _, _, cur, _ in loops)


def loop_march(blocks, u0, u1, count):
    """The recurrence by a step loop alone on the stacks ``_march`` passes it: the Python
    loop of ``_order1_steps`` at order 1, the three BLAS products of ``_steps`` above it."""
    dtype = np.result_type(blocks.A, u0, u1)
    out = np.empty((count - 2, blocks.n), dtype=dtype)
    s = slice(0, count - 1)
    A, B_inv, B_star, u0, u1 = (np.asarray(x).astype(dtype) for x in (
        blocks.A[s][1:], blocks.B_inv[s][1:], blocks.B_star[s][:-1], u0, u1))
    with np.errstate(all="ignore"):
        if blocks.n == 1:
            _order1_steps(A, B_inv.ravel().tolist(), B_star.ravel().tolist(), u0, u1, out)
        else:
            _steps(A, B_inv, B_star, u0, u1, out)
    return out


def check_the_loop(blocks, u0, u1):
    """solve_recurrence against ``loop_march``: the same bits, or the FloatRangeError
    of its first row out of the float range."""
    count = len(blocks.B)
    u0, u1 = np.full(blocks.n, u0), np.full(blocks.n, u1)
    want = loop_march(blocks, u0, u1, count)
    error = reference_error(want, 1)
    if error is None:
        want = np.array([u0, u1, *want], dtype=want.dtype)
        assert solve_recurrence(blocks, u0, u1, count).tobytes() == want.tobytes()
    else:
        with pytest.raises(FloatRangeError, match=re.escape(error)):
            solve_recurrence(blocks, u0, u1, count)


@pytest.mark.parametrize("seed", range(12))
def test_nonfinite_seeds_take_the_loop(seed, monkeypatch):
    # the loop lets a NaN cross the parities through 0 * inf, so its first bad
    # row is not the running products'; such seeds keep it
    blocks = blocks_from_delta(*cancel_lattice(seed))
    products = count_calls(monkeypatch, "_products")
    for u0, u1 in NONFINITE_SEEDS:
        check_the_loop(blocks, u0, u1)
    assert not products


def off_lattice_forms(seed: int):
    """Blocks of a cancel lattice that the running products may not march from u_0:
    one nonzero A entry, a non-scalar boundary B_0, and complex scalar B without provenance."""
    d, H = cancel_lattice(seed)
    n, rng = H.shape[1], np.random.default_rng([seed, 35])
    bumped = np.array(H)
    k = int(rng.integers(len(H) - 2))  # A_{k+1}, read by the march from u_0
    bumped[k, 0, 0] += 0.5 * abs(H[k, 0, 0])
    yield blocks_from_delta(d, bumped)
    if n > 1:
        s = rng.uniform(-0.5, 0.5, (n, n))
        yield with_boundary(blocks_from_delta(d, H), np.zeros((n, n)), np.eye(n) + s + s.T)
    obj = blocks_to_json(blocks_from_delta(d, H))
    del obj["provenance"]
    turn = complex(math.cos(0.3), math.sin(0.3))
    obj["B"] = [[[[(x * turn).real, (x * turn).imag] for x in row] for row in b] for b in obj["B"]]
    yield blocks_from_json(obj)


@pytest.mark.parametrize("seed", range(12))
def test_marches_off_the_zero_diagonal_keep_the_loop(seed, monkeypatch):
    products = count_calls(monkeypatch, "_products")
    for blocks in off_lattice_forms(seed):
        products.clear()
        for u0, u1 in FINITE_SEEDS:
            check_the_loop(blocks, u0, u1)
        assert not products
        if blocks.B.dtype == float:  # the matmul step's bits; a K_ij march may skip B_0
            for u0, u1 in FINITE_SEEDS[:4]:
                check_against_the_matmul_step(blocks, u0, u1, cauchy_pairs(len(blocks.B)))


def test_a_march_past_a_non_scalar_boundary_takes_the_running_products(monkeypatch):
    # B_0 is read by the first step of solve_recurrence only; a vector march from
    # u_j, j >= 2, never reads it, so it runs the products on LAPACK's B^-1. The
    # kernels K_ij are matrix states, which step by _steps at n = 2
    d, H = christ_stolz_family(400, 2)
    blocks = with_boundary(blocks_from_delta(d, H), np.zeros((2, 2)), [[2.0, 0.5], [0.5, 1.0]])
    products = count_calls(monkeypatch, "_products")
    check_against_the_matmul_step(blocks, 1.0, 0.0, [(398, 1), (300, 7)])
    assert not products
    prev, cur = np.array([1.0, -0.0]), np.array([-0.5, 3.0])
    for start, stop in ((2, 398), (8, 300)):
        want = reference_march.inverse_march(blocks, prev.astype(complex), cur.astype(complex),
                                             start, stop)
        assert same_bits(jacobi._march(blocks, prev, cur, start, stop), np.array(want))
    assert len(products) == 2


# ---------------------------------------------------------------------------
# scalar off-diagonal marches: one BLAS product per step


def scalar_b_blocks(rng, n: int, count: int, spread: float) -> JacobiBlocks:
    """Real blocks without provenance: B_k = b_k I, |b_k| = e^U(-spread, spread) of either sign,
    and symmetric A_k, some O and some with zero rows and columns of either zero sign."""
    a = rng.uniform(-2.0, 2.0, (count, n, n))
    A = a + a.transpose(0, 2, 1)
    for k, i in zip(*np.nonzero(rng.random((count, n)) < 0.3)):
        A[k, i, :] = A[k, :, i] = rng.choice([0.0, -0.0])
    A[rng.random(count) < 0.1] = 0.0
    b = rng.choice([-1.0, 1.0], count) * np.exp(rng.uniform(-spread, spread, count))
    return JacobiBlocks(n, A, b[:, None, None] * np.eye(n))


def perturbed_lattice_blocks(rng, n: int, count: int) -> JacobiBlocks:
    """The blocks of a seeded lattice with its provenance: spacings U(0.1, 2) and jumps
    ``cancel_jumps`` + S_k, S_k symmetric with entries up to 0.5, so A_k != O."""
    d = tuple(rng.uniform(0.1, 2.0, count).tolist())
    s = rng.uniform(-0.25, 0.25, (count - 1, n, n))
    return blocks_from_delta(d, cancel_jumps(d, n) + s + s.transpose(0, 2, 1))


def three_product_march(blocks, prev, cur, start: int, stop: int) -> np.ndarray:
    """u_{start+1} .. u_stop by ``_steps``, the loop of three BLAS products per step, on the
    stacks ``_march`` reads."""
    s = slice(start - 1, stop)
    out = np.empty((stop - start,) + np.shape(cur))
    with np.errstate(all="ignore"):
        _steps(blocks.A[s][1:], blocks.B_inv[s][1:], blocks.B_star[s][:-1], prev, cur, out)
    return out


def order2_step_march(blocks, prev, cur, start: int, stop: int) -> np.ndarray:
    """``three_product_march`` of (2,) states by ``_order2_steps``."""
    s = slice(start - 1, stop)
    out = np.empty((stop - start,) + np.shape(cur))
    with np.errstate(all="ignore"):
        _order2_steps(blocks.A[s][1:], blocks.B_inv[s][1:, 0, 0].tolist(),
                      blocks.B_star[s][:-1, 0, 0].tolist(), prev, cur, out)
    return out


def check_scalar_marches(blocks, u0, u1) -> list:
    """solve_recurrence from (u0, u1), K_ij of ``cauchy_pairs`` and a march of (n, 2) states,
    each against ``three_product_march``: the same bytes, or the FloatRangeError of its first
    row out of the float range; and ``order2_step_march`` of each (2,) march, whichever step
    the march takes for its states, against it in the same way. Returns whether each march
    left the float range."""
    count, n = len(blocks.B), blocks.n
    wide = np.stack([u0, u1], axis=1), np.stack([u1, -u0], axis=1)
    cases = [(u0, u1, 1, count - 1, lambda: solve_recurrence(blocks, u0, u1, count)[2:]),
             (*wide, 1, count - 1, lambda: jacobi._march(blocks, *wide, 1, count - 1))]
    cases += [(np.zeros((n, n)), blocks.B_inv[j], j + 1, i,
               lambda i=i, j=j: discrete_cauchy(blocks, i, j)[None])
              for i, j in cauchy_pairs(count) if i > j + 1]
    outcomes = []
    for prev, cur, start, stop, march in cases:
        want = three_product_march(blocks, prev, cur, start, stop)
        # a matrix product keeps a zero of -0 products at -0, which no 0.0 + copies, and
        # vectors of three or more entries step by the loop itself
        scalar = order2_step_march(blocks, prev, cur, start, stop) if cur.shape == (2,) else want
        error = reference_error(want, start)
        assert reference_error(scalar, start) == error
        if error is None:
            got = march()
            assert got.tobytes() == want[-len(got):].tobytes()
            assert scalar.tobytes() == want.tobytes()
        else:
            with pytest.raises(FloatRangeError, match=re.escape(error)):
                march()
            k = first_nonfinite(want)
            assert scalar[:k].tobytes() == want[:k].tobytes()
        outcomes.append(error is not None)
    return outcomes


_SEED_ENTRIES = [0.0, -0.0, 1.0, -0.5, 3.0, 1e-300, -1e300]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_scalar_b_marches_keep_the_bytes_of_the_three_product_loop(n, seed, monkeypatch):
    # every B_k read is b_k I: at n = 2 one BLAS product A_k u_k per step, the rest in
    # Python floats, with the loop's bytes and zero signs and its first step out of range;
    # matrix states and vectors of three or more entries march on the loop
    rng = np.random.default_rng([seed, n, 40])
    loops, pair = count_calls(monkeypatch, "_steps"), count_calls(monkeypatch, "_order2_steps")
    outcomes = []
    for spread in (0.5, 3.0, 30.0):
        for blocks in (scalar_b_blocks(rng, n, int(rng.integers(5, 150)), spread),
                       perturbed_lattice_blocks(rng, n, int(rng.integers(5, 150)))):
            for u0, u1 in rng.choice(_SEED_ENTRIES, (2, 2, n)):
                outcomes += check_scalar_marches(blocks, u0, u1)
    assert set(outcomes) == {False, True}  # marches that overflow, and marches that do not
    assert bool(pair) == (n == 2)
    assert all(cur.ndim == 2 or cur.size > 2 for _, _, _, _, cur, _ in loops)
    assert (n > 2) == any(cur.ndim == 1 for _, _, _, _, cur, _ in loops)


def zero_diagonal(blocks: JacobiBlocks) -> JacobiBlocks:
    """``blocks`` with every A_k O."""
    return JacobiBlocks(blocks.n, np.zeros_like(blocks.A), blocks.B)


@given(st.integers(2, 3), st.integers(3, 400), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.5, 3.0, 30.0, 300.0]), st.booleans(),
       st.lists(st.sampled_from(_SEED_ENTRIES), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_drawn_scalar_b_marches_keep_the_bytes_of_the_three_product_loop(n, count, seed,
                                                                        spread, zero, entries):
    blocks = scalar_b_blocks(np.random.default_rng(seed), n, count, spread)
    check_scalar_marches(zero_diagonal(blocks) if zero else blocks, np.array(entries[:n]),
                         np.array(entries[3:3 + n]))


@pytest.mark.parametrize("n", [2, 3])
def test_zero_diagonal_matrix_marches_keep_the_bytes_of_the_three_product_loop(n):
    # A = O and B_k = b_k I: vector states march as running products, (n, 2) and
    # n x n states by _steps, all with the loop's bytes. The running products of
    # matrix states wrote -0 where the loop's matrix product may give +0
    rng = np.random.default_rng([n, 46])
    for spread in (3.0, 30.0, 300.0):
        for _ in range(30):
            blocks = zero_diagonal(scalar_b_blocks(rng, n, int(rng.integers(5, 200)), spread))
            for u0, u1 in rng.choice(_SEED_ENTRIES, (2, 2, n)):
                check_scalar_marches(blocks, u0, u1)


_FINITE_ENTRIES = [0.0, -0.0, 0.5, -3.0, 1e-300, -1e-300, 1e300, -1e300]
_TWO_ENTRY_VALUES = _FINITE_ENTRIES + [math.inf, -math.inf, math.nan]


def drawn_floats(data, values, *shape) -> np.ndarray:
    """A float64 array of the given shape, each entry drawn from ``values``."""
    size = math.prod(shape)
    return np.array(data.draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_two_entry_steps_keep_the_bytes_of_the_three_product_loop(data):
    # the unrolled n = 2 step against _steps, on drawn A, b_inv, b_star and seeds, inf and
    # NaN among them: every row before the first one out of the float range has the loop's
    # bytes, and that row is the same. In it every entry the loop makes a number has its
    # bytes; where the loop's zero off-diagonal entries make a NaN of 0 * inf, the Python
    # step may make a number, and a NaN of either may carry either sign
    m = data.draw(st.integers(1, 8))
    A, b_inv, b_star = (drawn_floats(data, _TWO_ENTRY_VALUES, *shape)
                        for shape in ((m, 2, 2), (m,), (m,)))
    prev, cur = drawn_floats(data, _TWO_ENTRY_VALUES, 2, 2)
    B_inv, B_star = np.zeros((2, m, 2, 2))
    B_inv[:, 0, 0] = B_inv[:, 1, 1] = b_inv
    B_star[:, 0, 0] = B_star[:, 1, 1] = b_star
    got, want = np.empty((m, 2)), np.empty((m, 2))
    _order2_steps(A, b_inv.tolist(), b_star.tolist(), prev, cur, got)
    _steps(A, B_inv, B_star, prev, cur, want)
    k = first_nonfinite(want)
    assert first_nonfinite(got) == k
    if k is None:
        assert got.tobytes() == want.tobytes()
        return
    assert got[:k].tobytes() == want[:k].tobytes()
    number = ~np.isnan(want[k])
    assert got[k][number].tobytes() == want[k][number].tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_drawn_two_entry_marches_leave_the_float_range_at_the_loops_step(data):
    # solve_recurrence on symmetric A_k and real b_k I with entries from 1e-300 to 1e300,
    # from seeds with inf and NaN among them: the three-product loop's bytes, or its
    # FloatRangeError at the same step
    m = data.draw(st.integers(1, 12))
    upper = drawn_floats(data, _FINITE_ENTRIES, m + 1, 3)
    A = upper[:, [0, 1, 1, 2]].reshape(m + 1, 2, 2)
    b = drawn_floats(data, [v for v in _FINITE_ENTRIES if v], m + 1)
    blocks = JacobiBlocks(2, A, b[:, None, None] * np.eye(2))
    u0, u1 = drawn_floats(data, _TWO_ENTRY_VALUES, 2, 2)
    want = three_product_march(blocks, u0, u1, 1, m + 1)
    error = reference_error(want, 1)
    if error is None:
        assert solve_recurrence(blocks, u0, u1, m + 2)[2:].tobytes() == want.tobytes()
    else:
        with pytest.raises(FloatRangeError, match=re.escape(error)):
            solve_recurrence(blocks, u0, u1, m + 2)


def test_complex_states_and_non_scalar_blocks_keep_the_three_product_loop(monkeypatch):
    rng = np.random.default_rng(41)
    blocks = perturbed_lattice_blocks(rng, 2, 60)
    calls = {name: count_calls(monkeypatch, name)
             for name in ("_steps", "_order1_steps", "_order2_steps")}

    def took(march) -> str:
        for c in calls.values():
            c.clear()
        march()
        return "".join(name * len(c) for name, c in calls.items())

    seeds = ([1.0, -0.0], [0.0, 1.0])
    assert took(lambda: solve_recurrence(blocks, *seeds, 50)) == "_order2_steps"
    assert took(lambda: discrete_cauchy(blocks, 40, 3)) == "_steps"  # a matrix state
    assert took(lambda: solve_recurrence(blocks, [1.0, 0.5j], [0.0, 1.0], 50)) == "_steps"
    obj = blocks_to_json(blocks)
    del obj["provenance"]
    obj["B"][7][0][1] = obj["B"][7][1][0] = 0.25  # B_7 is not a scalar matrix
    bumped = blocks_from_json(obj)
    assert took(lambda: solve_recurrence(bumped, *seeds, 50)) == "_steps"
    vectors = tuple(np.array(u) for u in seeds)
    assert took(lambda: jacobi._march(bumped, *vectors, 10, 40)) == "_order2_steps"  # B_9 ..
    boundary = with_boundary(blocks, np.zeros((2, 2)), [[2.0, 0.5], [0.5, 1.0]])
    assert took(lambda: solve_recurrence(boundary, *seeds, 50)) == "_steps"
    assert took(lambda: jacobi._march(boundary, *vectors, 2, 40)) == "_order2_steps"  # not B_0
    order_1 = perturbed_lattice_blocks(rng, 1, 60)  # the order-1 loop, complex states too
    for u0 in (1.0, 1.0 + 0.5j):
        assert took(lambda: solve_recurrence(order_1, [u0], [0.0], 50)) == "_order1_steps"
    # vectors of three or more entries take the loop, as matrix states do
    order_3 = perturbed_lattice_blocks(rng, 3, 60)
    assert took(lambda: solve_recurrence(order_3, [1.0, 0.0, 0.5], [0.0, 1.0, 0.0], 50)) == "_steps"
    assert took(lambda: discrete_cauchy(order_3, 40, 3)) == "_steps"


def test_each_march_takes_one_of_four_loops_from_one_scan_of_b(monkeypatch):
    # the running products on a cancel lattice, the order-1 and two-entry loops on
    # perturbed lattices of orders 1 and 2, the three-product loop at order 3: each
    # march picks its loop from one ``scalars`` scan of the B_k it reads
    rng = np.random.default_rng(47)
    names = ("_products", "_order1_steps", "_order2_steps", "_steps")
    calls = {name: count_calls(monkeypatch, name) for name in names}
    scans = count_calls(monkeypatch, "scalars")
    lattices = [blocks_from_delta(*christ_stolz_family(80, 2))]
    lattices += [perturbed_lattice_blocks(rng, n, 80) for n in (1, 2, 3)]
    for blocks, name in zip(lattices, names):
        blocks.B_inv  # its first use scans B as well
        for c in (*calls.values(), scans):
            c.clear()
        solve_recurrence(blocks, np.ones(blocks.n), np.zeros(blocks.n), 60)
        assert [k for k, c in calls.items() if c] == [name]
        assert len(scans) == 1


# ---------------------------------------------------------------------------
# zero-diagonal t4 rows: two scalar chains


def t4_outcome(blocks, n_k, m_k) -> str:
    """t4_term's value bits, or its FloatRangeError message."""
    try:
        return t4_term(blocks, n_k, m_k).hex()
    except FloatRangeError as exc:
        return str(exc)


def loop_outcomes(blocks, segments, monkeypatch) -> list:
    """``t4_outcome`` of each segment with every row on the matmul loop."""
    with monkeypatch.context() as patch:
        patch.setattr(jacobi, "_zero_diagonal", lambda blocks, s: None)
        return [t4_outcome(blocks, n_k, m_k) for n_k, m_k in segments]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_christ_stolz_t4_chains_keep_the_bits_of_the_per_row_march(n, monkeypatch):
    blocks = blocks_from_delta(*christ_stolz_family(402, n))
    last = len(blocks.B)  # m_k = last reads B_{last - 1}, the last stored block
    segments = [(1, 1), (1, 2), (1, 200), (5, 5), (5, 6), (120, 319), (last - 199, last),
                (last - 1, last), (last, last), (1, last)]
    chains = count_calls(monkeypatch, "_t4_chain")
    loops = count_calls(monkeypatch, "_t4_grams")
    for n_k, m_k in segments:
        got = t4_term(blocks, n_k, m_k)
        assert got.hex() == reference_march.t4_term(blocks, n_k, m_k).hex()
        assert (got == 0.0) == (n_k == m_k)
    assert len(chains) == len(segments) and not loops


def zero_diagonal_blocks(seed: int) -> JacobiBlocks:
    """Seeded blocks A_k = O (-0.0 entries in some) and B_k = b_k I of order 1, 2, 3 or 7 (where
    n p and the trace of p I may round apart), with |b_k| = e^x, x uniform on [-w, w] for w in
    5, 50 and 400, and either sign (a negative b_k puts -0.0 off the diagonal)."""
    rng = np.random.default_rng([seed, 37])
    n, count = int(rng.choice([1, 2, 3, 7])), int(rng.integers(3, 150))
    w = [5.0, 50.0, 400.0][seed % 3]
    b = rng.choice([-1.0, 1.0], count) * np.exp(rng.uniform(-w, w, count))
    A = np.zeros((count, n, n)) * rng.choice([-1.0, 1.0], (count, 1, 1))
    return JacobiBlocks(n, A, b[:, None, None] * np.eye(n))


def test_zero_diagonal_t4_rows_keep_the_bits_and_errors_of_the_matmul_loop(monkeypatch):
    # every product of the loop has one nonzero term per entry on these rows, and
    # it meets 0 * inf only past a non-finite row, where the chains are too
    outcomes = []
    for seed in range(45):
        blocks = zero_diagonal_blocks(seed)
        count, rng = len(blocks.B), np.random.default_rng([seed, 38])
        segments = [(1, count), (count, count), (count - 1, count), (1, 2)] + [
            tuple(sorted(rng.integers(1, count + 1, 2).tolist())) for _ in range(12)]
        chains = count_calls(monkeypatch, "_t4_chain")
        got = [t4_outcome(blocks, n_k, m_k) for n_k, m_k in segments]
        assert len(chains) == len(segments)
        assert got == loop_outcomes(blocks, segments, monkeypatch)
        outcomes += got
    errors = sum(o.startswith("the t4 sum leaves the float range") for o in outcomes)
    assert 50 <= errors <= len(outcomes) - 200


def test_t4_rows_off_the_zero_diagonal_keep_the_matmul_loop(monkeypatch):
    # the predicate reads the rows a segment reads, A_{n_k+1} .. A_{m_k-1} and
    # B_{n_k} .. B_{m_k-1}: an unread nonzero A_k or non-scalar B_k leaves the chains
    d, H = christ_stolz_family(60, 2)
    base = blocks_from_delta(d, H)
    s = np.random.default_rng(39).uniform(-0.5, 0.5, H.shape)
    bumped = np.array(H)
    bumped[19] += np.eye(2)  # H_20, so A_20 != O
    B = np.array(base.B)
    B[30, 0, 1] = B[30, 1, 0] = 1e-3 * B[30, 0, 0]
    obj = blocks_to_json(base)
    del obj["provenance"]
    turn = complex(math.cos(0.3), math.sin(0.3))
    obj["B"] = [[[[(x * turn).real, (x * turn).imag] for x in row] for row in b] for b in obj["B"]]
    cases = [  # blocks, segment, whether it takes the matmul loop
        (blocks_from_delta(d, H + s + s.transpose(0, 2, 1)), (5, 40), True),
        (blocks_from_delta(d, bumped), (19, 21), True),
        (blocks_from_delta(d, bumped), (20, 40), False),
        (blocks_from_delta(d, bumped), (1, 20), False),
        (JacobiBlocks(2, base.A, B), (30, 31), True),
        (JacobiBlocks(2, base.A, B), (29, 45), True),
        (JacobiBlocks(2, base.A, B), (31, 50), False),
        (JacobiBlocks(2, base.A, B), (10, 30), False),
        (blocks_from_json(obj), (1, 40), True),
        (base, (1, 59), False),
    ]
    loops = count_calls(monkeypatch, "_t4_grams")
    for blocks, segment, loop in cases:
        loops.clear()
        got = t4_outcome(blocks, *segment)
        assert len(loops) == loop
        assert got == loop_outcomes(blocks, [segment], monkeypatch)[0]
        if blocks.B.dtype == float:
            assert float.fromhex(got) == reference_march.t4_term(blocks, *segment)


# ---------------------------------------------------------------------------
# Weyl's alternative at z = i: the oracle of the spike lattice


def test_weyl_oracle_steps_up_at_every_spike_of_the_spike_lattice():
    # d_k = 1 at k = 4^j makes 1 / ||B_k|| about 1 there, so Carleman's series
    # diverges and the truth is limit point; the oracle's sums step up at
    # each spike, to the values ROADMAP records, and stay flat between spikes
    d = spike_spacings(20_001)
    blocks = blocks_from_delta(d, cancel_jumps(d))
    logs = reference_lattice.weyl_log_sums(blocks, len(blocks.B))
    spikes = [4**j for j in range(1, 8)]
    after = [round(logs[k - 1], 1) for k in spikes]  # log sum_{j <= k} |u_j|^2
    assert after == [2.3, 10.7, 24.6, 44.0, 69.0, 99.5, 135.5]
    for k, nxt in zip(spikes, spikes[1:] + [len(logs)]):
        assert logs[k + 1] - logs[k - 1] < 0.2  # the step at the spike is done by u_{k+2}
        assert logs[nxt - 3] - logs[k + 1] < 0.05


def test_weyl_oracle_converges_on_christ_stolz():
    d, H = christ_stolz_family(20_001)
    logs = reference_lattice.weyl_log_sums(blocks_from_delta(d, H), 20_000)
    assert round(logs[-1], 3) == 0.971  # k = 19,999
    assert logs[-1] - logs[9_998] < 1e-3


@pytest.mark.xfail(strict=True, reason="t7 certifies LimitCircle on the spike lattice from a "
                                       "window that holds no spike (ROADMAP item 2)")
@pytest.mark.parametrize("count, N", [(20_001, 100), (20_001, 300), (20_001, 500), (1_000, 300)])
def test_classify_of_the_spike_lattice_is_not_limit_circle(count, N):
    d = spike_spacings(count)
    model = DeltaNodes.from_spacings(1, d[:-1], cancel_jumps(d), tail=d[-1])
    verdict, _ = classify_detailed(model, ClassifyConfig(N=N))
    assert verdict.classification != "LimitCircle"


@pytest.mark.xfail(strict=True, reason="t7 alone certifies LimitCircle on spike lattices whose "
                                       "Carleman series diverges (ROADMAP item 2)")
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("base, count, N", [(3, 2001, 100), (5, 2001, 300), (8, 2001, 100),
                                            (16, 5001, 400)])
def test_classify_of_other_spike_lattices_is_not_limit_circle(base, count, N, n):
    # ROADMAP item 3's F1 rows: d_k = 1 at k = base^j makes 1 / ||B_k|| about 1 / sqrt(n)
    # there, so Carleman's series diverges and the truth is limit point
    d = spike_spacings(count, base)
    model = DeltaNodes.from_spacings(n, d[:-1], cancel_jumps(d, n), tail=d[-1])
    verdict, _ = classify_detailed(model, ClassifyConfig(N=N))
    assert verdict.classification != "LimitCircle"


# ---------------------------------------------------------------------------
# serialization


def test_blocks_json_refuses_a_nonzero_offset():
    obj = blocks_to_json(blocks_from_delta([1.0] * 6, np.zeros((5, 1, 1))))
    assert obj["offset"] == 0
    del obj["provenance"]  # without one, offset 1 read the stored B_0 .. B_3 as B_1 .. B_4
    for k in (1, 2, -1):
        with pytest.raises(ValueError, match="^blocks JSON key 'offset' must be 0"):
            blocks_from_json({**obj, "offset": k})
    del obj["offset"]
    assert len(blocks_from_json(obj).B) == 5


def test_blocks_json_asymmetric_within_the_tolerance_matches_its_provenance():
    # a file whose A_k and provenance jumps carry asymmetries within the tolerance
    # below the diagonal, as stored before the exact Hermitian form: both sides are
    # read as their upper triangles, mirrored, so the blocks equal their provenance's
    H = np.array([[[1.0, 0.5], [0.5, -2.0]]] * 5)
    blocks = blocks_from_delta([1.0] * 6, H)
    obj = blocks_to_json(blocks)
    for k in range(1, 5):
        obj["provenance"]["H"][k][1][0] += 0.5e-10
        obj["A"][k + 1][1][0] -= 0.3e-10
    back = blocks_from_json(obj)
    assert back.A.tobytes() == blocks.A.tobytes()
    assert back.provenance.H.tobytes() == blocks.provenance.H.tobytes()


def test_blocks_json_roundtrip():
    d = [1.0, 0.5, 2.0, 1.5]
    H = [np.array([[v]]) for v in (0.5, -1.0, 2.0, 0.0)]
    blocks = blocks_from_delta(d, H)
    back = blocks_from_json(blocks_to_json(blocks))
    assert back.n == blocks.n
    for a, b in zip(back.A, blocks.A):
        assert np.array_equal(a, b)
    for a, b in zip(back.B, blocks.B):
        assert np.array_equal(a, b)
    assert np.array_equal(back.provenance.d, blocks.provenance.d)
    assert back.provenance.d.dtype == float and not back.provenance.d.flags.writeable
