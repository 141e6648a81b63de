import json
import math
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import reference_json
import reference_series
from conftest import complex_matrices
from sldl import (
    DeltaNodes,
    Diagonal,
    Distributional,
    GeneralTriple,
    JacobiBlocks,
    StepSigma,
    blocks_from_delta,
    christ_stolz_family,
    cor2_series,
    cor3_check,
    frobenius_norm,
    invert,
    is_hermitian,
    t7_check,
)
from sldl.jacobi import blocks_from_json, blocks_to_json
from sldl.jacobi import Lattice, blocks_from_lattice, cancel_jumps
from sldl.matcore import (
    COND_LIMIT,
    HERMITIAN_TOL,
    NonSymmetricError,
    ShapeMismatchError,
    SingularMatrixError,
    as_matrix,
    as_stack,
    condition,
    first_nonfinite,
    hermitian,
    inexact,
    matrices_from_json,
    matrix_to_json,
    real_symmetric,
    scalars,
)
from sldl.quasidiff import SingularPieceError, model_from_json, model_to_json
from sldl import matcore


def test_frobenius_identity_is_sqrt_n():
    for n in (1, 2, 5):
        assert frobenius_norm(np.eye(n)) == pytest.approx(math.sqrt(n))


def test_frobenius_permutation():
    assert frobenius_norm([[0, 1], [1, 0]]) == pytest.approx(math.sqrt(2))


def test_frobenius_constant_lattice_block():
    # B = -I/2 at order 1: norm 1/2, so 1/||B|| = 2
    b = np.array([[-0.5]])
    assert frobenius_norm(b) == 0.5
    assert 1.0 / frobenius_norm(b) == 2.0


def test_frobenius_norm_of_entries_whose_squares_overflow():
    assert frobenius_norm(np.array([[2e300]])) == 2e300
    norms = frobenius_norm(np.array([[[3e200, 4e200], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]))
    assert norms[0] == pytest.approx(5e200, rel=1e-15)
    assert norms[1] == math.sqrt(2.0)
    assert frobenius_norm(np.array([[1e308 + 1e308j]])) == pytest.approx(math.sqrt(2.0) * 1e308)
    assert frobenius_norm(np.array([[1.5e308, 1.5e308], [0.0, 0.0]])) == math.inf


def test_frobenius_norm_of_entries_whose_squares_underflow():
    # the squares of 2e-200 read 0, so the norm read 0
    assert frobenius_norm(np.array([[2e-200]])) == 2e-200
    assert frobenius_norm(np.array([[5e-324j]])) == 5e-324
    norms = frobenius_norm(np.array([[[3e-170, 0.0], [0.0, 4e-170]], np.zeros((2, 2))]))
    assert norms[0] == pytest.approx(5e-170, rel=1e-15)
    assert norms[1] == 0.0


# 1 x 1 entries at the edges of the float range, zeros of both signs included
ORDER_ONE = [0.0, -0.0, complex(-0.0, -0.0), 5e-324, -5e-324, complex(0.0, 5e-324),
             1e308, -1e308, 1 + 1j, 1e-300j, 1e308 + 1e308j, 1.0]


def test_order_one_condition_rule_is_np_linalg_cond():
    stack = np.array(ORDER_ONE, dtype=complex).reshape(-1, 1, 1)
    assert np.array_equal(condition(stack), np.linalg.cond(stack))
    for m in stack:
        assert condition(m) == np.linalg.cond(m)
        invertible = bool(np.linalg.cond(m) <= COND_LIMIT)
        try:
            JacobiBlocks(1, np.zeros((1, 1, 1)), m[None])
            accepted = True
        except ValueError as exc:
            assert str(exc) == "off-diagonal blocks must be invertible"
            accepted = False
        assert accepted == invertible
    assert condition(np.array([[np.inf]])) == np.linalg.cond(np.array([[np.inf]])) == np.inf
    # np.linalg.cond raises on NaN (its SVD does not converge); the rule rejects it
    assert condition(np.array([[np.nan]])) == np.inf
    with pytest.raises(SingularMatrixError):
        invert(np.array([[np.nan]]))
    assert condition(np.zeros((0, 1, 1))).shape == (0,)


def scalar_entries(rng, count: int) -> np.ndarray:
    """Signed magnitudes 10^U(-300, 300), with zeros, subnormals and entries near overflow."""
    c = 10.0 ** rng.uniform(-300.0, 300.0, count) * rng.choice([-1.0, 1.0], count)
    c[:12] = [5e-324, -5e-324, 1e-310, -2.0**-1022, 1.7976931348623157e308, -1.7e308,
              1.0, -1.0, 0.0, -0.0, 2.0**-1074 * 3, -1e308]
    return c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scalar_condition_rule_is_np_linalg_cond(n):
    # every c I reads 1.0 when c is finite and nonzero and inf when it is zero,
    # as np.linalg.cond gives it, without the SVD; real and complex c alike (a
    # complex c of modulus near 1.8e308 reads 1.0 or inf by the SVD's scaling)
    rng = np.random.default_rng(n)
    c = scalar_entries(rng, 2000)
    turns = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(c)))
    for entries in (c, np.where(np.abs(c) < 1e300, c * turns, c)):
        stack = entries[:, None, None] * np.eye(n)
        assert scalars(inexact(stack)) is not None
        got = condition(stack)
        assert got.tobytes() == np.linalg.cond(stack).tobytes()
        assert set(got[entries != 0].tolist()) == {1.0}
        assert set(got[entries == 0].tolist()) == {np.inf}
        for m in stack[:40]:
            one = condition(m)
            assert one == np.linalg.cond(m) and type(one) is type(np.linalg.cond(m))


@pytest.mark.parametrize("n", [2, 3])
def test_stacks_with_a_non_scalar_matrix_take_np_linalg_cond(n):
    rng = np.random.default_rng(10 + n)
    stack = scalar_entries(rng, 200)[12:, None, None] * np.eye(n)
    cases = []
    for i, j, value in ((0, 0, 1.5), (n - 1, n - 1, -2.0), (0, n - 1, 1e-300), (n - 1, 0, -5e-324)):
        mixed = stack.copy()
        mixed[7, i, j] = mixed[7, 0, 0] * value if i == j else value
        cases.append(mixed)
    diagonal = rng.uniform(0.5, 2.0, (200, n)) * np.exp(rng.uniform(-20.0, 20.0, (200, 1)))
    cases.append(np.apply_along_axis(np.diag, 1, diagonal))  # diagonal, not scalar: the SVD
    for mixed in cases:
        assert scalars(mixed) is None
        assert condition(mixed).tobytes() == np.linalg.cond(mixed).tobytes()
    assert scalars(np.full((1, n, n), np.nan)) is None
    # inf I is a scalar matrix, estimated inf, as np.linalg.cond estimates it
    infinite = np.diag(np.full(n, np.inf))
    assert scalars(infinite) == np.inf and condition(infinite) == np.inf
    with pytest.raises(SingularMatrixError):
        invert(infinite)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_real_scalar_B_inv_is_the_lapack_inverse(n):
    # (1.0 / b) I has the bits of LAPACK's inverse of b I, zero signs included,
    # for either sign of b; the stack holds no other block
    rng = np.random.default_rng(20 + n)
    b = scalar_entries(rng, 3000)[12:]
    b = b[np.abs(b) > 1e-300]  # 1 / b within the float range
    B = b[:, None, None] * np.eye(n)
    blocks = JacobiBlocks(n, np.zeros((len(B), n, n)), B)
    want = np.linalg.inv(B)
    assert blocks.B_inv.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(blocks.B_inv), np.signbit(want))
    assert np.signbit(blocks.B_inv[b < 0]).all(axis=(1, 2)).all()  # -0.0 off the diagonal


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complex_scalar_B_inv_keeps_lapack(n):
    # a complex 1 / b rounds apart from LAPACK's inverse of b I, so complex
    # blocks keep LAPACK's bits
    rng = np.random.default_rng(30 + n)
    b = np.exp(rng.uniform(-5.0, 5.0, 500) + 1j * rng.uniform(0.0, 2.0 * np.pi, 500))
    B = b[:, None, None] * np.eye(n)
    blocks = JacobiBlocks(n, np.zeros((len(B), n, n)), B)
    assert blocks.B_inv.tobytes() == np.linalg.inv(B).tobytes()
    assert (blocks.B_inv != (1.0 / b)[:, None, None] * np.eye(n)).any()


def test_invert_identity_and_diagonal():
    assert np.allclose(invert(np.eye(3)), np.eye(3))
    assert np.allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_invert_scalar_lattice_block():
    # d == 1 gives B = -I/2 and the inverse is -2I
    b = -np.eye(2) / 2.0
    inv = invert(b)
    assert np.allclose(inv, -2.0 * np.eye(2))
    assert np.allclose(b @ inv, np.eye(2))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_invert_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(41)
    stack = []
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        stack.append((q * np.array([1.0, 1e3, 10.0 ** rng.uniform(5.5, 6.5)])) @ q.conj().T)
    stack = np.array(stack)
    inv = invert(stack)
    assert all(np.array_equal(inv[k], invert(stack[k])) for k in range(len(stack)))
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        invert(np.concatenate([stack[:3], singular[None]]))


def test_is_hermitian_examples():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]), 0.0)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)
    for j in (1, 2, 7):
        assert is_hermitian(-(2 * j + 1) * np.eye(3))


def test_as_matrix_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


@given(complex_matrices(), complex_matrices())
@settings(max_examples=60, deadline=None)
def test_norm_submultiplicative(a, b):
    if a.shape != b.shape:
        return
    assert frobenius_norm(a @ b) <= frobenius_norm(a) * frobenius_norm(b) + 1e-9


@given(complex_matrices())
@settings(max_examples=60, deadline=None)
def test_norm_self_adjoint(a):
    assert frobenius_norm(a) == pytest.approx(frobenius_norm(a.conj().T), abs=1e-12)


@given(complex_matrices(bound=2.0))
@settings(max_examples=60, deadline=None)
def test_invert_involution(a):
    a = a + 3.0 * np.eye(a.shape[0])  # keep the draw away from singularity
    if np.linalg.cond(a) > 1e6:
        return
    assert frobenius_norm(invert(invert(a)) - a) <= 1e-9 * max(1.0, frobenius_norm(a))


@given(complex_matrices())
@settings(max_examples=40, deadline=None)
def test_matrix_json_roundtrip(a):
    back = as_stack(matrices_from_json([matrix_to_json(a)]))[0]
    assert np.allclose(back, a, atol=1e-15)


def test_real_matrix_json_plain_numbers():
    out = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out == [[1.0, 2.0], [3.0, 4.0]]
    back = as_stack(matrices_from_json([out]))
    assert back.dtype == float and np.array_equal(back, [[[1, 2], [3, 4]]])


def test_matrix_json_decides_real_by_the_dtype_rule():
    # imaginary parts of -0.0 collapse as +0.0 ones do; one nonzero one keeps every pair,
    # each entry a Python float, as the per-entry rule wrote them
    def per_entry(m):
        m = np.asarray(m, dtype=complex)
        if np.all(m.imag == 0.0):
            return [[float(v.real) for v in row] for row in m]
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    real = np.array([[1.5, -0.0], [0.0, -2.0]])
    negative_zeros = real.astype(complex)
    negative_zeros.imag = -0.0
    cases = [real, real + 0j, negative_zeros, np.array([[1, 2], [3, 4]]),
             real + 1j * np.array([[0.0, 1e-300], [-1e-300, -0.0]]), np.array([[-0.0 - 0.0j]])]
    for m in cases:
        got = matrix_to_json(m)
        assert json.dumps(got) == json.dumps(per_entry(m))
        assert all(type(v) is float for v in np.ravel(got).tolist())


# ---------------------------------------------------------------------------
# matrix sequences read from JSON: one form pass, then the stack's one check

# parts of an entry: numbers json reads (ints and bools too, past int64 and inside the
# float range), zeros of both signs, and parts that one of the checks refuses
_PART = st.one_of(st.sampled_from([0.0, -0.0, 1, -2, 2 ** 70, 2 ** 1023]),
                  st.floats(-4.0, 4.0))
_BAD_PART = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "1.5", "x", None, True,
                             False])
_ENTRY = st.one_of(_PART, st.lists(_PART, min_size=2, max_size=2))
_BAD_ENTRY = st.one_of(_BAD_PART, st.lists(_PART, max_size=3).filter(lambda v: len(v) != 2),
                       st.tuples(_PART, _BAD_PART).map(list),
                       st.tuples(_BAD_PART, _PART).map(list))


@st.composite
def json_sequences(draw):
    """(a JSON matrix sequence, an order to check it against or None). Its matrices mix
    numbers and [re, im] pairs; about half the draws hold one or two faults: a bad
    entry, a row that is not a list, a ragged row, a matrix that is not a list of rows,
    a matrix of another order, a matrix that is not square."""
    m, count = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    seq = [[[draw(_ENTRY) for _ in range(m)] for _ in range(m)] for _ in range(count)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if count else 0):
        k = draw(st.integers(0, count - 1))
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        fault = draw(st.sampled_from(["entry", "row", "ragged", "matrix", "order", "square"]))
        if fault == "matrix":
            seq[k] = draw(st.sampled_from([[], 1.0, None, "m"]))
        elif fault == "order":
            seq[k] = [[draw(_ENTRY) for _ in range(m + 1)] for _ in range(m + 1)]
        elif not (isinstance(seq[k], list) and len(seq[k]) > i and isinstance(seq[k][i], list)):
            continue  # a matrix or row the first fault took
        elif fault == "square":
            seq[k] = [row + [0.0] if isinstance(row, list) else row for row in seq[k]]
        elif fault == "row":
            seq[k][i] = draw(st.sampled_from([1.0, None, "row"]))
        elif fault == "ragged":
            seq[k][i] = seq[k][i] + [0.0]
        else:
            seq[k][i][j] = draw(_BAD_ENTRY)
    return seq, draw(st.sampled_from([None, m, m % 3 + 1]))


def _read(read, seq, n):
    """The stack ``read`` gives, as dtype, shape, bytes and writeable, or its error."""
    try:
        m = read(seq, n)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return m.dtype.str, m.shape, m.tobytes(), m.flags.writeable


def _shape(obj):
    rows = obj if isinstance(obj, list) and all(isinstance(r, list) for r in obj) else None
    return (len(rows), len(rows[0])) if rows and len({len(r) for r in rows}) == 1 else None


ONE_ORDER = (ShapeMismatchError, "matrices of one sequence must share one order")


@given(json_sequences())
@settings(max_examples=400, deadline=None)
def test_one_pass_reads_the_stack_the_matrix_at_a_time_reader_read(case):
    # the same stack, bit for bit, or the same error; where a whole sequence is checked at
    # once, matrices of different shapes (or without one) share one error, and of faults
    # in two matrices either may be named
    seq, n = case
    want = _read(reference_json.stack_from_json, seq, n)
    got = _read(lambda s, n: as_stack(matrices_from_json(s), n), seq, n)
    if got != want:
        assert isinstance(want[0], type)
        faults = {_read(reference_json.stack_from_json, [m], n) for m in seq} - {
            _read(reference_json.stack_from_json, [], n)}
        differ = len({_shape(m) for m in seq}) > 1 or None in map(_shape, seq)
        assert (got == ONE_ORDER and differ) or (len(faults) >= 2 and got in faults)


def test_a_real_matrix_written_as_pairs_reads_as_real():
    # its -0.0 imaginary parts leave no sign in a complex stack, as they left none when
    # each matrix was checked alone; a complex matrix keeps every sign
    seq = [[[[1.0, -0.0]]], [[[0.0, 1.0]]], [[[-0.0, -0.0]]]]
    got = as_stack(matrices_from_json(seq))
    assert got.tobytes() == reference_json.stack_from_json(seq).tobytes()
    assert got.dtype == complex and not np.signbit(got.imag).any()
    seq = [[[[1.0, -0.0], [0.0, 2.0]], [[0.0, -2.0], 3.0]]]
    signs = np.signbit(as_stack(matrices_from_json(seq)).imag).tolist()
    assert signs == [[[True, False], [True, False]]]


def test_numbers_and_pairs_mix_within_and_across_matrices():
    seq = [[[0.5, [0.25, 0.5]], [[0.25, -0.5], -1]], [[1, 0.0], [0, [2.0, 0.0]]]]
    got, want = (hermitian(s, "jump matrices") for s in (matrices_from_json(seq),
                                                         reference_json.stack_from_json(seq)))
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    ints = as_stack(matrices_from_json([[[1]], [[2 ** 70]], [[4.5]]]))
    assert ints.dtype == float and ints.tolist() == [[[1.0]], [[2.0 ** 70]], [[4.5]]]


@pytest.mark.parametrize("entry", [True, False, "1.5", ["1.5", 0.0], [1.5, "0"], [True, 0.0],
                                   [1.5, False], [None, 1.0]])
def test_entries_and_pair_parts_are_json_numbers_by_one_rule(entry):
    # a pair's parts were read by float, so strings and bools passed inside pairs
    for read in (matrices_from_json, reference_json.stack_from_json):
        with pytest.raises(ValueError, match=r"^bad matrix entry "):
            read([[[entry]], [[1.0]]])


def test_the_json_readers_check_each_sequence_once(monkeypatch):
    # one as_stack call per stack, however many matrices it holds
    calls, real = [], as_stack

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("sldl")]:
        if getattr(module, "as_stack", None) is real:
            monkeypatch.setattr(module, "as_stack", spy)

    def count(read, obj):
        calls.clear()
        read(json.loads(json.dumps(obj)))
        return len(calls)

    counts = []
    for K in (10, 1000):
        d, H = christ_stolz_family(K + 1, 2)
        model = DeltaNodes.from_spacings(2, d[:K], H[:K], tail=d[K])
        counts.append((count(blocks_from_json, blocks_to_json(blocks_from_delta(d, H))),
                       count(model_from_json, model_to_json(model))))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# matrix sequences: one (K, n, n) stack, validated in one call


def test_as_stack_shapes():
    assert as_stack([]).shape == (0, 1, 1)
    assert as_stack([], 3).shape == (0, 3, 3)
    assert as_stack([1.0, 2.0]).shape == (2, 1, 1)
    stack = as_stack([np.eye(2), 2 * np.eye(2)], 2)
    assert stack.dtype == float and not stack.flags.writeable
    assert as_matrix(3.0).shape == (1, 1)
    with pytest.raises(ShapeMismatchError):
        as_stack([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatchError):
        as_stack([np.eye(2)], 3)


@pytest.mark.parametrize("entries, dtype", [
    ([[[1, 2], [3, 4]]], float),
    ([True, False], float),
    ([0.5, -2.0], float),
    (np.array([[[1.0 + 0j]], [[2.0 - 0j]]]), float),
    (np.array([[[1.0, 2.0], [3.0, 4.0]]]) + 0j * np.array([[[1.0, -1.0], [-1.0, 1.0]]]), float),
    (np.array([1.0 + 0j], dtype=np.complex64), float),
    (np.array([1.0, 2.0 + 1e-300j]), complex),
    ([[[1.0, 1j], [-1j, 1.0]]], complex),
    (np.array([1.0 + 1j], dtype=np.complex64), complex),
])
def test_as_stack_dtype_follows_the_data(entries, dtype):
    # float64 when every imaginary part is zero (either sign), complex128 otherwise
    stack = as_stack(entries)
    assert stack.dtype == dtype and not stack.flags.writeable
    assert np.array_equal(stack, np.asarray(entries, dtype=complex).reshape(stack.shape))


_STRIDED = np.arange(24.0).reshape(4, 6)[::2, ::3]


@pytest.mark.parametrize("value, dtype", [
    (np.array([3, -2]), np.float64),
    (np.array([True, False]), np.float64),
    (np.array([0.5, -0.0]), np.float64),
    (np.array([1.0 + 0.0j, -2.0 + 0.0j]), np.float64),
    (np.array([complex(1.0, -0.0), complex(-0.0, 0.0)]), np.float64),
    (np.array([complex(1.0, 5e-324)]), np.complex128),
    (np.array([1.0, 2.0 - 1j], dtype=np.complex64), np.complex128),
    (_STRIDED, np.float64),
    (_STRIDED.T + 0j, np.float64),
    ((_STRIDED + 1j).T, np.complex128),
])
def test_inexact_is_the_one_dtype_rule(value, dtype):
    # float64 when every imaginary part is exactly zero, of either sign (ints and
    # bools too), complex128 otherwise; always C ordered, with the values kept
    got = inexact(value)
    assert got.dtype == dtype and got.flags.c_contiguous and got.shape == value.shape
    want = value.real if dtype == np.float64 else value
    assert got.tobytes() == np.ascontiguousarray(want, dtype=dtype).tobytes()
    assert as_stack(value.reshape(-1)).dtype == dtype  # as_stack takes the same rule


def test_invert_and_condition_drop_zero_imaginary_parts():
    # a complex matrix whose imaginary parts are all zero inverts, and takes its
    # condition estimate, as the real matrix: a real inverse, the real SVD
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        real = rng.normal(size=(5, n, n)) + 3.0 * np.eye(n)
        zero_imag = real + 0j
        zero_imag.imag[::2] = -0.0
        assert invert(zero_imag).dtype == np.float64
        assert invert(zero_imag).tobytes() == invert(real).tobytes()
        assert condition(zero_imag).dtype == np.float64
        assert condition(zero_imag).tobytes() == condition(real).tobytes()
        assert frobenius_norm(zero_imag).tobytes() == frobenius_norm(real).tobytes()


def test_a_broadcast_stack_equals_the_explicit_list():
    # a strided source (a zero-stride broadcast) is copied into C order, not refused
    jump = np.array([[1.0, -0.5], [-0.5, 2.0]])
    broadcast, explicit = np.broadcast_to(jump, (5, 2, 2)), [jump] * 5
    assert as_stack(broadcast).tobytes() == as_stack(explicit).tobytes()
    got = DeltaNodes.from_spacings(2, [1.0] * 5, broadcast)
    want = DeltaNodes.from_spacings(2, [1.0] * 5, explicit)
    assert got.jumps.tobytes() == want.jumps.tobytes()
    assert got.cell_jumps.tobytes() == want.cell_jumps.tobytes()
    got, want = blocks_from_delta([1.0] * 6, broadcast), blocks_from_delta([1.0] * 6, explicit)
    assert got.A.tobytes() == want.A.tobytes() and got.B.tobytes() == want.B.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stack_rules_match_per_matrix_rules(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    assert np.array_equal(frobenius_norm(stack), [frobenius_norm(m) for m in stack])
    herm = stack + np.swapaxes(stack, -1, -2).conj()
    assert is_hermitian(herm) and all(is_hermitian(m) for m in herm)
    herm[-1, 0, -1] += 1e-9 if n > 1 else 1e-9j
    assert not is_hermitian(herm, 1e-10)


GOOD = np.array([[1.0, 0.5], [0.5, -1.0]])
BAD = {"nonsymmetric": np.array([[1.0, 0.5], [0.0, -1.0]]),
       "nonfinite": np.array([[1.0, np.nan], [np.nan, -1.0]]),
       "order": np.eye(3),
       "singular": np.array([[1.0, 1.0], [1.0, 1.0]])}
SPACINGS = [1.0 + 0.1 * k for k in range(8)]
CUTS = (0.0, 1.0, 2.0, 3.0)


def _last_bad(bad, good=GOOD, count=7):
    return [good] * (count - 1) + [bad]


def _pieces(cls, slot, bad):
    pieces = [[np.eye(2)] * 4, [GOOD] * 4, [GOOD] * 4]
    pieces[slot] = _last_bad(bad, pieces[slot][0], 4)
    return cls(2, CUTS, *pieces, 4.0)


SEQUENCE_CONSUMERS = {
    "blocks_from_delta": lambda b: blocks_from_delta(SPACINGS, _last_bad(b)),
    "t7_check": lambda b: t7_check(SPACINGS, _last_bad(b), 3),
    "cor3_check": lambda b: cor3_check(SPACINGS, _last_bad(b), 5),
    "cor2_series": lambda b: cor2_series(SPACINGS, _last_bad(b), Diagonal(1)),
    "DeltaNodes": lambda b: DeltaNodes(2, tuple(np.cumsum(SPACINGS[:7])), _last_bad(b), 12.0),
    "StepSigma": lambda b: StepSigma(2, CUTS, _last_bad(b, count=4), 4.0),
    "JacobiBlocks.A": lambda b: JacobiBlocks(2, _last_bad(b), [-np.eye(2)] * 7),
    "JacobiBlocks.B": lambda b: JacobiBlocks(2, [GOOD] * 7, _last_bad(b, -np.eye(2))),
    "GeneralTriple.P": lambda b: _pieces(GeneralTriple, 0, b),
    "GeneralTriple.Q": lambda b: _pieces(GeneralTriple, 1, b),
    "GeneralTriple.R": lambda b: _pieces(GeneralTriple, 2, b),
    "Distributional.P0": lambda b: _pieces(Distributional, 0, b),
    "Distributional.Q0": lambda b: _pieces(Distributional, 1, b),
    "Distributional.P1": lambda b: _pieces(Distributional, 2, b),
}

# (consumer, bad kind, exception): every rejection the per-matrix checks made.
# Mixed orders in one jump sequence are also rejected by cor3 and cor2 now.
LAST_BAD_CASES = [
    *[(name, "nonfinite", ValueError) for name in SEQUENCE_CONSUMERS],
    *[(name, "order", ShapeMismatchError) for name in SEQUENCE_CONSUMERS
      if name not in ("blocks_from_delta", "t7_check")],
    ("blocks_from_delta", "order", ValueError),
    ("t7_check", "order", ValueError),
    ("blocks_from_delta", "nonsymmetric", NonSymmetricError),
    ("t7_check", "nonsymmetric", NonSymmetricError),
    ("cor3_check", "nonsymmetric", NonSymmetricError),
    ("DeltaNodes", "nonsymmetric", NonSymmetricError),
    ("StepSigma", "nonsymmetric", NonSymmetricError),
    ("JacobiBlocks.A", "nonsymmetric", NonSymmetricError),
    ("JacobiBlocks.B", "singular", ValueError),
    ("GeneralTriple.P", "nonsymmetric", NonSymmetricError),
    ("GeneralTriple.P", "singular", SingularPieceError),
    ("GeneralTriple.Q", "nonsymmetric", NonSymmetricError),
    ("Distributional.P0", "nonsymmetric", NonSymmetricError),
    ("Distributional.P0", "singular", SingularPieceError),
    ("Distributional.Q0", "nonsymmetric", NonSymmetricError),
    ("Distributional.P1", "nonsymmetric", NonSymmetricError),
]


@pytest.mark.parametrize("name, kind, error", LAST_BAD_CASES,
                         ids=[f"{name}-{kind}" for name, kind, _ in LAST_BAD_CASES])
def test_batched_checks_see_the_last_matrix(name, kind, error):
    build = SEQUENCE_CONSUMERS[name]
    build(-np.eye(2))  # a good last matrix is accepted
    with pytest.raises(error):
        build(BAD[kind])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_first_nonfinite_names_the_first_entry_along_axis_0(bad):
    # a value, a row or a matrix counts as one entry; any non-finite part marks it
    assert first_nonfinite(np.array([1.0, 2.0, bad, bad])) == 2
    assert first_nonfinite(np.array([bad, 1.0])) == 0
    assert first_nonfinite(np.array([1.0, -2.0, 0.0])) is None
    stack = np.zeros((4, 2, 2))
    assert first_nonfinite(stack) is None
    stack[3, 0, 0], stack[1, 1, 0] = bad, bad
    assert first_nonfinite(stack) == 1
    rows = np.ones((3, 5))
    rows[2, 4] = bad
    assert first_nonfinite(rows) == 2
    z = np.ones((3, 2, 2), dtype=complex)
    assert first_nonfinite(z) is None
    z[2, 0, 1] = complex(1.0, bad)  # an imaginary part alone
    assert first_nonfinite(z) == 2
    z[1, 1, 1] = complex(bad, 0.0)
    assert first_nonfinite(z) == 1
    for empty in (np.zeros(0), np.zeros((0, 3, 3)), np.zeros((0, 2), dtype=complex)):
        assert first_nonfinite(empty) is None


def test_empty_block_sequences_accepted():
    blocks = blocks_from_json({"n": 1, "A": [[[0.0]]], "B": []})
    assert blocks.B.shape == (0, 1, 1) and blocks.A.shape == (1, 1, 1)
    assert JacobiBlocks(2, [], []).A.shape == (0, 2, 2)


# ---------------------------------------------------------------------------
# the exact Hermitian form of validated self-adjoint stacks

TOL = HERMITIAN_TOL
# name: (entries, the stack ``hermitian`` stores, whether ``real_symmetric`` stores it
# too or refuses); every stored entry below the diagonal is its mirror's conjugate,
# copied, and every entry on or above the diagonal keeps its bits, imaginary parts
# of the diagonal aside
EXACT_FORMS = {
    "real within the tolerance": (
        [[[1.0, 0.3], [0.3 + 0.9 * TOL, 2.0]], [[0.5, -0.7 - 0.4 * TOL], [-0.7, 0.25]]],
        np.array([[[1.0, 0.3], [0.3, 2.0]], [[0.5, -0.7 - 0.4 * TOL], [-0.7 - 0.4 * TOL, 0.25]]]),
        True),
    "-0.0 above the diagonal": (
        [[[1.0, -0.0], [0.0, 2.0]]], np.array([[[1.0, -0.0], [-0.0, 2.0]]]), True),
    "-0.0 on the diagonal": (
        [[[-0.0, 0.5], [0.5, -0.0]]], np.array([[[-0.0, 0.5], [0.5, -0.0]]]), True),
    "complex Hermitian": (
        [[[1.0 + 0.4 * TOL * 1j, 0.5 - 0.25j], [0.5 + 0.25j + 0.9 * TOL, 2.0 - 0.1 * TOL * 1j]]],
        np.array([[[1.0, 0.5 - 0.25j], [0.5 + 0.25j, 2.0]]]), False),
    "imaginary parts on the diagonal only": (
        [[[1.0 + 0.4 * TOL * 1j, -0.5], [-0.5, complex(-0.0, -0.3 * TOL)]]],
        np.array([[[1.0, -0.5], [-0.5, -0.0]]]), True),
    "order 1": (
        np.array([3.0, -0.0, 5e-324, -1e308]).reshape(-1, 1, 1),
        np.array([3.0, -0.0, 5e-324, -1e308]).reshape(-1, 1, 1), True),
    "order 1, imaginary parts within the tolerance": (
        np.array([3.0 + 0.4 * TOL * 1j, -0.0 - 0.1 * TOL * 1j]).reshape(-1, 1, 1),
        np.array([3.0, -0.0]).reshape(-1, 1, 1), True),
    "order 3, real": (
        [[[1.0, 2.0, 3.0], [2.0 - 0.5 * TOL, 4.0, -0.0], [3.0, 0.0, 5.0]]],
        np.array([[[1.0, 2.0, 3.0], [2.0, 4.0, -0.0], [3.0, -0.0, 5.0]]]), True),
}


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes() and not got.flags.writeable)


@pytest.mark.parametrize("name", list(EXACT_FORMS))
def test_validated_stacks_are_stored_in_their_exact_hermitian_form(name):
    entries, want, real = EXACT_FORMS[name]
    before = np.array(entries)
    assert _same_bytes(hermitian(entries, "pieces"), want)
    if real:
        assert _same_bytes(real_symmetric(entries, "pieces"), want)
    else:
        with pytest.raises(NonSymmetricError, match="^pieces must be real symmetric$"):
            real_symmetric(entries, "pieces")
    assert np.array(entries).tobytes() == before.tobytes()  # the input is not written


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_exact_form_copies_the_upper_triangle(n):
    rng = np.random.default_rng(40 + n)
    upper = rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n))
    herm = upper + upper.conj().swapaxes(1, 2)
    tilt = rng.uniform(-0.3, 0.3, herm.shape) + 0.3j * rng.uniform(-1.0, 1.0, herm.shape)
    tilted = herm + tilt * TOL
    got = hermitian(tilted, "pieces", n)
    assert got.dtype == (complex if n > 1 else float) and is_hermitian(got)
    assert (got == got.conj().swapaxes(1, 2)).all()
    rows, cols = np.triu_indices(n, 1)
    assert got[:, rows, cols].tobytes() == tilted[:, rows, cols].tobytes()
    assert got.real.diagonal(0, 1, 2).tobytes() == tilted.real.diagonal(0, 1, 2).tobytes()
    real = real_symmetric(tilted.real, "jumps", n)
    assert real.dtype == float and (real == real.swapaxes(1, 2)).all()
    assert real[:, rows, cols].tobytes() == tilted.real[:, rows, cols].tobytes()
    # an exactly Hermitian stack keeps its bytes
    assert hermitian(got, "pieces").tobytes() == got.tobytes()
    assert real_symmetric(real, "jumps").tobytes() == real.tobytes()


@pytest.mark.parametrize("build, message", [
    (lambda m: hermitian(m, "pieces"), "pieces must be Hermitian"),
    (lambda m: real_symmetric(m, "jump matrices"), "jump matrices must be real symmetric"),
    (lambda m: JacobiBlocks(2, m, [-np.eye(2)] * len(m)), "diagonal blocks must be Hermitian"),
    (lambda m: GeneralTriple(2, (0.0,), m, [GOOD], [GOOD], 1.0), "P pieces must be Hermitian"),
    (lambda m: GeneralTriple(2, (0.0,), [np.eye(2)], m, [GOOD], 1.0),
     "Q pieces must be Hermitian"),
    (lambda m: Distributional(2, (0.0,), [np.eye(2)], [GOOD], m, 1.0),
     "P1 pieces must be Hermitian"),
])
@pytest.mark.parametrize("tilt", [[[0.0, 1.1 * TOL], [0.0, 0.0]], [[0.0, 0.0], [-1.1 * TOL, 0.0]],
                                  [[0.6j * TOL, 0.0], [0.0, 0.0]]])
def test_asymmetry_past_the_tolerance_raises_with_the_unchanged_messages(build, message, tilt):
    # an imaginary diagonal part of 0.6 TOL is within real_symmetric's own bound on
    # imaginary parts, and past the Hermitian check: |m_ii - conj(m_ii)| = 1.2 TOL
    good = np.array([GOOD])
    build(good)
    with pytest.raises(NonSymmetricError, match=f"^{message}$"):
        build(good + np.array(tilt))


def test_blocks_from_lattice_accepts_a_rotated_lattice():
    # n = 2, d_k = 1/k, jumps Q diag(cancel_k, 0) Q^T for a rotation Q by 0.3 rad: they
    # are asymmetric at the rounding level (about 1e-13), which 1/r^2 amplified past
    # the tolerance in A_k: "diagonal blocks must be Hermitian"
    d = [1.0 / k for k in range(1, 1201)]
    c, s = math.cos(0.3), math.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    jumps = q @ (cancel_jumps(d)[:, 0, 0, None, None] * np.array([[1.0, 0.0], [0.0, 0.0]])) @ q.T
    assert 0.0 < np.abs(jumps - jumps.swapaxes(1, 2)).max() <= TOL
    lat = Lattice(d, jumps)
    assert (lat.H == lat.H.swapaxes(1, 2)).all()
    blocks = blocks_from_lattice(lat)
    assert blocks.A.dtype == float and (blocks.A == blocks.A.swapaxes(1, 2)).all()
    assert len(blocks.A) == len(d)


# ---------------------------------------------------------------------------
# libm: numpy passes with the bits of Python's per-entry ops

def _libm_inputs(ufunc, size: int, seed: int) -> np.ndarray:
    """Seeded inputs over the op's domain: floats from subnormal to near the float maximum
    (their powers past the float range), exponents past both ends of exp's range, complex
    numbers of either sign and every magnitude."""
    rng = np.random.default_rng(seed)
    spread = lambda: np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size))
    if ufunc is np.exp:
        return rng.uniform(-746.0, 710.0, size)
    if ufunc is np.absolute:
        signs = rng.choice([-1.0, 1.0], (2, size))
        return signs[0] * spread() + 1j * signs[1] * spread()
    return spread()


_LIBM_OPS = [(np.log, (), math.log), (np.exp, (), math.exp),
             (np.power, (1.5,), lambda v: v ** 1.5), (np.power, (2.5,), lambda v: v ** 2.5),
             (np.power, (3.0,), lambda v: v ** 3), (np.absolute, (), abs)]
_LIBM_IDS = ["log", "exp", "pow1.5", "pow2.5", "pow3", "abs"]


def _hard_inputs(ufunc, consts) -> np.ndarray:
    hard = matcore._HARD_INPUTS[(ufunc, *consts)]
    if ufunc is np.absolute:
        return np.array([complex(float.fromhex(a), float.fromhex(b)) for a, b in hard])
    return np.array([float.fromhex(v) for v in hard])


@pytest.mark.parametrize("ufunc, consts, op", _LIBM_OPS, ids=_LIBM_IDS)
@pytest.mark.parametrize("size", [0, 1, 2, 17, 100_000])
def test_libm_has_the_bits_of_pythons_op(libm_path, ufunc, consts, op, size):
    x = _libm_inputs(ufunc, size, 4400 + size)
    hard = _hard_inputs(ufunc, consts)[:size]
    x[:len(hard)] = hard  # the hard inputs lead: on them numpy's forward loops round differently
    if size > len(hard):  # and a range edge ends: past the float range but for log
        x[-1] = {np.log: 5e-324, np.exp: 709.8, np.absolute: 1.5e308 - 1.5e308j}.get(ufunc, 1e308)
    want = reference_series.in_python(op, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning of an overflow escapes
        got = matcore.libm(ufunc, x, *consts)
        strided = matcore.libm(ufunc, np.repeat(x, 3)[1::3], *consts)
        backward = matcore.libm(ufunc, x[::-1].copy()[::-1], *consts)
    for out in (got, strided, backward):
        assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable
        assert out.tobytes() == want.tobytes()
    assert size < 3 or np.isinf(want[-1]) == (ufunc is not np.log)  # overflows read inf


@pytest.mark.parametrize("ufunc, consts, op", _LIBM_OPS, ids=_LIBM_IDS)
def test_libm_returns_a_new_array_and_leaves_its_input(ufunc, consts, op):
    x = _libm_inputs(ufunc, 64, 4411)
    before = x.tobytes()
    got = matcore.libm(ufunc, x, *consts)
    assert not np.shares_memory(got, x) and x.tobytes() == before


@pytest.mark.parametrize("ufunc, consts, op", _LIBM_OPS, ids=_LIBM_IDS)
def test_a_failed_probe_keeps_the_per_entry_python_map(monkeypatch, ufunc, consts, op):
    x = np.concatenate([_hard_inputs(ufunc, consts), _libm_inputs(ufunc, 5000, 4412)])
    fast = matcore.libm(ufunc, x, *consts)
    maps = []
    monkeypatch.setattr(matcore, "_reversed_is_exact", lambda ufunc, consts: False)
    monkeypatch.setattr(matcore, "_in_python",
                        lambda *args, real=matcore._in_python: maps.append(args) or real(*args))
    kept = matcore.libm(ufunc, x, *consts)
    assert len(maps) == 1 and kept.tobytes() == fast.tobytes()
    assert kept.tobytes() == reference_series.in_python(op, x).tobytes()


@pytest.mark.parametrize("ufunc, consts, op", _LIBM_OPS, ids=_LIBM_IDS)
def test_the_probe_refuses_a_pass_that_takes_the_forward_loops(monkeypatch, ufunc, consts, op):
    # a numpy whose loop on a negative stride rounds as its forward loop does fails the probe
    hard = _hard_inputs(ufunc, consts)
    with np.errstate(over="ignore"):
        forward = ufunc(hard, *consts)
    if forward.tobytes() == reference_series.in_python(op, hard).tobytes():
        pytest.skip("numpy's forward loop rounds as the C library on this host")
    forward_pass = lambda ufunc, x, consts: ufunc(x, *consts)
    monkeypatch.setattr(matcore, "_reversed", forward_pass)
    assert not matcore._reversed_is_exact.__wrapped__(ufunc, consts)


def test_the_probe_runs_once_per_op_and_constant():
    matcore._reversed_is_exact.cache_clear()
    for _ in range(3):
        for ufunc, consts, _ in _LIBM_OPS:
            matcore.libm(ufunc, np.ones(4), *consts)
    info = matcore._reversed_is_exact.cache_info()
    assert (info.misses, info.currsize) == (len(_LIBM_OPS), len(_LIBM_OPS))
