import json
import math

import numpy as np
import pytest
import reference_march
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    delta_models,
    distributional_models,
    frozen_floats,
    general_triple_models,
    random_symmetric,
    real_parts,
    step_sigma_models,
)
from oracle_poly import AdmissiblePoly, pairing_integral
from sldl import (
    DeltaNodes,
    Distributional,
    GeneralTriple,
    IntervalSeq,
    LinearSigma,
    QuasiState,
    StepSigma,
    bridge,
    cauchy_kernel,
    classify,
    fundamental_pair,
    gallery_entry,
    green_form,
    propagate,
    quasidiff,
    solution_norm_integral,
    t1_series,
)
from sldl import matcore
from sldl.jacobi import Lattice, christ_stolz_family
from sldl.matcore import HERMITIAN_TOL, frobenius_norm
from sldl.quasidiff import (
    OffGridError,
    _cells,
    _grid_index,
    _march,
    _piece_generators,
    expm,
    model_from_json,
    model_to_json,
    piece_cuts,
    piece_index,
    transfer,
    wronskian_residual,
)

FREE = StepSigma(1, (0.0,), (np.zeros((1, 1)),), 50.0)


def scalar_delta(h, c=1.0, X=2.5):
    return DeltaNodes(1, (c,), (np.array([[h]]),), X)


# ---------------------------------------------------------------------------
# system matrix


def test_free_system_matrix():
    # order 2: at order 1 and lam = 0 the cells carry no generator
    free2 = StepSigma(2, (0.0,), (np.zeros((2, 2)),), 50.0)
    f = _cells(free2, 0.0, [(0.3, 0.4)]).gen[0]
    assert np.array_equal(f, np.eye(4, k=2, dtype=complex))


def test_step_sigma_system_matrix():
    # the flight generator in (f, f'), seen through the first jump (f, f1) -> (f, f'),
    # is the quasi system matrix [[sigma, I], [-sigma**2, -sigma]]; order 2, since
    # order-1 cells at lam = 0 carry no jump matrix or generator
    s = np.array([[1.7, -0.4], [-0.4, 0.6]])
    m = StepSigma(2, (0.0,), (s,), 2.0)
    cells = _cells(m, 0.0, [(0.5, 1.0)])
    f = np.linalg.inv(cells.jump[0]) @ cells.gen[0] @ cells.jump[0]
    assert np.allclose(f, np.block([[s, np.eye(2)], [-s @ s, -s]]))


def test_lambda_enters_bottom_left():
    lam = 2.0 - 1.0j
    f = _cells(FREE, lam, [(0.0, 1.0)]).gen[0]
    assert np.allclose(f, [[0, 1], [-lam, 0]])


def test_distributional_reduces_to_step_form():
    sig = np.array([[0.8, 0.2], [0.2, -0.5]])
    eye, zero = np.eye(2), np.zeros((2, 2))
    dist = Distributional(2, (0.0,), (eye,), (zero,), (sig,), 1.0)
    step = StepSigma(2, (0.0,), (sig,), 1.0)
    for lam in (0.0, 0.5 - 0.25j):
        assert np.allclose(transfer(dist, lam, 0.0, 1.0),
                           transfer(step, lam, 0.0, 1.0), atol=1e-12)


def test_distributional_blocks_with_complex_phi():
    p0 = np.array([[2.0, 0.0], [0.0, 1.0]])
    q0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    p1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    m = Distributional(2, (0.0,), (p0,), (q0,), (p1,), 1.0)
    f = _piece_generators(m, 0.0, [0])[0]
    pinv = np.linalg.inv(p0)
    phi = p1 + 1j * q0
    assert np.allclose(f[:2, :2], pinv @ phi)
    assert np.allclose(f[:2, 2:], pinv)
    assert np.allclose(f[2:, :2], -(phi.conj().T @ pinv @ phi))
    assert np.allclose(f[2:, 2:], -(phi.conj().T @ pinv))


def test_wronskian_identity_distributional_and_triple():
    p0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    q0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    p1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    dist = Distributional(2, (0.0, 1.0), (p0, np.eye(2)), (q0, q0), (p1, p1), 2.0)
    pair = fundamental_pair(dist, 0.0, np.linspace(0.0, 2.0, 5))
    assert wronskian_residual(pair) <= 1e-10
    trip = GeneralTriple(2, (0.0,), (p0,), (q0,), (p1 + 1j * q0,), 2.0)
    pair = fundamental_pair(trip, 0.0, np.linspace(0.0, 2.0, 5))
    assert wronskian_residual(pair) <= 1e-10


def test_general_triple_system_matrix_blocks():
    p = np.array([[2.0, 0.0], [0.0, 4.0]])
    q = np.array([[1.0, 0.5], [0.5, -1.0]])
    r = np.array([[0.0, 1.0], [0.0, 0.0]])
    m = GeneralTriple(2, (0.0,), (p,), (q,), (r,), 1.0)
    f = _piece_generators(m, 0.0, [0])[0]
    assert np.allclose(f[:2, :2], r)
    assert np.allclose(f[:2, 2:], np.diag([0.5, 0.25]))
    assert np.allclose(f[2:, :2], q)
    assert np.allclose(f[2:, 2:], -r.conj().T)


# ---------------------------------------------------------------------------
# matrix exponential


def _taylor_expm(a, terms=40):
    a = np.asarray(a, dtype=complex)
    s = max(0, int(np.ceil(np.log2(max(frobenius_norm(a), 1e-12) / 0.25))))
    b = a / 2.0 ** s
    out = np.eye(a.shape[0], dtype=complex)
    pw = np.eye(a.shape[0], dtype=complex)
    fact = 1.0
    for k in range(1, terms):
        pw = pw @ b
        fact *= k
        out = out + pw / fact
    for _ in range(s):
        out = out @ out
    return out


def test_expm_matches_taylor_reference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 5)
        a = rng.normal(0, 1.5, (n, n)) + 1j * rng.normal(0, 1.5, (n, n))
        want = _taylor_expm(a)
        got = expm(a)
        assert frobenius_norm(got - want) <= 1e-11 * max(1.0, frobenius_norm(want))


def test_expm_nilpotent_is_exactly_linear():
    a = np.array([[0.0, 3.0], [0.0, 0.0]], dtype=complex)
    assert np.array_equal(expm(a), np.eye(2) + a)


@st.composite
def expm_stacks(draw):
    """0-8 matrices of one order 1-18, norms 1e-3 to 1e3, index-2 nilpotent ones mixed in."""
    m, count = draw(st.integers(1, 18)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    for c in range(count):
        if draw(st.booleans()):  # [[O, B], [O, O]]; the zero matrix at order 1
            stack[c, :, :m - m // 2] = stack[c, m // 2:] = 0.0
        norm = frobenius_norm(stack[c])
        if norm > 0:
            stack[c] *= 10.0 ** draw(st.floats(-3.0, 3.0)) / norm
    return stack


@given(expm_stacks())
@settings(max_examples=60, deadline=None)
def test_stacked_expm_equals_the_one_matrix_exponentials_bit_for_bit(stack):
    # complex stacks, and their real parts: a real stack has a real exponential
    for a in (stack, np.ascontiguousarray(stack.real)):
        with np.errstate(over="ignore", invalid="ignore"):  # norms near 1e3 overflow, alike
            got = expm(a)
            single = np.array([expm(m) for m in a], dtype=a.dtype).reshape(a.shape)
            reference = np.array([reference_march.expm(m) for m in a],
                                 dtype=a.dtype).reshape(a.shape)
        assert got.dtype == a.dtype
        assert same_bits(got, single)
        assert same_bits(got, reference)


# ---------------------------------------------------------------------------
# propagation


def test_free_propagation():
    out = propagate(FREE, 0.0, QuasiState([0.0], [1.0]), 0.0, 4.0)
    assert out.f[0] == 4.0 and out.f1[0] == 1.0
    out = propagate(FREE, 0.0, QuasiState([1.0], [0.0]), 0.0, 4.0)
    assert out.f[0] == 1.0 and out.f1[0] == 0.0


def test_delta_jump_propagation():
    # jump h at c = 1 bends the line f = x into f = x + h (x - 1)
    h = 2.5
    m = scalar_delta(h)
    out = propagate(m, 0.0, QuasiState([0.0], [1.0]), 0.0, 1.0)
    assert out.f[0] == pytest.approx(1.0, abs=1e-14)
    out = propagate(m, 0.0, QuasiState([0.0], [1.0]), 0.0, 2.0)
    assert out.f[0] == pytest.approx(2.0 + h, rel=1e-13)


@given(step_sigma_models(), delta_models())
@settings(max_examples=25, deadline=None)
def test_propagation_is_a_flow(ms, md):
    for model in (ms, md):
        x0, x1, x2 = 0.0, model.X * 0.37, model.X * 0.81
        y0 = QuasiState(np.ones(model.n), np.linspace(-1, 1, model.n))
        direct = propagate(model, 0.0, y0, x0, x2)
        stepped = propagate(model, 0.0, propagate(model, 0.0, y0, x0, x1), x1, x2)
        scale = max(1.0, float(np.linalg.norm(direct.f)), float(np.linalg.norm(direct.f1)))
        assert np.linalg.norm(stepped.f - direct.f) <= 1e-12 * scale
        assert np.linalg.norm(stepped.f1 - direct.f1) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2])
def test_a_complex_state_marches_as_its_real_and_imaginary_parts(n):
    # real cells march the real parts of the state columns and the imaginary
    # parts of the columns that have any as separate real columns: each part
    # is the march of that part alone, and an imaginary part that was zero
    # stays +0.0
    rng = np.random.default_rng(30 + n)
    h = rng.uniform(-2.0, 2.0, (12, n, n))
    model = DeltaNodes(n, tuple(0.5 + k for k in range(12)), h + h.transpose(0, 2, 1), 12.5)
    cells = _cells(model, 0.0, [(0.2, 11.9)])
    y = rng.normal(size=(2 * n, 3)) + 1j * rng.normal(size=(2 * n, 3))
    y[:, 1] = y[:, 1].real
    got = _march(cells, y)
    re, im = _march(cells, y.real).real, _march(cells, y.imag).real
    im[..., 1] = 0.0
    assert got.real.tobytes() == re.tobytes() and got.imag.tobytes() == im.tobytes()


def test_propagate_rejects_bad_range():
    with pytest.raises(ValueError):
        propagate(FREE, 0.0, QuasiState([0.0], [1.0]), 2.0, 1.0)


# ---------------------------------------------------------------------------
# classical derivative


def test_classical_derivative_jump_at_node():
    # f' = f1 + sigma f on each side of the node c, and f1 is continuous there
    h, c = -3.0, 1.0
    m = scalar_delta(h, c)
    y = propagate(m, 0.0, QuasiState([0.0], [1.0]), 0.0, c)
    i = piece_index(m, c)  # the piece that starts at c
    left, right = (m.values[j] @ y.f + y.f1 for j in (i - 1, i))
    assert right[0] - left[0] == pytest.approx(h * y.f[0], rel=1e-13)


# ---------------------------------------------------------------------------
# fundamental pairs and the kernel


def test_fundamental_pair_initial_data():
    m = StepSigma(2, (0.0, 1.0), (np.eye(2), np.zeros((2, 2))), 3.0)
    pair = fundamental_pair(m, 0.0, [0.0, 1.5, 3.0])
    assert np.array_equal(pair.phi[0], np.eye(2))
    assert np.array_equal(pair.psi1[0], np.eye(2))
    assert np.array_equal(pair.phi1[0], np.zeros((2, 2)))
    assert np.array_equal(pair.psi[0], np.zeros((2, 2)))


def test_free_pair_order_n():
    m = StepSigma(3, (0.0,), (np.zeros((3, 3)),), 5.0)
    pair = fundamental_pair(m, 0.0, [0.0, 2.0])
    assert np.allclose(pair.phi[1], np.eye(3))
    assert np.allclose(pair.psi[1], 2.0 * np.eye(3))


def test_delta_pair_value():
    # h = -3 at c = 1: the slope-one solution through 0 reaches 2 - 3 = -1
    m = scalar_delta(-3.0, 1.0, 2.5)
    pair = fundamental_pair(m, 0.0, [0.0, 2.0])
    assert pair.psi[1][0, 0] == pytest.approx(-1.0, rel=1e-13)


def test_fundamental_pair_christ_stolz_matches_float_march():
    # Phi starts at (f, f') = (1, 0) with sigma = 0 on the first piece; the
    # classical march is f += d_k f' across each spacing, f' += h_k f at x_k
    model = gallery_entry("christ-stolz").problem
    pair = fundamental_pair(model, 0.0, (0.0,) + model.nodes)
    f, fp = 1.0, 0.0
    for k, (d, h) in enumerate(zip(model.spacings, model.jumps[:, 0, 0].real.tolist()), start=1):
        f += d * fp
        fp += h * f
        assert abs(pair.phi[k, 0, 0] - f) <= 1e-12 * abs(f)


@given(step_sigma_models(max_n=2, max_pieces=3), delta_models(max_n=2), general_triple_models())
@settings(max_examples=15, deadline=None)
def test_fundamental_pair_samples_equal_transfer_from_zero(ms, md, mg):
    for model in (ms, md, mg):
        grid = np.linspace(0.0, model.X, 6)  # samples inside pieces, cuts between them
        pair = fundamental_pair(model, 0.5, grid)
        for k, x in enumerate(grid):
            want = transfer(model, 0.5, 0.0, x)
            assert frobenius_norm(pair.stacked(k) - want) <= 1e-10 * max(1.0, frobenius_norm(want))


# ---------------------------------------------------------------------------
# the stacked march against the per-cell reference march


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked_samples(pair):
    return np.block([[pair.phi, pair.psi], [pair.phi1, pair.psi1]])


def test_christ_stolz_pair_and_transfer_equal_the_per_cell_march():
    model = gallery_entry("christ-stolz").problem
    grid = (0.0,) + model.nodes
    assert len(grid) == 2001
    pair = fundamental_pair(model, 0.0, grid)
    assert pair.samples.dtype == np.float64  # real cells and a real start
    want = real_parts(reference_march.fundamental_samples(model, 0.0, grid))
    assert same_bits(stacked_samples(pair), want)
    for x0, x1 in ((0.0, model.X), (0.25, model.nodes[1500] + 1e-3)):
        got = transfer(model, 0.0, x0, x1)
        assert got.dtype == np.float64
        assert same_bits(got, real_parts(reference_march.transfer(model, 0.0, x0, x1)))


@st.composite
def grids_off_the_cuts(draw, model):
    """A sample grid from 0 whose other points, and a start x0 > 0, avoid every cut."""
    cuts = set(piece_cuts(model)) | {model.X}
    points = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8, unique=True))
    grid = sorted({model.X * p for p in points} - cuts)
    x0 = model.X * draw(st.floats(0.01, 0.99))
    assume(grid and x0 not in cuts and x0 < model.X)
    return (0.0, *grid), x0


@given(st.one_of(step_sigma_models(max_n=2), delta_models(max_n=2), general_triple_models()),
       st.data(), st.sampled_from([0.0, 0.5]))
@settings(max_examples=40, deadline=None)
def test_pair_and_transfer_equal_the_per_cell_march(model, data, lam):
    # real cells (step and delta models at lam = 0) give float64: the real parts
    # of the complex references, whose imaginary parts are zero
    grid, x0 = data.draw(grids_off_the_cuts(model))
    want = real_parts if reference_march.real_cells(model, lam) else lambda z: z
    pair = fundamental_pair(model, lam, grid)
    samples = reference_march.fundamental_samples(model, lam, grid)
    assert same_bits(stacked_samples(pair), want(samples))
    for a, b in ((x0, model.X), (0.0, x0)):
        assert same_bits(transfer(model, lam, a, b), want(reference_march.transfer(model, lam, a, b)))


_PIECE_MODELS = st.one_of(general_triple_models(max_n=3), distributional_models())


@given(_PIECE_MODELS, st.sampled_from([0.0, 0.5, 0.25 - 1.5j]))
@settings(max_examples=40, deadline=None)
def test_generator_stack_equals_the_per_piece_systems(model, lam):
    pieces = range(len(model.cuts))
    want = np.array([reference_march.piece_system(model, lam, i) for i in pieces])
    assert same_bits(np.array([_piece_generators(model, lam, [i])[0] for i in pieces]), want)
    assert same_bits(_piece_generators(model, lam, list(pieces)), want)
    if lam == 0:
        assert same_bits(model.generators, want)


@st.composite
def spans_on_and_off_the_cuts(draw, model):
    """Sorted spans and stops from 0, the cuts, X and points between: adjacent, apart or empty."""
    inner = [model.X * p for p in draw(st.lists(st.floats(0.01, 0.99), max_size=4))]
    points = st.sampled_from(sorted({*piece_cuts(model), model.X, *inner}))
    bounds = sorted(draw(st.lists(points, min_size=2, max_size=7)))
    keep = draw(st.lists(st.booleans(), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    spans = [span for span, k in zip(zip(bounds, bounds[1:]), keep) if k]
    return spans or [(bounds[0], bounds[-1])], sorted(set(draw(st.lists(points, max_size=5))))


@given(st.one_of(step_sigma_models(), delta_models(), _PIECE_MODELS), st.data(),
       st.sampled_from([0.0, 0.5]))
@settings(max_examples=80, deadline=None)
def test_cells_equal_the_per_cell_reference(model, data, lam):
    """Step, delta, general and distributional models, n <= 3, on several spans with stops."""
    spans, stops = data.draw(spans_on_and_off_the_cuts(model))
    cells = _cells(model, lam, spans, stops=stops)
    walks = [list(reference_march.cells(model, lam, x0, x1, stops)) for x0, x1 in spans]
    first = np.cumsum([0] + [len(w) for w in walks[:-1]])
    piece, jump, gen, length, end = zip(*sum(walks, [])) if any(walks) else ([],) * 5
    m = 2 * model.n
    assert same_bits(np.array(cells.piece, dtype=int), np.array(piece, dtype=int))
    assert same_bits(np.array(cells.length), np.array(length, dtype=float))
    assert same_bits(np.array(cells.end), np.array(end, dtype=float))
    assert same_bits(np.array(cells.first), first)
    if isinstance(model, (StepSigma, DeltaNodes)):  # built with the model, read-only
        assert not model.cell_jumps.flags.writeable
    assert [j is None for j in cells.jump] == [j is None for j in jump]
    if model.n == 1 and lam == 0 and isinstance(model, (StepSigma, DeltaNodes)):
        # each jump is the dS of the reference jump, its lower-left entry, as a float
        assert cells.gen is cells.prop is None
        for got, want in zip(cells.jump, jump):
            assert got is None or (type(got) is float and same_bits(np.array(got), want[1, 0]))
        return
    for got, want in zip(cells.jump, jump):
        assert got is None or same_bits(got, want)
    dtype = float if reference_march.real_cells(model, lam) else complex
    assert same_bits(cells.gen, np.array(gen, dtype=dtype).reshape(-1, m, m))
    want = [reference_march.expm(g * s) for g, s in zip(gen, length)]
    assert same_bits(cells.prop, np.array(want, dtype=dtype).reshape(-1, m, m))


def same_entries(a, b) -> bool:
    """The same Python type and, unless None, the same bits."""
    return type(a) is type(b) and (b is None or same_bits(a, b))


def same_cells(got, want) -> bool:
    """Every field of two Cells records; the list fields entry by entry."""
    return all(len(a) == len(b) and all(map(same_entries, a, b)) if type(b) is list
               else same_entries(a, b) for a, b in zip(got, want))


@given(st.one_of(step_sigma_models(), delta_models(), _PIECE_MODELS), st.data(),
       st.sampled_from([0.0, 0.5, 1j]), st.sampled_from([float, np.float64]))
@settings(max_examples=200, deadline=None)
def test_cells_walk_equals_the_walk_before_its_invariants_were_hoisted(model, data, lam, kind):
    """Multi-span calls, stops on and off the cuts, empty spans and spans to X."""
    spans, stops = data.draw(spans_on_and_off_the_cuts(model))
    points = sorted({*piece_cuts(model), model.X})
    spans = spans + [(x, x) for x in data.draw(st.lists(st.sampled_from(points), max_size=2))]
    spans = spans + [(0.0, model.X)] * data.draw(st.integers(0, 1))
    spans = [(kind(x0), kind(x1)) for x0, x1 in spans]
    stops = [kind(x) for x in stops]
    got = _cells(model, lam, spans, stops=stops)
    assert same_cells(got, reference_march.stacked_cells(model, lam, spans, stops=stops))


def count_cut_spans(monkeypatch) -> list:
    """The value of every ``_cut_span`` call, which still runs: j for a span of whole pieces,
    which ``_cells`` slices, None for one that it walks."""
    calls, real = [], quasidiff._cut_span
    monkeypatch.setattr(quasidiff, "_cut_span", lambda *args: calls.append(real(*args)) or calls[-1])
    return calls


def models_on_twelve_cuts(n: int, seed: int):
    """A step model, a delta model on the same uneven cuts, and a delta model whose
    spacings are stored verbatim (its cuts are their running sums), all seeded."""
    rng = np.random.default_rng([seed, n, 40])
    spacings = rng.uniform(0.2, 1.5, 11)
    cuts = (0.0, *np.cumsum(spacings).tolist())
    values = [random_symmetric(rng, n, 2.0) for _ in cuts]
    return (StepSigma(n, cuts, values, cuts[-1] + 0.75),
            DeltaNodes(n, cuts[1:], values[1:], cuts[-1] + 0.75),
            DeltaNodes.from_spacings(n, spacings, values[1:], tail=0.75))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("lam", [0.0, 0.5j])
@pytest.mark.parametrize("n", [1, 2])
def test_spans_of_whole_pieces_are_sliced_with_the_fields_of_the_walk(n, lam, seed, monkeypatch):
    # spans from a cut to a cut two or more pieces on, stopped nowhere inside or at every
    # cut inside, are sliced; every other span is walked; both give the walk's fields,
    # Python-float lengths, end bytes, jump types and values and first cells included
    taken = count_cut_spans(monkeypatch)
    for model in models_on_twelve_cuts(n, seed):
        c, X = model.cuts, model.X
        mid = [(a + b) / 2 for a, b in zip(c, (*c[1:], X))]
        cases = [  # spans, stops, and whether each span is sliced
            ([(c[0], c[-1])], (), [True]),
            ([(c[2], c[9])], c, [True]),
            ([(c[2], c[9])], c[3:9], [True]),
            ([(c[2], c[9])], c[::2], [False]),
            ([(c[2], c[9])], c[3:8], [False]),
            ([(c[1], c[6])], mid, [False]),
            ([(c[3], X)], (), [False]),
            ([(c[3], c[-1])], (X,), [True]),
            ([(mid[0], c[4])], (), [False]),
            ([(c[4], mid[8])], (), [False]),
            ([(c[3], c[4])], (), [False]),
            ([(c[5], c[5])], (), [False]),
            ([(c[0], c[6]), (c[6], c[-1]), (mid[2], mid[7]), (c[7], X)], (), [True, True, False,
                                                                                False]),
            ([(c[0], c[6]), (c[6], c[-1])], (c[3], mid[8]), [False, False]),
            ([(c[0], c[6]), (c[6], c[-1])], (*c[1:6], mid[8]), [True, False]),
        ]
        for spans, stops, sliced in cases:
            taken.clear()
            got = _cells(model, lam, spans, stops=stops)
            assert same_cells(got, reference_march.stacked_cells(model, lam, spans, stops=stops))
            assert [j is not None for j in taken] == sliced
        if n == 1 and lam == 0:
            assert {type(x) for x in _cells(model, lam, [(c[0], c[-1])]).length} == {float}


def test_node_grids_and_residuals_slice_and_grids_off_the_nodes_walk(monkeypatch):
    d, H = christ_stolz_family(301)
    model = DeltaNodes.from_spacings(1, d[:300], H[:300], tail=d[300])
    taken = count_cut_spans(monkeypatch)
    fundamental_pair(model, 0.0, (0.0, *model.nodes))
    fundamental_pair(model, 0.0, (0.0, *model.nodes[:150]))
    bridge.equivalence_residual(model, 200, QuasiState([0.3], [1.0]))
    assert taken == [300, 150, 300]
    taken.clear()
    grid = (0.0, *((np.array(model.nodes[:-1]) + model.nodes[1:]) / 2).tolist())
    fundamental_pair(model, 0.0, grid)
    fundamental_pair(model, 0.0, (0.0, *model.nodes[:100:2]))
    t1_series(model, IntervalSeq(((0.0, model.X),)))
    assert taken == [None] * 3


def test_order_one_cells_at_lam_zero_build_no_matrix_stacks(monkeypatch):
    # the march, the kernel and solution-norm passes and the pair read jump and length only
    def refuse(*args):
        raise AssertionError("a matrix stack was built")
    monkeypatch.setattr(quasidiff, "_jumps", refuse)
    monkeypatch.setattr(quasidiff, "expm", refuse)
    step = StepSigma(1, (0.0, 0.7, 1.9), ([[0.5]], [[-1.25]], [[2.0]]), 3.0)
    for model in (step, scalar_delta(1.8), gallery_entry("christ-stolz").problem):
        cells = _cells(model, 0.0, [(0.0, 0.6), (0.9, model.X)], stops=(1.0, 2.2))
        assert cells.gen is cells.prop is None
        assert len(cells.jump) == len(cells.length) == len(cells.end)
        t1_series(model, IntervalSeq(((0.0, 0.6), (0.9, model.X))))
        solution_norm_integral(model, 0.5, model.X)
        fundamental_pair(model, 0.0, (0.0, 1.0, model.X))
        transfer(model, 0.0, 0.25, model.X)


def step_and_delta(n, values):
    """A step model with cuts 0, 0.7, 1.9 and a delta model with nodes 0.7, 1.9, from three values."""
    return (StepSigma(n, (0.0, 0.7, 1.9), values, 3.0),
            DeltaNodes(n, (0.7, 1.9), values[1:], 3.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_and_delta_cells_are_real_at_lam_zero_only(n):
    rng = np.random.default_rng(n)
    spans = [(0.0, 1.0), (1.2, 3.0)]
    for model in step_and_delta(n, [random_symmetric(rng, n, 2.0) for _ in range(3)]):
        for lam in (0.0, 0j):
            cells = _cells(model, lam, spans, stops=(0.35,))  # a cell without a jump
            if n == 1:
                assert cells.gen is cells.prop is None
                assert {type(j) for j in cells.jump} == {float, type(None)}
            else:
                assert cells.gen.dtype == cells.prop.dtype == np.float64
                assert {j.dtype for j in cells.jump if j is not None} == {np.dtype(np.float64)}
        for lam in (0.5, 0.25 - 1j):
            cells = _cells(model, lam, spans)
            assert cells.gen.dtype == cells.prop.dtype == complex
            assert {j.dtype for j in cells.jump if j is not None} == {np.dtype(complex)}


@pytest.mark.parametrize("n", [1, 2])
def test_sigma_drops_imaginary_parts_within_the_hermitian_tolerance(n):
    # values real symmetric within HERMITIAN_TOL march as their real parts, at every lam
    rng = np.random.default_rng(30 + n)
    real = [random_symmetric(rng, n, 2.0) for _ in range(3)]
    tilted = [v + 0.4j * HERMITIAN_TOL * np.ones((n, n)) for v in real]
    intervals = IntervalSeq(((0.0, 1.0), (1.2, 3.0)))
    for got, want in zip(step_and_delta(n, tilted), step_and_delta(n, real)):
        assert got.cell_jumps.dtype == got.values.dtype == np.float64
        assert got.cell_jumps.tobytes() == want.cell_jumps.tobytes()
        for lam in (0.0, 0.5 - 0.25j):
            assert transfer(got, lam, 0.2, 2.5).tobytes() == transfer(want, lam, 0.2, 2.5).tobytes()
        assert frozen_floats(t1_series(got, intervals).terms, t1_series(want, intervals).terms)
        assert solution_norm_integral(got, 0.5, 2.5) == solution_norm_integral(want, 0.5, 2.5)


@pytest.mark.parametrize("n", [1, 2])
def test_real_symmetric_data_is_stored_once_as_float64(n):
    # imaginary parts within HERMITIAN_TOL are dropped in one place: a delta model's
    # jumps, its cell jumps after the values and its lattice's jumps are the same bytes
    rng = np.random.default_rng(50 + n)
    real = np.array([random_symmetric(rng, n, 2.0) for _ in range(5)])
    model = DeltaNodes(n, (0.5, 1.0, 1.75, 2.0, 3.5), real + 1e-12j * np.ones((n, n)), 4.0)
    lat = bridge._lattice(model)
    for stack in (model.jumps, model.cell_jumps, lat.H):
        assert stack.dtype == np.float64 and not stack.flags.writeable
    assert model.jumps.tobytes() == model.cell_jumps[len(model.cuts):].tobytes()
    assert model.jumps.tobytes() == lat.H.tobytes() == real.tobytes()
    tilted = LinearSigma(n, (0.0, 1.0), real[:2] + 1e-12j).values
    assert tilted.dtype == np.float64 and tilted.tobytes() == real[:2].tobytes()


def test_general_and_distributional_pieces_follow_the_dtype_rule():
    # each piece stack in the dtype of its data, read-only; the lam = 0 generators real
    # where the pieces and phi = P1 + i Q0 are; a spectral parameter off zero makes them complex
    eye, zero, skew = np.eye(2), np.zeros((2, 2)), np.array([[0.0, 1j], [-1j, 0.0]])
    real, cplx = np.float64, np.complex128
    cases = [
        (GeneralTriple(2, (0.0, 1.0), (eye, 2 * eye), (zero, eye), (zero, zero), 2.0),
         {"P": real, "Q": real, "R": real}, real),
        (GeneralTriple(2, (0.0, 1.0), (eye, 2 * eye), (skew, eye), (zero, eye), 2.0),
         {"P": real, "Q": cplx, "R": real}, cplx),
        (Distributional(2, (0.0, 1.0), (eye, 2 * eye), (zero, zero), (eye, zero), 2.0),
         {"P0": real, "Q0": real, "P1": real}, real),
        (Distributional(2, (0.0, 1.0), (eye, 2 * eye), (zero, eye), (eye, zero), 2.0),
         {"P0": real, "Q0": real, "P1": real}, cplx),
    ]
    for model, stacks, generators in cases:
        for name, dtype in stacks.items():
            assert getattr(model, name).dtype == dtype
            assert not getattr(model, name).flags.writeable
        assert model.generators.dtype == generators
        assert _piece_generators(model, 0.0, [0, 1]).dtype == generators
        for lam in (0.5, 0.5 - 0.25j):
            assert _piece_generators(model, lam, [0, 1]).dtype == cplx


@pytest.mark.parametrize("grid, message", [
    ([0.0, math.nan, 1.0], "grid must be finite"),
    ([0.0, 1.0, math.nan], "grid must be finite"),
    ([0.0, 1.0, math.inf], "grid must be finite"),
    ([math.nan, 1.0], "grid must start at 0.0"),
    ([], "grid must start at 0.0"),
    ([0.0, 2.0, 1.0], "grid must be strictly increasing"),
    ([0.0, 1.0, 1.0], "grid must be strictly increasing"),
    ([0.0, 4.5], "grid exceeds the model domain"),
])
def test_a_bad_grid_is_refused_with_its_reason(grid, message):
    model = DeltaNodes(1, (1.0, 2.0, 3.0), [[[1.0]], [[-1.0]], [[0.5]]], 4.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fundamental_pair(model, 0.0, grid)


@pytest.mark.parametrize("n, lam", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5 - 1j)])
def test_a_march_past_the_float_range_names_the_first_cell_end(n, lam):
    # the scalar march (n = 1, lam = 0) and the BLAS one; neither warns
    model = DeltaNodes(n, [float(k) for k in range(1, 41)], [1e200 * np.eye(n)] * 40, 41.0)
    for march, x in ((lambda: fundamental_pair(model, lam, (0.0, 41.0)), "3.0"),
                     (lambda: transfer(model, lam, 0.5, 41.0), "3.0"),
                     (lambda: transfer(model, lam, 0.0, 2.5), "2.5")):
        with pytest.raises(ValueError, match=rf"^the march leaves the float range at x = {x}$"):
            march()


def test_general_triple_pair_equals_the_per_cell_march():
    P = [np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2), np.array([[1.5, -0.25j], [0.25j, 1.0]])]
    Q = [np.array([[0.5, 0.1], [0.1, -1.0]]), np.zeros((2, 2)), np.eye(2)]
    R = [np.array([[0.0, 1.0], [0.0, 0.2j]]), np.eye(2), np.zeros((2, 2))]
    model = GeneralTriple(2, (0.0, 0.8, 1.7), P, Q, R, 3.0)
    grid = (0.0, 0.3, 0.8, 1.2, 2.9)
    for lam in (0.0, 0.5):
        pair = fundamental_pair(model, lam, grid)
        assert same_bits(stacked_samples(pair), reference_march.fundamental_samples(model, lam, grid))


@given(step_sigma_models(max_n=2, max_pieces=3))
@settings(max_examples=25, deadline=None)
def test_wronskian_identity(model):
    grid = np.linspace(0.0, model.X, 7)
    pair = fundamental_pair(model, 0.0, grid)
    assert wronskian_residual(pair) <= 1e-8


def test_cauchy_kernel_free():
    pair = fundamental_pair(FREE, 0.0, [0.0, 1.0, 2.0, 3.0])
    assert cauchy_kernel(pair, 3.0, 1.0)[0, 0] == pytest.approx(2.0)
    assert cauchy_kernel(pair, 2.0, 2.0)[0, 0] == 0.0


def test_cauchy_kernel_single_jump_closed_form():
    h, c = 1.8, 1.0
    m = scalar_delta(h, c, 3.0)
    grid = [0.0, 0.4, c, 2.2, 3.0]
    pair = fundamental_pair(m, 0.0, grid)
    t, x = 0.4, 2.2
    want = (x - t) + h * (c - t) * (x - c)
    assert cauchy_kernel(pair, x, t)[0, 0] == pytest.approx(want, rel=1e-13)


def test_cauchy_kernel_matrix_jump_closed_form():
    H = np.array([[0.5, -1.0], [-1.0, 2.0]])
    c = 1.2
    m = DeltaNodes(2, (c,), (H,), 3.0)
    pair = fundamental_pair(m, 0.0, [0.0, 0.5, 2.5])
    t, x = 0.5, 2.5
    want = (x - t) * np.eye(2) + (c - t) * (x - c) * H
    assert np.allclose(cauchy_kernel(pair, x, t), want, atol=1e-12)


def test_cauchy_kernel_off_grid_rejected():
    pair = fundamental_pair(FREE, 0.0, [0.0, 1.0])
    with pytest.raises(OffGridError):
        cauchy_kernel(pair, 0.5, 0.0)


def _index_or_none(pair, x):
    try:
        return _grid_index(pair, x)
    except OffGridError:
        return None


def _near_points(grid):
    """Each grid point, the points at the pair tolerance from it, and the floats just past those."""
    tol = 1e-12 * max(1.0, abs(grid[-1] - grid[0]), abs(grid[-1]))
    for g in grid:
        yield from (g, g - tol, g + tol, math.nextafter(g - tol, -math.inf),
                    math.nextafter(g + tol, math.inf))


def test_grid_index_bisection_equals_the_scan_on_2000_nodes():
    model = gallery_entry("christ-stolz").problem
    pair = fundamental_pair(model, 0.0, (0.0,) + model.nodes)
    points = list(_near_points(pair.grid))
    got = [_index_or_none(pair, x) for x in points]
    assert got == [reference_march.grid_index(pair.grid, x) for x in points]
    assert got[::5] == list(range(len(pair.grid)))


def test_grid_index_takes_the_first_point_within_the_tolerance():
    # the tolerance is 2e-12 here, so the three points near 1 all match each other
    pair = fundamental_pair(FREE, 0.0, [0.0, 1.0, 1.0 + 3e-13, 1.0 + 6e-13, 2.0])
    points = list(_near_points(pair.grid))
    got = [_index_or_none(pair, x) for x in points]
    assert got == [reference_march.grid_index(pair.grid, x) for x in points]
    assert [_grid_index(pair, x) for x in pair.grid] == [0, 1, 1, 1, 4]
    assert None in got


@given(step_sigma_models(max_n=3, max_pieces=4))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_direct_propagation(model):
    ts = [0.15 * model.X, 0.55 * model.X]
    xs = [0.6 * model.X, model.X]
    grid = sorted({0.0, *ts, *xs})
    pair = fundamental_pair(model, 0.0, grid)
    for t in ts:
        for x in xs:
            if x < t:
                continue
            k_formula = cauchy_kernel(pair, x, t)
            k_direct = transfer(model, 0.0, t, x)[:model.n, model.n:]
            scale = max(1.0, frobenius_norm(k_direct))
            assert frobenius_norm(k_formula - k_direct) <= 1e-10 * scale


def test_kernel_diagonal_zero_any_model():
    m = scalar_delta(4.0, 1.0, 3.0)
    pair = fundamental_pair(m, 0.0, [0.0, 0.7, 1.9])
    for x in (0.7, 1.9):
        assert frobenius_norm(cauchy_kernel(pair, x, x)) <= 1e-12


# ---------------------------------------------------------------------------
# bilinear form and the integral identity


def test_green_form_self_pairing_is_imaginary():
    u = QuasiState([1.0 + 2.0j, -0.5], [0.3 - 1.0j, 2.0j])
    val = green_form(u, u)
    assert abs(val.real) <= 1e-15


def test_green_form_free_solutions_constant():
    u0 = QuasiState([1.0], [0.0])
    for x in np.linspace(0.0, 9.0, 10):
        v = propagate(FREE, 0.0, QuasiState([0.0], [1.0]), 0.0, x)
        u = propagate(FREE, 0.0, u0, 0.0, x)
        assert green_form(u, v) == pytest.approx(-1.0)


def test_green_form_zero():
    u = QuasiState([0.0], [1.0])
    assert green_form(u, u) == 0.0


def test_green_identity_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        pieces = int(rng.integers(1, 5))
        cuts = [0.0] + sorted(rng.uniform(0.3, 4.7, pieces - 1).tolist())
        values = []
        for _ in range(pieces):
            a = rng.uniform(-2, 2, (n, n))
            values.append((a + a.T) / 2.0)
        model = StepSigma(n, tuple(cuts), tuple(values), 5.0)
        u = AdmissiblePoly.random(model, rng)
        v = AdmissiblePoly.random(model, rng)
        alpha, beta = sorted(rng.uniform(0.0, 5.0, 2).tolist())
        lhs = pairing_integral(model, u, v, alpha, beta)
        rhs = (green_form(u.quasi_state(alpha), v.quasi_state(alpha))
               - green_form(u.quasi_state(beta), v.quasi_state(beta)))
        assert abs(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------------------
# model construction and serialization


def test_delta_normalizes_to_cumulative_step():
    h1 = np.array([[1.0]])
    h2 = np.array([[-2.0]])
    m = DeltaNodes(1, (1.0, 2.0), (h1, h2), 3.0)
    assert m.cuts == (0.0, 1.0, 2.0)
    assert np.array_equal(m.values[0], np.zeros((1, 1)))
    assert np.array_equal(m.values[1], h1)
    assert np.array_equal(m.values[2], h1 + h2)
    assert not m.values.flags.writeable


def test_delta_spacings_and_from_spacings():
    m = DeltaNodes(1, (0.5, 2.0), (np.zeros((1, 1)),) * 2, 3.0)
    assert frozen_floats(m.spacings, (0.5, 1.5))
    d = (0.3, 0.7, 1.1)
    m2 = DeltaNodes.from_spacings(1, d, (np.zeros((1, 1)),) * 3)
    assert frozen_floats(m2.spacings, d)


def test_from_spacings_without_spacings_raises_the_constructors_error():
    # the domain end read the last node of an empty list: an IndexError
    with pytest.raises(ValueError, match="^nodes must be positive$"):
        DeltaNodes.from_spacings(1, [], np.zeros((0, 1, 1)))


def test_a_delta_model_holds_its_lattice_and_reads_its_spacings_and_jumps_from_it():
    d, jumps = [0.5, 0.25, 1.0], [[[1.0]], [[-2.0]], [[0.5]]]
    spaced = DeltaNodes.from_spacings(1, d, jumps)
    read_back = model_from_json(json.loads(json.dumps(model_to_json(spaced))))
    for model in (DeltaNodes(1, np.cumsum(d).tolist(), jumps, 3.0), spaced, read_back):
        assert model.spacings is model.lattice.d and model.jumps is model.lattice.H
        assert not model.spacings.flags.writeable and not model.jumps.flags.writeable
        assert np.shares_memory(model.jumps, model.cell_jumps)  # one stack, no copy
        assert frozen_floats(model.spacings, np.diff(model.nodes, prepend=0.0))
        # nodes stay a tuple, so a grid built by concatenation keeps its leading 0.0
        grid = (0.0,) + model.nodes
        assert type(grid) is tuple and len(grid) == len(model.nodes) + 1 and grid[0] == 0.0


def test_a_delta_model_checks_its_jumps_once(monkeypatch):
    # the model checks its jumps for its own messages and hands its lattice the
    # checked stack; the lattice equals the one construction checks anew
    calls, real = [], matcore.is_hermitian
    monkeypatch.setattr(matcore, "is_hermitian", lambda *args: calls.append(args) or real(*args))
    d, jumps = christ_stolz_family(300, 2)
    d = d[:-1]  # one jump per node
    spaced = DeltaNodes.from_spacings(2, d, jumps)
    doc = json.loads(json.dumps(model_to_json(spaced)))
    builds = (lambda: DeltaNodes.from_spacings(2, d, jumps),
              lambda: DeltaNodes(2, np.cumsum(d).tolist(), tuple(jumps), 10.0),
              lambda: DeltaNodes(2, np.cumsum(d), jumps, 10.0, d),
              lambda: model_from_json(doc))
    for build in builds:
        calls.clear()
        model = build()
        assert len(calls) == 1
        fresh = Lattice(model.spacings, model.jumps)
        assert model.lattice.d.tobytes() == fresh.d.tobytes()
        assert model.lattice.H.tobytes() == fresh.H.tobytes()
        assert model.spacings is model.lattice.d and model.jumps is model.lattice.H
        assert not model.spacings.flags.writeable and not model.jumps.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_step_model_holds_the_lattice_of_its_changes_of_sigma(n):
    # the spacings between its cuts and the changes of sigma at the cuts after the
    # first, the bytes of the lattice construction checks anew; H views the cell jumps
    rng = np.random.default_rng(90 + n)
    for pieces in (1, 2, 9):
        cuts = (0.0, *np.cumsum(rng.uniform(0.05, 2.0, pieces - 1)).tolist())
        values = [random_symmetric(rng, n, 3.0) for _ in range(pieces)]
        model = StepSigma(n, cuts, values, cuts[-1] + 0.5)
        lat = model.lattice
        fresh = Lattice(np.diff(model.cuts), model.cell_jumps[len(model.cuts):])
        assert lat.d.tobytes() == fresh.d.tobytes() and lat.H.tobytes() == fresh.H.tobytes()
        assert lat.d.shape == (pieces - 1,) and lat.H.shape == (pieces - 1, n, n)
        assert lat.d.dtype == lat.H.dtype == np.float64
        assert not lat.d.flags.writeable and not lat.H.flags.writeable
        assert pieces == 1 or np.shares_memory(lat.H, model.cell_jumps)  # an empty view holds none
        assert bridge._lattice(model) is lat


def test_delta_spacings_inconsistent_at_last_node():
    d = (0.3, 0.7, 1.1, 0.4)
    nodes = tuple(np.cumsum(d))
    jumps = [np.zeros((1, 1))] * 4
    DeltaNodes(1, nodes, jumps, 3.0, d)
    with pytest.raises(ValueError, match="spacings are inconsistent with the nodes"):
        DeltaNodes(1, nodes[:-1] + (nodes[-1] + 1e-6,), jumps, 3.0, d)


def test_model_validation_errors():
    with pytest.raises(ValueError):
        StepSigma(1, (0.5,), (np.zeros((1, 1)),), 1.0)  # cuts must start at 0
    with pytest.raises(ValueError):
        StepSigma(1, (0.0,), (np.array([[1j]]),), 1.0)  # not real symmetric
    with pytest.raises(ValueError):
        DeltaNodes(1, (1.0,), (np.array([[0.0, 1.0], [0.0, 0.0]]),), 2.0)
    with pytest.raises(ValueError):
        GeneralTriple(1, (0.0,), (np.array([[1j]]),), (np.eye(1),), (np.eye(1),), 1.0)
    with pytest.raises(ValueError):
        GeneralTriple(1, (0.0,), (np.zeros((1, 1)),), (np.eye(1),), (np.eye(1),), 1.0)
    with pytest.raises(ValueError):
        Distributional(1, (0.0,), (np.zeros((1, 1)),), (np.eye(1),), (np.eye(1),), 1.0)


@given(step_sigma_models(), delta_models(), general_triple_models())
@settings(max_examples=15, deadline=None)
def test_model_json_roundtrip(ms, md, mg):
    for model in (ms, md, mg):
        back = model_from_json(model_to_json(model))
        assert type(back) is type(model)
        assert back.n == model.n and back.X == pytest.approx(model.X)
        f0 = transfer(model, 0.0, 0.0, model.X / 2)
        f1 = transfer(back, 0.0, 0.0, model.X / 2)
        assert np.allclose(f0, f1, atol=1e-12)


def _one_model_per_variant():
    rng = np.random.default_rng(8)
    sym = lambda: (lambda a: a + a.T)(rng.uniform(-1, 1, (2, 2)))
    cplx = lambda: rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    herm = lambda: (lambda a: a + a.conj().T)(cplx())
    cuts = (0.0, 0.7, 1.9)
    return [
        StepSigma(2, cuts, [sym() for _ in cuts], 3.1),
        DeltaNodes(2, (0.4, 1.3, 2.0), [sym() for _ in range(3)], 2.5),
        GeneralTriple(2, cuts, [herm() + 3 * np.eye(2) for _ in cuts],
                      [herm() for _ in cuts], [cplx() for _ in cuts], 3.1),
        Distributional(2, cuts, [herm() + 3 * np.eye(2) for _ in cuts],
                       [herm() for _ in cuts], [herm() for _ in cuts], 3.1),
        LinearSigma(2, (0.0, 1.5, 4.0), [sym() for _ in range(3)]),
    ]


# stored spacings 1/k, which differ from the node differences in the last bits
_FROM_SPACINGS = DeltaNodes.from_spacings(
    2, [1.0 / k for k in range(1, 8)], [np.array([[k, 1.0], [1.0, -k]]) for k in range(7)])


@pytest.mark.parametrize("model", [
    *_one_model_per_variant(), pytest.param(_FROM_SPACINGS, id="DeltaNodes-from_spacings"),
], ids=lambda m: type(m).__name__)
def test_every_variant_round_trips_exactly_through_the_model_codec(model):
    obj = json.loads(json.dumps(model_to_json(model)))
    back = model_from_json(obj)
    assert type(back) is type(model)
    assert model_to_json(back) == obj
    mine, theirs = vars(model), vars(back)
    assert mine.keys() == theirs.keys()
    for key, value in mine.items():
        pairs = [(theirs[key], value)]
        if key == "lattice":  # a step or delta model's lattice, by its arrays
            pairs = [(theirs[key].d, value.d), (theirs[key].H, value.H)]
        assert all(np.array_equal(a, b) for a, b in pairs), key


def test_christ_stolz_read_back_from_the_codec_is_limit_circle():
    entry = gallery_entry("christ-stolz")
    back = model_from_json(json.loads(json.dumps(model_to_json(entry.problem))))
    assert frozen_floats(back.spacings, entry.problem.spacings)
    assert classify(back, entry.config).classification == "LimitCircle"


def test_model_codec_names_a_missing_key():
    obj = model_to_json(_one_model_per_variant()[1])
    # spacings are optional: without them a delta model takes the node differences
    spacings = obj.pop("spacings")
    assert frozen_floats(model_from_json(obj).spacings, spacings)
    for key in obj:
        with pytest.raises(ValueError, match=f"coefficient model JSON has no key '{key}'"):
            model_from_json({k: v for k, v in obj.items() if k != key})
    del obj["nodes"][1]["H"]
    with pytest.raises(ValueError, match="coefficient model JSON has no key 'H'"):
        model_from_json(obj)


@pytest.mark.parametrize("model", _one_model_per_variant()[:4], ids=lambda m: type(m).__name__)
def test_pair_views_are_read_only_blocks_of_the_sample_stack(model):
    pair = fundamental_pair(model, 0.3, np.linspace(0.0, 2.4, 9))
    assert pair.samples.shape == (9, 4, 4) and not pair.samples.flags.writeable
    for view in (pair.phi, pair.psi, pair.phi1, pair.psi1):
        assert view.shape == (9, 2, 2) and np.shares_memory(view, pair.samples)
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
    for k in range(9):
        blocks = np.block([[pair.phi[k], pair.psi[k]], [pair.phi1[k], pair.psi1[k]]])
        assert np.array_equal(pair.stacked(k), blocks)


@pytest.mark.parametrize("model", _one_model_per_variant()[:4], ids=lambda m: type(m).__name__)
def test_wronskian_residual_equals_the_per_sample_loop(model):
    pair = fundamental_pair(model, 0.3, np.linspace(0.0, 2.4, 9))
    adj = lambda m: m.conj().T
    worst = 0.0
    for k in range(9):
        inverse = np.block([[adj(pair.psi1[k]), -adj(pair.psi[k])],
                            [-adj(pair.phi1[k]), adj(pair.phi[k])]])
        assert np.array_equal(pair.stacked_inverse(k), inverse)
        worst = max(worst, frobenius_norm(pair.stacked(k) @ inverse - np.eye(4)))
    assert wronskian_residual(pair) == worst
    assert worst <= 1e-10


def test_transfer_respects_domain():
    with pytest.raises(ValueError):
        transfer(FREE, 0.0, 0.0, FREE.X + 1.0)
