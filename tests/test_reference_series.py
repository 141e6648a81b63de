"""The array jump series and node and cut checks against their per-element references."""

import math

import numpy as np
import pytest
import reference_series as ref
from conftest import frozen_floats, report_key
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sldl.criteria import Diagonal, IntervalSeq, OffDiagonal, cor1_series, cor2_series, t5_series
from sldl.jacobi import christ_stolz_family
from sldl.matcore import FloatRangeError
from sldl.quasidiff import DeltaNodes, _check_cuts

# mostly moderate magnitudes, sometimes ones whose products, powers or
# reciprocals leave the float range (10.0 ** e is 0.0 below about -324)
SPACING = st.one_of(st.floats(-6.0, 6.0), st.floats(-330.0, 200.0)).map(lambda e: 10.0 ** e)
ENTRY = st.one_of(st.floats(-50.0, 50.0),
                  st.sampled_from([0.0, -0.0, 1e-300, 1e200, -1e308, 1.7e308]))


def channels(n: int) -> list:
    """Every channel of order n, then channels no order-n stack has, then a non-channel."""
    good = [Diagonal(i) for i in range(1, n + 1)]
    good += [OffDiagonal(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return good + [Diagonal(0), Diagonal(n + 1), OffDiagonal(1, 1), OffDiagonal(1, n + 1),
                   "diag:1"]


@st.composite
def stacks_and_channels(draw, count):
    """An order 1-3 stack of ``count`` real or complex jumps and one of channels(n)."""
    n = draw(st.integers(1, 3))
    parts = np.array(draw(st.lists(ENTRY, min_size=2 * count * n * n,
                                   max_size=2 * count * n * n))).reshape(2, count, n, n)
    mats = parts[0] + 1j * parts[1] if draw(st.booleans()) else parts[0]
    return mats, draw(st.sampled_from(channels(n)))


def outcome(series, *args):
    """The report's ``report_key``, or the exception's class and message."""
    try:
        rep = series(*args)
    except Exception as exc:  # noqa: BLE001 -- the class is part of the outcome
        return type(exc), str(exc)
    return report_key(rep)


def mirrored(mats: np.ndarray) -> np.ndarray:
    """Real symmetric stack of the real upper triangles of ``mats``, mirrored entry for entry."""
    real = mats.real
    return np.where(np.triu(np.ones(real.shape[-2:], dtype=bool)), real, real.swapaxes(-1, -2))


def hermitian_mirrored(mats: np.ndarray) -> np.ndarray:
    """Hermitian stack of the upper triangles of ``mats``, each entry below the diagonal the
    conjugate of its mirror, and the diagonal real: the jumps t5 and cor1 accept."""
    upper = np.triu(np.ones(mats.shape[-2:], dtype=bool), 1)
    out = np.where(upper, mats, mats.swapaxes(-1, -2).conj())
    k = np.arange(mats.shape[-1])
    out[..., k, k] = out[..., k, k].real
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(SPACING, min_size=1, max_size=12))
def test_cor2_matches_the_per_term_series(data, d):
    mats, channel = data.draw(stacks_and_channels(data.draw(st.integers(0, 12))))
    if data.draw(st.booleans()):  # the lattice jumps cor2 accepts; others raise
        mats = mirrored(mats)
    assert outcome(cor2_series, d, mats, channel) == outcome(ref.cor2_series, d, mats, channel)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(st.tuples(SPACING, SPACING, SPACING), max_size=10))
def test_t5_matches_the_per_term_series(data, widths):
    bounds, markers, end = [], [], 0.0
    for gap, rho, s in widths:
        a = end + gap
        bounds.append((a, a + rho + s))
        markers.append(a + rho)
        end = a + rho + s
    try:
        intervals = IntervalSeq(tuple(bounds), tuple(markers))
    except ValueError:  # a marker that rounds onto an end of its interval
        assume(False)
    mats, channel = data.draw(stacks_and_channels(len(bounds)))
    if data.draw(st.booleans()):  # the jumps t5 accepts; others raise
        mats = hermitian_mirrored(mats)
    assert (outcome(t5_series, intervals, mats, channel)
            == outcome(ref.t5_series, intervals, mats, channel))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(SPACING, max_size=10))
def test_cor1_matches_the_per_term_series(data, lengths):
    mats, channel = data.draw(stacks_and_channels(len(lengths)))
    if data.draw(st.booleans()):  # the jumps cor1 accepts; others raise
        mats = hermitian_mirrored(mats)
    assert (outcome(cor1_series, lengths, mats, channel)
            == outcome(ref.cor1_series, lengths, mats, channel))


def _wide(rng, spans, count: int) -> np.ndarray:
    """``count`` seeded floats 10^U(lo, hi), split evenly over the (lo, hi) spans in order."""
    parts = np.array_split(np.arange(count), len(spans))
    return np.concatenate([10.0 ** rng.uniform(lo, hi, len(part))
                           for (lo, hi), part in zip(spans, parts)])


# exponent spans of the spacings: moderate to tiny (products and powers to subnormals and 0),
# then, for "huge", past the float range, which the series names at its first term there
WINDOWS = {"mixed": [(-300.0, 60.0)], "tiny": [(-305.0, -150.0)],
           "huge": [(-300.0, 60.0), (100.0, 300.0)]}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("n, channel", [(2, Diagonal(2)), (2, OffDiagonal(1, 2)),
                                        (3, Diagonal(2)), (3, OffDiagonal(3, 2))])
def test_cor2_at_length_matches_the_per_term_series_on_either_libm_path(libm_path, n, channel,
                                                                        window):
    rng = np.random.default_rng(4402 + n)
    d = _wide(rng, WINDOWS[window], 3001)
    a = rng.uniform(-50.0, 50.0, (3000, n, n))
    jumps = a + a.transpose(0, 2, 1)
    got = outcome(cor2_series, d, jumps, channel)
    assert got == outcome(ref.cor2_series, d, jumps, channel)
    assert (got[0] is FloatRangeError) == (window == "huge")


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("channel", [Diagonal(1), OffDiagonal(1, 2), OffDiagonal(2, 1)],
                         ids=["diag", "offdiag-12", "offdiag-21"])
def test_t5_and_cor1_at_length_match_the_per_term_series_on_either_libm_path(libm_path, channel,
                                                                             window):
    # complex Hermitian jumps: an off-diagonal modulus is a complex abs
    rng = np.random.default_rng(4403)
    count = 2000
    jumps = hermitian_mirrored(_wide(rng, [(-200.0, 100.0)], 4 * count).reshape(count, 2, 2)
                               * rng.choice([-1.0, 1.0], (count, 2, 2))
                               + 1j * rng.uniform(-50.0, 50.0, (count, 2, 2)))
    lengths = _wide(rng, WINDOWS[window], count)
    got = outcome(cor1_series, lengths, jumps, channel)
    assert got == outcome(ref.cor1_series, lengths, jumps, channel)
    assert (got[0] is FloatRangeError) == (window == "huge")
    # t5's intervals in ascending sizes, each the second half of its segment, so that no
    # interval is lost to its offset; the marker splits the interval at rho / 2 from its start
    rho = np.sort(lengths)
    ends = np.cumsum(2.0 * rho + rho * rng.uniform(0.5, 2.0, count))
    a = ends - (ends - np.concatenate([[0.0], ends[:-1]])) / 2.0
    intervals = IntervalSeq(tuple(zip(a.tolist(), ends.tolist())), tuple((a + rho / 2).tolist()))
    assert (outcome(t5_series, intervals, jumps, channel)
            == outcome(ref.t5_series, intervals, jumps, channel))


ONE, TWO = np.zeros((1, 1)), np.zeros((2, 2))
SKEW, IMAGINARY = np.array([[0.0, 1.0], [5.0, 0.0]]), np.array([[1j]])
TILTED = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])  # Hermitian within the tolerance


@pytest.mark.parametrize("series, args", [
    (cor2_series, ([1.0, 2.0, 3.0], [TWO, TWO], Diagonal(3))),
    (cor2_series, ([1.0, 2.0, 3.0], [TWO, TWO], OffDiagonal(2, 2))),
    (cor2_series, ([1.0, 2.0, 3.0], [TWO, TWO], OffDiagonal(0, 1))),
    (cor2_series, ([1.0, 2.0, 3.0], [TWO, TWO], "offdiag:1,2")),
    (cor2_series, ([1.0, 2.0, 3.0], [ONE, TWO], Diagonal(1))),
    (cor2_series, ([1.0], [TWO], Diagonal(3))),  # no term, so no channel check
    (cor2_series, ([1.0], [], "diag:1")),
    (cor2_series, ([1.0, 0.0], [ONE], Diagonal(1))),
    (t5_series, (IntervalSeq(()), [], Diagonal(5))),
    (t5_series, (IntervalSeq((), ()), [], Diagonal(5))),
    (t5_series, (IntervalSeq(((0.0, 2.0),), (1.0,)), [TWO], OffDiagonal(1, 3))),
    (t5_series, (IntervalSeq(((0.0, 2.0), (3.0, 4.0)), (1.0, 3.5)), [ONE, TWO], Diagonal(1))),
    (t5_series, (IntervalSeq(((0.0, 2.0),), (1.0,)), [ONE, ONE], Diagonal(1))),
    (cor1_series, ([], [], OffDiagonal(1, 1))),
    (cor1_series, ([2.0, 2.0], [TWO, ONE], Diagonal(1))),
    (cor1_series, ([2.0], [ONE], Diagonal(2))),
    (cor1_series, ([2.0], [ONE], None)),
    (cor1_series, ([math.nan], [ONE], Diagonal(1))),
    (cor1_series, ([math.inf], [ONE], Diagonal(1))),
    (cor1_series, ([1e-320, 2.0], [ONE, ONE], Diagonal(1))),
    (cor1_series, ([2.0, 1e150], [TWO, TWO], OffDiagonal(2, 1))),
    (t5_series, (IntervalSeq(((0.0, 2.0),), (1.0,)), [SKEW], OffDiagonal(1, 2))),
    (t5_series, (IntervalSeq(((0.0, 2.0),), (1.0,)), [SKEW, SKEW], OffDiagonal(1, 2))),
    (t5_series, (IntervalSeq(((0.0, 2.0),), (1.0,)), [TILTED], OffDiagonal(2, 1))),
    (cor1_series, ([2.0], [IMAGINARY], Diagonal(1))),
    (cor1_series, ([2.0, 2.0], [SKEW], Diagonal(1))),
    (cor1_series, ([2.0], [TILTED], OffDiagonal(2, 1))),
])
def test_bad_channels_mixed_orders_and_empty_windows_fail_as_the_reference(series, args):
    reference = {cor2_series: ref.cor2_series, t5_series: ref.t5_series,
                 cor1_series: ref.cor1_series}[series]
    assert outcome(series, *args) == outcome(reference, *args)


def test_christ_stolz_cor2_matches_the_per_term_series_at_2000_nodes():
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    got = outcome(cor2_series, model.spacings, model.jumps, Diagonal(1))
    assert got == outcome(ref.cor2_series, model.spacings, model.jumps, Diagonal(1))
    assert got[4][1] == (1999,)  # the shape of the terms
    assert repr(model.nodes) == repr(ref.from_spacings_nodes(d[:2000]))
    assert same_fields(fields(model), ref.delta_nodes_fields(model.nodes, model.X, d[:2000]))


# ---------------------------------------------------------------------------
# node and cut checks

FINITE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))


def attempt(build, *args):
    """What build(*args) returns, or the exception's class and message."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def fields(model):
    return model.nodes, model.spacings, model.cuts


def delta_fields(nodes, X, spacings):
    return fields(DeltaNodes(1, nodes, np.zeros((len(nodes), 1, 1)), X, spacings))


def same_fields(got, want) -> bool:
    """(nodes, spacings, cuts) of a model against the reference's, or the same error:
    nodes and cuts tuples by repr, spacings a frozen float64 array with the reference's bits."""
    if type(want[0]) is type:
        return got == want
    return (repr((got[0], got[2])) == repr((want[0], want[2]))
            and frozen_floats(got[1], want[1]))


@st.composite
def node_cases(draw):
    """Nodes (increasing or not), X, and no spacings, their own, or drawn ones."""
    if draw(st.booleans()):
        nodes = ref.from_spacings_nodes(draw(st.lists(SPACING, max_size=8)))
    else:
        nodes = draw(st.lists(FINITE, max_size=8))
    X = draw(st.one_of(FINITE, st.just(math.inf),
                       st.just(nodes[-1] + 1.0 if nodes else 1.0)))
    spacings = draw(st.sampled_from(["none", "own", "drawn"]))
    if spacings == "none":
        spacings = None
    elif spacings == "own":
        spacings = np.diff(np.array(nodes, dtype=float), prepend=0.0).tolist()
    else:
        spacings = draw(st.lists(FINITE, max_size=8))
    return list(nodes), X, spacings


@settings(max_examples=200, deadline=None)
@given(node_cases())
def test_delta_nodes_checks_match_the_generator_checks(case):
    assert same_fields(attempt(delta_fields, *case),
                       attempt(ref.delta_nodes_fields, *case))


@settings(max_examples=150, deadline=None)
@given(st.lists(SPACING, min_size=1, max_size=40))
def test_from_spacings_matches_the_running_sums_and_generator_checks(spacings):
    def build():
        return fields(DeltaNodes.from_spacings(1, spacings, np.zeros((len(spacings), 1, 1))))

    nodes = ref.from_spacings_nodes(spacings)
    assert same_fields(attempt(build),
                       attempt(ref.delta_nodes_fields, nodes, nodes[-1] + 1.0, spacings))


@settings(max_examples=200, deadline=None)
@given(st.lists(FINITE, max_size=8), st.one_of(FINITE, st.just(math.inf)), st.booleans())
def test_cut_checks_match_the_generator_checks(cuts, X, from_zero):
    cuts = [0.0, *sorted(cuts)] if from_zero else cuts
    assert repr(attempt(_check_cuts, cuts, X)) == repr(attempt(ref.check_cuts, cuts, X))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8), st.data(),
       st.sampled_from([math.nan, math.inf]))
def test_non_finite_nodes_and_cuts_are_rejected(gaps, data, bad):
    nodes = ref.from_spacings_nodes(gaps)
    nodes = list(nodes)
    nodes[data.draw(st.integers(0, len(nodes) - 1))] = bad
    with pytest.raises(ValueError, match="^nodes must be finite$"):
        DeltaNodes(1, nodes, np.zeros((len(nodes), 1, 1)), math.inf)
    cuts = [0.0, *nodes]
    with pytest.raises(ValueError, match="^piece cuts must be finite$"):
        _check_cuts(cuts, math.inf)


def test_nan_spacings_are_rejected():
    with pytest.raises(ValueError, match="^spacings must be positive, one per node$"):
        DeltaNodes(1, [1.0, 2.0], np.zeros((2, 1, 1)), 3.0, [1.0, math.nan])
