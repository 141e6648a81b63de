import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest

from sldl import DeltaNodes, Distributional, GeneralTriple, StepSigma, matcore


def exact_square(v: float) -> float:
    """The correctly rounded square of v, from exact rational arithmetic."""
    return float(Fraction(v) ** 2)


@pytest.fixture(params=["reversed", "per-entry"])
def libm_path(request, monkeypatch):
    """Runs a test once with ``matcore.libm``'s reversed numpy pass and once with the per-entry
    Python map that a failed probe keeps."""
    if request.param == "per-entry":
        monkeypatch.setattr(matcore, "_reversed_is_exact", lambda ufunc, consts: False)
    return request.param


def frozen_floats(got, want) -> bool:
    """True when ``got`` is a read-only float64 array with the shape and bits of ``want``.

    Bits tell -0.0 from 0.0 and read NaN as equal to the same NaN.
    """
    want = np.array(want, dtype=float)
    return (isinstance(got, np.ndarray) and got.dtype == np.float64 and not got.flags.writeable
            and got.shape == want.shape and got.tobytes() == want.tobytes())


def real_parts(z) -> np.ndarray:
    """The real parts of a complex reference whose imaginary parts are all zero, as a
    C-ordered float64 array: what sldl gives for real data."""
    z = np.asarray(z)
    assert z.dtype == np.complex128 and not z.imag.any()
    return np.ascontiguousarray(z.real)


def report_key(rep) -> tuple:
    """Everything a criterion report holds, exactly, as one tuple to compare by ==.

    Criterion, verdict, basis and notes as they are; terms and partial sums by
    dtype, shape and bytes, so -0.0 differs from 0.0 and a NaN equals the same NaN.
    """
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (rep.terms, rep.partial_sums))
    return (rep.criterion, rep.verdict, rep.verdict_basis, rep.notes) + arrays


def spread_floats(seed: int, count: int = 20_000) -> np.ndarray:
    """Seeded positive floats between 10^-150 and 10^150, so their squares stay normal.

    The C library's ``pow`` (Python's ``v ** 2``) may miss the correctly
    rounded square by one ulp; the square-rule tests assert that this set
    holds such values.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, count) * 10.0 ** rng.integers(-150, 150, count)


_ENTRY = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def complex_matrices(draw, n=None, bound=3.0):
    if n is None:
        n = draw(st.integers(1, 4))
    ent = st.floats(min_value=-bound, max_value=bound,
                    allow_nan=False, allow_infinity=False)
    re = draw(st.lists(st.lists(ent, min_size=n, max_size=n), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(ent, min_size=n, max_size=n), min_size=n, max_size=n))
    return np.array(re) + 1j * np.array(im)


@st.composite
def symmetric_matrices(draw, n=None, bound=3.0):
    if n is None:
        n = draw(st.integers(1, 3))
    ent = st.floats(min_value=-bound, max_value=bound,
                    allow_nan=False, allow_infinity=False)
    raw = draw(st.lists(st.lists(ent, min_size=n, max_size=n), min_size=n, max_size=n))
    a = np.array(raw)
    return (a + a.T) / 2.0


@st.composite
def step_sigma_models(draw, max_n=3, max_pieces=4):
    n = draw(st.integers(1, max_n))
    pieces = draw(st.integers(1, max_pieces))
    widths = draw(st.lists(st.floats(0.2, 1.5), min_size=pieces, max_size=pieces))
    cuts = [0.0]
    for w in widths[:-1]:
        cuts.append(cuts[-1] + w)
    X = cuts[-1] + widths[-1]
    values = [draw(symmetric_matrices(n)) for _ in range(pieces)]
    return StepSigma(n, tuple(cuts), tuple(values), X)


@st.composite
def delta_models(draw, max_n=3, max_nodes=5, jump_bound=3.0):
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(1, max_nodes))
    gaps = draw(st.lists(st.floats(0.2, 1.5), min_size=count + 1, max_size=count + 1))
    nodes = list(np.cumsum(gaps[:-1]))
    X = nodes[-1] + gaps[-1]
    jumps = [draw(symmetric_matrices(n, jump_bound)) for _ in range(count)]
    return DeltaNodes(n, tuple(nodes), tuple(jumps), X)


@st.composite
def general_triple_models(draw, max_n=2, max_pieces=3):
    n = draw(st.integers(1, max_n))
    pieces = draw(st.integers(1, max_pieces))
    widths = draw(st.lists(st.floats(0.3, 1.0), min_size=pieces, max_size=pieces))
    cuts = [0.0]
    for w in widths[:-1]:
        cuts.append(cuts[-1] + w)
    X = cuts[-1] + widths[-1]
    P, Q, R = [], [], []
    for _ in range(pieces):
        a = draw(complex_matrices(n, 1.0))
        P.append(a @ a.conj().T + np.eye(n))  # Hermitian, safely invertible
        Q.append(draw(symmetric_matrices(n, 2.0)))
        R.append(draw(complex_matrices(n, 1.0)))
    return GeneralTriple(n, tuple(cuts), tuple(P), tuple(Q), tuple(R), X)


@st.composite
def distributional_models(draw, max_n=3, max_pieces=3):
    n = draw(st.integers(1, max_n))
    pieces = draw(st.integers(1, max_pieces))
    widths = draw(st.lists(st.floats(0.3, 1.0), min_size=pieces, max_size=pieces))
    cuts = [0.0]
    for w in widths[:-1]:
        cuts.append(cuts[-1] + w)
    P0, Q0, P1 = [], [], []
    for _ in range(pieces):
        a = draw(complex_matrices(n, 1.0))
        P0.append(a @ a.conj().T + np.eye(n))
        for seq in (Q0, P1):
            h = draw(complex_matrices(n, 1.0))
            seq.append((h + h.conj().T) / 2.0)
    return Distributional(n, tuple(cuts), tuple(P0), tuple(Q0), tuple(P1), cuts[-1] + widths[-1])


def random_symmetric(rng, n, bound):
    a = rng.uniform(-bound, bound, (n, n))
    return (a + a.T) / 2.0


_ODD_SPACINGS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, math.nan,
                                 math.inf, -1.0, 1e300, 1e308])
# exponents at and around the power-law threshold -1/2 and the fallback's
# early exit below it at -1/2 - 1e-5
_NEAR_HALF = [-0.5 + s * e for s in (1.0, -1.0)
              for e in (0.0, 1e-12, 1e-7, 1e-6, 1.000001e-6, 2e-6, 9.9e-6, 1e-5, 1.01e-5, 2e-5)]


@st.composite
def power_law_spacings(draw):
    """c k^p over a window of k, p in [-3, 1] or near -1/2, noisy, perturbed or with odd entries."""
    count = draw(st.integers(8, 300))
    start = draw(st.sampled_from([1, 2, 17, 1000, 123_456]))
    p = draw(st.floats(-3.0, 1.0) | st.sampled_from(_NEAR_HALF) | st.floats(-0.50002, -0.49998))
    scale = draw(st.sampled_from([1.0, 3.0, 1e-200, 1e200]))
    d = [scale * float(k) ** p for k in range(start, start + count)]
    noise = draw(st.sampled_from([0.0, 0.0, 1e-15, 1e-9, 1e-7, 1e-6, 1e-3]))
    if noise:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = (np.array(d) * (1.0 + rng.uniform(-noise, noise, count))).tolist()
    if draw(st.booleans()):  # move the first local exponent of the tail alone
        d[count // 2 + 1] *= draw(st.sampled_from([1.0 - 1e-6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-6,
                                                   0.5, 2.0]))
    for _ in range(draw(st.integers(0, 2))):
        d[draw(st.integers(0, count - 1))] = draw(_ODD_SPACINGS)
    return tuple(d)


@st.composite
def periodic_tails(draw):
    """A free prefix, then periods 1-4 with positive, zero, subnormal or NaN entries,
    jittered inside or outside the period tolerance, with zero runs."""
    period = draw(st.lists(st.floats(0.0, 10.0) | _ODD_SPACINGS, min_size=1, max_size=4))
    count = draw(st.integers(0, 80))
    tail = [period[i % len(period)] for i in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        if tail:
            tail[draw(st.integers(0, count - 1))] *= 1.0 + draw(
                st.sampled_from([1e-12, 5e-10, 1e-9, 2e-9, 1e-6]))
    if tail and draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        run = len(tail[i:i + draw(st.integers(1, 6))])
        tail[i:i + run] = [0.0] * run
    prefix = draw(st.lists(st.floats(0.0, 10.0) | _ODD_SPACINGS, max_size=12))
    return tuple(prefix + tail)
