"""Continuous-side diagnostics built on the Cauchy kernel.

The central quantity is the double integral of the squared kernel norm
over the triangle {a <= t <= x <= b},

    J(a, b) = int_a^b dx int_a^x ||K(x, t)||_F^2 dt,

whose square root is the term of the interval series criterion (code
``t1``): divergence of the series over disjoint intervals rules out the
maximal-deficiency (limit circle) case. For a single jump H at c inside
(a, b) the per-entry integrals have closed forms (the ``jump_kernel_*``
helpers below), which are the quantitative anchor for the jump-series
criteria ``t5_diag`` / ``t5_offdiag`` and their midpoint and lattice
specializations ``cor1`` / ``cor2``. A monotonicity test (code ``t2``)
covers piecewise-linear potentials.

Kernel integrals: one pass over the cells of [a, b] carries, per kernel
column, the Gram matrix of the solutions started at the points already
passed, so the cost is linear in the cells. Each cell adds integrals of
its propagator that depend on the cell alone, and these are exact: closed
polynomials in the cell length for step and delta models, which march in
classical coordinates whatever the accumulated potential, and for the other
variants block matrix exponentials (Van Loan 1978), one of order 3m and one
of order 2m per channel, for all cells of [a, b] in two stacked calls.
Gram matrices of order n >= 2 are real where the cells are (real coefficients
at lam = 0) and complex otherwise; the loop only kicks and drifts them, and
the traces of every cell are one batched product after it.
Order-1 step and delta models carry their one 2 x 2 Gram matrix as three
Python floats, kicked and drifted per cell. Solution norms read the states
of one march from 0 and sum tr(t* W t) over the cells of [a, b], with the
same cell integrals W, in one batched product for every model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import Lattice
from .matcore import FloatRangeError, ShapeMismatchError, first_nonfinite, hermitian, libm
from .quasidiff import (
    FundamentalPair,
    LinearSigma,
    OffGridError,
    StepModel,
    VariantUnsupportedError,
    _cells,
    _march,
    expm,
)
from .reports import DIVERGES, CriterionReport, build_report, check_threshold

PSD_TOL = 1e-10


@dataclass(frozen=True)
class IntervalSeq:
    """Disjoint increasing intervals (a_k, b_k), optionally with interior markers."""

    intervals: tuple[tuple[float, float], ...]
    markers: tuple[float, ...] | None = None

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not (0.0 <= a < b):
                raise ValueError(f"bad interval ({a}, {b})")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if b0 > a1:
                raise ValueError("intervals must be disjoint and increasing")
        object.__setattr__(self, "intervals", ivs)
        if self.markers is not None:
            ms = tuple(float(c) for c in self.markers)
            if len(ms) != len(ivs):
                raise ShapeMismatchError("need one marker per interval")
            for (a, b), c in zip(ivs, ms):
                if not a < c < b:
                    raise ValueError(f"marker {c} outside ({a}, {b})")
            object.__setattr__(self, "markers", ms)

    def __len__(self) -> int:
        return len(self.intervals)

    @classmethod
    def unit(cls, count: int) -> "IntervalSeq":
        return cls(tuple((float(k), float(k + 1)) for k in range(count)))


# ---------------------------------------------------------------------------
# kernel and solution-norm integrals


def _van_loan(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block upper-triangular generators whose exponentials at L hold the cells' integrals.

    exp of [[A1, B1], [O, A2]] at L has int_0^L exp(A1 (L - s)) B1 exp(A2 s) ds
    as its upper right block (C. F. Van Loan, IEEE Trans. Autom. Control 23
    (1978) 395-404). Per cell generator G of the stack g and channel i < n,
    with P_i = e_i e_i^T and Q_i = e_{n+i} e_{n+i}^T, the first stack holds
    [[-G*, P_i, O], [O, G, I], [O, O, G]] (order 3m, exp(-G* L) [W_i, W'_i]
    in the top row of its exponential) and the second [[G, Q_i], [O, -G*]]
    (order 2m, V_i exp(-G* L) top right), both indexed (cell, channel).
    """
    m = g.shape[-1]
    n, gh, k = m // 2, -g.conj().swapaxes(1, 2)[:, None], np.arange(m // 2)
    w = np.zeros((len(g), n, 3 * m, 3 * m), dtype=g.dtype)
    w[..., :m, :m], w[..., m:2 * m, 2 * m:], w[:, k, k, m + k] = gh, np.eye(m), 1.0
    w[..., m:2 * m, m:2 * m] = w[..., 2 * m:, 2 * m:] = g[:, None]
    v = np.zeros((len(g), n, 2 * m, 2 * m), dtype=g.dtype)
    v[..., :m, :m], v[..., m:, m:], v[:, k, n + k, m + n + k] = g[:, None], gh, 1.0
    return w, v


def _flight_integrals(lengths):
    """L, L^2/2, L^3/3 and L^4/12 of each cell length L, the integrals of a free flight."""
    col = np.array(lengths, dtype=float)
    return col, col ** 2 / 2, col ** 3 / 3, col ** 4 / 12


def _cell_integrals(model, cells):
    """Stacks (w, tri, v) of exact integrals over the cells of a lam = 0 march.

    With E(s) = exp(G s) on a cell of length L and i, j < n: w[c, i] = W_i =
    int_0^L E* e_i e_i^T E ds, v[c, j] = int_0^L E e_{n+j} e_{n+j}^T E* ds and
    tri[c, i, j] = int_0^L (L - s) |E(s)_{i, n+j}|^2 ds = (L W_i - W'_i)[n+j, n+j],
    W'_i with the integrand of W_i times s. For step and delta models
    E = I + sN and the entries are L, L^2/2, L^3/3 and L^4/12; other models
    take the split ``_van_loan`` exponentials of all cells in two stacked
    ``expm`` calls and a product with step*, the cells' own propagators.
    """
    n, m, lengths, k = model.n, 2 * model.n, np.array(cells.length), np.arange(model.n)
    if isinstance(model, StepModel):
        w, v = np.zeros((2, len(lengths), n, m, m))
        tri = np.zeros((len(lengths), n, n))
        col, half, third, twelfth = (p[:, None] for p in _flight_integrals(lengths))
        w[:, k, k, k] = v[:, k, n + k, n + k] = col
        w[:, k, k, n + k] = w[:, k, n + k, k] = half
        v[:, k, k, n + k] = v[:, k, n + k, k] = half
        w[:, k, n + k, n + k] = v[:, k, k, k] = third
        tri[:, k, k] = twelfth
        return w, tri, v
    gw, gv = _van_loan(cells.gen)
    col = lengths[:, None, None, None]
    ew, ev = expm(gw * col), expm(gv * col)
    sh = cells.prop.conj().swapaxes(1, 2)[:, None]
    w, wp, v = sh @ ew[..., :m, m:2 * m], sh @ ew[..., :m, 2 * m:], ev[..., :m, m:] @ sh
    return w, (col * w - wp)[:, :, n + k, n + k].real, v


def _kernel_pass(model, spans) -> np.ndarray:
    """Per-entry double integrals of each span [a, b], Gram matrices restarted, in one pass.

    gram[j] = int w_j w_j* dt over the t passed so far, w_j the current state
    of the solution started at t with data (O, e_j). For x in a later cell,
    int |k_ij(x, t)|^2 dt over those t is [E(s) gram[j] E(s)*]_ii, whose
    integral over the cell is tr(W_i gram[j]); x and t in one cell give tri.
    The loop kicks and drifts the Gram matrices, in the dtype of the cells
    (float64 for step and delta models), and keeps each cell's kicked ones;
    the traces of all cells are one product after it, added per span in cell
    order.
    """
    n = model.n
    cells = _cells(model, 0.0, spans)
    if cells.prop is None:
        return _kick_kernel_pass(cells, len(spans))
    w, tri, v = _cell_integrals(model, cells)
    kicked = np.empty((len(w), n, 2 * n, 2 * n), dtype=cells.prop.dtype)
    restart = set(cells.first)
    for c, (jump, step, step_h, v_c) in enumerate(
            zip(cells.jump, cells.prop, cells.prop.conj().swapaxes(1, 2), v)):
        gram = np.zeros_like(kicked[0]) if c in restart else gram
        kicked[c] = gram if jump is None else jump @ gram @ jump.conj().T
        gram = step @ kicked[c] @ step_h + v_c
    # tr(W_i g) = vec(W_i^T).vec(g), for every cell in one product
    wt, grams = (g.reshape(len(w), n, 4 * n * n) for g in (w.transpose(0, 1, 3, 2), kicked))
    traces = (wt @ grams.swapaxes(1, 2)).real + tri
    totals = np.zeros((len(spans), n, n))
    for total, lo, hi in zip(totals, cells.first, [*cells.first[1:], len(w)]):
        if hi > lo:  # a span without cells keeps its zero row
            # the running sum in cell order, added to 0.0: the floats of total += trace per cell
            total += np.cumsum(traces[lo:hi], axis=0)[-1]
    return totals


def _kick_kernel_pass(cells, count: int) -> np.ndarray:
    """``_kernel_pass`` of an order-1 step or delta model at lam = 0, in Python floats.

    The one Gram matrix is [[a, b], [b, c]]. A cell's kick by dS makes it
    J G J^T with J = [[1, 0], [dS, 1]]: b' = b + dS a, c' = c + dS (b + b').
    The cell then adds tr(W G) + L^4/12 = L a + 2 (L^2/2) b + (L^3/3) c + L^4/12
    to its span, and its drift makes the Gram matrix P G P^T + V with
    P = [[1, L], [0, 1]]: a' = a + L b + (b + L c) L + L^3/3,
    b' = (b + L c) + L^2/2, c' = c + L, each sum in the order of the matrix
    products. Its error is within four times that of the per-cell complex
    matrix loop on the fixtures of ``tests/test_kernel_accuracy.py``, not on
    all models (ROADMAP item 11). The powers of L are those of
    ``_cell_integrals``; a float product past the float range is inf, as in
    numpy.
    """
    totals, restart = [0.0] * count, dict(zip(cells.first, range(count)))
    powers = (p.tolist() for p in _flight_integrals(cells.length))
    for cell, (ds, length, half, third, twelfth) in enumerate(zip(cells.jump, *powers)):
        if cell in restart:
            span, a, b, c = restart[cell], 0.0, 0.0, 0.0
        if ds is not None:
            kicked = b + ds * a
            b, c = kicked, c + ds * (b + kicked)
        totals[span] += length * a + half * b + half * b + third * c + twelfth
        drift = b + length * c
        a, b, c = a + length * b + drift * length + third, drift + half, c + length
    return np.array(totals).reshape(count, 1, 1)


def _solution_norm_pass(model, spans) -> np.ndarray:
    """int_a^b of the squared top rows of the propagator from 0, read off one march from 0.

    The walk over [0, b] stops at a, and each cell from a on adds tr(t* W t),
    t the state after the cell's jump and W = sum_i W_i its ``_cell_integrals``,
    taken for the cells of [a, b] only. For step and delta models a jump
    leaves the top rows and a flight the bottom rows (f' at lam = 0), so t has
    the top rows of the cell's start and the bottom rows of its end; the other
    models take no jump.
    """
    ((a, b),), n = spans, model.n
    cells = _cells(model, 0.0, [(0.0, b)], stops=(a,))
    states = _march(cells, np.eye(2 * n))
    first = int(np.searchsorted(cells.end, a, side="right"))
    t = states[first:-1]
    if isinstance(model, StepModel):  # whose cell integrals read the lengths only
        t = np.concatenate([t[:, :n], states[first + 1:, n:]], axis=1)
    else:
        cells = cells._replace(gen=cells.gen[first:], prop=cells.prop[first:])
    w = _cell_integrals(model, cells._replace(length=cells.length[first:]))[0]
    return np.array([(t.conj() * (w.sum(axis=1) @ t)).real.sum()])


def _exact(one_pass, model, spans, what: str) -> np.ndarray:
    """one_pass(model, spans), a row per span [a, b], overflow quiet; a non-finite row
    raises a FloatRangeError that names ``what`` overflowed, and on which span."""
    if not all(0.0 <= a <= b <= model.X for a, b in spans):
        raise ValueError("need 0 <= a <= b <= X")
    with np.errstate(over="ignore", invalid="ignore"):
        out = one_pass(model, spans)
    if (k := first_nonfinite(out)) is not None:
        a, b = spans[k]
        raise FloatRangeError(f"{what} overflowed on ({a}, {b})")
    return out


def kernel_square_integrals(model, a: float, b: float) -> np.ndarray:
    """Per-entry integrals int_a^b dx int_a^x |k_ij(x, t)|^2 dt as an n x n array."""
    return _exact(_kernel_pass, model, [(a, b)], "kernel quadrature")[0]


def solution_norm_integral(model, a: float, b: float) -> float:
    """int_a^b (||Phi||_F^2 + ||Psi||_F^2) dx for the pair started at 0."""
    return float(_exact(_solution_norm_pass, model, [(a, b)], "the solution norm integral")[0])


# ---------------------------------------------------------------------------
# interval series criterion (code t1) and the solution-norm inequality


def _check_span(pair: FundamentalPair, a: float, b: float):
    if a > b:
        raise ValueError("need a <= b")
    if pair.lam != 0:
        raise ValueError("criteria are evaluated at lam = 0")
    lo, hi = pair.span
    if a < lo or b > hi:
        raise OffGridError(f"[{a}, {b}] outside the pair's span [{lo}, {hi}]")


def t1_term(pair: FundamentalPair, a: float, b: float) -> float:
    """Square root of the kernel double integral over {a <= t <= x <= b}."""
    _check_span(pair, a, b)
    return math.sqrt(float(np.sum(kernel_square_integrals(pair.model, a, b))))


def t1_series(model, intervals: IntervalSeq,
              threshold: float | None = None) -> CriterionReport:
    """Interval series of kernel double-integral roots.

    Divergence certifies that the deficiency numbers are not maximal
    (verdict DivergesProven means not limit circle). ``threshold``
    enables the caller-requested divergence mode of the report policy.
    """
    if len(intervals) and intervals.intervals[-1][1] > model.X:
        raise ValueError("intervals exceed the model domain")
    check_threshold(threshold)  # before the kernel pass, not after it
    totals = (_exact(_kernel_pass, model, intervals.intervals, "kernel quadrature")
              if len(intervals) else [])
    terms = [math.sqrt(float(np.sum(t))) for t in totals]
    return build_report(
        "t1", terms, threshold=threshold,
        notes=("each term depends only on the coefficients inside its interval",))


def solution_kernel_inequality(pair: FundamentalPair, a: float, b: float) -> tuple[float, float]:
    """(lhs, rhs) with lhs = int (||Phi||^2 + ||Psi||^2) and rhs = sqrt(2) * kernel root.

    The solution-norm integral always dominates sqrt(2) times the kernel
    double-integral root; callers may assert lhs >= rhs.
    """
    _check_span(pair, a, b)
    lhs = solution_norm_integral(pair.model, a, b)
    rhs = math.sqrt(2.0) * t1_term(pair, a, b)
    return lhs, rhs


# ---------------------------------------------------------------------------
# closed forms for a single jump H at c, rho = c - a, s = b - c


def _check_rho_s(rho: float, s: float):
    if not (rho > 0.0 and s > 0.0):
        raise ValueError("rho and s must be positive")


def jump_kernel_diag_integral(h_ii: float, rho: float, s: float) -> float:
    """Closed form of int int |k_ii|^2 for one jump with diagonal entry h_ii."""
    _check_rho_s(rho, s)
    rs = rho * s
    return (h_ii ** 2 / 9.0 * rs ** 3
            + h_ii / 3.0 * rs ** 2 * (rho + s)
            + (rho + s) ** 4 / 12.0)


def jump_kernel_offdiag_integral(h_ij: complex, rho: float, s: float) -> float:
    """Closed form of int int |k_ij|^2, i != j: |h_ij|^2 (rho s)^3 / 9."""
    _check_rho_s(rho, s)
    return abs(h_ij) ** 2 / 9.0 * (rho * s) ** 3


def jump_kernel_diag_lower_bound(h_ii: float, rho: float, s: float) -> float:
    """Lower bound (rho s)^2 (rho + s) |h_ii + 1.5 (1/rho + 1/s)| / (3 sqrt(3)).

    Dominated by jump_kernel_diag_integral; degenerates to zero exactly at
    h_ii = -1.5 (1/rho + 1/s).
    """
    _check_rho_s(rho, s)
    shift = 1.5 * (1.0 / rho + 1.0 / s)
    return (rho * s) ** 2 * (rho + s) * abs(h_ii + shift) / (3.0 * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# jump series criteria (codes t5_diag, t5_offdiag, cor1, cor2)


@dataclass(frozen=True)
class Diagonal:
    """Diagonal channel; i is 1-based."""

    i: int


@dataclass(frozen=True)
class OffDiagonal:
    """Off-diagonal channel; i and j are 1-based and distinct."""

    i: int
    j: int


def _channel_entries(channel, mats: np.ndarray) -> tuple[np.ndarray, bool]:
    """The channel's entry of every jump in the stack, and whether the channel is diagonal.

    Diagonal entries are taken real, off-diagonal ones in the stack's dtype.
    """
    n = mats.shape[1]
    if isinstance(channel, Diagonal):
        if not 1 <= channel.i <= n:
            raise ValueError(f"channel index {channel.i} outside 1..{n}")
        return mats[:, channel.i - 1, channel.i - 1].real, True
    if isinstance(channel, OffDiagonal):
        i, j = channel.i, channel.j
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad off-diagonal channel ({i}, {j}) for order {n}")
        return mats[:, i - 1, j - 1], False
    raise TypeError("channel must be Diagonal or OffDiagonal")


def _jump_terms(channel, mats: np.ndarray, count: int, diag_term, offdiag_term) -> np.ndarray:
    """The terms of a jump series over ``count`` jumps in ``channel``, all in the float range.

    ``mats`` is a stack its series checked (``hermitian``, or the ``Lattice``'s). ``diag_term``
    maps the channel's real diagonal entries to the terms and ``offdiag_term`` the moduli of
    its off-diagonal ones. A series without terms checks nothing, its channel included. The
    first term that is not finite (a product or power past the float range, or inf times 0)
    raises FloatRangeError naming it (1-based). The terms are one float64 array, which
    ``build_report`` reads as it is.
    """
    if len(mats) != count:
        raise ShapeMismatchError(f"need {count} jump matrices, got {len(mats)}")
    if not count:
        return np.empty(0)
    entries, diag = _channel_entries(channel, mats)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = diag_term(entries) if diag else offdiag_term(libm(np.absolute, entries))
    if (k := first_nonfinite(terms)) is not None:
        raise FloatRangeError(f"the jump series leaves the float range at term {k + 1}")
    return terms


def _lattice_terms(channel, mats: np.ndarray, rho: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Terms of jumps at distances rho and s from their intervals' ends.

    Diagonal channel: rho s sqrt(rho + s) sqrt|h_ii + 1.5 (1/rho + 1/s)|.
    Off-diagonal channel: (rho s)^(3/2) |h_ij|.
    """
    return _jump_terms(
        channel, mats, len(rho),
        lambda e: rho * s * np.sqrt(rho + s) * np.sqrt(np.abs(e + 1.5 * (1.0 / rho + 1.0 / s))),
        lambda a: libm(np.power, rho * s, 1.5) * a)


def t5_series(intervals: IntervalSeq, jumps, channel,
              threshold: float | None = None) -> CriterionReport:
    """Jump series over marked intervals; divergence means not limit circle.

    Terms are _lattice_terms with rho = c - a and s = b - c for marker c; jumps Hermitian.
    """
    if intervals.markers is None:
        raise ValueError("jump series needs interval markers")
    ab, c = np.array(intervals.intervals).reshape(-1, 2), np.array(intervals.markers)
    terms = _lattice_terms(channel, hermitian(jumps, "jump matrices"), c - ab[:, 0], ab[:, 1] - c)
    name = "t5_offdiag" if isinstance(channel, OffDiagonal) else "t5_diag"
    return build_report(name, terms, threshold=threshold)


def cor1_series(lengths, jumps, channel,
                threshold: float | None = None) -> CriterionReport:
    """Midpoint-marker specialization; lengths are the full interval lengths, jumps Hermitian.

    Diagonal terms: rho^(5/2) sqrt|h_ii + 6/rho|; off-diagonal: rho^3 |h_ij|.
    """
    lengths = [float(v) for v in lengths]
    if any(not v > 0.0 for v in lengths):  # NaN too
        raise ValueError("interval lengths must be positive")
    if math.inf in lengths:
        raise ValueError("interval lengths must be finite")
    rho = np.array(lengths)
    terms = _jump_terms(
        channel, hermitian(jumps, "jump matrices"), len(rho),
        lambda e: libm(np.power, rho, 2.5) * np.sqrt(np.abs(e + 6.0 / rho)),
        lambda a: libm(np.power, rho, 3.0) * a)
    return build_report("cor1", terms, threshold=threshold)


def cor2_series(d, jumps, channel, threshold: float | None = None) -> CriterionReport:
    """``cor2_lattice`` of the lattice (d, jumps)."""
    return cor2_lattice(Lattice(d, jumps), channel, threshold)


def cor2_lattice(lat: Lattice, channel, threshold: float | None = None) -> CriterionReport:
    """Delta-lattice jump series in the spacings d_k = x_k - x_{k-1}.

    Terms are _lattice_terms with rho = d_k and s = d_{k+1}: diagonal terms
    d_k d_{k+1} sqrt(d_k + d_{k+1}) sqrt|h_ii + 1.5 (1/d_k + 1/d_{k+1})|,
    off-diagonal (d_k d_{k+1})^(3/2) |h_ij|. Term k needs d_{k+1}, so the
    series runs over k = 1 .. min(len(d) - 1, len(H)), on the lattice's checked jumps.
    """
    count = min(len(lat.d) - 1, len(lat.H))
    terms = _lattice_terms(channel, lat.H[:count], lat.d[:count], lat.d[1:count + 1])
    return build_report("cor2", terms, threshold=threshold)


# ---------------------------------------------------------------------------
# monotone-potential test (code t2)


@dataclass(frozen=True, eq=False)
class T2Result:
    hypothesis_ok: bool
    series: CriterionReport

    @property
    def limit_point_certified(self) -> bool:
        return self.hypothesis_ok and self.series.verdict == DIVERGES


def t2_predicate(model: LinearSigma, intervals: IntervalSeq) -> T2Result:
    """Monotonicity test: sigma' >= 0 on every interval plus divergent length series.

    The potential derivative must be positive semidefinite (within PSD_TOL)
    on each piece overlapping each interval, and the series of squared
    interval lengths must diverge; certification requires both. Only a
    LinearSigma model is taken; any other type is a VariantUnsupportedError.

    Time is linear in intervals plus pieces: piece i meets (a, b) when
    knots[i] < b and knots[i + 1] > a, so each interval covers one range of
    pieces, found by ``searchsorted``; the slopes of the pieces some range
    covers, and only those, are taken as ``LinearSigma.slope`` takes them and
    go to one batched ``eigvalsh``.
    """
    if not isinstance(model, LinearSigma):
        raise VariantUnsupportedError(f"no sigma description for {type(model)!r}")
    if intervals.intervals and intervals.intervals[-1][1] > model.X:
        raise ValueError("intervals exceed the model domain")
    knots = np.array(model.knots)
    starts, ends = np.array(intervals.intervals).reshape(-1, 2).T
    pieces = len(knots) - 1
    # +1 where a range starts and -1 past its end: a running sum > 0 marks the covered pieces
    edges = (np.bincount(np.searchsorted(knots, starts, side="right") - 1, minlength=pieces + 1)
             - np.bincount(np.searchsorted(knots, ends, side="left"), minlength=pieces + 1))
    met = np.flatnonzero(edges.cumsum()[:pieces])
    slopes = ((model.values[met + 1] - model.values[met])
              / (knots[met + 1] - knots[met])[:, None, None])
    ok = not (np.linalg.eigvalsh(slopes).min(axis=-1) < -PSD_TOL).any()
    terms = [(b - a) * (b - a) for a, b in intervals.intervals]  # one correctly rounded product
    notes = () if ok else ("sigma' indefinite on some interval",)
    return T2Result(ok, build_report("t2", terms, notes=notes))
