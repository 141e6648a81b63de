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

Quadrature: one pass over the cells of [a, b] carries, per kernel column,
the Gram matrix of the solutions started at the points already passed, so
the cost is linear in the cells and each cell adds one-dimensional 7-point
Gauss-Legendre rules. Step and delta models march in classical
coordinates, where cell propagators are linear and the rules are exact
whatever the accumulated potential. Other variants repeat the pass on
refined cells until the estimate is stable to a relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    ShapeMismatchError,
    as_stack,
    frobenius_norm,
    matrix_from_json,
    real_symmetric,
)
from .quasidiff import (
    DeltaNodes,
    FundamentalPair,
    OffGridError,
    StepSigma,
    VariantUnsupportedError,
    _cells,
    expm,
    transfer,
)
from .reports import DIVERGES, CriterionReport, build_report

_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0

QUAD_REL_TOL = 1e-8
_MAX_SPLIT = 256
PSD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Kernel quadrature overflowed or did not reach its stability target."""


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
# kernel quadrature


def _kernel_pass(model, a: float, b: float, splits: int) -> np.ndarray:
    """Per-entry double integrals in one pass over the cells of [a, b].

    gram[j] = int w_j w_j* dt over the t passed so far, w_j the current state
    of the solution started at t with data (O, e_j). For x at s in a later
    cell, int |k_ij(x, t)|^2 dt over those t is [E(s) gram[j] E(s)*]_ii; x and
    t in one cell reduce to int_0^L (L - s) |E(s)_12|^2 ds.
    """
    n = model.n
    gram = np.zeros((n, 2 * n, 2 * n), dtype=complex)
    total = np.zeros((n, n))
    cells = _cells(model, 0.0, a, b, splits)
    for jump, gen, length, step in zip(cells.jump, cells.gen, cells.length, cells.prop):
        if jump is not None:
            gram = jump @ gram @ jump.conj().T
        e = np.array([expm(gen * (x * length)) for x in _GL_X])
        w, top, right = _GL_W * length, e[:, :n, :], e[:, :, n:]
        total += np.einsum("p,pik,jkl,pil->ij", w, top, gram, top.conj()).real
        total += np.einsum("p,pij->ij", w * (1.0 - _GL_X) * length, np.abs(right[:, :n]) ** 2)
        gram = step @ gram @ step.conj().T + np.einsum("p,pkj,plj->jkl", w, right, right.conj())
    return total


def _solution_norm_pass(model, a: float, b: float, splits: int,
                        t_start: np.ndarray) -> float:
    n = model.n
    total = 0.0
    t = t_start
    cells = _cells(model, 0.0, a, b, splits)
    for jump, gen, length, step in zip(cells.jump, cells.gen, cells.length, cells.prop):
        if jump is not None:
            t = jump @ t
        e = np.array([expm(gen * (x * length)) for x in _GL_X])
        total += float(np.einsum("p,pij->", _GL_W * length, np.abs((e @ t)[:, :n]) ** 2))
        t = step @ t
    return total


def _refined(model, a, b, one_pass):
    """Single exact pass for step models, stability-driven refinement otherwise.

    one_pass(splits) integrates over the cells of [a, b] with every piece
    split into ``splits`` equal parts. Refinement stops at the first
    non-finite pass: finer cells cannot bring an overflowed propagation
    back, and the overflow is reported as a QuadratureError, not as a
    numpy warning.
    """
    if isinstance(model, (StepSigma, DeltaNodes)):
        return one_pass(1)
    prev = None
    splits = 1
    while splits <= _MAX_SPLIT:
        with np.errstate(over="ignore", invalid="ignore"):
            cur = one_pass(splits)
        if not np.all(np.isfinite(cur)):
            raise QuadratureError(f"kernel quadrature overflowed on ({a}, {b})")
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= QUAD_REL_TOL * scale:
            return cur
        prev = cur
        splits *= 2
    raise QuadratureError("kernel quadrature did not stabilize; refine the model pieces")


def kernel_square_integrals(model, a: float, b: float) -> np.ndarray:
    """Per-entry integrals int_a^b dx int_a^x |k_ij(x, t)|^2 dt as an n x n array."""
    if not 0.0 <= a <= b <= model.X:
        raise ValueError("need 0 <= a <= b <= X")
    if a == b:
        return np.zeros((model.n, model.n))
    return _refined(model, a, b, lambda splits: _kernel_pass(model, a, b, splits))


def solution_norm_integral(model, a: float, b: float) -> float:
    """int_a^b (||Phi||_F^2 + ||Psi||_F^2) dx for the pair started at 0."""
    if not 0.0 <= a <= b <= model.X:
        raise ValueError("need 0 <= a <= b <= X")
    if a == b:
        return 0.0
    t_start = transfer(model, 0.0, 0.0, a)
    return _refined(model, a, b,
                    lambda splits: _solution_norm_pass(model, a, b, splits, t_start))


# ---------------------------------------------------------------------------
# interval series criterion (code t1) and the solution-norm inequality


def _check_span(pair: FundamentalPair, a: float, b: float):
    if pair.lam != 0:
        raise ValueError("criteria are evaluated at lam = 0")
    lo, hi = pair.span
    if a < lo or b > hi:
        raise OffGridError(f"[{a}, {b}] outside the pair's span [{lo}, {hi}]")


def t1_term(pair: FundamentalPair, a: float, b: float) -> float:
    """Square root of the kernel double integral over {a <= t <= x <= b}."""
    if a > b:
        raise ValueError("need a <= b")
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
    terms = [math.sqrt(float(np.sum(kernel_square_integrals(model, a, b))))
             for a, b in intervals.intervals]
    return build_report(
        "t1", terms, threshold=threshold,
        notes=("each term depends only on the coefficients inside its interval",))


def solution_kernel_inequality(pair: FundamentalPair, a: float, b: float) -> tuple[float, float]:
    """(lhs, rhs) with lhs = int (||Phi||^2 + ||Psi||^2) and rhs = sqrt(2) * kernel root.

    The solution-norm integral always dominates sqrt(2) times the kernel
    double-integral root; callers may assert lhs >= rhs.
    """
    if a > b:
        raise ValueError("need a <= b")
    _check_span(pair, a, b)
    if a == b:
        return 0.0, 0.0
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


def _channel_entry(channel, h: np.ndarray):
    n = h.shape[0]
    if isinstance(channel, Diagonal):
        if not 1 <= channel.i <= n:
            raise ValueError(f"channel index {channel.i} outside 1..{n}")
        return float(h[channel.i - 1, channel.i - 1].real), True
    if isinstance(channel, OffDiagonal):
        i, j = channel.i, channel.j
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad off-diagonal channel ({i}, {j}) for order {n}")
        return complex(h[i - 1, j - 1]), False
    raise TypeError("channel must be Diagonal or OffDiagonal")


def _jump_list(jumps, count: int) -> np.ndarray:
    mats = as_stack(jumps)
    if len(mats) != count:
        raise ShapeMismatchError(f"need {count} jump matrices, got {len(mats)}")
    return mats


def _jump_term(channel, h: np.ndarray, rho: float, s: float) -> float:
    """Jump-series term of h at distances rho and s from its interval's ends.

    Diagonal channel: rho s sqrt(rho + s) sqrt|h_ii + 1.5 (1/rho + 1/s)|.
    Off-diagonal channel: (rho s)^(3/2) |h_ij|.
    """
    entry, diag = _channel_entry(channel, h)
    if diag:
        shift = 1.5 * (1.0 / rho + 1.0 / s)
        return rho * s * math.sqrt(rho + s) * math.sqrt(abs(entry + shift))
    return (rho * s) ** 1.5 * abs(entry)


def t5_series(intervals: IntervalSeq, jumps, channel,
              threshold: float | None = None) -> CriterionReport:
    """Jump series over marked intervals; divergence means not limit circle.

    Terms are _jump_term with rho = c - a and s = b - c for marker c.
    """
    if intervals.markers is None:
        raise ValueError("jump series needs interval markers")
    mats = _jump_list(jumps, len(intervals))
    terms = [_jump_term(channel, h, c - a, b - c)
             for (a, b), c, h in zip(intervals.intervals, intervals.markers, mats)]
    name = "t5_offdiag" if isinstance(channel, OffDiagonal) else "t5_diag"
    return build_report(name, terms, threshold=threshold)


def cor1_series(lengths, jumps, channel,
                threshold: float | None = None) -> CriterionReport:
    """Midpoint-marker specialization; lengths are the full interval lengths.

    Diagonal terms: rho^(5/2) sqrt|h_ii + 6/rho|; off-diagonal: rho^3 |h_ij|.
    """
    lengths = [float(v) for v in lengths]
    if any(v <= 0.0 for v in lengths):
        raise ValueError("interval lengths must be positive")
    mats = _jump_list(jumps, len(lengths))
    terms = []
    for rho, h in zip(lengths, mats):
        entry, diag = _channel_entry(channel, h)
        if diag:
            terms.append(rho ** 2.5 * math.sqrt(abs(entry + 6.0 / rho)))
        else:
            terms.append(rho ** 3 * abs(entry))
    return build_report("cor1", terms, threshold=threshold)


def cor2_series(d, jumps, channel,
                threshold: float | None = None) -> CriterionReport:
    """Delta-lattice jump series in the spacings d_k = x_k - x_{k-1}.

    Terms are _jump_term with rho = d_k and s = d_{k+1}: diagonal terms
    d_k d_{k+1} sqrt(d_k + d_{k+1}) sqrt|h_ii + 1.5 (1/d_k + 1/d_{k+1})|,
    off-diagonal (d_k d_{k+1})^(3/2) |h_ij|. Term k needs d_{k+1}, so the
    series runs over k = 1 .. min(len(d) - 1, len(jumps)).
    """
    d = [float(v) for v in d]
    if any(v <= 0.0 for v in d):
        raise ValueError("spacings must be positive")
    count = min(len(d) - 1, len(jumps))
    mats = _jump_list(jumps[:count], count)
    terms = [_jump_term(channel, mats[k - 1], d[k - 1], d[k])
             for k in range(1, count + 1)]
    return build_report("cor2", terms, threshold=threshold)


# ---------------------------------------------------------------------------
# monotone-potential test (code t2)


@dataclass(frozen=True, eq=False)
class LinearSigma:
    """Continuous piecewise-linear real symmetric potential.

    knots include both endpoints 0 and X; values[i] is sigma(knots[i]).
    The derivative is constant on each piece.
    """

    n: int
    knots: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        knots = tuple(float(x) for x in self.knots)
        if len(knots) < 2 or knots[0] != 0.0:
            raise ValueError("knots must start at 0.0 and contain the endpoint")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("knots must be strictly increasing")
        vals = real_symmetric(as_stack(self.values, self.n), "sigma values")
        if len(vals) != len(knots):
            raise ShapeMismatchError("need one sigma value per knot")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", vals)

    @property
    def X(self) -> float:
        return self.knots[-1]

    def slope(self, i: int) -> np.ndarray:
        return (self.values[i + 1] - self.values[i]) / (self.knots[i + 1] - self.knots[i])


def linear_sigma_from_json(obj: dict) -> LinearSigma:
    n = int(obj["n"])
    return LinearSigma(n, tuple(obj["knots"]),
                       tuple(matrix_from_json(v, n) for v in obj["values"]))


@dataclass(frozen=True)
class T2Result:
    hypothesis_ok: bool
    series: CriterionReport

    @property
    def limit_point_certified(self) -> bool:
        return self.hypothesis_ok and self.series.verdict == DIVERGES


def _slopes_overlapping(model: LinearSigma, a: float, b: float):
    for i in range(len(model.knots) - 1):
        if model.knots[i] < b and model.knots[i + 1] > a:
            yield model.slope(i)


def t2_predicate(model, intervals: IntervalSeq) -> T2Result:
    """Monotonicity test: sigma' >= 0 on every interval plus divergent length series.

    The potential derivative must be positive semidefinite (within PSD_TOL)
    on each piece overlapping each interval, and the series of squared
    interval lengths must diverge; certification requires both. Pure delta
    models have no function-valued derivative and are rejected.
    """
    if isinstance(model, (DeltaNodes,)):
        raise VariantUnsupportedError("sigma' is not a function for delta models")
    if isinstance(model, StepSigma):
        if any(frobenius_norm(v - model.values[0]) > PSD_TOL for v in model.values):
            raise VariantUnsupportedError("sigma' is not a function for step models with jumps")
        slopes_for = lambda a, b: [np.zeros((model.n, model.n))]
    elif isinstance(model, LinearSigma):
        slopes_for = lambda a, b: list(_slopes_overlapping(model, a, b))
    else:
        raise VariantUnsupportedError(f"no sigma description for {type(model)!r}")

    ok = True
    for a, b in intervals.intervals:
        if b > model.X:
            raise ValueError("intervals exceed the model domain")
        for sl in slopes_for(a, b):
            if float(np.min(np.linalg.eigvalsh(sl.real))) < -PSD_TOL:
                ok = False
    terms = [(b - a) ** 2 for a, b in intervals.intervals]
    notes = () if ok else ("sigma' indefinite on some interval",)
    return T2Result(ok, build_report("t2", terms, notes=notes))
