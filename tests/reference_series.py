"""Per-term jump series, per-element node and cut checks and per-piece t2, the plain way.

The jump series of sldl (``t5_series``, ``cor1_series``, ``cor2_series``)
take their channel entries as one slice of the jump stack and their terms
as array expressions; the node and cut checks of ``DeltaNodes`` and the
piecewise models are array tests. The functions here redo both one
element at a time in Python floats: each jump term resolves its channel
on its own matrix and is checked right after it is computed, and the
checks walk the nodes, spacings and cuts with generators. ``t2_predicate``
walks every (interval, piece) pair, one ``eigvalsh`` of ``LinearSigma.slope``
per piece that meets the interval, where sldl batches the slopes of the
covered pieces. Tests compare
the two by ``tobytes`` and ``repr``, and compare exception classes and
messages. ``t5_series`` and ``cor1_series`` check their jump stack Hermitian,
one matrix at a time, before they count it; ``cor2_series`` first checks its
spacings and its whole jump stack as the lattice they form: positive finite
spacings, real symmetric jumps. Both rules store a stack exactly
self-adjoint from its upper triangle, so an off-diagonal channel reads the
entry above the diagonal (its modulus is its mirror's).

Range policy, as in sldl: a term that is not finite (a product or power
past the float range, or an infinity times 0) raises FloatRangeError
naming it. The generator checks are the old ones, which let a NaN node, cut or
spacing through; they serve as references on finite input only, and sldl
rejects those NaNs.
"""

import math
from itertools import accumulate

import numpy as np

from sldl.criteria import PSD_TOL, Diagonal, OffDiagonal
from sldl.jacobi import NonPositiveSpacingError
from sldl.matcore import FloatRangeError, NonSymmetricError, ShapeMismatchError, as_stack
from sldl.reports import build_report


def in_python(op, values) -> np.ndarray:
    """op of each value in Python arithmetic, inf where it raises OverflowError: the per-entry
    pass the jump series and t7 took for ``abs``, ``**``, ``math.log`` and ``math.exp``."""
    def one(v):
        try:
            return op(v)
        except OverflowError:
            return math.inf
    return np.array([one(v) for v in np.asarray(values).tolist()], dtype=float)


def jump_list(jumps, count: int) -> np.ndarray:
    mats = as_stack(jumps)
    if len(mats) != count:
        raise ShapeMismatchError(f"need {count} jump matrices, got {len(mats)}")
    return mats


def hermitian_jump_list(jumps, count: int) -> np.ndarray:
    """The jumps of t5 and cor1: each matrix Hermitian within 1e-10, then ``count`` of them."""
    mats = as_stack(jumps)
    for h in mats:
        with np.errstate(over="ignore"):  # a difference past the float range fails
            asymmetry = np.abs(h - h.conj().T).max()
        if asymmetry > 1e-10:
            raise NonSymmetricError("jump matrices must be Hermitian")
    if len(mats) != count:
        raise ShapeMismatchError(f"need {count} jump matrices, got {len(mats)}")
    return mats


def channel_entry(channel, h: np.ndarray):
    n = h.shape[0]
    if isinstance(channel, Diagonal):
        if not 1 <= channel.i <= n:
            raise ValueError(f"channel index {channel.i} outside 1..{n}")
        return float(h[channel.i - 1, channel.i - 1].real), True
    if isinstance(channel, OffDiagonal):
        i, j = channel.i, channel.j
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad off-diagonal channel ({i}, {j}) for order {n}")
        return complex(h[min(i, j) - 1, max(i, j) - 1]), False
    raise TypeError("channel must be Diagonal or OffDiagonal")


def _in_range(term, k: int) -> float:
    """term() if it is finite; an overflowing ``**`` or ``abs`` counts as infinite."""
    try:
        value = term()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise FloatRangeError(f"the jump series leaves the float range at term {k}")
    return value


def jump_term(channel, h: np.ndarray, rho: float, s: float, k: int) -> float:
    entry, diag = channel_entry(channel, h)
    if diag:
        shift = 1.5 * (1.0 / rho + 1.0 / s)
        return _in_range(lambda: rho * s * math.sqrt(rho + s) * math.sqrt(abs(entry + shift)), k)
    return _in_range(lambda: (rho * s) ** 1.5 * abs(entry), k)


def t5_series(intervals, jumps, channel):
    if intervals.markers is None:
        raise ValueError("jump series needs interval markers")
    mats = hermitian_jump_list(jumps, len(intervals))
    marked = zip(intervals.intervals, intervals.markers, mats)
    terms = [jump_term(channel, h, c - a, b - c, k) for k, ((a, b), c, h) in enumerate(marked, 1)]
    name = "t5_offdiag" if isinstance(channel, OffDiagonal) else "t5_diag"
    return build_report(name, terms)


def cor1_series(lengths, jumps, channel):
    lengths = [float(v) for v in lengths]
    if any(not v > 0.0 for v in lengths):
        raise ValueError("interval lengths must be positive")
    if math.inf in lengths:
        raise ValueError("interval lengths must be finite")
    mats = hermitian_jump_list(jumps, len(lengths))
    terms = []
    for k, (rho, h) in enumerate(zip(lengths, mats), 1):
        entry, diag = channel_entry(channel, h)
        if diag:
            terms.append(_in_range(lambda: rho ** 2.5 * math.sqrt(abs(entry + 6.0 / rho)), k))
        else:
            terms.append(_in_range(lambda: rho ** 3 * abs(entry), k))
    return build_report("cor1", terms)


def lattice(d, jumps):
    """The spacings as floats and the jump stack, checked one spacing and one matrix at a time."""
    d = tuple(float(v) for v in d)
    for v in d:
        if not v > 0.0:
            raise NonPositiveSpacingError("spacings must be strictly positive")
    if math.inf in d:
        raise ValueError("spacings must be finite")
    mats = as_stack(jumps)
    for h in mats:
        with np.errstate(over="ignore"):  # a difference past the float range fails
            asymmetry = np.abs(h - h.conj().T).max()
        if np.abs(h.imag).max() > 1e-10 or asymmetry > 1e-10:
            raise NonSymmetricError("jump matrices must be real symmetric")
    return d, mats


def cor2_series(d, jumps, channel):
    d, jumps = lattice(d, jumps)
    count = min(len(d) - 1, len(jumps))
    mats = jump_list(jumps[:count], count)
    terms = [jump_term(channel, mats[k - 1], d[k - 1], d[k], k) for k in range(1, count + 1)]
    return build_report("cor2", terms)


def check_cuts(cuts, X: float) -> tuple[float, ...]:
    cuts = tuple(float(c) for c in cuts)
    if not cuts or cuts[0] != 0.0:
        raise ValueError("piece cuts must start at 0.0")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("piece cuts must be strictly increasing")
    if not X > cuts[-1]:
        raise ValueError("domain end X must exceed the last cut")
    return cuts


def delta_nodes_fields(nodes, X: float, spacings=None):
    """(nodes, spacings, sigma cuts) of a DeltaNodes whose jumps pass their own checks."""
    nodes = tuple(float(x) for x in nodes)
    if not nodes or nodes[0] <= 0.0:
        raise ValueError("nodes must be positive")
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValueError("nodes must be strictly increasing")
    if spacings is None:
        sp = tuple(b - a for a, b in zip((0.0,) + nodes, nodes))
    else:
        sp = tuple(float(v) for v in spacings)
        if len(sp) != len(nodes) or any(v <= 0.0 for v in sp):
            raise ValueError("spacings must be positive, one per node")
        if any(abs(s - x) > 1e-9 * max(1.0, x) for s, x in zip(accumulate(sp), nodes)):
            raise ValueError("spacings are inconsistent with the nodes")
    return nodes, sp, check_cuts((0.0,) + nodes, float(X))


def from_spacings_nodes(spacings) -> tuple[float, ...]:
    """The node positions DeltaNodes.from_spacings stores: running sums of the spacings."""
    return tuple(accumulate(float(v) for v in spacings))


def t2_predicate(model, intervals) -> tuple[bool, list[float]]:
    """(hypothesis_ok, terms) of ``criteria.t2_predicate``, one piece of one interval at a time."""
    ok = True
    for a, b in intervals.intervals:
        if b > model.X:
            raise ValueError("intervals exceed the model domain")
        for i in range(len(model.knots) - 1):
            if (model.knots[i] < b and model.knots[i + 1] > a
                    and float(np.min(np.linalg.eigvalsh(model.slope(i)))) < -PSD_TOL):
                ok = False
    return ok, [(b - a) * (b - a) for a, b in intervals.intervals]
