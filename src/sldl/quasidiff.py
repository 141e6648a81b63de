"""Coefficient models, quasi-derivative propagation, and Cauchy kernels.

A second-order vector expression with coefficients (P, Q, R) is treated
through its first-order form Y' = (F - L) Y for the stacked state
Y = (f, f1), where f1 = P (f' - R f) is the first quasi-derivative and

    F = [[R, P^-1], [Q, -R*]],      L = [[O, O], [lam*I, O]].

Step and delta models share one shape, ``StepModel``: cuts, the sigma value
of each piece, the stack ``cell_jumps`` and the ``jacobi.Lattice`` of the
spacings between the cuts and the changes of sigma at them, built once; a delta
model is the step model whose sigma jumps by H_k at node x_k (its ``spacings``
and ``jumps`` are its lattice's arrays; nodes and cuts stay tuples of floats,
read per cell by the walk). Their sigma values and jumps, and the
values of ``LinearSigma``, are exactly symmetric float64 stacks; general and
distributional pieces and generators keep the dtype of their data. Coefficients
are piecewise constant, so propagation across a piece is an exact matrix
exponential. One cell walker, ``_cells``, enumerates the pieces of one or
more spans (slicing the runs of whole pieces between two cuts) and picks the
working coordinates: classical (f, f') with free
flights and jumps of f' for step and delta models, (f, f1) with the piece
generator otherwise. It stacks each cell's jump and propagator up front
(closed forms, or one stacked ``expm`` call). At lam = 0 the jumps and
flights of step and delta models are real, and so are their stacks; at
order 1 it builds no matrices at all, and each cell's jump is its dS as a
Python float. One march, ``_march``, writes the state after every cell into
a preallocated stack, from which transfer matrices and node samples are read
by index. The stack is float64 when the cells and the start are real, and
complex128 otherwise (lam != 0, complex coefficients, complex starts). Each
cell is a kick f' = dS f + f' and a drift f = f + L f' in Python numbers
where it has the dS, BLAS products otherwise. Classical samples go back to
quasi coordinates by one subtraction, f1 = f' - sigma f.

Conventions: piece values are right-continuous, the k-th piece lives on
[cut_k, cut_{k+1}) with the last piece closed at X, and cut_0 = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .jacobi import Lattice
from .matcore import (
    COND_LIMIT,
    FloatRangeError,
    ShapeMismatchError,
    as_stack,
    condition,
    first_nonfinite,
    floats,
    frobenius_norm,
    hermitian,
    inexact,
    matrices_from_json,
    matrix_to_json,
    number_from_json,
    real_symmetric,
)


class SingularPieceError(ValueError):
    """A P piece (or P0 piece) is not invertible."""


class OffGridError(ValueError):
    """Requested point is not a sample of the pair's grid."""


class VariantUnsupportedError(TypeError):
    """Operation is not defined for this coefficient variant."""


# ---------------------------------------------------------------------------
# coefficient models


def _increasing(x: np.ndarray, what: str) -> tuple[float, ...]:
    """The floats x as a tuple, checked finite and strictly increasing; ``what`` names them."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    if not (x[1:] > x[:-1]).all():
        raise ValueError(f"{what} must be strictly increasing")
    return tuple(x.tolist())


def _check_cuts(cuts, X: float) -> tuple[float, ...]:
    c = floats(cuts)
    if not len(c) or c[0] != 0.0:
        raise ValueError("piece cuts must start at 0.0")
    cuts = _increasing(c, "piece cuts")
    if not X > cuts[-1]:
        raise ValueError("domain end X must exceed the last cut")
    return cuts


def _freeze_sigma(model, cuts, values, changes, lengths: np.ndarray) -> None:
    """The one place a step model's lattice is built. ``cell_jumps`` holds the dS that start cells,
    the values and then their changes at the cuts after the first, exactly symmetric float64
    (``real_symmetric`` stacks); ``values`` and the lattice's H view it, and ``lengths``, between
    the cuts, are its spacings. The first dS past the float range is a ValueError naming its cut."""
    stack = np.concatenate([values, changes])
    if (k := first_nonfinite(stack)) is not None:
        what, c = ("sigma", k) if k < len(cuts) else ("the change of sigma", k - len(cuts) + 1)
        raise ValueError(f"{what} leaves the float range at x = {cuts[c]}")
    stack.flags.writeable = False
    model.__dict__.update(cuts=cuts, values=stack[:len(cuts)], cell_jumps=stack,
                          lattice=Lattice.checked(lengths, stack[len(cuts):]))


@dataclass(frozen=True, eq=False)
class StepSigma:
    """Piecewise-constant real symmetric potential sigma.

    Realizes P = I, R = sigma, Q = -sigma**2, i.e. the step form of the
    expression -f'' + sigma' f. Piece k carries values[k]; every change of
    sigma at a cut is within the float range. ``lattice`` is the delta lattice
    of the cuts after the first: their spacings and the changes of sigma there.
    """

    n: int
    cuts: tuple[float, ...]
    values: np.ndarray
    X: float
    cell_jumps: np.ndarray = field(init=False, repr=False)
    lattice: Lattice = field(init=False, repr=False)

    def __post_init__(self):
        c = floats(self.cuts)  # an array: the lengths take no second conversion
        cuts = _check_cuts(c, self.X)
        vals = real_symmetric(self.values, "sigma piece", self.n)
        if len(vals) != len(cuts):
            raise ShapeMismatchError("need one sigma value per piece")
        with np.errstate(over="ignore", invalid="ignore"):
            changes = np.diff(vals, axis=0)
        _freeze_sigma(self, cuts, vals, changes, np.diff(c))
        object.__setattr__(self, "X", float(self.X))


@dataclass(frozen=True, eq=False)
class DeltaNodes:
    """Point interactions: jump H_k in the classical derivative at node x_k.

    As a step model its cuts are 0 and the nodes, and its values the running
    sums sigma = H_1 + ... + H_k after x_k, each within the float range; f1 is
    continuous across nodes while f' jumps by H_k f(x_k). ``lattice`` holds the
    spacings (given, or the node differences) and jumps; ``spacings`` and ``jumps``
    are its read-only float64 arrays, and ``nodes`` a tuple of floats.
    """

    n: int
    nodes: tuple[float, ...]
    jumps: np.ndarray
    X: float
    spacings: np.ndarray | None = None
    lattice: Lattice = field(init=False, repr=False)
    cuts: tuple[float, ...] = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    cell_jumps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = floats(self.nodes)
        if not len(x) or x[0] <= 0.0:
            raise ValueError("nodes must be positive")
        nodes = _increasing(x, "nodes")
        jumps = real_symmetric(self.jumps, "jump matrix", self.n)
        if len(jumps) != len(nodes):
            raise ShapeMismatchError("need one jump matrix per node")
        X = float(self.X)
        if self.spacings is None:
            sp = np.diff(x, prepend=0.0)
        else:
            sp = floats(self.spacings)
            if len(sp) != len(x) or not (sp > 0.0).all():  # NaN fails too
                raise ValueError("spacings must be positive, one per node")
            if (np.abs(np.cumsum(sp) - x) > 1e-9 * np.maximum(1.0, x)).any():
                raise ValueError("spacings are inconsistent with the nodes")
        if not X > nodes[-1]:
            raise ValueError("domain end X must exceed the last cut")
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.cumsum(np.concatenate([np.zeros((1, self.n, self.n)), jumps]), axis=0)
        _freeze_sigma(self, (0.0,) + nodes, values, jumps, sp)
        self.__dict__.update(nodes=nodes, X=X, spacings=self.lattice.d, jumps=self.lattice.H)

    @classmethod
    def from_spacings(cls, n: int, spacings, jumps, tail: float = 1.0) -> "DeltaNodes":
        """Build from exact spacings d_k = x_k - x_{k-1}, stored verbatim (the nodes are
        their running sums), so lattice families defined through spacings keep their
        defining float identities; the domain extends ``tail`` past the last node."""
        spacings = floats(spacings)
        nodes = np.cumsum(spacings)
        return cls(n, nodes, jumps, (nodes[-1] if len(nodes) else 0.0) + tail, spacings)


def _freeze_pieces(model, names: tuple[str, ...], hermitian_names: tuple[str, ...]):
    """Check the cuts, replace each named piece sequence by its validated stack, build generators.

    Each stack needs one piece per cut; those named in ``hermitian_names`` go
    through ``matcore.hermitian``, and the first, the leading coefficient, must
    be invertible (a finite condition estimate at most COND_LIMIT, as in ``invert``).
    The stacks and ``generators``, the lam = 0 generators ``model._system`` builds
    from the leading pieces' inverses, keep the dtype of their data (``inexact``)
    and are read-only.
    """
    object.__setattr__(model, "cuts", _check_cuts(model.cuts, model.X))
    for name in names:
        seq = as_stack(getattr(model, name), model.n)
        if len(seq) != len(model.cuts):
            raise ShapeMismatchError(f"need one {name} piece per cut")
        if name in hermitian_names:
            seq = hermitian(seq, f"{name} pieces")
        if name == names[0] and not np.all(condition(seq) <= COND_LIMIT):
            raise SingularPieceError(f"{name} pieces must be invertible")
        object.__setattr__(model, name, seq)
    object.__setattr__(model, "X", float(model.X))
    generators = model._system(np.linalg.inv(getattr(model, names[0])))
    generators.flags.writeable = False
    object.__setattr__(model, "generators", generators)


@dataclass(frozen=True, eq=False)
class GeneralTriple:
    """Piecewise-constant (P, Q, R): P nonsingular, P and Q Hermitian."""

    n: int
    cuts: tuple[float, ...]
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    X: float
    generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _freeze_pieces(self, ("P", "Q", "R"), hermitian_names=("P", "Q"))

    def _system(self, pinv: np.ndarray) -> np.ndarray:
        return np.block([[self.R, pinv], [self.Q, -self.R.conj().swapaxes(1, 2)]])


@dataclass(frozen=True, eq=False)
class Distributional:
    """Piecewise-constant (P0, Q0, P1), all Hermitian, P0 invertible.

    The system matrix uses phi = P1 + i Q0:
    F = [[P0^-1 phi, P0^-1], [-phi* P0^-1 phi, -phi* P0^-1]].
    """

    n: int
    cuts: tuple[float, ...]
    P0: np.ndarray
    Q0: np.ndarray
    P1: np.ndarray
    X: float
    generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = ("P0", "Q0", "P1")
        _freeze_pieces(self, names, hermitian_names=names)

    def _system(self, pinv: np.ndarray) -> np.ndarray:
        phi = inexact(self.P1 + 1j * self.Q0)  # real for Q0 = O and a real P1
        phs = phi.conj().swapaxes(1, 2)
        return np.block([[pinv @ phi, pinv], [-(phs @ pinv @ phi), -(phs @ pinv)]])


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
        x = floats(self.knots)
        if len(x) < 2 or x[0] != 0.0:
            raise ValueError("knots must start at 0.0 and contain the endpoint")
        knots = _increasing(x, "knots")
        vals = real_symmetric(self.values, "sigma values", self.n)
        if len(vals) != len(knots):
            raise ShapeMismatchError("need one sigma value per knot")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", vals)

    @property
    def X(self) -> float:
        return self.knots[-1]

    def slope(self, i: int) -> np.ndarray:
        return (self.values[i + 1] - self.values[i]) / (self.knots[i + 1] - self.knots[i])


# the models marched in classical coordinates, with cuts and sigma values
StepModel = StepSigma | DeltaNodes
CoefficientModel = StepModel | GeneralTriple | Distributional


def piece_cuts(model) -> tuple[float, ...]:
    if not isinstance(model, CoefficientModel):
        raise VariantUnsupportedError(f"unsupported model type {type(model).__name__}")
    return model.cuts


def piece_index(model, x: float) -> int:
    """Piece containing x; cuts resolve to the right-hand piece, x = X left."""
    cuts = piece_cuts(model)
    if not 0.0 <= x <= model.X:
        raise ValueError(f"x = {x} outside [0, {model.X}]")
    return min(bisect_right(cuts, x) - 1, len(cuts) - 1)


def _piece_generators(model, lam: complex, pieces: list[int]) -> np.ndarray:
    """Stacked F - L of the listed pieces of a general or distributional model, complex at lam != 0."""
    gen, n = model.generators[pieces], model.n
    if lam != 0:
        gen = gen.astype(complex, copy=False)
        gen[:, n:, :n] -= lam * np.eye(n)
    return gen


# ---------------------------------------------------------------------------
# matrix exponential and propagation

_PADE6 = [1.0]
for _k in range(1, 7):
    _PADE6.append(_PADE6[-1] * (6 - _k + 1) / (_k * (12 - _k + 1)))


def _scaling_exponent(norm: float) -> int:
    """s = ceil(log2(norm / 0.5)), or 0 for norm <= 0.5; FloatRangeError where 2.0 ** s overflows."""
    e = 0.0 if norm <= 0.5 else math.log2(norm / 0.5)
    if not e <= 1023.0:  # inf and NaN too
        raise FloatRangeError(f"the matrix exponential cannot scale a norm of {norm:.3e}")
    return math.ceil(e)


def expm(a) -> np.ndarray:
    """Matrix exponential of a matrix, or of every matrix of a stack on the trailing two axes.

    Pade(6, 6) with scaling so each scaled norm is <= 0.5, in one stacked loop
    and one batched solve, each matrix squared back by its own exponent, in the
    input's float64 or complex128: bit for bit the exponentials taken one matrix
    at a time. Matrices that square to zero short-circuit to I + a: the lam = 0
    cells of general or distributional pieces such as R = Q = O (step and delta
    cells at lam = 0 never get here: ``_cells`` builds their I + L N).
    """
    a = np.asarray(a)
    m, stack = a.shape[-1], a.reshape((-1,) + a.shape[-2:])
    out = np.eye(m) + stack
    live = np.flatnonzero((stack @ stack).any(axis=(1, 2)))
    s = np.array([_scaling_exponent(v) for v in frobenius_norm(stack)[live].tolist()], dtype=int)
    order = np.argsort(-s, kind="stable")  # the matrices of the r-th squaring lead
    live, s = live[order], s[order]
    b = stack[live] / np.array([2.0 ** e for e in s.tolist()]).reshape(-1, 1, 1)
    num = den = np.eye(m) * _PADE6[0]
    pw = np.eye(m)
    for k in range(1, 7):
        pw = pw @ b
        num = num + _PADE6[k] * pw
        den = den + (-1) ** k * _PADE6[k] * pw
    x = np.linalg.solve(den, num)
    for r in range(1, max(s, default=0) + 1):
        lead = np.count_nonzero(s >= r)
        x[:lead] = x[:lead] @ x[:lead]
    out[live] = x
    return out.reshape(a.shape)


def _jumps(ds: np.ndarray, dtype) -> np.ndarray:
    """[[I, O], [dS, I]] of ``dtype`` for dS on the trailing two axes: f' picks up dS f."""
    n = ds.shape[-1]
    out = np.zeros(ds.shape[:-2] + (2 * n, 2 * n), dtype=dtype)
    out[..., :n, :n] = out[..., n:, n:] = np.eye(n)
    out[..., n:, :n] = ds
    return out


def _cut_span(cuts: tuple[float, ...], i: int, x0, x1, inner: list) -> int | None:
    """j if the span [x0, x1] of piece i runs from cuts[i] to a cut cuts[j], j >= i + 2, and
    its stops inside are none or exactly cuts[i + 1 .. j - 1]: two or more whole pieces, which
    slices list faster than the walk (a single piece the walk lists faster); else None."""
    if cuts[i] != x0 or not x0 < x1 <= cuts[-1] or not x1 > cuts[i + 1]:
        return None
    j = bisect_left(cuts, x1, i + 2)
    return j if cuts[j] == x1 and (not inner or inner == list(cuts[i + 1:j])) else None


# per cell: piece, jump (or None), generator, length, end and propagator; the first
# cell of each span; at order 1 and lam = 0 each jump is the cell's dS as a Python
# float, and the generator and propagator stacks are None
Cells = namedtuple("Cells", "piece jump gen length end prop first")


def _cells(model, lam: complex, spans, stops=()) -> Cells:
    """The cells of the spans [x0, x1], with every state-independent operator stacked.

    Cells are the pieces clipped to each span, walked alone, and cut again at
    the sorted points ``stops``; a span of two or more whole pieces of a step or
    delta model (``_cut_span``) takes them by slices of the cuts and the lattice
    spacings instead, with the walk's fields. ``jump`` (or None) applies at the cell's
    start and ``prop`` = exp(generator * length) carries the state across;
    ``first`` holds the index of each span's first cell and ``end`` is an
    array of the cells' end points. Step and delta models work in classical
    coordinates (f, f'), since quasi generators carry sigma**2 and lose about
    that factor once the accumulated potential is large: a free flight inside
    each cell, a jump by the change of sigma at each cut (and, a float, the lattice
    spacing as the length of each full cell), and a first jump by sigma itself, from
    (f, f1) into (f, f'), that ``_to_quasi`` undoes; all dS are gathered from
    ``model.cell_jumps`` by one index. At lam = 0 the flight generator N is
    nilpotent and its propagators are I + length * N in closed form, which is
    what ``expm`` returns for it. These cells are real: their jumps,
    generators and propagators are float64 (complex at lam != 0). At order 1
    and lam = 0 each ``jump`` is the cell's dS as a Python float, and ``gen``
    and ``prop`` are None: the march and the kernel pass read only ``jump``
    and ``length`` there.
    Other models keep quasi coordinates and the piece generator; the other
    propagators come from one stacked ``expm`` call.
    """
    classical = isinstance(model, StepModel)
    cuts = piece_cuts(model)
    last, X = len(cuts) - 1, model.X
    # a memoryview's entries read as Python floats, one per full cell of a step model
    spacings = memoryview(model.lattice.d) if classical else None
    pieces, jumped, picks, lengths, ends, first = [], [], [], [], [], []
    count = 0  # len(pieces)
    for x0, x1 in spans:
        first.append(count)
        inner = [x for x in stops if x0 < x < x1] if stops else []
        i = piece_index(model, x0)
        if classical and (j := _cut_span(cuts, i, x0, x1, inner)) is not None:
            # whole pieces i .. j - 1, each jumped, each of its lattice spacing: no walk
            pieces.extend(range(i, j))
            jumped.extend(range(count, count + j - i))
            picks.extend([i, *range(last + i + 1, last + j)])
            lengths.extend(spacings[i:j].tolist())
            ends.extend(cuts[i + 1:j + 1])
            count += j - i
            continue
        marks = iter(inner)
        pos, mark = x0, next(marks, x1)
        while pos < x1:
            end = cuts[i + 1] if i < last else X
            stop = mark if mark < end else end  # min(end, mark): end on a tie
            if classical and (pos == x0 or pos == cuts[i]):
                jumped.append(count)
                picks.append(i if pos == x0 else last + i)
            full = classical and pos == cuts[i] and stop == end and i < last
            pieces.append(i)
            lengths.append(spacings[i] if full else stop - pos)
            ends.append(stop)
            count += 1
            if stop == mark:
                mark = next(marks, x1)
            if stop == end:
                i += 1
            pos = stop
    n, m, ends = model.n, 2 * model.n, np.array(ends)
    jump = [None] * len(pieces)
    if classical and n == 1 and lam == 0:
        for c, ds in zip(jumped, model.cell_jumps[picks, 0, 0].tolist()):
            jump[c] = ds
        return Cells(pieces, jump, None, lengths, ends, None, first)
    if not classical:
        gen = _piece_generators(model, lam, pieces)
    else:
        flight = np.eye(m, k=n, dtype=float if lam == 0 else complex)
        if lam != 0:
            flight[n:, :n] = -lam * np.eye(n)
        gen = np.broadcast_to(flight, (len(pieces), m, m))
        for c, matrix in zip(jumped, _jumps(model.cell_jumps[picks], flight.dtype)):
            jump[c] = matrix
    scaled = gen * np.array(lengths)[:, None, None]
    prop = np.eye(m) + scaled if classical and lam == 0 else expm(scaled)
    return Cells(pieces, jump, gen, lengths, ends, prop, first)


def _kick_drift(jump, length, f: float, g: float) -> tuple[list, list]:
    """f and f' of one state column after each cell: f' += dS f at a jump, then f += L f'."""
    fs, gs = [], []
    for ds, span in zip(jump, length):
        if ds is not None:
            g = ds * f + g
        f = f + span * g
        fs.append(f)
        gs.append(g)
    return fs, gs


def _products(cells: Cells, y: np.ndarray, out: np.ndarray) -> None:
    """out[c] = prop_c (jump_c y_c) for every cell c, y_0 = y and y_{c+1} = out[c],
    two BLAS products into buffers.

    A cell without a jump takes no jump product: a fused or an identity
    product (-0.0 into 0.0) would change the floats.
    """
    jumped = np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for jump, prop, end in zip(cells.jump, cells.prop, out):
            if jump is not None:
                y = jump.dot(y, out=jumped)
            y = prop.dot(y, out=end)


def _march(cells: Cells, y: np.ndarray) -> np.ndarray:
    """y, then in row c + 1 its working-coordinate value after cell c of one span, as one stack.

    The stack is float64 when the cells and y are real (step and delta
    models at lam = 0, real starts) and complex128 otherwise. At order 1 and
    lam = 0 (``cells.prop`` None) each column steps in Python numbers: a kick
    f' = dS f + f' where the cell starts with a jump, then the drift
    f = f + L f'. Two roundings each, where a BLAS kernel may fuse one, so
    the floats do not depend on the BLAS build. Otherwise the state goes
    through ``_products``. A state that leaves the float range is a
    FloatRangeError naming the end x of the first such cell.
    """
    dtype = np.result_type(y, float if cells.prop is None else cells.prop)
    out = np.empty((len(cells.length) + 1,) + y.shape, dtype=dtype)
    out[0] = y
    if cells.prop is not None:
        _products(cells, out[0], out[1:])
    else:
        cols = out[1:].reshape(len(out) - 1, 2, y.size // 2)  # a view: out is C ordered
        for j, (f, g) in enumerate(zip(*y.reshape(2, -1).tolist())):
            cols[:, 0, j], cols[:, 1, j] = _kick_drift(cells.jump, cells.length, f, g)
    if (k := first_nonfinite(out[1:])) is not None:
        raise FloatRangeError(f"the march leaves the float range at x = {float(cells.end[k])}")
    return out


def _to_quasi(model, piece, y: np.ndarray) -> None:
    """Working coordinates y on ``piece`` back to quasi ones, in place; both may be stacked.

    Step and delta models take f1 = f' - sigma f on the bottom rows; the other
    models march in quasi coordinates already.
    """
    if isinstance(model, StepModel):
        n = model.n
        y[..., n:, :] -= model.values[piece] @ y[..., :n, :]


def transfer(model, lam: complex, x0: float, x1: float) -> np.ndarray:
    """Fundamental 2n x 2n propagator of Y' = (F - L) Y from x0 to x1."""
    if not 0.0 <= x0 <= x1 <= model.X:
        raise ValueError("need 0 <= x0 <= x1 <= X")
    cells = _cells(model, lam, [(x0, x1)])
    m = _march(cells, np.eye(2 * model.n))[-1]
    if cells.piece:
        _to_quasi(model, cells.piece[-1], m)
    return m


@dataclass(frozen=True, eq=False)
class QuasiState:
    """Stacked state (f, f1) with f1 the first quasi-derivative."""

    f: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        # copies: a frozen state never aliases its caller's arrays
        f, f1 = (inexact(np.array(v)).reshape(-1) for v in (self.f, self.f1))
        if f.shape != f1.shape or f.size < 1:
            raise ShapeMismatchError("f and f1 must share the same length")
        f.flags.writeable = False
        f1.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f1", f1)

    @property
    def n(self) -> int:
        return self.f.size


def propagate(model, lam: complex, state: QuasiState, x0: float, x1: float) -> QuasiState:
    """Advance a quasi-derivative state from x0 to x1.

    Both components are continuous across piece cuts; there is no jump in
    quasi-derivative coordinates.
    """
    if state.n != model.n:
        raise ShapeMismatchError("state order does not match the model")
    y = transfer(model, lam, x0, x1) @ np.concatenate([state.f, state.f1])
    n = model.n
    return QuasiState(y[:n], y[n:])


# ---------------------------------------------------------------------------
# fundamental pairs and the Cauchy kernel


@dataclass(frozen=True, eq=False)
class FundamentalPair:
    """Sampled matrix solutions Phi, Psi of the lam-equation.

    Initial data: Phi(0) = I, Psi1(0) = I, Phi1(0) = O, Psi(0) = O,
    so the stacked 2n x 2n sample equals the propagator from 0.
    """

    grid: tuple[float, ...]
    samples: np.ndarray  # read-only (K, 2n, 2n), one per grid point; phi etc. view it
    lam: complex
    model: CoefficientModel

    phi = property(lambda self: self.samples[:, :self.n, :self.n])
    psi = property(lambda self: self.samples[:, :self.n, self.n:])
    phi1 = property(lambda self: self.samples[:, self.n:, :self.n])
    psi1 = property(lambda self: self.samples[:, self.n:, self.n:])

    @property
    def n(self) -> int:
        return self.samples.shape[1] // 2

    @property
    def span(self) -> tuple[float, float]:
        return self.grid[0], self.grid[-1]

    def stacked(self, k) -> np.ndarray:
        """2n x 2n sample [[Phi, Psi], [Phi1, Psi1]] at grid index k (a stack for a slice k)."""
        return self.samples[k]

    def stacked_inverse(self, k) -> np.ndarray:
        """Closed-form inverse [[Psi1*, -Psi*], [-Phi1*, Phi*]] of ``stacked(k)`` (real lam)."""
        signs = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((self.n, self.n)))
        return signs * np.roll(np.swapaxes(self.stacked(k), -1, -2).conj(), self.n, axis=(-2, -1))


def fundamental_pair(model, lam: complex, grid) -> FundamentalPair:
    """Propagate the canonical matrix initial data along a sample grid.

    One working-coordinate march over [0, grid[-1]], its cells also ending at
    the grid points; the samples, picked by index, alone go back to quasi coordinates.
    """
    g = floats(grid)
    if not len(g) or g[0] != 0.0:
        raise ValueError("grid must start at 0.0")
    grid = _increasing(g, "grid")
    if grid[-1] > model.X:
        raise ValueError("grid exceeds the model domain")
    cells = _cells(model, lam, [(0.0, grid[-1])], stops=grid)
    at = np.searchsorted(cells.end, grid[1:])  # the cells that end at the grid points
    t = _march(cells, np.eye(2 * model.n))
    if len(at) < len(cells.end):
        t = t[np.concatenate([[0], at + 1])]
    _to_quasi(model, np.array(cells.piece, dtype=int)[at], t[1:])
    t.flags.writeable = False
    return FundamentalPair(grid, t, complex(lam), model)


def _grid_index(pair: FundamentalPair, x: float) -> int:
    """First grid index within tol of x: the first g with g - x >= -tol, as g - x is monotone."""
    lo, hi = pair.span
    tol = 1e-12 * max(1.0, abs(hi - lo), abs(hi))
    k = bisect_left(pair.grid, -tol, key=lambda g: g - x)
    if k < len(pair.grid) and abs(pair.grid[k] - x) <= tol:
        return k
    raise OffGridError(
        f"{x} is not a sample of the pair's grid; resample instead of interpolating")


def cauchy_kernel(pair: FundamentalPair, x: float, t: float) -> np.ndarray:
    """K(x, t) = Psi(x) Phi*(t) - Phi(x) Psi*(t) from the pair's samples.

    Both arguments must be grid samples; interpolation is refused. The
    kernel vanishes on the diagonal and its quasi-derivative in x is the
    identity there.
    """
    if pair.lam != 0:
        raise ValueError("Cauchy kernel is used at lam = 0 only")
    kx = _grid_index(pair, x)
    kt = _grid_index(pair, t)
    return (pair.psi[kx] @ pair.phi[kt].conj().T
            - pair.phi[kx] @ pair.psi[kt].conj().T)


def green_form(u: QuasiState, v: QuasiState) -> complex:
    """Bilinear form [u, v] = (u1, v) - (u, v1) with (g, h) = sum g_s conj(h_s).

    Along the flow, d/dx [u, v] = (u, l[v]) - (l[u], v); in particular the
    form is constant when both states follow solutions of l[f] = 0, and
    the pairing integral of l over [alpha, beta] equals
    [u, v](alpha) - [u, v](beta).
    """
    if u.n != v.n:
        raise ShapeMismatchError("states must share the same order")
    return complex(np.sum(u.f1 * v.f.conj()) - np.sum(u.f * v.f1.conj()))


def wronskian_residual(pair: FundamentalPair) -> float:
    """max_k || T(x_k) @ T^-1(x_k) - I ||_F using the closed-form inverse."""
    residuals = pair.samples @ pair.stacked_inverse(slice(None)) - np.eye(2 * pair.n)
    return float(np.max(frobenius_norm(residuals)))


# ---------------------------------------------------------------------------
# JSON forms


# variant -> (model class, JSON keys in constructor order); delta_nodes' "nodes"
# holds {"x", "H"} objects for the nodes and jumps, and its "spacings" may be left
# out (the node differences); the keys in _NUMBERS hold numbers of that kind
# (``number_from_json``), the others matrices
_VARIANTS = {
    "step_sigma": (StepSigma, ("n", "cuts", "values", "X")),
    "delta_nodes": (DeltaNodes, ("n", "nodes", "X", "spacings")),
    "general_triple": (GeneralTriple, ("n", "cuts", "P", "Q", "R", "X")),
    "distributional": (Distributional, ("n", "cuts", "P0", "Q0", "P1", "X")),
    "linear_sigma": (LinearSigma, ("n", "knots", "values")),
}
_NUMBERS = {"n": int, "X": float, "cuts": list, "knots": list, "spacings": list}


def model_to_json(model) -> dict:
    variant = next((v for v, (cls, _) in _VARIANTS.items() if type(model) is cls), None)
    if variant is None:
        raise VariantUnsupportedError(f"cannot serialize {type(model)!r}")
    out = {"variant": variant}
    for key in _VARIANTS[variant][1]:
        if key == "nodes":
            out[key] = [{"x": x, "H": matrix_to_json(h)} for x, h in zip(model.nodes, model.jumps)]
        elif key == "spacings":
            out[key] = model.spacings.tolist()
        elif key in _NUMBERS:
            out[key] = _NUMBERS[key](getattr(model, key))
        else:
            out[key] = [matrix_to_json(v) for v in getattr(model, key)]
    return out


def model_from_json(obj: dict) -> CoefficientModel | LinearSigma:
    """The model a JSON object describes; a missing key is a ValueError that names it."""
    try:
        if obj["variant"] not in _VARIANTS:
            raise ValueError(f"unknown coefficient variant {obj['variant']!r}")
        cls, keys = _VARIANTS[obj["variant"]]
        args = []
        for key in keys:
            if key == "nodes":
                args.append(number_from_json([e["x"] for e in obj[key]], "'nodes[].x'", list))
                args.append(matrices_from_json([e["H"] for e in obj[key]]))
            elif key == "spacings":
                value = obj.get(key)
                args.append(None if value is None else number_from_json(value, "'spacings'", list))
            elif key in _NUMBERS:
                args.append(number_from_json(obj[key], f"'{key}'", _NUMBERS[key]))
            else:
                args.append(matrices_from_json(obj[key]))
    except KeyError as exc:
        raise ValueError(f"coefficient model JSON has no key {exc}") from None
    return cls(*args)
