"""Coefficient models, quasi-derivative propagation, and Cauchy kernels.

A second-order vector expression with coefficients (P, Q, R) is treated
through its first-order form Y' = (F - L) Y for the stacked state
Y = (f, f1), where f1 = P (f' - R f) is the first quasi-derivative and

    F = [[R, P^-1], [Q, -R*]],      L = [[O, O], [lam*I, O]].

Coefficients are piecewise constant, so propagation across a piece is an
exact matrix exponential. One cell walker, ``_cells``, enumerates pieces
and picks the working coordinates for transfer matrices, kernel integrals
and node samples: classical (f, f') with free flights and jumps of f' for
step and delta models, (f, f1) with the piece generator otherwise.

Conventions: piece values are right-continuous, the k-th piece lives on
[cut_k, cut_{k+1}) with the last piece closed at X, and cut_0 = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    HERMITIAN_TOL,
    ShapeMismatchError,
    as_matrix,
    block2n,
    frobenius_norm,
    invert,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
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


def _check_cuts(cuts, X: float) -> tuple[float, ...]:
    cuts = tuple(float(c) for c in cuts)
    if not cuts or cuts[0] != 0.0:
        raise ValueError("piece cuts must start at 0.0")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("piece cuts must be strictly increasing")
    if not X > cuts[-1]:
        raise ValueError("domain end X must exceed the last cut")
    return cuts


@dataclass(frozen=True)
class StepSigma:
    """Piecewise-constant real symmetric potential sigma.

    Realizes P = I, R = sigma, Q = -sigma**2, i.e. the step form of the
    expression -f'' + sigma' f. Piece k carries values[k].
    """

    n: int
    cuts: tuple[float, ...]
    values: tuple[np.ndarray, ...]
    X: float

    def __post_init__(self):
        object.__setattr__(self, "cuts", _check_cuts(self.cuts, self.X))
        vals = tuple(real_symmetric(v, "sigma piece", self.n) for v in self.values)
        if len(vals) != len(self.cuts):
            raise ShapeMismatchError("need one sigma value per piece")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "X", float(self.X))


@dataclass(frozen=True)
class DeltaNodes:
    """Point interactions: jump H_k in the classical derivative at node x_k.

    Normalized on construction to the equivalent StepSigma with first piece
    zero and piece k+1 value sum(H_1..H_k); quasi-derivative coordinates are
    continuous across nodes while f' jumps by H_k f(x_k).
    """

    n: int
    nodes: tuple[float, ...]
    jumps: tuple[np.ndarray, ...]
    X: float
    spacings: tuple[float, ...] | None = None
    sigma: StepSigma = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        if not nodes or nodes[0] <= 0.0:
            raise ValueError("nodes must be positive")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        jumps = tuple(real_symmetric(h, "jump matrix", self.n) for h in self.jumps)
        if len(jumps) != len(nodes):
            raise ShapeMismatchError("need one jump matrix per node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "X", float(self.X))
        if self.spacings is None:
            prev = 0.0
            sp = []
            for x in nodes:
                sp.append(x - prev)
                prev = x
            object.__setattr__(self, "spacings", tuple(sp))
        else:
            sp = tuple(float(v) for v in self.spacings)
            if len(sp) != len(nodes) or any(v <= 0.0 for v in sp):
                raise ValueError("spacings must be positive, one per node")
            if any(abs(sum(sp[:k + 1]) - nodes[k]) > 1e-9 * max(1.0, nodes[k])
                   for k in range(len(nodes))):
                raise ValueError("spacings are inconsistent with the nodes")
            object.__setattr__(self, "spacings", sp)
        acc = np.zeros((self.n, self.n), dtype=complex)
        values = [acc]
        for h in jumps:
            acc = acc + h
            values.append(acc)
        sigma = StepSigma(self.n, (0.0,) + nodes, tuple(values), self.X)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def from_spacings(cls, n: int, spacings, jumps, tail: float = 1.0) -> "DeltaNodes":
        """Build from exact spacings d_k = x_k - x_{k-1}.

        Stores the given spacings verbatim (node positions are their
        cumulative sums), so lattice families defined through spacings
        keep their defining float identities; the domain extends ``tail``
        past the last node.
        """
        spacings = tuple(float(v) for v in spacings)
        nodes = tuple(np.cumsum(spacings))
        return cls(n, nodes, jumps, nodes[-1] + tail, spacings)


@dataclass(frozen=True)
class GeneralTriple:
    """Piecewise-constant (P, Q, R): P nonsingular, P and Q Hermitian."""

    n: int
    cuts: tuple[float, ...]
    P: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    X: float

    def __post_init__(self):
        object.__setattr__(self, "cuts", _check_cuts(self.cuts, self.X))
        m = len(self.cuts)
        P = tuple(as_matrix(p, self.n) for p in self.P)
        Q = tuple(as_matrix(q, self.n) for q in self.Q)
        R = tuple(as_matrix(r, self.n) for r in self.R)
        if not (len(P) == len(Q) == len(R) == m):
            raise ShapeMismatchError("need one (P, Q, R) triple per piece")
        for p in P:
            if not is_hermitian(p, HERMITIAN_TOL):
                raise ValueError("P pieces must be Hermitian")
            try:
                invert(p)
            except ValueError as exc:
                raise SingularPieceError("P pieces must be invertible") from exc
        for q in Q:
            if not is_hermitian(q, HERMITIAN_TOL):
                raise ValueError("Q pieces must be Hermitian")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "X", float(self.X))


@dataclass(frozen=True)
class Distributional:
    """Piecewise-constant (P0, Q0, P1), all Hermitian, P0 invertible.

    The system matrix uses phi = P1 + i Q0:
    F = [[P0^-1 phi, P0^-1], [-phi* P0^-1 phi, -phi* P0^-1]].
    """

    n: int
    cuts: tuple[float, ...]
    P0: tuple[np.ndarray, ...]
    Q0: tuple[np.ndarray, ...]
    P1: tuple[np.ndarray, ...]
    X: float

    def __post_init__(self):
        object.__setattr__(self, "cuts", _check_cuts(self.cuts, self.X))
        m = len(self.cuts)
        mats = {}
        for name in ("P0", "Q0", "P1"):
            seq = tuple(as_matrix(v, self.n) for v in getattr(self, name))
            if len(seq) != m:
                raise ShapeMismatchError(f"need one {name} piece per cut")
            for v in seq:
                if not is_hermitian(v, HERMITIAN_TOL):
                    raise ValueError(f"{name} pieces must be Hermitian")
                if name == "P0":
                    try:
                        invert(v)
                    except ValueError as exc:
                        raise SingularPieceError("P0 pieces must be invertible") from exc
            mats[name] = seq
        for name, seq in mats.items():
            object.__setattr__(self, name, seq)
        object.__setattr__(self, "X", float(self.X))


CoefficientModel = StepSigma | DeltaNodes | GeneralTriple | Distributional


def _sigma_of(model) -> StepSigma | None:
    if isinstance(model, StepSigma):
        return model
    if isinstance(model, DeltaNodes):
        return model.sigma
    return None


def piece_cuts(model) -> tuple[float, ...]:
    sigma = _sigma_of(model)
    return sigma.cuts if sigma is not None else model.cuts


def piece_index(model, x: float) -> int:
    """Piece containing x; cuts resolve to the right-hand piece, x = X left."""
    cuts = piece_cuts(model)
    if not 0.0 <= x <= model.X:
        raise ValueError(f"x = {x} outside [0, {model.X}]")
    return min(bisect_right(cuts, x) - 1, len(cuts) - 1)


def piece_system(model, lam: complex, i: int) -> np.ndarray:
    """2n x 2n constant system matrix F - L on piece i."""
    n = model.n
    sigma = _sigma_of(model)
    if sigma is not None:
        s = sigma.values[i]
        f = block2n(s, np.eye(n), -(s @ s), -s)
    elif isinstance(model, GeneralTriple):
        p, q, r = model.P[i], model.Q[i], model.R[i]
        try:
            pinv = invert(p)
        except ValueError as exc:
            raise SingularPieceError(f"P piece {i} not invertible") from exc
        f = block2n(r, pinv, q, -r.conj().T)
    elif isinstance(model, Distributional):
        try:
            pinv = invert(model.P0[i])
        except ValueError as exc:
            raise SingularPieceError(f"P0 piece {i} not invertible") from exc
        phi = model.P1[i] + 1j * model.Q0[i]
        phs = phi.conj().T
        f = block2n(pinv @ phi, pinv, -(phs @ pinv @ phi), -(phs @ pinv))
    else:
        raise VariantUnsupportedError(f"unsupported model type {type(model)!r}")
    if lam != 0:
        f = f.copy()
        f[n:, :n] -= lam * np.eye(n)
    return f


def build_system_matrix(model, lam: complex, x: float) -> np.ndarray:
    """System matrix F - L at the point x (right-continuous in x)."""
    return piece_system(model, lam, piece_index(model, x))


# ---------------------------------------------------------------------------
# matrix exponential and propagation

_PADE6 = [1.0]
for _k in range(1, 7):
    _PADE6.append(_PADE6[-1] * (6 - _k + 1) / (_k * (12 - _k + 1)))


def expm(a) -> np.ndarray:
    """Matrix exponential: Pade(6, 6) with scaling so the scaled norm is <= 0.5.

    Index-2 nilpotent arguments (step potentials at lam = 0) short-circuit
    to I + a, keeping piecewise-linear propagation exact.
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    a2 = a @ a
    if not a2.any():
        return np.eye(m) + a
    nrm = frobenius_norm(a)
    s = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    b = a / (2.0 ** s)
    b2 = b @ b
    num = np.eye(m) * _PADE6[0]
    den = np.eye(m) * _PADE6[0]
    pw = np.eye(m)
    for k in range(1, 7):
        pw = pw @ b
        num = num + _PADE6[k] * pw
        den = den + (-1) ** k * _PADE6[k] * pw
    x = np.linalg.solve(den, num)
    for _ in range(s):
        x = x @ x
    return x


def _jump(ds: np.ndarray) -> np.ndarray:
    """[[I, O], [dS, I]]: f' picks up dS f."""
    eye = np.eye(ds.shape[0])
    return block2n(eye, 0 * eye, ds, eye)


def _cells(model, lam: complex, x0: float, x1: float, splits: int = 1):
    """Yield the cells of [x0, x1] as (piece, jump, generator, length).

    Cells are the pieces clipped to [x0, x1], each split into ``splits``
    equal parts; ``jump`` (or None) applies at the cell's start and
    exp(generator * length) carries the state across. Step and delta models
    work in classical coordinates (f, f'), since quasi generators carry
    sigma**2 and lose about that factor once the accumulated potential is
    large: a free flight inside each cell, a jump by the change of sigma at
    each cut (the stored jump and spacing for full delta cells), and a first
    jump by sigma itself, from (f, f1) into (f, f'), that ``_to_quasi``
    undoes. Other models keep quasi coordinates and the piece generator.
    """
    sigma = _sigma_of(model)
    delta = model if isinstance(model, DeltaNodes) else None
    eye = np.eye(model.n)
    flight = block2n(0 * eye, eye, -lam * eye, 0 * eye)
    cuts = piece_cuts(model)
    i, pos = piece_index(model, x0), x0
    while pos < x1:
        end = cuts[i + 1] if i + 1 < len(cuts) else model.X
        stop = min(end, x1)
        if sigma is None:
            jump, gen = None, piece_system(model, lam, i)
        else:
            jump = _jump(sigma.values[i] if pos == x0 else delta.jumps[i - 1] if delta
                         else sigma.values[i] - sigma.values[i - 1])
            gen = flight
        full = delta is not None and pos == cuts[i] and stop == end and i < len(cuts) - 1
        length = (delta.spacings[i] if full else stop - pos) / splits
        for _ in range(splits):
            yield i, jump, gen, length
            jump = None
        pos, i = stop, i + 1


def _flow(model, lam: complex, y: np.ndarray, x0: float, x1: float):
    """Yield (piece, y) at the end of each cell of [x0, x1], y in working coordinates."""
    for piece, jump, gen, length in _cells(model, lam, x0, x1):
        if jump is not None:
            y = jump @ y
        y = expm(gen * length) @ y
        yield piece, y


def _to_quasi(model, piece: int, y: np.ndarray) -> np.ndarray:
    sigma = _sigma_of(model)
    return y if sigma is None else _jump(-sigma.values[piece]) @ y


def transfer(model, lam: complex, x0: float, x1: float) -> np.ndarray:
    """Fundamental 2n x 2n propagator of Y' = (F - L) Y from x0 to x1."""
    if not 0.0 <= x0 <= x1 <= model.X:
        raise ValueError("need 0 <= x0 <= x1 <= X")
    m, piece = np.eye(2 * model.n, dtype=complex), None
    for piece, m in _flow(model, lam, m, x0, x1):
        pass
    return m if piece is None else _to_quasi(model, piece, m)


@dataclass(frozen=True)
class QuasiState:
    """Stacked state (f, f1) with f1 the first quasi-derivative."""

    f: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex).reshape(-1)
        f1 = np.asarray(self.f1, dtype=complex).reshape(-1)
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


def _sigma_interpretation(model, i: int) -> np.ndarray:
    """sigma value on piece i, for models that carry a sigma reading."""
    sigma = _sigma_of(model)
    if sigma is not None:
        return sigma.values[i]
    if isinstance(model, GeneralTriple):
        p, q, r = model.P[i], model.Q[i], model.R[i]
        n = model.n
        if (frobenius_norm(p - np.eye(n)) <= HERMITIAN_TOL
                and frobenius_norm(q + r @ r) <= HERMITIAN_TOL):
            return r
    raise VariantUnsupportedError("model has no sigma interpretation on this piece")


def classical_derivative(model, state: QuasiState, x: float, side: str = "+") -> np.ndarray:
    """Classical derivative f'(x +- 0) = f1 + sigma(x +- 0) f.

    Across a node the value jumps by H_k f(x_k). ``side`` picks the piece
    left or right of x when x is a cut.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    i = piece_index(model, x)
    cuts = piece_cuts(model)
    if side == "-" and i > 0 and x == cuts[i]:
        i -= 1
    s = _sigma_interpretation(model, i)
    return s @ state.f + state.f1


# ---------------------------------------------------------------------------
# fundamental pairs and the Cauchy kernel


@dataclass(frozen=True)
class FundamentalPair:
    """Sampled matrix solutions Phi, Psi of the lam-equation.

    Initial data: Phi(0) = I, Psi1(0) = I, Phi1(0) = O, Psi(0) = O,
    so the stacked 2n x 2n sample equals the propagator from 0.
    """

    grid: tuple[float, ...]
    phi: np.ndarray
    psi: np.ndarray
    phi1: np.ndarray
    psi1: np.ndarray
    lam: complex
    model: CoefficientModel

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def span(self) -> tuple[float, float]:
        return self.grid[0], self.grid[-1]

    def stacked(self, k: int) -> np.ndarray:
        """2n x 2n sample [[Phi, Psi], [Phi1, Psi1]] at grid index k."""
        return block2n(self.phi[k], self.psi[k], self.phi1[k], self.psi1[k])

    def stacked_inverse(self, k: int) -> np.ndarray:
        """Closed-form inverse [[Psi1*, -Psi*], [-Phi1*, Phi*]] (real lam)."""
        adj = lambda m: m.conj().T
        return block2n(adj(self.psi1[k]), -adj(self.psi[k]),
                       -adj(self.phi1[k]), adj(self.phi[k]))


def fundamental_pair(model, lam: complex, grid) -> FundamentalPair:
    """Propagate the canonical matrix initial data along a sample grid."""
    grid = tuple(float(g) for g in grid)
    if not grid or grid[0] != 0.0:
        raise ValueError("grid must start at 0.0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[-1] > model.X:
        raise ValueError("grid exceeds the model domain")
    n = model.n
    G = len(grid)
    phi = np.empty((G, n, n), dtype=complex)
    psi = np.empty((G, n, n), dtype=complex)
    phi1 = np.empty((G, n, n), dtype=complex)
    psi1 = np.empty((G, n, n), dtype=complex)
    t = np.eye(2 * n, dtype=complex)
    prev = 0.0
    for k, x in enumerate(grid):
        if x > prev:
            t = transfer(model, lam, prev, x) @ t
            prev = x
        phi[k] = t[:n, :n]
        psi[k] = t[:n, n:]
        phi1[k] = t[n:, :n]
        psi1[k] = t[n:, n:]
    for arr in (phi, psi, phi1, psi1):
        arr.flags.writeable = False
    return FundamentalPair(grid, phi, psi, phi1, psi1, complex(lam), model)


def _grid_index(pair: FundamentalPair, x: float) -> int:
    lo, hi = pair.span
    tol = 1e-12 * max(1.0, abs(hi - lo), abs(hi))
    for k, g in enumerate(pair.grid):
        if abs(g - x) <= tol:
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


def kernel_direct(model, t: float, x: float, lam: complex = 0.0) -> np.ndarray:
    """K(x, t) by direct propagation of the data (O, I) from t to x >= t."""
    m = transfer(model, lam, t, x)
    n = model.n
    return m[:n, n:]


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
    eye = np.eye(2 * pair.n)
    worst = 0.0
    for k in range(len(pair.grid)):
        worst = max(worst, frobenius_norm(pair.stacked(k) @ pair.stacked_inverse(k) - eye))
    return worst


# ---------------------------------------------------------------------------
# JSON forms


def model_to_json(model) -> dict:
    if isinstance(model, StepSigma):
        return {"n": model.n, "X": model.X, "variant": "step_sigma",
                "cuts": list(model.cuts),
                "values": [matrix_to_json(v) for v in model.values]}
    if isinstance(model, DeltaNodes):
        return {"n": model.n, "X": model.X, "variant": "delta_nodes",
                "nodes": [{"x": x, "H": matrix_to_json(h)}
                          for x, h in zip(model.nodes, model.jumps)]}
    if isinstance(model, GeneralTriple):
        return {"n": model.n, "X": model.X, "variant": "general_triple",
                "cuts": list(model.cuts),
                "P": [matrix_to_json(v) for v in model.P],
                "Q": [matrix_to_json(v) for v in model.Q],
                "R": [matrix_to_json(v) for v in model.R]}
    if isinstance(model, Distributional):
        return {"n": model.n, "X": model.X, "variant": "distributional",
                "cuts": list(model.cuts),
                "P0": [matrix_to_json(v) for v in model.P0],
                "Q0": [matrix_to_json(v) for v in model.Q0],
                "P1": [matrix_to_json(v) for v in model.P1]}
    raise VariantUnsupportedError(f"cannot serialize {type(model)!r}")


def model_from_json(obj: dict) -> CoefficientModel:
    try:
        n = int(obj["n"])
        X = float(obj["X"])
        variant = obj["variant"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad coefficient model JSON: {exc}") from exc
    mats = lambda key: tuple(matrix_from_json(v, n) for v in obj[key])
    if variant == "step_sigma":
        return StepSigma(n, tuple(obj["cuts"]), mats("values"), X)
    if variant == "delta_nodes":
        nodes = tuple(float(e["x"]) for e in obj["nodes"])
        jumps = tuple(matrix_from_json(e["H"], n) for e in obj["nodes"])
        return DeltaNodes(n, nodes, jumps, X)
    if variant == "general_triple":
        return GeneralTriple(n, tuple(obj["cuts"]), mats("P"), mats("Q"), mats("R"), X)
    if variant == "distributional":
        return Distributional(n, tuple(obj["cuts"]), mats("P0"), mats("Q0"), mats("P1"), X)
    raise ValueError(f"unknown coefficient variant {variant!r}")
