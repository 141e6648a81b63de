"""Generalized block Jacobi matrices and their determinacy diagnostics.

A block Jacobi matrix is given by Hermitian diagonal blocks A_j and
invertible off-diagonal blocks B_j acting through the three-term
recurrence

    (lu)_j = B_j u_{j+1} + A_j u_j + B*_{j-1} u_{j-1},    j = 1, 2, ...

Delta-interaction lattices map onto such matrices: with spacings
d_k = x_k - x_{k-1}, jumps H_k, and r_{k+1} = sqrt(d_k + d_{k+1}),

    A_k = [H_k + (1/d_k + 1/d_{k+1}) I] / r_{k+1}^2,
    B_k = -I / (r_{k+1} r_{k+2} d_{k+1}),          k = 1, 2, ...

while A_0, B_0 are free boundary blocks (defaults O and -I, recorded so
reports are reproducible). The determinacy tests here are series
diagnostics: a divergent sum of 1 / ||B_k|| certifies the determinate
(limit point) case; the paired product series checks (codes t7 and cor3)
certify the completely indeterminate (limit circle) case.

Sequence storage is 0-based; ``offset`` records the recurrence index of
slot 0 so block A[k - offset] is A_k. All spacing indices k in this module
are 1-based to match the recurrence above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    COND_LIMIT,
    HERMITIAN_TOL,
    NonSymmetricError,
    ShapeMismatchError,
    as_matrix,
    frobenius_norm,
    invert,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    real_symmetric,
)
from .reports import (
    CONVERGES,
    DIVERGES,
    CriterionReport,
    build_report,
    periodic_positive_floor,
)

_LOG_MAX = math.log(np.finfo(float).max)

# raised for jump matrices that are not real symmetric
NonSymmetricJumpError = NonSymmetricError


class NonPositiveSpacingError(ValueError):
    """A lattice spacing is not strictly positive."""


class IndexOutOfRangeError(IndexError):
    """Recurrence index outside the stored block range."""


# ---------------------------------------------------------------------------
# lattice helpers (single source of truth for the float expressions)


def reciprocal_sum(d, k: int) -> float:
    """1/d_k + 1/d_{k+1} for 1-based spacing index k."""
    return 1.0 / d[k - 1] + 1.0 / d[k]


def _rr(d, k: int) -> float:
    """r_{k+1} r_{k+2} = sqrt((d_k + d_{k+1})(d_{k+1} + d_{k+2})).

    Computed with a single square root so that integer-valued products
    stay exact (d == 1 gives exactly 2.0).
    """
    return math.sqrt((d[k - 1] + d[k]) * (d[k] + d[k + 1]))


def christ_stolz_family(count: int, n: int = 1) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """Harmonic lattice d_k = 1/k with jumps H_k = -(1/d_k + 1/d_{k+1}) I.

    In exact arithmetic the jumps equal -(2k + 1) I. They are computed
    from the stored spacings through reciprocal_sum so that the defining
    cancellation H_k + (1/d_k + 1/d_{k+1}) I = O holds exactly in floats
    as well, which is what every criterion of this family measures.
    """
    if count < 2:
        raise ValueError("need at least two spacings")
    d = tuple(1.0 / k for k in range(1, count + 1))
    eye = np.eye(n)
    H = tuple(-reciprocal_sum(d, k) * eye for k in range(1, count))
    return d, H


def _check_spacings(d) -> tuple[float, ...]:
    d = tuple(float(v) for v in d)
    if any(not v > 0.0 for v in d):
        raise NonPositiveSpacingError("spacings must be strictly positive")
    return d


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class DeltaProvenance:
    d: tuple[float, ...]
    H: tuple[np.ndarray, ...]
    boundary_default: bool


@dataclass(frozen=True)
class JacobiBlocks:
    n: int
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    offset: int = 0
    provenance: DeltaProvenance | None = None

    def __post_init__(self):
        A = tuple(as_matrix(a, self.n) for a in self.A)
        B = tuple(as_matrix(b, self.n) for b in self.B)
        for a in A:
            if not is_hermitian(a, HERMITIAN_TOL):
                raise ValueError("diagonal blocks must be Hermitian")
        for b in B:
            cond = np.linalg.cond(b)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                raise ValueError("off-diagonal blocks must be invertible")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def A_at(self, k: int) -> np.ndarray:
        i = k - self.offset
        if not 0 <= i < len(self.A):
            raise IndexOutOfRangeError(f"A_{k} not stored")
        return self.A[i]

    def B_at(self, k: int) -> np.ndarray:
        i = k - self.offset
        if not 0 <= i < len(self.B):
            raise IndexOutOfRangeError(f"B_{k} not stored")
        return self.B[i]


def blocks_from_delta(d, H, boundary=None) -> JacobiBlocks:
    """Blocks of the lattice correspondence for spacings d and jumps H.

    Needs len(H) >= len(d) - 1; an extra trailing jump is ignored. The
    boundary pair (A_0, B_0) defaults to (O, -I) and is only recorded,
    never used by the determinacy criteria.
    """
    d = _check_spacings(d)
    m = len(d)
    if m < 2:
        raise ValueError("need at least two spacings")
    H = [real_symmetric(h, "jump matrices") for h in H]
    if len(H) not in (m - 1, m):
        raise ShapeMismatchError(f"need {m - 1} (or {m}) jumps for {m} spacings")
    n = H[0].shape[0] if H else 1
    eye = np.eye(n)
    if boundary is None:
        a0, b0 = np.zeros((n, n), dtype=complex), -np.eye(n, dtype=complex)
        default = True
    else:
        a0, b0 = (real_symmetric(x, "boundary blocks", n) for x in boundary)
        invert(b0)
        default = False
    A = [a0]
    B = [b0]
    for k in range(1, m):
        A.append((H[k - 1] + reciprocal_sum(d, k) * eye) / (d[k - 1] + d[k]))
        if k <= m - 2:
            B.append(-eye / (_rr(d, k) * d[k]))
    return JacobiBlocks(n, tuple(A), tuple(B), 0,
                        DeltaProvenance(d, tuple(H[:m - 1]), default))


# ---------------------------------------------------------------------------
# recurrence


def _as_vecseq(u, n: int) -> np.ndarray:
    arr = np.asarray(u, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ShapeMismatchError(f"expected vectors of length {n}")
    return arr


def _as_vec(v, n: int) -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size != n:
        raise ShapeMismatchError(f"expected a vector of length {n}")
    return arr


def recurrence_apply(blocks: JacobiBlocks, u, j: int) -> np.ndarray:
    """(lu)_j = B_j u_{j+1} + A_j u_j + B*_{j-1} u_{j-1} for j >= 1."""
    if j < 1:
        raise IndexOutOfRangeError("the recurrence starts at j = 1")
    seq = _as_vecseq(u, blocks.n)
    if j + 1 >= seq.shape[0]:
        raise IndexOutOfRangeError(f"need entries up to index {j + 1}")
    return (blocks.B_at(j) @ seq[j + 1] + blocks.A_at(j) @ seq[j]
            + blocks.B_at(j - 1).conj().T @ seq[j - 1])


def _march(blocks: JacobiBlocks, prev, cur, start: int, stop: int):
    """Yield u_{m+1} = -B_m^{-1} (A_m u_m + B*_{m-1} u_{m-1}) for m = start .. stop - 1.

    (prev, cur) = (u_{start-1}, u_start), vectors or n x n matrices alike.
    """
    for m in range(start, stop):
        rhs = blocks.A_at(m) @ cur + blocks.B_at(m - 1).conj().T @ prev
        prev, cur = cur, -np.linalg.solve(blocks.B_at(m), rhs)
        yield cur


def solve_recurrence(blocks: JacobiBlocks, u0, u1, count: int) -> np.ndarray:
    """March u_{j+1} = -B_j^{-1} (A_j u_j + B*_{j-1} u_{j-1}) from (u_0, u_1).

    Returns the first ``count`` entries; (lu)_j = 0 holds for
    1 <= j <= count - 2.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    n = blocks.n
    out = np.empty((count, n), dtype=complex)
    out[0] = _as_vec(u0, n)
    out[1] = _as_vec(u1, n)
    for j, u in enumerate(_march(blocks, out[0], out[1], 1, count - 1), start=2):
        out[j] = u
    return out


def discrete_cauchy(blocks: JacobiBlocks, i: int, j: int) -> np.ndarray:
    """Matrix solution K_ij of the recurrence with K_jj = O, K_{j+1,j} = B_j^{-1}."""
    if j < 1 or i < j:
        raise IndexOutOfRangeError("need 1 <= j <= i")
    n = blocks.n
    if i == j:
        return np.zeros((n, n), dtype=complex)
    cur = invert(blocks.B_at(j))
    for cur in _march(blocks, np.zeros((n, n), dtype=complex), cur, j + 1, i):
        pass
    return cur


def t4_term(blocks: JacobiBlocks, n_k: int, m_k: int) -> float:
    """(sum_{i=n_k}^{m_k} sum_{j=n_k}^{i} ||K_ij||_F^2)^(1/2) for one segment.

    One step per row i: gram = sum_j S_j S_j* over the stacked columns
    S_j = (K_ij; K_{i-1,j}), n_k <= j < i, whose top-left trace is row i's
    share; each row steps gram by the recurrence and adds (B_i^{-1}; O).
    """
    if n_k < 1 or m_k < n_k:
        raise IndexOutOfRangeError("need 1 <= n_k <= m_k")
    n = blocks.n
    eye = np.eye(2 * n)
    gram = np.zeros((2 * n, 2 * n), dtype=complex)
    total = 0.0
    for i in range(n_k, m_k):  # row i + 1
        if i > n_k:
            (top,) = _march(blocks, eye[n:], eye[:n], i, i + 1)
            step = np.vstack([top, eye[:n]])
            gram = step @ gram @ step.conj().T
        binv = invert(blocks.B_at(i))
        gram[:n, :n] += binv @ binv.conj().T
        total += float(np.trace(gram[:n, :n]).real)
    return math.sqrt(total)


def t4_report(blocks: JacobiBlocks, segments) -> CriterionReport:
    """Segment series of discrete kernel roots (code t4).

    Divergence for one admissible segment system rules out the completely
    indeterminate case; the full criterion quantifies over all systems,
    so convergence here proves nothing by itself.
    """
    segs = [(int(a), int(b)) for a, b in segments]
    for (_, b0), (a1, b1) in zip(segs, segs[1:]):
        if not b0 <= a1 <= b1:
            raise ValueError("segments must satisfy m_k <= n_{k+1} <= m_{k+1}")
    terms = [t4_term(blocks, a, b) for a, b in segs]
    return build_report(
        "t4", terms,
        notes=("one admissible segment system; the completely indeterminate "
               "criterion quantifies over all of them",))


# ---------------------------------------------------------------------------
# determinacy series


def _power_exponent(d) -> float | None:
    """Common power-law exponent of the tail of d, or None."""
    tail = d[len(d) // 2:]
    if len(tail) < 6:
        return None
    k0 = len(d) // 2 + 1
    ps = []
    for i in range(len(tail) - 1):
        if tail[i] <= 0.0 or tail[i + 1] <= 0.0:
            return None
        ps.append(math.log(tail[i + 1] / tail[i]) / math.log((k0 + i + 1) / (k0 + i)))
    mean = sum(ps) / len(ps)
    if max(abs(p - mean) for p in ps) <= 1e-6 * max(1.0, abs(mean)):
        return mean
    return None


def spacing_square_divergence(d) -> str | None:
    """Certificate that sum d_k^2 diverges, from the structure of d."""
    if len(d) < 8:
        return None
    hit = periodic_positive_floor(d[len(d) // 2:])
    if hit is not None:
        floor, p = hit
        kind = "constant" if p == 1 else f"periodic (period {p})"
        return f"eventually {kind} spacings with floor {floor:.6g}"
    p = _power_exponent(d)
    if p is not None and p >= -0.5 - 1e-12:
        return f"power-law spacings with exponent {p:.6g} >= -1/2"
    return None


def carleman_report(blocks: JacobiBlocks, N: int) -> CriterionReport:
    """Series of 1 / ||B_k||_F over the canonical blocks k = 1..N.

    For lattice blocks the term equals r_{k+1} r_{k+2} d_{k+1} / sqrt(n)
    and dominates d_{k+1}^2 / sqrt(n), so a divergent square sum of the
    spacings certifies divergence. Divergence certifies the determinate
    (limit point) case; convergence of this series proves nothing.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    terms = [1.0 / frobenius_norm(blocks.B_at(k)) for k in range(1, N + 1)]
    report = build_report("carleman", terms)
    if report.verdict != DIVERGES and blocks.provenance is not None:
        d = blocks.provenance.d[:N + 2]
        basis = spacing_square_divergence(d)
        if basis is not None:
            report = CriterionReport(
                "carleman", report.terms, report.partial_sums, DIVERGES,
                f"terms >= d_(k+1)^2 / sqrt(n) and {basis}", report.notes)
    return report


def carleman_spacing_bounds(d, n: int = 1) -> bool:
    """Two-sided spacing bounds on 1 / ||B_k|| for the constructed blocks.

    Checks d_{k+1}^2 / sqrt(n) <= 1/||B_k|| <= (d_k^2 + 6 d_{k+1}^2 + d_{k+2}^2) / (4 sqrt(n))
    for every admissible k. Holds for all positive spacings.
    """
    d = _check_spacings(d)
    if len(d) < 3:
        raise ValueError("need at least three spacings")
    rn = math.sqrt(n)
    eye = np.eye(n)
    for k in range(1, len(d) - 1):
        val = 1.0 / frobenius_norm(-eye / (_rr(d, k) * d[k]))
        lower = d[k] ** 2 / rn
        upper = (d[k - 1] ** 2 + 6.0 * d[k] ** 2 + d[k + 1] ** 2) / (4.0 * rn)
        slack = 1e-12 * max(lower, val, upper)
        if val < lower - slack or val > upper + slack:
            return False
    return True


@dataclass(frozen=True)
class T7Result:
    """Product-series check; s indexes the two lattice parities (1 and 2)."""

    series_a: tuple[CriterionReport, CriterionReport]
    series_b: tuple[CriterionReport, CriterionReport]
    log_terms_a: tuple[tuple[float, ...], tuple[float, ...]]
    limit_circle_certified: bool

    def reports(self):
        return [*self.series_a, *self.series_b]


def t7_check(d, H, N: int) -> T7Result:
    """Alternating-product series certifying the completely indeterminate case.

    For s in {1, 2} and j = 1..N, with the partial products
    ratio_j = (d_{1+s} d_{3+s} ... d_{2j-1+s}) / (d_s d_{2+s} ... d_{2j-2+s}),
    series (a) has terms (r_{2j+s} ratio_j)^2 and series (b) has terms
    ratio_j^2 ||H_{2j+s-1} + (1/d_{2j+s-1} + 1/d_{2j+s}) I||_F.

    Products are carried as log magnitudes; terms too large to represent
    are reported as inf and their logs kept in ``log_terms_a``.
    Certification requires convergence certificates on all four series.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    d = _check_spacings(d)
    H = [real_symmetric(h, "jump matrices") for h in H]
    if len(d) < 2 * N + 2:
        raise IndexOutOfRangeError(f"need at least {2 * N + 2} spacings for N = {N}")
    if len(H) < 2 * N + 1:
        raise IndexOutOfRangeError(f"need at least {2 * N + 1} jumps for N = {N}")
    n = H[0].shape[0]
    eye = np.eye(n)
    series_a, series_b, logs_a = [], [], []
    for s in (1, 2):
        lr = 0.0
        ta, tb, la = [], [], []
        overflowed = 0
        for j in range(1, N + 1):
            lr += math.log(d[2 * j - 2 + s]) - math.log(d[2 * j - 3 + s])
            m = 2 * j + s - 1  # index of the jump and of r^2 = d_m + d_{m+1}
            log_a = math.log(d[m - 1] + d[m]) + 2.0 * lr
            la.append(log_a)
            if log_a >= _LOG_MAX:
                overflowed += 1
                ta.append(math.inf)
            else:
                ta.append(math.exp(log_a))
            nf = frobenius_norm(H[m - 1] + reciprocal_sum(d, m) * eye)
            if nf == 0.0:
                tb.append(0.0)
            else:
                log_b = 2.0 * lr + math.log(nf)
                tb.append(math.inf if log_b >= _LOG_MAX else math.exp(log_b))
        notes = ()
        if overflowed:
            notes = (f"{overflowed} terms overflow; log values kept in log_terms_a",)
        series_a.append(build_report(f"t7_a_s{s}", ta, notes=notes))
        series_b.append(build_report(f"t7_b_s{s}", tb))
        logs_a.append(tuple(la))
    certified = all(r.verdict == CONVERGES for r in series_a + series_b)
    return T7Result(tuple(series_a), tuple(series_b), tuple(logs_a), certified)


@dataclass(frozen=True)
class Cor3Result:
    """Monotone-comparability variant of the product-series check."""

    cond1: bool
    cond1_direction: str
    cond2: CriterionReport
    cond3: CriterionReport
    limit_circle_certified: bool

    def reports(self):
        return [self.cond2, self.cond3]


def cor3_check(d, H, N: int) -> Cor3Result:
    """Spacing and jump series with a sign-uniform comparability condition.

    cond1: r_k r_{k+3} d_k d_{k+2} compares with r_{k+1} r_{k+2} d_{k+1}^2
    with one uniform sign for k = 2..N (k = 1 would need the undefined
    spacing d_0 and is skipped). cond2 is the series of d_k^2 and cond3
    the series of d_{k+1} ||H_k + (1/d_k + 1/d_{k+1}) I||_F, k = 1..N.
    Certification requires cond1 plus convergence certificates on both.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    d = _check_spacings(d)
    H = [real_symmetric(h, "jump matrices") for h in H]
    if len(d) < N + 3:
        raise IndexOutOfRangeError(f"need at least {N + 3} spacings for N = {N}")
    if len(H) < N:
        raise IndexOutOfRangeError(f"need at least {N} jumps for N = {N}")
    n = H[0].shape[0]
    eye = np.eye(n)

    above = below = True
    for k in range(2, N + 1):
        lhs = math.sqrt((d[k - 2] + d[k - 1]) * (d[k + 1] + d[k + 2])) * d[k - 1] * d[k + 1]
        rhs = _rr(d, k) * d[k] ** 2
        tol = 1e-12 * max(lhs, rhs)
        if lhs < rhs - tol:
            above = False
        if lhs > rhs + tol:
            below = False
    cond1 = above or below
    direction = ("equal" if above and below else
                 ">=" if above else "<=" if below else "mixed")

    cond2 = build_report("cor3_spacing", [d[k - 1] ** 2 for k in range(1, N + 1)])
    cond3 = build_report(
        "cor3_jump",
        [d[k] * frobenius_norm(H[k - 1] + reciprocal_sum(d, k) * eye)
         for k in range(1, N + 1)])
    certified = cond1 and cond2.verdict == CONVERGES and cond3.verdict == CONVERGES
    return Cor3Result(cond1, direction, cond2, cond3, certified)


# ---------------------------------------------------------------------------
# JSON forms


def blocks_to_json(blocks: JacobiBlocks) -> dict:
    out = {"n": blocks.n,
           "A": [matrix_to_json(a) for a in blocks.A],
           "B": [matrix_to_json(b) for b in blocks.B],
           "offset": blocks.offset}
    if blocks.provenance is not None:
        out["provenance"] = {
            "d": list(blocks.provenance.d),
            "H": [matrix_to_json(h) for h in blocks.provenance.H],
            "boundary_default": blocks.provenance.boundary_default}
    return out


def blocks_from_json(obj: dict) -> JacobiBlocks:
    n = int(obj["n"])
    A = tuple(matrix_from_json(a, n) for a in obj["A"])
    B = tuple(matrix_from_json(b, n) for b in obj["B"])
    prov = None
    if "provenance" in obj:
        p = obj["provenance"]
        prov = DeltaProvenance(tuple(float(v) for v in p["d"]),
                               tuple(matrix_from_json(h, n) for h in p["H"]),
                               bool(p.get("boundary_default", True)))
    return JacobiBlocks(n, A, B, int(obj.get("offset", 0)), prov)
