"""Cross-validation of the continuous and discrete pictures, and verdicts.

A delta-interaction model and its block-lattice counterpart describe the
same operator: sampling a solution f at the nodes and rescaling,
Z_k = r_{k+1} f(x_k) with r_{k+1} = sqrt(d_k + d_{k+1}), turns the node
jump conditions into the three-term block recurrence built by
``jacobi.blocks_from_lattice``. ``equivalence_residual`` checks that
correspondence numerically and is the package's central cross-check; if
it fails, something upstream is miscounted.

``classify`` aggregates every applicable criterion into a Verdict.
Certified evidence never conflicts for a correct implementation, so
conflicting certificates raise instead of being resolved.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .criteria import (
    Diagonal,
    IntervalSeq,
    OffDiagonal,
    cor2_lattice,
    t1_series,
    t2_predicate,
)
from .jacobi import (
    JacobiBlocks,
    Lattice,
    blocks_from_lattice,
    carleman_report,
    christ_stolz_family,
    cor3_lattice,
    recurrence_summands,
    t4_report,
    t7_lattice,
)
from .matcore import FloatRangeError, ShapeMismatchError, inexact
from .quasidiff import (
    CoefficientModel,
    DeltaNodes,
    LinearSigma,
    QuasiState,
    StepModel,
    _cells,
    _march,
)
from .reports import DIVERGES, INCONCLUSIVE, CriterionReport, build_report

LIMIT_POINT = "LimitPoint"
LIMIT_CIRCLE = "LimitCircle"
NOT_LIMIT_CIRCLE = "NotLimitCircle"
INCONCLUSIVE_CLASS = "Inconclusive"
CERTIFIED = "Certified"
SIDES = (CONTINUOUS, DISCRETE, BOTH) = ("Continuous", "Discrete", "Both")  # of a verdict


class ConflictingEvidenceError(RuntimeError):
    """Certified evidence for mutually exclusive classifications (a bug sentinel)."""


@dataclass(frozen=True)
class Evidence:
    criterion: str
    verdict: str
    basis: str
    implies: str | None = None

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "verdict": self.verdict,
                "basis": self.basis}


@dataclass(frozen=True)
class Verdict:
    classification: str
    evidence: tuple[Evidence, ...]
    side: str

    def to_json(self) -> dict:
        return {"classification": self.classification,
                "evidence": [e.to_json() for e in self.evidence],
                "side": self.side}


@dataclass(frozen=True)
class ClassifyConfig:
    """Horizon and data selection for classify.

    intervals feed t1 and t2, segments t4; criteria, when given, picks which CRITERIA codes
    run. The lattice criteria read the first N + 2 spacings (carleman), the largest segment
    end + 2 (t4), 2N + 2 (t7), N + 3 (cor3) and every stored spacing (cor2).
    """

    intervals: IntervalSeq | None = None
    N: int = 200
    segments: tuple[tuple[int, int], ...] | None = None
    criteria: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.criteria is not None:
            if not self.criteria:
                raise ValueError("empty criteria selection; omit it to run every criterion")
            valid = [c.code for c in CRITERIA]
            bad = [c for c in self.criteria if c not in valid]
            if bad:
                raise ValueError(f"unknown criteria {bad}; valid: {', '.join(valid)}")


# ---------------------------------------------------------------------------
# node sampling and the recurrence residual


def nodes_to_Z(f_at_nodes, d) -> np.ndarray:
    """Rescaled node samples Z_k = sqrt(d_k + d_{k+1}) f(x_k), k = 1..len(d)-1, as rows."""
    d = np.asarray(d, dtype=float)
    f = inexact(f_at_nodes)
    if len(f) != len(d):
        raise ShapeMismatchError("need one node sample per spacing")
    return np.sqrt(d[:-1] + d[1:])[:, None] * f.reshape(len(f), -1 if len(f) else 0)[:-1]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a (K, n) array, with its float operations.

    Like the single-vector norm, each row takes its dot product, or for a
    complex array the dot products of its real and of its imaginary parts,
    so every value equals that row's norm bit for bit.
    """
    dot = lambda x: (x[:, None, :] @ x[:, :, None])[:, 0, 0]
    with np.errstate(over="ignore"):  # a finite row whose square overflows has norm inf
        return np.sqrt(dot(v.real) + dot(v.imag) if v.dtype == complex else dot(v))


def equivalence_residual(model: DeltaNodes, count: int, seed_state: QuasiState) -> float:
    """Largest normalized recurrence residual of the rescaled node samples.

    Marches the seed through the delta model once, samples f at the nodes,
    forms Z, and applies the block recurrence for the canonical indices
    k = 2 .. count + 1 (index 1 touches the free boundary block and is
    skipped), all k at once. Each residual is divided by the size of the
    largest of the three recurrence summands (floored at 1), so the value
    measures cancellation quality independently of solution growth.
    """
    if not isinstance(model, DeltaNodes):
        raise TypeError("equivalence_residual needs a DeltaNodes model")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if seed_state.n != model.n:
        raise ShapeMismatchError("state order does not match the model")
    m = len(model.nodes)
    if m < count + 3:
        raise ValueError(f"need at least count + 3 = {count + 3} nodes, have {m}")
    lat, y = model.lattice, np.concatenate([seed_state.f, seed_state.f1])
    samples = _march(_cells(model, 0.0, [(0.0, model.nodes[-1])]), y)[1:, :model.n]
    blocks, z = blocks_from_lattice(lat), nodes_to_Z(samples, lat.d)
    u = np.vstack([np.zeros((1, model.n), dtype=z.dtype), z])
    parts = recurrence_summands(blocks, u, 2, count + 2)
    scale = np.maximum(1.0, np.maximum.reduce([_row_norms(p) for p in parts]))
    return float(np.max(_row_norms(parts[0] + parts[1] + parts[2]) / scale))


def l2_tail_report(Z) -> CriterionReport:
    """Report on the squared norms ||Z_k||^2 of a vector sequence.

    ConvergesBounded is a trend certificate on the computed window, not a
    proof of square summability; classification never relies on it alone.
    """
    z = inexact(Z)
    if not len(z):
        raise ValueError("empty sequence")
    with np.errstate(over="ignore"):  # one correctly rounded product; past the float range, inf
        terms = np.square(_row_norms(z.reshape(len(z), -1)))
    return build_report("l2", terms,
                        notes=("trend certificate on a finite window",))


# ---------------------------------------------------------------------------
# classification


def resolve_classification(evidence) -> str:
    """Apply the precedence rules; conflicting certified evidence raises."""
    lp = [e for e in evidence if e.implies == LIMIT_POINT]
    lc = [e for e in evidence if e.implies == LIMIT_CIRCLE]
    nlc = [e for e in evidence if e.implies == NOT_LIMIT_CIRCLE]
    if lc and (lp or nlc):
        raise ConflictingEvidenceError(
            f"limit circle certified by {[e.criterion for e in lc]} while "
            f"{[e.criterion for e in lp + nlc]} certified the opposite")
    if lp:
        return LIMIT_POINT
    if lc:
        return LIMIT_CIRCLE
    if nlc:
        return NOT_LIMIT_CIRCLE
    return INCONCLUSIVE_CLASS


def _lattice(problem) -> Lattice:
    """The delta lattice of a problem: a step model's own, or its blocks' provenance."""
    if isinstance(problem, StepModel):
        return problem.lattice
    if isinstance(problem, JacobiBlocks) and problem.provenance is not None:
        return problem.provenance
    return Lattice((), ())  # no lattice


# A problem under classification, its config and its delta lattice
_Subject = namedtuple("_Subject", "problem config lattice")


def _blocks(s: _Subject, rows: int) -> JacobiBlocks | None:
    """The blocks through B_rows a block criterion reads: a blocks problem's own, else those of
    the lattice's first rows + 2 spacings (all if fewer; None below three) on views of its checked
    arrays. Each criterion builds its own, so a FloatRangeError of its window is its own."""
    if isinstance(s.problem, JacobiBlocks):
        return s.problem
    stop = max(rows, 1) + 2
    d, H = s.lattice.d[:stop], s.lattice.H[:stop]
    return blocks_from_lattice(Lattice.checked(d, H)) if len(d) >= 3 else None


def _channels(n: int):
    """(name, channel) pairs; the names are the CLI channel spellings."""
    for i in range(1, n + 1):
        yield f"diag:{i}", Diagonal(i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield f"offdiag:{i},{j}", OffDiagonal(i, j)


def _series(tag, report):
    return tag, [report], report.verdict, report.verdict_basis


def _check(tag, reports, certified, basis):
    return tag, reports, CERTIFIED if certified else "NotCertified", basis


def _run_t1(s):
    if isinstance(s.problem, CoefficientModel) and s.config.intervals:
        yield _series("t1", t1_series(s.problem, s.config.intervals))


def _run_t2(s):
    if isinstance(s.problem, LinearSigma) and s.config.intervals is not None:
        res = t2_predicate(s.problem, s.config.intervals)
        basis = (f"hypothesis_ok={res.hypothesis_ok}; series {res.series.verdict}: "
                 f"{res.series.verdict_basis}")
        yield _check("t2", [res.series], res.limit_point_certified, basis)


def _run_cor2(s):
    if len(s.lattice.d) >= 2 and len(s.lattice.H) >= 1:
        for name, ch in _channels(s.lattice.H.shape[1]):
            yield _series(f"cor2:{name}", cor2_lattice(s.lattice, ch))


def _run_carleman(s):
    blocks = _blocks(s, s.config.N)
    if blocks is not None and len(blocks.B) >= 2:
        yield _series("carleman", carleman_report(blocks, min(s.config.N, len(blocks.B) - 1)))


def _run_t4(s):
    segments = s.config.segments
    if segments and (blocks := _blocks(s, max(m for _, m in segments))) is not None:
        yield _series("t4", t4_report(blocks, segments))


def _run_t7(s):
    n_eff = min(s.config.N, (len(s.lattice.d) - 2) // 2, (len(s.lattice.H) - 1) // 2)
    if n_eff >= 1:
        res = t7_lattice(s.lattice, n_eff)
        basis = "; ".join(f"{r.criterion}: {r.verdict}" for r in res.reports())
        yield _check("t7", res.reports(), res.limit_circle_certified, basis)


def _run_cor3(s):
    n_eff = min(s.config.N, len(s.lattice.d) - 3, len(s.lattice.H))
    if n_eff >= 2:
        res = cor3_lattice(s.lattice, n_eff)
        basis = (f"comparability {res.cond1_direction}; "
                 f"spacing series {res.cond2.verdict}; "
                 f"jump series {res.cond3.verdict}")
        yield _check("cor3", res.reports(), res.limit_circle_certified, basis)


# One classify criterion: its code, its side (CONTINUOUS or DISCRETE),
# the classification a fired certificate implies, and its runner.
# run(subject) yields (tag, reports, verdict, basis) for each evidence
# item, and nothing when the criterion does not apply.
Criterion = namedtuple("Criterion", "code side implies run")


# Run order is report and evidence order.
CRITERIA = (
    Criterion("t1", CONTINUOUS, NOT_LIMIT_CIRCLE, _run_t1),
    Criterion("t2", CONTINUOUS, LIMIT_POINT, _run_t2),
    Criterion("cor2", CONTINUOUS, NOT_LIMIT_CIRCLE, _run_cor2),
    Criterion("carleman", DISCRETE, LIMIT_POINT, _run_carleman),
    Criterion("t4", DISCRETE, NOT_LIMIT_CIRCLE, _run_t4),
    Criterion("t7", DISCRETE, LIMIT_CIRCLE, _run_t7),
    Criterion("cor3", DISCRETE, LIMIT_CIRCLE, _run_cor3),
)


def classify(problem, config: ClassifyConfig | None = None) -> Verdict:
    """Run every applicable criterion and aggregate the evidence.

    Jump series run in their lattice specialization (cor2 channels); the
    criterion entry points remain available for custom marked interval
    systems. A certified classification is never produced from an
    uncertified report.
    """
    verdict, _ = classify_detailed(problem, config)
    return verdict


def classify_detailed(problem, config: ClassifyConfig | None = None):
    """classify plus the full list of CriterionReports behind the evidence."""
    config = config or ClassifyConfig()
    subject = _Subject(problem, config, _lattice(problem))
    evidence: list[Evidence] = []
    reports: list[CriterionReport] = []
    sides = set()
    for crit in CRITERIA:
        if config.criteria is not None and crit.code not in config.criteria:
            continue
        try:
            for tag, reps, verdict, basis in crit.run(subject):
                reports.extend(reps)
                fired = verdict in (DIVERGES, CERTIFIED)
                evidence.append(Evidence(tag, verdict, basis, crit.implies if fired else None))
                sides.add(crit.side)
        except FloatRangeError as exc:  # this error alone: the criterion is Inconclusive
            evidence.append(Evidence(crit.code, INCONCLUSIVE, f"not evaluated: {exc}"))
            sides.add(crit.side)
    if not sides:
        sides.add(CONTINUOUS if isinstance(problem, CoefficientModel | LinearSigma) else DISCRETE)
    side = BOTH if len(sides) == 2 else sides.pop()
    return Verdict(resolve_classification(evidence), tuple(evidence), side), reports


# ---------------------------------------------------------------------------
# gallery


@dataclass(frozen=True, eq=False)
class GalleryEntry:
    name: str
    problem: object
    config: ClassifyConfig
    expected: str
    note: str

    def run(self) -> Verdict:
        return classify(self.problem, self.config)


def _free_lattice() -> GalleryEntry:
    n_nodes = 60
    model = DeltaNodes(1, tuple(float(k) for k in range(1, n_nodes + 1)),
                       np.zeros((n_nodes, 1, 1)),
                       float(n_nodes + 1))
    return GalleryEntry(
        "free-lattice", model,
        ClassifyConfig(intervals=IntervalSeq.unit(40), N=40),
        LIMIT_POINT,
        "uniform spacings with zero jumps; the block-norm series diverges, "
        "certifying the determinate (limit point) case")


def _christ_stolz() -> GalleryEntry:
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    return GalleryEntry(
        "christ-stolz", model,
        ClassifyConfig(N=999),
        LIMIT_CIRCLE,
        "harmonic spacings 1/k with jumps -(2k+1)I (the Christ-Stolz family); "
        "the product-series checks certify the completely indeterminate "
        "(limit circle) case")


def _monotone_sigma() -> GalleryEntry:
    X = 100.0
    model = LinearSigma(1, (0.0, X), (np.zeros((1, 1)), X * np.eye(1)))
    return GalleryEntry(
        "monotone-sigma", model,
        ClassifyConfig(intervals=IntervalSeq.unit(100)),
        LIMIT_POINT,
        "sigma = x I has nonnegative derivative and the squared interval "
        "lengths diverge, certifying limit point")


def _offdiagonal_divergence() -> GalleryEntry:
    n_nodes = 60
    jump = np.array([[-3.0, 1.0], [1.0, -3.0]])
    model = DeltaNodes(2, tuple(float(k) for k in range(1, n_nodes + 1)),
                       [jump] * n_nodes, float(n_nodes + 1))
    return GalleryEntry(
        "offdiagonal-divergence", model,
        ClassifyConfig(N=40, criteria=("cor2",)),
        NOT_LIMIT_CIRCLE,
        "order 2 lattice whose diagonal jump channel degenerates exactly "
        "while the off-diagonal channel diverges; continuous-side criteria "
        "only, certifying not limit circle")


_GALLERY = {"free-lattice": _free_lattice, "christ-stolz": _christ_stolz,
            "monotone-sigma": _monotone_sigma,
            "offdiagonal-divergence": _offdiagonal_divergence}


def gallery() -> list[GalleryEntry]:
    """Reference problems with their expected classifications, as ``gallery_entry`` holds them."""
    return [gallery_entry(name) for name in _GALLERY]


@cache
def gallery_entry(name: str) -> GalleryEntry:
    """The named entry, built on its first lookup and shared by every later one.

    Sharing is safe: entries, models and configs are frozen records and every
    array they reach is read-only. An unknown name raises ``KeyError`` on every
    call (``cache`` keeps no result of a call that raised).
    """
    if name not in _GALLERY:
        raise KeyError(f"no gallery entry named {name!r}")
    return _GALLERY[name]()
