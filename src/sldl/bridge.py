"""Cross-validation of the continuous and discrete pictures, and verdicts.

A delta-interaction model and its block-lattice counterpart describe the
same operator: sampling a solution f at the nodes and rescaling,
Z_k = r_{k+1} f(x_k) with r_{k+1} = sqrt(d_k + d_{k+1}), turns the node
jump conditions into the three-term block recurrence built by
``jacobi.blocks_from_delta``. ``equivalence_residual`` checks that
correspondence numerically and is the package's central cross-check; if
it fails, something upstream is miscounted.

``classify`` aggregates every applicable criterion into a Verdict.
Certified evidence never conflicts for a correct implementation, so
conflicting certificates raise instead of being resolved.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import (
    Diagonal,
    IntervalSeq,
    LinearSigma,
    OffDiagonal,
    cor2_series,
    t1_series,
    t2_predicate,
)
from .jacobi import (
    JacobiBlocks,
    blocks_from_delta,
    carleman_report,
    christ_stolz_family,
    cor3_check,
    recurrence_apply,
    t4_report,
    t7_check,
)
from .matcore import ShapeMismatchError
from .quasidiff import (
    DeltaNodes,
    Distributional,
    GeneralTriple,
    QuasiState,
    StepSigma,
    _flow,
)
from .reports import DIVERGES, CriterionReport, build_report

LIMIT_POINT = "LimitPoint"
LIMIT_CIRCLE = "LimitCircle"
NOT_LIMIT_CIRCLE = "NotLimitCircle"
INCONCLUSIVE_CLASS = "Inconclusive"
CERTIFIED = "Certified"

_KERNEL_MODELS = (StepSigma, DeltaNodes, GeneralTriple, Distributional)


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

    intervals feed the interval series (t1) and the monotonicity test
    (t2); segments feed the discrete segment series (t4); N bounds every
    lattice series; criteria, when given, picks which CRITERIA codes run.
    """

    intervals: IntervalSeq | None = None
    N: int = 200
    segments: tuple[tuple[int, int], ...] | None = None
    criteria: tuple[str, ...] | None = None

    def __post_init__(self):
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
    """Rescaled node samples Z_k = sqrt(d_k + d_{k+1}) f(x_k), k = 1..len(d)-1."""
    d = [float(v) for v in d]
    samples = [np.asarray(f, dtype=complex).reshape(-1) for f in f_at_nodes]
    if len(samples) != len(d):
        raise ShapeMismatchError("need one node sample per spacing")
    return np.array([np.sqrt(d[k - 1] + d[k]) * samples[k - 1]
                     for k in range(1, len(d))])


def equivalence_residual(model: DeltaNodes, count: int, seed_state: QuasiState) -> float:
    """Largest normalized recurrence residual of the rescaled node samples.

    Marches the seed through the delta model once, samples f at the nodes,
    forms Z, and applies the block recurrence for the canonical indices
    k = 2 .. count + 1 (index 1 touches the free boundary block and is
    skipped). Each residual is divided by the size of the largest of the
    three recurrence summands (floored at 1), so the value measures
    cancellation quality independently of solution growth.
    """
    if not isinstance(model, DeltaNodes):
        raise TypeError("equivalence_residual needs a DeltaNodes model")
    m = len(model.nodes)
    if count < 1 or m < count + 3:
        raise ValueError(f"need at least count + 3 = {count + 3} nodes, have {m}")
    d = model.spacings
    y = np.concatenate([seed_state.f, seed_state.f1])
    samples = [y[:model.n] for _, y in _flow(model, 0.0, y, 0.0, model.nodes[-1])]
    z = nodes_to_Z(samples, d)
    blocks = blocks_from_delta(d, model.jumps)
    u = np.vstack([np.zeros((1, model.n), dtype=complex), z])
    worst = 0.0
    for k in range(2, count + 2):
        lhs = recurrence_apply(blocks, u, k)
        scale = max(1.0,
                    float(np.linalg.norm(blocks.B_at(k) @ u[k + 1])),
                    float(np.linalg.norm(blocks.A_at(k) @ u[k])),
                    float(np.linalg.norm(blocks.B_at(k - 1).conj().T @ u[k - 1])))
        worst = max(worst, float(np.linalg.norm(lhs)) / scale)
    return worst


def l2_tail_report(Z) -> CriterionReport:
    """Report on the squared norms ||Z_k||^2 of a vector sequence.

    ConvergesBounded is a trend certificate on the computed window, not a
    proof of square summability; classification never relies on it alone.
    """
    terms = [float(np.linalg.norm(np.asarray(zk).reshape(-1)) ** 2) for zk in Z]
    if not terms:
        raise ValueError("empty sequence")
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


def _lattice_data(problem):
    if isinstance(problem, DeltaNodes):
        return problem.spacings, problem.jumps
    if isinstance(problem, StepSigma) and len(problem.cuts) >= 3:
        d = tuple(b - a for a, b in zip(problem.cuts, problem.cuts[1:]))
        H = tuple(problem.values[k] - problem.values[k - 1]
                  for k in range(1, len(problem.values)))
        return d, H
    if isinstance(problem, JacobiBlocks) and problem.provenance is not None:
        return problem.provenance.d, problem.provenance.H
    return (), ()  # no lattice


class _Subject:
    """A problem under classification, its lattice data and, on first use, its blocks."""

    def __init__(self, problem, config: ClassifyConfig):
        self.problem = problem
        self.config = config
        self.d, self.H = _lattice_data(problem)

    @cached_property
    def blocks(self) -> JacobiBlocks | None:
        if isinstance(self.problem, JacobiBlocks):
            return self.problem
        if len(self.d) >= 3:
            return blocks_from_delta(self.d, self.H)
        return None


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
    if isinstance(s.problem, _KERNEL_MODELS) and s.config.intervals:
        yield _series("t1", t1_series(s.problem, s.config.intervals))


def _run_t2(s):
    if isinstance(s.problem, LinearSigma) and s.config.intervals is not None:
        res = t2_predicate(s.problem, s.config.intervals)
        basis = (f"hypothesis_ok={res.hypothesis_ok}; series {res.series.verdict}: "
                 f"{res.series.verdict_basis}")
        yield _check("t2", [res.series], res.limit_point_certified, basis)


def _run_cor2(s):
    if len(s.d) >= 2 and len(s.H) >= 1:
        for name, ch in _channels(s.H[0].shape[0]):
            yield _series(f"cor2:{name}", cor2_series(s.d, s.H, ch))


def _run_carleman(s):
    if s.blocks is not None and len(s.blocks.B) >= 2:
        n_eff = min(s.config.N, len(s.blocks.B) - 1)
        yield _series("carleman", carleman_report(s.blocks, n_eff))


def _run_t4(s):
    if s.config.segments and s.blocks is not None:
        yield _series("t4", t4_report(s.blocks, s.config.segments))


def _run_t7(s):
    n_eff = min(s.config.N, (len(s.d) - 2) // 2, (len(s.H) - 1) // 2)
    if n_eff >= 1:
        res = t7_check(s.d, s.H, n_eff)
        basis = "; ".join(f"{r.criterion}: {r.verdict}" for r in res.reports())
        yield _check("t7", res.reports(), res.limit_circle_certified, basis)


def _run_cor3(s):
    n_eff = min(s.config.N, len(s.d) - 3, len(s.H))
    if n_eff >= 2:
        res = cor3_check(s.d, s.H, n_eff)
        basis = (f"comparability {res.cond1_direction}; "
                 f"spacing series {res.cond2.verdict}; "
                 f"jump series {res.cond3.verdict}")
        yield _check("cor3", res.reports(), res.limit_circle_certified, basis)


# One classify criterion: its code, its side ("Continuous" or "Discrete"),
# the classification a fired certificate implies, and its runner.
# run(subject) yields (tag, reports, verdict, basis) for each evidence
# item, and nothing when the criterion does not apply.
Criterion = namedtuple("Criterion", "code side implies run")


# Run order is report and evidence order.
CRITERIA = (
    Criterion("t1", "Continuous", NOT_LIMIT_CIRCLE, _run_t1),
    Criterion("t2", "Continuous", LIMIT_POINT, _run_t2),
    Criterion("cor2", "Continuous", NOT_LIMIT_CIRCLE, _run_cor2),
    Criterion("carleman", "Discrete", LIMIT_POINT, _run_carleman),
    Criterion("t4", "Discrete", NOT_LIMIT_CIRCLE, _run_t4),
    Criterion("t7", "Discrete", LIMIT_CIRCLE, _run_t7),
    Criterion("cor3", "Discrete", LIMIT_CIRCLE, _run_cor3),
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
    subject = _Subject(problem, config)
    evidence: list[Evidence] = []
    reports: list[CriterionReport] = []
    sides = set()
    for crit in CRITERIA:
        if config.criteria is not None and crit.code not in config.criteria:
            continue
        for tag, reps, verdict, basis in crit.run(subject):
            reports.extend(reps)
            fired = verdict in (DIVERGES, CERTIFIED)
            evidence.append(Evidence(tag, verdict, basis, crit.implies if fired else None))
            sides.add(crit.side)
    if len(sides) == 2:
        side = "Both"
    elif sides:
        side = sides.pop()
    else:
        side = "Continuous" if isinstance(problem, (*_KERNEL_MODELS, LinearSigma)) else "Discrete"
    classification = resolve_classification(evidence)
    return Verdict(classification, tuple(evidence), side), reports


# ---------------------------------------------------------------------------
# gallery


@dataclass(frozen=True)
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
                       tuple(np.zeros((1, 1)) for _ in range(n_nodes)),
                       float(n_nodes + 1))
    return GalleryEntry(
        "free-lattice", model,
        ClassifyConfig(intervals=IntervalSeq.unit(40), N=40),
        LIMIT_POINT,
        "uniform spacings with zero jumps; the block-norm series diverges, "
        "certifying the determinate (limit point) case")


def _christ_stolz() -> GalleryEntry:
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], tuple(H[:2000]), tail=d[2000])
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
                       tuple(jump for _ in range(n_nodes)), float(n_nodes + 1))
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
    """Reference problems with their expected classifications."""
    return [build() for build in _GALLERY.values()]


def gallery_entry(name: str) -> GalleryEntry:
    if name not in _GALLERY:
        raise KeyError(f"no gallery entry named {name!r}")
    return _GALLERY[name]()
