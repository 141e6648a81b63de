"""Series reports and the verdict certificates shared by all criteria.

Every criterion in this package reduces to a nonnegative term sequence
whose divergence or convergence carries the spectral information. On a
finite window neither property is decidable, so verdicts are issued only
when an explicit certificate fires, and the certificate is named in
``verdict_basis``. Anything else stays Inconclusive, and so does every
window that contains a NaN term.

Divergence certificates (lower bound on infinitely many terms, assuming
the observed structure continues):
  * eventually periodic positive tail (period up to 4),
  * nondecreasing tail with a positive floor,
  * caller-requested threshold mode (partial sum above a bound while the
    terms decay no faster than 1/k).

Convergence certificates (applied to the raw tail, then after period-2
blocking to absorb even/odd oscillation):
  * identically zero tail,
  * ratio certificate: the Raabe statistic k*(1 - t[k+1]/t[k]) stays at
    least RAABE_MIN throughout the tail. Under continuation of the
    observed ratio structure this bounds the terms by k**-p with p > 1;
    geometric decay passes automatically since its statistic grows
    linearly. A bare max-ratio threshold is NOT used: on a finite window
    it cannot separate geometric decay from a harmonic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DIVERGES = "DivergesProven"
CONVERGES = "ConvergesBounded"
INCONCLUSIVE = "Inconclusive"

RAABE_MIN = 1.05
_MIN_WINDOW = 8
_PERIOD_RTOL = 1e-9

VERDICT_POLICY = (
    "diverges: eventually-periodic (period<=4) or nondecreasing positive tail, "
    "or threshold mode; converges: zero tail, or Raabe statistic "
    "k*(1 - t[k+1]/t[k]) >= 1.05 across the tail, retried after period-2 "
    "blocking; tail = last half of the window"
)


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    verdict: str
    verdict_basis: str
    notes: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        out = {
            "criterion": self.criterion,
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "verdict": self.verdict,
            "verdict_basis": self.verdict_basis,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def partial_sums(terms) -> tuple[float, ...]:
    out = []
    acc = 0.0
    for t in terms:
        acc += t
        out.append(acc)
    return tuple(out)


def _tail(terms):
    return terms[len(terms) // 2:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _PERIOD_RTOL * max(abs(a), abs(b), 1e-300)


def periodic_positive_floor(tail) -> tuple[float, int] | None:
    """Positive floor of an eventually periodic tail, or None."""
    for p in (1, 2, 3, 4):
        if len(tail) < 2 * p:
            break
        if all(_close(tail[i], tail[i - p]) for i in range(p, len(tail))):
            floor = min(tail[-p:])
            if floor > 0.0:
                return floor, p
            return None
    return None


def _nondecreasing_floor(tail) -> float | None:
    if tail[0] <= 0.0:
        return None
    ok = all(tail[i + 1] >= tail[i] * (1.0 - 1e-12) for i in range(len(tail) - 1))
    return min(tail) if ok else None


def divergence_certificate(terms, threshold: float | None = None) -> str | None:
    """Basis string when the term window certifies a divergent series."""
    if len(terms) < _MIN_WINDOW:
        return None
    tail = _tail(terms)
    hit = periodic_positive_floor(tail)
    if hit is not None:
        floor, p = hit
        kind = "constant" if p == 1 else f"periodic (period {p})"
        return f"eventually {kind} positive terms, tail floor {floor:.6g}"
    floor = _nondecreasing_floor(tail)
    if floor is not None:
        return f"nondecreasing tail with positive floor {floor:.6g}"
    if threshold is not None and sum(terms) > threshold:
        # decay no faster than 1/k: k*t_k nondecreasing over the tail
        k0 = len(terms) - len(tail) + 1
        kt = [(k0 + i) * t for i, t in enumerate(tail)]
        if all(kt[i + 1] >= kt[i] * (1.0 - 1e-12) for i in range(len(kt) - 1)):
            return (f"threshold mode: partial sum {sum(terms):.6g} exceeds "
                    f"{threshold:.6g} with terms decaying no faster than 1/k")
    return None


def _ratio_tail_certificate(tail, first_index: int) -> str | None:
    if all(t == 0.0 for t in tail):
        return "tail identically zero"
    if any(t <= 0.0 for t in tail):
        return None
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    if not ratios:
        return None
    raabe = [(first_index + i) * (1.0 - r) for i, r in enumerate(ratios)]
    rho = min(raabe)
    if rho >= RAABE_MIN:
        return (f"Raabe tail, k*(1 - ratio) >= {rho:.6g} "
                f"(max ratio {max(ratios):.6g})")
    return None


def convergence_certificate(terms) -> str | None:
    """Basis string when the term window certifies a convergent series."""
    if len(terms) < _MIN_WINDOW:
        return None
    tail = _tail(terms)
    basis = _ratio_tail_certificate(tail, len(terms) - len(tail) + 1)
    if basis is not None:
        return basis
    # even/odd oscillation: certify the period-2 blocked series instead
    blocked = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
    if len(blocked) >= _MIN_WINDOW:
        btail = _tail(blocked)
        basis = _ratio_tail_certificate(btail, len(blocked) - len(btail) + 1)
        if basis is not None:
            return basis + " (after period-2 blocking)"
    return None


def build_report(criterion: str, terms, threshold: float | None = None,
                 notes=()) -> CriterionReport:
    """Assemble a CriterionReport, issuing a verdict only on a certificate."""
    terms = tuple(float(t) for t in terms)
    if any(t < 0.0 for t in terms):
        raise ValueError("criterion terms must be nonnegative")
    sums = partial_sums(terms)
    if not terms:
        return CriterionReport(criterion, (), (), INCONCLUSIVE,
                               "empty term sequence", tuple(notes))
    # NaN fails every comparison, so the certificates would read it as passing
    nan_at = next((i for i, t in enumerate(terms) if math.isnan(t)), None)
    if nan_at is not None:
        return CriterionReport(criterion, terms, sums, INCONCLUSIVE,
                               f"terms[{nan_at}] is NaN; no certificate applies",
                               tuple(notes))
    basis = divergence_certificate(terms, threshold)
    if basis is not None:
        return CriterionReport(criterion, terms, sums, DIVERGES, basis, tuple(notes))
    basis = convergence_certificate(terms)
    if basis is not None:
        return CriterionReport(criterion, terms, sums, CONVERGES, basis, tuple(notes))
    return CriterionReport(criterion, terms, sums, INCONCLUSIVE,
                           "no divergence or convergence certificate fired",
                           tuple(notes))
