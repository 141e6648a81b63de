"""Series reports and the verdict certificates shared by all criteria.

Every criterion in this package reduces to a nonnegative term sequence
whose divergence or convergence carries the spectral information. On a
finite window neither property is decidable, so verdicts are issued only
when an explicit certificate fires, and the certificate is named in
``verdict_basis``. Anything else stays Inconclusive, and so does every
window that contains a NaN term. Reports hold read-only float64 arrays.

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

from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Term window, running sums and verdict; ``terms`` and ``partial_sums`` are frozen
    into read-only float64 arrays, one copy each, and reports compare by identity."""

    criterion: str
    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    verdict_basis: str
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for name in ("terms", "partial_sums"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def to_json(self) -> dict:
        out = {
            "criterion": self.criterion,
            "terms": self.terms.tolist(),
            "partial_sums": self.partial_sums.tolist(),
            "verdict": self.verdict,
            "verdict_basis": self.verdict_basis,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# The passes below run over float64 arrays under _AS_FLOATS: inf and
# subnormal terms give inf - inf, inf / inf and overflowing sums and ratios,
# which read inf or NaN silently, as they do in Python float arithmetic.
_AS_FLOATS = np.errstate(over="ignore", invalid="ignore")


@_AS_FLOATS
def partial_sums(terms) -> np.ndarray:
    """Running sums of the terms, added in sequence from +0.0, as a float64 array."""
    # cumsum adds in sequence like a running ``acc += t``; adding 0.0 turns
    # the -0.0 sums of leading -0.0 terms into that loop's 0.0
    return np.asarray(terms, dtype=float).cumsum() + 0.0


def _tail(terms):
    return terms[len(terms) // 2:]


@_AS_FLOATS
def periodic_positive_floor(tail) -> tuple[float, int] | None:
    """Positive floor of an eventually periodic tail, or None."""
    tail = np.asarray(tail, dtype=float)
    size = np.maximum(np.abs(tail), 1e-300)
    for p in (1, 2, 3, 4):
        if len(tail) < 2 * p:
            break
        # every later period's floor is the min of a tail[-p:] that holds this
        # one, so a floor that is not positive (or NaN) ends the search
        floor = float(tail[-p:].min())
        if not floor > 0.0:
            return None
        # |a - b| <= rtol max(|a|, |b|, 1e-300) for every pair p apart; the
        # last and the first pair alone rule out most tails
        if not (abs(tail[-1] - tail[-1 - p]) <= _PERIOD_RTOL * max(size[-1], size[-1 - p])
                and abs(tail[p] - tail[0]) <= _PERIOD_RTOL * max(size[p], size[0])):
            continue
        if (np.abs(tail[p:] - tail[:-p]) <= _PERIOD_RTOL * np.maximum(size[p:], size[:-p])).all():
            return floor, p
    return None


def _nondecreasing_floor(tail: np.ndarray) -> float | None:
    if tail[0] <= 0.0:
        return None
    ok = (tail[1:] >= tail[:-1] * (1.0 - 1e-12)).all()
    return float(tail.min()) if ok else None


@_AS_FLOATS
def divergence_certificate(terms, threshold: float | None = None) -> str | None:
    """Basis string when the term window certifies a divergent series."""
    terms = np.asarray(terms, dtype=float)
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
    if threshold is not None and (total := sum(terms.tolist())) > threshold:
        # decay no faster than 1/k: k*t_k nondecreasing over the tail
        kt = np.arange(len(terms) - len(tail) + 1, len(terms) + 1) * tail
        if (kt[1:] >= kt[:-1] * (1.0 - 1e-12)).all():
            return (f"threshold mode: partial sum {total:.6g} exceeds "
                    f"{threshold:.6g} with terms decaying no faster than 1/k")
    return None


def _ratio_tail_certificate(tail: np.ndarray, first_index: int) -> str | None:
    if (tail == 0.0).all():
        return "tail identically zero"
    if (tail <= 0.0).any():
        return None
    # inf / inf gives a NaN ratio, which np.min returns and Python's min may
    # skip; no certificate fires either way, since then the first statistic
    # is NaN or an earlier inf / finite ratio gives a -inf one
    ratios = tail[1:] / tail[:-1]
    raabe = np.arange(first_index, first_index + len(ratios)) * (1.0 - ratios)
    rho = float(raabe.min())
    if rho >= RAABE_MIN:
        return (f"Raabe tail, k*(1 - ratio) >= {rho:.6g} "
                f"(max ratio {float(ratios.max()):.6g})")
    return None


@_AS_FLOATS
def convergence_certificate(terms) -> str | None:
    """Basis string when the term window certifies a convergent series."""
    terms = np.asarray(terms, dtype=float)
    if len(terms) < _MIN_WINDOW:
        return None
    tail = _tail(terms)
    basis = _ratio_tail_certificate(tail, len(terms) - len(tail) + 1)
    if basis is not None:
        return basis
    # even/odd oscillation: certify the period-2 blocked series instead
    pairs = len(terms) // 2
    blocked = terms[0:2 * pairs:2] + terms[1:2 * pairs:2]
    if len(blocked) >= _MIN_WINDOW:
        btail = _tail(blocked)
        basis = _ratio_tail_certificate(btail, len(blocked) - len(btail) + 1)
        if basis is not None:
            return basis + " (after period-2 blocking)"
    return None


def check_threshold(threshold: float | None) -> None:
    """ValueError unless ``threshold`` is None or finite (nan and inf never fire, -inf always)."""
    if threshold is not None and not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def build_report(criterion: str, terms, threshold: float | None = None,
                 notes=()) -> CriterionReport:
    """Assemble a CriterionReport, issuing a verdict only on a certificate."""
    check_threshold(threshold)
    terms = np.asarray(terms, dtype=float)  # the report takes its own copy
    clean = bool((terms >= 0.0).all())  # False for negative and NaN terms
    if not clean and (terms < 0.0).any():
        raise ValueError("criterion terms must be nonnegative")
    if not len(terms):
        verdict, basis = INCONCLUSIVE, "empty term sequence"
    elif not clean:  # NaN fails every comparison, so the certificates would read it as passing
        nan_at = int(np.isnan(terms).argmax())
        verdict, basis = INCONCLUSIVE, f"terms[{nan_at}] is NaN; no certificate applies"
    elif (basis := divergence_certificate(terms, threshold)) is not None:
        verdict = DIVERGES
    elif (basis := convergence_certificate(terms)) is not None:
        verdict = CONVERGES
    else:
        verdict, basis = INCONCLUSIVE, "no divergence or convergence certificate fired"
    return CriterionReport(criterion, terms, partial_sums(terms), verdict, basis, tuple(notes))
