"""Term-at-a-time reference for the array certificates of ``sldl.reports``.

Each function here redoes one pass of the report policy the plain way, one
Python float at a time: partial sums by a running ``+=``, the periodic,
nondecreasing and Raabe tests by generators over the window, and the
period-2 blocking by a list. The tests require ``sldl.reports`` to give
the same terms, partial sums, verdict and basis string.
"""

import math

from sldl.reports import CONVERGES, DIVERGES, INCONCLUSIVE, RAABE_MIN

_MIN_WINDOW = 8
_PERIOD_RTOL = 1e-9


def partial_sums(terms):
    out = []
    acc = 0.0
    for t in terms:
        acc += t
        out.append(acc)
    return tuple(out)


def _tail(terms):
    return terms[len(terms) // 2:]


def _close(a, b):
    return abs(a - b) <= _PERIOD_RTOL * max(abs(a), abs(b), 1e-300)


def periodic_positive_floor(tail):
    for p in (1, 2, 3, 4):
        if len(tail) < 2 * p:
            break
        if all(_close(tail[i], tail[i - p]) for i in range(p, len(tail))):
            floor = min(tail[-p:])
            if floor > 0.0:
                return floor, p
            return None
    return None


def _nondecreasing_floor(tail):
    if tail[0] <= 0.0:
        return None
    ok = all(tail[i + 1] >= tail[i] * (1.0 - 1e-12) for i in range(len(tail) - 1))
    return min(tail) if ok else None


def divergence_certificate(terms, threshold=None):
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
        k0 = len(terms) - len(tail) + 1
        kt = [(k0 + i) * t for i, t in enumerate(tail)]
        if all(kt[i + 1] >= kt[i] * (1.0 - 1e-12) for i in range(len(kt) - 1)):
            return (f"threshold mode: partial sum {sum(terms):.6g} exceeds "
                    f"{threshold:.6g} with terms decaying no faster than 1/k")
    return None


def _ratio_tail_certificate(tail, first_index):
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


def convergence_certificate(terms):
    if len(terms) < _MIN_WINDOW:
        return None
    tail = _tail(terms)
    basis = _ratio_tail_certificate(tail, len(terms) - len(tail) + 1)
    if basis is not None:
        return basis
    blocked = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
    if len(blocked) >= _MIN_WINDOW:
        btail = _tail(blocked)
        basis = _ratio_tail_certificate(btail, len(blocked) - len(btail) + 1)
        if basis is not None:
            return basis + " (after period-2 blocking)"
    return None


def report(terms, threshold=None):
    """(terms, partial sums, verdict, basis) of ``build_report`` for nonnegative terms."""
    terms = tuple(float(t) for t in terms)
    sums = partial_sums(terms)
    if not terms:
        return (), (), INCONCLUSIVE, "empty term sequence"
    nan_at = next((i for i, t in enumerate(terms) if math.isnan(t)), None)
    if nan_at is not None:
        return terms, sums, INCONCLUSIVE, f"terms[{nan_at}] is NaN; no certificate applies"
    basis = divergence_certificate(terms, threshold)
    if basis is not None:
        return terms, sums, DIVERGES, basis
    basis = convergence_certificate(terms)
    if basis is not None:
        return terms, sums, CONVERGES, basis
    return terms, sums, INCONCLUSIVE, "no divergence or convergence certificate fired"
