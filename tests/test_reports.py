import math

import numpy as np
import pytest
import reference_json
import reference_reports
from conftest import frozen_floats, periodic_tails, power_law_spacings
from hypothesis import given, settings
from hypothesis import strategies as st

from sldl.cli import canonical_json
from sldl.reports import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    CriterionReport,
    build_report,
    convergence_certificate,
    divergence_certificate,
    partial_sums,
    periodic_positive_floor,
)


def test_partial_sums_nondecreasing_and_consistent():
    terms = [0.5, 0.25, 1.0, 0.0, 2.0]
    sums = partial_sums(terms)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(sum(terms))


def test_empty_terms_inconclusive():
    rep = build_report("t1", [])
    assert rep.verdict == INCONCLUSIVE
    assert frozen_floats(rep.terms, ()) and frozen_floats(rep.partial_sums, ())


def test_reports_hold_their_own_read_only_arrays():
    terms = np.array([1.0, -0.0, 2.0])
    rep = build_report("x", terms)
    by_hand = CriterionReport("x", terms, [1.0, 1.0, 3.0], INCONCLUSIVE, "by hand")
    terms[0] = 5.0
    for got in (rep, by_hand):
        assert frozen_floats(got.terms, (1.0, -0.0, 2.0))
        assert frozen_floats(got.partial_sums, (1.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            got.terms[0] = 0.0


def test_constant_terms_diverge():
    rep = build_report("t1", [0.3] * 20)
    assert rep.verdict == DIVERGES
    assert "constant" in rep.verdict_basis


def test_periodic_terms_diverge():
    rep = build_report("x", [0.5, 1.5] * 12)
    assert rep.verdict == DIVERGES


def test_growing_terms_diverge():
    rep = build_report("l2", [0.1 * k for k in range(1, 30)])
    assert rep.verdict == DIVERGES
    assert "nondecreasing" in rep.verdict_basis


def test_geometric_terms_converge():
    rep = build_report("x", [2.0 ** -k for k in range(30)])
    assert rep.verdict == CONVERGES
    assert "Raabe" in rep.verdict_basis


def test_quadratic_decay_converges_by_raabe():
    rep = build_report("x", [1.0 / k ** 2 for k in range(1, 200)])
    assert rep.verdict == CONVERGES
    assert "Raabe" in rep.verdict_basis


def test_harmonic_terms_inconclusive():
    # a bare max-ratio threshold would wrongly certify this window
    for count in (100, 200, 2000):
        rep = build_report("x", [1.0 / k for k in range(1, count + 1)])
        assert rep.verdict == INCONCLUSIVE


def test_zero_tail_converges():
    rep = build_report("x", [0.0] * 16)
    assert rep.verdict == CONVERGES
    assert "zero" in rep.verdict_basis


def test_oscillating_quadratic_decay_converges_after_blocking():
    # two interleaved chains with different constants defeat the raw ratio test
    terms = []
    for k in range(1, 300):
        terms.append((3.0 if k % 2 else 0.2) / k ** 2)
    rep = build_report("x", terms)
    assert rep.verdict == CONVERGES
    assert "blocking" in rep.verdict_basis


def test_threshold_mode_fires_only_with_slow_decay():
    harmonic = [1.0 / k for k in range(1, 400)]
    assert divergence_certificate(harmonic, threshold=2.0) is not None
    quadratic = [1.0 / k ** 2 for k in range(1, 400)]
    assert divergence_certificate(quadratic, threshold=0.5) is None


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_a_threshold_that_is_not_finite_is_refused(threshold):
    # no partial sum exceeds nan or inf, and every one exceeds -inf: threshold
    # mode would be silently off, or certify the harmonic window below by itself
    with pytest.raises(ValueError, match="^threshold must be finite"):
        build_report("x", [1.0 / k for k in range(1, 400)], threshold=threshold)


def test_negative_terms_rejected():
    with pytest.raises(ValueError):
        build_report("x", [1.0, -0.5])


def test_nan_term_never_certifies():
    terms = [2.0 ** -k for k in range(20)]
    assert build_report("x", terms).verdict == CONVERGES
    terms[15] = math.nan
    rep = build_report("x", terms)
    assert rep.verdict == INCONCLUSIVE
    assert "terms[15]" in rep.verdict_basis
    rep = build_report("x", [0.3] * 9 + [math.nan] + [0.3] * 10)
    assert rep.verdict == INCONCLUSIVE
    assert "terms[9]" in rep.verdict_basis


def test_short_windows_stay_inconclusive():
    assert divergence_certificate([1.0] * 4) is None
    assert convergence_certificate([0.0] * 4) is None


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_report_invariants(terms):
    rep = build_report("x", terms)
    assert len(rep.terms) == len(rep.partial_sums)
    assert all(b >= a - 1e-12 for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))
    assert rep.partial_sums[-1] == pytest.approx(sum(terms), rel=1e-12, abs=1e-12)
    assert rep.verdict in (DIVERGES, CONVERGES, INCONCLUSIVE)


def test_report_json_shape():
    rep = build_report("t1", [1.0, 2.0], notes=("note",))
    obj = rep.to_json()
    assert list(obj) == ["criterion", "terms", "partial_sums", "verdict",
                         "verdict_basis", "notes"]


# ---------------------------------------------------------------------------
# the array certificates against the term-at-a-time reference

_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, 5e-324, 2.2e-308, 1e-310, 1e308])


@st.composite
def term_windows(draw):
    """Windows with zeros, inf, subnormals and NaN, over periodic, monotone or free tails."""
    size = draw(st.integers(0, 70))
    kind = draw(st.sampled_from(["free", "periodic", "increasing", "decreasing", "powers"]))
    if kind == "periodic":
        period = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
        terms = [period[i % len(period)] for i in range(size)]
    elif kind in ("increasing", "decreasing"):
        terms = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=size, max_size=size)),
                       reverse=kind == "decreasing")
    elif kind == "powers":
        p = draw(st.floats(0.5, 3.0))
        odd = draw(st.sampled_from([1.0, 3.0]))
        terms = [(odd if k % 2 else 1.0) / k ** p for k in range(1, size + 1)]
    else:
        terms = draw(st.lists(st.floats(0.0, 10.0) | _SPECIAL, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3))):
        if terms:
            terms[draw(st.integers(0, len(terms) - 1))] = draw(_SPECIAL)
    if terms and draw(st.integers(0, 9)) == 0:
        terms[draw(st.integers(0, len(terms) - 1))] = math.nan
    return terms


@given(term_windows(), st.none() | st.floats(0.0, 20.0))
@settings(max_examples=400, deadline=None)
def test_report_equals_the_term_at_a_time_reference(terms, threshold):
    rep = build_report("x", terms, threshold=threshold)
    want_terms, want_sums, *want = reference_reports.report(terms, threshold)
    assert frozen_floats(rep.terms, want_terms) and frozen_floats(rep.partial_sums, want_sums)
    assert [rep.verdict, rep.verdict_basis] == want
    if not any(map(math.isnan, terms)):
        assert (divergence_certificate(terms, threshold)
                == reference_reports.divergence_certificate(terms, threshold))
        assert convergence_certificate(terms) == reference_reports.convergence_certificate(terms)
    tail = terms[len(terms) // 2:]
    assert periodic_positive_floor(tail) == reference_reports.periodic_positive_floor(tail)


@given(periodic_tails() | power_law_spacings())
@settings(max_examples=600, deadline=None)
def test_periodic_floor_exits_equal_the_full_scan(tail):
    # a floor that is not positive ends the search, and the first pair may rule a
    # period out before the scan; both give what the full scan of every period gives
    want = reference_reports.periodic_positive_floor(tail)
    for got in (periodic_positive_floor(tail), periodic_positive_floor(np.array(tail))):
        assert got == want and (got is None or type(got[0]) is float)


@pytest.mark.parametrize("tail", [
    [1.0, 0.0] * 10_000,  # an l2 tail with alternating zeros: subnormal products at p = 2
    [0.0] * 20_000,  # a zero t7 (b) tail
    [0.0] * 7 + [1.0],
    [1.0] * 7 + [0.0],
    [2.0, 1.0, 3.0] * 5 + [math.nan],
    [math.nan] + [2.0, 1.0, 3.0] * 5,
    [3.0, 5e-324] * 4,
    [1e-300, 1.0] * 4,
])
def test_periodic_floor_of_zero_and_nan_tails_equals_the_full_scan(tail):
    assert periodic_positive_floor(tail) == reference_reports.periodic_positive_floor(tail)


@given(term_windows(), st.none() | st.floats(0.0, 20.0))
@settings(max_examples=300, deadline=None)
def test_report_json_equals_the_encoded_reference_report(terms, threshold):
    # -0.0, inf, NaN and empty windows; the floats are made only by to_json
    rep = build_report("x", terms, threshold=threshold, notes=("a note",))
    for values in (rep.terms, rep.partial_sums):
        assert values.dtype == np.float64 and not values.flags.writeable
    want_terms, want_sums, verdict, basis = reference_reports.report(terms, threshold)
    want = {"criterion": "x", "terms": list(want_terms), "partial_sums": list(want_sums),
            "verdict": verdict, "verdict_basis": basis, "notes": ["a note"]}
    assert canonical_json(rep.to_json()) == reference_json.canonical_json(want)
