import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldl.reports import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    build_report,
    convergence_certificate,
    divergence_certificate,
    partial_sums,
)


def test_partial_sums_nondecreasing_and_consistent():
    terms = [0.5, 0.25, 1.0, 0.0, 2.0]
    sums = partial_sums(terms)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(sum(terms))


def test_empty_terms_inconclusive():
    rep = build_report("t1", [])
    assert rep.verdict == INCONCLUSIVE
    assert rep.terms == () and rep.partial_sums == ()


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
