"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line. Random draws are seeded, so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_symmetric
from oracle_poly import AdmissiblePoly, pairing_integral
from sldl import (
    DeltaNodes,
    QuasiState,
    StepSigma,
    blocks_from_delta,
    carleman_report,
    carleman_spacing_bounds,
    cauchy_kernel,
    christ_stolz_family,
    classify,
    equivalence_residual,
    fundamental_pair,
    gallery,
    gallery_entry,
    green_form,
    jump_kernel_diag_integral,
    jump_kernel_diag_lower_bound,
    jump_kernel_offdiag_integral,
    kernel_square_integrals,
    solution_kernel_inequality,
    t1_series,
    t7_check,
)
from sldl.criteria import IntervalSeq
from sldl.matcore import frobenius_norm
from sldl.quasidiff import transfer
from sldl.reports import CONVERGES, DIVERGES


def _single_jump_configs(count=200, seed=101):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        a, c, b = np.sort(rng.uniform(0.0, 10.0, 3))
        while not (a < c < b):  # pragma: no cover - vanishing probability
            a, c, b = np.sort(rng.uniform(0.0, 10.0, 3))
        H = random_symmetric(rng, n, 10.0)
        out.append((DeltaNodes(n, (float(c),), (H,), float(b)), a, c, b, H))
    return out


def _step_models(count=50, seed=202):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        pieces = int(rng.integers(1, 11))
        widths = rng.uniform(0.3, 1.0, pieces)
        cuts = [0.0] + list(np.cumsum(widths[:-1]))
        X = float(np.sum(widths))
        values = tuple(random_symmetric(rng, n, 2.0) for _ in range(pieces))
        out.append(StepSigma(n, tuple(cuts), values, X))
    return out


def test_acceptance_1_jump_kernel_closed_forms():
    """Triangle quadrature of |k_ij|^2 matches the closed forms to 1e-9 relative."""
    start = time.monotonic()
    for model, a, c, b, H in _single_jump_configs():
        rho, s = c - a, b - c
        got = kernel_square_integrals(model, float(a), float(b))
        for i in range(model.n):
            for j in range(model.n):
                if i == j:
                    want = jump_kernel_diag_integral(H[i, i], rho, s)
                    bound = jump_kernel_diag_lower_bound(H[i, i], rho, s)
                    assert bound <= want * (1.0 + 1e-12) + 1e-12
                else:
                    want = jump_kernel_offdiag_integral(H[i, j], rho, s)
                assert got[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS (200 configs, {elapsed:.2f}s)")


def test_acceptance_2_cauchy_kernel_identity():
    """Kernel formula equals direct propagation of (O, I) data to 1e-10."""
    rng = np.random.default_rng(303)
    for model in _step_models():
        grid = sorted({0.0, *np.round(rng.uniform(0.0, model.X, 4), 6), model.X})
        pair = fundamental_pair(model, 0.0, grid)
        pts = [g for g in grid]
        for t in pts[:3]:
            for x in pts:
                if x < t:
                    continue
                direct = transfer(model, 0.0, t, x)[:model.n, model.n:]
                formula = cauchy_kernel(pair, x, t)
                scale = max(1.0, frobenius_norm(direct))
                assert frobenius_norm(formula - direct) <= 1e-10 * scale
            diag = cauchy_kernel(pair, t, t)
            scale = max(1.0, frobenius_norm(pair.phi[pts.index(t)])
                        * frobenius_norm(pair.psi[pts.index(t)]))
            assert frobenius_norm(diag) <= 1e-12 * scale
    print("\nACCEPTANCE 2: PASS (50 models)")


def test_acceptance_3_green_identity():
    """Pairing integral equals the boundary form difference to 1e-8."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        pieces = int(rng.integers(1, 6))
        cuts = [0.0] + sorted(rng.uniform(0.3, 4.7, pieces - 1).tolist())
        values = tuple(random_symmetric(rng, n, 2.0) for _ in range(pieces))
        model = StepSigma(n, tuple(cuts), values, 5.0)
        u = AdmissiblePoly.random(model, rng)
        v = AdmissiblePoly.random(model, rng)
        alpha, beta = sorted(rng.uniform(0.0, 5.0, 2).tolist())
        lhs = pairing_integral(model, u, v, alpha, beta)
        rhs = (green_form(u.quasi_state(alpha), v.quasi_state(alpha))
               - green_form(u.quasi_state(beta), v.quasi_state(beta)))
        assert abs(lhs - rhs) <= 1e-8
    print("\nACCEPTANCE 3: PASS (50 pairs)")


def test_acceptance_4_solution_kernel_inequality():
    """No violations of lhs >= rhs on the criterion 1 and 2 model sets."""
    checked = 0
    for model, a, c, b, _ in _single_jump_configs(60):
        pair = fundamental_pair(model, 0.0, [0.0, model.X])
        lhs, rhs = solution_kernel_inequality(pair, float(a), float(b))
        assert lhs >= rhs * (1.0 - 1e-12) - 1e-12
        checked += 1
    rng = np.random.default_rng(505)
    for model in _step_models(40):
        pair = fundamental_pair(model, 0.0, [0.0, model.X])
        a, b = sorted(rng.uniform(0.0, model.X, 2).tolist())
        lhs, rhs = solution_kernel_inequality(pair, a, b)
        assert lhs >= rhs * (1.0 - 1e-12) - 1e-12
        checked += 1
    print(f"\nACCEPTANCE 4: PASS ({checked} intervals, zero violations)")


def test_acceptance_5_lattice_correspondence():
    """Recurrence residual of rescaled node samples stays below 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = rng.uniform(0.05, 2.0, 50)
        jumps = tuple(random_symmetric(rng, n, 5.0) for _ in range(50))
        model = DeltaNodes.from_spacings(n, d, jumps)
        seed = QuasiState(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        assert equivalence_residual(model, 47, seed) <= 1e-9
    d, H = christ_stolz_family(205)
    model = DeltaNodes.from_spacings(1, d[:200], H[:200], tail=1.0)
    assert equivalence_residual(model, 197, QuasiState([0.4], [1.0])) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 20.0
    print(f"\nACCEPTANCE 5: PASS (100 random families + harmonic lattice, {elapsed:.2f}s)")


def test_acceptance_6_block_norm_bounds_and_carleman():
    """Spacing bounds always hold; constant lattice terms are exactly 2."""
    rng = np.random.default_rng(707)
    for _ in range(1000):
        length = int(rng.integers(3, 12))
        d = 10.0 ** rng.uniform(-2.0, 2.0, length)
        n = int(rng.integers(1, 5))
        assert carleman_spacing_bounds(d, n=n)
    blocks = blocks_from_delta([1.0] * 30, [np.zeros((1, 1))] * 30)
    rep = carleman_report(blocks, 25)
    assert all(t == 2.0 for t in rep.terms)
    assert rep.verdict == DIVERGES
    print("\nACCEPTANCE 6: PASS (1000 spacing draws; constant-lattice terms exact)")


def test_acceptance_7_product_series_certification():
    """Harmonic cancel family certifies; constant spacings are refused.

    The (b)-series terms vanish exactly; the (a)-series earns a ratio
    certificate (Raabe statistic from consecutive-term ratios) at N = 1e4.
    """
    d, H = christ_stolz_family(20002)
    res = t7_check(d, H, 10_000)
    for rep in res.series_b:
        assert all(t == 0.0 for t in rep.terms)
    for rep in res.series_a:
        assert rep.verdict == CONVERGES
        assert "Raabe" in rep.verdict_basis
    assert res.limit_circle_certified

    verdict = classify(gallery_entry("christ-stolz").problem,
                       gallery_entry("christ-stolz").config)
    assert verdict.classification == "LimitCircle"

    d1 = [1.0] * 44
    H1 = [np.zeros((1, 1))] * 43
    res1 = t7_check(d1, H1, 21)
    assert all(t == pytest.approx(2.0) for t in res1.series_a[0].terms)
    assert not res1.limit_circle_certified
    print("\nACCEPTANCE 7: PASS (N=10000 certified; constant lattice refused)")


def test_acceptance_8_interval_series_sanity():
    """Free model, 100 unit intervals: constant terms (1/12)**0.5, divergent."""
    model = StepSigma(1, (0.0,), (np.zeros((1, 1)),), 100.0)
    rep = t1_series(model, IntervalSeq.unit(100))
    want = math.sqrt(1.0 / 12.0)
    assert len(rep.terms) == 100
    assert all(abs(t - want) <= 1e-12 for t in rep.terms)
    assert rep.verdict == DIVERGES
    print("\nACCEPTANCE 8: PASS (uniform terms, DivergesProven)")


def test_acceptance_9_gallery_regression_and_determinism(capsys):
    """Every gallery entry reproduces its classification; reports are byte-stable."""
    for entry in gallery():
        assert entry.run().classification == entry.expected
    from sldl.cli import run

    argv = ["gallery", "run"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    doc = json.loads(first)
    assert all(e["match"] for e in doc["result"]["entries"])
    with capsys.disabled():
        print("\nACCEPTANCE 9: PASS (4 entries, byte-identical reruns)")
