import json
import math
import warnings
from functools import cached_property

import numpy as np
import pytest
import reference_march

from conftest import exact_square, frozen_floats, random_symmetric, spread_floats
from sldl import (
    ClassifyConfig,
    ConflictingEvidenceError,
    DeltaNodes,
    Evidence,
    IntervalSeq,
    LinearSigma,
    QuasiState,
    blocks_from_delta,
    christ_stolz_family,
    classify,
    cor3_check,
    equivalence_residual,
    gallery,
    gallery_entry,
    l2_tail_report,
    nodes_to_Z,
    resolve_classification,
    solve_recurrence,
    t2_predicate,
    t7_check,
)
from sldl.bridge import CRITERIA, classify_detailed
from sldl.jacobi import Lattice, blocks_from_lattice, cancel_jumps
from sldl.matcore import FloatRangeError, ShapeMismatchError
from sldl.quasidiff import StepModel, StepSigma
from sldl.reports import CONVERGES, DIVERGES, build_report


def free_lattice(count=30, n=1):
    return DeltaNodes(n, tuple(float(k) for k in range(1, count + 1)),
                      tuple(np.zeros((n, n)) for _ in range(count)),
                      float(count + 1))


# ---------------------------------------------------------------------------
# node rescaling and the residual oracle


def test_nodes_to_Z_free_case():
    d = [1.0] * 6
    samples = [np.array([float(k)]) for k in range(1, 7)]
    z = nodes_to_Z(samples, d)
    for k in range(1, 6):
        assert z[k - 1][0] == pytest.approx(math.sqrt(2.0) * k, rel=1e-15)


def test_nodes_to_Z_zero_and_shape():
    z = nodes_to_Z([np.zeros(2)] * 4, [0.5] * 4)
    assert np.all(z == 0.0)
    with pytest.raises(ShapeMismatchError):
        nodes_to_Z([np.zeros(2)] * 3, [0.5] * 4)


def test_equivalence_residual_free_lattice():
    model = free_lattice(20)
    res = equivalence_residual(model, 15, QuasiState([0.0], [1.0]))
    assert res <= 1e-12


def test_equivalence_residual_random_families():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        count = 30
        d = rng.uniform(0.05, 2.0, count)
        jumps = tuple(random_symmetric(rng, n, 5.0) for _ in range(count))
        model = DeltaNodes.from_spacings(n, d, jumps)
        seed = QuasiState(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        assert equivalence_residual(model, count - 3, seed) <= 1e-10


def test_equivalence_residual_cancel_family():
    d, H = christ_stolz_family(120)
    model = DeltaNodes.from_spacings(1, d[:119], H[:119], tail=1.0)
    res = equivalence_residual(model, 116, QuasiState([0.3], [1.0]))
    assert res <= 1e-9


def test_equivalence_residual_christ_stolz_2000_nodes():
    # sigma reaches about -4e6 here; the node samples come from one
    # classical march, not from per-node round trips through quasi coordinates
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    assert equivalence_residual(model, 1997, QuasiState([0.0], [1.0])) <= 1e-11


def test_equivalence_residual_requires_delta_model():
    from sldl import StepSigma

    with pytest.raises(TypeError):
        equivalence_residual(StepSigma(1, (0.0,), (np.zeros((1, 1)),), 2.0),
                             3, QuasiState([0.0], [1.0]))
    with pytest.raises(ValueError):
        equivalence_residual(free_lattice(4), 5, QuasiState([0.0], [1.0]))


@pytest.mark.parametrize("n, seed", [
    (1, QuasiState([0.3, 0.1], [1.0, 0.2])),
    (2, QuasiState([0.3], [1.0])),
], ids=["order-2-seed-on-order-1", "order-1-seed-on-order-2"])
def test_equivalence_residual_refuses_a_seed_of_another_order(n, seed):
    # an order-2 seed on an order-1 model was marched as two state columns
    d, H = christ_stolz_family(41, n)
    model = DeltaNodes.from_spacings(n, d[:40], H[:40], tail=d[40])
    with pytest.raises(ShapeMismatchError, match="^state order does not match the model$"):
        equivalence_residual(model, 30, seed)


@pytest.mark.parametrize("nodes", [500, 1000, 2000])
def test_christ_stolz_residual_equals_the_per_k_loop(nodes):
    d, H = christ_stolz_family(nodes + 1)
    model = DeltaNodes.from_spacings(1, d[:nodes], H[:nodes], tail=d[nodes])
    rng = np.random.default_rng(nodes)
    states = [QuasiState([0.0], [1.0])] + [QuasiState(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
                                           for _ in range(3)]
    for state in states:
        assert (equivalence_residual(model, nodes - 3, state)
                == reference_march.equivalence_residual(model, nodes - 3, state))


def test_random_delta_residual_equals_the_per_k_loop():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        d = rng.uniform(0.05, 2.0, 40)
        model = DeltaNodes.from_spacings(n, d, [random_symmetric(rng, n, 5.0) for _ in d])
        state = QuasiState(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        assert state.f.dtype == state.f1.dtype == np.float64  # so Z and the summands are real
        for count in (1, 20, 37):
            assert (equivalence_residual(model, count, state)
                    == reference_march.equivalence_residual(model, count, state))


def test_nodes_to_Z_equals_the_per_node_rescaling_on_2000_nodes():
    d, H = christ_stolz_family(2001)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    samples = reference_march.fundamental_samples(model, 0.0, (0.0,) + model.nodes)[1:, :1, 0]
    # complex samples with zero imaginary parts rescale in float64, others in complex128
    for n, f, dtype in ((1, samples, np.float64), (2, samples @ np.array([[1.0, -0.5j]]), np.complex128)):
        got, want = nodes_to_Z(f, model.spacings), reference_march.nodes_to_Z(list(f), model.spacings)
        assert got.shape == (1999, n) and got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [0, -4])
def test_equivalence_residual_rejects_count_below_one(count):
    with pytest.raises(ValueError, match=f"count must be at least 1, got {count}$"):
        equivalence_residual(free_lattice(20), count, QuasiState([0.0], [1.0]))


# ---------------------------------------------------------------------------
# l2 trend reports


def test_l2_growing_sequence_diverges():
    z = [np.array([math.sqrt(2.0) * k]) for k in range(1, 40)]
    rep = l2_tail_report(z)
    assert rep.verdict == DIVERGES


def test_l2_geometric_sequence_converges():
    z = [np.array([2.0 ** -k]) for k in range(40)]
    rep = l2_tail_report(z)
    assert rep.verdict == CONVERGES


def per_row_l2_terms(z):
    return [float(np.square(np.linalg.norm(np.asarray(zk).reshape(-1)))) for zk in z]


def test_l2_terms_equal_the_per_row_norms():
    d, H = christ_stolz_family(20_002)
    blocks = blocks_from_delta(d, H)
    rng = np.random.default_rng(31)
    seqs = [solve_recurrence(blocks, u0, u1, 20_000) for u0, u1 in (([1.0], [0.0]), ([0.0], [1.0]))]
    seqs.append(rng.normal(size=(5000, 1)) * 10.0 ** rng.integers(-8, 8, (5000, 1)))
    seqs.append(rng.normal(size=(5000, 1)) + 1j * rng.normal(size=(5000, 1)))
    seqs.append(rng.normal(size=5000).tolist())
    for n in (2, 3):
        seqs.append(rng.normal(size=(2000, n)) + 1j * rng.normal(size=(2000, n)))
    for z in seqs:
        assert np.array_equal(l2_tail_report(z).terms, per_row_l2_terms(z))


def test_l2_terms_are_the_correctly_rounded_squares():
    """An n = 1 term is fl(u * u) wherever the row norm sqrt(fl(u * u)) is |u| again."""
    d, H = christ_stolz_family(20_002)
    march = solve_recurrence(blocks_from_delta(d, H), [1.0], [0.0], 20_000)
    assert not march.imag.any()
    for u in (np.abs(march.real[:, 0]), spread_floats(2602)):
        terms = np.array(l2_tail_report(u.reshape(-1, 1)).terms)
        keep = np.sqrt(u * u) == u
        assert keep.mean() > 0.5
        assert any(v ** 2 != v * v for v in u[keep].tolist())  # where pow misrounds
        assert terms[keep].tolist() == [exact_square(v) for v in u[keep].tolist()]


def test_squares_past_the_float_range_read_inf_and_zero_without_warnings():
    linear = LinearSigma(1, (0.0, 1e300), (np.zeros((1, 1)), np.eye(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l2 = l2_tail_report([[1e200], [1e-200], [1e154 + 1e-200j]]).terms
        cor3 = cor3_check((1e200, 1e-200, 1e154, 1.0, 1.0, 1.0), np.zeros((5, 1, 1)), 3).cond2
        t2 = t2_predicate(linear, IntervalSeq(((0.0, 1e-200), (1.0, 1e200)))).series
    assert frozen_floats(l2, (math.inf, 0.0, 1e308))
    assert frozen_floats(cor3.terms, (math.inf, 0.0, 1e308))
    assert frozen_floats(t2.terms, (0.0, math.inf))


def test_l2_empty_rejected():
    with pytest.raises(ValueError):
        l2_tail_report([])


def test_l2_cancel_family_solutions_certified():
    d, H = christ_stolz_family(10_000)
    blocks = blocks_from_delta(d, H)
    for seed in (([1.0], [0.0]), ([0.0], [1.0])):
        u = solve_recurrence(blocks, seed[0], seed[1], 9_000)
        rep = l2_tail_report(u)
        assert rep.verdict == CONVERGES, rep.verdict_basis


# ---------------------------------------------------------------------------
# classification precedence


def ev(criterion, implies):
    return Evidence(criterion, "DivergesProven", "test", implies)


def test_resolution_precedence():
    assert resolve_classification([]) == "Inconclusive"
    assert resolve_classification([ev("carleman", "LimitPoint")]) == "LimitPoint"
    assert resolve_classification([ev("t7", "LimitCircle")]) == "LimitCircle"
    assert resolve_classification([ev("t1", "NotLimitCircle")]) == "NotLimitCircle"
    # limit point implies not limit circle: both may be certified together
    both = [ev("carleman", "LimitPoint"), ev("t1", "NotLimitCircle")]
    assert resolve_classification(both) == "LimitPoint"


def test_conflicting_evidence_raises():
    with pytest.raises(ConflictingEvidenceError):
        resolve_classification([ev("t7", "LimitCircle"), ev("carleman", "LimitPoint")])
    with pytest.raises(ConflictingEvidenceError):
        resolve_classification([ev("t7", "LimitCircle"), ev("t1", "NotLimitCircle")])


def test_classify_free_lattice_evidence():
    model = free_lattice(40)
    verdict = classify(model, ClassifyConfig(intervals=IntervalSeq.unit(30), N=30))
    assert verdict.classification == "LimitPoint"
    assert verdict.side == "Both"
    by_name = {e.criterion: e for e in verdict.evidence}
    assert by_name["t1"].verdict == DIVERGES
    assert by_name["carleman"].verdict == DIVERGES
    assert by_name["cor2:diag:1"].verdict == DIVERGES
    assert by_name["t7"].verdict == "NotCertified"


@pytest.mark.parametrize("cuts", [2, 3, 6])
def test_classify_step_values_asymmetric_within_the_tolerance(cuts):
    # each value passes the real-symmetric check and is stored as its upper
    # triangle mirrored, so the lattice's changes of sigma are symmetric too
    from sldl import StepSigma
    from sldl.matcore import HERMITIAN_TOL

    rng = np.random.default_rng(cuts)
    upper = [np.triu(rng.uniform(-1.0, 1.0, (2, 2))) for _ in range(cuts)]
    tilt = np.array([[0.0, 0.9 * HERMITIAN_TOL], [0.0, 0.0]])
    tilted = [u + np.triu(u, 1).T + (tilt if k % 2 else tilt.T) for k, u in enumerate(upper)]
    mirrored = [np.triu(v) + np.triu(v, 1).T for v in tilted]
    config = ClassifyConfig(criteria=("cor2", "carleman", "t7", "cor3"))
    got, want = (classify_detailed(StepSigma(2, tuple(map(float, range(cuts))), values,
                                             float(cuts)), config)
                 for values in (tilted, mirrored))
    assert got[0] == want[0]
    assert [r.to_json() for r in got[1]] == [r.to_json() for r in want[1]]
    assert len(got[1]) == {2: 0, 3: 3, 6: 10}[cuts]  # 3 cor2 channels, then 7 block reports


def test_classify_harmonic_zero_jumps_inconclusive():
    d = tuple(1.0 / k for k in range(1, 80))
    model = DeltaNodes.from_spacings(1, d, tuple(np.zeros((1, 1)) for _ in d))
    verdict = classify(model, ClassifyConfig(N=30))
    assert verdict.classification == "Inconclusive"


def test_classify_general_triple_runs_interval_series_only():
    from sldl import GeneralTriple

    sig = np.array([[0.4]])
    model = GeneralTriple(1, (0.0,), (np.eye(1),), (-sig @ sig,), (sig,), 30.0)
    verdict = classify(model, ClassifyConfig(intervals=IntervalSeq.unit(25)))
    assert [e.criterion for e in verdict.evidence] == ["t1"]
    assert verdict.side == "Continuous"
    assert verdict.classification == "NotLimitCircle"


def test_classify_blocks_with_provenance():
    d, H = christ_stolz_family(400)
    blocks = blocks_from_delta(d, H)
    verdict = classify(blocks, ClassifyConfig(N=150))
    assert verdict.classification == "LimitCircle"
    assert verdict.side == "Both"  # cor2 runs off the provenance lattice data


def test_classify_raw_blocks_carleman_only():
    blocks = blocks_from_delta([1.0] * 20, [np.zeros((1, 1))] * 20)
    bare = blocks.__class__(blocks.n, blocks.A, blocks.B)
    verdict = classify(bare, ClassifyConfig(N=15))
    assert verdict.classification == "LimitPoint"
    assert verdict.side == "Discrete"
    assert [e.criterion for e in verdict.evidence] == ["carleman"]


def test_classify_criteria_filter():
    model = free_lattice(40)
    verdict = classify(model, ClassifyConfig(N=30, criteria=("cor2",)))
    assert all(e.criterion.startswith("cor2") for e in verdict.evidence)
    assert verdict.classification == "NotLimitCircle"


def test_classify_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        ClassifyConfig(criteria=("t1", "bogus"))


@pytest.mark.parametrize("N", [0, -3])
def test_classify_config_refuses_N_below_one(N):
    # only the lattice series read N, so a step model used to classify with N < 1
    with pytest.raises(ValueError, match="^N must be at least 1$"):
        ClassifyConfig(N=N)


def test_gallery_evidence_codes_and_sides_come_from_the_table():
    side_of = {c.code: c.side for c in CRITERIA}
    for entry in gallery():
        verdict = entry.run()
        codes = [e.criterion.split(":")[0] for e in verdict.evidence]
        assert codes and set(codes) <= set(side_of)
        sides = {side_of[c] for c in codes}
        assert verdict.side == ("Both" if len(sides) == 2 else sides.pop())


def test_classify_builds_one_lattice_and_one_shifted_stack(monkeypatch):
    # a delta model holds one validated Lattice: over the model's lifetime one
    # Lattice is built (by the constructor, or from the data the model checked)
    # and its shifted jumps H_k + (1/d_k + 1/d_{k+1}) I once, however often
    # classify and the equivalence residual read it. carleman's blocks stand on
    # a window of it, one per classify: views of its first N + 2 spacings, with
    # shifted jumps over that window alone
    d, H = christ_stolz_family(2001)
    config = gallery_entry("christ-stolz").config
    built, shifted = [], []
    validate, shift, checked = Lattice.__post_init__, Lattice.shifted_jumps.func, Lattice.checked

    def counted_validate(self):
        built.append(self)
        validate(self)

    def counted_checked(d, H):
        built.append(checked(d, H))
        return built[-1]

    def counted_shift(self):
        shifted.append(self)
        return shift(self)

    counted = cached_property(counted_shift)
    counted.__set_name__(Lattice, "shifted_jumps")
    monkeypatch.setattr(Lattice, "__post_init__", counted_validate)
    monkeypatch.setattr(Lattice, "checked", staticmethod(counted_checked))
    monkeypatch.setattr(Lattice, "shifted_jumps", counted)
    model = DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000])
    for _ in range(2):
        verdict, _ = classify_detailed(model, config)
        assert {"cor2:diag:1", "carleman", "t7", "cor3"} <= {e.criterion for e in verdict.evidence}
    assert equivalence_residual(model, 1997, QuasiState([0.0], [1.0])) <= 1e-11
    lattice = model.lattice
    windows = [lat for lat in built if lat is not lattice]
    assert len(built) == 3 and len(windows) == 2
    assert [lat for lat in shifted if lat is not lattice] == windows
    assert len(shifted) == 3
    for w in windows:  # views, neither copied nor checked again
        assert len(w.d) == config.N + 2
        assert np.shares_memory(w.d, lattice.d) and np.shares_memory(w.H, lattice.H)


def test_classify_of_a_step_model_builds_no_lattice(monkeypatch):
    # a step model holds the lattice of its changes of sigma, built with the model;
    # classify and its lattice criteria read that one, and carleman's blocks a view
    # of its first N + 2 spacings
    cuts = (0.0, *(k + (k % 7) / 8 for k in range(1, 60)))
    model = StepSigma(1, cuts, [[[((37 * k) % 13 - 6) / 4]] for k in range(60)], 60.5)
    validated, windows = [], []
    validate, checked = Lattice.__post_init__, Lattice.checked
    monkeypatch.setattr(Lattice, "__post_init__",
                        lambda self: validated.append(self) or validate(self))
    monkeypatch.setattr(Lattice, "checked", staticmethod(
        lambda d, H: windows.append(d) or checked(d, H)))
    configs = (ClassifyConfig(), ClassifyConfig(N=5, criteria=("t7", "cor3", "carleman")))
    for config in configs:
        verdict, _ = classify_detailed(model, config)
        assert {"carleman", "t7", "cor3"} <= {e.criterion for e in verdict.evidence}
    assert validated == []
    assert [len(d) for d in windows] == [min(len(model.lattice.d), c.N + 2) for c in configs]
    assert all(np.shares_memory(d, model.lattice.d) for d in windows)


def test_classify_builds_blocks_over_each_criterions_window_alone(monkeypatch):
    # carleman reads B_1 .. B_N, the blocks of the first N + 2 spacings, and t4 the
    # rows up to its largest segment end; neither builds the blocks of the whole lattice
    import sldl.bridge as bridge

    built = []
    monkeypatch.setattr(bridge, "blocks_from_lattice",
                        lambda lat: built.append(len(lat.d)) or blocks_from_lattice(lat))
    d, H = christ_stolz_family(10_001)
    model = DeltaNodes.from_spacings(1, d[:10_000], H[:10_000], tail=d[10_000])
    classify_detailed(model, ClassifyConfig(N=200))
    assert built == [202]
    built.clear()
    classify_detailed(model, ClassifyConfig(N=200, segments=((1, 100), (101, 300))))
    assert built == [202, 302]


def test_a_block_past_the_float_range_outside_carlemans_window_keeps_its_proof():
    # d_k = 1/4 with one jump of 1e308 at k = 150 makes A_150 overflow. carleman at
    # N = 50 reads B_1 .. B_50 only, so its divergence proof stands: one finite jump
    # is a finite-rank perturbation of a limit point lattice. t4 over rows that
    # reach A_150 cannot build them
    H = np.zeros((200, 1, 1))
    H[149] = 1e308
    model = DeltaNodes.from_spacings(1, [0.25] * 200, H)
    verdict, _ = classify_detailed(model, ClassifyConfig(N=50, segments=((1, 40), (100, 160))))
    by_name = {e.criterion: e for e in verdict.evidence}
    assert verdict.classification == "LimitPoint"
    assert (by_name["carleman"].verdict, by_name["carleman"].implies) == (DIVERGES, "LimitPoint")
    assert by_name["carleman"].basis.startswith("eventually constant positive terms")
    assert (by_name["t4"].verdict, by_name["t4"].basis) == (
        "Inconclusive",
        "not evaluated: lattice blocks overflow: spacings too small or jumps too large")
    # two spacings of 1e300 at the end make B_198 = -0 (r_199^2 r_200^2 overflows); past
    # N + 2 = 52 spacings it is never built
    model = _zero_block_model()
    verdict, _ = classify_detailed(model, ClassifyConfig(N=50))
    assert verdict.classification == "LimitPoint"
    assert [e.verdict for e in verdict.evidence if e.criterion == "carleman"] == [DIVERGES]


def _zero_block_model():
    """198 unit spacings, then two of 1e300 (tail 1e300), zero jumps: B_198 reads -0."""
    return DeltaNodes.from_spacings(1, [1.0] * 198 + [1e300] * 2, np.zeros((200, 1, 1)),
                                    tail=1e300)


def test_a_zero_block_inside_carlemans_window_is_inconclusive_evidence():
    # B_198 = -0 is a block out of the float range, not a singular input: its build raised
    # a plain ValueError ("off-diagonal blocks must be invertible") out of classify
    model = _zero_block_model()
    message = "lattice blocks underflow: spacings too large"
    with pytest.raises(FloatRangeError, match=f"^{message}$"):
        blocks_from_lattice(model.lattice)
    verdict, reports = classify_detailed(model, ClassifyConfig(N=250))
    carleman = [e for e in verdict.evidence if e.criterion == "carleman"]
    assert [(e.verdict, e.basis, e.implies) for e in carleman] == [
        ("Inconclusive", f"not evaluated: {message}", None)]
    assert all(r.criterion != "carleman" for r in reports)


def _t4_overflow():
    """Unit spacings, jumps 8 and 600 nodes: the t4 sum of segment 121-300 overflows."""
    return (blocks_from_delta([1.0] * 600, np.full((599, 1, 1), 8.0)),
            ClassifyConfig(segments=((1, 40), (41, 120), (121, 300))))


def test_classify_takes_an_overflowing_criterion_as_inconclusive_evidence():
    # the t4 sum leaves the float range at row 277; classify raised that error
    blocks, config = _t4_overflow()
    verdict, reports = classify_detailed(blocks, config)
    by_name = {e.criterion: e for e in verdict.evidence}
    t4 = by_name["t4"]
    assert (t4.verdict, t4.implies) == ("Inconclusive", None)
    assert t4.basis == "not evaluated: the t4 sum leaves the float range at row 277"
    assert all(r.criterion != "t4" for r in reports)
    # the other criteria are unchanged, so carleman still certifies
    without = classify_detailed(blocks, ClassifyConfig())[0]
    assert verdict.classification == without.classification == "LimitPoint"
    assert [e for e in verdict.evidence if e.criterion != "t4"] == list(without.evidence)


def _float_range_sites():
    from sldl import (Diagonal, GeneralTriple, StepSigma, cor2_series,
                      kernel_square_integrals, t4_term)
    from sldl.quasidiff import transfer

    huge_step = StepSigma(1, (0.0, 0.5, 1.5), [[[0.0]], [[1e200]], [[0.0]]], 3.0)
    huge_delta = DeltaNodes(1, [float(k) for k in range(1, 41)], [[[1e200]]] * 40, 41.0)
    return {
        "criteria._exact": (lambda: kernel_square_integrals(huge_step, 0.0, 1.0),
                            "kernel quadrature overflowed on (0.0, 1.0)"),
        "criteria._jump_terms": (lambda: cor2_series([1e160] * 5, np.zeros((4, 1, 1)),
                                                     Diagonal(1)),
                                 "the jump series leaves the float range at term 1"),
        "quasidiff._scaling_exponent": (
            lambda: kernel_square_integrals(GeneralTriple(1, (0.0,), [[[1.0]]], [[[4e307]]],
                                                          [[[0.0]]], 1.0), 0.0, 1.0),
            "the matrix exponential cannot scale a norm of 6.928e+307"),
        "quasidiff._march": (lambda: transfer(huge_delta, 0.0, 0.0, 41.0),
                             "the march leaves the float range at x = 3.0"),
        "jacobi.blocks_from_lattice": (
            lambda: blocks_from_delta([1e-300] * 4, np.full((3, 1, 1), -1.0)),
            "lattice blocks overflow: spacings too small or jumps too large"),
        "jacobi._march": (
            lambda: solve_recurrence(blocks_from_delta([1.0] * 100, np.full((99, 1, 1), 1e300)),
                                     [1.0], [1.0], 100),
            "the recurrence leaves the float range at step 2 (u_3)"),
        "jacobi.t4_term": (
            lambda: t4_term(blocks_from_delta([1.0] * 50, np.full((49, 1, 1), 1e200)), 1, 40),
            "the t4 sum leaves the float range at row 3"),
    }


@pytest.mark.parametrize("site", [
    "criteria._exact", "criteria._jump_terms", "quasidiff._scaling_exponent", "quasidiff._march",
    "jacobi.blocks_from_lattice", "jacobi._march", "jacobi.t4_term"])
def test_each_float_range_failure_raises_float_range_error(site):
    # a ValueError, so the single-criterion leaves keep exit 2, and the one class
    # classify takes as Inconclusive evidence
    from sldl.matcore import FloatRangeError

    build, message = _float_range_sites()[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError) as caught:
            build()
    assert str(caught.value) == message and isinstance(caught.value, ValueError)


def test_classify_catches_only_the_float_range_error(monkeypatch):
    # a criterion's items before the error are kept; any other error propagates
    import sldl.bridge as bridge
    from sldl.matcore import FloatRangeError

    def runner(error):
        def run(s):
            yield "cor2:diag:1", [], "ConvergesBounded", "first"
            raise error
        return run

    model = free_lattice(30)
    for error in (FloatRangeError("past the range"), ValueError("past the range")):
        patched = tuple(c._replace(run=runner(error)) if c.code == "cor2" else c
                        for c in CRITERIA)
        monkeypatch.setattr(bridge, "CRITERIA", patched)
        if type(error) is ValueError:
            with pytest.raises(ValueError, match="^past the range$"):
                classify_detailed(model, ClassifyConfig(N=20))
            continue
        evidence = classify_detailed(model, ClassifyConfig(N=20))[0].evidence
        assert [(e.criterion, e.verdict, e.basis) for e in evidence[:2]] == [
            ("cor2:diag:1", "ConvergesBounded", "first"),
            ("cor2", "Inconclusive", "not evaluated: past the range")]


def test_classify_builds_overflowing_blocks_once(monkeypatch):
    # carleman and t4 each build the blocks of their own window once, here all 40
    # spacings (N + 2 = 202) and the first 12 (segment end 10 + 2); both windows
    # overflow, so each criterion gives the same Inconclusive item
    import sldl.bridge as bridge

    calls = []

    def counted(lat):
        calls.append(lat)
        return blocks_from_lattice(lat)

    monkeypatch.setattr(bridge, "blocks_from_lattice", counted)
    model = DeltaNodes.from_spacings(1, [1e-300] * 40, np.zeros((40, 1, 1)))
    verdict, _ = classify_detailed(model, ClassifyConfig(segments=((1, 5), (6, 10))))
    assert [len(lat.d) for lat in calls] == [40, 12]
    basis = "not evaluated: lattice blocks overflow: spacings too small or jumps too large"
    assert [(e.criterion, e.verdict, e.basis) for e in verdict.evidence[1:3]] == [
        ("carleman", "Inconclusive", basis), ("t4", "Inconclusive", basis)]
    assert [e.criterion for e in verdict.evidence] == ["cor2:diag:1", "carleman", "t4", "t7",
                                                       "cor3"]


def test_classify_reports_align_with_evidence():
    model = free_lattice(30)
    verdict, reports = classify_detailed(model, ClassifyConfig(N=20))
    assert len(reports) >= len(verdict.evidence)
    assert {r.criterion for r in reports} >= {"carleman", "cor2"}


# ---------------------------------------------------------------------------
# gallery


def test_gallery_contract():
    entries = gallery()
    assert len(entries) >= 4
    names = [e.name for e in entries]
    assert names == ["free-lattice", "christ-stolz", "monotone-sigma",
                     "offdiagonal-divergence"]
    assert gallery_entry("christ-stolz").expected == "LimitCircle"
    assert gallery_entry("free-lattice").expected == "LimitPoint"
    with pytest.raises(KeyError):
        gallery_entry("nope")


@pytest.mark.parametrize("name", ["free-lattice", "christ-stolz",
                                  "monotone-sigma", "offdiagonal-divergence"])
def test_gallery_reproduces_expected(name):
    entry = gallery_entry(name)
    verdict = entry.run()
    assert verdict.classification == entry.expected


def test_gallery_run_builds_each_entry_once(monkeypatch, capsys):
    from sldl import bridge
    from sldl.cli import run

    calls = {}
    for name, build in list(bridge._GALLERY.items()):
        def counted(name=name, build=build):
            calls[name] = calls.get(name, 0) + 1
            return build()
        monkeypatch.setitem(bridge._GALLERY, name, counted)
    bridge.gallery_entry.cache_clear()
    assert run(["gallery", "run"]) == 0
    assert calls == {name: 1 for name in bridge._GALLERY}
    # built once per process: later lookups share the first entries
    assert run(["gallery", "run"]) == 0
    assert run(["gallery", "run", "christ-stolz"]) == 0
    assert calls == {name: 1 for name in bridge._GALLERY}
    capsys.readouterr()


def test_gallery_shares_its_entries_and_rejects_unknown_names_every_time():
    entries = gallery()
    assert entries == gallery() and entries is not gallery()
    assert [gallery_entry(e.name) for e in entries] == entries  # entries compare by identity
    for _ in range(2):
        with pytest.raises(KeyError, match="no gallery entry named 'nope'"):
            gallery_entry("nope")


def test_gallery_verdicts_deterministic():
    entry = gallery_entry("free-lattice")
    first = json.dumps(entry.run().to_json(), sort_keys=False)
    second = json.dumps(entry.run().to_json(), sort_keys=False)
    assert first == second


# ---------------------------------------------------------------------------
# a closed-form truth table for classify
#
# With zero jumps a delta model is the free operator on [0, sum d_k): a finite
# length leaves a regular end, so every solution is square integrable (limit
# circle at any order), and an infinite one is the free half-line (limit
# point). Unit spacings with constant jumps give a bounded Jacobi matrix,
# which is self-adjoint (limit point; Akhiezer, The Classical Moment Problem,
# 1965, ch. 1). The harmonic lattice with jumps -(2k + 1) is the christ-stolz
# family, limit circle, whether its jumps are written as integers or as
# ``cancel_jumps``. The last column pins what classify gives today, so a
# change that closes an Inconclusive row moves it.

TRUTH_COUNT = 1200


def _power(p):
    return [float(k) ** -p for k in range(1, TRUTH_COUNT + 2)]


_HARMONIC = [1.0 / k for k in range(1, TRUTH_COUNT + 2)]
# name: (n, spacings d_1 .. d_1201, jumps, truth, classify today); a float
# jump h is h I at every node
TRUTH_TABLE = {
    **{f"zero p={p}": (1, _power(p), 0.0, "LimitPoint", "LimitPoint") for p in (0.0, 0.25, 0.5)},
    **{f"zero p={p}": (1, _power(p), 0.0, "LimitPoint", "Inconclusive") for p in (0.75, 1.0)},
    **{f"zero p={p}": (1, _power(p), 0.0, "LimitCircle", "Inconclusive") for p in (1.5, 2.0)},
    "n=2 zero p=0.5": (2, _power(0.5), 0.0, "LimitPoint", "LimitPoint"),
    "n=2 zero p=2.0": (2, _power(2.0), 0.0, "LimitCircle", "Inconclusive"),
    **{f"unit h={h}": (1, [1.0] * (TRUTH_COUNT + 1), h, "LimitPoint", "LimitPoint")
       for h in (-3.0, -1.0, 1.0, 5.0)},
    "harmonic integer jumps": (1, _HARMONIC, "integer", "LimitCircle", "Inconclusive"),
    "harmonic cancel_jumps": (1, _HARMONIC, "cancel", "LimitCircle", "LimitCircle"),
}
CONTRADICTS = {"LimitPoint": {"LimitCircle"}, "LimitCircle": {"LimitPoint", "NotLimitCircle"}}


@pytest.mark.parametrize("name", list(TRUTH_TABLE))
def test_classify_never_contradicts_a_known_truth(name):
    n, d, jumps, truth, today = TRUTH_TABLE[name]
    if jumps == "cancel":
        H = cancel_jumps(d, n)
    elif jumps == "integer":
        H = np.array([-(2.0 * k + 1.0) for k in range(1, TRUTH_COUNT + 1)]).reshape(-1, 1, 1)
    else:
        H = np.zeros((TRUTH_COUNT, n, n)) + jumps * np.eye(n)
    for problem in (DeltaNodes.from_spacings(n, d[:TRUTH_COUNT], H, tail=d[TRUTH_COUNT]),
                    blocks_from_delta(d[:TRUTH_COUNT], H)):
        got = classify(problem).classification
        assert got not in CONTRADICTS[truth]
        assert got == today


# ---------------------------------------------------------------------------
# array-holding records compare by identity


def _records():
    from sldl import (Distributional, GeneralTriple, LinearSigma, StepSigma, bridge,
                      fundamental_pair)

    zero, eye = np.zeros((1, 1)), np.eye(1)
    blocks = lambda: blocks_from_delta([1.0] * 5, [np.zeros((1, 1))] * 4)
    return {
        "JacobiBlocks": blocks,
        "Lattice": lambda: blocks().provenance,
        "StepSigma": lambda: StepSigma(1, (0.0,), (zero,), 2.0),
        "DeltaNodes": lambda: free_lattice(4),
        "GeneralTriple": lambda: GeneralTriple(1, (0.0,), (eye,), (zero,), (zero,), 2.0),
        "Distributional": lambda: Distributional(1, (0.0,), (eye,), (zero,), (zero,), 2.0),
        "LinearSigma": lambda: LinearSigma(1, (0.0, 1.0), (zero, eye)),
        "QuasiState": lambda: QuasiState([0.0], [1.0]),
        "FundamentalPair": lambda: fundamental_pair(free_lattice(4), 0.0, [0.0, 1.5]),
        "GalleryEntry": lambda: bridge._GALLERY["free-lattice"](),  # fresh; gallery_entry shares one
        "CriterionReport": lambda: build_report("x", [1.0, 2.0]),
        "T7Result": lambda: t7_check(*christ_stolz_family(6), 2),
        "Cor3Result": lambda: cor3_check(*christ_stolz_family(6), 3),
        "T2Result": lambda: t2_predicate(LinearSigma(1, (0.0, 1.0), (zero, eye)),
                                         IntervalSeq.unit(1)),
    }


def test_lattice_stacks_are_read_only():
    d, H = christ_stolz_family(6, 2)
    lat = blocks_from_delta(d, H).provenance
    assert np.array_equal(lat.d, d) and lat.d.dtype == float and not lat.d.flags.writeable
    for stack in (lat.H, lat.shifted_jumps):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
    # the cancel jumps' -0.0 off-diagonal entries read +0.0 in the shifted stack
    assert np.signbit(H[:, 0, 1]).all()
    assert lat.H.dtype == lat.shifted_jumps.dtype == float
    assert lat.shifted_jumps.tobytes() == np.zeros((5, 2, 2)).tobytes()


@pytest.mark.parametrize("d", [[1.0, 0.5, 1e-300, 1e300, 5e-324, 3.0], [], [1.0, 0.0],
                               [1.0, -0.0], [2.0, -1.0], [1.0, math.nan], [1.0, math.inf]])
def test_lattice_takes_a_float_array_and_a_tuple_alike(d):
    outcomes = []
    for spacings in (tuple(d), np.array(d, dtype=float)):
        try:
            lat = Lattice(spacings, np.zeros((max(len(d) - 1, 0), 1, 1)))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(frozen_floats(lat.d, d) and lat.d.tobytes())
    assert outcomes[0] == outcomes[1] and outcomes[0] is not False


def test_lattice_copies_a_float_array():
    d = spread_floats(3101, 1000)
    lat = Lattice(d, np.zeros((999, 1, 1)))
    assert lat.d.tobytes() == Lattice(tuple(d.tolist()), lat.H).d.tobytes()
    d[0] = 7.0
    assert lat.d[0] != 7.0 and d.flags.writeable and not lat.d.flags.writeable


def _arrays(obj, seen):
    """Every ndarray reachable from obj through sldl records, tuples, lists and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif type(obj).__module__.startswith("sldl."):
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, cached_property):
                getattr(obj, name)  # the lazy stacks are fields too, once read
        yield from _arrays(vars(obj), seen)


def test_models_and_gallery_entries_hold_no_writeable_array():
    from sldl import Distributional, GeneralTriple
    from sldl.quasidiff import CoefficientModel

    one, half = np.eye(1), 0.5 * np.eye(1)
    records = [make() for make in _records().values()] + [
        GeneralTriple(1, (0.0, 1.0), (one, 2.0 * one), (half, -half), (1j * half, half), 2.0),
        Distributional(1, (0.0, 1.0), (one, one), (half, -half), (half, half), 2.0)]
    assert {*CoefficientModel.__args__, LinearSigma} <= {type(r) for r in records}
    for entry in gallery():
        entry.run()  # a shared entry must come out of a run as it went in
    for obj in records + gallery():
        arrays = list(_arrays(obj, set()))
        assert arrays and [a.shape for a in arrays if a.flags.writeable] == [], type(obj)
        if isinstance(obj, StepModel):  # the walk reaches a step model's lattice
            assert {id(obj.lattice.d), id(obj.lattice.H)} <= {id(a) for a in arrays}


@pytest.mark.parametrize("name", list(_records()))
def test_array_records_compare_by_identity_and_hash(name):
    # the generated __eq__/__hash__ would compare and hash numpy arrays
    make = _records()[name]
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2
    assert hash(a) == hash(a)
