import json
import math

import numpy as np
import pytest

from conftest import random_symmetric
from sldl import (
    ClassifyConfig,
    ConflictingEvidenceError,
    DeltaNodes,
    Evidence,
    IntervalSeq,
    QuasiState,
    blocks_from_delta,
    christ_stolz_family,
    classify,
    equivalence_residual,
    gallery,
    gallery_entry,
    l2_tail_report,
    nodes_to_Z,
    resolve_classification,
    solve_recurrence,
)
from sldl.bridge import CRITERIA, classify_detailed
from sldl.matcore import ShapeMismatchError
from sldl.reports import CONVERGES, DIVERGES


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


def test_gallery_evidence_codes_and_sides_come_from_the_table():
    side_of = {c.code: c.side for c in CRITERIA}
    for entry in gallery():
        verdict = entry.run()
        codes = [e.criterion.split(":")[0] for e in verdict.evidence]
        assert codes and set(codes) <= set(side_of)
        sides = {side_of[c] for c in codes}
        assert verdict.side == ("Both" if len(sides) == 2 else sides.pop())


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
    assert run(["gallery", "run"]) == 0
    assert calls == {name: 1 for name in bridge._GALLERY}
    calls.clear()
    assert run(["gallery", "run", "christ-stolz"]) == 0
    assert calls == {"christ-stolz": 1}
    capsys.readouterr()


def test_gallery_verdicts_deterministic():
    entry = gallery_entry("free-lattice")
    first = json.dumps(entry.run().to_json(), sort_keys=False)
    second = json.dumps(entry.run().to_json(), sort_keys=False)
    assert first == second
