"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_sldl()

import sldl  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _sldl_functions():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "sldl" or name.startswith("sldl.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    units = dict(run.per_layer_metrics()) if trace else dict(run.END_TO_END)
    for name, unit in units.items():
        assert any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_gives_the_same_ops_and_failures():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "kernel-t1", "--seed", "4", "--seconds", "6",
                      "--trace", "0", "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert [(r["attempted"], r["failed"]) for r in results] == [
        (results[0]["attempted"], results[0]["failed"])] * 2
    assert results[0]["attempted"] == 2 * sum(workloads.KernelT1(4, "tiny").mix.values())


@pytest.mark.parametrize("workload", ["gallery-cli", "lattice-march"])
def test_traced_run_restores_sldl_and_self_time_fits_wall_time(workload):
    before = _sldl_functions()
    post_inits = {cls: cls.__dict__["__post_init__"]
                  for cls in (sldl.DeltaNodes, sldl.JacobiBlocks)}
    res = run.traced(workload, 5, 1.0, "tiny")
    after = _sldl_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(cls.__dict__["__post_init__"] is fn for cls, fn in post_inits.items())
    samples = res["samples"]
    assert samples["wrapped_self_s"] <= samples["traced_wall_s"]
    assert not samples["not_found"]
    metrics = res["metrics"]
    assert sum(metrics[f"{fn}.self_s"] for fn in tracer.FUNCTION_NAMES) <= samples["traced_wall_s"]
    if workload == "gallery-cli":
        # one outermost canonical_json per cli.run, however deep the report nests
        assert metrics["cli.canonical_json.calls"] == metrics["cli.run.calls"] > 0
        assert metrics["bridge.gallery.calls_per_op"] >= 1.0
    else:
        assert metrics["jacobi.t4_term.calls"] > 0
        assert metrics["quasidiff.DeltaNodes.init.calls"] > 0  # traced set-up


def test_tracer_wraps_every_alias_of_a_function():
    rec = tracer.Tracer()
    with rec:
        assert sldl.quasidiff.expm is sldl.criteria.expm
        assert sldl.criteria.expm.__wrapped__ is not None
        assert sldl.build_report is sldl.jacobi.build_report is sldl.reports.build_report
    assert not hasattr(sldl.criteria.expm, "__wrapped__")


def test_corrupted_output_counts_as_failed_op(monkeypatch):
    real = sldl.cli.canonical_json
    monkeypatch.setattr(sldl.cli, "canonical_json", lambda obj: real(obj) + " garbage")
    tally = run.Tally()
    wl = workloads.GalleryCli(1, "tiny")
    cycle = next(wl.cycles())
    for op in cycle:
        tally.run(op)
    assert len(tally.failures) == len(cycle)
    assert all(f["class"] == "error" and "invalid report" in f["reason"]
               for f in tally.failures)


def test_imprecise_kernel_value_is_a_precision_failure(monkeypatch):
    real = sldl.criteria.kernel_square_integrals
    monkeypatch.setattr(sldl.criteria, "kernel_square_integrals",
                        lambda *a, **k: real(*a, **k) * (1.0 + 1e-6))
    tally = run.Tally()
    wl = workloads.KernelT1(1, "tiny")
    for op in next(wl.cycles()):
        if op.kind == "b":
            tally.run(op)
    assert len(tally.failures) == wl.oracle_ops
    assert all(f["class"] == "precision" for f in tally.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gallery-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
