import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sldl
from sldl.bridge import CRITERIA
from sldl.cli import canonical_json, run, validate_report
from sldl.quasidiff import StepSigma, model_to_json

FREE_MODEL = {"n": 1, "X": 100.0, "variant": "step_sigma",
              "cuts": [0.0], "values": [[[0.0]]]}


@pytest.fixture
def free_model_file(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps(FREE_MODEL))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    if out.strip().startswith("{"):
        doc = json.loads(out)
        validate_report(doc)  # every emitted report re-validates
        return code, doc
    return code, out


# ---------------------------------------------------------------------------
# the three contract examples


def test_classify_gallery_christ_stolz(capsys):
    code, doc = run_json(capsys, ["classify", "--gallery", "christ-stolz"])
    assert code == 0
    assert doc["result"]["verdict"]["classification"] == "LimitCircle"
    validate_report(doc)


def test_criterion_t1_free_hundred_unit_intervals(capsys, free_model_file):
    code, doc = run_json(capsys, ["criterion", "t1", "--model", free_model_file,
                                  "--intervals", "unit:100"])
    assert code == 0
    rep = doc["result"]["reports"][0]
    want = (1.0 / 12.0) ** 0.5
    assert len(rep["terms"]) == 100
    assert all(abs(t - want) <= 1e-12 for t in rep["terms"])
    assert rep["verdict"] == "DivergesProven"


def test_jacobi_carleman_constant_spacings(capsys):
    code, doc = run_json(capsys, ["jacobi", "carleman", "--d", "const:1", "--N", "50"])
    assert code == 0
    rep = doc["result"]["reports"][0]
    assert rep["partial_sums"][-1] == 100.0
    assert rep["verdict"] == "DivergesProven"


# ---------------------------------------------------------------------------
# remaining subcommand surface


def test_criterion_cor2_channels(capsys):
    code, doc = run_json(capsys, ["criterion", "cor2", "--d", "const:1",
                                  "--count", "30", "--channel", "diag:1"])
    assert code == 0
    assert doc["result"]["reports"][0]["verdict"] == "DivergesProven"


def test_criterion_t5_and_cor1(capsys, tmp_path):
    data = {"intervals": [[0.0, 2.0], [3.0, 5.0]], "markers": [1.0, 4.0],
            "jumps": [[[0.0]], [[0.0]]]}
    path = tmp_path / "t5.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, ["criterion", "t5", "--data", str(path),
                                  "--channel", "diag:1"])
    assert code == 0
    assert doc["result"]["reports"][0]["criterion"] == "t5_diag"

    cor1 = {"lengths": [2.0, 2.0], "jumps": [[[0.0]], [[0.0]]]}
    path = tmp_path / "cor1.json"
    path.write_text(json.dumps(cor1))
    code, doc = run_json(capsys, ["criterion", "cor1", "--data", str(path),
                                  "--channel", "diag:1"])
    assert code == 0
    assert doc["result"]["reports"][0]["terms"][0] == pytest.approx(2 ** 2.5 * 3 ** 0.5)


def test_criterion_t2_linear_sigma(capsys, tmp_path):
    model = {"n": 1, "variant": "linear_sigma", "knots": [0.0, 50.0],
             "values": [[[0.0]], [[50.0]]]}
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(model))
    code, doc = run_json(capsys, ["criterion", "t2", "--model", str(path),
                                  "--intervals", "unit:50"])
    assert code == 0
    assert doc["config"]["hypothesis_ok"] is True
    assert doc["result"]["reports"][0]["verdict"] == "DivergesProven"


def test_jacobi_build_recurrence_cauchy_t4(capsys):
    code, doc = run_json(capsys, ["jacobi", "build", "--d", "const:1", "--count", "6"])
    assert code == 0
    assert doc["result"]["blocks"]["A"][1] == [[1.0]]

    code, doc = run_json(capsys, ["jacobi", "recurrence", "--d", "const:1",
                                  "--u0", "0", "--u1", "1", "--steps", "6"])
    assert code == 0
    assert [v[0] for v in doc["result"]["sequence"]] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    code, doc = run_json(capsys, ["jacobi", "cauchy", "--d", "const:1",
                                  "--i", "4", "--j", "3"])
    assert code == 0
    assert doc["result"]["K"] == [[-2.0]]

    code, doc = run_json(capsys, ["jacobi", "t4", "--d", "const:1",
                                  "--segments", "3-4,5-6"])
    assert code == 0
    assert doc["result"]["reports"][0]["terms"][0] == pytest.approx(2.0)


def test_jacobi_data_file_input(capsys, tmp_path):
    data = {"d": [1.0] * 12, "H": [[[0.0]]] * 11, "N": 8}
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, ["jacobi", "carleman", "--data", str(path)])
    assert code == 0
    rep = doc["result"]["reports"][0]
    assert len(rep["terms"]) == 8 and rep["terms"][0] == 2.0
    code = run(["jacobi", "carleman"])
    assert code == 2  # neither --d nor --data


def test_jacobi_t7_and_cor3(capsys):
    code, doc = run_json(capsys, ["jacobi", "t7", "--d", "harmonic", "--H", "cancel",
                                  "--n", "1", "--N", "40", "--count", "90"])
    assert code == 0
    assert doc["result"]["limit_circle_certified"] is True

    code, doc = run_json(capsys, ["jacobi", "cor3", "--d", "harmonic", "--H", "cancel",
                                  "--N", "40", "--count", "90"])
    assert code == 0
    assert doc["result"]["limit_circle_certified"] is True
    assert doc["result"]["cond1"] is True


def test_bridge_residual_and_l2(capsys, tmp_path):
    nodes = [float(k) for k in range(1, 21)]
    doc_model = {"n": 1, "X": 21.0, "variant": "delta_nodes",
                 "nodes": [{"x": x, "H": [[0.0]]} for x in nodes]}
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(doc_model))
    code, doc = run_json(capsys, ["bridge", "residual", "--model", str(path)])
    assert code == 0
    assert doc["result"]["residual"] <= 1e-12

    code, doc = run_json(capsys, ["bridge", "l2", "--d", "const:1", "--u0", "0",
                                  "--u1", "1", "--steps", "30", "--count", "40"])
    assert code == 0
    assert doc["result"]["reports"][0]["verdict"] == "DivergesProven"


def test_classify_accepts_built_blocks_envelope(capsys, tmp_path):
    out = tmp_path / "blocks.json"
    assert run(["jacobi", "build", "--d", "const:1", "--count", "14",
                "-o", str(out)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["classify", "--blocks", str(out),
                                  "--segments", "1-5,6-10"])
    assert code == 0
    assert doc["result"]["verdict"]["classification"] == "LimitPoint"
    assert any(r["criterion"] == "t4" for r in doc["result"]["reports"])


def test_gallery_list_and_run(capsys):
    code, doc = run_json(capsys, ["gallery", "list"])
    assert code == 0
    assert [e["name"] for e in doc["result"]["entries"]] == [
        "free-lattice", "christ-stolz", "monotone-sigma", "offdiagonal-divergence"]

    code, doc = run_json(capsys, ["gallery", "run", "free-lattice"])
    assert code == 0
    entry = doc["result"]["entries"][0]
    assert entry["classification"] == entry["expected"] == "LimitPoint"
    assert entry["match"] is True


# ---------------------------------------------------------------------------
# exit codes, determinism, validation


def test_unknown_criterion_rejected(capsys, free_model_file):
    code = run(["classify", "--model", free_model_file, "--criteria", "bogus"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_gallery_rejected(capsys):
    assert run(["classify", "--gallery", "nope"]) == 2


def test_missing_model_file(capsys, tmp_path):
    assert run(["classify", "--model", str(tmp_path / "none.json")]) == 2


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["criterion", "bogus"])
    assert exc.value.code == 2


def test_criterion_outside_the_classify_table_rejected(capsys):
    # t5 and cor1 need marked interval data; they run through `criterion` only
    assert run(["classify", "--gallery", "free-lattice", "--criteria", "t5_diag"]) == 2
    err = capsys.readouterr().err
    assert "t5_diag" in err
    assert ", ".join(c.code for c in CRITERIA) in err


def test_empty_criteria_selection_rejected(capsys):
    # "," names no code; it must not run nothing and echo "criteria": null
    assert run(["classify", "--gallery", "free-lattice", "--criteria", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty criteria selection" in captured.err


def test_quadrature_overflow_exits_2_fast(capsys, tmp_path):
    model = {"n": 1, "X": 1.0, "variant": "general_triple", "cuts": [0.0],
             "P": [[[1.0]]], "Q": [[[1e6]]], "R": [[[0.0]]]}
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(model))
    start = time.perf_counter()
    code = run(["criterion", "t1", "--model", str(path), "--intervals", "unit:1"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "quadrature" in capsys.readouterr().err
    assert elapsed < 1.0


def test_output_file_and_io_failure(capsys, tmp_path, free_model_file):
    out = tmp_path / "report.json"
    code = run(["criterion", "t1", "--model", free_model_file,
                "--intervals", "unit:5", "-o", str(out)])
    assert code == 0
    validate_report(json.loads(out.read_text()))
    code = run(["criterion", "t1", "--model", free_model_file,
                "--intervals", "unit:5", "-o", str(tmp_path / "no" / "dir.json")])
    assert code == 2


def test_reports_are_byte_deterministic(capsys):
    argv = ["classify", "--gallery", "free-lattice"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_text_format(capsys, free_model_file):
    code = run(["classify", "--model", free_model_file, "--intervals", "unit:10",
                "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification:" in out


def test_canonical_json_floats_roundtrip():
    vals = [0.1, 1.0 / 3.0, 2.0, 1e-17, 123456789.123456789]
    text = canonical_json(vals)
    assert [float(v) for v in json.loads(text)] == vals


def test_canonical_json_shapes():
    doc = {"a": [1, 2.5, None, True], "b": {"c": "x"}}
    assert canonical_json(doc) == '{"a":[1,2.5,null,true],"b":{"c":"x"}}'


def test_validate_report_rejects_bad_documents():
    with pytest.raises(ValueError):
        validate_report({"schema": "other/1"})
    with pytest.raises(ValueError):
        validate_report({"schema": "sldl/1", "command": "x", "config": {},
                         "policy": "p", "result": {"reports": [{"criterion": "t1"}]}})


def test_module_entry_point():
    # the child imports the same sldl as this process, installed or not
    src = str(Path(sldl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-m", "sldl.cli", "gallery", "list"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "christ-stolz" in out.stdout


def test_model_json_helper_matches_cli_schema():
    model = StepSigma(1, (0.0,), (np.zeros((1, 1)),), 100.0)
    assert model_to_json(model) == FREE_MODEL
