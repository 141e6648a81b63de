import argparse
import json
import math
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference_json
from hypothesis import given, settings
from hypothesis import strategies as st

import sldl
import sldl.cli as cli
from sldl.bridge import CRITERIA, ClassifyConfig, classify_detailed
from sldl.cli import build_parser, canonical_json, run, validate_report
from sldl.jacobi import blocks_from_delta, blocks_to_json, cancel_jumps, christ_stolz_family
from sldl.matcore import matrix_to_json
from sldl.criteria import IntervalSeq, t1_series
from sldl.quasidiff import DeltaNodes, GeneralTriple, StepSigma, model_to_json

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


def test_jacobi_carleman_with_a_spacing_ratio_that_underflows(capsys):
    # exited 2 with "error: math domain error" from the power-law exponent
    code, doc = run_json(capsys, ["jacobi", "carleman", "--d",
                                  "list:1,1,1,1,1,1,1,1,1e150,1e-175,1,2,3,5,7,11",
                                  "--H", "const:0", "--N", "12"])
    assert code == 0
    assert doc["result"]["reports"][0]["verdict"] == "Inconclusive"


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


SPACING_ENTRIES = ["1_0", " 2 ", "nan", "inf", "-inf", "1e999", "abc", "", "-0", "0x10", "1e-400",
                   "0.25", "١٢"]


def spacing_outcome(convert, entries):
    """The spacings ``convert`` reads from ``entries`` as float64 bytes, or its error."""
    try:
        return np.array(convert(entries), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", SPACING_ENTRIES)
def test_list_spacings_take_each_entry_as_float_does_and_file_spacings_refuse_strings(
        tmp_path, entry):
    entries = ["1", entry, "0.5"]
    want = spacing_outcome(lambda v: tuple(float(x) for x in v), entries)
    assert spacing_outcome(lambda v: cli.parse_spacings("list:" + ",".join(v), 3), entries) == want
    # a JSON file holds numbers, and a string is none, whatever float makes of it
    path = tmp_path / "d.json"
    path.write_text(json.dumps([1.0, entry, 0.5]))
    assert spacing_outcome(lambda v: cli.parse_spacings(f"file:{path}", 3), entries) == (
        ValueError, f"spacings file {path} must hold numbers only, not {json.dumps(entry)}")


@pytest.mark.parametrize("entry, message", [
    ("1_0", None), (" 2 ", None), ("nan", "spacings must be strictly positive"),
    ("inf", "spacings must be finite"), ("1e999", "spacings must be finite"),
    ("abc", "could not convert string to float: 'abc'"),
    ("", "could not convert string to float: ''"),
])
def test_spacing_entries_exit_as_float_reads_them(capsys, tmp_path, entry, message):
    # the list: spec takes each entry once by float(); a --data file's d holds JSON numbers
    code, captured = run(["jacobi", "build", "--d", f"list:1,{entry},0.5,2"]), capsys.readouterr()
    assert code == (0 if message is None else 2)
    if message is None:
        d = json.loads(captured.out)["result"]["blocks"]["provenance"]["d"]
        assert d == [1.0, float(entry), 0.5, 2.0] and captured.err == ""
    else:
        assert captured.out == "" and captured.err == f"error: {message}\n"
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"d": [1.0, entry, 0.5, 2.0], "H": [[[0.0]]] * 3}))
    assert run(["jacobi", "build", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 'd' must hold numbers only, not {json.dumps(entry)}\n"


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


def test_classify_blocks_with_an_ill_conditioned_boundary_block(capsys, tmp_path):
    # B_0 (condition 1e7) passes the one condition rule; t4 never inverts it
    blocks = blocks_from_delta([1.0] * 14, np.zeros((13, 2, 2)))
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    obj = blocks_to_json(blocks)
    obj["B"][0] = matrix_to_json((q * np.array([1.0, 1e7])) @ q.conj().T)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(obj))
    code, doc = run_json(capsys, ["classify", "--blocks", str(path), "--segments", "1-5,6-10"])
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
# the command tree: one case per leaf, config echo keys in order

DELTA_MODEL = {"n": 1, "X": 21.0, "variant": "delta_nodes",
               "nodes": [{"x": float(k), "H": [[0.0]]} for k in range(1, 21)]}
LEAF_FILES = {
    "free": FREE_MODEL,
    "delta": DELTA_MODEL,
    "linear": {"n": 1, "variant": "linear_sigma", "knots": [0.0, 5.0],
               "values": [[[0.0]], [[5.0]]]},
    "t5": {"intervals": [[0.0, 2.0], [3.0, 5.0]], "markers": [1.0, 4.0],
           "jumps": [[[0.0]], [[0.0]]]},
    "cor1": {"lengths": [2.0, 2.0], "jumps": [[[0.0]], [[0.0]]]},
    "lattice": {"d": [1.0] * 12, "H": [[[0.0]]] * 11, "N": 4},
}
JACOBI_ECHO = ["op", "d", "H", "n", "data"]
LEAF_CASES = [
    ("classify", ["--model", "{free}", "--intervals", "unit:3"],
     ["problem", "intervals", "N", "segments", "criteria"]),
    ("criterion t1", ["--model", "{free}", "--intervals", "unit:3"],
     ["criterion", "model", "intervals", "threshold"]),
    ("criterion t2", ["--model", "{linear}", "--intervals", "unit:5"],
     ["criterion", "model", "intervals", "hypothesis_ok"]),
    ("criterion t5", ["--data", "{t5}", "--channel", "diag:1"],
     ["criterion", "data", "channel", "threshold"]),
    ("criterion cor1", ["--data", "{cor1}", "--channel", "diag:1"],
     ["criterion", "data", "channel", "threshold"]),
    ("criterion cor2", ["--d", "const:1", "--count", "10", "--channel", "diag:1"],
     ["criterion", "d", "H", "n", "count", "channel", "threshold"]),
    ("jacobi build", ["--d", "const:1", "--count", "6"], JACOBI_ECHO + ["count"]),
    ("jacobi recurrence", ["--d", "const:1", "--u0", "0", "--u1", "1", "--steps", "6"],
     JACOBI_ECHO + ["count", "steps", "u0", "u1"]),
    ("jacobi cauchy", ["--d", "const:1", "--i", "4", "--j", "3"],
     JACOBI_ECHO + ["count", "i", "j"]),
    ("jacobi t4", ["--data", "{lattice}", "--segments", "1-3,4-6"],
     JACOBI_ECHO + ["count", "segments"]),
    ("jacobi carleman", ["--data", "{lattice}"], JACOBI_ECHO + ["N"]),
    ("jacobi t7", ["--d", "harmonic", "--H", "cancel", "--N", "10"], JACOBI_ECHO + ["N"]),
    ("jacobi cor3", ["--d", "harmonic", "--H", "cancel", "--N", "10"], JACOBI_ECHO + ["N"]),
    ("bridge residual", ["--model", "{delta}"], ["op", "model", "count", "f", "f1"]),
    ("bridge l2", ["--d", "const:1", "--u0", "0", "--u1", "1", "--steps", "10"],
     ["op", "d", "H", "n", "steps", "u0", "u1"]),
    ("gallery list", [], []),
    ("gallery run", ["free-lattice"], ["name"]),
]


def _command_paths(parser, path=()):
    """Every command path of the parser tree, groups and leaves, root first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, path + (name,))


COMMAND_PATHS = list(_command_paths(build_parser()))


@pytest.fixture
def leaf_files(tmp_path):
    paths = {}
    for name, obj in LEAF_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def test_leaf_cases_cover_the_command_tree():
    groups = {path[:-1] for path in COMMAND_PATHS if path}
    leaves = [" ".join(path) for path in COMMAND_PATHS if path and path not in groups]
    assert len(leaves) == 17  # classify and the 16 leaves under the four groups
    assert sorted(leaves) == sorted(title for title, _, _ in LEAF_CASES)


@pytest.mark.parametrize("title, argv, keys", LEAF_CASES, ids=[c[0] for c in LEAF_CASES])
def test_leaf_config_echo(capsys, leaf_files, title, argv, keys):
    code, doc = run_json(capsys, title.split() + [a.format(**leaf_files) for a in argv])
    assert code == 0
    assert doc["command"] == title
    assert list(doc["config"]) == keys


def test_data_file_N_overrides_the_option_before_the_echo(capsys, leaf_files):
    code, doc = run_json(capsys, ["jacobi", "t7", "--data", leaf_files["lattice"],
                                  "--N", "100"])
    assert code == 0
    assert doc["config"]["N"] == 4
    assert len(doc["result"]["reports"][0]["terms"]) == 4


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=lambda p: " ".join(p) or "sldl")
def test_every_help_screen_exits_0(capsys, path):
    with pytest.raises(SystemExit) as exc:
        run([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(("usage: sldl", *path)))


@pytest.mark.parametrize("lattice", [["--d", "harmonic", "--H", "cancel", "--u0", "1",
                                      "--u1", "0", "--steps", "40"],
                                     ["--d", "power:0.5", "--H", "const:-1", "--n", "2",
                                      "--u0", "1,0", "--u1", "0,1", "--steps", "12"]])
def test_bridge_l2_is_the_recurrence_l2_report(capsys, lattice):
    code, l2 = run_json(capsys, ["bridge", "l2", *lattice])
    assert code == 0
    code, rec = run_json(capsys, ["jacobi", "recurrence", *lattice])
    assert code == 0
    assert l2["result"] == {"reports": rec["result"]["reports"]}
    assert len(rec["result"]["sequence"]) == int(lattice[-1])


@pytest.mark.parametrize("count", ["0", "-4"])
def test_bridge_residual_rejects_count_below_one(capsys, leaf_files, count):
    assert run(["bridge", "residual", "--model", leaf_files["delta"],
                "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: count must be at least 1, got {count}\n"


@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_bridge_residual_on_fewer_than_four_nodes_names_the_node_count(capsys, tmp_path, nodes):
    # the default count, nodes - 3, was refused as "count must be at least 1, got -1"
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**DELTA_MODEL, "X": nodes + 1.0,
                                "nodes": DELTA_MODEL["nodes"][:nodes]}))
    assert run(["bridge", "residual", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 4 nodes, have {nodes}\n"


@pytest.mark.parametrize("argv", [
    ["jacobi", "build", "--d", "const:0", "--H", "cancel"],
    ["criterion", "cor2", "--d", "const:0", "--H", "cancel", "--channel", "diag:1"],
], ids=["jacobi-build", "criterion-cor2"])
def test_cancel_jumps_check_the_spacings_first(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spacings must be strictly positive\n"


@pytest.mark.parametrize("argv, message", [
    (["jacobi", "build", "--d", "list:1", "--H", "cancel"], "need at least 3 spacings"),
    (["bridge", "l2", "--d", "list:1", "--H", "cancel", "--u0", "0", "--u1", "1"],
     "need at least two spacings"),
], ids=["jacobi-build", "bridge-l2"])
def test_cancel_jumps_on_one_spacing_report_the_spacing_count(capsys, argv, message):
    # each cancel jump needs two spacings; one spacing used to read a missing d_2
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["bridge", "residual", "--model", "{empty}"], "{empty} must hold a JSON object"),
    (["classify", "--blocks", "{empty}"], "{empty} must hold a JSON object"),
    (["criterion", "t1", "--model", "{linear}", "--intervals", "unit:3"],
     "unsupported model type LinearSigma"),
    (["criterion", "cor2", "--d", "harmonic", "--H", "const:inf", "--n", "2",
      "--channel", "diag:1"], "jump value inf is not finite"),
    (["bridge", "l2", "--d", "const:1", "--u0", "1", "--u1=nan"],
     "components of 'nan' must be finite"),
    (["jacobi", "recurrence", "--d", "const:1", "--u0=-inf", "--u1", "1"],
     "components of '-inf' must be finite"),
    (["jacobi", "build", "--d", "const:inf"], "spacings must be finite"),
    (["bridge", "l2", "--d", "const:1e-300", "--H", "const:-1", "--u0", "1", "--u1", "1"],
     "lattice blocks overflow: spacings too small or jumps too large"),
], ids=["residual-list-model", "classify-list-blocks", "t1-linear-sigma", "cor2-inf-jump",
        "l2-nan-state", "recurrence-inf-state", "build-inf-spacing", "l2-tiny-spacing"])
def test_edge_inputs_exit_2_with_one_line(capsys, leaf_files, tmp_path, argv, message):
    # found by the input walk (test_cli_walk.py): each ended in a traceback or
    # a numpy warning on stderr
    files = {**leaf_files, "empty": str(tmp_path / "empty.json")}
    (tmp_path / "empty.json").write_text("[]")
    assert run([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**files)}\n"


DATA_WITHOUT_KEY = [
    (["jacobi", "build"], {"H": [[[0.0]]]}, "d"),
    (["jacobi", "recurrence", "--u0", "1", "--u1", "0"], {"d": [1.0, 1.0, 1.0]}, "H"),
    (["criterion", "t5", "--channel", "diag:1"], {"markers": [1.0], "jumps": [[[0.5]]]},
     "intervals"),
    (["criterion", "cor1", "--channel", "diag:1"], {"jumps": [[[0.5]]]}, "lengths"),
]


@pytest.mark.parametrize("argv, data, key", DATA_WITHOUT_KEY,
                         ids=[" ".join(c[0][:2]) for c in DATA_WITHOUT_KEY])
def test_data_file_without_a_key_names_key_and_file(capsys, tmp_path, argv, data, key):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    assert run([*argv, "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: data file {path} has no key {key!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["criterion", "t1", "--intervals", "unit:0"], "interval count must be at least 1, got 0"),
    (["criterion", "t1", "--intervals", "unit:-1"], "interval count must be at least 1, got -1"),
    (["classify", "--intervals", "unit:0"], "interval count must be at least 1, got 0"),
    (["criterion", "cor2", "--d", "const:1", "--count", "0", "--channel", "diag:1"],
     "need at least 2 spacings for the cor2 series, got 0"),
    (["criterion", "cor2", "--d", "harmonic", "--H", "cancel", "--count", "0",
      "--channel", "diag:1"], "need at least 2 spacings for the cor2 series, got 0"),
], ids=["t1-unit0", "t1-unit-1", "classify-unit0", "cor2-count0", "cor2-cancel-count0"])
def test_counts_below_range_exit_2(capsys, free_model_file, argv, message):
    if argv[0] == "classify" or argv[1] == "t1":
        argv = [*argv, "--model", free_model_file]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


THREE_STEPS = {"n": 1, "X": 3.0, "variant": "step_sigma", "cuts": [0.0, 1.0, 2.0],
               "values": [[[0.0]], [[1.0]], [[-1.0]]]}


@pytest.mark.parametrize("model, argv", [
    (FREE_MODEL, ["--N", "0"]),
    (THREE_STEPS, ["--N", "0"]),
    (DELTA_MODEL, ["--N", "0"]),
    (FREE_MODEL, ["--N", "-3", "--intervals", "unit:2"]),
], ids=["free", "three-steps", "delta", "free-negative"])
def test_classify_with_N_below_one_exits_2_on_every_problem(capsys, tmp_path, model, argv):
    # only the lattice series read N: step models used to exit 0, delta models 2
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run(["classify", "--model", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: N must be at least 1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("title", ["criterion t1", "criterion t5", "criterion cor1",
                                   "criterion cor2"])
def test_a_threshold_that_is_not_finite_exits_2(capsys, leaf_files, title, value):
    argv = next(argv for t, argv, _ in LEAF_CASES if t == title)
    argv = [*title.split(), *(a.format(**leaf_files) for a in argv), f"--threshold={value}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: threshold must be finite, got {value}\n"


def test_a_squared_norm_past_the_float_range_prints_no_warning(capsys):
    # the finite solution u_k ~ 1e10^k has squared norms past the float range
    argv = ["jacobi", "recurrence", "--d", "const:1", "--H", "const:1e10", "--count", "40",
            "--u0", "1", "--u1", "1", "--steps", "30"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["result"]["reports"][0]
    assert report["verdict"] == "DivergesProven"
    assert report["terms"][:3] == [1.0, 1.0, 1e20] and report["terms"][-1] == math.inf


MODEL_FILES = {
    "step_sigma": FREE_MODEL,
    "delta_nodes": DELTA_MODEL,
    "general_triple": {"n": 1, "X": 3.0, "variant": "general_triple", "cuts": [0.0],
                       "P": [[[1.0]]], "Q": [[[0.5]]], "R": [[[0.0]]]},
    "distributional": {"n": 1, "X": 3.0, "variant": "distributional", "cuts": [0.0],
                       "P0": [[[1.0]]], "Q0": [[[0.0]]], "P1": [[[0.25]]]},
    "linear_sigma": LEAF_FILES["linear"],
}
MODEL_WITHOUT_KEY = [(variant, key) for variant, obj in MODEL_FILES.items() for key in obj]


@pytest.mark.parametrize("variant, key", MODEL_WITHOUT_KEY,
                         ids=[f"{v}-{k}" for v, k in MODEL_WITHOUT_KEY])
def test_model_file_without_a_key_names_the_key(capsys, tmp_path, variant, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({k: v for k, v in MODEL_FILES[variant].items() if k != key}))
    assert run(["classify", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: coefficient model JSON has no key {key!r}\n"


def _built_blocks(d, H):
    return blocks_to_json(blocks_from_delta(d, H))


def _without(obj, *path):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return obj


BLOCKS_WITHOUT_KEY = [(path, path[-1]) for path in (("n",), ("A",), ("B",),
                                                    ("provenance", "d"), ("provenance", "H"))]


@pytest.mark.parametrize("path, key", BLOCKS_WITHOUT_KEY,
                         ids=["-".join(c[0]) for c in BLOCKS_WITHOUT_KEY])
def test_blocks_file_without_a_key_names_the_key(capsys, tmp_path, path, key):
    obj = _without(_built_blocks([1.0] * 6, np.zeros((5, 1, 1))), *path)
    (tmp_path / "blocks.json").write_text(json.dumps(obj))
    assert run(["classify", "--blocks", str(tmp_path / "blocks.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: blocks JSON has no key {key!r}\n"


def _growing_blocks():
    # B_k = -2^k I: the block-norm series converges, while the provenance
    # (unit spacings) would certify its divergence
    obj = _built_blocks([1.0] * 42, np.zeros((41, 1, 1)))
    obj["B"] = [[[-(2.0 ** k)]] for k in range(len(obj["B"]))]
    return obj


def _free_blocks_with_christ_stolz_provenance():
    # A_k = 0, B_k = -I (limit point) under lattice data that certifies limit circle
    d, H = christ_stolz_family(402)
    obj = _built_blocks(d, H)
    obj["A"] = [[[0.0]]] * len(obj["A"])
    obj["B"] = [[[-1.0]]] * len(obj["B"])
    return obj


def _offset_blocks():
    obj = _built_blocks([1.0] * 6, np.zeros((5, 1, 1)))
    obj["offset"] = 1
    return obj


def _short_blocks():
    obj = _built_blocks([1.0] * 6, np.zeros((5, 1, 1)))
    obj["A"].pop()
    return obj


def _one_A_changed():
    obj = _built_blocks([1.0] * 6, np.zeros((5, 1, 1)))
    obj["A"][3] = [[0.5]]
    obj["B"][4] = [[-0.25]]
    return obj


@pytest.mark.parametrize("make, argv, message", [
    (_growing_blocks, ["--criteria", "carleman", "--N", "40"],
     "B_1 differs from the block its provenance builds"),
    (_free_blocks_with_christ_stolz_provenance, ["--criteria", "t7,cor3", "--N", "150"],
     "B_1 differs from the block its provenance builds"),
    (_offset_blocks, [], "blocks JSON key 'offset' must be 0: storage starts at A_0, B_0"),
    (_short_blocks, [], "the provenance builds A_0 .. A_5 and B_0 .. B_4"),
    (_one_A_changed, [], "A_3 differs from the block its provenance builds"),
], ids=["growing-B", "free-under-christ-stolz", "offset-1", "one-A-short", "A3-and-B4"])
def test_blocks_that_are_not_their_provenance_exit_2(capsys, tmp_path, make, argv, message):
    # the first two fired false certificates at exit 0: carleman read the
    # provenance spacings and t7/cor3 the provenance lattice, not the blocks
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(make()))
    assert run(["classify", "--blocks", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_built_blocks_classify_as_the_blocks_themselves(capsys, tmp_path):
    d, H = christ_stolz_family(402)
    path = tmp_path / "built.json"
    assert run(["jacobi", "build", "--d", "harmonic", "--H", "cancel", "--count", "402",
                "-o", str(path)]) == 0
    code, doc = run_json(capsys, ["classify", "--blocks", str(path), "--N", "150",
                                  "--segments", "1-5,6-10"])
    assert code == 0
    config = ClassifyConfig(N=150, segments=((1, 5), (6, 10)))
    verdict, reports = classify_detailed(blocks_from_delta(d, H), config)
    assert verdict.classification == "LimitCircle"
    assert canonical_json(doc["result"]) == canonical_json(
        {"verdict": verdict.to_json(), "reports": [r.to_json() for r in reports]})


@pytest.mark.parametrize("argv", [
    ["jacobi", "build", "--d", "power:1000"],
    ["jacobi", "t7", "--d", "power:400", "--N", "10"],
    ["criterion", "cor2", "--d", "power:1000", "--channel", "diag:1"],
], ids=["build", "t7", "cor2"])
def test_power_spacings_that_overflow_exit_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: spacing spec {argv[3]!r} overflows a float\n"


@pytest.mark.parametrize("spec, message", [
    ("const:nan", "spacings must be strictly positive"),
    ("const:0", "spacings must be strictly positive"),
    ("const:inf", "spacings must be finite"),
])
def test_cor2_checks_its_spacings(capsys, spec, message):
    # a NaN spacing used to give an Inconclusive report
    assert run(["criterion", "cor2", "--d", spec, "--channel", "diag:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["jacobi", "recurrence", "--d", "const:1", "--H", "const:1e300", "--u0", "1", "--u1", "1",
      "--steps", "100"], "the recurrence leaves the float range at step 2 (u_3)"),
    (["bridge", "l2", "--d", "const:1", "--H", "const:1e200", "--u0", "1", "--u1", "1",
      "--steps", "100"], "the recurrence leaves the float range at step 2 (u_3)"),
    (["jacobi", "t4", "--d", "const:1", "--H", "const:1e200", "--segments", "1-40",
      "--count", "50"], "the t4 sum leaves the float range at row 3"),
    (["bridge", "residual", "--model", "huge-jumps-1e200.json"],
     "the march leaves the float range at x = 3.0"),
    (["bridge", "residual", "--model", "huge-jumps-1e80.json"],
     "the march leaves the float range at x = 5.0"),
], ids=["recurrence", "l2", "t4", "delta-1e200", "delta-1e80"])
def test_marches_that_overflow_exit_2(capsys, tmp_path, monkeypatch, argv, message):
    # these printed numpy overflow warnings (not all of them) and exited 0 with
    # inf or NaN values; the delta models have nodes 1 .. 40, each jump [[h]]
    monkeypatch.chdir(tmp_path)
    for h in ("1e200", "1e80"):
        model = DeltaNodes(1, [float(k) for k in range(1, 41)], [[[float(h)]]] * 40, 41.0)
        Path(f"huge-jumps-{h}.json").write_text(json.dumps(model_to_json(model)))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_classify_exits_0_where_one_criterion_overflows(capsys, tmp_path):
    # classify exited 2 with "the t4 sum leaves the float range at row 277", while
    # carleman certifies; the jacobi t4 leaf keeps exit 2 (above)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(blocks_to_json(blocks_from_delta([1.0] * 600,
                                                                np.full((599, 1, 1), 8.0)))))
    code, doc = run_json(capsys, ["classify", "--blocks", str(path),
                                  "--segments", "1-40,41-120,121-300"])
    assert code == 0
    verdict = doc["result"]["verdict"]
    assert verdict["classification"] == "LimitPoint"
    assert {"criterion": "t4", "verdict": "Inconclusive",
            "basis": "not evaluated: the t4 sum leaves the float range at row 277"
            } in verdict["evidence"]


def test_classify_of_a_rotated_lattice_exits_0(capsys, tmp_path):
    # n = 2, d_k = 1/k, jumps Q diag(cancel_k, 0) Q^T at 0.3 rad: the jumps pass the
    # real-symmetric check (asymmetric by 1.1e-13), and A_k = shifted / r^2 took that
    # asymmetry past the tolerance, so classify exited 2 with "diagonal blocks must be
    # Hermitian"; the jumps are now stored mirrored
    c, s = math.cos(0.3), math.sin(0.3)
    q, d = np.array([[c, -s], [s, c]]), [1.0 / k for k in range(1, 1201)]
    cancel = cancel_jumps(d)[:, 0, 0, None, None] * np.array([[1.0, 0.0], [0.0, 0.0]])
    model = DeltaNodes.from_spacings(2, d[:-1], q @ cancel @ q.T, tail=d[-1])
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(model_to_json(model)))
    code, doc = run_json(capsys, ["classify", "--model", str(path)])
    assert code == 0
    assert doc["result"]["verdict"]["classification"] == "Inconclusive"


@pytest.mark.parametrize("argv, data", [
    (["criterion", "cor2", "--d", "const:1e150", "--n", "2", "--channel", "offdiag:1,2"], None),
    (["criterion", "cor1", "--channel", "diag:1"],
     {"lengths": [1e150, 2.0], "jumps": [[[1.0]], [[1.0]]]}),
    (["criterion", "cor2", "--d", "const:1e200", "--n", "2", "--channel", "offdiag:1,2"], None),
], ids=["cor2-offdiag", "cor1-diag", "cor2-offdiag-infinite-product"])
def test_jump_series_powers_that_overflow_exit_2(capsys, tmp_path, argv, data):
    # Python's ** raised OverflowError here: a traceback and exit status 1;
    # a product rho * s past the float range gave inf ** 1.5 * 0, NaN terms
    if data is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--data", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the jump series leaves the float range at term 1\n"


def test_t1_over_an_ill_conditioned_piece_exits_0_with_finite_terms(capsys, tmp_path):
    # P pieces [I, B, I] with B of condition 1e10, which passes the one condition rule
    q, _ = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]))
    z = np.zeros((2, 2))
    model = GeneralTriple(2, (0.0, 1.0, 2.0), (np.eye(2), q @ np.diag([1.0, 1e-10]) @ q.T,
                                               np.eye(2)), (z,) * 3, (z,) * 3, 3.0)
    path, intervals = tmp_path / "model.json", tmp_path / "intervals.json"
    path.write_text(json.dumps(model_to_json(model)))
    intervals.write_text(json.dumps([[2.0, 3.0]]))
    code, doc = run_json(capsys, ["criterion", "t1", "--model", str(path),
                                  "--intervals", f"file:{intervals}"])
    assert code == 0
    assert doc["result"]["reports"][0]["terms"] == [0.40824829046386313]  # 1/sqrt(6) + 1.1e-16
    code, doc = run_json(capsys, ["criterion", "t1", "--model", str(path), "--intervals", "unit:2"])
    assert code == 0
    terms = doc["result"]["reports"][0]["terms"]
    assert terms == list(t1_series(model, IntervalSeq.unit(2)).terms)
    assert all(math.isfinite(t) for t in terms) and terms[1] > 1e9


@pytest.mark.parametrize("q, message", [
    (4e307, "the matrix exponential cannot scale a norm of 6.928e+307"),
    (1.7e308, "the matrix exponential cannot scale a norm of 1.700e+308"),
    (1e300, "kernel quadrature overflowed on (0.0, 1.0)"),
])
def test_t1_with_a_huge_potential_exits_2_with_one_line(capsys, tmp_path, q, message):
    # norms from 2^1022 on made the expm scaling factor 2.0 ** s overflow (or
    # ceil an infinite log2): a traceback and exit status 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 1, "X": 1.0, "variant": "general_triple", "cuts": [0.0],
                                "P": [[[1.0]]], "Q": [[[q]]], "R": [[[0.0]]]}))
    assert run(["criterion", "t1", "--model", str(path), "--intervals", "unit:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, criterion, term", [
    (["jacobi", "t7", "--d", "const:1e-300", "--N", "5"], "t7_b_s1", pytest.approx(2e300)),
    (["jacobi", "cor3", "--d", "const:1e-300", "--N", "5"], "cor3_jump", pytest.approx(2.0)),
    (["jacobi", "cor3", "--d", "const:1e200", "--N", "5"], "cor3_spacing", math.inf),
    (["jacobi", "t7", "--d", "const:1e200", "--N", "5"], "t7_b_s1", pytest.approx(2e-200)),
], ids=["t7", "cor3", "cor3-spacing-squares", "t7-tiny-jump-norms"])
def test_huge_finite_terms_give_reports_without_warnings(capsys, argv, criterion, term):
    # the jump norms 2e300 printed numpy overflow warnings and read inf, the
    # squares of 1e200 spacings raised OverflowError (exit status 1), and the
    # jump norms 2e-200 read 0, a zero tail that certified convergence
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = {r["criterion"]: r for r in json.loads(captured.out)["result"]["reports"]}
    assert reports[criterion]["terms"] == [term] * 5


@pytest.mark.parametrize("op, criteria", [
    ("t7", ("t7_b_s1", "t7_b_s2")),
    ("cor3", ("cor3_jump",)),
])
def test_subnormal_spacings_give_infinite_jump_terms_not_nan(capsys, op, criteria):
    # 1/d_k is inf for these spacings: the shifted jumps multiplied it by the
    # identity's zeros, and inf * 0 gave NaN off-diagonal entries, NaN norms
    # and NaN terms (t7 printed a numpy warning as well) with exit status 0
    argv = ["jacobi", op, "--d", "list:1,5e-324,2,1e-310,3,1,0.5,2", "--H", "const:1",
            "--n", "2", "--N", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    captured = capsys.readouterr()
    assert caught == [] and captured.err == ""
    assert code == 0
    reports = {r["criterion"]: r for r in json.loads(captured.out)["result"]["reports"]}
    assert [reports[c]["terms"] for c in criteria] == [[math.inf, math.inf]] * len(criteria)
    assert "NaN" not in captured.out


def test_spacing_sums_that_overflow_exit_2_with_one_line(capsys):
    # d_k + d_{k+1} printed a numpy overflow warning before the error; B_1 reads -0
    assert run(["jacobi", "build", "--d", "const:1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice blocks underflow: spacings too large\n"


def test_classify_of_a_lattice_with_a_zero_block_exits_0(capsys, tmp_path):
    # two trailing spacings of 1e300 make B_198 = -0 inside carleman's window (N = 250):
    # classify exited 2 with "off-diagonal blocks must be invertible"
    model = DeltaNodes.from_spacings(1, [1.0] * 198 + [1e300] * 2, np.zeros((200, 1, 1)),
                                     tail=1e300)
    path = tmp_path / "zero-block.json"
    path.write_text(json.dumps(model_to_json(model)))
    code, doc = run_json(capsys, ["classify", "--model", str(path), "--N", "250"])
    assert code == 0
    verdict = doc["result"]["verdict"]
    assert verdict["classification"] == "Inconclusive"
    assert {"criterion": "carleman", "verdict": "Inconclusive",
            "basis": "not evaluated: lattice blocks underflow: spacings too large"
            } in verdict["evidence"]


@pytest.mark.parametrize("length, message", [
    ("NaN", "interval lengths must be positive"),
    ("Infinity", "interval lengths must be finite"),
])
def test_cor1_checks_its_lengths(capsys, tmp_path, length, message):
    # a NaN length used to give an Inconclusive report
    path = tmp_path / "cor1.json"
    path.write_text(f'{{"lengths": [{length}, 2.0], "jumps": [[[0.0]], [[1.0]]]}}')
    assert run(["criterion", "cor1", "--data", str(path), "--channel", "diag:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("jumps, entry", [
    ([[[["1.5", "0"]]], [[1.0]]], "['1.5', '0']"),  # exited 0 with a term of 12
    ([[[True]], [[1.0]]], "True"),  # exited 0
    ([[["1.5"]], [[1.0]]], "'1.5'"),
])
def test_jump_entries_and_pair_parts_must_be_json_numbers(capsys, tmp_path, jumps, entry):
    path = tmp_path / "cor1.json"
    path.write_text(json.dumps({"lengths": [2.0, 2.0], "jumps": jumps}))
    assert run(["criterion", "cor1", "--data", str(path), "--channel", "diag:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad matrix entry {entry}\n"


@pytest.mark.parametrize("argv", [
    ["jacobi", "build", "--n", "0", "--d", "const:1", "--H", "cancel"],
    ["jacobi", "build", "--n", "-1", "--d", "const:1", "--H", "cancel"],
    ["criterion", "cor2", "--d", "const:1", "--n", "0", "--channel", "diag:1"],
    ["bridge", "l2", "--d", "const:1", "--n", "-3", "--u0", "1", "--u1", "1"],
])
def test_lattice_order_below_one_exits_2_before_any_work(capsys, argv):
    # --n 0 used to fail on "expected a square matrix, got shape (0, 0)" and
    # --n -1 on numpy's "negative dimensions are not allowed"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be at least 1\n"


def test_bridge_l2_on_no_spacings_exits_2(capsys, tmp_path):
    (tmp_path / "none.json").write_text("[]")
    assert run(["bridge", "l2", "--d", f"file:{tmp_path / 'none.json'}", "--H", "cancel",
                "--u0", "1", "--u1", "1"]) == 2
    assert capsys.readouterr().err == "error: need at least two spacings\n"


def _raw(obj, key, text):
    """JSON of obj with the value of ``key`` written as the literal ``text``."""
    return json.dumps({**obj, key: "@"}).replace('"@"', text)


HUGE = 10 ** 400  # a JSON integer past the float range
UNIT_LATTICE = {"d": [1.0] * 12, "H": [[[0.0]]] * 11}
ONE_NODE = {"n": 1, "X": 2.0, "variant": "delta_nodes", "nodes": [{"x": 1.0, "H": [[0.0]]}]}
# numbers that json reads but int, float or complex cannot take, and nesting json cannot read
OUT_OF_RANGE_FILES = {
    "model-n-inf.json": _raw(ONE_NODE, "n", "1e999"),
    "blocks-n-inf.json": _raw(blocks_to_json(blocks_from_delta([1.0] * 6, [[[0.0]]] * 5)),
                              "n", "1e999"),
    "lattice-N-inf.json": _raw(UNIT_LATTICE, "N", "1e999"),
    "lattice-huge-d.json": json.dumps({**UNIT_LATTICE, "d": [HUGE] + [1.0] * 11}),
    "lattice-huge-H.json": json.dumps({**UNIT_LATTICE, "H": [[[HUGE]]] + [[[0.0]]] * 10}),
    "jumps-huge.json": json.dumps([[[HUGE]]] * 11),
    "model-huge-x.json": json.dumps({**ONE_NODE, "nodes": [{"x": HUGE, "H": [[0.0]]}]}),
    "model-huge-H.json": json.dumps({**ONE_NODE, "nodes": [{"x": 1.0, "H": [[HUGE]]}]}),
    "deep.json": "[" * 3000 + "]" * 3000,
}
INF_TO_INT = "cannot convert float infinity to integer"
INT_TO_FLOAT = "int too large to convert to float"
DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--model", "model-n-inf.json"], INF_TO_INT),
    (["bridge", "residual", "--model", "model-n-inf.json"], INF_TO_INT),
    (["classify", "--blocks", "blocks-n-inf.json"], INF_TO_INT),
    (["jacobi", "t7", "--data", "lattice-N-inf.json"], INF_TO_INT),
    (["jacobi", "build", "--data", "lattice-huge-d.json"], INT_TO_FLOAT),
    (["jacobi", "build", "--data", "lattice-huge-H.json"], INT_TO_FLOAT),
    (["jacobi", "build", "--d", "const:1", "--count", "12", "--H", "file:jumps-huge.json"],
     INT_TO_FLOAT),
    (["classify", "--model", "model-huge-x.json"], INT_TO_FLOAT),
    (["classify", "--model", "model-huge-H.json"], INT_TO_FLOAT),
    (["jacobi", "build", "--d", "file:deep.json"], f"bad JSON in deep.json: {DEEP}"),
    (["classify", "--model", "deep.json"], f"bad JSON in deep.json: {DEEP}"),
], ids=["model-n", "residual-n", "blocks-n", "t7-N", "d-entry", "H-entry", "jump-file",
        "node-x", "node-H", "deep-d", "deep-model"])
def test_numbers_past_the_float_range_and_deep_nesting_exit_2(capsys, tmp_path, monkeypatch,
                                                              argv, message):
    # int, float and complex raised OverflowError, and json.load RecursionError:
    # a traceback and exit status 1
    monkeypatch.chdir(tmp_path)
    for name, text in OUT_OF_RANGE_FILES.items():
        Path(name).write_text(text)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


FIELD_BLOCKS = blocks_to_json(blocks_from_delta([1.0] * 6, [[[0.0]]] * 5))
T1_ON = ["criterion", "t1", "--model", "free.json", "--intervals"]
# every number of an input file that is not a matrix entry: (id, argv, file, path of one
# number in it, how the error names its field); the file is in.json
FILE_FIELDS = [
    ("d-file", ["jacobi", "build", "--d", "file:in.json"], [1.0] * 6, (2,),
     "spacings file in.json"),
    ("data-d", ["jacobi", "build", "--data", "in.json"], LEAF_FILES["lattice"], ("d", 2), "'d'"),
    ("data-N", ["jacobi", "t7", "--data", "in.json"], LEAF_FILES["lattice"], ("N",), "'N'"),
    ("interval-list", [*T1_ON, "file:in.json"], [[0.0, 1.0], [2.0, 3.0]], (1, 0),
     "'intervals'"),
    ("intervals", [*T1_ON, "file:in.json"], {"intervals": [[0.0, 1.0], [2.0, 3.0]]},
     ("intervals", 0, 1), "'intervals'"),
    ("markers", [*T1_ON, "file:in.json"], {"intervals": [[0.0, 2.0]], "markers": [1.0]},
     ("markers", 0), "'markers'"),
    ("t5-intervals", ["criterion", "t5", "--data", "in.json", "--channel", "diag:1"],
     LEAF_FILES["t5"], ("intervals", 1, 1), "'intervals'"),
    ("t5-markers", ["criterion", "t5", "--data", "in.json", "--channel", "diag:1"],
     LEAF_FILES["t5"], ("markers", 1), "'markers'"),
    ("cor1-lengths", ["criterion", "cor1", "--data", "in.json", "--channel", "diag:1"],
     LEAF_FILES["cor1"], ("lengths", 1), "'lengths'"),
    ("model-n", ["classify", "--model", "in.json"], FREE_MODEL, ("n",), "'n'"),
    ("model-X", ["classify", "--model", "in.json"], FREE_MODEL, ("X",), "'X'"),
    ("model-cuts", ["classify", "--model", "in.json"],
     {**FREE_MODEL, "cuts": [0.0, 1.0], "values": [[[0.0]]] * 2}, ("cuts", 1), "'cuts'"),
    ("model-knots", ["criterion", "t2", "--model", "in.json", "--intervals", "unit:3"],
     LEAF_FILES["linear"], ("knots", 1), "'knots'"),
    ("model-nodes-x", ["classify", "--model", "in.json"], DELTA_MODEL, ("nodes", 3, "x"),
     "'nodes[].x'"),
    ("model-spacings", ["classify", "--model", "in.json"], {**DELTA_MODEL, "spacings": [1.0] * 20},
     ("spacings", 3), "'spacings'"),
    ("blocks-n", ["classify", "--blocks", "in.json"], FIELD_BLOCKS, ("n",), "'n'"),
    ("blocks-offset", ["classify", "--blocks", "in.json"], FIELD_BLOCKS, ("offset",), "'offset'"),
    ("blocks-provenance-d", ["classify", "--blocks", "in.json"], FIELD_BLOCKS,
     ("provenance", "d", 2), "'provenance.d'"),
]
INTEGER_FIELDS = ("data-N", "model-n", "blocks-n", "blocks-offset")
FIELD_VALUES = [(case, value) for case in FILE_FIELDS for value in
                (True, False, "1", None, *([2.5] if case[0] in INTEGER_FIELDS else []))]


@pytest.mark.parametrize("case, value", FIELD_VALUES,
                         ids=[f"{case[0]}-{json.dumps(v)}" for case, v in FIELD_VALUES])
def test_a_bool_a_string_or_a_fraction_where_a_file_holds_a_number_exits_2(
        capsys, tmp_path, monkeypatch, case, value):
    # each of these but null was read as a number: true as 1, "1" as 1.0, 2.5 as 2
    _, argv, obj, path, field = case
    monkeypatch.chdir(tmp_path)
    Path("free.json").write_text(json.dumps(FREE_MODEL))
    doc = json.loads(json.dumps(obj))
    _set(path, value)(doc)
    Path("in.json").write_text(json.dumps(doc))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


@pytest.mark.parametrize("argv, obj, path, value", [
    (["jacobi", "t7", "--data", "in.json"], LEAF_FILES["lattice"], ("N",), 4),
    (["classify", "--model", "in.json"], FREE_MODEL, ("n",), 1),
    (["classify", "--blocks", "in.json"], FIELD_BLOCKS, ("n",), 1),
    (["classify", "--blocks", "in.json"], FIELD_BLOCKS, ("offset",), 0),
], ids=["data-N", "model-n", "blocks-n", "blocks-offset"])
def test_an_integer_field_reads_a_float_with_an_integral_value(capsys, tmp_path, monkeypatch,
                                                                argv, obj, path, value):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for v in (value, float(value)):
        doc = json.loads(json.dumps(obj))
        _set(path, v)(doc)
        Path("in.json").write_text(json.dumps(doc))
        outputs.append((run(argv), capsys.readouterr()))
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    # bridge l2 --n=1000 asks numpy for a (1000, 1000, 1000) complex stack;
    # the handler raises what numpy raises instead of allocating it
    def exhausted(args):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with shape "
                          "(1000, 1000, 1000) and data type complex128")

    monkeypatch.setattr(cli, "_bridge_l2", exhausted)
    assert run(["bridge", "l2", "--d", "const:1", "--u0", "1", "--u1", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Unable to allocate 14.9 GiB for an array with shape "
                            "(1000, 1000, 1000) and data type complex128\n")


def test_an_error_without_a_message_names_its_type(capsys, monkeypatch):
    # str(MemoryError()) is empty: the line read "error: " alone
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_criterion_t1", exhausted)
    assert run(["criterion", "t1", "--model", "free.json", "--intervals", "unit:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError\n"


@pytest.mark.parametrize("argv", [
    ["criterion", "t1", "--model", "free.json", "--intervals", "unit:101"],
    ["criterion", "t1", "--model", "free.json", "--intervals", "unit:3000000"],
    ["criterion", "t1", "--model", "free.json", "--intervals", "unit:99999999999999999999"],
    ["criterion", "t2", "--model", "linear.json", "--intervals", "unit:21"],
    ["classify", "--model", "free.json", "--intervals", "unit:101"],
])
def test_unit_intervals_past_the_domain_are_refused_before_they_are_built(
        capsys, tmp_path, monkeypatch, argv):
    # X = 100 and 20: unit:3000000 spent seconds and hundreds of MB building
    # intervals, and unit:99999999999999999999 allocated until memory ran out
    (tmp_path / "free.json").write_text(json.dumps(FREE_MODEL))
    (tmp_path / "linear.json").write_text(json.dumps(
        {"n": 1, "variant": "linear_sigma", "knots": [0.0, 20.0], "values": [[[0.0]], [[1.0]]]}))
    monkeypatch.chdir(tmp_path)

    def built(cls, count):
        raise AssertionError(f"unit:{count} was built")

    monkeypatch.setattr(IntervalSeq, "unit", classmethod(built))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: intervals exceed the model domain\n"


@pytest.mark.parametrize("spec", ["unit:3", "unit:99999999999999999999", "file:missing.json"])
def test_classify_refuses_intervals_for_blocks_before_reading_either(capsys, monkeypatch, spec):
    # blocks have no domain and read no intervals: unit:3 was echoed and
    # ignored, and unit:99999999999999999999 allocated until memory ran out
    def refuse(*args):
        raise AssertionError(f"read {args}")

    monkeypatch.setattr(IntervalSeq, "unit", classmethod(refuse))
    monkeypatch.setattr(cli, "load_blocks", refuse)
    assert run(["classify", "--blocks", "blocks.json", "--intervals", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: blocks read no intervals; drop --intervals\n"


@pytest.mark.parametrize("leaf", [["criterion", "t1"], ["classify"]])
def test_an_interval_file_without_its_key_names_key_and_file(capsys, free_model_file, tmp_path,
                                                              leaf):
    # the object form read obj["intervals"], and the message was the bare key
    path = tmp_path / "iv.json"
    path.write_text(json.dumps({"markers": [0.5]}))
    assert run([*leaf, "--model", free_model_file, "--intervals", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: data file {path} has no key 'intervals'\n"


@pytest.mark.parametrize("model, spec, interval", [
    # a change of sigma of 1e200 inside the first unit interval
    ({"n": 1, "X": 3.0, "variant": "step_sigma", "cuts": [0.0, 0.5, 1.5],
      "values": [[[0.0]], [[1e200]], [[0.0]]]}, "unit:3", (0.0, 1.0)),
    # a delta cell of length 1e80, whose L^4 / 12 passes the float range
    ({"n": 1, "X": 3e80, "variant": "delta_nodes",
      "nodes": [{"x": 1e80, "H": [[1.0]]}, {"x": 2e80, "H": [[-1.0]]}]}, "file", (0.0, 2e80)),
], ids=["step-jump", "delta-spacing"])
def test_order_one_quadrature_overflow_exits_2_without_warnings(capsys, tmp_path, model, spec,
                                                                  interval):
    # the Gram recursion runs in Python floats, whose ** would raise OverflowError
    path, ivs = tmp_path / "model.json", tmp_path / "intervals.json"
    path.write_text(json.dumps(model))
    ivs.write_text(json.dumps([list(interval)]))
    message = f"kernel quadrature overflowed on {interval}"
    problem = sldl.quasidiff.model_from_json(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            sldl.kernel_square_integrals(problem, *interval)
        assert str(caught.value) == message
        spec = spec if spec != "file" else f"file:{ivs}"
        assert run(["criterion", "t1", "--model", str(path), "--intervals", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


_RAW_FLOATS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
_FLOATS = st.one_of(_RAW_FLOATS, st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308]))
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)  # surrogates too
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.integers(2 ** 53, 2 ** 80), st.integers(-(2 ** 80), -(2 ** 53)),
    _FLOATS, _FLOATS.map(np.float64), st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    _TEXT, st.lists(_FLOATS, min_size=1, max_size=12),
    st.lists(_FLOATS, min_size=1, max_size=12).map(tuple))
_DOCUMENTS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(st.one_of(_TEXT, st.integers()), kids, max_size=5)), max_leaves=30)


@given(_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_canonical_json_equals_the_item_at_a_time_encoder(doc):
    assert canonical_json(doc) == reference_json.canonical_json(doc)


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


# ---------------------------------------------------------------------------
# range policy of the diagonal jump terms, non-finite nodes and cuts


@pytest.mark.parametrize("argv, data", [
    (["criterion", "cor2", "--d", "const:1e160", "--channel", "diag:1", "--count", "5"], None),
    (["criterion", "cor2", "--d", "const:1e-320", "--channel", "diag:1", "--count", "5"], None),
    (["criterion", "t5", "--channel", "diag:1"],
     {"intervals": [[0.0, 2e160]], "markers": [1e160], "jumps": [[[1.0]]]}),
    (["criterion", "cor1", "--channel", "diag:1"],
     {"lengths": [1e-320, 2.0], "jumps": [[[1.0]], [[1.0]]]}),
], ids=["cor2-infinite", "cor2-nan", "t5-infinite", "cor1-nan"])
def test_diagonal_jump_terms_out_of_the_float_range_exit_2(capsys, tmp_path, argv, data):
    # these gave Infinity terms (rho s past the float maximum) or NaN ones
    # (1/d infinite while rho s or rho ** 2.5 is 0) with exit status 0
    if data is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--data", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the jump series leaves the float range at term 1\n"


SKEW_JUMPS = [[[0.0, 1.0], [5.0, 0.0]]] * 2
HERMITIAN_JUMPS = [[[1.5, [0.25, 0.5]], [[0.25, -0.5], -2.0]],
                   [[0.0, [0.0, -1.0]], [[0.0, 1.0], 4.0]]]


@pytest.mark.parametrize("command, data", [
    ("t5", {"intervals": [[0.0, 2.0], [3.0, 5.5]], "markers": [0.5, 4.0]}),
    ("cor1", {"lengths": [2.0, 0.75]}),
])
@pytest.mark.parametrize("jumps", [SKEW_JUMPS, [[[[1.0, 1e-6]]]] * 2], ids=["skew", "imaginary"])
@pytest.mark.parametrize("channel", ["diag:1", "offdiag:1,2", "offdiag:2,1"])
def test_jump_series_refuse_jumps_that_are_not_hermitian(capsys, tmp_path, command, data, jumps,
                                                         channel):
    # the skew jumps gave terms from h_12 = 1 on channel offdiag:1,2 and from h_21 = 5 on
    # offdiag:2,1, and an imaginary diagonal part was dropped, all with exit status 0
    path = tmp_path / "jumps.json"
    path.write_text(json.dumps({**data, "jumps": jumps}))
    assert run(["criterion", command, "--data", str(path), "--channel", channel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: jump matrices must be Hermitian\n"


@pytest.mark.parametrize("command, data, terms", [
    ("t5", {"intervals": [[0.0, 2.0], [3.0, 5.5]], "markers": [0.5, 4.0]},
     ["0x1.73ce704fb7b24p-2", "0x1.d64d51e0db1c6p+0"]),
    ("cor1", {"lengths": [2.0, 0.75]}, ["0x1.1e3779b97f4a8p+2", "0x1.b000000000000p-2"]),
])
@pytest.mark.parametrize("channel", ["offdiag:1,2", "offdiag:2,1"])
def test_jump_series_read_complex_hermitian_jumps(capsys, tmp_path, command, data, terms,
                                                  channel):
    path = tmp_path / "jumps.json"
    path.write_text(json.dumps({**data, "jumps": HERMITIAN_JUMPS}))
    code, doc = run_json(capsys, ["criterion", command, "--data", str(path), "--channel", channel])
    assert code == 0
    assert doc["result"]["reports"][0]["terms"] == [float.fromhex(t) for t in terms]


@pytest.mark.parametrize("model, message", [
    ({"n": 1, "X": 5.0, "variant": "delta_nodes",
      "nodes": [{"x": 1.0, "H": [[1.0]]}, {"x": math.nan, "H": [[2.0]]},
                {"x": 3.0, "H": [[1.0]]}]}, "nodes must be finite"),
    ({"n": 1, "X": 5.0, "variant": "step_sigma", "cuts": [0.0, 1.0, math.nan, 3.0],
      "values": [[[0.0]], [[1.0]], [[2.0]], [[0.5]]]}, "piece cuts must be finite"),
], ids=["delta-node", "step-cut"])
def test_models_with_a_nan_node_or_cut_exit_2(capsys, tmp_path, model, message):
    # NaN passed the order checks (b <= a is false), and t1 exited 0 without that jump
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(model))
    assert run(["criterion", "t1", "--model", str(path), "--intervals", "unit:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("model, argv, message", [
    ({"n": 1, "X": 3.0, "variant": "delta_nodes",
      "nodes": [{"x": 1.0, "H": [[1e308]]}, {"x": 2.0, "H": [[1e308]]}]},
     ["criterion", "t1", "--intervals", "unit:2"], "sigma leaves the float range at x = 2.0"),
    ({"n": 1, "X": 4.0, "variant": "step_sigma", "cuts": [0.0, 1.0, 2.0],
      "values": [[[1e308]], [[-1e308]], [[0.0]]]},
     ["classify"], "the change of sigma leaves the float range at x = 1.0"),
], ids=["delta-running-sum", "step-change"])
def test_sigma_past_the_float_range_exits_2(capsys, tmp_path, model, argv, message):
    # every entry given is finite; the running sum of the jumps (delta) or the
    # change of sigma at a cut (step) overflowed with a numpy warning, and the
    # error named non-finite matrix entries
    path = tmp_path / "huge-sigma.json"
    path.write_text(json.dumps(model))
    assert run([*argv, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_linear_model_with_a_nan_knot_exits_2(capsys, tmp_path):
    # NaN passed the order check, and classify certified LimitPoint through t2
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 1, "variant": "linear_sigma", "knots": [0.0, math.nan],
                                "values": [[[0.0]], [[20.0]]]}))
    assert run(["classify", "--model", str(path), "--intervals", "unit:20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: knots must be finite\n"


def test_an_infinite_domain_end_stays_accepted(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({**FREE_MODEL, "X": math.inf}))
    code, doc = run_json(capsys, ["criterion", "t1", "--model", str(path), "--intervals", "unit:3"])
    assert code == 0
    assert len(doc["result"]["reports"][0]["terms"]) == 3


# ---------------------------------------------------------------------------
# one parser per process


def _outcome(capsys, argv):
    """stdout, stderr and exit status of ``sldl ARGV`` run in this process."""
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_one_parser_per_process_answers_as_a_fresh_one(capsys, monkeypatch, leaf_files):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    build_parser.cache_clear()
    parser = build_parser()
    assert build_parser() is parser
    immutable = (type(None), str, int, float, bool)
    for p in _parsers(parser):
        assert all(isinstance(a.default, immutable) for a in p._actions)
        assert all(isinstance(v, immutable) for v in p._defaults.values())

    leaves = [title.split() + [a.format(**leaf_files) for a in argv]
              for title, argv, _ in LEAF_CASES]
    interludes = [["criterion", "cor2", "--d", "const:1", "--count", "many"],
                  ["jacobi", "t4", "--help"]]
    fresh = {}
    for argv in leaves + interludes:
        build_parser.cache_clear()
        fresh[tuple(argv)] = _outcome(capsys, argv)
    assert fresh[tuple(interludes[0])][2] == 2 and fresh[tuple(interludes[1])][2] == 0

    build_parser.cache_clear()
    parser = build_parser()
    for order in (leaves, leaves[::-1]):
        for k, argv in enumerate(order):
            for each in (argv, interludes[k % 2]):
                assert _outcome(capsys, each) == fresh[tuple(each)], each
    assert build_parser() is parser


# ---------------------------------------------------------------------------
# exit 3, report validation and what --data reads


def test_conflicting_certificates_exit_3_with_one_line(capsys, monkeypatch):
    # carleman certifies LimitPoint and t7 LimitCircle: classify raises, run exits 3
    import sldl.bridge as bridge

    fired = {"carleman": "DivergesProven", "t7": "Certified"}

    def runner(code):
        def run_criterion(s):
            yield code, [], fired[code], "forced"
        return run_criterion

    monkeypatch.setattr(bridge, "CRITERIA", tuple(
        c._replace(run=runner(c.code)) if c.code in fired else c for c in CRITERIA))
    assert run(["classify", "--gallery", "free-lattice"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("conflicting evidence: limit circle certified by ['t7']")


def _valid_report(capsys):
    code, doc = run_json(capsys, ["classify", "--gallery", "free-lattice"])
    assert code == 0 and doc["result"]["verdict"]["evidence"]
    return doc


def _drop(key):
    return lambda doc: doc.pop(key)


def _set(path, value):
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return change


@pytest.mark.parametrize("change, message", [
    *[(_drop(key), f"report is missing key {key!r}")
      for key in ("schema", "command", "config", "policy", "result")],
    (_set(["schema"], "sldl/2"), "unknown schema 'sldl/2'"),
    (_set(["result"], []), "result must be an object"),
    *[(lambda doc, key=key: doc["result"]["reports"][0].pop(key),
       f"criterion report missing {key!r}")
      for key in ("criterion", "terms", "partial_sums", "verdict", "verdict_basis")],
    (_set(["result", "reports", 0, "verdict"], "Proven"), "unknown verdict 'Proven'"),
    (lambda doc: doc["result"]["reports"][0]["terms"].pop(),
     "terms and partial_sums lengths differ"),
    (_set(["result", "verdict", "classification"], "Indeterminate"), "bad classification"),
    (_set(["result", "verdict", "side"], "Left"), "bad side"),
    *[(lambda doc, key=key: doc["result"]["verdict"]["evidence"][0].pop(key),
       f"evidence item missing {key!r}") for key in ("criterion", "verdict", "basis")],
])
def test_validate_report_names_each_rejection(capsys, change, message):
    doc = _valid_report(capsys)
    change(doc)
    with pytest.raises(ValueError) as caught:
        validate_report(doc)
    assert str(caught.value) == message


ORDER_2_LATTICE = {"d": [1.0] * 12, "H": [[[0.5, 0.0], [0.0, 0.5]]] * 11, "N": 4}


@pytest.mark.parametrize("extra", [["--d", "harmonic"], ["--H", "cancel"],
                                   ["--d", "harmonic", "--H", "cancel", "--n", "3"]])
def test_data_refuses_the_shorthands_it_does_not_read(capsys, tmp_path, extra):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(ORDER_2_LATTICE))
    assert run(["jacobi", "t7", "--data", str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --data holds d and H; drop --d and --H\n"


def test_data_takes_its_order_from_its_jumps(capsys, tmp_path):
    # the echo holds the order read and no --H; --u0 and --u1 are read at that order
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(ORDER_2_LATTICE))
    recurrence = ["jacobi", "recurrence", "--data", str(path), "--u0", "0,0", "--u1", "1,0",
                  "--steps", "6"]
    for order in ([], ["--n", "2"]):
        code, doc = run_json(capsys, ["jacobi", "t7", "--data", str(path), *order])
        assert code == 0
        assert (doc["config"]["d"], doc["config"]["H"], doc["config"]["n"]) == (None, None, 2)
        code, doc = run_json(capsys, recurrence + order)
        assert code == 0 and doc["config"]["n"] == 2
        assert [len(u) for u in doc["result"]["sequence"]] == [2] * 6
    assert run(recurrence + ["--n", "3"]) == 2
    assert capsys.readouterr().err == "error: expected order 3, got 2\n"


def test_jump_file_of_another_order_exits_2(capsys, tmp_path):
    path = tmp_path / "jumps2.json"
    path.write_text(json.dumps(ORDER_2_LATTICE["H"]))
    assert run(["criterion", "cor2", "--d", "const:1", "--count", "10",
                "--H", f"file:{path}", "--channel", "diag:1"]) == 2
    assert capsys.readouterr().err == "error: expected order 1, got 2\n"
