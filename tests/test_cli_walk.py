"""Input walk over every leaf of the ``sldl`` command tree.

Each leaf draws argvs that argparse accepts, with edge values in every
option: 0, negative counts, nan and inf, empty and one-element ``list:``
specs, ``const:0``, files without the keys a command needs, matrices of
mixed order, files of the wrong kind, numbers past what int and float take,
and nesting too deep for json. Whatever it is given, ``run``
must return 0, 2 or 3 without raising, and a failure must leave exactly
one ``error:`` or ``conflicting evidence:`` line on stderr. Drawn sizes
stay at or below 10**3.
"""

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldl.bridge import CRITERIA, gallery
from sldl.cli import run
from sldl.jacobi import blocks_from_delta, blocks_to_json
from test_cli import COMMAND_PATHS, LEAF_FILES, OUT_OF_RANGE_FILES

ZERO2 = [[0.0, 0.0], [0.0, 0.0]]
WALK_FILES = {
    **{f"{name}.json": json.dumps(obj) for name, obj in LEAF_FILES.items()},
    "general.json": json.dumps(
        {"n": 1, "X": 3.0, "variant": "general_triple", "cuts": [0.0, 1.5],
         "P": [[[1.0]], [[2.0]]], "Q": [[[0.5]], [[-0.5]]], "R": [[[0.0]], [[0.25]]]}),
    "distributional.json": json.dumps(
        {"n": 1, "X": 2.0, "variant": "distributional", "cuts": [0.0, 1.0],
         "P0": [[[1.0]], [[1.5]]], "Q0": [[[0.0]], [[0.5]]], "P1": [[[0.0]], [[0.25]]]}),
    "mixed-order-model.json": json.dumps(
        {"n": 2, "X": 3.0, "variant": "step_sigma", "cuts": [0.0, 1.0],
         "values": [ZERO2, [[1.0]]]}),
    "model-without-X.json": json.dumps({"n": 1, "variant": "delta_nodes",
                                        "nodes": [{"x": 1.0, "H": [[0.0]]}]}),
    "model-without-nodes.json": json.dumps({"n": 1, "X": 2.0, "variant": "delta_nodes"}),
    "nan-model.json": '{"n": 1, "X": NaN, "variant": "step_sigma", "cuts": [0.0], '
                      '"values": [[[0.0]]]}',
    "inf-sigma.json": '{"n": 1, "X": 2.0, "variant": "step_sigma", "cuts": [0.0], '
                      '"values": [[[Infinity]]]}',
    "t5-mixed-order.json": json.dumps({"intervals": [[0.0, 2.0], [3.0, 5.0]],
                                       "markers": [1.0, 4.0], "jumps": [[[0.0]], ZERO2]}),
    "cor1-zero-length.json": json.dumps({"lengths": [0.0, 1.0], "jumps": [[[1.0]], [[1.0]]]}),
    "lattice-mixed-order.json": json.dumps({"d": [1.0] * 12,
                                            "H": [[[0.0]]] * 6 + [ZERO2] * 5}),
    "lattice-nan.json": '{"d": [NaN, 1.0, 1.0, 1.0], "H": [[[0.0]], [[0.0]], [[0.0]]]}',
    "lattice-without-H.json": json.dumps({"d": [1.0] * 12}),
    "blocks.json": json.dumps(blocks_to_json(blocks_from_delta([1.0] * 14, [[[0.0]]] * 13))),
    "spacings.json": json.dumps([0.5, 1.0, 1.5, 2.0]),
    "spacings-with-zero.json": json.dumps([1.0, 0.0, 1.0]),
    "jumps-mixed-order.json": json.dumps([[[0.0]], ZERO2]),
    "intervals-overlapping.json": json.dumps([[0.0, 1.0], [0.5, 2.0]]),
    "intervals-marker-outside.json": json.dumps({"intervals": [[0.0, 1.0]], "markers": [2.0]}),
    "empty-list.json": "[]",
    "empty-object.json": "{}",
    "number.json": "3",
    "not-json.json": "{",
    **OUT_OF_RANGE_FILES,
}

NUMBERS = ["0", "-1", "1", "2.5", "1e-300", "nan", "inf", "-inf"]
COUNTS = ["0", "-1", "1", "2", "3", "12", "1000"]
number = st.sampled_from(NUMBERS)
count = st.sampled_from(COUNTS)
files = st.sampled_from(sorted(WALK_FILES) + ["missing.json"])
order = st.sampled_from(["0", "-1", "1", "2", "3"])  # matrix order n


def spec(prefix, values):
    return values.map(lambda v: prefix + v)


def joined(values, min_size=0, max_size=4):
    return st.lists(values, min_size=min_size, max_size=max_size).map(",".join)


spacings = st.one_of(st.just("harmonic"), spec("const:", number), spec("power:", number),
                     spec("list:", joined(number)), spec("file:", files),
                     st.just("bogus"))
jumps = st.one_of(st.sampled_from(["zero", "cancel", "bogus"]), spec("const:", number),
                  spec("file:", files))
intervals = st.one_of(spec("unit:", count), spec("file:", files), st.just("bogus:1"))
segments = st.one_of(
    st.lists(st.tuples(count, count).map("-".join), min_size=1, max_size=3).map(",".join),
    st.just("1-x"))
channel = st.one_of(spec("diag:", count),
                    st.tuples(count, count).map(lambda ij: f"offdiag:{ij[0]},{ij[1]}"),
                    st.just("bogus"))
vector = joined(number, 0, 3)
codes = joined(st.sampled_from([c.code for c in CRITERIA] + ["bogus", "t5_diag", ""]), 0, 3)
names = st.sampled_from([e.name for e in gallery()] + ["nope"])

# per leaf: option -> (strategy, required); files are paths relative to the walk dir
LATTICE = {"--H": (jumps, False), "--n": (order, False), "--count": (count, False)}
JACOBI = {**LATTICE, "--d": (spacings, False), "--data": (files, False)}
LEAVES = {
    "classify": {"--model": (files, False), "--blocks": (files, False),
                 "--gallery": (names, False), "--intervals": (intervals, False),
                 "--N": (count, False), "--segments": (segments, False),
                 "--criteria": (codes, False)},
    "criterion t1": {"--model": (files, True), "--intervals": (intervals, True),
                     "--threshold": (number, False)},
    "criterion t2": {"--model": (files, True), "--intervals": (intervals, True)},
    "criterion t5": {"--data": (files, True), "--channel": (channel, True),
                     "--threshold": (number, False)},
    "criterion cor1": {"--data": (files, True), "--channel": (channel, True),
                       "--threshold": (number, False)},
    "criterion cor2": {**LATTICE, "--d": (spacings, True), "--channel": (channel, True),
                       "--threshold": (number, False)},
    "jacobi build": JACOBI,
    "jacobi recurrence": {**JACOBI, "--u0": (vector, True), "--u1": (vector, True),
                          "--steps": (count, False)},
    "jacobi cauchy": {**JACOBI, "--i": (count, True), "--j": (count, True)},
    "jacobi t4": {**JACOBI, "--segments": (segments, True)},
    "jacobi carleman": {**JACOBI, "--N": (count, False)},
    "jacobi t7": {**JACOBI, "--N": (count, False)},
    "jacobi cor3": {**JACOBI, "--N": (count, False)},
    "bridge residual": {"--model": (files, True), "--count": (count, False),
                        "--f": (vector, False), "--f1": (vector, False)},
    "bridge l2": {**LATTICE, "--d": (spacings, True), "--u0": (vector, True),
                  "--u1": (vector, True), "--steps": (count, False)},
    "gallery list": {},
    "gallery run": {},
}
ONE_LINE = re.compile(r"(error|conflicting evidence): [^\n]*\n")


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("walk")
    for name, text in WALK_FILES.items():
        (root / name).write_text(text)
    return root


def test_walk_covers_the_command_tree():
    groups = {path[:-1] for path in COMMAND_PATHS if path}
    assert sorted(LEAVES) == sorted(" ".join(p) for p in COMMAND_PATHS if p and p not in groups)


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_input_exits_0_2_or_3_with_one_line_on_failure(walk_dir, leaf, data):
    argv = leaf.split()
    for option, (values, required) in LEAVES[leaf].items():
        if required or data.draw(st.booleans(), label=f"give {option}"):
            argv.append(f"{option}={data.draw(values, label=option)}")
    if leaf == "gallery run" and data.draw(st.booleans(), label="give name"):
        argv.append(data.draw(names, label="name"))
    if data.draw(st.booleans(), label="text format"):
        argv.append("--format=text")
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(walk_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(home)
    assert code in (0, 2, 3), argv
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert out.getvalue() == "", argv
        assert ONE_LINE.fullmatch(err.getvalue()), (argv, err.getvalue())
