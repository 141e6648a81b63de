#!/usr/bin/env python3
"""Digest of the CLI's observable behaviour over a fixed list of invocations.

Prints one line per invocation: the sha256 of stdout, the sha256 of
stderr, the exit code and the argv. The list covers every leaf of the
``sldl`` command tree, their error paths and every ``--help`` screen.
Fixture models are written to a temporary directory and the invocations
run there with relative paths, because a report's config echo contains
the path it was given. Comparing two source trees is a ``diff`` of two
runs:

Usage: python scripts/cli_digest.py [SRC]    # SRC holds the sldl package;
                                              # default: this checkout's src/
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

FREE = {"n": 1, "X": 100.0, "variant": "step_sigma", "cuts": [0.0], "values": [[[0.0]]]}
DELTA = {"n": 1, "X": 21.0, "variant": "delta_nodes",
         "nodes": [{"x": float(k), "H": [[-0.5 if k % 3 else 0.25]]} for k in range(1, 21)]}
DELTA2 = {"n": 2, "X": 13.0, "variant": "delta_nodes",
          "nodes": [{"x": float(k), "H": [[-3.0, 1.0], [1.0, -3.0]]} for k in range(1, 13)]}
LINEAR = {"n": 1, "variant": "linear_sigma", "knots": [0.0, 20.0],
          "values": [[[0.0]], [[20.0]]]}
GENERAL = {"n": 1, "X": 3.0, "variant": "general_triple", "cuts": [0.0, 1.5],
           "P": [[[1.0]], [[2.0]]], "Q": [[[0.5]], [[-0.5]]], "R": [[[0.0]], [[0.25]]]}
DISTRIBUTIONAL = {"n": 1, "X": 3.0, "variant": "distributional", "cuts": [0.0, 1.0, 2.0],
                  "P0": [[[1.0]], [[1.5]], [[1.0]]], "Q0": [[[0.0]], [[0.5]], [[-0.5]]],
                  "P1": [[[0.0]], [[0.25]], [[0.0]]]}
# Q0 = O: phi = P1 is real, and so are the generators
DISTRIBUTIONAL_REAL = {**DISTRIBUTIONAL, "Q0": [[[0.0]]] * 3}
STIFF = {"n": 1, "X": 1.0, "variant": "general_triple", "cuts": [0.0],
         "P": [[[1.0]]], "Q": [[[1e6]]], "R": [[[0.0]]]}
HUGE_Q = {**STIFF, "Q": [[[4e307]]]}  # the exponential's scaling would pass 2^1023
NAN_NODE = {**DELTA, "nodes": [*DELTA["nodes"][:5], {"x": float("nan"), "H": [[1.0]]},
                               *DELTA["nodes"][6:]]}
NAN_CUT = {**FREE, "cuts": [0.0, 1.0, float("nan"), 3.0], "values": [[[0.0]]] * 4}
NAN_KNOT = {**LINEAR, "knots": [0.0, float("nan")]}
# finite entries whose sigma overflows: the running sum of the jumps, and a change at a cut
HUGE_SIGMA_DELTA = {"n": 1, "X": 3.0, "variant": "delta_nodes",
                    "nodes": [{"x": 1.0, "H": [[1e308]]}, {"x": 2.0, "H": [[1e308]]}]}
HUGE_SIGMA_STEP = {"n": 1, "X": 4.0, "variant": "step_sigma", "cuts": [0.0, 1.0, 2.0],
                   "values": [[[1e308]], [[-1e308]], [[0.0]]]}
# delta models whose march leaves the float range
HUGE_JUMPS = {h: {"n": 1, "X": 41.0, "variant": "delta_nodes",
                  "nodes": [{"x": float(k), "H": [[h]]} for k in range(1, 41)]}
              for h in (1e200, 1e80)}
# an order-1 step model of 60 pieces with varying lengths and nonzero changes of sigma
STEP60 = {"n": 1, "X": 60.5, "variant": "step_sigma",
          "cuts": [0.0, *(k + (k % 7) / 8 for k in range(1, 60))],
          "values": [[[((37 * k) % 13 - 6) / 4]] for k in range(60)]}
# an order-1 step model of 40 unit pieces with one sigma value: its lattice has
# d_k = 1 and zero changes of sigma, so carleman certifies LimitPoint
STEP40_FLAT = {"n": 1, "X": 41.0, "variant": "step_sigma", "cuts": [float(k) for k in range(41)],
               "values": [[[0.75]]] * 41}
# order-1 models whose kernel quadrature overflows: a huge change of sigma inside
# the first unit interval, and a delta cell of length 1e80
HUGE_STEP_JUMP = {"n": 1, "X": 3.0, "variant": "step_sigma", "cuts": [0.0, 0.5, 1.5],
                  "values": [[[0.0]], [[1e200]], [[0.0]]]}
HUGE_SPACINGS = {"n": 1, "X": 3e80, "variant": "delta_nodes",
                 "nodes": [{"x": 1e80, "H": [[1.0]]}, {"x": 2e80, "H": [[-1.0]]}]}
# an order-2 step model of 30 pieces with varying lengths and nonzero changes of sigma
STEP2 = {"n": 2, "X": 30.5, "variant": "step_sigma",
         "cuts": [0.0, *(k + (k % 5) / 8 for k in range(1, 30))],
         "values": [[[((37 * k) % 13 - 6) / 4, ((11 * k) % 7 - 3) / 4],
                     [((11 * k) % 7 - 3) / 4, ((23 * k) % 11 - 5) / 4]] for k in range(30)]}
# an order-2 step model whose kernel quadrature overflows: a huge change of sigma
# inside the first unit interval
HUGE_STEP_JUMP2 = {"n": 2, "X": 3.0, "variant": "step_sigma", "cuts": [0.0, 0.5, 1.5],
                   "values": [[[0.0, 0.0], [0.0, 0.0]], [[1e200, 0.5], [0.5, -1e200]],
                              [[0.0, 0.0], [0.0, 0.0]]]}
# real symmetric jumps with imaginary parts within the Hermitian tolerance, as
# [re, im] pairs: a delta model, and order-2 jumps for --H file:
TILTED_DELTA = {**DELTA, "nodes": [{"x": e["x"], "H": [[[e["H"][0][0], 1e-12 * (-1) ** k]]]}
                                   for k, e in enumerate(DELTA["nodes"])]}
TILTED_JUMPS = [[[[1.0, 1e-12], [0.5, -3e-11]], [[0.5, 3e-11], [-1.0, 0.0]]]] * 9
FIXTURES = {
    "free.json": FREE, "delta.json": DELTA, "delta2.json": DELTA2,
    "nocuts.json": {k: v for k, v in FREE.items() if k != "cuts"},
    "linear.json": LINEAR, "general.json": GENERAL,
    "distributional.json": DISTRIBUTIONAL, "distributional-real.json": DISTRIBUTIONAL_REAL,
    "stiff.json": STIFF, "huge-q.json": HUGE_Q,
    "nan-node.json": NAN_NODE, "nan-cut.json": NAN_CUT, "nan-knot.json": NAN_KNOT,
    "huge-jumps-1e200.json": HUGE_JUMPS[1e200], "huge-jumps-1e80.json": HUGE_JUMPS[1e80],
    "huge-sigma-delta.json": HUGE_SIGMA_DELTA, "huge-sigma-step.json": HUGE_SIGMA_STEP,
    "step60.json": STEP60, "step40-flat.json": STEP40_FLAT, "huge-step-jump.json": HUGE_STEP_JUMP,
    "huge-spacings.json": HUGE_SPACINGS, "huge-intervals.json": [[0.0, 2e80]],
    "step2.json": STEP2, "huge-step-jump2.json": HUGE_STEP_JUMP2,
    "delta-tilted.json": TILTED_DELTA, "jumps-tilted.json": TILTED_JUMPS,
    "intervals.json": {"intervals": [[0.0, 1.0], [2.0, 4.0], [5.0, 8.0]]},
    "markers-only.json": {"markers": [0.5]},
    "t5.json": {"intervals": [[0.0, 2.0], [3.0, 5.0]], "markers": [1.0, 4.0],
                "jumps": [[[0.5]], [[-1.0]]]},
    "cor1.json": {"lengths": [2.0, 2.0, 3.0], "jumps": [[[0.0]], [[1.0]], [[2.0]]]},
    "cor1-nan.json": {"lengths": [float("nan"), 2.0], "jumps": [[[0.0]], [[1.0]]]},
    "cor1-huge.json": {"lengths": [1e150, 2.0], "jumps": [[[1.0]], [[1.0]]]},
    "lattice.json": {"d": [1.0 / k for k in range(1, 25)],
                     "H": [[[-(k + 1.0 / (k + 1))]] for k in range(1, 24)], "N": 8},
    "spacings.json": [0.5 + 0.1 * k for k in range(40)],
    "jumps2.json": [[[1.0, 0.5], [0.5, -1.0]]] * 9,
    "jumps3.json": [[[1.0, 0.5, -0.25], [0.5, -1.0, 0.75], [-0.25, 0.75, 0.5]]] * 9,
    "nonsym.json": [[[0.0, 0.0], [0.0, 0.0]]] * 8 + [[[0.0, 1.0], [0.0, 0.0]]],
    # matrix sequences as the JSON reader sees them: Hermitian jumps that mix numbers
    # and [re, im] pairs within a matrix and across matrices, a string entry, 1 x 1
    # jumps for --n 2, and a lattice whose jump holds a row that is not a list
    "t5-mixed.json": {"intervals": [[0.0, 2.0], [3.0, 5.0]], "markers": [1.0, 4.0],
                      "jumps": [[[0.5, [0.25, 0.5]], [[0.25, -0.5], [-1.0, -0.0]]],
                                [[1, 0.0], [0, [2.0, 0.0]]]]},
    "cor1-string.json": {"lengths": [2.0, 2.0], "jumps": [[[0.0]], [["1.5"]]]},
    "jumps1.json": [[[1.0]]] * 9,
    "lattice-row.json": {"d": [1.0] * 12, "H": [[[0.0]]] * 2 + [[0.0]] + [[[0.0]]] * 8, "N": 3},
    # a bool, a string or a fraction where a file holds a number, of each kind: a list of
    # numbers, a number and an integer field; and a delta model of two nodes
    "spacings-bool.json": [1.0, True, "0.5", 1.0],
    "lattice-N-fraction.json": {"d": [1.0] * 12, "H": [[[0.0]]] * 11, "N": 2.9},
    "lattice-N-bool.json": {"d": [1.0] * 12, "H": [[[0.0]]] * 11, "N": True},
    "model-n-bool.json": {**FREE, "n": True, "X": "2.5"},
    "model-X-string.json": {**FREE, "X": "2.5"},
    "cor1-lengths-string.json": {"lengths": [1.0, "2"], "jumps": [[[0.0]], [[1.0]]]},
    "intervals-bool.json": [[0, True], ["1", "2"]],
    "delta-2.json": {**DELTA, "X": 3.0, "nodes": DELTA["nodes"][:2]},
}

# files written as they are: numbers that json reads but int, float or complex
# cannot take, and nesting json cannot read
HUGE = str(10 ** 400)
RAW_FIXTURES = {
    "model-n-inf.json": '{"n": 1e999, "X": 2.0, "variant": "delta_nodes", '
                        '"nodes": [{"x": 1.0, "H": [[0.0]]}]}',
    "lattice-N-inf.json": '{"d": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], '
                          '"H": [[[0.0]], [[0.0]], [[0.0]], [[0.0]], [[0.0]]], "N": 1e999}',
    "lattice-huge-d.json": '{"d": [' + HUGE + ', 1.0, 1.0], "H": [[[0.0]], [[0.0]]]}',
    "jumps-huge.json": "[[[" + HUGE + "]]]",
    "model-huge-x.json": '{"n": 1, "X": 2.0, "variant": "delta_nodes", '
                         '"nodes": [{"x": ' + HUGE + ', "H": [[0.0]]}]}',
    "deep.json": "[" * 3000 + "]" * 3000,
}

HELP = [[], ["classify"], ["criterion"], ["jacobi"], ["bridge"], ["gallery"]]
HELP += [["criterion", c] for c in ("t1", "t2", "t5", "cor1", "cor2")]
HELP += [["jacobi", op] for op in ("build", "recurrence", "cauchy", "t4", "carleman",
                                   "t7", "cor3")]
HELP += [["bridge", "residual"], ["bridge", "l2"], ["gallery", "list"], ["gallery", "run"]]

INVOCATIONS = [
    # classify
    "classify --gallery christ-stolz",
    "classify --gallery free-lattice --format text",
    "classify --gallery offdiagonal-divergence --N 20",
    "classify --model free.json --intervals unit:10",
    "classify --model delta.json --intervals unit:5 --N 10 --segments 2-4,5-8 "
    "--criteria t1,cor2,carleman,t4",
    "classify --model delta2.json --N 4 --criteria cor2,t7,cor3",
    "classify --model linear.json --intervals unit:20",
    "classify --model general.json --intervals unit:3",
    "classify --model distributional.json --intervals unit:3 --format text",
    "jacobi build --d const:1 --count 14 -o built.json",
    "classify --blocks built.json --segments 1-5,6-10",
    "classify --blocks illcond.json --segments 1-5,6-10",
    "classify --blocks illcond-b7.json --segments 1-5,6-10",
    "classify",
    "classify --model free.json --blocks built.json",
    "classify --gallery nope",
    "classify --model missing.json",
    "classify --model intervals.json",
    "classify --model nocuts.json --intervals unit:3",
    "classify --blocks growing.json --criteria carleman --N 40",
    "classify --blocks free-cs.json --criteria t7,cor3 --N 150",
    "classify --blocks offset-1.json",
    "classify --blocks offset-2.json",
    "classify --gallery free-lattice --criteria bogus",
    "classify --gallery free-lattice --criteria ,",
    "classify --gallery free-lattice --criteria t5_diag",
    "classify --gallery free-lattice --segments 1-x",
    "classify --model free.json --intervals bogus:3",
    "classify --gallery free-lattice -o no/dir/out.json",
    # criterion
    "criterion t1 --model free.json --intervals unit:20",
    "criterion t1 --model free.json --intervals file:intervals.json --threshold 0.1",
    "criterion t1 --model stiff.json --intervals unit:1",
    "criterion t1 --model huge-q.json --intervals unit:1",
    "criterion t1 --model general20.json --intervals unit:16",
    "criterion t1 --model distributional.json --intervals unit:3",
    "criterion t1 --model delta2.json --intervals unit:12",
    "criterion t1 --model free.json",
    "criterion t2 --model linear.json --intervals unit:20",
    "criterion t2 --model free.json --intervals unit:5",
    "criterion t5 --data t5.json --channel diag:1",
    "criterion t5 --data t5.json --channel diag:1 --threshold 0.5 --format text",
    "criterion t5 --data t5.json --channel bogus",
    "criterion cor1 --data cor1.json --channel diag:1",
    "criterion cor1 --data missing.json --channel diag:1",
    "criterion cor1 --data t5.json --channel diag:1",
    "criterion cor1 --data cor1-nan.json --channel diag:1",
    "criterion cor1 --data cor1-huge.json --channel diag:1",
    "criterion t5 --data cor1.json --channel diag:1",
    "criterion t1 --model free.json --intervals unit:0",
    "criterion cor2 --d const:1 --count 0 --channel diag:1",
    "criterion cor2 --d const:0 --H cancel --channel diag:1",
    "criterion cor2 --d harmonic --H cancel --count 40 --channel diag:1",
    "criterion cor2 --d const:1 --H file:jumps2.json --n 2 --count 10 --channel offdiag:1,2",
    "criterion cor2 --d bogus:1 --channel diag:1",
    "criterion cor2 --d power:1000 --channel diag:1",
    "criterion cor2 --d const:1e150 --n 2 --channel offdiag:1,2",
    "criterion cor2 --d const:1e200 --n 2 --channel offdiag:1,2",
    "criterion cor2 --d const:1 --H bogus --channel diag:1",
    "criterion bogus",
    # jacobi
    "jacobi build --d const:1 --count 6",
    "jacobi build --d list:1,2,3,4 --H const:2",
    "jacobi build --data lattice.json",
    "jacobi build --d list:1,2",
    "jacobi build --data intervals.json",
    "jacobi build --d const:0 --H cancel",
    "jacobi build --d power:1000",
    "jacobi recurrence --d harmonic --H cancel --u0 1 --u1 0 --steps 30 --count 40",
    "jacobi recurrence --d const:1 --n 2 --u0 1,0 --u1 0,1 --steps 8",
    "jacobi recurrence --data lattice.json --u0 0 --u1 1 --steps 6",
    "jacobi recurrence --d const:1 --u0 0,1 --u1 1",
    "jacobi cauchy --d const:1 --i 4 --j 3",
    "jacobi cauchy --d power:0.5 --H const:-1 --i 6 --j 2 --format text",
    "jacobi cauchy --d const:1 --i 2 --j 5",
    "jacobi t4 --d harmonic --H cancel --segments 1-5,6-12 --count 20",
    "jacobi t4 --data lattice.json --segments 1-3,4-6",
    "jacobi t4 --data missing.json --segments 1-x",
    "jacobi t4 --data lattice.json --segments 1-30",
    "jacobi carleman --d const:1 --N 20",
    "jacobi carleman --data lattice.json",
    "jacobi carleman",
    # a spacing ratio of the tail underflows to 0.0: no power-law exponent
    "jacobi carleman --d list:1,1,1,1,1,1,1,1,1e150,1e-175,1,2,3,5,7,11 --H const:0 --N 12",
    "jacobi t7 --d harmonic --H cancel --N 20 --count 50",
    "jacobi t7 --data lattice.json",
    "jacobi t7 --d list:1,1,1,1 --N 5",
    "jacobi t7 --d power:400 --N 10",
    "jacobi cor3 --d harmonic --H cancel --N 20 --count 50",
    "jacobi cor3 --d file:spacings.json --H const:0.5 --N 10",
    "jacobi cor3 --d const:1 --n 2 --H file:nonsym.json --N 6 --count 10",
    # huge finite values: jump norms past the square root of the float maximum
    # or below that of its least normal, squares and sums of spacings past the
    # maximum, and products that print Infinity
    "jacobi t7 --d const:1e-300 --N 5",
    "jacobi t7 --d const:1e200 --N 20",
    "jacobi cor3 --d const:1e-300 --N 5",
    "jacobi cor3 --d const:1e200 --N 5",
    "jacobi build --d const:1e308",
    "jacobi t7 --d list:" + ",".join(["1e-3", "1e3"] * 60) + " --N 50",
    "jacobi",
    # long marches
    "jacobi recurrence --d harmonic --H cancel --u0 1 --u1 0 --steps 20000",
    "jacobi recurrence --d const:1 --n 2 --H file:jumps2.json --u0 1,0 --u1 0,1 --steps 9",
    "jacobi t4 --d harmonic --H cancel --count 2502 --segments 1-200,1101-1300,2301-2500",
    "jacobi recurrence --d const:1 --H const:1e300 --u0 1 --u1 1 --steps 100",
    "jacobi t4 --d const:1 --H const:1e200 --segments 1-40 --count 50",
    "bridge l2 --d const:1 --H const:1e200 --u0 1 --u1 1 --steps 100",
    "jacobi cauchy --d harmonic --H cancel --i 1150 --j 150",
    "bridge residual --model christ-stolz-2000.json",
    "bridge residual --model christ-stolz-2000.json --f 0.25 --f1 -0.5",
    # bridge
    "bridge residual --model delta.json",
    "bridge residual --model delta.json --count 5 --f 0.5 --f1 1",
    "bridge residual --model delta2.json --f 1,0 --f1 0,1 --format text",
    "bridge residual --model free.json",
    "bridge residual --model delta.json --count 0",
    "bridge residual --model delta.json --count -4",
    "bridge residual --model delta.json --count 100",
    "bridge residual --model delta.json --f 1,2",
    "bridge residual --model huge-jumps-1e200.json",
    "bridge residual --model huge-jumps-1e80.json",
    "bridge l2 --d const:1 --u0 0 --u1 1 --steps 30 --count 40",
    "bridge l2 --d harmonic --H cancel --u0 1 --u1 0 --steps 30 --count 40 --format text",
    "bridge l2 --d const:1 --n 2 --u0 1,0 --u1 0,1 --steps 12",
    "bridge l2 --d const:1 --u0 0 --u1 1 --steps 0",
    "bridge l2 --u0 0 --u1 1",
    # gallery
    "gallery list",
    "gallery list --format text",
    "gallery run free-lattice",
    "gallery run monotone-sigma --format text",
    "gallery run",
    "gallery run nope",
    "",
    # diagonal jump terms past the float range; a NaN node, cut or knot
    "criterion cor2 --d const:1e160 --channel diag:1 --count 5",
    "criterion cor2 --d const:1e-320 --channel diag:1 --count 5",
    "criterion t1 --model nan-node.json --intervals unit:3",
    "criterion t1 --model nan-cut.json --intervals unit:3",
    "classify --model nan-knot.json --intervals unit:20",
    # a lattice order below 1
    "jacobi build --n 0 --d const:1 --H cancel",
    # subnormal spacings: infinite reciprocal sums on the diagonals of order 2 shifted jumps
    "jacobi t7 --d list:1,5e-324,2,1e-310,3,1,0.5,2 --H const:1 --n 2 --N 2",
    "jacobi cor3 --d list:1,5e-324,2,1e-310,3,1,0.5,2 --H const:1 --n 2 --N 2",
    # sigma past the float range from finite entries
    "criterion t1 --model huge-sigma-delta.json --intervals unit:2",
    "classify --model huge-sigma-step.json",
    # long order-1 Gram recursions
    "criterion t1 --model christ-stolz-2000.json --intervals unit:8",
    "criterion t1 --model step60.json --intervals unit:60",
    "criterion t1 --model step60.json --intervals file:intervals.json",
    # order-1 kernel quadrature past the float range
    "criterion t1 --model huge-step-jump.json --intervals unit:3",
    "criterion t1 --model huge-spacings.json --intervals file:huge-intervals.json",
    # more unit intervals than the domain holds
    "criterion t1 --model free.json --intervals unit:101",
    "criterion t2 --model linear.json --intervals unit:21",
    "classify --model free.json --intervals unit:101",
    "criterion t1 --model free.json --intervals unit:99999999999999999999",
    # intervals for blocks, which read none; an interval file without its key
    "classify --blocks built.json --intervals unit:3",
    "classify --blocks built.json --intervals unit:99999999999999999999",
    "criterion t1 --model free.json --intervals file:markers-only.json",
    # order-2 step models: real Gram matrices, and their quadrature past the float range
    "criterion t1 --model step2.json --intervals unit:30",
    "classify --model step2.json --intervals unit:30",
    "criterion t1 --model huge-step-jump2.json --intervals unit:3",
    # N below 1 on a model that reads no lattice series; a threshold that is not finite
    "classify --model free.json --N 0",
    "criterion t1 --model free.json --intervals unit:3 --threshold nan",
    # order-2 lattices with jumps and uneven spacings: real matrix products on real blocks
    "jacobi recurrence --d power:0.5 --count 10 --n 2 --H file:jumps2.json --u0 1,0.5"
    " --u1=-0.25,1 --steps 9",
    "jacobi recurrence --d list:0.3,1.7,0.9,2.2,0.45,1.3,0.8,1.1,0.6,1.9 --n 2"
    " --H file:jumps2.json --u0 1,0.5 --u1=-0.25,1 --steps 9",
    "jacobi cauchy --d list:0.3,1.7,0.9,2.2,0.45,1.3,0.8,1.1,0.6,1.9 --n 2"
    " --H file:jumps2.json --i 8 --j 1",
    "jacobi t4 --d list:0.3,1.7,0.9,2.2,0.45,1.3,0.8,1.1,0.6,1.9 --n 2 --H file:jumps2.json"
    " --segments 1-4,4-8",
    # imaginary parts within the Hermitian tolerance read from JSON: a delta model, jump
    # files, and blocks whose provenance jumps and A_0 carry them
    "classify --model delta-tilted.json --intervals unit:5 --N 10 --segments 2-4,5-8",
    "bridge residual --model delta-tilted.json",
    "jacobi build --d const:1 --n 2 --H file:jumps-tilted.json --count 10",
    "jacobi t7 --d power:0.5 --n 2 --H file:jumps-tilted.json --N 4 --count 10",
    "classify --blocks tilted-blocks.json --segments 1-5,6-10",
    # an order-2 lattice whose rotated jumps are symmetric only to rounding, and a t4
    # segment past the float range: classify gives Inconclusive evidence, not exit 2
    "classify --model rotated.json",
    "classify --blocks t4-overflow.json --segments 1-40,41-120,121-300",
    # real general and distributional models: float64 pieces, generators and cells
    "criterion t1 --model general20-real.json --intervals unit:16",
    "criterion t1 --model distributional-real.json --intervals unit:3",
    # order-1 step models classified through the lattice of their changes of sigma
    "classify --model step60.json",
    "classify --model step60.json --N 5 --criteria t7,cor3,carleman",
    "classify --model step60.json --N 29",
    "classify --model step40-flat.json",
    # scalar off-diagonal blocks, one BLAS product per step: a march past the float range,
    # and on an uneven lattice with jumps an order-3 vector state, and an order-3 matrix
    # state, whose nine entries keep the loop of three BLAS products
    "jacobi recurrence --d const:1 --n 2 --H const:1e300 --u0 1,1 --u1 1,-0.5 --steps 100",
    "jacobi recurrence --d list:0.3,1.7,0.9,2.2,0.45,1.3,0.8,1.1,0.6,1.9 --n 3"
    " --H file:jumps3.json --u0 1,-0.5,0 --u1=-0,1,0.25 --steps 9",
    "jacobi cauchy --d list:0.3,1.7,0.9,2.2,0.45,1.3,0.8,1.1,0.6,1.9 --n 3"
    " --H file:jumps3.json --i 8 --j 1",
]
# after the help screens: numbers past the range of int, float or complex, and deep nesting
RANGE_INVOCATIONS = [
    "classify --model model-n-inf.json",
    "classify --blocks blocks-n-inf.json",
    "jacobi t7 --data lattice-N-inf.json",
    "jacobi build --data lattice-huge-d.json",
    "jacobi build --d const:1 --count 2 --H file:jumps-huge.json",
    "bridge residual --model model-huge-x.json",
    "jacobi build --d file:deep.json",
    "classify --model deep.json",
]
# after those: the JSON matrix reader on mixed entries and on one fault each
READER_INVOCATIONS = [
    "criterion t5 --data t5-mixed.json --channel offdiag:1,2",
    "criterion cor1 --data cor1-string.json --channel diag:1",
    "criterion cor2 --d const:1 --H file:jumps1.json --n 2 --count 10 --channel diag:1",
    "jacobi t7 --data lattice-row.json",
    "classify --blocks nan-b.json",
]
# after those: the one number rule on each kind of number a file holds, and a residual whose
# default count, the node count less 3, is below 1
NUMBER_INVOCATIONS = [
    "jacobi build --d file:spacings-bool.json",
    "jacobi t7 --data lattice-N-fraction.json",
    "jacobi t7 --data lattice-N-bool.json",
    "classify --model model-n-bool.json",
    "classify --model model-X-string.json",
    "criterion cor1 --data cor1-lengths-string.json --channel diag:1",
    "criterion t1 --model free.json --intervals file:intervals-bool.json",
    "classify --blocks blocks-offset-false.json",
    "bridge residual --model delta-2.json",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invoke(run, argv) -> tuple[str, str, int]:
    """Run ``sldl ARGV`` in-process as a fresh process would see it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
        except Exception as exc:  # would be a traceback and exit status 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return out.getvalue(), err.getvalue(), code


def main() -> None:
    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                       else pathlib.Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(src.resolve()))
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    import numpy as np
    from sldl import DeltaNodes, blocks_from_delta, christ_stolz_family
    from sldl.cli import run
    from sldl.jacobi import blocks_to_json, cancel_jumps
    from sldl.matcore import matrix_to_json
    from sldl.quasidiff import model_to_json

    # the christ-stolz delta model on 2000 nodes, built as the gallery builds it
    d, H = christ_stolz_family(2001)
    # n = 2 lattice blocks whose B_0 has condition 1e7, and blocks without
    # provenance whose B_7, inside the t4 segment 6-10, has condition 1e7
    q, _ = np.linalg.qr(np.arange(1.0, 5.0).reshape(2, 2) + 1j * np.array([[1.0, -2.0], [0.5, 1.0]]))
    illcond = blocks_to_json(blocks_from_delta([1.0] * 14, np.zeros((13, 2, 2))))
    illcond["B"][0] = matrix_to_json((q * np.array([1.0, 1e7])) @ q.conj().T)
    illcond_b7 = blocks_to_json(blocks_from_delta([1.0] * 14, np.zeros((13, 2, 2))))
    del illcond_b7["provenance"]
    illcond_b7["B"][7] = illcond["B"][0]
    # blocks that are not the lattice of their provenance: B_k = -2^k I under
    # unit spacings, and free blocks A_k = 0, B_k = -I under the christ-stolz lattice
    growing = blocks_to_json(blocks_from_delta([1.0] * 42, np.zeros((41, 1, 1))))
    growing["B"] = [[[-(2.0 ** k)]] for k in range(len(growing["B"]))]
    free_cs = blocks_to_json(blocks_from_delta(*christ_stolz_family(402)))
    free_cs["A"] = [[[0.0]]] * len(free_cs["A"])
    free_cs["B"] = [[[-1.0]]] * len(free_cs["B"])
    # lattice blocks whose file claims storage from A_1 or A_2
    offset = {k: {**blocks_to_json(blocks_from_delta([1.0] * 6, np.zeros((5, 1, 1)))), "offset": k}
              for k in (1, 2)}
    # lattice blocks with a NaN in B_3
    nan_b = blocks_to_json(blocks_from_delta([1.0] * 6, np.zeros((5, 1, 1))))
    nan_b["B"][3] = [[float("nan")]]
    # lattice blocks whose offset reads false and order 1.0
    offset_false = {**blocks_to_json(blocks_from_delta([1.0] * 6, np.zeros((5, 1, 1)))),
                    "n": 1.0, "offset": False}
    # n = 2 lattice blocks whose A_0 and provenance jumps have imaginary parts of 1e-12
    tilted = blocks_to_json(blocks_from_delta([1.0] * 14, np.full((13, 2, 2), 0.5)))
    tilted["A"][0] = matrix_to_json(1e-12j * np.eye(2))
    tilted["provenance"]["H"] = [matrix_to_json(np.array(h) + 1e-12j)
                                 for h in tilted["provenance"]["H"]]
    # n = 2 delta model, d_k = 1/k over 1200 spacings, jumps Q diag(cancel_k, 0) Q^T for
    # a rotation Q by 0.3 rad; unit-spacing blocks of 600 spacings with jumps 8
    c, s = np.cos(0.3), np.sin(0.3)
    rot, hd = np.array([[c, -s], [s, c]]), [1.0 / k for k in range(1, 1201)]
    cancel = cancel_jumps(hd)[:, 0, 0, None, None] * np.array([[1.0, 0.0], [0.0, 0.0]])
    rotated = DeltaNodes.from_spacings(2, hd[:-1], rot @ cancel @ rot.T, tail=hd[-1])
    t4_overflow = blocks_to_json(blocks_from_delta([1.0] * 600, np.full((599, 1, 1), 8.0)))
    # a 20-piece n = 2 general triple, pieces of length about 1
    rng = np.random.default_rng(20)
    cplx = lambda b: rng.uniform(-b, b, (20, 2, 2)) + 1j * rng.uniform(-b, b, (20, 2, 2))
    adj = lambda m: m.conj().transpose(0, 2, 1)
    widths, p, q = rng.uniform(0.8, 1.2, 20), cplx(0.5), cplx(1.0)
    general20 = {"n": 2, "X": float(np.sum(widths)), "variant": "general_triple",
                 "cuts": [0.0, *np.cumsum(widths[:-1]).tolist()],
                 "P": [matrix_to_json(m) for m in p @ adj(p) + np.eye(2)],
                 "Q": [matrix_to_json(m) for m in q + adj(q)],
                 "R": [matrix_to_json(m) for m in cplx(0.5)]}
    # its real counterpart, from a generator of its own
    rng = np.random.default_rng(21)
    widths, p, q, r = rng.uniform(0.8, 1.2, 20), *rng.uniform(-1.0, 1.0, (3, 20, 2, 2))
    general20_real = {"n": 2, "X": float(np.sum(widths)), "variant": "general_triple",
                      "cuts": [0.0, *np.cumsum(widths[:-1]).tolist()],
                      "P": [matrix_to_json(m) for m in 0.5 * p @ adj(p) + np.eye(2)],
                      "Q": [matrix_to_json(m) for m in q + adj(q)],
                      "R": [matrix_to_json(m) for m in 0.5 * r]}
    fixtures = {**FIXTURES, "illcond.json": illcond, "illcond-b7.json": illcond_b7,
                "general20.json": general20, "general20-real.json": general20_real,
                "growing.json": growing, "free-cs.json": free_cs, "tilted-blocks.json": tilted,
                "offset-1.json": offset[1], "offset-2.json": offset[2], "nan-b.json": nan_b,
                "blocks-offset-false.json": offset_false,
                "rotated.json": model_to_json(rotated), "t4-overflow.json": t4_overflow,
                "christ-stolz-2000.json": model_to_json(
                    DeltaNodes.from_spacings(1, d[:2000], H[:2000], tail=d[2000]))}

    # a blocks file whose order reads 1e999
    blocks_n_inf = json.dumps(blocks_to_json(blocks_from_delta([1.0] * 6, np.zeros((5, 1, 1)))))
    blocks_n_inf = blocks_n_inf.replace('"n": 1', '"n": 1e999', 1)
    raw_fixtures = {**RAW_FIXTURES, "blocks-n-inf.json": blocks_n_inf}

    argvs = [a.split() for a in INVOCATIONS] + [h + ["--help"] for h in HELP]
    argvs += [a.split() for a in RANGE_INVOCATIONS + READER_INVOCATIONS + NUMBER_INVOCATIONS]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in fixtures.items():
                pathlib.Path(name).write_text(json.dumps(obj), encoding="utf-8")
            for name, text in raw_fixtures.items():
                pathlib.Path(name).write_text(text, encoding="utf-8")
            for argv in argvs:
                out, err, code = invoke(run, argv)
                print(_sha(out), _sha(err), code, " ".join(argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
