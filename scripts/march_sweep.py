#!/usr/bin/env python3
"""Timing sweep of the lattice and delta-model marches over problem size.

Times ``blocks_from_delta`` on christ-stolz spacings and jumps of 2500
to 10^5 spacings, ``solve_recurrence`` over 2500 to 10^5 steps of the
christ-stolz lattice at orders 1 and 2 (blocks built outside the timing, so
the time includes the first-use B^-1 stack), ``t4_term`` over segments of
50 to 2000 rows of the order-1 lattice, ``t7_check`` on 2000 to 10^5
christ-stolz spacings (N = half of them, less one),
``build_report`` on harmonic windows of 10^3 to 10^5 terms (no certificate
fires, so every pass runs), ``canonical_json`` of the JSON form of such
a report with 10^3 to 10^5 floats (terms and partial sums),
``fundamental_pair`` and ``equivalence_residual`` on christ-stolz delta
models, ``DeltaNodes.from_spacings`` and ``cor2_series`` (the diagonal
channel of the order-1 family, and the off-diagonal channel of an order-2
lattice whose jumps are its jumps times [[1, 1/2], [1/2, 1]]) on 2000 to
10^5 christ-stolz spacings, and
``kernel_square_integrals`` over all cells of seeded n = 2 delta models
and n = 1, 2 and 3 general triples with 10 to 400 unit cells (at n = 3 the
parent's fused Van Loan block had order 66), and ``t1_series`` over the
10 to 400 unit intervals of the n = 2 delta model and general triple, each
as the median of repeated runs in one process with BLAS on one thread.

The host's speed drifts between and within runs, so every repeat is
preceded by a timing of the reference kernel of ``perfbench/hostspeed.py``
(loaded by path) and scaled by ``REFERENCE_S / reference`` of its own
reference. Prints one JSON object: per function, size -> {"s": raw median
seconds, "corrected_s": median of the host-corrected repeats, "reference_s":
median reference time}.
Comparing two source trees is two runs:

Usage: python scripts/march_sweep.py [SRC] [REPEATS]   # SRC holds the sldl package;
                                                       # default: this checkout's src/, 5
"""

import importlib.util
import json
import os
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

STEPS = (2500, 5000, 10_000, 20_000, 50_000, 100_000)
ROWS = (50, 100, 200, 500, 1000, 2000)
TERMS = (1000, 10_000, 100_000)
NODES = (500, 1000, 1500, 2000)
SPACINGS = (2000, 5000, 10_000, 20_000, 50_000, 100_000)
CELLS = (10, 25, 50, 100, 200, 400)


def load_hostspeed():
    """perfbench/hostspeed.py as a module, without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location("hostspeed", ROOT / "perfbench" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def median_time(fn, repeats: int, hostspeed, setup=lambda: None) -> dict:
    """Medians of ``repeats`` timings of fn(setup()), raw and each host-corrected.

    ``setup`` runs outside the timing; the reference is timed after it,
    right before the repeat it corrects.
    """
    times, corrected, references = [], [], []
    for _ in range(repeats):
        arg = setup()
        reference = hostspeed.reference_time()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
        corrected.append(hostspeed.corrected(times[-1], reference))
        references.append(reference)
    median = statistics.median
    return {"s": median(times), "corrected_s": median(corrected), "reference_s": median(references)}


def main() -> None:
    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src")
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, str(src.resolve()))
    import numpy as np
    from sldl import (DeltaNodes, Diagonal, GeneralTriple, IntervalSeq, OffDiagonal, QuasiState,
                      blocks_from_delta, build_report, christ_stolz_family, cor2_series,
                      equivalence_residual, fundamental_pair, kernel_square_integrals,
                      solve_recurrence, t1_series, t4_term, t7_check)
    from sldl.cli import canonical_json

    hostspeed = load_hostspeed()
    timed = lambda fn: median_time(lambda _: fn(), repeats, hostspeed)

    d, H = christ_stolz_family(max(STEPS) + 2)
    out = {"blocks_from_delta": {}, "solve_recurrence": {}, "solve_recurrence n=2": {},
           "t4_term": {}, "t7_check": {}, "build_report": {}, "canonical_json": {},
           "fundamental_pair": {}, "equivalence_residual": {},
           "DeltaNodes.from_spacings": {}, "cor2_series diag": {}, "cor2_series offdiag": {},
           "kernel_square_integrals delta": {},
           **{f"kernel_square_integrals general n={n}": {} for n in (1, 2, 3)},
           "t1_series delta": {}, "t1_series general n=2": {}}
    for steps in STEPS:
        out["blocks_from_delta"][steps] = timed(
            lambda: blocks_from_delta(d[:steps], H[:steps - 1]))
    H2 = np.asarray(H) * np.array([[1.0, 0.5], [0.5, 1.0]])
    cancel2 = christ_stolz_family(len(d), 2)[1]
    for steps in STEPS:  # the blocks are built anew for each repeat, outside the timing
        for label, jumps, u0, u1 in (("", H, [1.0], [0.0]),
                                     (" n=2", cancel2, [1.0, 0.5], [0.0, 1.0])):
            out["solve_recurrence" + label][steps] = median_time(
                lambda blocks: solve_recurrence(blocks, u0, u1, steps), repeats, hostspeed,
                lambda: blocks_from_delta(d[:steps + 2], jumps[:steps + 1]))
    blocks = blocks_from_delta(d[:max(ROWS) + 3], H[:max(ROWS) + 2])
    blocks.B_inv  # built once, outside the timing
    for rows in ROWS:
        out["t4_term"][rows] = timed(lambda: t4_term(blocks, 1, rows))
    for terms in TERMS:
        harmonic = [1.0 / k for k in range(1, terms + 1)]
        out["build_report"][terms] = timed(lambda: build_report("x", harmonic))
        doc = build_report("x", harmonic[:terms // 2]).to_json()
        out["canonical_json"][terms] = timed(lambda: canonical_json(doc))
    state = QuasiState([0.3], [1.0])
    for nodes in NODES:
        model = DeltaNodes.from_spacings(1, d[:nodes], H[:nodes], tail=d[nodes])
        grid = (0.0,) + model.nodes
        out["fundamental_pair"][nodes] = timed(
            lambda: fundamental_pair(model, 0.0, grid))
        out["equivalence_residual"][nodes] = timed(
            lambda: equivalence_residual(model, nodes - 3, state))
    for count in SPACINGS:
        out["DeltaNodes.from_spacings"][count] = timed(
            lambda: DeltaNodes.from_spacings(1, d[:count], H[:count], tail=d[count]))
        out["cor2_series diag"][count] = timed(
            lambda: cor2_series(d[:count], H[:count - 1], Diagonal(1)))
        out["cor2_series offdiag"][count] = timed(
            lambda: cor2_series(d[:count], H2[:count - 1], OffDiagonal(1, 2)))
        out["t7_check"][count] = timed(lambda: t7_check(d[:count], H[:count - 1], count // 2 - 1))
    rng = np.random.default_rng(400)

    def general_triple(n, cells):
        cplx = lambda b: rng.uniform(-b, b, (cells, n, n)) + 1j * rng.uniform(-b, b, (cells, n, n))
        p, q = cplx(0.5), cplx(1.0)
        return GeneralTriple(n, tuple(float(k) for k in range(cells)),
                             p @ p.conj().transpose(0, 2, 1) + np.eye(n),
                             q + q.conj().transpose(0, 2, 1), cplx(0.5), float(cells))

    for cells in CELLS:
        h = rng.uniform(-1.0, 1.0, (cells - 1, 2, 2))
        models = {"delta": DeltaNodes(2, tuple(float(k) for k in range(1, cells)),
                                      h + h.transpose(0, 2, 1), float(cells)),
                  **{f"general n={n}": general_triple(n, cells) for n in (1, 2, 3)}}
        for label, model in models.items():
            out[f"kernel_square_integrals {label}"][cells] = timed(
                lambda: kernel_square_integrals(model, 0.0, model.X))
        for label in ("delta", "general n=2"):
            out[f"t1_series {label}"][cells] = timed(
                lambda: t1_series(models[label], IntervalSeq.unit(cells)))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
