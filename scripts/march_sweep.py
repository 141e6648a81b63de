#!/usr/bin/env python3
"""Timing sweep of the lattice and delta-model marches over problem size.

Times ``solve_recurrence`` on the christ-stolz lattice (blocks built
outside the timing, so the time includes the first-use B^-1 stack) and
``fundamental_pair`` and ``equivalence_residual`` on christ-stolz delta
models, each as the median of repeated runs in one process with BLAS on
one thread. Prints one JSON object: per function, size -> median seconds.
Comparing two source trees is two runs:

Usage: python scripts/march_sweep.py [SRC] [REPEATS]   # SRC holds the sldl package;
                                                       # default: this checkout's src/, 5
"""

import json
import os
import pathlib
import statistics
import sys
import time

STEPS = (2500, 5000, 10_000, 20_000, 50_000, 100_000)
NODES = (500, 1000, 1500, 2000)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                       else pathlib.Path(__file__).resolve().parents[1] / "src")
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, str(src.resolve()))
    from sldl import (DeltaNodes, QuasiState, blocks_from_delta, christ_stolz_family,
                      equivalence_residual, fundamental_pair, solve_recurrence)

    d, H = christ_stolz_family(max(STEPS) + 2)
    out = {"solve_recurrence": {}, "fundamental_pair": {}, "equivalence_residual": {}}
    for steps in STEPS:
        times = []
        for _ in range(repeats):
            blocks = blocks_from_delta(d[:steps + 2], H[:steps + 1])
            t0 = time.perf_counter()
            solve_recurrence(blocks, [1.0], [0.0], steps)
            times.append(time.perf_counter() - t0)
        out["solve_recurrence"][steps] = statistics.median(times)
    state = QuasiState([0.3], [1.0])
    for nodes in NODES:
        model = DeltaNodes.from_spacings(1, d[:nodes], H[:nodes], tail=d[nodes])
        grid = (0.0,) + model.nodes
        out["fundamental_pair"][nodes] = median_time(
            lambda: fundamental_pair(model, 0.0, grid), repeats)
        out["equivalence_residual"][nodes] = median_time(
            lambda: equivalence_residual(model, nodes - 3, state), repeats)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
