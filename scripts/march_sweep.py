#!/usr/bin/env python3
"""Timing sweep of the lattice and delta-model marches over problem size.

Times ``blocks_from_delta`` on christ-stolz spacings and jumps of 2500
to 10^5 spacings, with and without its first-use B^-1 stack, and with it at
order 2, ``solve_recurrence`` over 2500 to 10^5 steps of the
christ-stolz lattice at orders 1 and 2, from real seeds and from seeds with an
imaginary part (complex states on real blocks; no workload or command line
runs these), and of perturbed christ-stolz lattices at orders 1 and 2 (jumps
H_k + S_k with seeded symmetric S_k, so A_k != O: the step loops, where the
christ-stolz rows march as running products), with the blocks built outside
the timing, so the time includes the first-use B^-1 stack, and, built the same way,
``solve_recurrence`` of a perturbed order-3 lattice and ``discrete_cauchy`` K_{i,1} of the
perturbed order-2 lattice (matrix states) over as many steps, ``l2_tail_report`` of the
order-1 solutions of 2500 to 10^5 steps, ``build_report`` on those reports'
terms (an l2 tail with alternating zeros), ``carleman_report`` (N = the
steps) on the christ-stolz blocks of the same sizes, ``t4_term`` over segments of
50 to 2000 and of 2500 to 10^5 rows of the order-1 lattice, of the order-2 ``cancel``
lattice (both on the scalar chains) and of the perturbed order-1 lattice (the matmul
loop), ``t7_check`` on 2500 to 10^5 christ-stolz spacings (N = half of them, less one),
``Lattice`` construction from the spacings as a tuple and ``cor3_check`` (N = their number
less three) on the same spacings, ``t7_lattice`` on christ-stolz lattices of 10^3 to 10^5
spacings built outside the timing (its libm logs and exps alone),
``build_report`` on harmonic windows of 10^3 to 10^5 terms (no certificate
fires, so every pass runs), ``canonical_json`` of the JSON form of such
a report with 10^3 to 10^5 floats (terms and partial sums),
``fundamental_pair`` and ``equivalence_residual`` on christ-stolz delta
models of 500 to 10^4 nodes, and ``fundamental_pair`` of those models on the midpoints
of their cells (a grid off the cuts, which the cell walk marches),
``DeltaNodes.from_spacings``, ``DeltaNodes``
from the nodes (their running sums, as a list), ``classify_detailed`` with
the default config (one model per size, so every repeat but the first sees
what the model keeps between calls) at orders 1, 2 and 3 (jumps h_k I of the
christ-stolz family) and ``cor2_series`` (the diagonal
channel of the order-1 family, and the off-diagonal channel of an order-2
lattice whose jumps are its jumps times [[1, 1/2], [1/2, 1]]) on 2000 to
10^5 christ-stolz spacings, and
``kernel_square_integrals`` over all cells of seeded n = 2 delta models
and n = 1, 2 and 3 general triples with 10 to 400 unit cells (at n = 3 the
parent's fused Van Loan block had order 66), and ``t1_series`` over the
10 to 400 unit intervals of the n = 2 delta model and general triple, and
``kernel_square_integrals`` over all cells, ``t1_series`` over the unit
intervals and ``solution_norm_integral`` over [0, X] of seeded n = 1 delta
models with 10 to 400 unit cells (the scalar Gram and solution-norm passes),
and ``solution_norm_integral`` over [X/2, X] of those n = 1 and the n = 2
delta models (a window that starts inside the march from 0), and
``kernel_square_integrals`` over all cells of seeded n = 2 and n = 3 step
models with 10 to 400 unit pieces (the real Gram loop), and
``kernel_square_integrals`` over all cells and ``t1_series`` over the unit
intervals of seeded real n = 1 and n = 2 general triples with 10 to 400 unit
cells (float64 generators, exponentials and Gram matrices), ``t2_predicate``
on sigma = x I over 10 to 10^4 unit pieces and as many unit intervals
(K = P), ``classify_detailed`` with the default config of the order-1 step model of 60
pieces that ``scripts/cli_digest.py`` writes as step60.json, and ``t1_series`` over the
unit intervals of seeded n = 1 and n = 2 step models with 5 and 40 unit pieces (every
cell full: its length is its lattice spacing), and ``canonical_json`` of the envelope that
``sldl classify --gallery christ-stolz`` prints (size: its bytes),
each as the median of repeated runs in one process with BLAS on one thread: one
untimed warm-up pass over every function and size, then REPEATS timed
passes, so the repeats of one function and size are a whole pass apart.
Each timed pass runs the jobs in its own order, shuffled from the fixed
SHUFFLE_SEED, the same for every tree: a job can speed up or slow down the
next through the allocator state it leaves.

The host's speed drifts between and within runs, so every repeat is
preceded by a timing of the reference kernel of ``perfbench/hostspeed.py``
(loaded by path) and scaled by ``REFERENCE_S / reference`` of its own
reference. Prints one JSON object: per function, size -> {"s": raw median
seconds, "corrected_s": median of the host-corrected repeats, "corrected_iqr_s":
their interquartile range, "reference_s": median reference time}.

Two source trees are compared in one process: ``--pair PARENT CHANGE`` imports the sldl
package of each under its own name, builds every job once per tree and times each repeat
of a job on both trees back to back, the parent first on even repeats and the change first
on odd ones, so a drift of the host reaches both alike. It prints both trees' rows and, per
function and size, the ratio of the change's corrected median to the parent's with both
interquartile ranges (a ratio is read against them). ROW names restrict the timing to those
functions (the jobs of every function are still built).

Usage: python scripts/march_sweep.py [SRC] [REPEATS] [ROW ...]   # SRC holds the sldl package;
                                                                  # default: this checkout's src/, 9
       python scripts/march_sweep.py --pair PARENT_SRC CHANGE_SRC [REPEATS] [ROW ...]
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

STEPS = (2500, 5000, 10_000, 20_000, 50_000, 100_000)
ROWS = (50, 100, 200, 500, 1000, 2000)
TERMS = (1000, 10_000, 100_000)
NODES = (500, 1000, 2000, 5000, 10_000)
SPACINGS = (2000, 5000, 10_000, 20_000, 50_000, 100_000)
CELLS = (10, 25, 50, 100, 200, 400)
PIECES = (10, 100, 1000, 10_000)
LIBM_SPACINGS = (1000, 10_000, 100_000)
SHUFFLE_SEED = 2027


def load_hostspeed():
    """perfbench/hostspeed.py as a module, without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location("hostspeed", ROOT / "perfbench" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def iqr(values) -> float:
    """Interquartile range of ``values``, 0.0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def load_tree(src, name: str):
    """The sldl package of the source tree ``src``, imported as the top-level package ``name``;
    its modules import one another relatively, so two trees live side by side."""
    init = pathlib.Path(src).resolve() / "sldl" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


@contextlib.contextmanager
def as_sldl(package):
    """While the jobs are built, ``from sldl... import`` reads ``package``'s modules."""
    name = package.__name__
    alias = {"sldl" + key[len(name):]: module for key, module in list(sys.modules.items())
             if key == name or key.startswith(name + ".")}
    sys.modules.update(alias)
    try:
        yield
    finally:
        for key in alias:
            del sys.modules[key]


def sweep(trees, repeats: int, hostspeed) -> list:
    """Per tree, the medians of ``repeats`` timings of every job, raw and each host-corrected,
    and the interquartile range of the corrected ones.

    ``trees`` holds one job list per source tree, the same (row, size) jobs in the same
    order. A job is (row, size, fn, setup), timed as fn(setup()) with ``setup`` run
    outside the timing. One untimed pass over all jobs comes first, so
    first-use work (caches, lazy stacks, allocator growth) lands in no
    repeat; then each timed pass runs every job once per tree, in an order shuffled
    from SHUFFLE_SEED, so the repeats of one job are a whole pass apart, a
    slow phase of the host spoils at most a few of them, and no job is timed
    always after the same one; the trees take turns to go first. The reference is
    timed right before the repeat it corrects.
    """
    for jobs in trees:
        for _, _, fn, setup in jobs:
            fn(setup())
    samples = [[([], [], []) for _ in jobs] for jobs in trees]
    order, rng = list(range(len(trees[0]))), random.Random(SHUFFLE_SEED)
    for repeat in range(repeats):
        rng.shuffle(order)
        turn = list(range(len(trees)))[::-1 if repeat % 2 else 1]
        for i in order:
            for t in turn:
                (_, _, fn, setup), (times, corrected, references) = trees[t][i], samples[t][i]
                arg = setup()
                reference = hostspeed.reference_time()
                t0 = time.perf_counter()
                fn(arg)
                times.append(time.perf_counter() - t0)
                corrected.append(hostspeed.corrected(times[-1], reference))
                references.append(reference)
    outs, median = [], statistics.median
    for jobs, tree_samples in zip(trees, samples):
        out = {}
        for (row, size, _, _), (times, corrected, references) in zip(jobs, tree_samples):
            out.setdefault(row, {})[size] = {"s": median(times), "corrected_s": median(corrected),
                                             "corrected_iqr_s": iqr(corrected),
                                             "reference_s": median(references)}
        outs.append(out)
    return outs


def ratios(parent: dict, change: dict) -> dict:
    """Per row and size, the change's corrected median over the parent's, with both IQRs."""
    return {row: {size: {"ratio": change[row][size]["corrected_s"] / p["corrected_s"],
                         "parent_iqr_s": p["corrected_iqr_s"],
                         "change_iqr_s": change[row][size]["corrected_iqr_s"]}
                  for size, p in sizes.items()}
            for row, sizes in parent.items()}


def main() -> None:
    args = sys.argv[1:]
    pair = args[:1] == ["--pair"]
    srcs = args[1:3] if pair else args[:1] or [ROOT / "src"]
    rest = args[3:] if pair else args[1:]
    repeats = int(rest[0]) if rest else 9
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    trees = []
    for i, src in enumerate(srcs):
        with as_sldl(load_tree(src, f"sldl_tree{i}")):
            trees.append([job for job in build_jobs() if not rest[1:] or job[0] in rest[1:]])
    outs = sweep(trees, repeats, load_hostspeed())
    print(json.dumps({"parent": outs[0], "change": outs[1], "ratio": ratios(*outs)} if pair
                     else outs[0]))


def build_jobs() -> list:
    """The sweep's (row, size, fn, setup) jobs, on the sldl package imported as ``sldl``."""
    import numpy as np
    from sldl import (DeltaNodes, Diagonal, GeneralTriple, IntervalSeq, LinearSigma, OffDiagonal,
                      QuasiState, StepSigma, blocks_from_delta, build_report, carleman_report,
                      christ_stolz_family, cor2_series, cor3_check, discrete_cauchy,
                      equivalence_residual, fundamental_pair, kernel_square_integrals,
                      l2_tail_report, solution_norm_integral, solve_recurrence, t1_series,
                      t2_predicate, t4_term, t7_check)
    from sldl import cli
    from sldl.cli import canonical_json
    from sldl.bridge import classify_detailed
    from sldl.jacobi import Lattice, t7_lattice

    jobs = []

    def timed(row, size, fn, setup=None):
        """Add a job; fn takes setup()'s value, or nothing when there is no setup."""
        jobs.append((row, size, fn if setup else lambda _: fn(), setup or (lambda: None)))

    # the lambdas bind their loop variables as defaults: every job runs after the loops
    d, H = christ_stolz_family(max(STEPS) + 2)
    for steps in STEPS:
        timed("blocks_from_delta", steps,
              lambda steps=steps: blocks_from_delta(d[:steps], H[:steps - 1]))
        timed("blocks_from_delta B_inv", steps,
              lambda steps=steps: blocks_from_delta(d[:steps], H[:steps - 1]).B_inv)
    H2 = np.asarray(H) * np.array([[1.0, 0.5], [0.5, 1.0]])
    cancel2, cancel3 = (christ_stolz_family(len(d), n)[1] for n in (2, 3))
    for steps in STEPS:
        timed("blocks_from_delta n=2 B_inv", steps,
              lambda steps=steps: blocks_from_delta(d[:steps], cancel2[:steps - 1]).B_inv)
    perturbed_rng = np.random.default_rng(404)  # its own seed: the models below stay as they were
    perturbed = {}
    for n, jumps in ((1, H), (2, cancel2)):
        s = perturbed_rng.uniform(-0.25, 0.25, (len(jumps), n, n))
        perturbed[n] = jumps + s + s.transpose(0, 2, 1)
    for steps in STEPS:  # the blocks are built anew for each repeat, outside the timing
        for label, jumps, u0, u1 in (("", H, [1.0], [0.0]),
                                     (" n=2", cancel2, [1.0, 0.5], [0.0, 1.0]),
                                     (" complex seed", H, [1.0 + 0.5j], [0.0]),
                                     (" n=2 complex seed", cancel2, [1.0, 0.5j], [0.0, 1.0]),
                                     (" perturbed", perturbed[1], [1.0], [0.0]),
                                     (" perturbed n=2", perturbed[2], [1.0, 0.5], [0.0, 1.0])):
            timed("solve_recurrence" + label, steps,
                  lambda blocks, u0=u0, u1=u1, steps=steps: solve_recurrence(blocks, u0, u1, steps),
                  lambda jumps=jumps, steps=steps: blocks_from_delta(d[:steps + 2],
                                                                     jumps[:steps + 1]))
    perturbed_rng = np.random.default_rng(406)  # its own seed: the models above stay as they were
    s = perturbed_rng.uniform(-0.25, 0.25, (len(d) - 1, 3, 3))
    perturbed[3] = cancel3 + s + s.transpose(0, 2, 1)
    for steps in STEPS:  # order 3 steps and K_ij of order 2, the blocks built as above
        timed("solve_recurrence perturbed n=3", steps,
              lambda blocks, steps=steps: solve_recurrence(blocks, [1.0, 0.5, 0.25],
                                                           [0.0, 1.0, -1.0], steps),
              lambda steps=steps: blocks_from_delta(d[:steps + 2], perturbed[3][:steps + 1]))
        timed("discrete_cauchy perturbed n=2", steps,
              lambda blocks, steps=steps: discrete_cauchy(blocks, steps, 1),
              lambda steps=steps: blocks_from_delta(d[:steps + 2], perturbed[2][:steps + 1]))
    for steps in STEPS:  # the series reports of the order-1 march, built outside the timing
        blocks = blocks_from_delta(d[:steps + 2], H[:steps + 1])
        solution = solve_recurrence(blocks, [1.0], [0.0], steps)
        timed("l2_tail_report", steps, lambda solution=solution: l2_tail_report(solution))
        terms = l2_tail_report(solution).terms
        timed("build_report l2 tail", steps, lambda terms=terms: build_report("l2", terms))
        timed("carleman_report", steps,
              lambda blocks=blocks, steps=steps: carleman_report(blocks, steps))
    blocks = blocks_from_delta(d[:max(ROWS) + 3], H[:max(ROWS) + 2])
    blocks.B_inv  # built once, outside the timing
    for rows in ROWS:
        timed("t4_term", rows, lambda rows=rows: t4_term(blocks, 1, rows))
    long_blocks = blocks_from_delta(d[:max(STEPS) + 2], H[:max(STEPS) + 1])
    long_blocks.B_inv
    for rows in STEPS:
        timed("t4_term", rows, lambda rows=rows: t4_term(long_blocks, 1, rows))
    for label, jumps in ((" n=2", cancel2), (" perturbed", perturbed[1])):
        t4_blocks = blocks_from_delta(d[:max(STEPS) + 2], jumps[:max(STEPS) + 1])
        t4_blocks.B_inv
        for rows in ROWS + STEPS:
            timed("t4_term" + label, rows,
                  lambda t4_blocks=t4_blocks, rows=rows: t4_term(t4_blocks, 1, rows))
    for terms in TERMS:
        harmonic = [1.0 / k for k in range(1, terms + 1)]
        timed("build_report", terms, lambda harmonic=harmonic: build_report("x", harmonic))
        doc = build_report("x", harmonic[:terms // 2]).to_json()
        timed("canonical_json", terms, lambda doc=doc: canonical_json(doc))
    state = QuasiState([0.3], [1.0])
    for nodes in NODES:
        model = DeltaNodes.from_spacings(1, d[:nodes], H[:nodes], tail=d[nodes])
        grid = (0.0, *model.nodes)
        timed("fundamental_pair", nodes,
              lambda model=model, grid=grid: fundamental_pair(model, 0.0, grid))
        timed("equivalence_residual", nodes,
              lambda model=model, nodes=nodes: equivalence_residual(model, nodes - 3, state))
        # the cell midpoints: every span cut off the cuts takes the walk
        off = (0.0, *((np.array(grid[:-1]) + grid[1:]) / 2).tolist())
        timed("fundamental_pair off the cuts", nodes,
              lambda model=model, off=off: fundamental_pair(model, 0.0, off))
    for count in SPACINGS:
        timed("DeltaNodes.from_spacings", count, lambda count=count: DeltaNodes.from_spacings(
            1, d[:count], H[:count], tail=d[count]))
        nodes = np.cumsum(d[:count]).tolist()
        timed("DeltaNodes nodes", count, lambda count=count, nodes=nodes: DeltaNodes(
            1, nodes, H[:count], nodes[-1] + d[count]))
        model = DeltaNodes.from_spacings(1, d[:count], H[:count], tail=d[count])
        timed("classify_detailed", count, lambda model=model: classify_detailed(model))
        for n, jumps in ((2, cancel2), (3, cancel3)):
            model = DeltaNodes.from_spacings(n, d[:count], jumps[:count], tail=d[count])
            timed(f"classify_detailed n={n}", count,
                  lambda model=model: classify_detailed(model))
        timed("cor2_series diag", count,
              lambda count=count: cor2_series(d[:count], H[:count - 1], Diagonal(1)))
        timed("cor2_series offdiag", count,
              lambda count=count: cor2_series(d[:count], H2[:count - 1], OffDiagonal(1, 2)))
    for count in STEPS:  # the spacings as the tuple christ_stolz_family gives
        timed("t7_check", count,
              lambda count=count: t7_check(d[:count], H[:count - 1], count // 2 - 1))
        timed("Lattice", count, lambda count=count: Lattice(d[:count], H[:count - 1]))
        timed("cor3_check", count,
              lambda count=count: cor3_check(d[:count], H[:count - 1], count - 3))
    for count in LIBM_SPACINGS:
        lattice = Lattice(d[:count], H[:count - 1])
        lattice.shifted_jumps  # built once, outside the timing
        timed("t7_lattice", count,
              lambda lattice=lattice, count=count: t7_lattice(lattice, count // 2 - 1))
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
            timed(f"kernel_square_integrals {label}", cells,
                  lambda model=model: kernel_square_integrals(model, 0.0, model.X))
        for label in ("delta", "general n=2"):
            timed(f"t1_series {label}", cells, lambda model=models[label], cells=cells:
                  t1_series(model, IntervalSeq.unit(cells)))
        timed("solution_norm_integral delta [X/2, X]", cells, lambda model=models["delta"]:
              solution_norm_integral(model, model.X / 2, model.X))
    scalar_rng = np.random.default_rng(401)  # its own seed: the models above stay as they were
    for cells in CELLS:
        h = scalar_rng.uniform(-1.0, 1.0, (cells - 1, 1, 1))
        model = DeltaNodes(1, tuple(float(k) for k in range(1, cells)), h, float(cells))
        timed("kernel_square_integrals delta n=1", cells,
              lambda model=model: kernel_square_integrals(model, 0.0, model.X))
        timed("t1_series delta n=1", cells,
              lambda model=model, cells=cells: t1_series(model, IntervalSeq.unit(cells)))
        timed("solution_norm_integral delta n=1", cells,
              lambda model=model: solution_norm_integral(model, 0.0, model.X))
        timed("solution_norm_integral delta n=1 [X/2, X]", cells,
              lambda model=model: solution_norm_integral(model, model.X / 2, model.X))
    step_rng = np.random.default_rng(402)  # its own seed: the models above stay as they were
    for cells in CELLS:
        for n in (2, 3):
            h = step_rng.uniform(-1.0, 1.0, (cells, n, n))
            model = StepSigma(n, tuple(float(k) for k in range(cells)), h + h.transpose(0, 2, 1),
                              float(cells))
            timed(f"kernel_square_integrals step n={n}", cells,
                  lambda model=model: kernel_square_integrals(model, 0.0, model.X))
    real_rng = np.random.default_rng(403)  # its own seed: the models above stay as they were
    for cells in CELLS:
        for n in (1, 2):
            p, q, r = real_rng.uniform(-1.0, 1.0, (3, cells, n, n))
            model = GeneralTriple(n, tuple(float(k) for k in range(cells)),
                                  0.25 * p @ p.transpose(0, 2, 1) + np.eye(n),
                                  q + q.transpose(0, 2, 1), 0.5 * r, float(cells))
            timed(f"kernel_square_integrals general real n={n}", cells,
                  lambda model=model: kernel_square_integrals(model, 0.0, model.X))
            timed(f"t1_series general real n={n}", cells, lambda model=model, cells=cells:
                  t1_series(model, IntervalSeq.unit(cells)))
    for pieces in PIECES:
        model = LinearSigma(1, tuple(float(k) for k in range(pieces + 1)),
                            np.arange(pieces + 1.0)[:, None, None])
        timed("t2_predicate", pieces, lambda model=model, intervals=IntervalSeq.unit(pieces):
              t2_predicate(model, intervals))
    step60 = StepSigma(1, (0.0, *(k + (k % 7) / 8 for k in range(1, 60))),
                       [[[((37 * k) % 13 - 6) / 4]] for k in range(60)], 60.5)
    timed("classify_detailed step", 60, lambda: classify_detailed(step60))
    lattice_rng = np.random.default_rng(405)  # its own seed: the models above stay as they were
    for cells in (5, 40):
        for n in (1, 2):
            h = lattice_rng.uniform(-1.0, 1.0, (cells, n, n))
            model = StepSigma(n, tuple(float(k) for k in range(cells)), h + h.transpose(0, 2, 1),
                              float(cells))
            timed(f"t1_series step n={n}", cells, lambda model=model, cells=cells:
                  t1_series(model, IntervalSeq.unit(cells)))
    envelopes = []  # the envelope run passes to canonical_json, caught on its way
    cli.canonical_json = lambda envelope: envelopes.append(envelope) or canonical_json(envelope)
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli.run(["classify", "--gallery", "christ-stolz"])
    cli.canonical_json = canonical_json
    timed("canonical_json classify christ-stolz", len(text.getvalue()) - 1,
          lambda: canonical_json(envelopes[0]))
    return jobs


if __name__ == "__main__":
    main()
