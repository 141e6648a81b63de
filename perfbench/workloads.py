"""The three seeded workloads of the sldl benchmark.

Each workload is built by its constructor ``(seed, scale)``, which
generates every input from the seed and constructs the models.
``cycles()`` then yields one list of ``Op`` per cycle of the op mix, in
seeded order. Runs measure whole cycles, so every run sees the same mix and
the median and 90th percentile fall at the same place in it; the mixes are
weighted so that each of them falls inside one op class, away from the
boundary between two. An op calls into ``sldl`` through module attributes
at call time, so the tracer's wrappers see it. Its ``check`` runs after the
op's timer stops and returns ``None`` or a ``Failure``.

Failure classes: ``precision`` marks a finite value outside the tolerance
stated for it (the kernel oracle at 1e-9 relative, the equivalence residual
at 1e-9); ``error`` marks everything else (an exception, a non-zero exit
code, a bad report, a wrong verdict, a non-finite value, output bytes that
change between repeats). Both count as failed ops.

``scale="tiny"`` shrinks every size for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import sldl.bridge as bridge
import sldl.cli as cli
import sldl.criteria as criteria
import sldl.jacobi as jacobi
import sldl.quasidiff as quasidiff

ORACLE_RTOL = 1e-9
RESIDUAL_MAX = 1e-9


@dataclass(frozen=True)
class Failure:
    cls: str  # "precision" or "error"
    reason: str


@dataclass
class Op:
    kind: str
    label: str
    fn: Callable[[], object]
    check: Callable[[object], Failure | None]


def _error(reason: str) -> Failure:
    return Failure("error", reason)


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=complex).view(float))))


def _finite_report(label: str, *reports) -> Failure | None:
    for report in reports:
        if not _all_finite(report.terms):
            return _error(f"{label}: non-finite term in {report.criterion}")
    return None


def _symmetric(rng, n: int, bound: float) -> np.ndarray:
    a = rng.uniform(-bound, bound, (n, n))
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# gallery-cli


EXPECTED = {"free-lattice": "LimitPoint", "christ-stolz": "LimitCircle",
            "monotone-sigma": "LimitPoint", "offdiagonal-divergence": "NotLimitCircle"}

# classify is listed twice so that the median falls inside one op class
# instead of on the boundary between the three cheap and three dear argvs.
GALLERY_ARGVS = (
    ("gallery", "run", "free-lattice"),
    ("gallery", "run", "christ-stolz"),
    ("gallery", "run", "monotone-sigma"),
    ("gallery", "run", "offdiagonal-divergence"),
    ("gallery", "run"),
    ("classify", "--gallery", "christ-stolz"),
    ("classify", "--gallery", "christ-stolz"),
)


class GalleryCli:
    """In-process ``sldl.cli.run(argv)`` with stdout captured."""

    name = "gallery-cli"

    def __init__(self, seed: int, scale: str):
        self.rng = np.random.default_rng([seed, 1])
        self.first: dict[tuple[str, ...], str] = {}
        self.mix = {" ".join(a): 1 for a in GALLERY_ARGVS[:-1]}
        self.mix["classify --gallery christ-stolz"] = 2
        self.health: dict[str, float] = {}

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def _check(self, argv, output) -> Failure | None:
        rc, text, err = output
        label = " ".join(argv)
        if rc != 0:
            return _error(f"{label}: exit code {rc}: {err.strip()[:200]}")
        try:
            obj = json.loads(text)
            cli.validate_report(obj)
        except ValueError as exc:
            return _error(f"{label}: invalid report: {exc}")
        result = obj["result"]
        if argv[0] == "classify":
            got = {argv[2]: result["verdict"]["classification"]}
        else:
            got = {e["name"]: e["classification"] for e in result["entries"]}
            want = [argv[2]] if len(argv) > 2 else list(EXPECTED)
            if list(got) != want:
                return _error(f"{label}: entries {list(got)}, expected {want}")
        for name, cls in got.items():
            if cls != EXPECTED[name]:
                return _error(f"{label}: {name} classified {cls}, expected {EXPECTED[name]}")
        first = self.first.setdefault(tuple(argv), text)
        if text != first:
            return _error(f"{label}: output bytes differ from the first run of this argv")
        return None

    def cycles(self):
        while True:
            yield [Op(argv[0], " ".join(argv),
                      lambda argv=argv: self._run(argv),
                      lambda out, argv=argv: self._check(argv, out))
                   for argv in (GALLERY_ARGVS[i]
                                for i in self.rng.permutation(len(GALLERY_ARGVS)))]


# ---------------------------------------------------------------------------
# kernel-t1


class KernelT1:
    """Direct calls into the continuous side: t1 series, kernel integrals, propagation."""

    name = "kernel-t1"

    def __init__(self, seed: int, scale: str):
        tiny = scale == "tiny"
        rng = np.random.default_rng([seed, 0])
        self.rng = np.random.default_rng([seed, 1])
        self.health = {"wronskian_max": 0.0}
        self.cells = (1, 3, 5) if tiny else (1, 5, 10, 20, 40)
        nodes = 200 if tiny else 2000
        self.oracle_ops = 4

        # (a) one model per (order n, cells c); kinds alternate over the grid
        self.sweep = []
        for i_n, n in enumerate((1, 2, 3)):
            for i_c, c in enumerate(self.cells):
                kind = ("delta", "step")[(i_n + i_c) % 2]
                inner = [k + rng.uniform(-0.25, 0.25) for k in range(1, c)]
                if kind == "delta":
                    # jumps are differences of bounded sigma levels, so the
                    # accumulated potential, and with it the expm cost,
                    # does not drift with the seed
                    pos = tuple(inner) or (c + 0.25,)
                    levels = [np.zeros((n, n))] + [_symmetric(rng, n, 1.0) for _ in pos]
                    model = quasidiff.DeltaNodes(
                        n, pos, tuple(b - a for a, b in zip(levels, levels[1:])), c + 0.5)
                else:
                    model = quasidiff.StepSigma(
                        n, (0.0, *inner), tuple(_symmetric(rng, n, 1.0) for _ in range(c)),
                        float(c))
                ivs = criteria.IntervalSeq(((0.0, float(c)),))
                self.sweep.append((f"{kind} n={n} cells={c}", model, ivs))

        # (b) and (d) share the christ-stolz delta model
        d, H = jacobi.christ_stolz_family(nodes + 1)
        self.cs_d, self.cs_h = d, H
        self.cs = quasidiff.DeltaNodes.from_spacings(1, d[:nodes], tuple(H[:nodes]),
                                                     tail=d[nodes])
        self.k_max = nodes
        self.grid = (0.0,) + self.cs.nodes

        # (c) general triples, which take the refinement path
        self.triples = []
        for n in (1, 2):
            pieces = 3 if tiny else 6
            w = rng.uniform(0.8, 1.2, pieces)
            cuts = (0.0, *np.cumsum(w[:-1]))
            X = float(np.sum(w))
            P, Q, R = [], [], []
            for _ in range(pieces):
                a = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
                P.append(a @ a.conj().T + np.eye(n))
                Q.append(_symmetric(rng, n, 2.0))
                R.append(rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n)))
            model = quasidiff.GeneralTriple(n, cuts, tuple(P), tuple(Q), tuple(R), X)
            ivs = criteria.IntervalSeq(((0.0, X / 3), (X / 3, 2 * X / 3), (2 * X / 3, X)))
            self.triples.append((f"general n={n} pieces={pieces}", model, ivs))

        self.mix = {"a t1_series sweep": len(self.sweep),
                    "b kernel_square_integrals oracle": self.oracle_ops,
                    "c t1_series general": len(self.triples),
                    "d fundamental_pair": 1}

    def _t1_op(self, kind, label, model, ivs) -> Op:
        def check(report):
            return _finite_report(label, report)
        return Op(kind, label, lambda: criteria.t1_series(model, ivs), check)

    def _oracle_op(self, k: int) -> Op:
        x = self.cs.nodes[k - 1]
        a = x - 0.4 * self.cs_d[k - 1]
        b = x + 0.4 * self.cs_d[k]
        h = float(self.cs_h[k - 1][0, 0].real)

        def check(out):
            value = complex(np.asarray(out)[0, 0])
            if not _all_finite(out):
                return _error(f"k={k}: non-finite kernel integral")
            ref = criteria.jump_kernel_diag_integral(h, x - a, b - x)
            err = abs(value - ref) / abs(ref)
            if not err <= ORACLE_RTOL:
                return Failure("precision", f"k={k}: relative error {err:.3e} vs "
                                            f"jump_kernel_diag_integral > {ORACLE_RTOL:g}")
            return None
        return Op("b", f"kernel k={k}",
                  lambda: criteria.kernel_square_integrals(self.cs, a, b), check)

    def _pair_op(self) -> Op:
        def check(pair):
            if not all(_all_finite(m) for m in (pair.phi, pair.psi, pair.phi1, pair.psi1)):
                return _error("fundamental pair has non-finite entries")
            w = float(quasidiff.wronskian_residual(pair))
            self.health["wronskian_max"] = max(self.health["wronskian_max"], w)
            if not math.isfinite(w):
                return _error("non-finite Wronskian residual")
            return None
        return Op("d", f"fundamental_pair {len(self.grid) - 1} nodes",
                  lambda: quasidiff.fundamental_pair(self.cs, 0.0, self.grid), check)

    def cycles(self):
        rng = self.rng
        while True:
            cycle = [self._t1_op("a", *s) for s in self.sweep]
            # k log-uniform on [10, k_max], one draw per stratum
            u = (np.arange(self.oracle_ops) + rng.uniform(0, 1, self.oracle_ops)) / self.oracle_ops
            ks = np.clip(np.rint(10.0 * (self.k_max / 10.0) ** u), 10, self.k_max).astype(int)
            cycle += [self._oracle_op(int(k)) for k in ks]
            cycle += [self._t1_op("c", *t) for t in self.triples]
            cycle.append(self._pair_op())
            yield [cycle[i] for i in rng.permutation(len(cycle))]


# ---------------------------------------------------------------------------
# lattice-march


@dataclass
class _Lattice:
    label: str
    d: tuple
    H: tuple
    n: int
    christ_stolz: bool
    blocks: object = field(default=None)


class LatticeMarch:
    """Block construction, long recurrences, product series, t4 restarts, bridge residuals."""

    name = "lattice-march"

    def __init__(self, seed: int, scale: str):
        tiny = scale == "tiny"
        self.rng = np.random.default_rng([seed, 1])
        self.health = {"residual_max": 0.0}
        self.live: _Lattice | None = None
        self.lengths = (60, 120) if tiny else (2500, 5000, 10000, 20000)
        self.perturbed = ((1, 60), (2, 60)) if tiny else ((1, 2500), (2, 2500))
        # the longest segments run four times per cycle, which puts op_p90_s
        # inside that op class and the median between two ops of equal cost
        self.segment_lengths = (5, 10, 10, 10, 10) if tiny else (50, 100, 200, 200, 200, 200)
        node_counts = (30, 45, 60) if tiny else (500, 1000, 1500, 2000)
        self.d, self.h = jacobi.christ_stolz_family(max(self.lengths) + 2)

        # (c) t4 restarts on the smallest christ-stolz lattice
        L = min(self.lengths)
        self.t4_blocks = jacobi.blocks_from_delta(self.d[:L + 2], self.h[:L + 1])
        self.t4_span = L

        # (d) christ-stolz delta models; the seed picks each op's initial state
        self.bridges = [quasidiff.DeltaNodes.from_spacings(1, self.d[:m], tuple(self.h[:m]),
                                                           tail=self.d[m])
                        for m in node_counts]
        self.mix = {"a tail study": len(self.lengths) + len(self.perturbed),
                    "b t7_check": len(self.lengths) + len(self.perturbed),
                    "b cor3_check": len(self.lengths) + len(self.perturbed),
                    "b carleman_report": len(self.lengths) + len(self.perturbed),
                    **{f"c t4_report length={ell}": self.segment_lengths.count(ell)
                       for ell in sorted(set(self.segment_lengths))},
                    "d equivalence_residual": len(self.bridges)}

    def _lattices(self, rng):
        out = [_Lattice(f"christ-stolz L={L}", self.d[:L + 2], self.h[:L + 1], 1, True)
               for L in self.lengths]
        for n, L in self.perturbed:
            eye = np.eye(n)
            H = tuple(float(h[0, 0].real) * eye + _symmetric(rng, n, 0.5)
                      for h in self.h[:L + 1])
            out.append(_Lattice(f"perturbed n={n} L={L}", self.d[:L + 2], H, n, False))
        return out

    def _tail_op(self, lat: _Lattice) -> Op:
        n = lat.n
        seeds = ((np.ones(n), np.zeros(n)), (np.zeros(n), np.ones(n)))
        count = len(lat.d) - 2

        def run():
            # blocks live from one tail study to the next, so at most one
            # lattice's blocks are alive at a time, whatever the seeded order
            if self.live is not None:
                self.live.blocks = None
            lat.blocks = jacobi.blocks_from_delta(lat.d, lat.H)
            self.live = lat
            sols = [jacobi.solve_recurrence(lat.blocks, u0, u1, count) for u0, u1 in seeds]
            return [bridge.l2_tail_report(u) for u in sols]

        def check(reports):
            bad = _finite_report(lat.label, *reports)
            if bad is None and lat.christ_stolz:
                verdicts = [rep.verdict for rep in reports]
                if verdicts != ["ConvergesBounded"] * len(seeds):
                    bad = _error(f"{lat.label}: l2 tails {verdicts}, expected ConvergesBounded")
            return bad
        return Op("a", f"tail study {lat.label}", run, check)

    def _series_ops(self, lat: _Lattice):
        d, H = lat.d, lat.H
        n_t7 = (len(d) - 2) // 2
        n_cor3 = len(d) - 3

        def check_t7(res):
            bad = _finite_report(lat.label, *res.reports())
            if bad is None and lat.christ_stolz and not res.limit_circle_certified:
                bad = _error(f"{lat.label}: t7 did not certify")
            return bad

        yield Op("b", f"t7_check {lat.label}", lambda: jacobi.t7_check(d, H, n_t7), check_t7)
        yield Op("b", f"cor3_check {lat.label}", lambda: jacobi.cor3_check(d, H, n_cor3),
                 lambda res: _finite_report(lat.label, *res.reports()))
        yield Op("b", f"carleman_report {lat.label}",
                 lambda: jacobi.carleman_report(lat.blocks, len(lat.blocks.B) - 1),
                 lambda rep: _finite_report(lat.label, rep))

    def _t4_op(self, rng, length: int) -> Op:
        span = self.t4_span
        n1 = int(rng.integers(1, span // 2 - length + 1))
        n2 = int(rng.integers(span // 2, span - length))
        segments = ((n1, n1 + length - 1), (n2, n2 + length - 1))

        def check(rep):
            return _finite_report(f"t4 segments {segments}", rep)
        return Op("c", f"t4_report length={length}",
                  lambda: jacobi.t4_report(self.t4_blocks, segments), check)

    def _bridge_op(self, rng, model) -> Op:
        count = len(model.nodes) - 3
        state = quasidiff.QuasiState(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))

        def check(res):
            res = float(res)
            if not math.isfinite(res):
                return _error(f"{count + 3} nodes: non-finite residual")
            self.health["residual_max"] = max(self.health["residual_max"], res)
            if res > RESIDUAL_MAX:
                return Failure("precision", f"{count + 3} nodes: equivalence residual "
                                            f"{res:.3e} > {RESIDUAL_MAX:g}")
            return None
        return Op("d", f"equivalence_residual {count + 3} nodes",
                  lambda: bridge.equivalence_residual(model, count, state), check)

    def cycles(self):
        rng = self.rng
        while True:
            # a lattice's series ops reuse the blocks its tail-study op built,
            # so each lattice stays one unit in the shuffled cycle
            units = [[self._tail_op(lat), *self._series_ops(lat)]
                     for lat in self._lattices(rng)]
            units += [[self._t4_op(rng, ell)] for ell in self.segment_lengths]
            units += [[self._bridge_op(rng, m)] for m in self.bridges]
            yield [op for i in rng.permutation(len(units)) for op in units[i]]


WORKLOADS = {w.name: w for w in (GalleryCli, KernelT1, LatticeMarch)}
