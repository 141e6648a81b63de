"""Benchmark runner for sldl: one seeded workload per process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload gallery-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client issues one op at a time and waits for it; there are no extra
threads and BLAS is pinned to one thread. The number of op cycles follows
from ``--seconds`` alone (see ``CYCLE_S``), so a seed always gives the same
ops and the same failures. With ``--trace 0`` the run
reports the end-to-end metrics. With ``--trace 1`` it runs every op twice,
untraced and under ``tracer.Tracer``, and reports the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines above it repeat
every metric with its unit, the machine facts and the failures. A full
record goes to ``perfbench/out/``.

``correct`` is false when any op fails with an ``error``-class failure
(see ``workloads``). ``precision``-class failures -- finite values outside
a stated tolerance, a known defect of the program at the time the benchmark
was written -- count as failed ops in ``failed`` and ``fail_ratio`` but do
not make the run incorrect.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("gallery-cli", "kernel-t1", "lattice-march")
SETUP_REPEATS = 5
MIN_OPS = 100  # op_p90_s needs at least ten ops beyond it

# Wall seconds of one full-scale cycle of each workload, untraced, on the
# 2-vCPU Intel Xeon VM the benchmark was written on, at the contention it
# usually showed (reference kernel of ``hostspeed`` near 4.3 ms). A run's
# cycle count follows from ``--seconds`` and these figures, never from the
# clock: a seed always gives the same ops, so the same ops fail in every
# run of the same code, however fast the host happens to be.
CYCLE_S = {"gallery-cli": 2.8, "kernel-t1": 2.9, "lattice-march": 13.0}
# a traced cycle runs every op twice, once under the tracer
TRACED_CYCLE_FACTOR = 2.5

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"), ("fail_ratio", "ratio"), ("fp_warnings", "count"),
)


def import_sldl():
    """Import sldl from this checkout's src/ and nowhere else."""
    if not (SRC / "sldl" / "__init__.py").is_file():
        raise SystemExit(f"error: no sldl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sldl

    if Path(sldl.__file__).resolve().parent != (SRC / "sldl").resolve():
        raise SystemExit(f"error: imported sldl from {sldl.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV}}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import FUNCTION_NAMES

    out = []
    for fn in FUNCTION_NAMES:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [
        ("criteria.kernel_square_integrals.cells", "count"),
        ("criteria.kernel_square_integrals.size_exponent", "1"),
        ("jacobi.blocks_from_delta.blocks", "count"),
        ("jacobi.blocks_from_delta.size_exponent", "1"),
        ("jacobi.solve_recurrence.steps", "count"),
        ("jacobi.solve_recurrence.size_exponent", "1"),
        ("jacobi.t4_term.pairs", "count"),
        ("jacobi.t4_term.size_exponent", "1"),
        ("reports.build_report.terms", "count"),
        ("cli.canonical_json.bytes", "bytes"),
        ("bridge.gallery.calls_per_op", "calls/op"),
        ("quasidiff.fundamental_pair.wronskian_max", "1"),
        ("bridge.equivalence_residual.max", "1"),
        ("trace_overhead", "ratio"),
    ]
    return out


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Per-op wall times, failures and caught floating-point warnings.

    With ``host_speed`` set, the reference kernel of ``hostspeed`` is timed
    before every op; ``corrected_times`` times it once more after the last,
    so each op has a reference time on either side.
    """

    def __init__(self, host_speed: bool = False):
        self.host_speed = host_speed
        self.times: list[float] = []
        self.refs: list[float] = []
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self.failures: list[dict] = []
        self.fp_warnings = 0

    def corrected_times(self) -> list[float]:
        """Op times scaled to the reference host speed (see ``hostspeed``)."""
        self.refs.append(hostspeed.reference_time())
        refs = self.refs
        return [hostspeed.corrected(t, (refs[i] + refs[i + 1]) / 2.0)
                for i, t in enumerate(self.times)]

    def run(self, op, call=None):
        """Time one op, then check its output outside the timed region."""
        if self.host_speed:
            self.refs.append(hostspeed.reference_time())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                out = call(op) if call else op.fn()
                exc = None
            except Exception as err:  # an op that raises is a failed op
                exc = err
            elapsed = time.perf_counter() - t0
        self.fp_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        self.times.append(elapsed)
        self.kinds.append(op.kind)
        self.labels.append(op.label)
        failure = None
        if exc is not None:
            failure = ("error", f"{op.label}: raised {type(exc).__name__}: {exc}")
        else:
            try:
                bad = op.check(out)
            except Exception as err:  # a check that cannot read the output fails the op
                failure = ("error", f"{op.label}: output check raised {type(err).__name__}: {err}")
            else:
                if bad is not None:
                    failure = (bad.cls, bad.reason)
        if failure is not None:
            self.failures.append({"op": len(self.times) - 1, "kind": op.kind,
                                  "class": failure[0], "reason": failure[1]})


def cycle_count(wl, seconds: float, min_ops: int = 0, factor: float = 1.0) -> int:
    """Whole cycles that fill about ``seconds`` and hold at least ``min_ops`` ops."""
    per_cycle = sum(wl.mix.values())
    return max(1, round(seconds / (factor * CYCLE_S[wl.name])), -(-min_ops // per_cycle))


def run_cycles(wl, count: int, tally: Tally) -> None:
    cycles = wl.cycles()
    for _ in range(count):
        for op in next(cycles):
            tally.run(op)


def setup_probes(name: str, seed: int, scale: str, count: int) -> list[tuple[float, float]]:
    """(set-up time, reference time) of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--scale", scale, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((float(probe["setup_s"]), float(probe["reference_s"])))
    return out


def _timing_metrics(setup: list[float], times: list[float], per_cycle: int) -> dict:
    """ops_per_s is the median over cycles, each of which runs the whole op mix."""
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    rates = [per_cycle / sum(times[i:i + per_cycle]) for i in range(0, len(times), per_cycle)]
    return {"setup_s": statistics.median(setup), "ops_per_s": statistics.median(rates),
            "op_p50_s": statistics.median(times), "op_p90_s": p90}


def end_to_end(name: str, seed: int, seconds: float, scale: str) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, scale)
    own_setup = time.perf_counter() - T0
    tally = Tally(host_speed=True)
    cycles = cycle_count(wl, seconds, MIN_OPS if scale == "full" else 0)
    run_cycles(wl, cycles, tally)
    times = tally.corrected_times()
    setups = [(own_setup, tally.refs[0])] + setup_probes(name, seed, scale, SETUP_REPEATS - 1)
    per_cycle = sum(wl.mix.values())
    metrics = _timing_metrics([hostspeed.corrected(s, r) for s, r in setups], times, per_cycle)
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(tally.failures) / len(times),
        "fp_warnings": tally.fp_warnings,
    })
    raw = _timing_metrics([s for s, _ in setups], tally.times, per_cycle)
    return {"metrics": metrics, "units": dict(END_TO_END), "tally": tally, "mix": wl.mix,
            "samples": {"ops": len(times), "cycles": cycles,
                        "beyond_p90": sum(t > metrics["op_p90_s"] for t in times),
                        "raw_wall_clock": raw,
                        "reference_s": {"median": statistics.median(tally.refs),
                                        "min": min(tally.refs), "max": max(tally.refs)}}}


def traced(name: str, seed: int, seconds: float, scale: str) -> dict:
    """Every op of a fixed number of whole cycles runs twice, untraced and traced.

    The two runs of an op follow each other, in alternating order, so both
    see the same state of the host; ``trace_overhead`` is the ratio of their
    summed op times. The set-up is traced too, in a second build of the
    workload, so set-up work shows in the per-layer numbers.
    """
    import numpy as np

    import tracer as tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, scale)
    rec = tracing.Tracer()
    t = time.perf_counter()
    with rec:
        rec.call("setup", WORKLOADS[name], seed, scale)
    traced_setup = time.perf_counter() - t
    plain, traced_tally = Tally(), Tally()

    def traced_op(op):
        with rec:
            return rec.call(f"op:{op.kind}", op.fn)

    stream = wl.cycles()
    cycles = cycle_count(wl, seconds, factor=TRACED_CYCLE_FACTOR)
    for _ in range(cycles):
        for i, op in enumerate(next(stream)):
            if i % 2:
                traced_tally.run(op, traced_op)
                plain.run(op)
            else:
                plain.run(op)
                traced_tally.run(op, traced_op)
    count = len(plain.times)

    a = rec.arrays()
    names = np.array(rec.names)
    metrics = {}
    work = {}
    for fn in tracing.FUNCTION_NAMES:
        mask = (a["name"] == rec.name_id(fn))
        metrics[f"{fn}.calls"] = int(mask.sum())
        metrics[f"{fn}.self_s"] = float(a["self"][mask].sum())
        work[fn] = mask
    for fn, key in (("criteria.kernel_square_integrals", "cells"),
                    ("jacobi.blocks_from_delta", "blocks"),
                    ("jacobi.solve_recurrence", "steps"),
                    ("jacobi.t4_term", "pairs"),
                    ("reports.build_report", "terms"),
                    ("cli.canonical_json", "bytes")):
        metrics[f"{fn}.{key}"] = int(a["work"][work[fn]].sum())
    for fn in ("criteria.kernel_square_integrals", "jacobi.blocks_from_delta",
               "jacobi.solve_recurrence", "jacobi.t4_term"):
        mask = work[fn]
        metrics[f"{fn}.size_exponent"] = tracing.size_exponent(a["size"][mask], a["dur"][mask])
    metrics["bridge.gallery.calls_per_op"] = metrics["bridge.gallery.calls"] / max(count, 1)
    metrics["quasidiff.fundamental_pair.wronskian_max"] = wl.health.get("wronskian_max", 0.0)
    metrics["bridge.equivalence_residual.max"] = wl.health.get("residual_max", 0.0)
    metrics["trace_overhead"] = sum(traced_tally.times) / sum(plain.times)

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}.npz"  # one file per workload keeps disk use bounded
    rec.write(spans)
    wrapped = np.isin(names[a["name"]], tracing.FUNCTION_NAMES)
    tally = Tally()
    tally.times = plain.times + traced_tally.times
    tally.kinds = plain.kinds + traced_tally.kinds
    tally.labels = plain.labels + traced_tally.labels
    tally.failures = plain.failures + [dict(f, op=f["op"] + count) for f in traced_tally.failures]
    return {"metrics": metrics, "units": dict(per_layer_metrics()), "tally": tally,
            "mix": wl.mix,
            "samples": {"ops_per_pass": count, "cycles_per_pass": cycles, "spans": int(len(a["name"])),
                        "traced_wall_s": traced_setup + sum(traced_tally.times),
                        "wrapped_self_s": float(a["self"][wrapped].sum()),
                        "not_found": rec.missing, "spans_file": str(spans.relative_to(ROOT))}}


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(name: str, seed: int, trace: int, seconds: float, scale: str, res: dict) -> dict:
    tally = res["tally"]
    errors = [f for f in tally.failures if f["class"] == "error"]
    facts = machine_facts()
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "scale": scale, "machine": facts, "mix": res["mix"], "samples": res["samples"],
              "metrics": {k: {"value": v, "unit": res["units"][k]}
                          for k, v in res["metrics"].items()},
              "ops": [[k, lab, t] for k, lab, t in zip(tally.kinds, tally.labels, tally.times)],
              "reference_s": tally.refs, "failures": tally.failures}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# machine {json.dumps(facts)}")
    print(f"# workload {name} seed {seed} trace {trace} seconds {seconds:g} scale {scale}")
    print(f"# op mix per cycle {json.dumps(res['mix'])}")
    print(f"# samples {json.dumps(res['samples'])}")
    for key, unit in res["units"].items():
        print(f"# {key} = {_fmt(res['metrics'][key])} {unit}")
    classes = {c: sum(f["class"] == c for f in tally.failures) for c in ("precision", "error")}
    print(f"# failed {len(tally.failures)} of {len(tally.times)} ops {json.dumps(classes)}")
    for f in tally.failures[:5]:
        print(f"#   {f['class']}: {f['reason']}")
    print(f"# record {path.relative_to(ROOT)}")

    # fail_ratio and fp_warnings are 0 on healthy workloads, so BENCHMARK.json
    # leaves them out of its bounded end_to_end list; they stay in the lines above
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    keep = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {k: {"value": v, "unit": res["units"][k]}
               for k, v in res["metrics"].items() if k in keep}
    return {"correct": not errors, "attempted": len(tally.times),
            "failed": len(tally.failures), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    print()
    for name in WORKLOAD_NAMES:
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if not path.is_file():
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        print(f"{name}: {len(record['ops'])} ops, {len(record['failures'])} failed")
        for key, m in record["metrics"].items():
            print(f"  {key:52s} {_fmt(m['value']):>14s} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input size; for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print its set-up time and exit")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_sldl()
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.scale)
        setup = time.perf_counter() - T0
        print(json.dumps({"setup_s": setup, "reference_s": hostspeed.reference_time()}))
        return 0
    measure = traced if args.trace else end_to_end
    res = measure(args.workload, args.seed, args.seconds, args.scale)
    print(json.dumps(report(args.workload, args.seed, args.trace, args.seconds,
                            args.scale, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
