"""Batch front end: parse a problem, run criteria, emit a report.

Reports are JSON documents with schema tag ``sldl/1`` and a fixed field
order; floats are printed with 17 significant digits so identical
configurations produce byte-identical output. Exit codes: 0 success,
2 configuration or input error (a model whose kernel quadrature
overflows or does not stabilize included), 3 conflicting certified
evidence.

Sequence shorthands accepted by ``--d``: ``const:V``, ``harmonic``
(1/k), ``power:P`` (k**P), ``list:a,b,c`` and ``file:PATH``. Jump
shorthands for ``--H``: ``zero``, ``const:V`` (V times the identity),
``cancel`` (exactly minus the reciprocal lattice sums, the jump choice
of the christ-stolz family) and ``file:PATH``. Interval shorthands:
``unit:N`` and ``file:PATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bridge import (
    ClassifyConfig,
    ConflictingEvidenceError,
    classify_detailed,
    equivalence_residual,
    gallery,
    gallery_entry,
    l2_tail_report,
)
from .criteria import (
    Diagonal,
    IntervalSeq,
    LinearSigma,
    OffDiagonal,
    QuadratureError,
    cor1_series,
    cor2_series,
    linear_sigma_from_json,
    t1_series,
    t2_predicate,
    t5_series,
)
from .jacobi import (
    blocks_from_delta,
    blocks_from_json,
    blocks_to_json,
    carleman_report,
    cor3_check,
    discrete_cauchy,
    reciprocal_sum,
    solve_recurrence,
    t4_report,
    t7_check,
)
from .matcore import matrix_from_json, matrix_to_json
from .quasidiff import DeltaNodes, QuasiState, model_from_json
from .reports import VERDICT_POLICY

SCHEMA = "sldl/1"
VERDICTS = ("DivergesProven", "ConvergesBounded", "Inconclusive")
CLASSIFICATIONS = ("LimitPoint", "LimitCircle", "NotLimitCircle", "Inconclusive")


class ConfigError(ValueError):
    """Invalid configuration; maps to exit status 2."""


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, (np.floating,)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def make_envelope(command: str, config: dict, result: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config,
            "policy": VERDICT_POLICY, "result": result}


def validate_report(obj: dict) -> None:
    """Check a report document against the published sldl/1 shape."""
    for key in ("schema", "command", "config", "policy", "result"):
        if key not in obj:
            raise ValueError(f"report is missing key {key!r}")
    if obj["schema"] != SCHEMA:
        raise ValueError(f"unknown schema {obj['schema']!r}")
    if not isinstance(obj["result"], dict):
        raise ValueError("result must be an object")
    for rep in obj["result"].get("reports", []):
        for key in ("criterion", "terms", "partial_sums", "verdict", "verdict_basis"):
            if key not in rep:
                raise ValueError(f"criterion report missing {key!r}")
        if rep["verdict"] not in VERDICTS:
            raise ValueError(f"unknown verdict {rep['verdict']!r}")
        if len(rep["terms"]) != len(rep["partial_sums"]):
            raise ValueError("terms and partial_sums lengths differ")
    verdict = obj["result"].get("verdict")
    if verdict is not None:
        if verdict.get("classification") not in CLASSIFICATIONS:
            raise ValueError("bad classification")
        if verdict.get("side") not in ("Continuous", "Discrete", "Both"):
            raise ValueError("bad side")
        for ev in verdict.get("evidence", []):
            for key in ("criterion", "verdict", "basis"):
                if key not in ev:
                    raise ValueError(f"evidence item missing {key!r}")


# ---------------------------------------------------------------------------
# shorthand parsing


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}") from exc


def parse_spacings(spec: str, count: int) -> tuple[float, ...]:
    if spec.startswith("const:"):
        v = float(spec[6:])
        return (v,) * count
    if spec == "harmonic":
        return tuple(1.0 / k for k in range(1, count + 1))
    if spec.startswith("power:"):
        p = float(spec[6:])
        return tuple(float(k) ** p for k in range(1, count + 1))
    if spec.startswith("list:"):
        return tuple(float(v) for v in spec[5:].split(","))
    if spec.startswith("file:"):
        return tuple(float(v) for v in _load_json(spec[5:]))
    raise ConfigError(f"unknown spacing spec {spec!r}")


def parse_jumps(spec: str, d, n: int) -> tuple[np.ndarray, ...]:
    count = max(len(d) - 1, 1)
    eye = np.eye(n)
    if spec == "zero":
        return tuple(np.zeros((n, n)) for _ in range(count))
    if spec.startswith("const:"):
        v = float(spec[6:])
        return tuple(v * eye for _ in range(count))
    if spec == "cancel":
        return tuple(-reciprocal_sum(d, k) * eye for k in range(1, count + 1))
    if spec.startswith("file:"):
        return tuple(matrix_from_json(h, n) for h in _load_json(spec[5:]))
    raise ConfigError(f"unknown jump spec {spec!r}")


def parse_intervals(spec: str) -> IntervalSeq:
    if spec.startswith("unit:"):
        return IntervalSeq.unit(int(spec[5:]))
    if spec.startswith("file:"):
        obj = _load_json(spec[5:])
        if isinstance(obj, dict):
            return IntervalSeq(tuple(tuple(iv) for iv in obj["intervals"]),
                               tuple(obj["markers"]) if "markers" in obj else None)
        return IntervalSeq(tuple(tuple(iv) for iv in obj))
    raise ConfigError(f"unknown interval spec {spec!r}")


def parse_segments(spec: str) -> tuple[tuple[int, int], ...]:
    try:
        out = []
        for part in spec.split(","):
            a, b = part.split("-")
            out.append((int(a), int(b)))
        return tuple(out)
    except ValueError as exc:
        raise ConfigError(f"bad segment spec {spec!r} (want e.g. 1-5,6-10)") from exc


def parse_channel(spec: str):
    try:
        kind, idx = spec.split(":", 1)
        if kind == "diag":
            return Diagonal(int(idx))
        if kind == "offdiag":
            i, j = idx.split(",")
            return OffDiagonal(int(i), int(j))
    except ValueError:
        pass
    raise ConfigError(f"bad channel {spec!r} (want diag:I or offdiag:I,J)")


def parse_vector(spec: str, n: int) -> np.ndarray:
    vals = [float(v) for v in spec.split(",")]
    if len(vals) != n:
        raise ConfigError(f"expected {n} components in {spec!r}")
    return np.array(vals, dtype=complex)


def load_problem(path: str):
    obj = _load_json(path)
    if obj.get("variant") == "linear_sigma":
        return linear_sigma_from_json(obj)
    return model_from_json(obj)


def load_blocks(path: str):
    """Accept a bare blocks object or a report envelope from ``jacobi build``."""
    obj = _load_json(path)
    if "result" in obj and isinstance(obj["result"], dict):
        obj = obj["result"].get("blocks", obj)
    return blocks_from_json(obj)


def _criteria_list(spec: str | None):
    """Comma-separated codes; ClassifyConfig checks them against the table."""
    if spec is None:
        return None
    return tuple(s.strip() for s in spec.split(",") if s.strip())


# ---------------------------------------------------------------------------
# text rendering


def _render_report_line(rep: dict) -> str:
    total = rep["partial_sums"][-1] if rep["partial_sums"] else 0.0
    return (f"  {rep['criterion']:14s} {rep['verdict']:16s} "
            f"terms={len(rep['terms'])} partial_sum={_fmt_float(float(total))} :: "
            f"{rep['verdict_basis']}")


def render_text(envelope: dict) -> str:
    lines = [f"command: {envelope['command']}"]
    result = envelope["result"]
    if "reports" in result:
        lines.append("reports:")
        lines.extend(_render_report_line(rep) for rep in result["reports"])
    verdict = result.get("verdict")
    if verdict is not None:
        lines.append(f"classification: {verdict['classification']} "
                     f"(side: {verdict['side']})")
        for ev in verdict["evidence"]:
            lines.append(f"  {ev['criterion']:22s} {ev['verdict']:16s} :: {ev['basis']}")
    for key, val in result.items():
        if key in ("reports", "verdict", "entries"):
            continue
        lines.append(f"{key}: {canonical_json(val)}")
    for entry in result.get("entries", []):
        got = entry.get("classification", "")
        expect = entry.get("expected", "")
        mark = "" if not got else (" [ok]" if got == expect else " [MISMATCH]")
        lines.append(f"  {entry['name']:26s} expected={expect:16s} "
                     + (f"got={got}{mark}" if got else entry.get("note", "")))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _reports_json(reports) -> list[dict]:
    return [rep.to_json() for rep in reports]


def _cmd_classify(args) -> dict:
    sources = [s for s in (args.model, args.blocks, args.gallery) if s]
    if len(sources) != 1:
        raise ConfigError("give exactly one of --model, --blocks, --gallery")
    intervals = parse_intervals(args.intervals) if args.intervals else None
    segments = parse_segments(args.segments) if args.segments else None
    criteria_names = _criteria_list(args.criteria)
    base = ClassifyConfig()
    if args.gallery:
        entry = _gallery_entry_checked(args.gallery)
        problem, base = entry.problem, entry.config
        source = f"gallery:{args.gallery}"
    elif args.model:
        problem = load_problem(args.model)
        source = args.model
    else:
        problem = load_blocks(args.blocks)
        source = args.blocks
    config = ClassifyConfig(
        intervals=intervals if intervals is not None else base.intervals,
        N=args.N if args.N is not None else base.N,
        segments=segments if segments is not None else base.segments,
        criteria=criteria_names if criteria_names is not None else base.criteria)
    verdict, reports = classify_detailed(problem, config)
    config_echo = {"problem": source, "intervals": args.intervals,
                   "N": config.N, "segments": args.segments,
                   "criteria": list(config.criteria) if config.criteria else None}
    return make_envelope("classify", config_echo,
                         {"verdict": verdict.to_json(),
                          "reports": _reports_json(reports)})


def _gallery_entry_checked(name: str):
    try:
        return gallery_entry(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_criterion(args) -> dict:
    code = args.criterion
    config_echo = {"criterion": code}
    if code == "t1":
        problem = load_problem(args.model)
        intervals = parse_intervals(args.intervals)
        config_echo.update(model=args.model, intervals=args.intervals,
                           threshold=args.threshold)
        reports = [t1_series(problem, intervals, threshold=args.threshold)]
    elif code == "t2":
        problem = load_problem(args.model)
        if not isinstance(problem, LinearSigma):
            raise ConfigError("criterion t2 needs a linear_sigma model")
        intervals = parse_intervals(args.intervals)
        config_echo.update(model=args.model, intervals=args.intervals)
        res = t2_predicate(problem, intervals)
        config_echo["hypothesis_ok"] = res.hypothesis_ok
        reports = [res.series]
    elif code == "t5":
        data = _load_json(args.data)
        intervals = IntervalSeq(tuple(tuple(iv) for iv in data["intervals"]),
                                tuple(data["markers"]))
        jumps = [matrix_from_json(h) for h in data["jumps"]]
        config_echo.update(data=args.data, channel=args.channel,
                           threshold=args.threshold)
        reports = [t5_series(intervals, jumps, parse_channel(args.channel),
                             threshold=args.threshold)]
    elif code == "cor1":
        data = _load_json(args.data)
        jumps = [matrix_from_json(h) for h in data["jumps"]]
        config_echo.update(data=args.data, channel=args.channel,
                           threshold=args.threshold)
        reports = [cor1_series(data["lengths"], jumps, parse_channel(args.channel),
                               threshold=args.threshold)]
    elif code == "cor2":
        d = parse_spacings(args.d, args.count)
        jumps = parse_jumps(args.H, d, args.n)
        config_echo.update(d=args.d, H=args.H, n=args.n, count=args.count,
                           channel=args.channel, threshold=args.threshold)
        reports = [cor2_series(d, jumps, parse_channel(args.channel),
                               threshold=args.threshold)]
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown criterion {code!r}")
    return make_envelope(f"criterion {code}", config_echo,
                         {"reports": _reports_json(reports)})


def _jacobi_inputs(args, min_count=lambda args: 3):
    """Resolve (d, H) from --data or from the --d/--H shorthands.

    ``min_count`` is evaluated after a data file's own N has taken
    effect; shorthand-generated spacings are extended to meet it.
    """
    if getattr(args, "data", None):
        obj = _load_json(args.data)
        d = tuple(float(v) for v in obj["d"])
        jumps = tuple(matrix_from_json(h) for h in obj["H"])
        if "N" in obj:
            args.N = int(obj["N"])
    elif args.d:
        count = max(args.count, min_count(args))
        d = parse_spacings(args.d, count)
        jumps = parse_jumps(args.H, d, args.n)
    else:
        raise ConfigError("give --d (with optional --H) or --data")
    if len(d) < min_count(args):
        raise ConfigError(f"need at least {min_count(args)} spacings")
    return d, jumps


def _cmd_jacobi(args) -> dict:
    op = args.op
    config_echo = {"op": op, "d": getattr(args, "d", None),
                   "H": getattr(args, "H", None), "n": args.n,
                   "data": getattr(args, "data", None)}
    if op == "build":
        d, jumps = _jacobi_inputs(args)
        config_echo["count"] = args.count
        blocks = blocks_from_delta(d, jumps)
        return make_envelope("jacobi build", config_echo,
                             {"blocks": blocks_to_json(blocks)})
    if op == "recurrence":
        d, jumps = _jacobi_inputs(args, lambda a: max(a.steps, 3))
        blocks = blocks_from_delta(d, jumps)
        u = solve_recurrence(blocks, parse_vector(args.u0, args.n),
                             parse_vector(args.u1, args.n), args.steps)
        config_echo.update(count=args.count, steps=args.steps, u0=args.u0, u1=args.u1)
        seq = [[matrix_to_json(v.reshape(1, -1))[0]] for v in u]
        return make_envelope("jacobi recurrence", config_echo,
                             {"sequence": [row[0] for row in seq],
                              "reports": [l2_tail_report(u).to_json()]})
    if op == "cauchy":
        d, jumps = _jacobi_inputs(args, lambda a: a.i + 2)
        blocks = blocks_from_delta(d, jumps)
        config_echo.update(count=args.count, i=args.i, j=args.j)
        k = discrete_cauchy(blocks, args.i, args.j)
        return make_envelope("jacobi cauchy", config_echo, {"K": matrix_to_json(k)})
    if op == "t4":
        segments = parse_segments(args.segments)
        d, jumps = _jacobi_inputs(args, lambda a: max(m for _, m in segments) + 2)
        blocks = blocks_from_delta(d, jumps)
        config_echo.update(count=args.count, segments=args.segments)
        return make_envelope("jacobi t4", config_echo,
                             {"reports": [t4_report(blocks, segments).to_json()]})
    if op == "carleman":
        d, jumps = _jacobi_inputs(args, lambda a: a.N + 2)
        blocks = blocks_from_delta(d, jumps)
        config_echo.update(N=args.N)
        return make_envelope("jacobi carleman", config_echo,
                             {"reports": [carleman_report(blocks, args.N).to_json()]})
    if op == "t7":
        d, jumps = _jacobi_inputs(args, lambda a: 2 * a.N + 2)
        config_echo.update(N=args.N)
        res = t7_check(d, jumps, args.N)
        return make_envelope("jacobi t7", config_echo,
                             {"limit_circle_certified": res.limit_circle_certified,
                              "reports": _reports_json(res.reports())})
    if op == "cor3":
        d, jumps = _jacobi_inputs(args, lambda a: a.N + 3)
        config_echo.update(N=args.N)
        res = cor3_check(d, jumps, args.N)
        return make_envelope("jacobi cor3", config_echo,
                             {"limit_circle_certified": res.limit_circle_certified,
                              "cond1": res.cond1,
                              "cond1_direction": res.cond1_direction,
                              "reports": _reports_json(res.reports())})
    raise ConfigError(f"unknown jacobi op {op!r}")  # pragma: no cover


def _cmd_bridge(args) -> dict:
    if args.op == "residual":
        problem = load_problem(args.model)
        if not isinstance(problem, DeltaNodes):
            raise ConfigError("bridge residual needs a delta_nodes model")
        n = problem.n
        seed = QuasiState(parse_vector(args.f, n) if args.f else np.zeros(n),
                          parse_vector(args.f1, n) if args.f1 else np.ones(n))
        count = args.count or (len(problem.nodes) - 3)
        res = equivalence_residual(problem, count, seed)
        config_echo = {"op": "residual", "model": args.model, "count": count,
                       "f": args.f, "f1": args.f1}
        return make_envelope("bridge residual", config_echo, {"residual": res})
    if args.op == "l2":
        d = parse_spacings(args.d, max(args.count, args.steps + 1))
        jumps = parse_jumps(args.H, d, args.n)
        blocks = blocks_from_delta(d, jumps)
        u = solve_recurrence(blocks, parse_vector(args.u0, args.n),
                             parse_vector(args.u1, args.n), args.steps)
        config_echo = {"op": "l2", "d": args.d, "H": args.H, "n": args.n,
                       "steps": args.steps, "u0": args.u0, "u1": args.u1}
        return make_envelope("bridge l2", config_echo,
                             {"reports": [l2_tail_report(u).to_json()]})
    raise ConfigError(f"unknown bridge op {args.op!r}")  # pragma: no cover


def _cmd_gallery(args) -> dict:
    if args.op == "list":
        entries = [{"name": e.name, "expected": e.expected, "note": e.note}
                   for e in gallery()]
        return make_envelope("gallery list", {}, {"entries": entries})
    entries = []
    for entry in [_gallery_entry_checked(args.name)] if args.name else gallery():
        verdict, reports = classify_detailed(entry.problem, entry.config)
        entries.append({"name": entry.name, "expected": entry.expected,
                        "classification": verdict.classification,
                        "match": verdict.classification == entry.expected,
                        "verdict": verdict.to_json(),
                        "reports": _reports_json(reports)})
    return make_envelope("gallery run", {"name": args.name}, {"entries": entries})


# ---------------------------------------------------------------------------
# argument parser and entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sldl",
        description="limit point / limit circle diagnostics for step and "
                    "delta potentials and block lattices")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--H", default="zero")
    lattice.add_argument("--n", type=int, default=1)
    lattice.add_argument("--count", type=int, default=50)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", parents=[common],
                       help="run every applicable criterion")
    c.add_argument("--model")
    c.add_argument("--blocks")
    c.add_argument("--gallery")
    c.add_argument("--intervals")
    c.add_argument("--N", type=int)
    c.add_argument("--segments")
    c.add_argument("--criteria")
    c.set_defaults(handler=_cmd_classify)

    cr = sub.add_parser("criterion", help="run one criterion")
    crs = cr.add_subparsers(dest="criterion", required=True)
    for code in ("t1", "t2"):
        q = crs.add_parser(code, parents=[common])
        q.add_argument("--model", required=True)
        q.add_argument("--intervals", required=True)
        if code == "t1":
            q.add_argument("--threshold", type=float)
    for code in ("t5", "cor1"):
        q = crs.add_parser(code, parents=[common])
        q.add_argument("--data", required=True)
        q.add_argument("--channel", required=True)
        q.add_argument("--threshold", type=float)
    q = crs.add_parser("cor2", parents=[common, lattice])
    q.add_argument("--d", required=True)
    q.add_argument("--channel", required=True)
    q.add_argument("--threshold", type=float)
    cr.set_defaults(handler=_cmd_criterion)

    j = sub.add_parser("jacobi", help="block lattice operations")
    js = j.add_subparsers(dest="op", required=True)

    def jacobi_common(q):
        q.add_argument("--d")
        q.add_argument("--data", help='JSON file {"d": [...], "H": [...], "N": int}')

    jacobi_common(js.add_parser("build", parents=[common, lattice]))
    q = js.add_parser("recurrence", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--u0", required=True)
    q.add_argument("--u1", required=True)
    q.add_argument("--steps", type=int, default=20)
    q = js.add_parser("cauchy", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q = js.add_parser("t4", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--segments", required=True)
    q = js.add_parser("carleman", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--N", type=int, default=50)
    q = js.add_parser("t7", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--N", type=int, default=100)
    q = js.add_parser("cor3", parents=[common, lattice])
    jacobi_common(q)
    q.add_argument("--N", type=int, default=100)
    j.set_defaults(handler=_cmd_jacobi)

    b = sub.add_parser("bridge", help="continuous/discrete cross checks")
    bs = b.add_subparsers(dest="op", required=True)
    q = bs.add_parser("residual", parents=[common])
    q.add_argument("--model", required=True)
    q.add_argument("--count", type=int)
    q.add_argument("--f")
    q.add_argument("--f1")
    q = bs.add_parser("l2", parents=[common, lattice])
    q.add_argument("--d", required=True)
    q.add_argument("--u0", required=True)
    q.add_argument("--u1", required=True)
    q.add_argument("--steps", type=int, default=50)
    b.set_defaults(handler=_cmd_bridge)

    g = sub.add_parser("gallery", help="reference problems")
    gs = g.add_subparsers(dest="op", required=True)
    gs.add_parser("list", parents=[common])
    q = gs.add_parser("run", parents=[common])
    q.add_argument("name", nargs="?")
    g.set_defaults(handler=_cmd_gallery)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        envelope = args.handler(args)
    except ConflictingEvidenceError as exc:
        print(f"conflicting evidence: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, QuadratureError, ValueError, KeyError, TypeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_text(envelope) if args.format == "text" else canonical_json(envelope) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
