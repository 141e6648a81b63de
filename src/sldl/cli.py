"""Batch front end: parse a problem, run criteria, emit a report.

Reports are JSON documents with schema tag ``sldl/1`` and a fixed field
order; floats are printed with 17 significant digits so identical
configurations produce byte-identical output. Exit codes: 0 success,
2 configuration or input error (a model whose kernel integrals overflow
included), 3 conflicting certified evidence.

Each command leaf names its own handler on its parser. A handler returns
the config echo and the result; ``run`` is the only place that wraps them
in an envelope, titled with the leaf's command path ("jacobi t4"). The
parser is built once per process; ``run`` looks the handler up by name
when it dispatches, so a handler replaced on the module is the one called.

Sequence shorthands accepted by ``--d``: ``const:V``, ``harmonic``
(1/k), ``power:P`` (k**P), ``list:a,b,c`` and ``file:PATH``. Jump
shorthands for ``--H``: ``zero``, ``const:V`` (V times the identity),
``cancel`` (exactly minus the reciprocal lattice sums, the jump choice
of the christ-stolz family) and ``file:PATH``. Interval shorthands:
``unit:N`` and ``file:PATH``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bridge import (
    INCONCLUSIVE_CLASS,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    NOT_LIMIT_CIRCLE,
    SIDES,
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
    OffDiagonal,
    cor1_series,
    cor2_series,
    t1_series,
    t2_predicate,
    t5_series,
)
from .jacobi import (
    Lattice,
    blocks_from_json,
    blocks_from_lattice,
    blocks_to_json,
    cancel_jumps,
    carleman_report,
    cor3_lattice,
    discrete_cauchy,
    solve_recurrence,
    t4_report,
    t7_lattice,
)
from .matcore import as_stack, floats, matrices_from_json, matrix_to_json
from .quasidiff import DeltaNodes, LinearSigma, QuasiState, model_from_json
from .reports import CONVERGES, DIVERGES, INCONCLUSIVE, VERDICT_POLICY

SCHEMA = "sldl/1"
VERDICTS = (DIVERGES, CONVERGES, INCONCLUSIVE)
CLASSIFICATIONS = (LIMIT_POINT, LIMIT_CIRCLE, NOT_LIMIT_CIRCLE, INCONCLUSIVE_CLASS)


class ConfigError(ValueError):
    """Invalid configuration; maps to exit status 2."""


# ---------------------------------------------------------------------------
# canonical JSON


# the function json.dumps(s) applies to a string with its default arguments
_quote = json.encoder.encode_basestring_ascii


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


@functools.lru_cache(maxsize=64)
def _float_run_format(count: int) -> str:
    """``"%.17g,%.17g,…"`` for a run of ``count`` floats; a report repeats its lengths."""
    return ",".join(["%.17g"] * count)


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 significant digits.

    One walk appends the pieces of the text to a list, joined once at the end.
    A non-empty list or tuple of plain floats is formatted by one ``%``
    operation; ``'%.17g' % x`` is ``format(x, ".17g")``, and its text has an
    "n" only for NaN and infinities, which take the per-item path.
    """
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def _encode(obj, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        sep = "{"
        for k, v in obj.items():
            out.append(f"{sep}{_quote(str(k))}:")
            _encode(v, out)
            sep = ","
        out.append("}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) == {float}:
            text = _float_run_format(len(obj)) % tuple(obj)
            if "n" not in text:
                out += ("[", text, "]")
                return
        sep = "["
        for v in obj:
            out.append(sep)
            _encode(v, out)
            sep = ","
        out.append("]" if obj else "[]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, np.floating):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(str(int(obj)))
    else:
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
        if verdict.get("side") not in SIDES:
            raise ValueError("bad side")
        for ev in verdict.get("evidence", []):
            for key in ("criterion", "verdict", "basis"):
                if key not in ev:
                    raise ValueError(f"evidence item missing {key!r}")


# ---------------------------------------------------------------------------
# shorthand parsing


def _load_json(path: str, *keys):
    """The JSON value of a file; an object is checked to hold every one of ``keys``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    for key in keys if isinstance(obj, dict) else ():
        if key not in obj:
            raise ConfigError(f"data file {path} has no key {key!r}")
    return obj


def _load_data(path: str, *keys):
    """The JSON object of a data or model file, checked to hold every one of ``keys``."""
    obj = _load_json(path, *keys)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return obj


def parse_spacings(spec: str, count: int) -> tuple[float, ...] | np.ndarray:
    if spec.startswith("const:"):
        v = float(spec[6:])
        return (v,) * count
    if spec == "harmonic":
        return tuple(1.0 / k for k in range(1, count + 1))
    if spec.startswith("power:"):
        p = float(spec[6:])
        try:
            return tuple(float(k) ** p for k in range(1, count + 1))
        except OverflowError:
            raise ConfigError(f"spacing spec {spec!r} overflows a float") from None
    if spec.startswith("list:"):
        return floats(spec[5:].split(","))
    if spec.startswith("file:"):
        return floats(_load_json(spec[5:]))
    raise ConfigError(f"unknown spacing spec {spec!r}")


def parse_jumps(spec: str, d, n: int):
    count = max(len(d) - 1, 0)
    if spec == "zero":
        return np.zeros((count, n, n))
    if spec.startswith("const:"):
        v = float(spec[6:])
        if not math.isfinite(v):
            raise ConfigError(f"jump value {v} is not finite")
        return np.broadcast_to(v * np.eye(n), (count, n, n))  # -0.0 off the diagonal for v < 0
    if spec == "cancel":
        return cancel_jumps(d, n)
    if spec.startswith("file:"):
        return as_stack(matrices_from_json(_load_json(spec[5:])), n)  # Lattice takes no n
    raise ConfigError(f"unknown jump spec {spec!r}")


def parse_intervals(spec: str, X: float) -> IntervalSeq:
    """The intervals of ``spec``; ``unit:N`` past the domain end X is refused before it is built."""
    if spec.startswith("unit:"):
        count = int(spec[5:])
        if count < 1:
            raise ConfigError(f"interval count must be at least 1, got {count}")
        if count > X:
            raise ConfigError("intervals exceed the model domain")
        return IntervalSeq.unit(count)
    if spec.startswith("file:"):
        obj = _load_json(spec[5:], "intervals")
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
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"components of {spec!r} must be finite")
    return np.array(vals)


def load_problem(path: str):
    return model_from_json(_load_data(path))


def load_blocks(path: str):
    """Accept a bare blocks object or a report envelope from ``jacobi build``."""
    obj = _load_data(path)
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
# leaf handlers: each returns (config echo, result); run wraps the envelope


def _reports_json(reports) -> list[dict]:
    return [rep.to_json() for rep in reports]


def _echo(args, *keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _classify(args):
    if sum(1 for s in (args.model, args.blocks, args.gallery) if s) != 1:
        raise ConfigError("give exactly one of --model, --blocks, --gallery")
    if args.blocks and args.intervals:
        raise ConfigError("blocks read no intervals; drop --intervals")
    segments = parse_segments(args.segments) if args.segments else None
    criteria_names = _criteria_list(args.criteria)
    base = ClassifyConfig()
    if args.gallery:
        entry = gallery_entry(args.gallery)
        problem, base = entry.problem, entry.config
        source = f"gallery:{args.gallery}"
    elif args.model:
        problem = load_problem(args.model)
        source = args.model
    else:
        problem = load_blocks(args.blocks)
        source = args.blocks
    config = ClassifyConfig(
        intervals=parse_intervals(args.intervals, problem.X) if args.intervals else base.intervals,
        N=args.N if args.N is not None else base.N,
        segments=segments if segments is not None else base.segments,
        criteria=criteria_names if criteria_names is not None else base.criteria)
    verdict, reports = classify_detailed(problem, config)
    echo = {"problem": source, "intervals": args.intervals,
            "N": config.N, "segments": args.segments,
            "criteria": list(config.criteria) if config.criteria else None}
    return echo, {"verdict": verdict.to_json(), "reports": _reports_json(reports)}


def _criterion_t1(args):
    problem = load_problem(args.model)
    rep = t1_series(problem, parse_intervals(args.intervals, problem.X), threshold=args.threshold)
    return (_echo(args, "criterion", "model", "intervals", "threshold"),
            {"reports": [rep.to_json()]})


def _criterion_t2(args):
    problem = load_problem(args.model)
    if not isinstance(problem, LinearSigma):
        raise ConfigError("criterion t2 needs a linear_sigma model")
    res = t2_predicate(problem, parse_intervals(args.intervals, problem.X))
    echo = _echo(args, "criterion", "model", "intervals")
    echo["hypothesis_ok"] = res.hypothesis_ok
    return echo, {"reports": [res.series.to_json()]}


def _criterion_t5(args):
    data = _load_data(args.data, "intervals", "markers", "jumps")
    intervals = IntervalSeq(tuple(tuple(iv) for iv in data["intervals"]),
                            tuple(data["markers"]))
    jumps = matrices_from_json(data["jumps"])
    rep = t5_series(intervals, jumps, parse_channel(args.channel), threshold=args.threshold)
    return _echo(args, "criterion", "data", "channel", "threshold"), {"reports": [rep.to_json()]}


def _criterion_cor1(args):
    data = _load_data(args.data, "lengths", "jumps")
    rep = cor1_series(data["lengths"], matrices_from_json(data["jumps"]),
                      parse_channel(args.channel), threshold=args.threshold)
    return _echo(args, "criterion", "data", "channel", "threshold"), {"reports": [rep.to_json()]}


def _criterion_cor2(args):
    d = parse_spacings(args.d, args.count)
    if len(d) < 2:
        raise ConfigError(f"need at least 2 spacings for the cor2 series, got {len(d)}")
    jumps = parse_jumps(args.H, d, args.n)
    rep = cor2_series(d, jumps, parse_channel(args.channel), threshold=args.threshold)
    return (_echo(args, "criterion", "d", "H", "n", "count", "channel", "threshold"),
            {"reports": [rep.to_json()]})


def _lattice(args, min_count, *keys):
    """(config echo, Lattice) of a jacobi leaf, from --data or the --d/--H shorthands.

    ``min_count(args)`` is evaluated after a data file's own N has taken
    effect; shorthand-generated spacings are extended to meet it. The count
    is checked before the jumps are read, since ``cancel`` jumps need two
    spacings each. The echo holds op, d, H, n and data, then ``keys``.
    """
    if args.data:
        obj = _load_data(args.data, "d", "H")
        d = floats(obj["d"])
        if "N" in obj:
            args.N = int(obj["N"])
    elif args.d:
        d = parse_spacings(args.d, max(args.count, min_count(args)))
    else:
        raise ConfigError("give --d (with optional --H) or --data")
    if len(d) < min_count(args):
        raise ConfigError(f"need at least {min_count(args)} spacings")
    jumps = matrices_from_json(obj["H"]) if args.data else parse_jumps(args.H, d, args.n)
    return _echo(args, "op", "d", "H", "n", "data", *keys), Lattice(d, jumps)


def _recurrence(args, lat):
    """The recurrence solution from --u0/--u1 over --steps, and its l2 report."""
    u = solve_recurrence(blocks_from_lattice(lat), parse_vector(args.u0, args.n),
                         parse_vector(args.u1, args.n), args.steps)
    return u, l2_tail_report(u).to_json()


def _jacobi_build(args):
    echo, lat = _lattice(args, lambda a: 3, "count")
    return echo, {"blocks": blocks_to_json(blocks_from_lattice(lat))}


def _jacobi_recurrence(args):
    echo, lat = _lattice(args, lambda a: max(a.steps, 3), "count", "steps", "u0", "u1")
    u, l2 = _recurrence(args, lat)
    return echo, {"sequence": [matrix_to_json(v) for v in u],
                  "reports": [l2]}


def _jacobi_cauchy(args):
    echo, lat = _lattice(args, lambda a: a.i + 2, "count", "i", "j")
    return echo, {"K": matrix_to_json(discrete_cauchy(blocks_from_lattice(lat), args.i, args.j))}


def _jacobi_t4(args):
    segments = parse_segments(args.segments)
    echo, lat = _lattice(args, lambda a: max(m for _, m in segments) + 2, "count", "segments")
    return echo, {"reports": [t4_report(blocks_from_lattice(lat), segments).to_json()]}


def _jacobi_carleman(args):
    echo, lat = _lattice(args, lambda a: a.N + 2, "N")
    return echo, {"reports": [carleman_report(blocks_from_lattice(lat), args.N).to_json()]}


def _jacobi_t7(args):
    echo, lat = _lattice(args, lambda a: 2 * a.N + 2, "N")
    res = t7_lattice(lat, args.N)
    return echo, {"limit_circle_certified": res.limit_circle_certified,
                  "reports": _reports_json(res.reports())}


def _jacobi_cor3(args):
    echo, lat = _lattice(args, lambda a: a.N + 3, "N")
    res = cor3_lattice(lat, args.N)
    return echo, {"limit_circle_certified": res.limit_circle_certified,
                  "cond1": res.cond1,
                  "cond1_direction": res.cond1_direction,
                  "reports": _reports_json(res.reports())}


def _bridge_residual(args):
    problem = load_problem(args.model)
    if not isinstance(problem, DeltaNodes):
        raise ConfigError("bridge residual needs a delta_nodes model")
    n = problem.n
    seed = QuasiState(parse_vector(args.f, n) if args.f else np.zeros(n),
                      parse_vector(args.f1, n) if args.f1 else np.ones(n))
    count = len(problem.nodes) - 3 if args.count is None else args.count
    res = equivalence_residual(problem, count, seed)
    return ({"op": "residual", "model": args.model, "count": count, "f": args.f, "f1": args.f1},
            {"residual": res})


def _bridge_l2(args):
    """jacobi recurrence's l2 report without the sequence."""
    d = parse_spacings(args.d, max(args.count, args.steps + 1))
    _, l2 = _recurrence(args, Lattice(d, parse_jumps(args.H, d, args.n)))
    return _echo(args, "op", "d", "H", "n", "steps", "u0", "u1"), {"reports": [l2]}


def _gallery_list(args):
    return {}, {"entries": [{"name": e.name, "expected": e.expected, "note": e.note}
                            for e in gallery()]}


def _gallery_run(args):
    entries = []
    for entry in [gallery_entry(args.name)] if args.name else gallery():
        verdict, reports = classify_detailed(entry.problem, entry.config)
        entries.append({"name": entry.name, "expected": entry.expected,
                        "classification": verdict.classification,
                        "match": verdict.classification == entry.expected,
                        "verdict": verdict.to_json(),
                        "reports": _reports_json(reports)})
    return {"name": args.name}, {"entries": entries}


# ---------------------------------------------------------------------------
# argument parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sldl`` command tree, built on the first call and shared by every later one."""
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

    def leaf(subs, name, handler, *parents, **kwargs):
        """A command leaf; its title in the report is its path after ``sldl``."""
        q = subs.add_parser(name, parents=[common, *parents], **kwargs)
        q.set_defaults(handler=handler.__name__, title=q.prog.partition(" ")[2])
        return q

    c = leaf(sub, "classify", _classify, help="run every applicable criterion")
    c.add_argument("--model")
    c.add_argument("--blocks")
    c.add_argument("--gallery")
    c.add_argument("--intervals")
    c.add_argument("--N", type=int)
    c.add_argument("--segments")
    c.add_argument("--criteria")

    crs = sub.add_parser("criterion", help="run one criterion").add_subparsers(
        dest="criterion", required=True)
    for code, handler in (("t1", _criterion_t1), ("t2", _criterion_t2)):
        q = leaf(crs, code, handler)
        q.add_argument("--model", required=True)
        q.add_argument("--intervals", required=True)
        if code == "t1":
            q.add_argument("--threshold", type=float)
    for code, handler in (("t5", _criterion_t5), ("cor1", _criterion_cor1)):
        q = leaf(crs, code, handler)
        q.add_argument("--data", required=True)
        q.add_argument("--channel", required=True)
        q.add_argument("--threshold", type=float)
    q = leaf(crs, "cor2", _criterion_cor2, lattice)
    q.add_argument("--d", required=True)
    q.add_argument("--channel", required=True)
    q.add_argument("--threshold", type=float)

    js = sub.add_parser("jacobi", help="block lattice operations").add_subparsers(
        dest="op", required=True)

    def jacobi_leaf(op, handler):
        q = leaf(js, op, handler, lattice)
        q.add_argument("--d")
        q.add_argument("--data", help='JSON file {"d": [...], "H": [...], "N": int}')
        return q

    jacobi_leaf("build", _jacobi_build)
    q = jacobi_leaf("recurrence", _jacobi_recurrence)
    q.add_argument("--u0", required=True)
    q.add_argument("--u1", required=True)
    q.add_argument("--steps", type=int, default=20)
    q = jacobi_leaf("cauchy", _jacobi_cauchy)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    jacobi_leaf("t4", _jacobi_t4).add_argument("--segments", required=True)
    jacobi_leaf("carleman", _jacobi_carleman).add_argument("--N", type=int, default=50)
    jacobi_leaf("t7", _jacobi_t7).add_argument("--N", type=int, default=100)
    jacobi_leaf("cor3", _jacobi_cor3).add_argument("--N", type=int, default=100)

    bs = sub.add_parser("bridge", help="continuous/discrete cross checks").add_subparsers(
        dest="op", required=True)
    q = leaf(bs, "residual", _bridge_residual)
    q.add_argument("--model", required=True)
    q.add_argument("--count", type=int)
    q.add_argument("--f")
    q.add_argument("--f1")
    q = leaf(bs, "l2", _bridge_l2, lattice)
    q.add_argument("--d", required=True)
    q.add_argument("--u0", required=True)
    q.add_argument("--u1", required=True)
    q.add_argument("--steps", type=int, default=50)

    gs = sub.add_parser("gallery", help="reference problems").add_subparsers(
        dest="op", required=True)
    leaf(gs, "list", _gallery_list)
    leaf(gs, "run", _gallery_run).add_argument("name", nargs="?")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:
            raise ConfigError("--n must be at least 1")
        echo, result = globals()[args.handler](args)
    except ConflictingEvidenceError as exc:
        print(f"conflicting evidence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, IndexError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    envelope = make_envelope(args.title, echo, result)
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
