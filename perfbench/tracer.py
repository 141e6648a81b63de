"""Span recorder applied to ``sldl`` from outside the package.

``Tracer.install`` replaces each listed public function with a timing
wrapper under every ``sldl`` module attribute bound to that same function
object (``expm`` also lives in ``sldl.criteria``, ``build_report`` and
``as_matrix`` are imported by name into several modules), and replaces the
``__post_init__`` of the listed classes. ``uninstall`` puts every original
back. Spans (name, start, end, parent, size, work) are kept in flat arrays
in memory and only turned into per-layer numbers, or written to disk, after
the traced pass.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np


def _cells(args, kwargs, result):
    """(size, work) of kernel_square_integrals: coefficient pieces in (a, b).

    The size feeds the scaling fit and is recorded for step and delta models
    only, whose quadrature runs one pass over those pieces; other variants
    refine the cells, so their piece count is not their cost.
    """
    model, a, b = args[:3]
    cuts = getattr(model, "nodes", None)
    exact = cuts is not None or type(model).__name__ == "StepSigma"
    if cuts is None:
        cuts = model.cuts
    pieces = bisect.bisect_left(cuts, b) - bisect.bisect_right(cuts, a) + 1
    return (float(pieces) if exact else math.nan), float(pieces)


def _blocks(args, kwargs, result):
    m = len(args[0]) if args else len(kwargs["d"])
    return float(m), float(len(result.A) + len(result.B))


def _steps(args, kwargs, result):
    count = args[3] if len(args) > 3 else kwargs["count"]
    return float(count), float(count)


def _pairs(args, kwargs, result):
    n_k = args[1] if len(args) > 1 else kwargs["n_k"]
    m_k = args[2] if len(args) > 2 else kwargs["m_k"]
    length = m_k - n_k + 1
    return float(length), float(length * (length + 1) // 2)


def _terms(args, kwargs, result):
    return math.nan, float(len(result.terms))


def _bytes(args, kwargs, result):
    return math.nan, float(len(result))


# (layer, function or Class.method, outermost call only, size/work extractor)
SPECS = (
    ("matcore", "as_matrix", False, None),
    ("matcore", "invert", False, None),
    ("matcore", "is_hermitian", False, None),
    ("quasidiff", "expm", False, None),
    ("quasidiff", "transfer", False, None),
    ("quasidiff", "propagate", False, None),
    ("quasidiff", "fundamental_pair", False, None),
    ("quasidiff", "DeltaNodes.__post_init__", False, None),
    ("criteria", "kernel_square_integrals", False, _cells),
    ("criteria", "t1_series", False, None),
    ("criteria", "cor2_series", False, None),
    ("jacobi", "blocks_from_delta", False, _blocks),
    ("jacobi", "JacobiBlocks.__post_init__", False, None),
    ("jacobi", "solve_recurrence", False, _steps),
    ("jacobi", "t4_term", False, _pairs),
    ("jacobi", "t7_check", False, None),
    ("jacobi", "cor3_check", False, None),
    ("jacobi", "carleman_report", False, None),
    ("reports", "build_report", False, _terms),
    ("bridge", "gallery", False, None),
    ("bridge", "classify_detailed", False, None),
    ("bridge", "equivalence_residual", False, None),
    ("cli", "canonical_json", True, _bytes),
    ("cli", "run", False, None),
)


def metric_name(layer: str, target: str) -> str:
    """``quasidiff.DeltaNodes.__post_init__`` is reported as ``quasidiff.DeltaNodes.init``."""
    return f"{layer}.{target.replace('.__post_init__', '.init')}"


FUNCTION_NAMES = tuple(metric_name(layer, target) for layer, target, _, _ in SPECS)


class Tracer:
    """Records one span per wrapped call; spans nest through an explicit stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(math.nan)
        self.work.append(0.0)
        self._stack.append(idx)
        self._active[nid] += 1
        return idx

    def _close(self, idx: int, nid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._active[nid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for op and setup spans)."""
        nid = self.name_id(name)
        idx = self._open(nid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, nid, t0, time.perf_counter())

    def _wrap(self, nid: int, fn, outermost: bool, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer._active[nid]:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid, t0, time.perf_counter())
            if measure is not None:
                tracer.size[idx], tracer.work[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sldl" or key.startswith("sldl."))]
        try:
            for layer, target, outermost, measure in SPECS:
                nid = self.name_id(metric_name(layer, target))
                module = importlib.import_module(f"sldl.{layer}")
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        self.missing.append(self.names[nid])
                        continue
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(nid, orig, outermost, measure))
                    continue
                orig = getattr(module, target, None)
                if orig is None:
                    self.missing.append(self.names[nid])
                    continue
                wrapper = self._wrap(nid, orig, outermost, measure)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        covered = np.zeros(len(name))
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - covered,
                "size": np.frombuffer(self.size, dtype=np.float64),
                "work": np.frombuffer(self.work, dtype=np.float64)}

    def write(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 start=a["start"], end=a["end"], size=a["size"], work=a["work"])


def size_exponent(sizes: np.ndarray, durations: np.ndarray) -> float:
    """Log-log slope of the fastest per-call time against size.

    The fastest call of each size is used because phases in which the host
    runs this CPU slower last seconds and would bend the fit. Only sizes
    within a factor 10 of the largest enter it, so fixed per-call overhead
    at tiny sizes does not flatten the asymptotic slope. Returns 0.0 when
    fewer than two distinct sizes qualify.
    """
    ok = np.isfinite(sizes) & (sizes > 0) & (durations > 0)
    sizes, durations = sizes[ok], durations[ok]
    if not len(sizes):
        return 0.0
    keep = sizes >= sizes.max() / 10.0
    points = sorted({float(s) for s in sizes[keep]})
    if len(points) < 2:
        return 0.0
    x = np.log(points)
    y = np.log([float(durations[sizes == s].min()) for s in points])
    return float(np.polyfit(x, y, 1)[0])
