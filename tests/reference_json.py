"""Item-at-a-time references for sldl's JSON writer and its matrix reader.

``canonical_json`` is the encoder before float runs were formatted in one
``%`` operation: one ``format(x, ".17g")`` call per float, ``json.dumps``
per string and key. The tests require ``sldl.cli.canonical_json`` to give
the same text on every document.

``stack_from_json`` is the matrix-at-a-time reader of a JSON matrix
sequence: each matrix parsed and checked alone as a 1 x n x n stack
(``matrix_from_json`` and ``as_matrix``), then the checked matrices
stacked. The tests require ``as_stack(matrices_from_json(objs), n)`` to
give the same stack, or the same error, save for the two cases in which
a whole sequence is checked at once: matrices of different shapes, and a
sequence with faults in two matrices. An entry is a number or an [re, im] pair
of numbers; a number is an int or a float, never a bool or a str.
"""

import json
import math

import numpy as np

from sldl.matcore import as_stack


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def canonical_json(obj) -> str:
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


def as_matrix(entries, n: int | None = None) -> np.ndarray:
    return as_stack(np.asarray(entries)[None], n)[0]


def _number(v) -> bool:
    return type(v) in (int, float)


def matrix_from_json(obj, n: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise ValueError("matrix JSON rows must be lists")
        vals = []
        for v in row:
            if _number(v):
                vals.append(complex(v))
            elif isinstance(v, list) and len(v) == 2 and _number(v[0]) and _number(v[1]):
                vals.append(complex(float(v[0]), float(v[1])))
            else:
                raise ValueError(f"bad matrix entry {v!r}")
        rows.append(vals)
    return as_matrix(rows, n)


def stack_from_json(objs, n: int | None = None) -> np.ndarray:
    return as_stack([matrix_from_json(obj, n) for obj in objs], n)
