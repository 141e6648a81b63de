"""Item-at-a-time reference for ``sldl.cli.canonical_json``.

This is the encoder before float runs were formatted in one ``%``
operation: one ``format(x, ".17g")`` call per float, ``json.dumps`` per
string and key. The tests require ``canonical_json`` to give the same
text on every document.
"""

import json
import math

import numpy as np


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
