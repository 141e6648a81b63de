"""Dense linear algebra for small matrix orders.

All arrays in this package, matrices and the states marched from them
alike, follow one dtype rule, ``inexact``: float64 where every imaginary
part is exactly zero, complex128 otherwise. A complex dtype thus comes from
complex data, or from a spectral parameter lam != 0 in the generators; a
float sequence (spacings, nodes, cuts, knots, grids) takes one rule, ``floats``.
What a number in an input file is has one rule too, ``_json_number``: matrix entries
are read by ``matrices_from_json``, and every other number by ``number_from_json``.
A matrix sequence is one read-only (K, n, n) stack, validated by one ``as_stack``
call (after ``matrices_from_json`` for one read from JSON, which checks its form
only); a self-adjoint one by ``hermitian`` or ``real_symmetric``
(the one place that drops imaginary parts), which alone decide what that is:
within HERMITIAN_TOL, stored exactly Hermitian, each entry below the diagonal
the conjugate of its mirror and the diagonal real. The checks below act on
the trailing two axes of either dtype, so one rule serves a matrix and a stack.
The Frobenius norm, used everywhere, is self-adjoint (invariant under
conjugate transposition); every series criterion is stated in terms of it.
Where a term takes a log, exp, power or complex modulus, ``libm`` computes it
over an array with the bits of Python's per-entry op.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np

COND_LIMIT = 1e14
HERMITIAN_TOL = 1e-10
# a Frobenius norm below this may have lost digits to subnormal squares
_SQUARES_FLOOR = 2.0 ** -500


class SingularMatrixError(ValueError):
    """Matrix is numerically singular (condition estimate above COND_LIMIT)."""


class ShapeMismatchError(ValueError):
    """Operands have incompatible orders or lengths."""


class NonSymmetricError(ValueError):
    """A matrix that must be real symmetric or Hermitian is not (within HERMITIAN_TOL)."""


class FloatRangeError(ValueError):
    """A computed value leaves the float range."""


def inexact(m) -> np.ndarray:
    """m in C order as float64 when every imaginary part is exactly zero (ints and
    bools too; real data takes no complex copy), as complex128 otherwise.

    The one dtype rule of the package; real data comes back as it is when it
    is float64 in C order already.
    """
    m = np.asarray(m)
    cplx = m.dtype.kind == "c" and m.imag.any()
    return np.asarray(m if cplx else m.real, dtype=complex if cplx else float, order="C")


def floats(values) -> np.ndarray:
    """A new 1-D float64 array of the entries: a copy of a 1-D float64 array, else each entry
    by ``float``, with its errors. One ``struct`` pass packs a tuple or list (any other iterable
    is read into a tuple first), converting every entry but a string as ``float`` does; a pass
    that raises is redone entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        return np.array(values)
    values = values if isinstance(values, (tuple, list)) else tuple(values)
    out = np.empty(len(values))
    try:
        struct.pack_into(f"{len(values)}d", out, 0, *values)  # struct caches the format
    except struct.error:
        out = np.fromiter(map(float, values), float, len(values))
    return out


def first_nonfinite(a: np.ndarray) -> int | None:
    """The index along axis 0 of the first entry (a value, a row or a matrix) that holds a
    non-finite value, or None."""
    finite = np.isfinite(a)
    return None if finite.all() else int(finite.all(axis=tuple(range(1, a.ndim))).argmin())


_PYTHON_OPS = {np.log: math.log, np.exp: math.exp, np.absolute: abs}
# per op, inputs on which numpy 2.4's forward (SIMD) loops differ from the C library on AVX-512
_HARD_INPUTS = {
    (np.log,): ("0x1.cdaba4456ad42p-2", "0x1.8f9901269bb4cp-1", "0x1.ece5fe9e41a3ep-1"),
    (np.exp,): ("0x1.8aef40d3cdeacp+8", "-0x1.b4cc6633e8051p+8", "0x1.f1225ac37d4b8p+8"),
    (np.power, 1.5): ("0x1.30e2e724486bap+15", "0x1.6e14463b3f850p+640", "0x1.40b572b5424b0p+128"),
    (np.power, 2.5): ("0x1.32d2482e31624p+47", "0x1.44ed31c5bb4c8p-43", "0x1.1de3c0c51b73ap-372"),
    (np.power, 3.0): ("0x1.eacb81d6cef65p+208", "0x1.176c418779382p+129", "0x1.c056d477725d5p+313"),
    (np.absolute,): (("-0x1.4db6694938761p-1", "-0x1.28bcf544d4b8ep-3"),
                     ("0x1.6be5117f62314p+451", "-0x1.725d67ff8f1a0p+431"),
                     ("0x1.9eebb6ec55762p-2", "-0x1.7d270fe07d0aap-5")),
}


def libm(ufunc, x, *consts) -> np.ndarray:
    """``ufunc(x, *consts)`` of a 1-D array with the bits of Python's op on each entry: ``math.log``
    and ``math.exp`` for np.log and np.exp, ``v ** c`` for np.power with a constant c, ``abs`` for
    np.absolute; inf where Python's op overflows. A new float64 array.

    numpy's SIMD loops for these ufuncs round differently from the C library that Python calls,
    but they take forward strides only: on a negative stride numpy takes its scalar loop, which
    calls that library (log, exp, pow, hypot). So the ufunc runs on ``x[::-1]`` and its result is
    reversed back. numpy does not document that fallback, so the first use of each op in a
    process checks it on a fixed probe (``_reversed_is_exact``); an op that fails it maps
    Python's op over the entries.
    """
    x = np.asarray(x)
    return _reversed(ufunc, x, consts) if _reversed_is_exact(ufunc, consts) else _in_python(
        ufunc, x, consts)


def _reversed(ufunc, x: np.ndarray, consts: tuple) -> np.ndarray:
    """``libm``'s numpy pass: the ufunc on a view of x with a negative stride, reversed back."""
    rev = (x if x.strides[0] > 0 else np.array(x))[::-1]  # a copy has a forward stride
    with np.errstate(over="ignore", under="ignore"):
        return ufunc(rev, *consts)[::-1].copy()


def _in_python(ufunc, x: np.ndarray, consts: tuple) -> np.ndarray:
    """``libm``'s op of each entry of x by Python's op, inf where it raises OverflowError."""
    op = (lambda v, c=float(consts[0]): v ** c) if ufunc is np.power else _PYTHON_OPS[ufunc]

    def one(v):
        try:
            return op(v)
        except OverflowError:
            return math.inf
    return np.fromiter(map(one, x.tolist()), float, len(x))


@functools.cache
def _reversed_is_exact(ufunc, consts: tuple) -> bool:
    """True when ``libm``'s reversed pass gives Python's bits on a fixed probe, at sizes 1, 2,
    17 and all of it: the op's hard inputs, then 2048 spread over its domain by Weyl sequences
    (floats from subnormal to the largest, exponents past both ends of exp's range, complex
    numbers of either sign)."""
    weyl = lambda a: np.arange(2048) * a % 1.0  # equidistributed in [0, 1) for irrational a
    spread = lambda a, b: np.ldexp(1.0 + weyl(a), (-1074 + 2098 * weyl(b)).astype(int))
    hard = _HARD_INPUTS.get((ufunc, *consts), ())
    if ufunc is np.exp:
        x = np.concatenate([[float.fromhex(v) for v in hard], -746.0 + 1456.0 * weyl(2 ** 0.5)])
    elif ufunc is np.absolute:
        sign = lambda a: np.where(weyl(a) < 0.5, -1.0, 1.0)
        x = np.concatenate([[complex(float.fromhex(a), float.fromhex(b)) for a, b in hard],
                            sign(7 ** 0.5) * spread(2 ** 0.5, 3 ** 0.5)
                            + 1j * sign(11 ** 0.5) * spread(5 ** 0.5, 6 ** 0.5)])
    else:
        x = np.concatenate([[float.fromhex(v) for v in hard], spread(2 ** 0.5, 3 ** 0.5)])
    want = _in_python(ufunc, x, consts)
    return all(_reversed(ufunc, x[:k], consts).tobytes() == want[:k].tobytes()
               for k in (1, 2, 17, len(x)))


def as_stack(entries, n: int | None = None) -> np.ndarray:
    """Validate and freeze a matrix sequence as one read-only (K, n, n) array.

    Accepts anything ``np.array`` does; a sequence of scalars is a stack of
    1 x 1 matrices and an empty sequence a stack of K = 0 (of order n, or 1).
    Entries must be finite and every matrix square of one order, checked
    against ``n`` when given. The dtype follows the data by ``inexact``. The
    returned array is a copy.
    """
    try:
        m = np.array(entries)
    except ValueError as exc:
        raise ShapeMismatchError("matrices of one sequence must share one order") from exc
    m = inexact(m)  # C order: a strided source, such as a broadcast, is viewed as floats below
    if m.ndim == 1:
        m = m.reshape(-1, 1, 1) if len(m) or n is None else m.reshape(0, n, n)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape[1:]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    if n is not None and m.shape[1] != n:
        raise ShapeMismatchError(f"expected order {n}, got {m.shape[1]}")
    m.flags.writeable = False
    return m


def as_matrix(entries, n: int | None = None) -> np.ndarray:
    """as_stack of the one matrix ``entries`` (a scalar is 1 x 1), unstacked."""
    return as_stack(np.asarray(entries)[None], n)[0]


def frobenius_norm(m):
    """Self-adjoint matrix norm: (sum of squared entry moduli)**0.5.

    Acts on the trailing two axes: a float for one matrix, an array of
    norms for a stack. Entries whose squares leave the float range do not
    turn a representable norm into inf or 0.
    """
    m = inexact(m)
    with np.errstate(over="ignore"):
        a = np.abs(m)
        norm = np.sqrt(np.sum(a ** 2, axis=(-2, -1)))
        # squares past the float range read inf, and squares below its normal
        # range lose digits or read 0; for those matrices (zero ones aside)
        # hypot accumulates the moduli without squaring them
        redo = np.isinf(norm) | (norm < _SQUARES_FLOOR)
        if redo.any():
            redo &= a.max(axis=(-2, -1)) > 0.0
            if redo.any():
                safe = np.hypot.reduce(a.reshape(a.shape[:-2] + (-1,)), axis=-1)
                norm = np.where(redo, safe, norm)
    return float(norm) if norm.ndim == 0 else norm


def scalars(m: np.ndarray) -> np.ndarray | None:
    """The c_k of matrices c_k I (every 1 x 1 matrix is one), or None if one is not."""
    c, eye = m[..., 0, 0], np.eye(m.shape[-1], dtype=bool)
    scalar = len(eye) == 1 or ((m[..., eye] == c[..., None]).all() and not m[..., ~eye].any())
    return c if scalar else None


def condition(m):
    """2-norm condition estimate of a matrix, or of every matrix of a stack.

    The one condition rule: a matrix is invertible here when its estimate
    is at most COND_LIMIT. A stack of scalars c I (``scalars``) reads 1.0 for a
    finite nonzero c and inf otherwise, without an SVD: ``np.linalg.cond``'s values
    bar a complex c of modulus near overflow. Other stacks take ``np.linalg.cond``.
    """
    m = inexact(m)
    if (c := scalars(m)) is None:
        return np.linalg.cond(m)
    return np.where(np.isfinite(c) & (c != 0), 1.0, np.inf)[()]


def invert(m) -> np.ndarray:
    """Inverse of a matrix, or of every matrix of a stack, under the one condition rule.

    Raises SingularMatrixError when a condition estimate exceeds
    COND_LIMIT; otherwise one batched ``np.linalg.inv``, whose residual is
    of order eps times the condition estimate. A matrix whose imaginary parts
    are all zero has a real inverse.
    """
    m = inexact(m)
    cond = condition(m)
    if not np.all(cond <= COND_LIMIT):
        raise SingularMatrixError(f"condition estimate {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}")
    return np.linalg.inv(m)


def is_hermitian(m, tol: float = 0.0) -> bool:
    """True iff |m_ij - conj(m_ji)| <= tol for a matrix, or for every matrix of a stack."""
    m = inexact(m)
    with np.errstate(over="ignore"):  # a difference past the float range fails
        return bool(np.all(np.abs(m - np.swapaxes(m, -1, -2).conj()) <= tol))


def _exact_hermitian(m: np.ndarray, error: str, real: bool = False) -> np.ndarray:
    """as_stack's m checked Hermitian within HERMITIAN_TOL, then written in place as its exact
    Hermitian form; with ``real`` its real part, in a copy for complex m."""
    if not is_hermitian(m, HERMITIAN_TOL):
        raise NonSymmetricError(error)
    m.flags.writeable = True
    for i in range(m.shape[1]):  # copied, not computed: no sign of zero moves
        m[:, i, :i] = m[:, :i, i].conj()
        if m.dtype == complex:
            m.imag[:, i, i] = 0.0
    m = inexact(m.real if real else m)
    m.flags.writeable = False
    return m


def hermitian(entries, what: str, n: int | None = None) -> np.ndarray:
    """``as_stack(entries, n)`` checked Hermitian, in its exact Hermitian form (see above)."""
    return _exact_hermitian(as_stack(entries, n), f"{what} must be Hermitian")


def real_symmetric(entries, what: str, n: int | None = None) -> np.ndarray:
    """``as_stack(entries, n)`` checked real symmetric within HERMITIAN_TOL, exactly symmetric
    in read-only float64: the one place that drops imaginary parts (at most HERMITIAN_TOL)."""
    m, error = as_stack(entries, n), f"{what} must be real symmetric"
    if m.dtype == complex and not np.all(np.abs(m.imag) <= HERMITIAN_TOL):
        raise NonSymmetricError(error)
    return _exact_hermitian(m, error, real=True)


def matrix_to_json(m) -> list:
    """Nested arrays of [re, im] pairs; real matrices (by ``inexact``) collapse to plain numbers."""
    m = inexact(m)
    return (m if m.dtype == float else np.stack([m.real, m.imag], axis=-1)).tolist()


def _json_number(v) -> bool:
    """True for a JSON number: an int or a float, not a bool (an int to Python) nor a str."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_text(v) -> str:
    """A JSON value as an error message shows it: its text, or for a list or an object its kind."""
    return {list: "a list", dict: "an object"}.get(type(v)) or json.dumps(v)


def number_from_json(v, what: str, kind: type = float):
    """A number of an input file other than a matrix entry, by the rule of ``_json_number``: for
    ``kind`` float a float, for int an integer field (2 or 2.0 read 2, 2.9 is refused), for list
    a list of numbers as a new float64 array (``floats``). Any other value is a ValueError that
    names ``what``; a number past the range of int or float raises what ``int`` or ``float``
    raises."""
    if kind is list:
        if not isinstance(v, list):
            raise ValueError(f"{what} must be a list of numbers, not {_json_text(v)}")
        # the rule reads an entry's type alone, so one entry of each type stands for all
        if not all(map(_json_number, dict(zip(map(type, v), v)).values())):
            bad = next(e for e in v if not _json_number(e))
            raise ValueError(f"{what} must hold numbers only, not {_json_text(bad)}")
        return floats(v)
    if not _json_number(v):
        raise ValueError(f"{what} must be a number, not {_json_text(v)}")
    if kind is float:
        return float(v)
    if isinstance(v, float) and math.isfinite(v) and not v.is_integer():
        raise ValueError(f"{what} must be an integer, not {_json_text(v)}")
    return int(v)


def matrices_from_json(objs) -> list:
    """A JSON matrix sequence checked for its form alone, as nested values for the one check of
    the stack that owns them; a matrix whose pairs have no nonzero imaginary part reads as real.
    An entry is a number or an [re, im] pair of numbers, by one rule (``_json_number``)."""
    out = []
    for obj in objs:
        if not isinstance(obj, list) or not obj:
            raise ValueError("matrix JSON must be a non-empty list of rows")
        rows, imag = [], []  # imag: the imaginary parts of its pairs
        for row in obj:
            if not isinstance(row, list):
                raise ValueError("matrix JSON rows must be lists")
            rows.append(vals := [])
            for v in row:
                if _json_number(v):
                    vals.append(float(v))
                elif isinstance(v, list) and len(v) == 2 and all(map(_json_number, v)):
                    vals.append(complex(float(v[0]), float(v[1])))
                    imag.append(vals[-1].imag)
                else:
                    raise ValueError(f"bad matrix entry {v!r}")
        out.append([[v.real for v in r] for r in rows] if imag and not any(imag) else rows)
    return out
