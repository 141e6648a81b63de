#!/usr/bin/env python3
"""Sweep power-law lattices d_k = k**-p with cancelling and with zero jumps.

For each exponent p the cancelling jumps are H_k = -(1/d_k + 1/d_{k+1}) I,
the choice that zeroes the diagonal blocks. The sweep shows where each
certificate flips: the block-norm series diverges for p <= 1/2
(determinate case), while the paired product checks certify the completely
indeterminate case once the spacings are summable enough. The zero-jump
rows are the free operator on [0, sum d_k), whose answer is elementary:
limit point where the spacings sum to infinity (p <= 1), limit circle
where they do not (a regular end). Each row also prints what ``classify``
gives on the lattice's blocks and, where it is known, the truth: the zero
rows as above, and for cancelling jumps limit point where sum d_k^2
diverges (p <= 1/2, Kostenko and Malamud, J. Differential Equations 249
(2010)) and limit circle at p = 1 (the christ-stolz family).

Usage: python scripts/spacing_sweep.py [N]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sldl import ClassifyConfig, blocks_from_delta, carleman_report, classify, cor3_check, t7_check
from sldl.jacobi import cancel_jumps


def truth(p: float, jumps: str) -> str:
    """The known classification of a row, or "-" where none is known."""
    if jumps == "zero":
        return "LimitPoint" if p <= 1.0 else "LimitCircle"
    if p <= 0.5:
        return "LimitPoint"
    return "LimitCircle" if p == 1.0 else "-"


def main() -> None:
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    count = 2 * N + 2
    print(f"{'p':>5s} {'jumps':>7s} {'carleman':>16s} {'t7':>14s} {'cor3':>14s} "
          f"{'classify':>14s} {'truth':>12s}")
    for jumps in ("cancel", "zero"):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
            d = tuple(float(k) ** -p for k in range(1, count + 1))
            H = cancel_jumps(d) if jumps == "cancel" else np.zeros((count - 1, 1, 1))
            blocks = blocks_from_delta(d, H)
            car = carleman_report(blocks, N)
            t7 = t7_check(d, H, N)
            c3 = cor3_check(d, H, N)
            verdict = classify(blocks, ClassifyConfig(N=N)).classification
            print(f"{p:5.2f} {jumps:>7s} {car.verdict:>16s} "
                  f"{'certified' if t7.limit_circle_certified else 'refused':>14s} "
                  f"{'certified' if c3.limit_circle_certified else 'refused':>14s} "
                  f"{verdict:>14s} {truth(p, jumps):>12s}")


if __name__ == "__main__":
    main()
