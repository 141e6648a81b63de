#!/usr/bin/env python3
"""Sweep power-law lattices d_k = k**-p with cancelling jumps.

For each exponent p the jumps are H_k = -(1/d_k + 1/d_{k+1}) I, the choice
that zeroes the diagonal blocks. The sweep shows where each certificate
flips: the block-norm series diverges for p <= 1/2 (determinate case),
while the paired product checks certify the completely indeterminate case
once the spacings are summable enough.

Usage: python scripts/spacing_sweep.py [N]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sldl import blocks_from_delta, carleman_report, cor3_check, t7_check
from sldl.jacobi import cancel_jumps


def main() -> None:
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    count = 2 * N + 2
    print(f"{'p':>5s} {'carleman':>16s} {'t7':>14s} {'cor3':>14s}")
    for p in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        d = tuple(float(k) ** -p for k in range(1, count + 1))
        H = cancel_jumps(d)
        blocks = blocks_from_delta(d, H)
        car = carleman_report(blocks, N)
        t7 = t7_check(d, H, N)
        c3 = cor3_check(d, H, N)
        print(f"{p:5.2f} {car.verdict:>16s} "
              f"{'certified' if t7.limit_circle_certified else 'refused':>14s} "
              f"{'certified' if c3.limit_circle_certified else 'refused':>14s}")


if __name__ == "__main__":
    main()
