"""Regenerate exact_p2q4.json, the error-band reference of the benchmark.

For every scan cell (n, d) with 2 <= n <= 13 and 1 <= d <= 40 it stores
log(||Y_d||_4 / ||Y_d||_2) on S^n, computed from the exact-rational power
integrals of tests/oracles.py and a 50-digit logarithm.  count1_check reports
the same quantity as the lhs of its p=2, q=4 verdict, so the benchmark can
assert |lhs - exact| <= numeric_error without paying ~30 ms per cell for the
exact sums in every run.

Run from the repository root (about 12 s on one core):

    python3 benchmarks/make_exact.py
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).with_name("exact_p2q4.json")

N_RANGE = range(2, 14)
D_RANGE = range(1, 41)


def _ln(x: Fraction) -> Decimal:
    return Decimal(x.numerator).ln() - Decimal(x.denominator).ln()


def main() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import sphere_power_integral_exact

    exact = {}
    with localcontext() as ctx:
        ctx.prec = 50
        for n in N_RANGE:
            lam = Fraction(n - 1, 2)
            for d in D_RANGE:
                i2 = sphere_power_integral_exact(lam, d, 2)
                i4 = sphere_power_integral_exact(lam, d, 4)
                exact[f"{n},{d}"] = float(_ln(i4) / 4 - _ln(i2) / 2)
    OUT.write_text(json.dumps(exact, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(exact)} cells to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
