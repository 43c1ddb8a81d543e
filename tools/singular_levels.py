"""Time ``singular_vectors`` level by level over C[b]/(b^2).

For each of three highest-weight functionals on the two coefficient keys of
C[b]/(b^2) (the quotient by b^2 at the point 0) and each level 0..max, this
builds a fresh truncated Verma module, computes the singular slice at that
level once, and prints one JSON line:

    {"functional": ..., "level": n, "level_dim": ..., "slice_dim": ..., "seconds": ...}

The functionals, numbering the (key, slot) pairs n = 1, 2, ... in the order
key 1, key b, and slots d0, I0, C, C_D, C_I within a key:

* generic: value n/2 on the n-th pair (criterion 2's functional);
* gaussian: d0 gets n/2 + i/(n+1), every other slot n/3;
* degenerate: as generic, with I0, C_D and C_I zero.

Run from the repository root, with the standard library only:

    python3 tools/singular_levels.py --max-level 6
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hvkit.algebra import QuotientCoefficients  # noqa: E402
from hvkit.analysis import singular_vectors  # noqa: E402
from hvkit.modules import HighestWeightFunctional, TruncatedVerma  # noqa: E402
from hvkit.polys import JetQuotient  # noqa: E402
from hvkit.scalars import ZERO, Scalar  # noqa: E402

SLOTS = ("d0", "I0", "C", "C_D", "C_I")


def _value(kind: str, slot: str, n: int):
    if kind == "gaussian":
        return Scalar(Fraction(n, 2), Fraction(1, n + 1)) if slot == "d0" else Scalar(Fraction(n, 3))
    if kind == "degenerate" and slot in ("I0", "C_D", "C_I"):
        return ZERO
    return Scalar(Fraction(n, 2))


def functional(kind: str, coeffs: QuotientCoefficients) -> HighestWeightFunctional:
    values = {}
    n = 1
    for key in coeffs.basis_keys():
        for slot in SLOTS:
            values[(slot, key)] = _value(kind, slot, n)
            n += 1
    return HighestWeightFunctional(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-level", type=int, default=6, help="highest level to time (default 6)")
    args = parser.parse_args(argv)
    if args.max_level < 0:
        parser.error("--max-level must be >= 0")
    coeffs = QuotientCoefficients((JetQuotient((ZERO,), 2),))
    for kind in ("generic", "gaussian", "degenerate"):
        for level in range(args.max_level + 1):
            module = TruncatedVerma(functional(kind, coeffs), coeffs, max_level=max(level, 1))
            t0 = time.perf_counter()
            vectors = singular_vectors(module, level)
            seconds = time.perf_counter() - t0
            record = {
                "functional": kind,
                "level": level,
                "level_dim": module.level_dimension(level),
                "slice_dim": len(vectors),
                "seconds": round(seconds, 4),
            }
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
