"""Check the CLI's float kernel against repr on a fresh random sample.

    python tools/repr_sample.py --seed 12345 --count 4000000

Draws ``--count`` random 64-bit patterns from numpy's default generator
seeded with ``--seed``, keeps the finite doubles among them, and compares
``qm1d._shortest.texts`` with ``repr`` of every one, a slice of 2^17 cells
at a time.  Prints one Markdown line with the seed, the number of doubles
checked and the result, and exits 1 at the first cell that differs (its bit
pattern, the kernel's text and repr's) or 0 when all are equal.  CI runs it
with a new seed every run, so the fixed sample of Tier-1 is not the only
evidence of exactness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from qm1d._shortest import texts  # noqa: E402

SLICE = 2**17


def first_difference(seed: int, count: int) -> tuple[int, str | None]:
    """(doubles checked, None) or, at the first cell that differs, (doubles
    checked up to it, a description of it)."""
    rng = np.random.default_rng(seed)
    checked = 0
    for lo in range(0, count, SLICE):
        x = rng.integers(0, 2**64, min(SLICE, count - lo), dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        got, want = texts(x), list(map(repr, x.tolist()))
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            bits = int(x[i:i + 1].view(np.uint64)[0])
            return checked + i + 1, f"bits {bits:#018x}: kernel {got[i]!r}, repr {want[i]!r}"
        checked += len(x)
    return checked, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=4_000_000)
    args = parser.parse_args(argv)
    checked, difference = first_difference(args.seed, args.count)
    result = "all equal to repr" if difference is None else f"DIFFERS at {difference}"
    print(f"Float kernel against repr, seed {args.seed}: {checked:,} finite doubles of "
          f"{args.count:,} random bit patterns, {result}")
    return 0 if difference is None else 1


if __name__ == "__main__":
    sys.exit(main())
