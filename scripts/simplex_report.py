"""Report the complete-host class constants C_k over a range of arities.

Prints each C_k with its digit count and the normalized ratio against the
leading-order growth estimate; optionally dumps the per-cycle-type
contribution table for a single arity.
"""

import argparse

from hypersachs.formats import rational_str
from hypersachs.simplex import simplex_Ck


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-k", type=int, default=2)
    ap.add_argument("--max-k", type=int, default=12)
    ap.add_argument("--detail", type=int, default=None,
                    help="also print per-partition contributions for this k")
    args = ap.parse_args()

    for k in range(args.min_k, args.max_k + 1):
        rep = simplex_Ck(k)
        text = rational_str(rep.C_k)
        print(f"k={k:<4d} C_k = {text}  ({len(text)} digits, "
              f"ratio {rep.asymptotic_ratio})")

    if args.detail is not None:
        rep = simplex_Ck(args.detail)
        print(f"\ncontributions for k={args.detail}:")
        if rep.contributions is None:
            print("  (suppressed: too many cycle types)")
            return
        for part, value in rep.contributions:
            print(f"  {part.parts}: {value}")


if __name__ == "__main__":
    main()
