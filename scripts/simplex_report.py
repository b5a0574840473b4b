"""Report the complete-host class constants C_k over a range of arities.

Prints each C_k with its digit count and the normalized ratio against the
leading-order growth estimate.
"""

import argparse

from hypersachs.formats import rational_str
from hypersachs.simplex import asymptotic_ratio, simplex_Ck


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-k", type=int, default=2)
    ap.add_argument("--max-k", type=int, default=12)
    args = ap.parse_args()

    for k in range(args.min_k, args.max_k + 1):
        C_k = simplex_Ck(k)
        text = rational_str(C_k)
        print(f"k={k:<4d} C_k = {text}  ({len(text)} digits, "
              f"ratio {asymptotic_ratio(k, C_k)})")


if __name__ == "__main__":
    main()
