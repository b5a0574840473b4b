"""Scan alternating partition sums across ordinary-graph Veblen classes.

For each connected class with at most --max-edges edges, prints the
alternating sum over its partitions into connected Veblen parts.  The value
is 1 on the doubled edge, 2 on simple cycles, and 0 everywhere else; the
scan makes that trichotomy visible and flags any exception.
"""

import argparse
from collections import Counter

from hypersachs.classical import partition_sum_check
from hypersachs.veblen_enum import enumerate_connected_veblen


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-edges", type=int, default=8)
    args = ap.parse_args()

    tally: Counter = Counter()
    exceptions = []
    enumerate_connected_veblen(2, args.max_edges)  # one free tree fills every smaller order
    for d in range(2, args.max_edges + 1):
        for rec in enumerate_connected_veblen(2, d):
            G = rec.representative
            value = partition_sum_check(G)
            tally[value] += 1
            simple_cycle = G.is_simple and all(
                x == 2 for x in G.degrees().values() if x
            )
            doubled_edge = d == 2
            expected = 2 if simple_cycle else (1 if doubled_edge else 0)
            flag = "" if value == expected else "  <-- UNEXPECTED"
            if flag:
                exceptions.append(G.edges)
            print(f"d={d} {G.edges}: sum={value}{flag}")
    print(f"\ntotals by value: {dict(sorted(tally.items()))}")
    print("exceptions:", exceptions if exceptions else "none")


if __name__ == "__main__":
    main()
