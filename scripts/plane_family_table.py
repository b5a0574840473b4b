"""Print the codegree coefficient table for the three plane-family hosts.

Columns are the 5-, 6-, and 7-line hosts; rows are codegrees 0..dmax.
Each column is timed separately since cost grows steeply with dmax.
"""

import argparse
import time

from hypersachs.hypergraph import MultiHypergraph
from hypersachs.traces import codegree_coefficients

# the Fano plane; its first 5 and 6 lines give the smaller hosts
PLANE_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 5, 6), (3, 5, 7), (2, 4, 7), (3, 4, 6))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-codegree", type=int, default=12)
    args = ap.parse_args()

    hosts = [(f"{lines}-line", MultiHypergraph.build(3, 7, PLANE_LINES[:lines])) for lines in (5, 6, 7)]
    columns = []
    for label, host in hosts:
        t0 = time.monotonic()
        coefficients, _ = codegree_coefficients(host, args.max_codegree)
        columns.append((label, coefficients, time.monotonic() - t0))

    width = max(len(str(c)) for _, cs, _ in columns for c in cs) + 2
    header = "d".rjust(4) + "".join(lb.rjust(width) for lb, _, _ in columns)
    print(header)
    for d in range(args.max_codegree + 1):
        row = str(d).rjust(4)
        for _, coefficients, _ in columns:
            row += str(coefficients[d]).rjust(width)
        print(row)
    for label, _, dt in columns:
        print(f"# {label}: {dt:.2f}s")


if __name__ == "__main__":
    main()
