"""Scan single-edge hosts for their last nonzero codegree.

For a k-uniform edge on v vertices the characteristic polynomial is, up to a
power of x, (x^k - 1)^D with D = k^(k-2) * (k-1)^(v-k), so the codegree
sequence terminates at k * D = k^(k-1) * (k-1)^(v-k); this script confirms
the cutoff empirically.
"""

import argparse

from hypersachs.classical import threshold_search, threshold_single_edge
from hypersachs.hypergraph import MultiHypergraph


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--max-vertices", type=int, default=5)
    args = ap.parse_args()

    k = args.k
    for v in range(k, args.max_vertices + 1):
        host = MultiHypergraph.build(k, v, [tuple(range(1, k + 1))])
        predicted = threshold_single_edge(k, v)
        # search a bit past the prediction so an exact hit is certain
        threshold, witness, exact = threshold_search(host, predicted + k)
        mark = "ok" if threshold == predicted else "UNEXPECTED"
        print(f"v={v:<3d} predicted={predicted:<6d} threshold={threshold} c={witness} exact={exact}  [{mark}]")


if __name__ == "__main__":
    main()
