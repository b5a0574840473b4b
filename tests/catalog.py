"""Reference hypergraphs used by the tests.

The v{d}_{i} instances are connected Veblen 3-graphs with d edges, indexed
within each edge count; their associated coefficients are pinned in the test
suite.
"""

from __future__ import annotations

from itertools import combinations

from hypersachs.hypergraph import MultiHypergraph


def single_edge(k: int = 3, mult: int = 1, n: int | None = None) -> MultiHypergraph:
    """One edge on vertices 1..k with the given multiplicity; n defaults to k."""
    if n is None:
        n = k
    return MultiHypergraph.build(k, n, [(tuple(range(1, k + 1)), mult)])


def complete_kgraph(k: int) -> MultiHypergraph:
    """The simplex: all k-subsets of [k+1]."""
    return MultiHypergraph.build(
        k, k + 1, combinations(range(1, k + 2), k)
    )


FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 5, 6), (3, 5, 7), (2, 4, 7), (3, 4, 6))


def fano_plane() -> MultiHypergraph:
    return MultiHypergraph.build(3, 7, FANO_LINES)


def fano_minus_one() -> MultiHypergraph:
    """Fano plane with one line, (3, 4, 6), removed."""
    return MultiHypergraph.build(3, 7, FANO_LINES[:6])


def fano_minus_two() -> MultiHypergraph:
    """Fano plane without (2, 4, 7) and (3, 4, 6): a linear 5-edge 3-graph."""
    return MultiHypergraph.build(3, 7, FANO_LINES[:5])


def unsplittable_veblen() -> MultiHypergraph:
    """Nine-edge connected Veblen 3-graph whose only edge partition into
    Veblen parts is the trivial one: three tetrahedra missing their common
    base triangle {1,2,3}, with apexes 4, 5, 6."""
    edges = []
    for apex in (4, 5, 6):
        for pair in combinations((1, 2, 3), 2):
            edges.append(pair + (apex,))
    return MultiHypergraph.build(3, 6, edges)


def cycle_graph(m: int) -> MultiHypergraph:
    """Simple cycle C_m (k=2)."""
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return MultiHypergraph.build(2, m, edges)


def path_graph(m: int) -> MultiHypergraph:
    """Simple path on m vertices (k=2)."""
    return MultiHypergraph.build(2, m, [(i, i + 1) for i in range(1, m)])


def _v(edge_mults) -> MultiHypergraph:
    n = max(v for e, _ in edge_mults for v in e)
    return MultiHypergraph.build(3, n, edge_mults)


# Connected Veblen 3-graphs with pinned associated coefficients.  v6_6 and
# v6_7 carry edge lists recovered by enumeration: each is the unique 6-edge
# class whose coefficient matches the pinned value.
REFERENCE_VEBLEN: dict[str, MultiHypergraph] = {
    "v5_1": _v([((1, 2, 3), 1), ((1, 2, 5), 1), ((1, 4, 5), 1), ((2, 3, 4), 1), ((3, 4, 5), 1)]),
    "v5_2": _v([((1, 2, 3), 1), ((1, 4, 5), 2), ((2, 3, 4), 1), ((2, 3, 5), 1)]),
    "v6_1": _v([((1, 2, 3), 3), ((1, 2, 4), 3)]),
    "v6_2": _v([((1, 2, 3), 3), ((1, 4, 5), 3)]),
    "v6_3": _v([((1, 2, 3), 2), ((1, 2, 4), 1), ((1, 3, 5), 1), ((1, 4, 5), 2)]),
    "v6_4": _v([((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 2, 5), 1), ((1, 3, 4), 1), ((1, 3, 5), 1), ((1, 4, 5), 1)]),
    "v6_5": _v([((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 5, 6), 1), ((2, 5, 6), 1), ((3, 4, 5), 1), ((3, 4, 6), 1)]),
    "v6_6": _v([((1, 2, 3), 2), ((1, 4, 5), 1), ((2, 4, 6), 1), ((3, 5, 6), 1), ((4, 5, 6), 1)]),
    "v6_7": _v([((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 3, 5), 1), ((2, 5, 6), 1), ((3, 4, 6), 1), ((4, 5, 6), 1)]),
    "v6_8": _v([((1, 2, 3), 2), ((1, 2, 4), 1), ((3, 5, 6), 1), ((4, 5, 6), 2)]),
    "v6_9": _v([((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 3, 4), 1), ((2, 5, 6), 1), ((3, 5, 6), 1), ((4, 5, 6), 1)]),
    "v6_10": _v([((1, 2, 3), 1), ((1, 2, 4), 1), ((1, 3, 5), 1), ((2, 4, 6), 1), ((3, 5, 6), 1), ((4, 5, 6), 1)]),
    "v9_2": _v([((1, 2, 3), 6), ((1, 4, 5), 3)]),
    "v9_3": _v([((1, 2, 3), 3), ((1, 4, 5), 3), ((2, 4, 6), 3)]),
    "v9_4": _v([((1, 2, 3), 3), ((1, 4, 5), 3), ((1, 6, 7), 3)]),
    "v12_1": _v([((1, 2, 3), 9), ((1, 4, 5), 3)]),
    "v12_2": _v([((1, 2, 3), 6), ((1, 4, 5), 6)]),
    "v12_3": _v([((1, 2, 3), 6), ((1, 4, 5), 3), ((1, 6, 7), 3)]),
    "v12_4": _v([((1, 2, 3), 6), ((1, 4, 5), 3), ((2, 4, 6), 3)]),
    "v12_5": _v([((1, 2, 3), 3), ((1, 4, 5), 3), ((1, 6, 7), 3), ((2, 4, 6), 3)]),
    "v12_6": _v([((1, 2, 3), 3), ((1, 4, 5), 3), ((2, 4, 6), 3), ((3, 5, 6), 3)]),
}
