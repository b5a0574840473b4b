"""The walk expansion behind `trace_bruteforce` (traces._WalkExpansion).

The expansion evaluates the defining trace formula by star profiles and
shares no code with the package's class weights or enumerators.  The checks
below certify it against the test-side enumeration of every pointed closed
walk (`helpers.walk_enumeration_trace`) where that is affordable, and then
use it to certify class weights where walk enumeration is not.
"""

import random
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest

from catalog import (
    REFERENCE_VEBLEN,
    complete_kgraph,
    cycle_graph,
    fano_plane,
    path_graph,
    single_edge,
)
from helpers import (
    STAR_HOST,
    all_simple_3graphs,
    newton_coefficients,
    star_profiles_by_product,
    trail_walk_count,
    walk_enumeration_trace,
    walk_traces,
    walk_weight,
)
from hypersachs.classical import charpoly_graph
from hypersachs.hypergraph import MultiHypergraph, _compositions
from hypersachs.linalg import bareiss_det
from hypersachs.rooting import assoc_coeff_connected
from hypersachs.traces import _WalkExpansion, _det, trace_bruteforce
from hypersachs.veblen_enum import connected_infragraph_classes

F = Fraction


def test_matches_bruteforce_on_every_small_simple_3graph():
    cases = 0
    for n in (3, 4):
        for host in all_simple_3graphs(n):
            got = walk_traces(host, 4)
            for d in range(1, 5):
                want = walk_enumeration_trace(host, d)
                assert got[d - 1] == trace_bruteforce(host, d) == want, (host.edges, d)
                cases += 1
    assert cases == 72


def test_matches_bruteforce_on_star_host():
    want = [walk_enumeration_trace(STAR_HOST, d) for d in range(1, 5)]
    assert walk_traces(STAR_HOST, 4) == [trace_bruteforce(STAR_HOST, d) for d in range(1, 5)] == want


def test_matches_bruteforce_on_multi_hosts():
    # edge multiplicities enter each star term as m_e^(mu_e)
    hosts = [
        MultiHypergraph.build(3, 4, [((1, 2, 3), 2), (1, 2, 4)]),
        MultiHypergraph.build(3, 5, [((1, 2, 3), 2), ((1, 4, 5), 3), (2, 4, 5)]),
        MultiHypergraph.build(2, 3, [((1, 2), 2), (2, 3)]),
    ]
    for host in hosts:
        want = [walk_enumeration_trace(host, d) for d in range(1, 5)]
        assert any(want), host.edges
        assert [trace_bruteforce(host, d) for d in range(1, 5)] == want, host.edges


def test_ordinary_graphs_give_adjacency_charpoly():
    # at k = 2 each star is a single arc, so Tr_d counts closed walks
    for G in (cycle_graph(5), path_graph(4)):
        coeffs = newton_coefficients(walk_traces(G, G.n))
        assert coeffs == list(charpoly_graph(G)), G.edges


@pytest.mark.parametrize(
    "mult,expect", [(3, F(3, 8)), (6, F(3, 16)), (9, F(1, 8))]
)
def test_single_edge_weights(mult, expect):
    assert walk_weight(single_edge(3, mult=mult)) == expect


def test_certifies_every_catalogued_class_weight():
    classes = dict(REFERENCE_VEBLEN, plane=fano_plane())
    for name, G in sorted(classes.items()):
        assert walk_weight(G) == assoc_coeff_connected(G), name
    assert walk_weight(REFERENCE_VEBLEN["v9_4"]) == F(27, 64)


def test_certifies_fano_class_weights_at_depth():
    # every class the Fano plane realizes at orders 12, 15, 18 and 21 (7 + 11
    # + 19 + 29), on its own support.  The root-count walk under
    # `assoc_coeff_connected` is checked here against an expansion that
    # shares only the unbounded `_compositions` with it and checks balance
    # at its leaves (not `orientation_weight`, which enumerates the same
    # root counts)
    checked = 0
    for d in (21, 18, 15, 12):
        for record in connected_infragraph_classes(fano_plane(), d):
            G = record.representative
            assert assoc_coeff_connected(G) == walk_weight(G), (d, G.edges)
            checked += 1
    assert checked == 66


def test_best_count_matches_trail_walk():
    # every distinct balanced profile of K_4^(3), of the Fano plane and of
    # two disjoint edges to order 6: the walk under the quotas yields the
    # same (profile, den) multiset as the whole product of star splits, and
    # the closed walks W(c) that the expansion takes from one Laplacian minor,
    # W(c) prod_a c_a! = L t(c) prod_v (out(v) - 1)!, equal the reference
    # trail walk's count; the minor vanishes exactly on disconnected profiles
    checked = disconnected = 0
    for host in (complete_kgraph(3), fano_plane(), MultiHypergraph.build(3, 6, [(1, 2, 3), (4, 5, 6)])):
        expansion, k, seen = _WalkExpansion(host), host.k, set()
        for d in range(1, 7):
            for mu in _compositions(d, len(host.edges)):
                if (quota := expansion._quotas(mu)) is None:
                    continue
                rows = [v for v, q in quota.items() if q]
                walked = []
                for lap, den in expansion._profiles(mu, quota):
                    # the arcs v -> w are the negative off-diagonal entries
                    counts = {(rows[i], rows[j]): -x for i, row in enumerate(lap) for j, x in enumerate(row) if x < 0}
                    profile = tuple(sorted(counts.items()))
                    walked.append((profile, den))
                    if profile in seen:
                        continue
                    seen.add(profile)
                    tours = (k - 1) * d * prod(factorial((k - 1) * q - 1) for q in quota.values() if q)
                    best = F(tours * _det([row[1:] for row in lap[1:]]), prod(map(factorial, counts.values())))
                    assert best == trail_walk_count(counts), (host.edges, counts)
                    checked, disconnected = checked + 1, disconnected + (best == 0)
                want = [(tuple(sorted(c.items())), den) for c, den in star_profiles_by_product(host, mu, quota)]
                assert sorted(walked) == sorted(want), (host.edges, mu)
    assert (checked, disconnected) == (75, 1)


def test_laplacian_minor_without_row_swaps():
    # `_det` swaps no rows: a reduced out-degree Laplacian is an M-matrix, so
    # a zero leading minor means a zero determinant.  Random balanced
    # multidigraphs, unions of cycles inside one or two interleaved vertex
    # blocks (so often disconnected), against the package's pivoting Bareiss
    rng, zeros = random.Random(5), 0
    for _ in range(500):
        n, arcs = rng.randint(4, 8), {}
        blocks = [[v for v in range(n) if v % 2 == b] for b in (0, 1)] if rng.random() < 0.5 else [list(range(n))]
        for _ in range(rng.randint(1, 4)):
            block = rng.choice([b for b in blocks if len(b) > 1])
            cycle = rng.sample(block, rng.randint(2, len(block)))
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                arcs[v, w] = arcs.get((v, w), 0) + rng.randint(1, 3)
        out = {v: sum(c for (u, _), c in arcs.items() if u == v) for v in range(n)}
        rows = [v for v in range(n) if out[v]][1:]
        lap = [[out[v] if v == w else -arcs.get((v, w), 0) for w in rows] for v in rows]
        want = bareiss_det([row[:] for row in lap])
        assert _det(lap) == want, arcs
        zeros += want == 0
    assert zeros > 100  # 140 of the 500


def test_walk_expansion_peak_memory():
    # three tripled lines of the Fano plane at order 9, the multiset with the
    # most closed walks to count: one determinant per profile keeps no state
    # between profiles, so the peak stays in kilobytes
    expansion = _WalkExpansion(fano_plane())
    mu = (0, 0, 0, 0, 3, 3, 3)
    tracemalloc.start()
    try:
        expansion.edge_multiset_sum(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000  # bytes; 8.6 KB on CPython 3.11
