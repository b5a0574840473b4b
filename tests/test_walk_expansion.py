"""The walk expansion behind `trace_bruteforce` (traces._WalkExpansion).

The expansion evaluates the defining trace formula by star profiles and
shares no code with the package's class weights or enumerators.  The checks
below certify it against the test-side enumeration of every pointed closed
walk (`helpers.walk_enumeration_trace`) where that is affordable, and then
use it to certify class weights where walk enumeration is not.
"""

import tracemalloc
from fractions import Fraction

import pytest

from helpers import (
    STAR_HOST,
    all_simple_3graphs,
    newton_coefficients,
    walk_enumeration_trace,
    walk_traces,
    walk_weight,
)
from hypersachs.catalog import (
    REFERENCE_VEBLEN,
    cycle_graph,
    fano_plane,
    path_graph,
    single_edge,
)
from hypersachs.classical import charpoly_graph
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.rooting import assoc_coeff_connected
from hypersachs.traces import _WalkExpansion, trace_bruteforce
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
    # the Fano plane's classes of orders 12..21 lie past trace_bruteforce's
    # reach on the plane, but those on few support edges stay cheap on their
    # own support: at most 3 lines to order 15, at most 2 beyond.  The root-
    # count walk under `assoc_coeff_connected` is checked here against an
    # expansion that shares only the unbounded `_compositions` with it (not
    # `orientation_weight`, which enumerates the same root counts)
    checked = 0
    for d, most in [(21, 2), (18, 2), (15, 3), (12, 3)]:
        for record in connected_infragraph_classes(fano_plane(), d):
            G = record.representative
            if len(G.edges) <= most:
                assert assoc_coeff_connected(G) == walk_weight(G), (d, G.edges)
                checked += 1
    assert checked == 20


def test_trail_memo_bytes_per_state():
    # three tripled lines of the Fano plane: the order-9 edge multiset with
    # the most trail states (6539).  A state keyed by one packed integer
    # costs a dict slot, the key and the count, about 100 bytes in all; a
    # key holding a tuple of the 42 arc counts cost about 460.
    expansion = _WalkExpansion(fano_plane())
    mu = (0, 0, 0, 0, 3, 3, 3)
    tracemalloc.start()
    try:
        expansion.edge_multiset_sum(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expansion.trail_states == 6539
    assert peak / expansion.trail_states < 200
