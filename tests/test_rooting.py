"""Associated coefficients via rootings: pinned values and invariants.

The reference values were cross-checked against independent routes
(trail counting at k=2, the simplex recurrence, and the walk-expansion
oracle in helpers.py), so they serve as the anchor set for everything
downstream.
"""

from fractions import Fraction

import pytest

from helpers import disjoint_union, graph2
from hypersachs.catalog import (
    REFERENCE_VEBLEN,
    complete_kgraph,
    cycle_graph,
    fano_plane,
    single_edge,
)
from hypersachs.digraph import is_eulerian
from hypersachs import rooting
from hypersachs.errors import ConsistencyFailure, NotConnected, NotVeblen
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.rooting import assoc_coeff, assoc_coeff_connected, euler_orientations

F = Fraction

PINNED = {
    "v5_1": F(51, 16),
    "v5_2": F(27, 16),
    "v6_1": F(9, 8),
    "v6_2": F(9, 32),
    "v6_3": F(99, 32),
    "v6_4": F(213, 16),
    "v6_5": F(69, 16),
    "v6_6": F(63, 32),
    "v6_7": F(129, 32),
    "v6_8": F(27, 32),
    "v6_9": F(63, 16),
    "v6_10": F(117, 32),
    "v9_2": F(9, 32),
    "v9_3": F(9, 8),
    "v9_4": F(27, 64),
    "v12_1": F(9, 32),
    "v12_2": F(27, 64),
    "v12_3": F(81, 128),
    "v12_4": F(63, 32),
    "v12_5": F(459, 64),
    "v12_6": F(255, 16),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reference_coefficients(name):
    assert assoc_coeff_connected(REFERENCE_VEBLEN[name]) == PINNED[name]


@pytest.mark.parametrize(
    "H,expect",
    [
        (single_edge(3, mult=3), F(3, 8)),
        (single_edge(3, mult=6), F(3, 16)),
        (single_edge(3, mult=9), F(1, 8)),
        (complete_kgraph(3), F(21, 8)),
        (fano_plane(), F(87, 16)),
        (graph2(2, [((1, 2), 2)]), F(1)),
        (cycle_graph(3), F(2)),
        (cycle_graph(5), F(2)),
    ],
)
def test_coefficient_anchors(H, expect):
    assert assoc_coeff_connected(H) == expect
    assert assoc_coeff(H) == expect


def test_doubled_fano_coefficient():
    doubled = MultiHypergraph.build(
        3, 7, [(e, 2 * m) for e, m in fano_plane().edges]
    )
    assert assoc_coeff_connected(doubled) == F(30501, 32)


def test_multiplicative_over_components():
    e3 = single_edge(3, mult=3)
    assert assoc_coeff(disjoint_union(e3, e3)) == F(3, 8) ** 2
    mixed = disjoint_union(REFERENCE_VEBLEN["v5_1"], e3)
    assert assoc_coeff(mixed) == F(51, 16) * F(3, 8)
    assert assoc_coeff(MultiHypergraph.build(3, 4)) == 1


def test_connected_variant_rejects_disconnected():
    e3 = single_edge(3, mult=3)
    with pytest.raises(NotConnected):
        assoc_coeff_connected(disjoint_union(e3, e3))


def test_rejects_non_veblen():
    with pytest.raises(NotVeblen):
        assoc_coeff(single_edge(3, mult=2))
    with pytest.raises(NotVeblen):
        assoc_coeff_connected(graph2(3, [(1, 2), (2, 3)]))


def test_orientations_of_tripled_edge():
    orients = euler_orientations(single_edge(3, mult=3))
    assert len(orients) == 1
    o = orients[0]
    assert o.multiplicity == 1
    assert dict(o.root_counts) == {1: 1, 2: 1, 3: 1}
    assert is_eulerian(o.digraph)
    assert o.digraph.arc_count == 6


def test_orientation_invariants_on_simplex():
    H = complete_kgraph(3)
    orients = euler_orientations(H)
    assert len(orients) == 9
    seen = set()
    for o in orients:
        assert o.multiplicity >= 1
        assert is_eulerian(o.digraph)
        # every vertex roots deg/k copies, each contributing k-1 out-arcs
        assert sum(c for _, c in o.root_counts) == H.edge_count
        outs = o.digraph.out_degrees()
        for v, c in o.root_counts:
            assert outs[v] == (H.k - 1) * c
        arcs = tuple(sorted(o.digraph.arcs))
        assert arcs not in seen
        seen.add(arcs)


def test_pinned_values_positive():
    assert all(v > 0 for v in PINNED.values())


def test_non_eulerian_star_union_raises(monkeypatch):
    # a package error, not an assert, so the check survives python -O
    monkeypatch.setattr(rooting, "is_eulerian", lambda D: False)
    with pytest.raises(ConsistencyFailure):
        euler_orientations(complete_kgraph(3))
