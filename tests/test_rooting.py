"""Associated coefficients via rootings: pinned values and invariants.

The reference values were cross-checked against independent routes
(trail counting at k=2, the simplex closed form, and the walk-expansion
oracle in helpers.py), so they serve as the anchor set for everything
downstream.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from catalog import (
    REFERENCE_VEBLEN,
    complete_kgraph,
    cycle_graph,
    fano_plane,
    single_edge,
)
from helpers import disjoint_union, graph2, orientation_weight
from hypersachs.digraph import is_eulerian
from hypersachs import rooting
from hypersachs.errors import ConsistencyFailure, NormalizationFailure, NotConnected, NotVeblen
from hypersachs.hypergraph import MultiHypergraph, is_connected, is_veblen
from hypersachs.rooting import assoc_coeff, assoc_coeff_connected, euler_orientations
from hypersachs.simplex import simplex_Ck
from hypersachs.veblen_enum import enumerate_connected_veblen

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


def doubled_fano():
    return MultiHypergraph.build(3, 7, [(e, 2 * m) for e, m in fano_plane().edges])


def test_doubled_fano_coefficient():
    assert assoc_coeff_connected(doubled_fano()) == F(30501, 32)


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
    D, multiplicity = orients[0]
    assert multiplicity == 1
    # each vertex roots one of the three edge copies, so it has 2 out-arcs
    assert D.out_degrees() == {1: 2, 2: 2, 3: 2}
    assert is_eulerian(D)
    assert sum(m for _, m in D.arcs) == 6


def test_orientation_invariants_on_simplex():
    H = complete_kgraph(3)
    orients = euler_orientations(H)
    assert len(orients) == 9
    # every vertex roots deg/k copies, each contributing k-1 out-arcs
    root_counts = {v: d // H.k for v, d in H.degrees().items() if d}
    assert sum(root_counts.values()) == H.edge_count
    seen = set()
    for D, multiplicity in orients:
        assert multiplicity >= 1
        assert is_eulerian(D)
        outs = D.out_degrees()
        for v, c in root_counts.items():
            assert outs[v] == (H.k - 1) * c
        arcs = tuple(sorted(D.arcs))
        assert arcs not in seen
        seen.add(arcs)


def test_pinned_values_positive():
    assert all(v > 0 for v in PINNED.values())


def test_non_eulerian_star_union_raises(monkeypatch):
    # a package error, not an assert, so the check survives python -O
    monkeypatch.setattr(rooting, "is_eulerian", lambda D: False)
    with pytest.raises(ConsistencyFailure):
        euler_orientations(complete_kgraph(3))


@pytest.mark.parametrize("k,max_d", [(3, 6), (4, 5), (2, 6)])
def test_weight_matches_orientation_oracle_on_free_classes(k, max_d):
    for d in range(1, max_d + 1):
        for record in enumerate_connected_veblen(k, d):
            G = record.representative
            assert assoc_coeff_connected(G) == orientation_weight(G)


@pytest.mark.parametrize("H", [complete_kgraph(k) for k in range(3, 7)] + [doubled_fano()])
def test_weight_matches_orientation_oracle_on_simplices_and_doubled_fano(H):
    assert assoc_coeff_connected(H) == orientation_weight(H)


@st.composite
def connected_veblen_3graphs(draw):
    """A connected Veblen sub-multigraph of a random multi 3-graph on at
    most 6 vertices with at most 6 distinct edges, preferring those with
    more than one distinct edge."""
    n = draw(st.integers(4, 6))
    triples = list(combinations(range(1, n + 1), 3))
    edges = draw(st.lists(st.sampled_from(triples), min_size=2, max_size=6, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    candidates = []
    for sub in product(*(range(m + 1) for m in mults)):
        G = MultiHypergraph.build(3, n, [(e, c) for e, c in zip(edges, sub) if c])
        if G.edges and is_veblen(G) and is_connected(G):
            candidates.append(G)
    rich = [G for G in candidates if len(G.edges) > 1]
    return draw(st.sampled_from(rich or candidates or [single_edge(3, mult=3)]))


@settings(max_examples=60, deadline=None)
@given(connected_veblen_3graphs())
def test_weight_matches_orientation_oracle_on_random_3graphs(G):
    assert assoc_coeff_connected(G) == orientation_weight(G)


def test_weight_never_lists_orientations(monkeypatch):
    def refuse(H):
        raise AssertionError("assoc_coeff_connected must not list orientations")

    monkeypatch.setattr(rooting, "euler_orientations", refuse)
    rooting.clear_caches()
    assert assoc_coeff_connected(complete_kgraph(4)) == F(588, 3 ** 4)
    assert assoc_coeff(fano_plane()) == F(87, 16)


def test_zero_arborescence_count_raises(monkeypatch):
    # a balanced union with no spanning arborescence is not connected
    monkeypatch.setattr(rooting, "bareiss_det", lambda matrix: 0)
    with pytest.raises(ConsistencyFailure):
        assoc_coeff_connected(complete_kgraph(3))


def scripted_splits(splits):
    """A stand-in for `_compositions` that hands out one split per call: the
    walk asks once per edge along a single path, and skips `_combo_orbits`
    for a single split."""
    calls = iter(splits)
    return lambda total, parts, lo=None, hi=None: iter([next(calls)])


def test_unbalanced_assignment_raises(monkeypatch):
    # edges 123, 124, 134, 234 rooted at 2, 4, 3, 2: vertex 1 roots nothing
    # but receives three arcs, while 2, 3 and 4 all reach it (tau > 0)
    unbalanced = ((0, 1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    monkeypatch.setattr(rooting, "_compositions", scripted_splits(unbalanced))
    with pytest.raises(ConsistencyFailure):
        assoc_coeff_connected(complete_kgraph(3))


def test_non_integral_multiplicity_raises(monkeypatch):
    # every quota of the tetrahedron is 1, so prod q_v! = 1 cannot be divided
    # by the 2! of an edge rooted twice at one vertex
    doubled_root = ((2, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    monkeypatch.setattr(rooting, "_compositions", scripted_splits(doubled_root))
    with pytest.raises(NormalizationFailure):
        assoc_coeff_connected(complete_kgraph(3))


# -- sums over orbit representatives under Aut(H) ---------------------------


def derangements(n):
    return 1 if n == 0 else n * derangements(n - 1) + (-1) ** n


def doubled(H):
    return MultiHypergraph.build(H.k, H.n, [(e, 2 * m) for e, m in H.edges])


@pytest.mark.parametrize("k", range(3, 10))
def test_orbit_weight_equals_simplex_closed_form(k):
    # the paper's closed form certifies the generic route past the plain walk
    H = complete_kgraph(k)
    assert assoc_coeff_connected(H) == Fraction(simplex_Ck(k), (k - 1) ** k)


@pytest.mark.parametrize(
    "H,plain",
    [(complete_kgraph(k), derangements(k + 1)) for k in range(3, 9)]
    + [(doubled_fano(), 9144), (doubled(complete_kgraph(4)), 13756)],
)
def test_orbit_sizes_sum_to_assignment_count(H, plain):
    # the symmetric walk's multiplicities, orbit sizes included, sum to the
    # plain walk's rootings, from fewer leaves than the plain walk's one per
    # root-count assignment; a simplex's quotas are all 1, so each of its
    # assignments is one rooting, and those are its derangements
    leaves = [count for count, _ in rooting._rooted_unions(H, symmetric=True)]
    assert sum(leaves) == plain
    if H.k < 7:
        assignments = [count for count, _ in rooting._rooted_unions(H)]
        assert sum(assignments) == plain
        assert len(leaves) < len(assignments)
    else:  # the plain walk on the 7- and 8-simplex takes about 1 and 9 s
        assert len(leaves) < plain
