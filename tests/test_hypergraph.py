"""Construction, views, connectivity and edge-partition enumeration."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from catalog import (
    complete_kgraph,
    cycle_graph,
    fano_plane,
    single_edge,
    unsplittable_veblen,
)
from helpers import disjoint_union, graph2, veblen_partitions, with_multiplicities
from hypersachs.errors import DomainError, NotVeblen
from hypersachs.hypergraph import (
    MultiHypergraph,
    _compositions,
    component_supports,
    components,
    flatten,
    is_connected,
    is_veblen,
    require_simple,
)


def test_build_normalizes_and_accumulates():
    H = MultiHypergraph.build(3, 5, [(3, 2, 1), ((1, 2, 3), 2), ((1, 4, 5), 1)])
    assert H.edges == (((1, 2, 3), 3), ((1, 4, 5), 1))
    assert H.edge_count == 4
    assert dict(H.edges).get((1, 2, 3)) == 3
    assert (2, 3, 4) not in dict(H.edges)
    assert H.support == ((1, 2, 3), (1, 4, 5))


@pytest.mark.parametrize(
    "k,n,edges",
    [
        (1, 3, []),
        (3, -1, []),
        (3, 4, [(1, 2)]),
        (3, 4, [(1, 2, 2)]),
        (3, 4, [(1, 2, 5)]),
        (3, 4, [(0, 1, 2)]),
        (3, 4, [((1, 2, 3), 0)]),
    ],
)
def test_build_rejects(k, n, edges):
    with pytest.raises(DomainError):
        MultiHypergraph.build(k, n, edges)


def test_degree_and_isolation_views():
    H = MultiHypergraph.build(3, 5, [((1, 2, 3), 2), (1, 2, 4)])
    assert H.degrees() == {1: 3, 2: 3, 3: 2, 4: 1, 5: 0}
    assert H.non_isolated == (1, 2, 3, 4)
    assert not H.is_simple
    assert flatten(H).is_simple
    assert flatten(H).edges == (((1, 2, 3), 1), ((1, 2, 4), 1))
    with pytest.raises(DomainError):
        require_simple(H)
    require_simple(flatten(H))


def test_relabeled_preserves_degree_multiset():
    H = MultiHypergraph.build(3, 4, [((1, 2, 3), 2), (2, 3, 4)])
    mapping = {1: 4, 2: 1, 3: 3, 4: 2}
    R = H.relabeled(mapping, 4)
    assert sorted(H.degrees().values()) == sorted(R.degrees().values())
    assert dict(R.edges)[(1, 3, 4)] == 2


def test_with_multiplicities_subgraph():
    H = MultiHypergraph.build(3, 4, [((1, 2, 3), 2), (1, 2, 4)])
    S = with_multiplicities(H, (2, 0))
    assert S.edges == (((1, 2, 3), 2),)
    assert S.n == H.n
    with pytest.raises(DomainError):
        with_multiplicities(H, (2,))


def test_components_split_disjoint_union():
    H = disjoint_union(single_edge(3, mult=3), complete_kgraph(3))
    comps = components(H)
    assert len(comps) == 2
    assert sorted(c.edge_count for c in comps) == [3, 4]
    assert component_supports(H) == [frozenset({1, 2, 3}), frozenset({4, 5, 6, 7})]
    assert not is_connected(H)
    assert is_connected(complete_kgraph(3))
    # edge-free hosts have zero components, hence are not connected
    assert not is_connected(MultiHypergraph.build(3, 0))
    assert not is_connected(MultiHypergraph.build(3, 5))


@pytest.mark.parametrize(
    "H,expect",
    [
        (single_edge(3, mult=3), True),
        (single_edge(3, mult=1), False),
        (single_edge(3, mult=2), False),
        (complete_kgraph(3), True),
        (fano_plane(), True),
        (unsplittable_veblen(), True),
        (cycle_graph(5), True),
        (graph2(3, [(1, 2), (2, 3)]), False),
        (graph2(2, [((1, 2), 2)]), True),
    ],
)
def test_is_veblen(H, expect):
    assert is_veblen(H) is expect


def test_veblen_partitions_rejects_non_veblen():
    with pytest.raises(NotVeblen):
        veblen_partitions(single_edge(3, mult=2))


def test_veblen_partitions_trivial_cases():
    assert veblen_partitions(MultiHypergraph.build(3, 4)) == ((),)
    e3 = single_edge(3, mult=3)
    parts = veblen_partitions(e3)
    assert len(parts) == 1 and len(parts[0]) == 1
    assert parts[0][0].edges == e3.edges
    # simplices admit no proper edge split either
    assert len(veblen_partitions(complete_kgraph(3))) == 1


def test_veblen_partitions_doubled_triangle():
    H = graph2(3, [((1, 2), 2), ((1, 3), 2), ((2, 3), 2)])
    parts = veblen_partitions(H)
    # whole, three doubled-path + doubled-edge splits, three doubled edges,
    # or two copies of the triangle
    assert len(parts) == 6
    sizes = sorted(tuple(sorted(p.edge_count for p in part)) for part in parts)
    assert sizes == [(2, 2, 2), (2, 4), (2, 4), (2, 4), (3, 3), (6,)]
    twin = next(p for p in parts if len(p) == 2 and p[0].edge_count == 3)
    assert twin[0].edges == twin[1].edges  # identical parts may repeat


def test_veblen_partitions_connected_flag():
    # two vertex-disjoint doubled edges: the whole graph is a valid part only
    # when disconnected parts are allowed
    H = graph2(4, [((1, 2), 2), ((3, 4), 2)])
    assert len(veblen_partitions(H)) == 2
    conn = veblen_partitions(H, parts_connected=True)
    assert len(conn) == 1 and len(conn[0]) == 2


def test_veblen_partitions_order_largest_first():
    # parts come in decreasing order of their multiplicity vector aligned
    # with the host's edge list
    H = graph2(3, [((1, 2), 2), ((1, 3), 2), ((2, 3), 2)])
    for part in veblen_partitions(H):
        vecs = [tuple(dict(p.edges).get(e, 0) for e in H.support) for p in part]
        assert vecs == sorted(vecs, reverse=True)
        assert [sum(col) for col in zip(*vecs)] == [2, 2, 2]


triples = st.lists(
    st.tuples(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
    ).filter(lambda t: len(set(t)) == 3),
    min_size=0,
    max_size=6,
)


@given(triples)
def test_flatten_idempotent(edge_list):
    H = MultiHypergraph.build(3, 6, edge_list)
    assert flatten(flatten(H)) == flatten(H)


@given(triples, st.permutations(list(range(1, 7))))
def test_relabel_invariants(edge_list, perm):
    H = MultiHypergraph.build(3, 6, edge_list)
    mapping = {v: perm[v - 1] for v in range(1, 7)}
    R = H.relabeled(mapping, 6)
    assert is_veblen(H) == is_veblen(R)
    assert is_connected(H) == is_connected(R)
    assert H.edge_count == R.edge_count


@given(triples)
def test_components_partition_support(edge_list):
    H = MultiHypergraph.build(3, 6, edge_list)
    comps = components(H)
    assert sum(c.edge_count for c in comps) == H.edge_count
    supports = component_supports(H)
    assert sorted(v for s in supports for v in s) == list(H.non_isolated)


@pytest.mark.parametrize("total,parts", [(0, 0), (3, 0), (0, 1), (4, 1), (0, 3), (5, 3), (6, 4), (3, 7)])
def test_compositions_count_and_lex_order(total, parts):
    got = list(_compositions(total, parts))
    # stars and bars: C(t+p-1, p-1) compositions, one (the empty one) of 0 into 0 parts
    assert len(got) == (comb(total + parts - 1, parts - 1) if parts else int(total == 0))
    assert all(len(c) == parts and sum(c) == total and min(c, default=0) >= 0 for c in got)
    assert got == sorted(set(got))


def test_compositions_in_lex_order():
    assert list(_compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
    ]


@st.composite
def bounded_compositions(draw):
    """A total, a number of parts and per-part bounds lo, hi (lo may exceed hi)."""
    total, parts = draw(st.integers(0, 9)), draw(st.integers(0, 5))
    lo = draw(st.lists(st.integers(0, 4), min_size=parts, max_size=parts))
    hi = draw(st.lists(st.integers(0, 9), min_size=parts, max_size=parts))
    return total, parts, lo, hi


@given(bounded_compositions())
def test_bounded_compositions_are_the_unbounded_ones_within_bounds(case):
    total, parts, lo, hi = case
    got = list(_compositions(total, parts, lo, hi))
    want = [t for t in _compositions(total, parts) if all(a <= c <= b for a, c, b in zip(lo, t, hi))]
    assert got == want  # the same tuples, in the same (lex) order
    # empty exactly when the bounds cannot be met
    assert bool(got) == (all(a <= b for a, b in zip(lo, hi)) and sum(lo) <= total <= sum(hi))


def test_bounded_compositions_cost_follows_the_output():
    # every composition of 10^6 into 3 parts would be about 5 * 10^11 tuples
    big = 10**6
    got = list(_compositions(big, 3, [0, 0, big - 1], [1, 1, big]))
    assert got == [(0, 0, big), (0, 1, big - 1), (1, 0, big - 1)]
