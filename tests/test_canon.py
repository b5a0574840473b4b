"""Canonical codes and automorphism counts."""

import random
from functools import reduce
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from catalog import (
    REFERENCE_VEBLEN,
    complete_kgraph,
    cycle_graph,
    fano_plane,
    path_graph,
    single_edge,
)
from helpers import (
    ORACLE_VERTICES,
    disjoint_union,
    graph2,
    oracle_canon,
    oracle_orbits,
    refine_rekeying_every_vertex,
)
from hypersachs.canon import (
    VERTEX_BOUND,
    _refine,
    _search,
    automorphisms,
    canon_and_aut,
    canonical_form,
    clear_caches,
)
from hypersachs.errors import SizeExceeded
from hypersachs.formats import _class_digest
from hypersachs.hypergraph import MultiHypergraph

# flat-to-multigraph automorphism ratios for the reference classes; 1 unless
# collapsing multiplicities genuinely gains symmetry
RATIO = {"v6_3": 2, "v6_8": 2, "v9_2": 2, "v12_1": 2, "v12_3": 3, "v12_4": 3}


def union(*parts):
    """Vertex-disjoint union of the parts, each shifted past the previous."""
    return reduce(disjoint_union, parts)


def simplex(k):
    """The k-uniform simplex: every k-subset of k+1 vertices."""
    return MultiHypergraph.build(k, k + 1, list(combinations(range(1, k + 2), k)))


def relabel(H, rng):
    perm = list(range(1, H.n + 1))
    rng.shuffle(perm)
    return H.relabeled({v: perm[v - 1] for v in range(1, H.n + 1)}, H.n)


def test_codes_distinguish_the_two_five_edge_classes():
    a = canonical_form(REFERENCE_VEBLEN["v5_1"])
    b = canonical_form(REFERENCE_VEBLEN["v5_2"])
    assert type(a) is bytes and a != b
    assert _class_digest(a) != _class_digest(b)
    assert len(_class_digest(a)) == 16


def test_code_ignores_isolated_vertices_and_labels():
    H = single_edge(3, mult=2)
    padded = MultiHypergraph.build(3, 9, [((4, 6, 9), 2)])
    assert canonical_form(H) == canonical_form(padded)


@pytest.mark.parametrize(
    "H,expect",
    [
        (single_edge(3, mult=3), 6),
        (complete_kgraph(3), 24),
        (fano_plane(), 168),
        (cycle_graph(5), 10),
        (path_graph(3), 2),
        (graph2(2, [((1, 2), 2)]), 2),
        (simplex(7), 40320),
        (MultiHypergraph.build(3, 6, list(combinations(range(1, 7), 3))), 720),
        (union(*[single_edge(3)] * 5), factorial(5) * 6**5),
        (union(fano_plane(), fano_plane()), 2 * 168**2),
    ],
)
def test_automorphism_counts(H, expect):
    assert automorphisms(H).aut_count == expect


def test_automorphism_ratio_column():
    for name, H in REFERENCE_VEBLEN.items():
        rep = automorphisms(H)
        assert rep.ratio == RATIO.get(name, 1), name
        assert rep.aut_count * rep.ratio == rep.flat_aut_count or rep.ratio == 1


def test_aut_count_divides_vertex_factorial():
    for H in REFERENCE_VEBLEN.values():
        rep = automorphisms(H)
        assert factorial(len(H.non_isolated)) % rep.aut_count == 0


def test_vertex_bound_enforced():
    n = VERTEX_BOUND + 1
    edges = [(v, v + 1, v + 2) for v in range(1, n - 1)]
    big = MultiHypergraph.build(3, n, edges)
    with pytest.raises(SizeExceeded):
        canonical_form(big)


def test_vertex_bound_is_per_component():
    # six disjoint edges span 18 vertices, each component only 3
    H = union(*[single_edge(3)] * 6)
    code, aut = canon_and_aut(H)
    assert aut == factorial(6) * 6**6
    assert code != canonical_form(union(*[single_edge(3)] * 5))


def test_union_codes_never_equal_connected_codes():
    two = union(single_edge(3), single_edge(3))
    joined = MultiHypergraph.build(3, 6, [(1, 2, 3), (4, 5, 6), (1, 2, 4)])
    codes = {canonical_form(two), canonical_form(single_edge(3, mult=2)), canonical_form(joined)}
    assert len(codes) == 3
    # a single component with isolated vertices keeps its connected code
    assert canonical_form(MultiHypergraph.build(3, 5, [(2, 3, 5)])) == canonical_form(single_edge(3))


def test_clear_caches_is_idempotent():
    canonical_form(fano_plane())
    clear_caches()
    clear_caches()
    assert automorphisms(fano_plane()).aut_count == 168


@st.composite
def multi_3graphs(draw):
    """Multi 3-graphs on at most ORACLE_VERTICES vertices, connected or not,
    some with repeated components, randomly relabeled."""
    pieces = []
    room = ORACLE_VERTICES
    while room >= 3 and (not pieces or draw(st.booleans())):
        n = draw(st.integers(3, min(room, 6)))
        triple = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
        edges = draw(st.lists(st.tuples(triple, st.integers(1, 3)), min_size=1, max_size=6))
        piece = MultiHypergraph.build(3, n, [(tuple(e), m) for e, m in edges])
        repeats = draw(st.integers(1, room // n))
        pieces += [piece] * repeats
        room -= n * repeats
    H = union(*pieces)
    return relabel(H, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150, deadline=None)
@given(st.lists(multi_3graphs(), min_size=2, max_size=5), st.randoms(use_true_random=False))
def test_search_matches_exhaustive_oracle(graphs, rng):
    # the same partition into classes as the old exhaustive search, and the
    # same |Aut|; codes and |Aut| do not move under relabeling
    graphs += [relabel(H, rng) for H in graphs]
    new = [canon_and_aut(H) for H in graphs]
    old = [oracle_canon(H) for H in graphs]
    for (_, aut), (_, want) in zip(new, old):
        assert aut == want
    for i in range(len(graphs)):
        for j in range(len(graphs)):
            assert (new[i][0] == new[j][0]) == (old[i][0] == old[j][0])
    half = len(graphs) // 2
    assert new[:half] == new[half:]


def closure(gens, m):
    """Every product of the permutations `gens` of 0..m-1."""
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


@settings(max_examples=150, deadline=None)
@given(multi_3graphs())
def test_search_returns_generators_of_aut(H):
    # each returned permutation is an automorphism, and together they
    # generate the whole group with the oracle's vertex orbits
    _, want = oracle_canon(H)
    if want > 5040:
        return
    verts = H.non_isolated
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted((tuple(sorted(index[v] for v in e)), mult) for e, mult in H.edges)
    code, aut, gens, label = _search(len(verts), edges)
    # the least leaf's labeling produces the least leaf code
    assert sorted(label) == list(range(len(verts)))
    assert tuple(sorted((tuple(sorted(label[u] for u in e)), mult) for e, mult in edges)) == code
    for g in gens:
        assert sorted((tuple(sorted(g[u] for u in e)), mult) for e, mult in edges) == edges
    group = closure(gens, len(verts))
    assert aut == want == len(group)
    orbits = {frozenset(verts[p[i]] for p in group) for i in range(len(verts))}
    assert orbits == oracle_orbits(H)


small_hypergraphs = st.lists(
    st.tuples(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
    ).filter(lambda t: len(set(t)) == 3),
    min_size=1,
    max_size=6,
).map(lambda es: MultiHypergraph.build(3, 6, es))


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs, st.permutations(list(range(1, 7))))
def test_code_relabeling_invariant(H, perm):
    mapping = {v: perm[v - 1] for v in range(1, 7)}
    R = H.relabeled(mapping, 6)
    assert canonical_form(H) == canonical_form(R)
    assert automorphisms(H).aut_count == automorphisms(R).aut_count


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs)
def test_orbit_counting_consistency(H):
    # orbit-stabilizer: |orbit| * |Aut| = (#non-isolated)! over exact
    # relabelings of the non-isolated support
    verts = H.non_isolated
    if len(verts) > 5:
        return
    from itertools import permutations

    images = set()
    for perm in permutations(verts):
        mapping = dict(zip(verts, perm))
        images.add(H.relabeled(mapping, H.n).edges)
    assert len(images) * automorphisms(H).aut_count == factorial(len(verts))


def _random_coloured_graph(rng, marked):
    """(colouring, cell count, edges, incidence) on 3..10 vertices: random
    3-edges with multiplicities, or, with `marked`, edges labelled as the
    root-count walk labels them (by position or multiplicity) plus singleton
    marks labelled (2, edge, count)."""
    m = rng.randint(3, 10)
    edges = [(tuple(sorted(rng.sample(range(m), 3))), rng.randint(1, 3)) for _ in range(rng.randint(1, 8))]
    if marked:
        edges = [(e, (1, j) if rng.random() < 0.5 else (0, mult)) for j, (e, mult) in enumerate(edges)]
        edges += [((v,), (2, rng.randrange(3), rng.randint(1, 2))) for v in rng.sample(range(m), rng.randint(0, 3))]
    inc = [[i for i, (e, _) in enumerate(edges) if v in e] for v in range(m)]
    raw = [rng.randrange(rng.randint(1, m)) for _ in range(m)]
    rank = {c: r for r, c in enumerate(sorted(set(raw)))}
    return [rank[c] for c in raw], len(rank), edges, inc


@pytest.mark.parametrize("marked", [False, True])
def test_refine_keys_only_cells_that_can_split(marked):
    # keying only non-singleton cells, each against its own cell, gives the
    # colouring that re-keying every vertex gives, so codes, |Aut| and
    # labelings stay as they were
    rng = random.Random(20261022)
    for _ in range(400):
        col, ncells, edges, inc = _random_coloured_graph(rng, marked)
        assert _refine(col[:], ncells, edges, inc) == refine_rekeying_every_vertex(col, ncells, edges, inc)
