"""Isomorphism-class enumeration, free and host-realized."""

import inspect
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from catalog import (
    FANO_LINES,
    REFERENCE_VEBLEN,
    complete_kgraph,
    fano_minus_two,
    fano_plane,
    single_edge,
    unsplittable_veblen,
)
from helpers import (
    free_classes_by_dedup,
    labeled_counts_by_injection,
    oracle_canon,
    random_3graph,
    random_graph,
    scan_infragraph_classes,
    serialize_hypergraph,
    with_multiplicities,
)
from hypersachs import digraph, linalg, rooting, veblen_enum
from hypersachs.canon import canon_and_aut, canonical_form
from hypersachs.classical import charpoly_graph
from hypersachs.cli import dispatch
from hypersachs.errors import ConsistencyFailure, DomainError, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph, _compositions, is_connected, is_veblen
from hypersachs.traces import codegree_coefficients, trace_vector
from hypersachs.veblen_enum import (
    MAX_FREE_EDGES,
    IsoClassRecord,
    connected_infragraph_classes,
    count_all_veblen,
    count_infragraph,
    enumerate_connected_veblen,
)

CONNECTED_COUNTS = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 11, 7: 26, 8: 122}
ALL_COUNTS = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 12, 7: 27, 8: 125}


def _generators(host) -> list:
    return list(veblen_enum._vertex_generators(host))


def _walked(host, d, *budget) -> list:
    """The walk's tables, called directly with the host's generators: no route choice."""
    return veblen_enum._walk_tables(host, d, _generators(host), *budget)


def _counted(host, d, *budget) -> list:
    """The counting route's tables, called directly like `_walked`."""
    return veblen_enum._count_tables(host, d, _generators(host), *budget)


@pytest.mark.parametrize("d", sorted(CONNECTED_COUNTS))
def test_class_counts(d):
    assert len(enumerate_connected_veblen(3, d)) == CONNECTED_COUNTS[d]
    assert count_all_veblen(3, d) == ALL_COUNTS[d]


def test_trivial_and_out_of_range():
    assert enumerate_connected_veblen(3, 0) == ()
    assert enumerate_connected_veblen(3, -2) == ()
    with pytest.raises(SizeExceeded):
        enumerate_connected_veblen(3, MAX_FREE_EDGES + 1)
    # the arity is checked even where no order is enumerated
    with pytest.raises(DomainError, match="uniformity k must be >= 2"):
        count_all_veblen(1, 0)


def test_smallest_classes_are_the_expected_ones():
    (only3,) = enumerate_connected_veblen(3, 3)
    assert only3.code == canonical_form(single_edge(3, mult=3))
    (only4,) = enumerate_connected_veblen(3, 4)
    assert only4.code == canonical_form(complete_kgraph(3))
    codes5 = {r.code for r in enumerate_connected_veblen(3, 5)}
    assert codes5 == {
        canonical_form(REFERENCE_VEBLEN["v5_1"]),
        canonical_form(REFERENCE_VEBLEN["v5_2"]),
    }


def test_records_are_sorted_canonical_and_connected():
    recs = enumerate_connected_veblen(3, 6)
    codes = [r.code for r in recs]
    assert all(type(c) is bytes for c in codes) and codes == sorted(codes)
    for r in recs:
        assert r.representative.edge_count == 6
        assert r.labeled_count is None
        assert is_connected(r.representative)
        assert is_veblen(r.representative)
        assert canonical_form(r.representative) == r.code


def test_six_edge_coefficient_multiset():
    recs = enumerate_connected_veblen(3, 6)
    values = sorted(rooting._class_weight(r.code, r.representative) for r in recs)
    expected = sorted(
        [
            Fraction(3, 16),  # edge with multiplicity six
            Fraction(9, 8),
            Fraction(9, 32),
            Fraction(99, 32),
            Fraction(213, 16),
            Fraction(69, 16),
            Fraction(63, 32),
            Fraction(129, 32),
            Fraction(27, 32),
            Fraction(63, 16),
            Fraction(117, 32),
        ]
    )
    assert values == expected
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("d", [5, 6])
def test_free_enumeration_matches_complete_host(d):
    # every connected class with d <= 6 edges embeds in the complete
    # 3-uniform host on six vertices; the walk and free enumeration are
    # independent code paths
    K6 = MultiHypergraph.build(3, 6, combinations(range(1, 7), 3))
    host_codes = set(_walked(K6, d)[d - 1])
    free_codes = {r.code for r in enumerate_connected_veblen(3, d)}
    assert host_codes == free_codes


@pytest.mark.parametrize("k,top", [(2, 8), (3, 7), (4, 6)])
def test_free_tree_matches_dedup_oracle(k, top, monkeypatch):
    # one tree to `top` fills every order; each order's classes and |Aut|
    # equal those of the orderly walk that deduplicates by canonical code,
    # and the tree reaches each class once, building one representative each
    built = []
    real = MultiHypergraph.build
    monkeypatch.setattr(MultiHypergraph, "build", classmethod(lambda cls, *a: built.append(1) or real(*a)))
    veblen_enum.clear_caches()
    enumerate_connected_veblen(k, top)
    assert len(built) == sum(len(veblen_enum._free_memo[k, d]) for d in range(1, top + 1))
    monkeypatch.undo()
    for d in range(1, top + 1):
        got = {r.code: r.aut_count for r in enumerate_connected_veblen(k, d)}
        assert got == free_classes_by_dedup(k, d), (k, d)


def test_free_tree_work_at_3_7(monkeypatch):
    # once a node's largest multiplicity M is 2 or more, only copies of edges
    # at multiplicity M - 1 or more are tried, and a doubled child that such
    # copies cannot close is never tested: 230 nodes accepted and 204
    # canonical searches, where testing every candidate accepted 342 and
    # searched 281 (the classes are pinned by the dedup oracle above)
    accepted, searches = [], []
    augment, search = veblen_enum._canonical_augmentation, veblen_enum._connected_code

    def counted(*args):
        result = augment(*args)
        accepted.append(result[0])
        return result

    monkeypatch.setattr(veblen_enum, "_canonical_augmentation", counted)
    monkeypatch.setattr(veblen_enum, "_connected_code", lambda *a: searches.append(1) or search(*a))
    veblen_enum._free_classes(3, 7)
    assert (sum(accepted), len(searches)) == (230, 204)


@pytest.mark.parametrize("k,top", [(2, 8), (3, 7), (4, 6)])
def test_free_representatives_have_smaller_neighbours(k, top):
    # the anchor property the counting route relies on: every vertex p > 1
    # of a representative shares an edge with a smaller vertex
    for d in range(top, 0, -1):
        for r in enumerate_connected_veblen(k, d):
            G = r.representative
            assert G.non_isolated == tuple(range(1, G.n + 1))
            for p in range(2, G.n + 1):
                assert any(p in e and e[0] < p for e in G.support), (G.edges, p)


def test_counting_rejects_a_representative_without_smaller_neighbour(monkeypatch):
    # vertex 2 of (1,3,4),(2,3,4) has no smaller neighbour, so the injection
    # backtrack could not anchor it
    G = MultiHypergraph.build(3, 4, [(1, 3, 4), (2, 3, 4)])
    code, aut = canon_and_aut(G)
    record = IsoClassRecord(code, G, aut_count=aut)
    monkeypatch.setattr(veblen_enum, "enumerate_connected_veblen", lambda k, j: (record,) if j == 2 else ())
    K5 = MultiHypergraph.build(3, 5, combinations(range(1, 6), 3))
    with pytest.raises(ConsistencyFailure, match="no smaller neighbour"):
        _counted(K5, 3, veblen_enum.WORK_BUDGET)


def test_one_free_tree_per_request(monkeypatch, tmp_path):
    # each request builds one tree, to its largest order; a tree per order
    # would call _free_classes once for each
    calls = []
    real = veblen_enum._free_classes
    monkeypatch.setattr(veblen_enum, "_free_classes", lambda k, top: calls.append((k, top)) or real(k, top))
    K6 = MultiHypergraph.build(3, 6, combinations(range(1, 7), 3))
    out = tmp_path / "atlas.tsv"
    runs = [
        (lambda: dispatch(["atlas-export", "--k", "3", "--max-codegree", "7", "--output", str(out)]), (3, 7)),
        (lambda: count_all_veblen(3, 7), (3, 7)),
        (lambda: connected_infragraph_classes(K6, 6), (3, 6)),  # the counting route
    ]
    for run, tree in runs:
        veblen_enum.clear_caches()
        calls.clear()
        run()
        assert calls == [tree]


def test_infragraph_classes_of_small_hosts():
    # one tripled-edge placement per support edge
    R = unsplittable_veblen()
    recs = connected_infragraph_classes(R, 3)
    assert len(recs) == 1
    assert recs[0].code == canonical_form(single_edge(3, mult=3))
    assert recs[0].labeled_count == 9

    fm2 = connected_infragraph_classes(fano_minus_two(), 3)
    assert len(fm2) == 1 and fm2[0].labeled_count == 5

    fp = connected_infragraph_classes(fano_plane(), 3)
    assert len(fp) == 1 and fp[0].labeled_count == 7


def test_occurrence_counts():
    FP = fano_plane()
    assert count_infragraph(FP, complete_kgraph(3)) == 0
    assert count_infragraph(FP, FP) == 1
    assert count_infragraph(FP, single_edge(3, mult=3)) == 7
    assert count_infragraph(unsplittable_veblen(), single_edge(3, mult=3)) == 9


def test_disconnected_occurrences_can_be_fractional():
    FP = fano_plane()
    pair = MultiHypergraph.build(3, 6, [((1, 2, 3), 3), ((4, 5, 6), 3)])
    assert count_infragraph(FP, pair) == Fraction(49, 2)


def test_count_all_composes_connected_classes():
    # the single disconnected 6-edge class is two disjoint tripled edges,
    # the single disconnected 7-edge class a tripled edge plus a simplex
    assert count_all_veblen(3, 6) - len(enumerate_connected_veblen(3, 6)) == 1
    assert count_all_veblen(3, 7) - len(enumerate_connected_veblen(3, 7)) == 1


def test_small_orders_without_valid_degree_vectors():
    # no two-edge multiplicity function on a 3-uniform host has every degree
    # divisible by three
    assert connected_infragraph_classes(fano_plane(), 2) == ()
    assert count_all_veblen(2, 2) == 1


def _oracle_hosts(family):
    """(host, largest order) pairs for the composition-scan comparison."""
    if family == "fano":
        return [(fano_plane(), 9)]
    if family == "fano_minus_two":
        return [(fano_minus_two(), 9)]
    if family == "k5":
        return [(MultiHypergraph.build(3, 5, combinations(range(1, 6), 3)), 6)]
    if family == "simplex4":
        return [(complete_kgraph(4), 8)]
    if family == "graphs":
        rng = random.Random(11)
        return [(random_graph(rng, rng.randint(5, 6), 0.6), 6) for _ in range(3)]
    rng = random.Random(12)
    hosts = [(random_3graph(rng, rng.randint(4, 6), 0.5), 6) for _ in range(20)]
    # vertex n+1 of the first host is isolated
    first = hosts[0][0]
    hosts[0] = (MultiHypergraph.build(3, first.n + 1, first.support), 6)
    return hosts


@pytest.mark.parametrize(
    "family", ["fano", "fano_minus_two", "k5", "simplex4", "graphs", "random3"]
)
def test_host_walk_matches_composition_scan(family, monkeypatch):
    # walked representatives are the scan's; counted ones only lie in their class
    log = _spy_routes(monkeypatch)
    for host, top in _oracle_hosts(family):
        expected = {d: scan_infragraph_classes(host, d) for d in range(1, top + 1)}
        # largest order first: every table comes from one walk to `top`;
        # then smallest first: each table is the top order of its own walk
        for orders in (range(top, 0, -1), range(1, top + 1)):
            veblen_enum.clear_caches()
            for d in orders:
                got = connected_infragraph_classes(host, d)
                route = [route for route, _, outcome in log if outcome == "filled"][-1]
                assert {r.code for r in got} == set(expected[d])
                for r in got:
                    rep, count = expected[d][r.code]
                    assert r.labeled_count == count
                    if route == "walk":
                        assert r.representative == rep
                    else:
                        _assert_counted_representative(host, r.code, r.representative)


def _assert_counted_representative(host, code, rep):
    # a counted representative is a connected graph in its class whose
    # support, relabeled onto 1..v in order as `components` leaves it, lies
    # in the host's
    support = set(host.support)
    assert canonical_form(rep) == code and is_connected(rep)
    assert any(
        all(tuple(image[v - 1] for v in e) in support for e in rep.support)
        for image in combinations(host.non_isolated, rep.n)
    ), rep.edges


def _counts(tables) -> list[dict]:
    """{code: labeled count} of each order's table."""
    return [{code: count for code, (_, count) in table.items()} for table in tables]


def _assert_counted_tables(host, counted, want):
    # the classes and labeled counts of `want`, with counted representatives
    assert _counts(counted) == _counts(want)
    for table in counted:
        for code, (rep, _) in table.items():
            _assert_counted_representative(host, code, rep)


def test_host_memo_keeps_only_the_last_host():
    veblen_enum.clear_caches()
    first = connected_infragraph_classes(fano_plane(), 6)
    connected_infragraph_classes(fano_minus_two(), 6)
    assert len(veblen_enum._infra_memo) == 1
    assert connected_infragraph_classes(fano_plane(), 6) == first
    assert len(veblen_enum._infra_memo) == 1


def test_enumeration_uses_no_weight_code(monkeypatch):
    # classes, |Aut| and labeled counts come from canon alone: every function
    # of rooting, digraph and linalg raises while both enumerations run
    def run():
        veblen_enum.clear_caches()
        rooting._coeff_memo.clear()
        free = enumerate_connected_veblen(3, 7)
        host = [connected_infragraph_classes(fano_plane(), d) for d in range(9, 0, -1)]
        return free, host

    want = run()

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration called weight code")

    for module in (rooting, digraph, linalg):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                monkeypatch.setattr(module, name, forbidden)
    # the records' codes, |Aut|, labeled counts and representatives
    assert run() == want


def _fano_orbit_counts(top):
    """Number of Aut(Fano) orbits of the connected Veblen vectors of each order
    1..top on the Fano plane's edges, by brute force over the vertex
    permutations that fix the edge set; nothing here comes from veblen_enum."""
    fano = fano_plane()
    position = {e: i for i, e in enumerate(fano.support)}
    auts = []
    for p in permutations(range(1, 8)):
        images = [position.get(tuple(sorted(p[v - 1] for v in e))) for e in fano.support]
        if None not in images:
            auts.append(images)
    assert len(auts) == 168
    counts = [0] * (top + 1)
    for d in range(1, top + 1):
        least = set()
        for mu in _compositions(d, len(position)):
            G = with_multiplicities(fano, mu)
            if is_veblen(G) and is_connected(G):
                images = []
                for a in auts:
                    nu = [0] * len(mu)
                    for i, j in enumerate(a):
                        nu[j] = mu[i]
                    images.append(tuple(nu))
                least.add(min(images))
        counts[d] = len(least)
    return counts


def test_one_host_walk_per_table(monkeypatch, tmp_path):
    # one walk to order D canonicalizes one connected Veblen vector per orbit
    # of Aut(Fano), so it makes as many canon calls as there are such orbits
    # of order <= D, fewer than the vectors; a walk per order would make more
    orbits = _fano_orbit_counts(12)
    calls = []
    real = veblen_enum.canonical_form
    monkeypatch.setattr(
        veblen_enum, "canonical_form", lambda H: calls.append(1) or real(H)
    )
    path = tmp_path / "fano.txt"
    path.write_text(serialize_hypergraph(fano_plane()))
    runs = [
        (lambda: codegree_coefficients(fano_plane(), 12), 12),
        (lambda: trace_vector(fano_plane(), 9), 9),
        (lambda: dispatch(["traces", "--input", str(path), "--max-order", "9"]), 9),
    ]
    for run, top in runs:
        veblen_enum.clear_caches()
        calls.clear()
        run()
        vectors = sum(
            r.labeled_count
            for d in range(1, top + 1)
            for r in connected_infragraph_classes(fano_plane(), d)
        )
        assert 0 < len(calls) == sum(orbits[: top + 1]) < vectors


def _two_fano_planes():
    # planes on 1..7 and 8..14, each component with its own generators; 15 is isolated
    lines = fano_plane().support
    return MultiHypergraph.build(3, 15, list(lines) + [tuple(v + 7 for v in e) for e in lines])


def _long_loose_path():
    # one component on 17 vertices, over VERTEX_BOUND, so the routes get no generators
    return MultiHypergraph.build(3, 17, [(2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(8)])


def _k5_and_an_isolated_vertex():
    # a vertex-transitive component on 1..5; vertex 6 lies in no orbit
    return MultiHypergraph.build(3, 6, combinations(range(1, 6), 3))


@pytest.mark.parametrize(
    "make,generators",
    [(_two_fano_planes, True), (_long_loose_path, False), (fano_minus_two, True), (_k5_and_an_isolated_vertex, True)],
)
def test_orbit_walk_matches_scan_and_injections(make, generators):
    # both routes prune by the generators: the walk its vectors, counting the
    # host vertices of vertex 1 to one per orbit, weighted by the orbit's size
    # (fano_minus_two: Aut nontrivial, not transitive; two Fano planes: no
    # generator swaps the components)
    host = make()
    assert bool(veblen_enum._edge_permutations(list(host.support), _generators(host))) == generators
    tables = _walked(host, 6)
    counted = _counted(host, 6)
    for d in range(1, 7):
        assert tables[d - 1] == scan_infragraph_classes(host, d), d
        reps = [rep for rep, _ in counted[d - 1].values()]
        assert [n for _, n in counted[d - 1].values()] == labeled_counts_by_injection(host, reps)
    _assert_counted_tables(host, counted, tables)
    assert any(tables[5])


def test_walk_rejects_a_generator_that_is_no_host_automorphism(monkeypatch):
    # no transposition of two points preserves the Fano plane's lines
    real = veblen_enum._connected_code

    def with_transposition(k, verts, edges):
        code, aut, gens, label = real(k, verts, edges)
        return code, aut, gens + [(1, 0) + tuple(range(2, len(verts)))], label

    # cold, the walk fills the Fano plane to 6
    log = _spy_routes(monkeypatch)
    veblen_enum.clear_caches()
    assert _fill(fano_plane(), 6, log) == [("walk", 6, "filled")]
    monkeypatch.setattr(veblen_enum, "_connected_code", with_transposition)
    with pytest.raises(ConsistencyFailure, match="maps an edge off the host"):
        _fill(fano_plane(), 6, log)
    assert log == []  # the one search per fill raises before the route runs
    # with the free tree stored, counting runs first: it takes the same
    # generators, to weight its orbits
    monkeypatch.setattr(veblen_enum, "_connected_code", real)
    enumerate_connected_veblen(3, 6)
    assert _fill(fano_plane(), 6, log)[0] == ("count", 6, "over budget")
    monkeypatch.setattr(veblen_enum, "_connected_code", with_transposition)
    with pytest.raises(ConsistencyFailure, match="maps an edge off the host"):
        _fill(fano_plane(), 6, log)
    assert log == []


def test_walk_rejects_images_it_never_reaches(monkeypatch):
    # swapping the simplex edge (2,3,4) with the pendant edge (4,5,6) is no
    # automorphism: it sends the simplex to a vector that is not Veblen
    host = MultiHypergraph.build(3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (4, 5, 6)])
    monkeypatch.setattr(veblen_enum, "_edge_permutations", lambda edges, gens: [(0, 1, 2, 4, 3)])
    with pytest.raises(ConsistencyFailure, match="never reached 1 image"):
        _walked(host, 4)


def test_class_weights_computed_once(monkeypatch):
    # a table read again with weights, by a second caller, reuses them
    calls = []
    real = rooting.assoc_coeff_connected
    monkeypatch.setattr(
        rooting, "assoc_coeff_connected", lambda H: calls.append(1) or real(H)
    )
    veblen_enum.clear_caches()
    rooting.clear_caches()
    coefficients = codegree_coefficients(fano_plane(), 9)
    trace_vector(fano_plane(), 9)
    classes = sum(
        len(connected_infragraph_classes(fano_plane(), d)) for d in range(1, 10)
    )
    assert classes > 0
    assert len(calls) == classes
    assert coefficients == codegree_coefficients(fano_plane(), 9)


FAMILIES = ["fano", "fano_minus_two", "k5", "simplex4", "graphs", "random3"]


@pytest.mark.parametrize("family", FAMILIES)
def test_labeled_counts_certified_by_injections(family):
    # a class G occurs in inj(G, host) / |Aut(G)| multiplicity functions; the
    # oracle counts the injections by brute force and takes |Aut| from
    # oracle_canon, so it shares no code with either route
    for host, top in _oracle_hosts(family):
        veblen_enum.clear_caches()
        for d in range(top, 0, -1):
            records = connected_infragraph_classes(host, d)
            want = labeled_counts_by_injection(host, [r.representative for r in records])
            assert [r.labeled_count for r in records] == want


@pytest.mark.parametrize("k,n,top", [(3, 5, 6), (3, 6, 6), (4, 5, 8), (2, 5, 6), (3, 7, 6)])
def test_complete_host_counts_are_falling_factorials_over_aut(k, n, top):
    # on K_n^(k) every injection is an embedding: count = (n)_v / |Aut(G)|
    host = MultiHypergraph.build(k, n, combinations(range(1, n + 1), k))
    veblen_enum.clear_caches()
    for d in range(top, 0, -1):
        for r in connected_infragraph_classes(host, d):
            G = r.representative
            assert r.labeled_count * oracle_canon(G)[1] == perm(n, len(G.non_isolated))


def _route_hosts():
    for family in FAMILIES:
        for host, top in _oracle_hosts(family):
            # the free atlas costs seconds past order 7
            yield host, min(top, 7)
    yield MultiHypergraph.build(3, 6, combinations(range(1, 7), 3)), 6
    yield MultiHypergraph.build(3, 8, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (1, 2, 4)]), 6


def test_walk_and_counting_give_identical_tables():
    # codes and labeled counts; the last host has two isolated vertices
    for host, top in _route_hosts():
        walk = _walked(host, top)
        _assert_counted_tables(host, _counted(host, top, veblen_enum.WORK_BUDGET), walk)


def test_counting_raises_past_its_budget():
    # K_6^(3) is vertex-transitive, so vertex 1 goes on one host vertex: to
    # order 6 that is about 3,210 placements, not 19,300 with it on all six
    K6 = MultiHypergraph.build(3, 6, combinations(range(1, 7), 3))
    assert _counted(K6, 6, 4000) == _counted(K6, 6)
    with pytest.raises(SizeExceeded, match=r"injection count to order 6 over its budget; estimate .* s"):
        _counted(K6, 6, 1000)


def test_walk_raises_past_its_budget():
    with pytest.raises(SizeExceeded, match=r"host walk to order 9 over its budget; estimate .* s"):
        _walked(fano_plane(), 9, 100)
    assert _walked(fano_plane(), 9) == _walked(fano_plane(), 9, 10**4)


def _spy_routes(monkeypatch) -> list:
    """Wraps both table routes; the returned list logs (route, order,
    outcome) for each call, outcome "filled" or "over budget"."""
    log = []
    for route in ("count", "walk"):
        real = getattr(veblen_enum, f"_{route}_tables")

        def spy(host, d, gens, *budget, real=real, route=route):
            try:
                tables = real(host, d, gens, *budget)
            except SizeExceeded:
                log.append((route, d, "over budget"))
                raise
            log.append((route, d, "filled"))
            return tables

        monkeypatch.setattr(veblen_enum, f"_{route}_tables", spy)
    return log


def _fill(host, d, log) -> list:
    """The route log of one table fill from an empty host memo."""
    veblen_enum._infra_memo.clear()
    log.clear()
    veblen_enum._host_tables(host, d)
    return list(log)


def _certify_graphs(rng, edges, count):
    """Random graphs of certify's shape: 7 vertices, every one on an edge."""
    pool = list(combinations(range(1, 8), 2))
    graphs = []
    while len(graphs) < count:
        chosen = rng.sample(pool, edges)
        if len({v for e in chosen for v in e}) == 7:
            graphs.append(MultiHypergraph.build(2, 7, chosen))
    return graphs


def test_route_choice_on_benchmark_hosts(monkeypatch):
    # counting runs first while the free tree is estimated cheaper than the
    # walk, within the difference; past it the walk fills the tables
    log = _spy_routes(monkeypatch)
    K6 = MultiHypergraph.build(3, 6, combinations(range(1, 7), 3))
    for host, d in [*((G, 7) for G in _certify_graphs(random.Random(31), 10, 4)), (K6, 6)]:
        veblen_enum.clear_caches()
        assert _fill(host, d, log) == [("count", d, "filled")], host.edges
    # with a cold atlas the free tree alone is estimated dearer than the walk,
    # and orders past MAX_FREE_EDGES always walk: the plane family, the
    # breakdown's hosts and K_5^(4)
    veblen_enum.clear_caches()
    walked = [(MultiHypergraph.build(3, 7, FANO_LINES[:lines]), 15) for lines in (5, 6, 7)]
    walked += [(single_edge(3), 11), (single_edge(4), 11), (complete_kgraph(3), 11)]
    walked += [(complete_kgraph(4), 10), (complete_kgraph(4), 8), (fano_plane(), 9)]
    for host, d in walked:
        assert _fill(host, d, log) == [("walk", d, "filled")], (host.edges, d)
    cold = veblen_enum._infra_memo[fano_plane()]
    # with it stored, counting overruns the walk's 5005 bound vectors and the
    # walk fills the same tables
    enumerate_connected_veblen(3, 9)
    assert _fill(fano_plane(), 9, log) == [("count", 9, "over budget"), ("walk", 9, "filled")]
    assert veblen_enum._infra_memo[fano_plane()] == cold
    # a budget bound by WORK_BUDGET re-raises: the walk would cost more still
    monkeypatch.setattr(veblen_enum, "WORK_BUDGET", 1000)
    with pytest.raises(SizeExceeded, match=r"injection count to order 9 over its budget; estimate over .* s"):
        _fill(fano_plane(), 9, log)
    assert log == [("count", 9, "over budget")]


def test_graph_counts_within_the_walks_cost_with_a_cold_tree(monkeypatch):
    # the k=2 walk's estimate leaves counting room for the free tree to 7 and
    # the 3,309 placements this 9-edge graph needs
    log = _spy_routes(monkeypatch)
    host = MultiHypergraph.build(2, 7, [(1, 2), (1, 5), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 6), (5, 7)])
    veblen_enum.clear_caches()
    assert _fill(host, 7, log) == [("count", 7, "filled")]
    _assert_counted_tables(host, veblen_enum._infra_memo[host], _walked(host, 7))


def test_one_generator_search_per_table_fill(monkeypatch):
    # with the free tree stored, counting overruns its budget on the Fano
    # plane to 7 and the walk fills the tables, from the same generators
    log, searched = _spy_routes(monkeypatch), []
    real = veblen_enum._vertex_generators
    monkeypatch.setattr(veblen_enum, "_vertex_generators", lambda host: searched.append(host) or real(host))
    veblen_enum.clear_caches()
    enumerate_connected_veblen(3, 7)
    assert _fill(fano_plane(), 7, log) == [("count", 7, "over budget"), ("walk", 7, "filled")]
    assert searched == [fano_plane()]


@pytest.mark.parametrize("edges", [9, 10, 11, 12])
def test_counted_graphs_match_walk_and_charpoly(edges, monkeypatch):
    # the graphs that certify's k=2 jobs now fill by counting: its classes
    # and labeled counts equal the walk's, and the coefficients the
    # adjacency characteristic polynomial
    log = _spy_routes(monkeypatch)
    veblen_enum.clear_caches()
    enumerate_connected_veblen(2, 7)  # stored, as after certify's first graph
    for G in _certify_graphs(random.Random(edges), edges, 3):
        log.clear()
        coefficients, _ = codegree_coefficients(G, 7)
        assert log == [("count", 7, "filled")]
        assert coefficients == tuple(Fraction(c) for c in charpoly_graph(G))
        _assert_counted_tables(G, _counted(G, 7), _walked(G, 7))


@st.composite
def hosts_with_relabeling(draw):
    """A host of arity 2 or 3 on at most 6 vertices, a relabeling of it, and
    an order the counting route can fill."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k, 6))
    pool = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    image = draw(st.permutations(range(1, n + 1)))
    host = MultiHypergraph.build(k, n, edges)
    return host, host.relabeled({v: image[v - 1] for v in range(1, n + 1)}, n), draw(st.integers(k, 8 - k))


@settings(max_examples=100, deadline=None)
@given(hosts_with_relabeling())
def test_routes_agree_under_relabeling(case):
    # {code: labeled count} per order is the same by either route, on the
    # host and on its relabeling
    host, relabeled, d = case
    want = _counts(_walked(host, d))
    assert _counts(_counted(host, d)) == want
    assert _counts(_walked(relabeled, d)) == want
    assert _counts(_counted(relabeled, d)) == want
