"""Ordinary graphs: signed subgraph expansion, trails, vanishing thresholds."""

import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from catalog import cycle_graph, path_graph
from helpers import (
    MAX_PARTITION_EDGES,
    MAX_TRAIL_EDGES,
    all_labeled_graphs,
    graph2,
    graph_assoc_coeff,
    partition_sum_check,
    random_graph,
    single_edge_profile,
)
from hypersachs import canon, classical, digraph, linalg, rooting, traces, veblen_enum
from hypersachs.classical import (
    MAX_CHARPOLY_VERTICES,
    charpoly_graph,
    elementary_subgraphs,
    harary_sachs_coeffs,
    threshold_search,
    threshold_single_edge,
)
from hypersachs.errors import DomainError, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.rooting import assoc_coeff
from hypersachs.veblen_enum import enumerate_connected_veblen

F = Fraction


@pytest.mark.parametrize(
    "G,expect",
    [
        (cycle_graph(3), (1, 0, -3, -2)),
        (path_graph(3), (1, 0, -2, 0)),
        (graph2(2, [(1, 2)]), (1, 0, -1)),
        (graph2(3, []), (1, 0, 0, 0)),
        (cycle_graph(4), (1, 0, -4, 0, 0)),
    ],
)
def test_charpoly_anchors(G, expect):
    assert charpoly_graph(G) == expect


def test_charpoly_requires_simple_graph():
    with pytest.raises(DomainError):
        charpoly_graph(MultiHypergraph.build(3, 3, [(1, 2, 3)]))
    with pytest.raises(DomainError):
        charpoly_graph(graph2(2, [((1, 2), 2)]))
    with pytest.raises(SizeExceeded):
        charpoly_graph(graph2(MAX_CHARPOLY_VERTICES + 1, []))


def test_elementary_subgraph_census_of_triangle():
    tri = cycle_graph(3)
    assert elementary_subgraphs(tri, 2) == [(((1, 2),), ()), (((1, 3),), ()), (((2, 3),), ())]
    assert elementary_subgraphs(tri, 3) == [((), ((1, 2, 3),))]
    assert harary_sachs_coeffs(tri, 2) == -3 and harary_sachs_coeffs(tri, 3) == -2
    assert elementary_subgraphs(path_graph(3), 3) == []


def test_signed_census_reproduces_charpoly_exhaustively():
    for n in range(1, 5):
        for G in all_labeled_graphs(n):
            poly = charpoly_graph(G)
            for d in range(n + 1):
                assert harary_sachs_coeffs(G, d) == poly[d]


def test_certificate_uses_nothing_it_certifies(monkeypatch):
    # the k=2 certificate must stay independent of the engine it checks:
    # every function of canon, veblen_enum, rooting, traces and digraph, and
    # the determinant in linalg, raises, also where classical binds one
    rng = random.Random(7)
    graphs = [G for n in range(5) for G in all_labeled_graphs(n)]
    graphs += [random_graph(rng, rng.randint(6, 8), 0.5) for _ in range(4)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the k=2 certificate called the engine it certifies")

    modules = {m.__name__: m for m in (canon, veblen_enum, rooting, traces, digraph)}
    for module in (*modules.values(), classical):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ in modules:
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(linalg, "bareiss_det", forbidden)
    for G in graphs:
        poly = charpoly_graph(G)
        assert [harary_sachs_coeffs(G, d) for d in range(G.n + 1)] == list(poly), G.edges


def test_census_degree_bound():
    with pytest.raises(DomainError):
        harary_sachs_coeffs(cycle_graph(3), 4)


@pytest.mark.parametrize("n", [9, 12])
def test_census_refuses_complete_graphs_before_it_starts(n):
    # unbounded, K_9 at d=9 ran for about 110 s and K_12 for longer; the
    # bound is checked before the selection and while the cycles are listed
    code = (
        "import itertools\n"
        "from hypersachs.classical import harary_sachs_coeffs\n"
        "from hypersachs.errors import SizeExceeded\n"
        "from hypersachs.hypergraph import MultiHypergraph\n"
        f"G = MultiHypergraph.build(2, {n}, list(itertools.combinations(range(1, {n + 1}), 2)))\n"
        "try:\n"
        f"    harary_sachs_coeffs(G, {n})\n"
        "except SizeExceeded as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(classical.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: elementary subgraphs on "), proc.stdout


def test_census_of_the_largest_checked_graph_computes():
    # every graph on at most 8 vertices is within the bounds, K_8 the costliest
    K8 = graph2(8, list(combinations(range(1, 9), 2)))
    assert harary_sachs_coeffs(K8, 8) == charpoly_graph(K8)[8] == -7


def test_census_leaves_vertices_out_without_recursing():
    # the recursion goes only as deep as the pieces selected, so the 2997
    # vertices a single edge leaves out stay within Python's recursion limit
    assert harary_sachs_coeffs(path_graph(3000), 2) == -2999


def test_cycle_listing_step_bound(monkeypatch):
    # a vertex hanging off a complete graph: the listing walks the paths from
    # it, none of which closes, and stops at its step bound
    G = graph2(7, [(1, 2)] + list(combinations(range(2, 8), 2)))
    assert harary_sachs_coeffs(G, 7) == charpoly_graph(G)[7]
    monkeypatch.setattr(classical, "MAX_CYCLE_STEPS", 100)
    with pytest.raises(SizeExceeded, match="path steps"):
        harary_sachs_coeffs(G, 7)


@pytest.mark.parametrize(
    "G,expect",
    [
        (graph2(2, [((1, 2), 2)]), F(1)),
        (cycle_graph(3), F(2)),
        (cycle_graph(6), F(2)),
    ],
)
def test_trail_count_coefficients(G, expect):
    assert graph_assoc_coeff(G) == expect


def test_trail_count_matches_rooting_engine():
    for d in range(2, 7):
        for rec in enumerate_connected_veblen(2, d):
            G = rec.representative
            assert graph_assoc_coeff(G) == rooting._class_weight(rec.code, G) == assoc_coeff(G)


def test_trail_edge_cap():
    with pytest.raises(SizeExceeded):
        graph_assoc_coeff(graph2(2, [((1, 2), MAX_TRAIL_EDGES + 2)]))


@pytest.mark.parametrize(
    "G,expect",
    [
        (graph2(2, [((1, 2), 2)]), 1),
        (cycle_graph(3), 2),
        (cycle_graph(5), 2),
        (cycle_graph(7), 2),
        (graph2(3, [((1, 2), 2), ((1, 3), 2), ((2, 3), 2)]), 0),
        (graph2(2, [((1, 2), 4)]), 0),
        (graph2(2, [((1, 2), 6)]), 0),
        (graph2(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]), 0),
    ],
)
def test_partition_sums(G, expect):
    assert partition_sum_check(G) == expect


def test_partition_sum_edge_cap():
    with pytest.raises(SizeExceeded):
        partition_sum_check(graph2(2, [((1, 2), MAX_PARTITION_EDGES + 2)]))


def test_single_edge_profile_closed_form():
    for v in (3, 4, 5):
        D = 3 * 2 ** (v - 3)
        assert threshold_single_edge(3, v) == 3 * D
        for t in range(D + 2):
            assert single_edge_profile(v, t) == (-1) ** t * comb(D, t)
    with pytest.raises(DomainError):
        threshold_single_edge(3, 2)
    with pytest.raises(DomainError):
        threshold_single_edge(1, 3)


def test_profile_doubling_convolution():
    # adding a vertex squares the generating polynomial
    for v in (3, 4, 5):
        D = 3 * 2 ** (v - 3)
        for t in range(2 * D + 1):
            conv = sum(
                single_edge_profile(v, j) * single_edge_profile(v, t - j)
                for j in range(max(0, t - D), min(D, t) + 1)
            )
            assert conv == single_edge_profile(v + 1, t)


def test_threshold_search_single_edge_hosts():
    e3 = MultiHypergraph.build(3, 3, [(1, 2, 3)])
    assert threshold_search(e3, 12) == (9, -1, True)

    e4 = MultiHypergraph.build(3, 4, [(1, 2, 3)])
    assert threshold_search(e4, 20) == (18, 1, True)
    assert threshold_single_edge(e4.k, e4.n) == 18


@pytest.mark.parametrize(
    "k, v, last", [(2, 2, 2), (2, 5, 2), (3, 3, 9), (3, 5, 36), (4, 4, 64), (4, 5, 192), (5, 5, 625)]
)
def test_threshold_single_edge_any_arity(k, v, last):
    # (x^k - 1)^(k^(k-2)) for the edge, raised to k-1 per isolated vertex
    assert threshold_single_edge(k, v) == last
    host = MultiHypergraph.build(k, v, [tuple(range(1, k + 1))])
    threshold, _, exact = threshold_search(host, last + k)
    assert (threshold, exact) == (last, True)
    # a bound short of the last codegree finds a lower bound only
    assert not threshold_search(host, last - 1)[2]


def test_threshold_search_misc_hosts():
    empty = MultiHypergraph.build(3, 3)
    assert threshold_search(empty, 4) == (None, None, False)

    tri = cycle_graph(3)
    # no closed form certifies graph hosts
    assert threshold_search(tri, 3) == (3, -2, False)

    with pytest.raises(DomainError):
        threshold_search(MultiHypergraph.build(3, 3, [(1, 2, 3)]), 0)


def test_coefficient_pipeline_matches_charpoly_on_random_graphs():
    from hypersachs.traces import codegree_coefficients

    rng = random.Random(23)
    for _ in range(12):
        G = random_graph(rng, rng.randint(2, 5), rng.uniform(0.2, 0.8))
        coefficients, _ = codegree_coefficients(G, G.n)
        assert coefficients == tuple(F(c) for c in charpoly_graph(G))
