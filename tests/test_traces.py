"""Spectral power sums and coefficient assembly."""

import inspect
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import helpers
from catalog import (
    complete_kgraph,
    cycle_graph,
    fano_plane,
    path_graph,
    single_edge,
)
from helpers import STAR_HOST, walk_enumeration_trace
from hypersachs import canon, digraph, linalg, rooting, traces, veblen_enum
from hypersachs.canon import canonical_form
from hypersachs.errors import ConsistencyFailure, DomainError, NormalizationFailure, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.linalg import charpoly_int
from hypersachs.traces import (
    _WalkExpansion,
    _breakdowns,
    _class_terms,
    _newton,
    codegree_coefficients,
    trace_bruteforce,
    trace_d,
    trace_vector,
)

F = Fraction
EDGE = single_edge(3)  # one simple edge on three vertices
K5_3 = MultiHypergraph.build(3, 5, combinations(range(1, 6), 3))


@pytest.mark.parametrize(
    "host,d,expect",
    [
        (EDGE, 1, 0),
        (EDGE, 2, 0),
        (EDGE, 3, 9),
        (complete_kgraph(3), 3, 72),
        (complete_kgraph(3), 4, 168),
        (fano_plane(), 3, 1008),
        (path_graph(3), 2, 4),
        (path_graph(3), 4, 8),
        (path_graph(3), 6, 16),
        (cycle_graph(3), 2, 6),
        (cycle_graph(3), 3, 6),
        (cycle_graph(3), 4, 18),
        (cycle_graph(3), 5, 30),
        (cycle_graph(3), 6, 66),
    ],
)
def test_trace_anchors(host, d, expect):
    assert trace_d(host, d) == expect


def test_trace_vector_agrees_with_pointwise():
    tv = trace_vector(complete_kgraph(3), 5)
    assert tv == tuple(trace_d(complete_kgraph(3), d) for d in (1, 2, 3, 4, 5))
    assert tv[3] == 168
    assert trace_vector(complete_kgraph(3), 0) == ()


@pytest.mark.parametrize(
    "host",
    [
        EDGE,
        complete_kgraph(3),
        MultiHypergraph.build(3, 4, [(1, 2, 3), (1, 2, 4)]),
        path_graph(4),
        cycle_graph(4),
    ],
)
def test_trace_matches_walk_count(host):
    for d in range(1, 5):
        assert trace_d(host, d) == trace_bruteforce(host, d) == walk_enumeration_trace(host, d)


def test_isolated_vertices_scale_traces():
    padded = MultiHypergraph.build(3, 4, [(1, 2, 3)])
    assert trace_d(padded, 3) == (3 - 1) * trace_d(EDGE, 3)
    assert trace_d(padded, 3) == trace_bruteforce(padded, 3) == walk_enumeration_trace(padded, 3)


def test_bruteforce_budget():
    with pytest.raises(SizeExceeded):
        trace_bruteforce(complete_kgraph(3), 4, budget=10)


def test_bruteforce_budget_message_states_the_estimate(monkeypatch):
    # K_4^(3) at d=4: C(7, 3) = 35 vectors to scan; only mu = (1, 1, 1, 1) is
    # Veblen, with 3^4 = 81 star choices, and those two counts are the whole
    # bound: each balanced profile then costs one determinant
    assert trace_bruteforce(complete_kgraph(3), 4, budget=81) == 168
    # the estimate comes before any star term is evaluated
    monkeypatch.setattr(_WalkExpansion, "edge_multiset_sum", None)
    with pytest.raises(SizeExceeded, match=r"^walk expansion of order 4: 35 multiplicity vectors, budget 10$"):
        trace_bruteforce(complete_kgraph(3), 4, budget=10)
    with pytest.raises(SizeExceeded, match=r"^walk expansion of order 4: 81 star choices, budget 80$"):
        trace_bruteforce(complete_kgraph(3), 4, budget=80)
    # K_6^(5) at d=6: every edge once is the only Veblen vector, with 5^6
    # star choices
    with pytest.raises(SizeExceeded, match=r": 15625 star choices, budget 15624$"):
        trace_bruteforce(complete_kgraph(5), 6, budget=15624)
    with pytest.raises(SizeExceeded, match=r": 47145 star choices, budget 47144$"):
        trace_bruteforce(fano_plane(), 9, budget=47144)


def test_bruteforce_evaluates_long_walks():
    # a profile's walks are counted by one determinant whatever their
    # length, so walks of 300 arcs and more evaluate like short ones
    assert [trace_bruteforce(single_edge(2), d) for d in (300, 301, 302)] == [2, 0, 2]
    assert trace_bruteforce(single_edge(3), 151) == 0
    assert trace_bruteforce(single_edge(3), 153) == trace_d(single_edge(3), 153) == 9


@pytest.mark.parametrize(
    "host,max_order",
    [(fano_plane(), 9), (STAR_HOST, 9), (K5_3, 6), (complete_kgraph(4), 5)],
    ids=["fano-9", "star-9", "K5_3-6", "K5_4-5"],
)
def test_bruteforce_certifies_trace_vector(host, max_order):
    want = trace_vector(host, max_order)
    assert tuple(trace_bruteforce(host, d) for d in range(1, max_order + 1)) == want


def test_bruteforce_uses_no_class_data(monkeypatch):
    # the walk expansion must stay independent of what it certifies: every
    # function of canon, veblen_enum, rooting, digraph and linalg raises
    hosts = [fano_plane(), STAR_HOST, complete_kgraph(4)]
    want = [trace_vector(host, 5) for host in hosts]

    def forbidden(*args, **kwargs):
        raise AssertionError("the walk expansion called class-data code")

    for module in (canon, veblen_enum, rooting, digraph, linalg):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(traces, "connected_infragraph_classes", forbidden)
    monkeypatch.setattr(traces, "_union_code", forbidden)
    for host, values in zip(hosts, want):
        assert tuple(trace_bruteforce(host, d) for d in range(1, 6)) == values


def test_inexact_walk_rotation_split_raises(monkeypatch):
    # the reference trail count raises a package error, not an assert: with
    # one trail from vertex 1, this balanced profile's 5 rotations do not
    # split over the 2 visits of vertex 1
    monkeypatch.setattr(helpers, "_trails", lambda arcs, cur, left, memo: 1)
    with pytest.raises(NormalizationFailure, match="5 rotations do not split over 2 visits"):
        helpers.trail_walk_count({(1, 2): 2, (2, 1): 1, (2, 3): 1, (3, 1): 1})


def test_schur_anchor_and_bounds():
    assert _newton(()) == [1]
    assert _newton((1, 1, 1)) == [1, 1, F(3, 2), F(13, 6)]


def test_schur_reassembles_integer_charpolys():
    # power sums of any integer matrix feed back to its characteristic
    # polynomial; independent of the hypergraph machinery entirely
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        power = A
        traces = []
        for _ in range(n):
            traces.append(sum(power[i][i] for i in range(n)))
            power = [
                [sum(power[i][k] * A[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        ts = [F(-traces[j - 1], j) for j in range(1, n + 1)]
        assert tuple(_newton(ts)) == charpoly_int(A)


def test_single_edge_coefficient_profile():
    assert codegree_coefficients(EDGE, 9) == ((1, 0, 0, -3, 0, 0, 3, 0, 0, -1), None)


def test_fano_leading_coefficients():
    assert codegree_coefficients(fano_plane(), 3)[0] == (1, 0, 0, -336)


def test_breakdown_sums_to_coefficients():
    coefficients, breakdown = codegree_coefficients(complete_kgraph(3), 4, with_breakdown=True)
    assert sorted(breakdown) == [1, 2, 3, 4]
    for d, entries in breakdown.items():
        assert sum((v for _, v in entries), F(0)) == coefficients[d]
    assert len(breakdown[3]) == 1  # only the tripled edge contributes


def test_single_edge_breakdown_past_the_vertex_bound():
    # Cooper & Dutle: the single 3-edge has c_3t = (-1)^t C(3, t) and every
    # other coefficient 0; its breakdown at d=18 holds a union of six
    # components on 18 vertices, past the per-component bound of 16
    coefficients, breakdown = codegree_coefficients(EDGE, 18, with_breakdown=True)
    want = [(-1) ** (d // 3) * comb(3, d // 3) if d % 3 == 0 else 0 for d in range(19)]
    assert list(coefficients) == want
    for d, entries in breakdown.items():
        assert sum((v for _, v in entries), F(0)) == coefficients[d]
    # a class with 18 edges is a union of tripled-or-less edges whose
    # multiplicities partition 6: eleven classes, six single edges among them
    codes = [code for code, _ in breakdown[18]]
    assert len(set(codes)) == len(codes) == 11


def test_breakdown_mismatch_raises_consistency_failure(monkeypatch):
    # a package error, not an assert, so the check survives python -O
    def with_stray_entry(terms, max_d):
        found = _breakdowns(terms, max_d)
        return {**found, 4: found[4] + ((canonical_form(EDGE), F(1)),)}

    monkeypatch.setattr("hypersachs.traces._breakdowns", with_stray_entry)
    with pytest.raises(ConsistencyFailure):
        codegree_coefficients(complete_kgraph(3), 4, with_breakdown=True)


@pytest.mark.parametrize(
    "host,max_d,pinned",
    [
        (complete_kgraph(3), 12, [0, 0, 1, 1, 0, 3, 2, 2, 6, 6, 4, 16]),
        (fano_plane(), 9, None),
    ],
)
def test_breakdown_lists_every_multiset_of_class_terms_once(host, max_d, pinned):
    # one entry per multiset of class terms with d edges in all: their number
    # is the x^d coefficient of prod over terms of 1/(1 - x^edges), so a
    # dropped or doubled multiset shows even where the sums still agree
    multisets = [1] + [0] * max_d
    for edges, _code, _x in _class_terms(host, max_d):
        for total in range(edges, max_d + 1):
            multisets[total] += multisets[total - edges]
    _, breakdown = codegree_coefficients(host, max_d, with_breakdown=True)
    assert sorted(breakdown) == list(range(1, max_d + 1))
    assert [len(breakdown[d]) for d in range(1, max_d + 1)] == multisets[1:]
    assert pinned is None or multisets[1:] == pinned
    for entries in breakdown.values():
        codes = [code for code, _ in entries]
        assert len(set(codes)) == len(codes)


def test_graph_host_matches_adjacency_charpoly():
    assert codegree_coefficients(cycle_graph(3), 3)[0] == (1, 0, -3, -2)


def test_edgeless_host():
    assert codegree_coefficients(MultiHypergraph.build(3, 2), 4)[0] == (1, 0, 0, 0, 0)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        codegree_coefficients(EDGE, -1)
    doubled = MultiHypergraph.build(3, 3, [((1, 2, 3), 2)])
    with pytest.raises(DomainError):
        codegree_coefficients(doubled, 3)


@pytest.mark.parametrize("trace", [trace_d, trace_bruteforce])
def test_trace_order_below_one_is_a_domain_error(trace):
    with pytest.raises(DomainError):
        trace(EDGE, 0)
