"""Spectral power sums and coefficient assembly."""

import random
from fractions import Fraction
from math import comb

import pytest

from hypersachs.catalog import (
    complete_kgraph,
    cycle_graph,
    fano_plane,
    path_graph,
    single_edge,
)
from hypersachs.canon import canonical_form
from hypersachs.errors import ConsistencyFailure, DomainError, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.linalg import charpoly_int
from hypersachs.traces import (
    _breakdown_for,
    codegree_coefficients,
    schur_P,
    trace_bruteforce,
    trace_d,
    trace_vector,
)

F = Fraction
EDGE = single_edge(3)  # one simple edge on three vertices


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
    assert tv.values == tuple(trace_d(complete_kgraph(3), d) for d in (1, 2, 3, 4, 5))
    assert tv.trace(4) == 168
    with pytest.raises(IndexError):
        tv.trace(0)
    with pytest.raises(IndexError):
        tv.trace(6)


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
        assert trace_d(host, d) == trace_bruteforce(host, d)


def test_isolated_vertices_scale_traces():
    padded = MultiHypergraph.build(3, 4, [(1, 2, 3)])
    assert trace_d(padded, 3) == (3 - 1) * trace_d(EDGE, 3)
    assert trace_d(padded, 3) == trace_bruteforce(padded, 3)


def test_bruteforce_budget():
    with pytest.raises(SizeExceeded):
        trace_bruteforce(complete_kgraph(3), 4, budget=10)


def test_schur_anchor_and_bounds():
    assert schur_P(0, ()) == 1
    assert schur_P(3, (1, 1, 1)) == F(13, 6)
    with pytest.raises(ValueError):
        schur_P(-1, ())
    with pytest.raises(ValueError):
        schur_P(3, (1, 1))


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
        poly = charpoly_int(A)
        for d in range(n + 1):
            assert schur_P(d, ts) == poly[d]


def test_single_edge_coefficient_profile():
    table = codegree_coefficients(EDGE, 9, name="edge")
    assert table.coefficients == (1, 0, 0, -3, 0, 0, 3, 0, 0, -1)
    assert table.name == "edge"
    assert table.coefficient(3) == -3


def test_fano_leading_coefficients():
    table = codegree_coefficients(fano_plane(), 3)
    assert table.coefficients == (1, 0, 0, -336)


def test_breakdown_sums_to_coefficients():
    table = codegree_coefficients(complete_kgraph(3), 4, with_breakdown=True)
    assert sorted(table.breakdown) == [1, 2, 3, 4]
    for d, entries in table.breakdown.items():
        assert sum((v for _, v in entries), F(0)) == table.coefficient(d)
    assert len(table.breakdown[3]) == 1  # only the tripled edge contributes


def test_single_edge_breakdown_past_the_vertex_bound():
    # Cooper & Dutle: the single 3-edge has c_3t = (-1)^t C(3, t) and every
    # other coefficient 0; its breakdown at d=18 holds a union of six
    # components on 18 vertices, past the per-component bound of 16
    table = codegree_coefficients(EDGE, 18, with_breakdown=True)
    want = [(-1) ** (d // 3) * comb(3, d // 3) if d % 3 == 0 else 0 for d in range(19)]
    assert list(table.coefficients) == want
    for d, entries in table.breakdown.items():
        assert sum((v for _, v in entries), F(0)) == table.coefficient(d)
    # a class with 18 edges is a union of tripled-or-less edges whose
    # multiplicities partition 6: eleven classes, six single edges among them
    codes = [code for code, _ in table.breakdown[18]]
    assert len(set(codes)) == len(codes) == 11


def test_breakdown_mismatch_raises_consistency_failure(monkeypatch):
    # a package error, not an assert, so the check survives python -O
    def with_stray_entry(terms, d):
        return _breakdown_for(terms, d) + ((canonical_form(EDGE), F(1)),)

    monkeypatch.setattr("hypersachs.traces._breakdown_for", with_stray_entry)
    with pytest.raises(ConsistencyFailure):
        codegree_coefficients(complete_kgraph(3), 4, with_breakdown=True)


def test_graph_host_matches_adjacency_charpoly():
    table = codegree_coefficients(cycle_graph(3), 3)
    assert table.coefficients == (1, 0, -3, -2)


def test_edgeless_host():
    table = codegree_coefficients(MultiHypergraph.build(3, 2), 4)
    assert table.coefficients == (1, 0, 0, 0, 0)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        codegree_coefficients(EDGE, -1)
    doubled = MultiHypergraph.build(3, 3, [((1, 2, 3), 2)])
    with pytest.raises(DomainError):
        codegree_coefficients(doubled, 3)
