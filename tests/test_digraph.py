"""Eulerian digraphs: arborescences, circuit counts, exact charpoly."""

import random

import pytest

from helpers import euler_circuit_count_bruteforce, poly_exact_div, poly_mul
from hypersachs.digraph import (
    MultiDigraph,
    arborescence_count,
    euler_circuit_count,
    is_eulerian,
)
from hypersachs.errors import DomainError, NormalizationFailure, SizeExceeded
from hypersachs.linalg import bareiss_det, charpoly_int


def D(*arcs):
    # arcs may be (u, v) or ((u, v), mult)
    flat = []
    vs = set()
    for a in arcs:
        if isinstance(a[0], tuple):
            (u, v), m = a
        else:
            (u, v), m = a, 1
        flat.append(((u, v), m))
        vs.update((u, v))
    return MultiDigraph.build(sorted(vs), flat)


def test_build_accepts_both_arc_forms():
    d = MultiDigraph.build([1, 2], [(1, 2), ((2, 1), 3)])
    assert sum(m for _, m in d.arcs) == 4
    assert d.out_degrees() == {1: 1, 2: 3}
    assert d.in_degrees() == {1: 3, 2: 1}


def test_build_rejects_loops():
    with pytest.raises(DomainError):
        MultiDigraph.build([1, 2], [(1, 1)])


def test_is_eulerian():
    assert is_eulerian(D((1, 2), (2, 1)))
    assert is_eulerian(D((1, 2), (2, 3), (3, 1)))
    assert not is_eulerian(D((1, 2)))
    assert not is_eulerian(D((1, 2), (2, 1), (3, 4), (4, 3)))  # disconnected
    assert not is_eulerian(D((1, 2), (2, 3), (3, 1), (1, 2)))  # unbalanced


def test_arborescence_counts():
    two_cycle = D((1, 2), (2, 1))
    assert arborescence_count(two_cycle, 1) == 1
    doubled = D(((1, 2), 2), ((2, 1), 2))
    assert arborescence_count(doubled, 1) == 2
    triangle = D((1, 2), (2, 3), (3, 1))
    assert arborescence_count(triangle, 2) == 1


def test_arborescence_root_independent_when_eulerian():
    d = D((1, 2), (2, 3), (3, 1), (1, 3), (3, 2), (2, 1))
    assert is_eulerian(d)
    counts = {arborescence_count(d, r) for r in (1, 2, 3)}
    assert len(counts) == 1


@pytest.mark.parametrize(
    "d,expect",
    [
        (D((1, 2), (2, 1)), 1),
        (D(((1, 2), 2), ((2, 1), 2)), 2),
        (D((1, 2), (2, 3), (3, 1)), 1),
    ],
)
def test_euler_circuit_count_anchors(d, expect):
    assert euler_circuit_count(d) == expect
    assert euler_circuit_count_bruteforce(d) == expect


def test_euler_circuit_count_matches_bruteforce_on_random_cycle_unions():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        arcs = []
        for _ in range(rng.randint(1, 3)):
            verts = rng.sample([1, 2, 3, 4], rng.randint(2, 4))
            arcs += [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
        if len(arcs) > 9:
            continue
        d = MultiDigraph.build(sorted({v for a in arcs for v in a}), arcs)
        if not is_eulerian(d):
            continue
        assert euler_circuit_count(d) == euler_circuit_count_bruteforce(d)
        checked += 1


def test_bruteforce_arc_cap():
    arcs = [(i, i % 11 + 1) for i in range(1, 12)]
    d = MultiDigraph.build(range(1, 12), arcs)
    with pytest.raises(SizeExceeded):
        euler_circuit_count_bruteforce(d, max_arcs=10)


def test_euler_circuit_count_requires_eulerian():
    with pytest.raises(Exception):
        euler_circuit_count(D((1, 2)))


def test_charpoly_int_small_matrices():
    assert charpoly_int([[2]]) == (1, -2)
    assert charpoly_int([[0, 1], [1, 0]]) == (1, 0, -1)
    assert charpoly_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, -3, 3, -1)


def test_charpoly_trace_and_det_slots():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        poly = charpoly_int(M)
        assert len(poly) == n + 1
        assert poly[0] == 1
        assert poly[1] == -sum(M[i][i] for i in range(n))
        assert poly[n] == (-1) ** n * bareiss_det([row[:] for row in M])


def test_bareiss_det_anchors():
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[2, 0, 1], [1, 3, 2], [0, 1, 1]]) == 3


def test_poly_exact_div_raises_on_a_remainder():
    assert poly_exact_div(poly_mul([1, -1], [2, 3]), [1, -1]) == [2, 3]
    # a package error, not an assert, so the check survives python -O
    with pytest.raises(NormalizationFailure):
        poly_exact_div([1, 0, 1], [1, -1])
    with pytest.raises(NormalizationFailure):
        poly_exact_div([1, 0], [2, 1])
