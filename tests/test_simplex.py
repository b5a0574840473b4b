"""Simplex coefficients, derangement cycle types, spectrum predictions."""

import hashlib
import random
from fractions import Fraction

import pytest

from catalog import complete_kgraph
from helpers import (
    _cycles_of,
    cycle_factor,
    derangement_cycle_sum_by_type,
    derangement_cycle_sum_recurrence,
    derangements_by_type,
    partitions_min2,
    predicted_spectrum_MJ,
    simplex_tau_formula,
)
from hypersachs.digraph import arborescence_count, is_eulerian
from hypersachs.errors import DomainError
from hypersachs.linalg import charpoly_int
from hypersachs.rooting import assoc_coeff_connected
from hypersachs.simplex import MAX_K, _derangement_cycle_sum, asymptotic_ratio, simplex_Ck, simplex_orientation

CK = {
    2: 2,
    3: 21,
    4: 588,
    5: 28230,
    6: 2092206,
    7: 220611384,
    8: 31373370936,
    9: 5785037767440,
    10: 1342136211324090,
}

# number of derangements of [m], indexed by m
SUBFACT = {2: 1, 3: 2, 4: 9, 5: 44, 6: 265, 7: 1854, 8: 14833}


@pytest.mark.parametrize("k", sorted(CK))
def test_simplex_constants(k):
    assert simplex_Ck(k) == CK[k]


def test_matches_rooting_route_for_the_tetrahedron():
    assert assoc_coeff_connected(complete_kgraph(3)) * 2 ** 3 == simplex_Ck(3)


def test_partitions_min2():
    assert set(partitions_min2(7)) == {(7,), (5, 2), (4, 3), (3, 2, 2)}
    assert set(partitions_min2(4)) == {(4,), (2, 2)}
    assert [len(list(partitions_min2(m))) for m in range(2, 11)] == [
        1, 1, 2, 2, 4, 4, 7, 8, 12,
    ]


def test_derangement_counts_by_cycle_type():
    assert derangements_by_type((2, 2)) == 3
    assert derangements_by_type((4,)) == 6
    for m, total in SUBFACT.items():
        assert sum(derangements_by_type(p) for p in partitions_min2(m)) == total


def test_cycle_factor_values():
    assert cycle_factor(3, 2) == 8
    assert cycle_factor(3, 3) == 28
    assert cycle_factor(2, 2) == 3
    assert cycle_factor(10, 4) == 9999


def test_tau_anchors():
    assert simplex_tau_formula(3, (4,)) == 5
    assert simplex_tau_formula(3, (2, 2)) == 4


def random_derangement(rng, m):
    while True:
        p = list(range(1, m + 1))
        rng.shuffle(p)
        if all(p[i] != i + 1 for i in range(m)):
            return tuple(p)


def cycle_type(sigma):
    return tuple(sorted((len(c) for c in _cycles_of(sigma)), reverse=True))


def test_tau_formula_matches_arborescence_count():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 6)
        sigma = random_derangement(rng, k + 1)
        d = simplex_orientation(k, sigma)
        assert is_eulerian(d)
        assert sum(m for _, m in d.arcs) == (k + 1) * (k - 1)
        tau = simplex_tau_formula(k, cycle_type(sigma))
        assert arborescence_count(d, 1) == tau


def test_orientation_rejects_non_derangements():
    with pytest.raises(DomainError):
        simplex_orientation(3, (1, 3, 4, 2))  # fixed point
    with pytest.raises(DomainError):
        simplex_orientation(3, (2, 1))  # wrong length
    with pytest.raises(DomainError):
        simplex_orientation(3, (2, 2, 4, 1))  # not a permutation


def test_predicted_spectrum_small_cases():
    pred = predicted_spectrum_MJ((1, 2))  # identity on two points
    assert tuple(pred.charpoly()) == (1, 0, -1)
    assert pred.integer_eigenvalue == -1
    swap = predicted_spectrum_MJ((2, 1))
    assert tuple(swap.charpoly()) == (1, 2, 1)
    assert swap.cycle_lengths == (2,)


def test_predicted_spectrum_matches_matrix_charpoly():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randint(1, 8)
        sigma = list(range(1, m + 1))
        rng.shuffle(sigma)
        # permutation matrix minus all-ones
        M = [[(1 if sigma[j] == i + 1 else 0) - 1 for j in range(m)] for i in range(m)]
        pred = predicted_spectrum_MJ(tuple(sigma))
        assert charpoly_int(M) == tuple(pred.charpoly())
        assert len(pred.unity_roots) == m - 1
        assert pred.integer_eigenvalue == 1 - m


def test_monotone_growth():
    values = [simplex_Ck(k) for k in range(2, 31)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_asymptotic_ratio_strings():
    assert asymptotic_ratio(5, simplex_Ck(5)) == "0.00250933333333"
    assert asymptotic_ratio(100, simplex_Ck(100)) == "3.64255405112E-7"


def test_large_value_prefix():
    assert str(simplex_Ck(100)).startswith("3433452419824795908447767175")


@pytest.mark.parametrize("k", list(range(2, 121)) + [400])
def test_closed_form_matches_recurrence(k):
    assert _derangement_cycle_sum(k) == derangement_cycle_sum_recurrence(k)


@pytest.mark.parametrize("k", range(2, 33))
def test_closed_form_matches_cycle_type_sum(k):
    # the paper's sum over the cycle types of [k+1]'s derangements (1794 types at k = 32)
    assert _derangement_cycle_sum(k) == derangement_cycle_sum_by_type(k)


def test_max_k_boundary():
    # recorded once from the O(k^2) recurrence (about 23 s); C_k has 5565
    # decimal digits, past the default int-to-str limit, so its hex is hashed
    C_k = simplex_Ck(MAX_K)
    assert asymptotic_ratio(MAX_K, C_k) == "3.67512113121E-10"
    assert hashlib.sha256(hex(C_k).encode()).hexdigest() == (
        "6598c54f1c5c0dbb690f012b57c4dab6245d0fd861e05e971cbfa45321c07972"
    )


def test_domain_bounds():
    with pytest.raises(DomainError):
        simplex_Ck(1)
    with pytest.raises(DomainError):
        simplex_Ck(1001)
