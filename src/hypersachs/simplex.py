"""Closed form for the associated coefficient of the complete k-graph on k+1
vertices (the simplex).

Euler rootings of the simplex correspond to derangements of [k+1]: edge
complement-of-i gets rooted at sigma(i).  Per derangement the arborescence
count factors over cycle lengths l as (k^l + (-1)^{l+1}), up to division by
(k+1)^2, so the total scales to an integer constant

    C_k = [ sum over derangements of prod_cycles (k^l + (-1)^{l+1}) ]
          / ((k-1)(k+1)^2)

By the exponential formula the bracketed sum is m! [x^m] of (1+x) e^{-mx} /
(1-kx) with m = k+1, a sum of m terms taken here in O(k) big-integer steps;
this closed form is the only route to C_k.  Tier-1 certifies it against the
O(k^2) recurrence for k = 2..120 and 400, and against the sum over cycle
types (partitions with parts >= 2) for k = 2..32.  The divisor
(k-1)(k+1)^2 reproduces every published value; printed variants that drop a
(k+1) do not, and the normalization is checked (NormalizationFailure on
inexact division).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import factorial

from .digraph import MultiDigraph
from .errors import DomainError, NormalizationFailure

MAX_K = 1000


def _derangement_cycle_sum(k: int) -> int:
    """sum over derangements of [m], m = k+1, of prod_cycles (k^l + (-1)^{l+1}):
    m! [x^m] (1+x) e^{-mx} / (1-kx), evaluated by Horner's rule in k as
    (-m)^m + m * sum_{i<m} (m!/i!) (-m)^i k^{m-1-i}."""
    m = k + 1
    acc, b = 0, factorial(m)
    for i in range(m):
        acc = acc * k + b
        b = b * -m // (i + 1)
    return (-m) ** m + m * acc


def asymptotic_ratio(k: int, C_k: int) -> str:
    """C_k / ((k+1)! k^(k+1)) as a decimal string of 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(C_k) / Decimal(factorial(k + 1) * k ** (k + 1)))


def simplex_Ck(k: int) -> int:
    """The simplex constant C_k, 2 <= k <= 1000, from the closed form alone
    (module docstring); the simplex's class weight is C_k/(k-1)^k."""
    if not 2 <= k <= MAX_K:
        raise DomainError(f"k must be in 2..{MAX_K}, got {k}")
    S = _derangement_cycle_sum(k)
    C_k, rem = divmod(S, (k - 1) * (k + 1) ** 2)
    if rem != 0:
        raise NormalizationFailure(
            f"derangement sum {S} is not divisible by (k-1)(k+1)^2 at k={k}"
        )
    return C_k


def simplex_orientation(k: int, sigma) -> MultiDigraph:
    """Orientation of the simplex on [k+1] determined by a derangement: the
    edge omitting i is rooted at sigma(i), contributing arcs sigma(i) -> w for
    every other vertex w of that edge."""
    sigma = tuple(sigma)
    m = k + 1
    if len(sigma) != m:
        raise DomainError(f"permutation must have length {m}")
    if sorted(sigma) != list(range(1, m + 1)):
        raise DomainError(f"not a permutation of 1..{m}: {sigma}")
    if any(s == i for i, s in enumerate(sigma, start=1)):
        raise DomainError("rooting requires a fixed-point-free permutation")
    arcs = []
    for i in range(1, m + 1):
        root = sigma[i - 1]
        for w in range(1, m + 1):
            if w != i and w != root:
                arcs.append((root, w))
    return MultiDigraph.build(range(1, m + 1), arcs)
