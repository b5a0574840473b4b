"""Closed form for the associated coefficient of the complete k-graph on k+1
vertices (the simplex).

Euler rootings of the simplex correspond to derangements of [k+1]: edge
complement-of-i gets rooted at sigma(i).  Per derangement the arborescence
count factors over cycle lengths l as (k^l + (-1)^{l+1}), up to division by
(k+1)^2, so the total scales to an integer constant

    C_k = [ sum over derangements of prod_cycles (k^l + (-1)^{l+1}) ]
          / ((k-1)(k+1)^2)

By the exponential formula the bracketed sum is m! [x^m] of (1+x) e^{-mx} /
(1-kx) with m = k+1, a sum of m terms taken here in O(k) big-integer steps.
Where the cycle types (partitions with parts >= 2) number at most
CONTRIBUTION_CAP, the sum is also taken type by type and both must agree.
Their count never falls as m grows (adding 1 to the largest part is an
injection), so a DP that stops at the first m past the cap decides this, in
constant time for large k.  The divisor (k-1)(k+1)^2 reproduces every
published value; printed variants that drop a (k+1) do not, and the
normalization is checked (NormalizationFailure on inexact division).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, prod

from .digraph import MultiDigraph
from .errors import ConsistencyFailure, DomainError, NormalizationFailure, SizeExceeded

MAX_K = 1000
CONTRIBUTION_CAP = 2000


@dataclass(frozen=True)
class PartitionMin2:
    """Partition with every part >= 2, non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 2 for p in self.parts):
            raise DomainError(f"parts must be >= 2, got {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise DomainError(f"parts must be non-increasing, got {self.parts}")

    @property
    def m(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))


@dataclass(frozen=True)
class SimplexCoefficientReport:
    """C_k with its scaled form C_H = C_k/(k-1)^k, optional per-cycle-type
    contributions (omitted when the partition count exceeds the cap), and the
    exact-ratio decimal string C_k/((k+1)! k^{k+1})."""

    k: int
    C_k: int
    C_H: Fraction
    contributions: tuple[tuple[PartitionMin2, int], ...] | None
    asymptotic_ratio: str


def partitions_min2(m: int) -> tuple[PartitionMin2, ...]:
    """All partitions of m with parts >= 2, in descending lexicographic order;
    SizeExceeded before listing any if they number more than CONTRIBUTION_CAP."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if _min2_partition_count(m) > CONTRIBUTION_CAP:
        raise SizeExceeded(f"{m} has more than {CONTRIBUTION_CAP} partitions with parts >= 2")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, cap), 1, -1):
            if rest - p == 1:
                continue
            for tail in gen(rest - p, p):
                yield (p,) + tail

    return tuple(PartitionMin2(parts) for parts in gen(m, m))


def derangements_by_type(p: PartitionMin2) -> int:
    """Number of permutations of [m] with cycle type p; fixed-point-free since
    every part is >= 2."""
    m = p.m
    denom = prod(p.parts) * prod(
        factorial(v) for v in p.multiplicities().values()
    )
    count, rem = divmod(factorial(m), denom)
    if rem:
        raise NormalizationFailure(f"{m}! is not divisible by the centralizer order {denom}")
    return count


def cycle_factor(k: int, length: int) -> int:
    """Per-cycle arborescence factor k^l + (-1)^{l+1}."""
    return k**length + (-1) ** (length + 1)


def _derangement_cycle_sum(k: int) -> int:
    """sum over derangements of [m], m = k+1, of prod_cycles cycle_factor:
    m! [x^m] (1+x) e^{-mx} / (1-kx), evaluated by Horner's rule in k as
    (-m)^m + m * sum_{i<m} (m!/i!) (-m)^i k^{m-1-i}."""
    m = k + 1
    acc, b = 0, factorial(m)
    for i in range(m):
        acc = acc * k + b
        b = b * -m // (i + 1)
    return (-m) ** m + m * acc


def _min2_partition_count(m: int) -> int:
    """Count of partitions of m with all parts >= 2, or CONTRIBUTION_CAP + 1
    past the cap.  As the count is nondecreasing in m >= 1, the DP runs to
    orders n = 2, 4, 8, ... and stops at m or at the first n past the cap."""
    n = min(m, 2)
    while True:
        dp = [1] + [0] * n
        for part in range(2, n + 1):
            for s in range(part, n + 1):
                dp[s] += dp[s - part]
        if dp[n] > CONTRIBUTION_CAP or n == m:
            return min(dp[n], CONTRIBUTION_CAP + 1)
        n = min(m, 2 * n)


def _ratio_string(num: int, den: int) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(num) / Decimal(den))


def simplex_Ck(k: int) -> SimplexCoefficientReport:
    """Full report for the simplex constant C_k, 2 <= k <= 1000.

    Per-partition contributions are included when the number of cycle types is
    at most CONTRIBUTION_CAP; their sum is checked against the closed form.
    """
    if not 2 <= k <= MAX_K:
        raise DomainError(f"k must be in 2..{MAX_K}, got {k}")
    S = _derangement_cycle_sum(k)
    C_k, rem = divmod(S, (k - 1) * (k + 1) ** 2)
    if rem != 0:
        raise NormalizationFailure(
            f"derangement sum {S} is not divisible by (k-1)(k+1)^2 at k={k}"
        )
    contributions = None
    if _min2_partition_count(k + 1) <= CONTRIBUTION_CAP:
        entries = []
        total = 0
        for p in partitions_min2(k + 1):
            contr = derangements_by_type(p) * prod(
                cycle_factor(k, length) for length in p.parts
            )
            entries.append((p, contr))
            total += contr
        if total != S:
            raise ConsistencyFailure(
                f"cycle-type contributions sum to {total}, not the closed-form value {S}"
            )
        contributions = tuple(entries)
    return SimplexCoefficientReport(
        k=k,
        C_k=C_k,
        C_H=Fraction(C_k, (k - 1) ** k),
        contributions=contributions,
        asymptotic_ratio=_ratio_string(C_k, factorial(k + 1) * k ** (k + 1)),
    )


def _cycles_of(sigma: tuple[int, ...]) -> list[list[int]]:
    m = len(sigma)
    if sorted(sigma) != list(range(1, m + 1)):
        raise DomainError(f"not a permutation of 1..{m}: {sigma}")
    seen = [False] * (m + 1)
    cycles = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = sigma[x - 1]
        cycles.append(cyc)
    return cycles


def simplex_orientation(k: int, sigma) -> MultiDigraph:
    """Orientation of the simplex on [k+1] determined by a derangement: the
    edge omitting i is rooted at sigma(i), contributing arcs sigma(i) -> w for
    every other vertex w of that edge."""
    sigma = tuple(sigma)
    m = k + 1
    if len(sigma) != m:
        raise DomainError(f"permutation must have length {m}")
    cycles = _cycles_of(sigma)
    if any(len(c) == 1 for c in cycles):
        raise DomainError("rooting requires a fixed-point-free permutation")
    arcs = []
    for i in range(1, m + 1):
        root = sigma[i - 1]
        for w in range(1, m + 1):
            if w != i and w != root:
                arcs.append((root, w))
    return MultiDigraph.build(range(1, m + 1), arcs)
