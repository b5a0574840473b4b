"""Spectral power sums and characteristic-polynomial coefficients of uniform
hypergraphs, all in exact rational arithmetic.

`codegree_coefficients` has one assembly route.  Every connected class
realized in the host contributes the additive term -(k-1)^n * weight *
labeled count at its edge count; summing those terms per edge count gives
-Tr_d/d, and Newton's identities (`schur_P`) turn them into polynomial
coefficients.  `trace_d` evaluates Tr_d from the same class data, so it is no
certificate of the class weights.

`trace_bruteforce` is a from-scratch oracle for the power sums: it expands the
defining operator formula into pointed closed walks on the host and weighs
each arc profile by the number of ways to realize it as a union of edge stars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .canon import CanonicalCode, _union_code
from .errors import ConsistencyFailure, NormalizationFailure, SizeExceeded
from .hypergraph import MultiHypergraph, require_simple
from .veblen_enum import connected_infragraph_classes


@dataclass(frozen=True)
class TraceVector:
    """Power sums of orders 1..len(values) for a host."""

    host: MultiHypergraph
    values: tuple[Fraction, ...]

    def trace(self, d: int) -> Fraction:
        if not 1 <= d <= len(self.values):
            raise IndexError(f"trace order {d} outside 1..{len(self.values)}")
        return self.values[d - 1]


@dataclass(frozen=True)
class CoefficientTable:
    """Characteristic-polynomial coefficients c_0..c_D of a host, with c_0=1,
    optionally with per-order breakdowns into isomorphism-class contributions."""

    host: MultiHypergraph
    name: str | None
    max_codegree: int
    coefficients: tuple[Fraction, ...]
    breakdown: dict[int, tuple[tuple[CanonicalCode, Fraction], ...]] | None = None

    def coefficient(self, d: int) -> Fraction:
        return self.coefficients[d]


def trace_d(host: MultiHypergraph, d: int) -> Fraction:
    """Power sum of order d: d*(k-1)^n times the sum over connected classes
    realized in the host of (associated coefficient) * (labeled count)."""
    require_simple(host)
    if d < 1:
        raise ValueError("trace order must be >= 1")
    scale = d * Fraction(host.k - 1) ** host.n
    total = Fraction(0)
    for rec in connected_infragraph_classes(host, d, with_coeffs=True):
        total += rec.assoc_coeff * rec.labeled_count
    return scale * total


def trace_vector(host: MultiHypergraph, max_order: int) -> TraceVector:
    # the largest order first: its walk fills the tables of the smaller ones
    values = [trace_d(host, d) for d in range(max_order, 0, -1)]
    return TraceVector(host=host, values=tuple(reversed(values)))


def _star_decomposition_count(arcs_out: dict[int, int], stars: list[tuple[tuple[int, ...], int]], d_i: int) -> int:
    """Number of ordered length-d_i sequences of stars at a fixed root whose
    arc multiset equals arcs_out; stars are (other-endpoints, weight) pairs."""
    remaining = dict(arcs_out)

    def rec(idx: int) -> Fraction:
        if idx == len(stars):
            return Fraction(1) if all(c == 0 for c in remaining.values()) else Fraction(0)
        heads, weight = stars[idx]
        cap = min(remaining[w] for w in heads) if all(w in remaining for w in heads) else 0
        total = Fraction(0)
        for m in range(cap + 1):
            if m:
                for w in heads:
                    remaining[w] -= m
            sub = rec(idx + 1)
            if m:
                for w in heads:
                    remaining[w] += m
            if sub:
                total += Fraction(weight**m, factorial(m)) * sub
        return total

    value = rec(0) * factorial(d_i)
    if value.denominator != 1:
        raise NormalizationFailure(f"star decomposition count {value} is not integral")
    return value.numerator


def trace_bruteforce(host: MultiHypergraph, d: int, budget: int = 10_000_000) -> Fraction:
    """Power sum of order d computed from the defining operator expansion.

    Pointed closed walks of length d*(k-1) on the non-isolated vertices are
    grouped by arc profile; each profile is weighted by the per-vertex count
    of star sequences realizing its out-arcs, divided by out-degree
    factorials, times the profile factorials.  The walk space is capped at
    `budget` (m^L with m support vertices) and exceeding it raises.
    """
    if d < 1:
        raise ValueError("trace order must be >= 1")
    k = host.k
    L = d * (k - 1)
    support = host.non_isolated
    m = len(support)
    if m == 0:
        return Fraction(0)
    if m**L > budget:
        raise SizeExceeded(f"walk space {m}^{L} exceeds budget {budget}")
    nbrs: dict[int, set[int]] = {v: set() for v in support}
    stars_at: dict[int, list[tuple[tuple[int, ...], int]]] = {v: [] for v in support}
    for e, mult in host.edges:
        for v in e:
            others = tuple(sorted(w for w in e if w != v))
            nbrs[v].update(others)
            stars_at[v].append((others, mult))

    profiles: dict[tuple, int] = {}
    arc_counts: dict[tuple[int, int], int] = {}

    def walk(cur: int, left: int, start: int) -> None:
        if left == 0:
            if cur == start:
                key = tuple(sorted(arc_counts.items()))
                profiles[key] = profiles.get(key, 0) + 1
            return
        for nxt in nbrs[cur]:
            arc = (cur, nxt)
            arc_counts[arc] = arc_counts.get(arc, 0) + 1
            walk(nxt, left - 1, start)
            arc_counts[arc] -= 1
            if arc_counts[arc] == 0:
                del arc_counts[arc]

    for s in support:
        walk(s, L, s)

    total = Fraction(0)
    for key, walk_count in profiles.items():
        out: dict[int, int] = {}
        for (u, _), c in key:
            out[u] = out.get(u, 0) + c
        if any(o % (k - 1) != 0 for o in out.values()):
            continue
        factor = Fraction(1)
        ok = True
        for u, o in out.items():
            arcs_out = {v: c for (x, v), c in key if x == u}
            w_u = _star_decomposition_count(arcs_out, stars_at[u], o // (k - 1))
            if w_u == 0:
                ok = False
                break
            factor *= Fraction(w_u, factorial(o))
        if not ok:
            continue
        for _, c in key:
            factor *= factorial(c)
        total += walk_count * factor
    return Fraction(k - 1) ** (host.n - 1) * total


def schur_P(d: int, ts) -> Fraction:
    """d-th complete-homogeneous-style polynomial in the power-sum inputs:
    P_0 = 1, P_d = (1/d) * sum_{j=1..d} j * ts[j-1] * P_{d-j}."""
    if d < 0:
        raise ValueError("order must be >= 0")
    tvals = [Fraction(t) for t in ts]
    if len(tvals) < d:
        raise ValueError(f"need at least {d} inputs, got {len(tvals)}")
    P = [Fraction(1)] + [Fraction(0)] * d
    for i in range(1, d + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            acc += j * tvals[j - 1] * P[i - j]
        P[i] = acc / i
    return P[d]


def _class_terms(host: MultiHypergraph, max_d: int):
    """(edge count, code, term value) for each connected class
    realized in the host with at most max_d edges, in increasing edge count;
    the term is the class's additive weight -(k-1)^n * coeff * count."""
    sign_scale = -(Fraction(host.k - 1) ** host.n)
    # the largest order first: its walk fills the tables of the smaller ones
    per_order = [connected_infragraph_classes(host, dd, with_coeffs=True) for dd in range(max_d, 0, -1)]
    return [
        (rec.edge_count, rec.code, sign_scale * rec.assoc_coeff * rec.labeled_count)
        for records in reversed(per_order)
        for rec in records
    ]


def _breakdown_for(terms, d: int) -> tuple[tuple[CanonicalCode, Fraction], ...]:
    """Per-class contributions to c_d: one entry per Veblen class with d edges
    realized in the host (components may repeat), summing to c_d.  `terms`
    are `_class_terms` of the host, in increasing edge count; each entry's
    code is the union code of the component codes they hold."""
    entries: list[tuple[CanonicalCode, Fraction]] = []

    def rec(idx: int, left: int, chosen: list[tuple[int, int]], weight: Fraction):
        if left == 0:
            codes = [terms[t_idx][1] for t_idx, mu in chosen for _ in range(mu)]
            entries.append((_union_code(codes), weight))
            return
        if idx == len(terms) or terms[idx][0] > left:
            return
        dd, _code, x = terms[idx]
        rec(idx + 1, left, chosen, weight)
        mu = 1
        power = x
        while dd * mu <= left:
            chosen.append((idx, mu))
            rec(idx + 1, left - dd * mu, chosen, weight * power / factorial(mu))
            chosen.pop()
            mu += 1
            power *= x

    rec(0, d, [], Fraction(1))
    entries.sort(key=lambda pair: pair[0].blob)
    return tuple(entries)


def codegree_coefficients(
    host: MultiHypergraph,
    max_codegree: int,
    name: str | None = None,
    with_breakdown: bool = False,
) -> CoefficientTable:
    """Coefficients c_0..c_max_codegree of the host's characteristic
    polynomial (c_d multiplies x^(t-d) with t the polynomial degree).

    The class terms are computed once; their per-edge-count sums feed
    `schur_P`, and the optional breakdown splits each c_d over the same
    terms.  A breakdown that does not sum to its coefficient raises
    ConsistencyFailure.
    """
    require_simple(host)
    if max_codegree < 0:
        raise ValueError("max_codegree must be >= 0")
    terms = _class_terms(host, max_codegree)
    ts = [Fraction(0)] * max_codegree
    for dd, _code, x in terms:
        ts[dd - 1] += x
    coefficients = tuple(schur_P(dv, ts) for dv in range(max_codegree + 1))
    breakdown = None
    if with_breakdown:
        breakdown = {
            dv: _breakdown_for(terms, dv) for dv in range(1, max_codegree + 1)
        }
        for dv, entries in breakdown.items():
            total = sum((val for _, val in entries), Fraction(0))
            if total != coefficients[dv]:
                raise ConsistencyFailure(
                    f"breakdown of c_{dv} sums to {total}, not {coefficients[dv]}"
                )
    return CoefficientTable(
        host=host,
        name=name,
        max_codegree=max_codegree,
        coefficients=coefficients,
        breakdown=breakdown,
    )
