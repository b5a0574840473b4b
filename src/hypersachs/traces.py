"""Spectral power sums and characteristic-polynomial coefficients of uniform
hypergraphs, all in exact rational arithmetic.

`codegree_coefficients` has one assembly route, and one function,
`_order_terms`, states its class terms: every connected class realized in
the host with d edges contributes -(k-1)^n * weight * labeled count, and
the terms of order d sum to -Tr_d/d; classes, codes (bytes) and counts come
from `veblen_enum`, weights from `rooting._class_weight`.  `trace_d` returns
-d times that sum, so it is no certificate of the class weights.  One pass
of Newton's identities per table (`_newton`) turns the per-order sums into
c_0..c_D in O(D^2) rational steps, and one walk over the multisets of the
same terms (`_breakdowns`) splits every c_d by class.

`trace_bruteforce` certifies the power sums without any class data.  It
evaluates the trace formula of the adjacency tensor (Morozov & Shakirov
2011; Shao, Qi & Hu 2015), Tr_d = (k-1)^(n-1) times the sum over
d_1 + ... + d_n = d of prod_v [(sum_{e ∋ v} m_e prod_{w ∈ e∖v} ∂/∂z_vw)^d_v
/ ((k-1) d_v)!] applied to tr(Z^((k-1) d)).  Expanding each vertex's
operator gives star multiplicities s[v, e], the times edge e is rooted at v;
they fix an edge multiset mu and an arc profile c, whose monomial takes
tr(Z^L) to W(c) prod_a c_a!, with W(c) the pointed closed walks of arc
multiset c.  W(c) vanishes unless c is balanced, i.e. d_v = deg_mu(v)/k;
then out(v) = (k-1) d_v, and by the BEST theorem (van Aardenne-Ehrenfest &
de Bruijn 1951) and the matrix-tree theorem (Tutte 1948) W(c) prod_a c_a! =
L t(c) prod_v ((k-1) d_v - 1)!, with t(c) one minor of c's out-degree
Laplacian.  One walk over the edges of mu picks their star splits under the
quotas d_v and keeps that Laplacian in place; the module's own `_det` takes
each minor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, inf, prod

from .canon import _union_code
from .errors import ConsistencyFailure, DomainError, SizeExceeded
from .hypergraph import MultiHypergraph, _compositions, require_simple
from .rooting import _class_weight
from .veblen_enum import connected_infragraph_classes


def trace_d(host: MultiHypergraph, d: int) -> Fraction:
    """Power sum of order d: -d times the sum of `_order_terms(host, d)`."""
    require_simple(host)
    if d < 1:
        raise DomainError("trace order must be >= 1")
    return -d * sum((x for _, _, x in _order_terms(host, d)), Fraction(0))


def trace_vector(host: MultiHypergraph, max_order: int) -> tuple[Fraction, ...]:
    """Power sums of orders 1..max_order."""
    # the largest order first: its walk fills the tables of the smaller ones
    values = [trace_d(host, d) for d in range(max_order, 0, -1)]
    return tuple(reversed(values))


class _WalkExpansion:
    """The trace formula on one host, summed by star profile.  Every bound is
    checked before the first star term; each balanced profile costs one minor."""

    def __init__(self, host: MultiHypergraph, budget: float = inf):
        self.k, self.n, self.edges, self.budget = host.k, host.n, host.edges, budget

    def _quotas(self, mu) -> dict[int, int] | None:
        """d_v = deg(v)/k under the edge multiset mu; None if k divides not every degree."""
        deg: dict[int, int] = {}
        for (edge, _), m in zip(self.edges, mu):
            for v in edge:
                deg[v] = deg.get(v, 0) + m
        return None if any(x % self.k for x in deg.values()) else {v: x // self.k for v, x in deg.items()}

    def _profiles(self, mu, quota: dict[int, int]):
        """(lap, den) per balanced star choice under mu: lap is its arc profile's
        out-degree Laplacian on the vertices with d_v > 0 in `quota` order, live
        (read it before the next step), and den = prod s[v, e]!.  The walk over the
        edges with mu_e > 0 takes splits from the unbounded `_compositions`, skips
        any that roots more than a vertex still needs, and checks balance at the leaf."""
        at = {v: i for i, v in enumerate(v for v, q in quota.items() if q)}
        need = [quota[v] for v in at]
        lap = [[(self.k - 1) * q if i == j else 0 for j in range(len(at))] for i, q in enumerate(need)]
        used = [(tuple(at[v] for v in e), m) for (e, _), m in zip(self.edges, mu) if m]

        def star(e, split, sign: int):
            # sign 1 roots split[t] stars of e at e[t], each with an arc to every other vertex; -1 undoes it
            for v, s in zip(e, split):
                need[v] -= sign * s
                for w in e:
                    if w != v:
                        lap[v][w] -= sign * s

        def rec(i: int, den: int):
            if i == len(used):
                if not any(need):  # each v rooted d_v stars, so in(v) = deg(v) - d_v = out(v)
                    yield lap, den
                return
            e, m = used[i]
            for split in _compositions(m, self.k):
                if all(s <= need[v] for v, s in zip(e, split)):
                    star(e, split, 1)
                    yield from rec(i + 1, den * prod(map(factorial, split)))
                    star(e, split, -1)

        yield from rec(0, 1)

    def edge_multiset_sum(self, mu) -> Fraction:
        """Sum of the star terms whose edge multiset is `mu` (aligned with
        the host's edges), including the (k-1)^(n-1) prefactor.  By the BEST
        theorem W(c) prod_a c_a! = L t(c) prod_v ((k-1) d_v - 1)!, and
        ((k-1) d_v - 1)! d_v! / ((k-1) d_v)! = d_v! / ((k-1) d_v)."""
        k, quota = self.k, self._quotas(mu)
        if quota is None:
            return Fraction(0)
        # t(c), the minor without the first vertex: the arborescences into it
        trees = sum(Fraction(_det([row[1:] for row in lap[1:]]), den) for lap, den in self._profiles(mu, quota))
        scale = prod(mult**m for (_, mult), m in zip(self.edges, mu)) * Fraction(k - 1) ** (self.n - 1)
        tours = (k - 1) * sum(mu) * prod(Fraction(factorial(q), (k - 1) * q) for q in quota.values() if q)
        return scale * tours * trees

    def trace(self, d: int) -> Fraction:
        """Tr_d; vectors to scan and star choices meet their bounds first."""
        k, E, budget = self.k, len(self.edges), self.budget
        scan = comb(d + E - 1, E - 1) if E else 0
        if scan > budget:
            raise SizeExceeded(f"walk expansion of order {d}: {scan} multiplicity vectors, budget {budget}")
        vectors = [mu for mu in _compositions(d, E) if self._quotas(mu) is not None]
        choices = sum(prod(comb(m + k - 1, k - 1) for m in mu) for mu in vectors)
        if choices > budget:
            raise SizeExceeded(f"walk expansion of order {d}: {choices} star choices, budget {budget}")
        return sum((self.edge_multiset_sum(mu) for mu in vectors), Fraction(0))


def _det(m: list[list[int]]) -> int:
    """Determinant of a reduced Laplacian by fraction-free (Bareiss)
    elimination, in place; the certificate's own, not `linalg`'s.  It is an
    M-matrix, so a zero pivot, a leading principal minor, makes the
    determinant 0 (Fischer's inequality) and no row is swapped."""
    prev = 1
    for i in range(len(m)):
        if not m[i][i]:
            return 0
        for r in range(i + 1, len(m)):
            for j in range(i + 1, len(m)):
                m[r][j] = (m[r][j] * m[i][i] - m[r][i] * m[i][j]) // prev
        prev = m[i][i]
    return prev


def trace_bruteforce(host: MultiHypergraph, d: int, budget: int = 10_000_000) -> Fraction:
    """Power sum of order d by the walk expansion (see the module docstring),
    one Laplacian minor per balanced star profile.  More than `budget`
    multiplicity vectors to scan or prod_e C(mu_e+k-1, k-1) star choices
    raise SizeExceeded before any star term; past those two bounds the
    expansion raises nothing."""
    if d < 1:
        raise DomainError("trace order must be >= 1")
    return _WalkExpansion(host, budget).trace(d)


def _newton(ts) -> list[Fraction]:
    """P_0..P_len(ts) by one pass of Newton's recurrence:
    P_0 = 1, P_d = (1/d) * sum_{j=1..d} j * ts[j-1] * P_{d-j}."""
    P = [Fraction(1)]
    for i in range(1, len(ts) + 1):
        P.append(sum((j * ts[j - 1] * P[i - j] for j in range(1, i + 1)), Fraction(0)) / i)
    return P


def _order_terms(host: MultiHypergraph, d: int):
    """(d, code, term) for each connected class with d edges realized in the
    host; the term is the class's -(k-1)^n * weight * labeled count."""
    sign_scale = -(Fraction(host.k - 1) ** host.n)
    return [(d, rec.code, sign_scale * _class_weight(rec.code, rec.representative) * rec.labeled_count)
            for rec in connected_infragraph_classes(host, d)]


def _class_terms(host: MultiHypergraph, max_d: int):
    """`_order_terms` of orders 1..max_d, in increasing edge count."""
    # the largest order first: its walk fills the tables of the smaller ones
    per_order = [_order_terms(host, dd) for dd in range(max_d, 0, -1)]
    return [term for terms in reversed(per_order) for term in terms]


def _breakdowns(terms, max_d: int) -> dict[int, tuple[tuple[bytes, Fraction], ...]]:
    """Per-class contributions to c_1..c_max_d, from one walk over the
    multisets of `terms` (`_class_terms`) with at most max_d edges in all:
    each is one Veblen class realized in the host, filed under its edge count
    with its components' union code and weight prod x^mu / mu!."""
    entries: dict[int, list] = {d: [] for d in range(1, max_d + 1)}

    def rec(idx: int, used: int, codes: list[bytes], weight: Fraction):
        if idx == len(terms) or used + terms[idx][0] > max_d:
            if used:
                entries[used].append((_union_code(codes), weight))
            return
        dd, code, x = terms[idx]
        rec(idx + 1, used, codes, weight)
        mu, power = 1, x
        while used + dd * mu <= max_d:
            rec(idx + 1, used + dd * mu, codes + [code] * mu, weight * power / factorial(mu))
            mu, power = mu + 1, power * x

    rec(0, 0, [], Fraction(1))
    return {d: tuple(sorted(found)) for d, found in entries.items()}


def codegree_coefficients(
    host: MultiHypergraph, max_codegree: int, with_breakdown: bool = False
) -> tuple[tuple[Fraction, ...], dict[int, tuple[tuple[bytes, Fraction], ...]] | None]:
    """(coefficients, breakdown): the coefficients c_0..c_max_codegree of the
    host's characteristic polynomial (c_0 = 1, and c_d multiplies x^(t-d) with
    t the polynomial degree), and with `with_breakdown` each c_d's
    per-class contributions by codegree 1..max_codegree, else None.

    The class terms are computed once; their per-edge-count sums feed one
    pass of Newton's recurrence, and the optional breakdown splits every c_d
    over the same terms in one walk.  A breakdown that does not sum to its
    coefficient raises ConsistencyFailure.
    """
    require_simple(host)
    if max_codegree < 0:
        raise DomainError("max_codegree must be >= 0")
    terms = _class_terms(host, max_codegree)
    ts = [Fraction(0)] * max_codegree
    for dd, _code, x in terms:
        ts[dd - 1] += x
    coefficients = tuple(_newton(ts))
    if not with_breakdown:
        return coefficients, None
    breakdown = _breakdowns(terms, max_codegree)
    for dv, entries in breakdown.items():
        total = sum((val for _, val in entries), Fraction(0))
        if total != coefficients[dv]:
            raise ConsistencyFailure(f"breakdown of c_{dv} sums to {total}, not {coefficients[dv]}")
    return coefficients, breakdown
