"""Enumeration of Veblen hypergraphs up to isomorphism.

Two flavours:

* free enumeration: all connected isomorphism classes with a given edge count
  (counting multiplicity) and arity, generated by an orderly DFS over sorted
  edge sequences and deduplicated by canonical code;
* host-relative enumeration: the classes realized by multiplicity functions on
  the edge set of a fixed host, together with how many functions realize each
  class (the labeled count), from one pruned depth-first walk over the
  host-edge multiplicities that fills the tables of every order at once.

Occurrence counts of disconnected graphs in a host factor over components,
divided by the symmetry of repeated components, so they can be non-integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .canon import VERTEX_BOUND, CanonicalCode, canonical_form
from .errors import ConsistencyFailure, SizeExceeded
from .hypergraph import MultiHypergraph, components, is_connected, require_simple
from .rooting import _coeff_memo, assoc_coeff_connected

MAX_FREE_EDGES = 9


@dataclass(frozen=True)
class IsoClassRecord:
    """One isomorphism class: canonical code, a representative on vertices
    1..v, its edge count, and optionally its associated coefficient and (for
    host-relative enumeration) the number of multiplicity functions on the
    host realizing the class."""

    code: CanonicalCode
    representative: MultiHypergraph
    edge_count: int
    assoc_coeff: Fraction | None = None
    labeled_count: int | None = None


@dataclass(frozen=True)
class OccurrenceCount:
    """Number of sub-multi-hypergraph occurrences; integral whenever the
    counted graph is connected."""

    value: Fraction

    @property
    def is_integral(self) -> bool:
        return self.value.denominator == 1

    def integer_value(self) -> int:
        if not self.is_integral:
            raise ValueError(f"occurrence count {self.value} is not integral")
        return self.value.numerator


def _sorted_records(by_code: dict, with_coeffs: bool) -> tuple[IsoClassRecord, ...]:
    out = []
    for code in sorted(by_code, key=lambda c: c.blob):
        rep, count = by_code[code]
        coeff = None
        if with_coeffs:
            # each class weight is computed once, into rooting's memo by code
            coeff = _coeff_memo.get(code)
            if coeff is None:
                coeff = _coeff_memo[code] = assoc_coeff_connected(rep)
        out.append(IsoClassRecord(code, rep, rep.edge_count, coeff, count))
    return tuple(out)


_free_memo: dict[tuple[int, int], dict] = {}


def enumerate_connected_veblen(
    k: int, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """All connected Veblen isomorphism classes with arity k and exactly d
    edges counted with multiplicity, sorted by canonical code.

    Generation walks lexicographically non-decreasing edge sequences in which
    new vertices appear as consecutive integers and every edge touches an
    already-used vertex; every connected class has such a labeling, and
    canonical codes collapse duplicates.
    """
    if d > MAX_FREE_EDGES:
        raise SizeExceeded(
            f"free enumeration is limited to {MAX_FREE_EDGES} edges, got {d}"
        )
    if d <= 0:
        return ()
    by_code = _free_memo.get((k, d))
    if by_code is None:
        by_code = _free_memo[(k, d)] = _free_classes(k, d)
    return _sorted_records(by_code, with_coeffs)


def _free_classes(k: int, d: int) -> dict:
    """{code: (representative, None)} for enumerate_connected_veblen."""
    max_verts = min(d, VERTEX_BOUND)
    by_code: dict[CanonicalCode, tuple] = {}
    deg: dict[int, int] = {}
    seq: list[tuple[int, ...]] = []

    def candidates(prev: tuple[int, ...], maxu: int):
        # old vertices that may appear alongside a (possibly empty) run of new
        # ones; the run must start at maxu+1
        for j in range(0, k):
            if maxu + j > max_verts:
                break
            new_run = tuple(range(maxu + 1, maxu + 1 + j))
            for old in itertools.combinations(range(1, maxu + 1), k - j):
                e = tuple(sorted(old + new_run))
                if e >= prev:
                    yield e

    def rec(prev: tuple[int, ...], maxu: int, remaining: int):
        if remaining == 0:
            deficits = sum((-dv) % k for dv in deg.values())
            if deficits == 0:
                counts: dict[tuple[int, ...], int] = {}
                for e in seq:
                    counts[e] = counts.get(e, 0) + 1
                H = MultiHypergraph.build(k, maxu, tuple(counts.items()))
                if not is_connected(H):
                    raise ConsistencyFailure(f"free enumeration built a disconnected graph {H.edges}")
                # labeled_count is not meaningful outside a host
                by_code.setdefault(canonical_form(H), (H, None))
            return
        open_verts = [v for v, dv in deg.items() if dv % k != 0]
        vmin = min(open_verts) if open_verts else None
        for e in candidates(prev, maxu):
            if vmin is not None and e[0] > vmin:
                continue
            for v in e:
                deg[v] = deg.get(v, 0) + 1
            total_def = sum((-dv) % k for dv in deg.values())
            worst = max(((-dv) % k for dv in deg.values()), default=0)
            if total_def <= k * (remaining - 1) and worst <= remaining - 1:
                seq.append(e)
                rec(e, max(maxu, e[-1] if e else maxu), remaining - 1)
                seq.pop()
            for v in e:
                deg[v] -= 1
                if deg[v] == 0:
                    del deg[v]

    first = tuple(range(1, k + 1))
    for v in first:
        deg[v] = 1
    seq.append(first)
    rec(first, k, d - 1)
    seq.pop()
    return by_code


def count_all_veblen(k: int, d: int) -> int:
    """Number of Veblen isomorphism classes (connected or not, no isolated
    vertices) with arity k and exactly d edges counted with multiplicity."""
    if d <= 0:
        return 0
    per_size = [len(enumerate_connected_veblen(k, j)) for j in range(1, d + 1)]
    dp = [0] * (d + 1)
    dp[0] = 1
    for j, classes in enumerate(per_size, start=1):
        if classes == 0:
            continue
        nxt = [0] * (d + 1)
        for t in range(d + 1):
            if dp[t] == 0:
                continue
            mu = 0
            while t + j * mu <= d:
                nxt[t + j * mu] += dp[t] * comb(classes + mu - 1, mu)
                mu += 1
        dp = nxt
    return dp[d]


# the tables of the most recently walked host only, so a long-lived process
# holds one host: {host: [classes with 1 edge, ..., with D edges]}
_infra_memo: dict[MultiHypergraph, list[dict]] = {}


def _host_tables(host: MultiHypergraph, d: int) -> list[dict]:
    """The host's class tables {code: [representative, labeled count]} of
    orders 1..D for some D >= d; walks to order d unless stored."""
    tables = _infra_memo.get(host)
    if tables is not None and len(tables) >= d:
        return tables
    k = host.k
    edges = [e for e, _ in host.edges]
    last = {v: i for i, e in enumerate(edges) for v in e}
    closing = [[v for v in e if last[v] == i] for i, e in enumerate(edges)]
    deg = dict.fromkeys(last, 0)
    mu = [0] * len(edges)
    tables = [{} for _ in range(d)]

    def leaf(used: int) -> None:
        chosen = tuple((e, m) for e, m in zip(edges, mu) if m)
        G = MultiHypergraph.build(k, host.n, chosen)
        if not is_connected(G):
            return
        rep = components(G)[0]
        hit = tables[used - 1].setdefault(canonical_form(rep), [rep, 0])
        hit[1] += 1

    def rec(i: int, used: int, deficit: int) -> None:
        if i == len(edges):
            if used:
                leaf(used)
            return
        e = edges[i]
        residues = {-deg[v] % k for v in closing[i]}
        if len(residues) > 1:
            return
        start, step = (residues.pop(), k) if residues else (0, 1)
        # deficit of the vertices outside e, which this edge cannot lower
        others = deficit - sum(-deg[v] % k for v in e)
        for m in range(start, d - used + 1, step):
            left = k * (d - used - m)
            if others > left:
                break
            for v in e:
                deg[v] += m
            now = others + sum(-deg[v] % k for v in e)
            if now <= left:
                mu[i] = m
                rec(i + 1, used + m, now)
            for v in e:
                deg[v] -= m

    rec(0, 0, 0)
    _infra_memo.clear()
    _infra_memo[host] = tables
    return tables


def connected_infragraph_classes(
    host: MultiHypergraph, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """Isomorphism classes of connected Veblen graphs with d edges realized by
    multiplicity functions on the host's edge set, with labeled counts.

    One depth-first walk fills the tables of every order up to d; later calls
    on the same host up to that order read them until another host is
    walked, so a caller that needs several orders asks for the largest first.  The walk visits the edges in
    `host.edges` order, each multiplicity ascending, so the vectors of one
    order come in lexicographic order and a class keeps its first vector as
    representative.  It prunes twice.  A vertex closes at its last incident
    edge, whose multiplicity must bring its degree to 0 mod k: that edge steps
    by k from the forced residue, and closing vertices that force different
    residues cut the branch.  A branch is also cut when the degree deficits
    sum_v ((-deg v) mod k) exceed k times the edges left in the budget.  Every
    leaf is thus a Veblen vector, and only leaves build a MultiHypergraph."""
    require_simple(host)
    if d <= 0:
        return ()
    return _sorted_records(_host_tables(host, d)[d - 1], with_coeffs)


def count_infragraph(host: MultiHypergraph, H: MultiHypergraph) -> OccurrenceCount:
    """Occurrence count of H in the host: for connected H the number of
    multiplicity functions on host edges realizing H's class; in general the
    product over H's component classes divided by the factorials of repeated
    components."""
    require_simple(host)
    if host.k != H.k:
        return OccurrenceCount(Fraction(0))
    if H.edge_count == 0:
        return OccurrenceCount(Fraction(1))
    class_mult: dict[CanonicalCode, list] = {}
    for comp in components(H):
        code = canonical_form(comp)
        if code not in class_mult:
            class_mult[code] = [comp, 0]
        class_mult[code][1] += 1
    tables = _host_tables(host, max(comp.edge_count for comp, _ in class_mult.values()))
    value = Fraction(1)
    for code, (comp, mu) in class_mult.items():
        hit = tables[comp.edge_count - 1].get(code)
        n_comp = hit[1] if hit is not None else 0
        if n_comp == 0:
            return OccurrenceCount(Fraction(0))
        value *= Fraction(n_comp) ** mu / factorial(mu)
    return OccurrenceCount(value)


def clear_caches() -> None:
    _infra_memo.clear()
    _free_memo.clear()
