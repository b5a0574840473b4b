"""Enumeration of Veblen hypergraphs up to isomorphism.

Free enumeration lists the connected classes of a given arity and edge count
(with multiplicity), each with the |Aut| of its canonical search, by an
orderly DFS over sorted edge sequences deduplicated by canonical code.

Host-relative enumeration fills one table per order 1..d with the classes
that multiplicity functions on a simple host's edges realize, their labeled
counts, and as representative the component of the lex-least such function.
Two routes fill the same tables.  The walk visits the host's Veblen
multiplicity vectors and canonicalizes each.  Counting takes the free
classes G of orders 1..d: count(G) = inj(G, host) / |Aut(G)|, inj counting
the injective vertex maps that send each support edge of G to a host edge
(Curticapean, Dell & Marx, STOC 2017).  The route estimated cheaper runs.
In seconds, the walk costs WALK_S per vector of the bound C(d+E-1, E-1) on
E host edges; counting costs ATLAS_S * ATLAS_GROWTH^((k-1)(j-k)) per free
order j not stored, plus INJECTION_S * (n)_min(n,d) per class, taking
CLASSES * k^(j-k) classes at an order not stored.  Orders below k or above
MAX_FREE_EDGES take the walk.  The constants fit single runs on Python 3.11
and 2 CPUs (README has the table): the walk took 0.8-9 us per bound vector
(3 us on K_6^(3) to order 6), injections 1.9-5.3 us per unit, and each atlas
order came within a factor of three of its term (3.5 s at k=3, j=8).

Occurrence counts of disconnected graphs in a host factor over components,
divided by the symmetry of repeated components, so they can be non-integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf, perm
from operator import itemgetter

from .canon import VERTEX_BOUND, CanonicalCode, canon_and_aut, canonical_form
from .errors import ConsistencyFailure, NormalizationFailure, SizeExceeded
from .hypergraph import MultiHypergraph, components, is_connected, require_simple
from .rooting import _coeff_memo, assoc_coeff_connected

MAX_FREE_EDGES = 9

# the host-table route estimate, in seconds (module docstring)
WALK_S = INJECTION_S = 3e-6
ATLAS_S, ATLAS_GROWTH, CLASSES = 3e-4, 2.55, 0.5
INJECTION_BUDGET = 10**9


@dataclass(frozen=True)
class IsoClassRecord:
    """One isomorphism class: canonical code, a representative on vertices
    1..v, its edge count, and optionally its associated coefficient and (for
    host-relative enumeration) the number of multiplicity functions on the
    host realizing the class, or (for free enumeration) |Aut| of the class."""

    code: CanonicalCode
    representative: MultiHypergraph
    edge_count: int
    assoc_coeff: Fraction | None = None
    labeled_count: int | None = None
    aut_count: int | None = None


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


def _sorted_records(by_code: dict, with_coeffs: bool, free: bool = False) -> tuple[IsoClassRecord, ...]:
    # host tables hold [representative, labeled count], free ones (representative, |Aut|)
    out = []
    for code in sorted(by_code, key=lambda c: c.blob):
        rep, value = by_code[code]
        count, aut = (None, value) if free else (value, None)
        coeff = None
        if with_coeffs:
            # each class weight is computed once, into rooting's memo by code
            coeff = _coeff_memo.get(code)
            if coeff is None:
                coeff = _coeff_memo[code] = assoc_coeff_connected(rep)
        out.append(IsoClassRecord(code, rep, rep.edge_count, coeff, count, aut))
    return tuple(out)


_free_memo: dict[tuple[int, int], dict] = {}


def enumerate_connected_veblen(
    k: int, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """All connected Veblen isomorphism classes with arity k and exactly d
    edges counted with multiplicity, sorted by canonical code, each with
    its |Aut| in `aut_count`.

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
    return _sorted_records(by_code, with_coeffs, free=True)


def _free_classes(k: int, d: int) -> dict:
    """{code: (representative, |Aut|)} for enumerate_connected_veblen."""
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
                code, aut = canon_and_aut(H)
                by_code.setdefault(code, (H, aut))
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
    orders 1..D for some D >= d, by the route estimated cheaper unless stored."""
    tables = _infra_memo.get(host)
    if tables is not None and len(tables) >= d:
        return tables
    walk, count = _route_costs(host.k, host.n, len(host.edges), d)
    tables = _count_tables(host, d, INJECTION_BUDGET) if count < walk else _walk_tables(host, d)
    _infra_memo.clear()
    _infra_memo[host] = tables
    return tables


def _walk_tables(host: MultiHypergraph, d: int) -> list[dict]:
    """Class tables of orders 1..d by one depth-first walk.  It visits the
    edges in `host.edges` order, each multiplicity ascending, so the vectors
    of one order come in lexicographic order and a class keeps its first.
    It prunes twice.  A vertex closes at its last incident edge, whose
    multiplicity must bring its degree to 0 mod k: that edge steps by k from
    the forced residue, and closing vertices that force different residues
    cut the branch.  A branch is also cut when the degree deficits sum_v
    ((-deg v) mod k) exceed k times the edges left in the budget.  Every leaf
    is thus a Veblen vector, and only leaves build a MultiHypergraph."""
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
    return tables


def _route_costs(k: int, n: int, edges: int, d: int) -> tuple[float, float]:
    """Estimated seconds of the walk and of injection counting to order d on
    a host with n vertices and `edges` edges of arity k (module docstring)."""
    walk = WALK_S * comb(d + edges - 1, d)
    if not k <= d <= MAX_FREE_EDGES:
        return walk, inf
    atlas = classes = 0.0
    for j in range(k, d + 1):
        stored = _free_memo.get((k, j))
        if stored is None:
            atlas += ATLAS_S * ATLAS_GROWTH ** ((k - 1) * (j - k))
        classes += CLASSES * k ** (j - k) if stored is None else len(stored)
    return walk, atlas + INJECTION_S * classes * perm(n, min(n, d))


def _count_tables(host: MultiHypergraph, d: int, budget: int) -> list[dict]:
    """Class tables of orders 1..d by counting injections (module docstring).
    Vertex p > 1 of a free representative is placed among the host neighbours
    of a smaller vertex's image, and an edge is checked at its largest vertex.
    Keys list a vector's (-edge position, multiplicity) pairs by position, so
    they compare as the vectors do.  Over `budget` placements raise SizeExceeded."""
    edges = [e for e, _ in host.edges]
    position = {sum(1 << v for v in e): i for i, e in enumerate(edges)}  # by vertex bit set
    nbrs: dict[int, set[int]] = {}
    for e in edges:
        for v in e:
            nbrs.setdefault(v, set()).update(e)
    img, bits, used, keys = [0] * (d + 1), [0] * (d + 1), set(), []

    def place(p: int) -> None:
        nonlocal budget, found, least
        for x in nbrs[img[anchor[p]]] if p > 1 else nbrs:
            if x in used:
                continue
            budget -= 1
            if budget < 0:
                estimate = _route_costs(host.k, host.n, len(edges), d)[1]
                raise SizeExceeded(f"injection count to order {d} over its budget; estimate {estimate:.3g} s")
            img[p], bits[p] = x, 1 << x
            depth = len(keys)
            for members, m in checks[p]:
                i = position.get(sum(members(bits)))
                if i is None:
                    break
                keys.append((-i, m))
            else:
                if p < len(checks) - 1:
                    used.add(x)
                    place(p + 1)
                    used.discard(x)
                else:
                    found += 1
                    key = sorted(keys, reverse=True)
                    if not least or key < least:
                        least = key
            del keys[depth:]

    tables = []
    for j in range(1, d + 1):
        tables.append({})
        for rec in enumerate_connected_veblen(host.k, j):
            G = rec.representative
            checks, anchor = [[] for _ in range(G.n + 1)], list(range(G.n + 1))
            for e, m in G.edges:
                checks[e[-1]].append((itemgetter(*e), m))
                for v in e[1:]:
                    anchor[v] = min(anchor[v], e[0])
            found, least = 0, []
            place(1)
            count, rem = divmod(found, rec.aut_count)
            if rem:
                raise NormalizationFailure(f"{found} injections do not split over |Aut| = {rec.aut_count}")
            if count:
                rep = components(MultiHypergraph.build(host.k, host.n, [(edges[-i], m) for i, m in least]))[0]
                tables[-1][rec.code] = [rep, count]
    return tables


def connected_infragraph_classes(
    host: MultiHypergraph, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """Isomorphism classes of connected Veblen graphs with d edges realized by
    multiplicity functions on the host's edge set, with labeled counts.

    The tables of all orders up to d come at once from the walk over
    multiplicity vectors or from injection counts of the free classes, count
    = inj(G, host) / |Aut(G)|, whichever an estimate from k, n, the edge
    count and d prefers (module docstring).  Both give the same tables.  They
    serve later calls on the host up to that order until another host is
    enumerated, so a caller that needs several orders asks for the largest first."""
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
