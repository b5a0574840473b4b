"""Enumeration of Veblen hypergraphs up to isomorphism.

Free enumeration lists the connected classes of arity k with j edges (with
multiplicity), each with its |Aut|, for every j up to d from one tree of
canonical augmentation (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998).  A node is a connected graph whose degree deficits can
close within d edges.  Its children add one edge copy, one per orbit of
Aut(node), and a child is kept iff its new edge lies in the Aut(child)-orbit
of its canonical deletion, so each class appears once.

Host-relative enumeration fills one table per order 1..d with the classes
that multiplicity functions on a simple host's edges realize, their labeled
counts, and as representative a connected sub-multi-hypergraph of the host
in the class.  Two routes give the same classes and counts, both pruned by
Aut(host) generators from each component's canonical search.  The walk
canonicalizes one Veblen vector per orbit; its representative is the least
vector's component.  Counting takes the free classes G of orders 1..d:
count(G) = inj(G, host) / |Aut(G)| (Curticapean, Dell & Marx, STOC 2017),
inj counting the injective vertex maps that send each support edge of G to
a host edge; vertex 1 goes on one host vertex per orbit, each injection
counting the orbit's size, and a class keeps the image of its first
embedding.  Counting runs first when its free tree, ATLAS_S *
ATLAS_GROWTH^((k-1)(d-k)) seconds or 0 once stored, is estimated cheaper
than the walk's WALK_S (GRAPH_WALK_S at k=2) per vector of the bound
C(d+E-1, E-1) on E host edges by one placement at INJECTION_S or more;
that difference is its budget, past which the walk fills the tables.
Orders below k or above MAX_FREE_EDGES take the walk.  Past WORK_BUDGET
walk nodes or placements a route raises SizeExceeded with an estimate in
seconds.  The constants fit single runs on Python 3.11 and 2 CPUs; README
has the table.

Occurrence counts of disconnected graphs in a host factor over components,
divided by the symmetry of repeated components, so they can be non-integral.

Records come sorted by their class's canonical code (bytes) and carry no
weights: a caller asks `rooting._class_weight(code, representative)`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf
from operator import itemgetter

from .canon import VERTEX_BOUND, _connected_code, _refine, canonical_form
from .errors import ConsistencyFailure, DomainError, NormalizationFailure, SizeExceeded
from .hypergraph import MultiHypergraph, component_supports, components, is_connected, require_simple

MAX_FREE_EDGES = 9

# the host-table route estimate, in seconds (module docstring)
WALK_S = INJECTION_S = 3e-6
GRAPH_WALK_S = 6e-6  # the walk on ordinary graphs costs more per bound vector
ATLAS_S, ATLAS_GROWTH = 2.5e-4, 2.2
WORK_BUDGET = 10**9  # walk nodes or injection placements


@dataclass(frozen=True)
class IsoClassRecord:
    """One isomorphism class: canonical code, a representative on vertices 1..v,
    and the number of multiplicity functions on the host realizing the class
    (host-relative enumeration) or its |Aut| (free enumeration)."""

    code: bytes
    representative: MultiHypergraph
    labeled_count: int | None = None
    aut_count: int | None = None


def _sorted_records(by_code: dict, free: bool = False) -> tuple[IsoClassRecord, ...]:
    # host tables hold [representative, labeled count], free ones (representative, |Aut|)
    return tuple(IsoClassRecord(code, rep, aut_count=value) if free else IsoClassRecord(code, rep, value)
                 for code, (rep, value) in sorted(by_code.items()))


_free_memo: dict[tuple[int, int], dict] = {}


def enumerate_connected_veblen(k: int, d: int) -> tuple[IsoClassRecord, ...]:
    """All connected Veblen isomorphism classes with arity k and exactly d
    edges counted with multiplicity, sorted by canonical code, each with
    its |Aut| in `aut_count`.  One canonical-augmentation tree to order d
    fills every order up to d, so a caller that needs several asks for the
    largest first.  Each vertex p > 1 of a representative shares an edge with
    a smaller vertex: it entered the tree with an edge through an old one."""
    if k < 2:
        raise DomainError(f"uniformity k must be >= 2, got {k}")
    if d > MAX_FREE_EDGES:
        raise SizeExceeded(f"free enumeration is limited to {MAX_FREE_EDGES} edges, got {d}")
    if d <= 0:
        return ()
    if (k, d) not in _free_memo:
        for j, by_code in enumerate(_free_classes(k, d), start=1):
            _free_memo[(k, j)] = by_code
    return _sorted_records(_free_memo[(k, d)], free=True)


def _free_classes(k: int, top: int) -> list[dict]:
    """[{code: (representative, |Aut|)} of order j for j = 1..top] from one
    canonical-augmentation tree (module docstring).  A node is a connected
    graph on vertices 0..n-1 whose degree deficits can close within `top`
    edges; `masks` holds its edges' vertex bit sets, in the order of `edges`."""
    tables: list[dict] = [{} for _ in range(top)]

    def visit(n: int, edges: dict, masks: list[int], deg: list[int], searched: tuple | None) -> None:
        j = sum(edges.values())
        left = top - j - 1  # edges to spare after the next one
        deficit = [-x % k for x in deg]
        total = sum(deficit)
        # the next edge takes every vertex whose deficit exceeds `left`, and
        # a closed or new vertex ends at deficit k - 1
        urgent = tuple(v for v, x in enumerate(deficit) if x > left)
        pool = [v for v, x in enumerate(deficit) if x <= left and (x or left >= k - 1)]
        closed = {v for v in pool if not deficit[v]}
        feasible = []  # each candidate edge's old vertices; k - len(old) new ones join them
        for t in range(min(k, top - n + 1, k - len(urgent) + 1) if left >= k - 1 else int(left >= 0)):
            room = k * left - total + (k - t) - t * (k - 1)  # k times the closed vertices allowed
            for rest in itertools.combinations(pool, k - t - len(urgent)):
                if k * len(closed.intersection(rest)) <= room:
                    feasible.append(tuple(sorted(urgent + rest)))
        # a class needs its code, and two candidates may share an orbit
        if searched is None and (not total or len(feasible) > 1):
            searched = _connected_code(k, range(n), list(edges.items()))
        if not total:
            rep = MultiHypergraph.build(k, n, [(tuple(v + 1 for v in e), m) for e, m in edges.items()])
            tables[j - 1][searched[0]] = (rep, searched[1])
        seen: set[tuple[int, ...]] = set()
        for old in feasible:
            if old not in seen:
                seen |= _orbit(old, searched[2] if searched else [])
                e = old + tuple(range(n, n + k - len(old)))
                grown = dict(edges)
                grown[e] = grown.get(e, 0) + 1
                masks2 = masks if e in edges else masks + [sum(1 << v for v in e)]
                deg2 = deg + [0] * (k - len(old))
                for v in e:
                    deg2[v] += 1
                accepted, child = _canonical_augmentation(k, list(grown.items()), masks2, deg2, e)
                if accepted:
                    visit(len(deg2), grown, masks2, deg2, child)

    if top >= k:
        visit(k, {tuple(range(k)): 1}, [(1 << k) - 1], [1] * k, None)
    return tables


def _canonical_augmentation(
    k: int, edges: list, masks: list[int], deg: list[int], e: tuple
) -> tuple[bool, tuple | None]:
    """Whether the last copy of edge e is the canonical deletion of the graph
    with these edges (vertex bit sets `masks`) and degrees, and the
    `_connected_code` made to decide, if any.  The canonical deletion is an
    edge whose one copy leaves the graph connected, with the largest
    (multiplicity, member degrees), then the largest root-refinement
    colours; ties go to the edge whose canonical labels come first, up to Aut."""
    n, mine = len(deg), [f for f, _ in edges].index(e)
    inv = [(m, sorted(map(deg.__getitem__, f))) for f, m in edges]
    ties = []
    for i, (_, m) in enumerate(edges):
        if inv[i] < inv[mine] or i != mine and m == 1 and not _connected_without(masks, i):
            continue
        if inv[i] > inv[mine]:
            return False, None
        ties.append(i)
    if len(ties) > 1:
        col = _refine([0] * n, 1, edges, [[i for i, (f, _) in enumerate(edges) if v in f] for v in range(n)])[0]
        inv = [sorted(map(col.__getitem__, f)) for f, _ in edges]
        if any(inv[i] > inv[mine] for i in ties):
            return False, None
        ties = [i for i in ties if inv[i] == inv[mine]]
    if len(ties) == 1:
        return True, None
    searched = _connected_code(k, range(n), edges)
    first = min((edges[i][0] for i in ties), key=lambda f: sorted(map(searched[3].__getitem__, f)))
    return e in _orbit(first, searched[2]), searched


def _orbit(s: tuple[int, ...], gens) -> set[tuple[int, ...]]:
    """The images of the sorted tuple s (of vertices, or of the walk's edge
    positions) under the group that the generators (tuples of images) make."""
    orbit, todo = {s}, [s]
    for o in todo:  # grows until closed under the generators
        for image in {tuple(sorted(map(g.__getitem__, o))) for g in gens} - orbit:
            orbit.add(image)
            todo.append(image)
    return orbit


def _connected_without(masks: list[int], skip: int) -> bool:
    """Whether the edges with these vertex bit sets but masks[skip] connect."""
    rest = masks[:skip] + masks[skip + 1:]
    reached, before = rest[0], 0
    while reached != before:
        before = reached
        for f in rest:
            if f & reached:
                reached |= f
    return all(f & reached for f in rest)


def count_all_veblen(k: int, d: int) -> int:
    """Number of Veblen isomorphism classes (connected or not, no isolated
    vertices) with arity k and exactly d edges counted with multiplicity:
    the coefficient of x^d in the product over connected classes C of
    1 / (1 - x^|C|)."""
    if k < 2:
        raise DomainError(f"uniformity k must be >= 2, got {k}")
    counts = [1] + [0] * max(d, 0)
    for j in range(d, 0, -1):  # the largest order first: its tree fills the rest
        for _ in enumerate_connected_veblen(k, j):
            for t in range(j, d + 1):
                counts[t] += counts[t - j]
    return counts[d] if d > 0 else 0


# the tables of the most recently walked host only, so a long-lived process
# holds one host: {host: [classes with 1 edge, ..., with D edges]}
_infra_memo: dict[MultiHypergraph, list[dict]] = {}


def _host_tables(host: MultiHypergraph, d: int) -> list[dict]:
    """The host's class tables {code: [representative, labeled count]} of
    orders 1..D for some D >= d: stored, counted or walked (module docstring)."""
    tables = _infra_memo.get(host)
    if tables is not None and len(tables) >= d:
        return tables
    walk, atlas = _route_costs(host.k, len(host.edges), d)
    budget, tables = (walk - atlas) / INJECTION_S, None
    gens = list(_vertex_generators(host))  # one search for either route
    if budget >= 1:  # counting first, within the walk's estimate
        try:
            tables = _count_tables(host, d, gens, min(int(budget), WORK_BUDGET))
        except SizeExceeded:
            if budget >= WORK_BUDGET:  # the walk would cost more still
                raise
    if tables is None:
        tables = _walk_tables(host, d, gens)
    _infra_memo.clear()
    _infra_memo[host] = tables
    return tables


def _walk_tables(host: MultiHypergraph, d: int, gens: list, budget: int = WORK_BUDGET) -> list[dict]:
    """Class tables of orders 1..d by one depth-first walk.  It visits the
    edges in `host.edges` order, each multiplicity ascending, so the vectors
    of one order come in lexicographic order and a class keeps its first.
    It prunes twice.  A vertex closes at its last incident edge, whose
    multiplicity must bring its degree to 0 mod k: that edge steps by k from
    the forced residue, and closing vertices that force different residues
    cut the branch.  A branch is also cut when the degree deficits sum_v
    ((-deg v) mod k) exceed k times the edges still to add.  Every leaf is
    thus a Veblen vector.  Aut(host) (`gens`) keeps order, class and the Veblen
    property, so only the first leaf of an orbit is built and canonicalized;
    its other images wait in `pending` with its code, and one never reached
    raises ConsistencyFailure.  Over `budget` walk nodes raise SizeExceeded."""
    k = host.k
    edges = [e for e, _ in host.edges]
    perms = _edge_permutations(edges, gens)
    last = {v: i for i, e in enumerate(edges) for v in e}
    closing = [[v for v in e if last[v] == i] for i, e in enumerate(edges)]
    deg = dict.fromkeys(last, 0)
    mu = [0] * len(edges)
    tables = [{} for _ in range(d)]
    pending: dict[tuple[int, ...], bytes] = {}  # keyed like _orbit's tuples: edge positions, repeated
    nodes = itertools.count(1)

    def leaf(used: int) -> None:
        key = tuple(i for i, m in enumerate(mu) for _ in range(m))
        code = pending.pop(key, None)
        if code is None:
            G = MultiHypergraph.build(k, host.n, [(e, m) for e, m in zip(edges, mu) if m])
            if not is_connected(G):
                return
            rep = components(G)[0]
            code = canonical_form(rep)
            tables[used - 1].setdefault(code, [rep, 0])
            pending.update(dict.fromkeys(_orbit(key, perms) - {key}, code))
        tables[used - 1][code][1] += 1

    def rec(i: int, used: int, deficit: int) -> None:
        if next(nodes) > budget:
            estimate = _route_costs(k, len(edges), d)[0]
            raise SizeExceeded(f"host walk to order {d} over its budget; estimate {estimate:.3g} s")
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
    if pending:
        raise ConsistencyFailure(f"the walk never reached {len(pending)} image(s) of its vectors under Aut(host)")
    return tables


def _vertex_generators(host: MultiHypergraph) -> Iterator[list[int]]:
    """Generators of Aut(host) as vertex maps (index to image): those
    `_connected_code` finds on each host component of at most VERTEX_BOUND
    vertices.  A map that sends an edge off the host raises ConsistencyFailure."""
    support = set(host.support)
    for s in component_supports(host):
        if len(s) > VERTEX_BOUND:
            continue  # no generators: its vertices stay unpruned
        verts, edges = sorted(s), [e for e in host.support if e[0] in s]
        for g in _connected_code(host.k, verts, [(e, 1) for e in edges])[2]:
            at = list(range(host.n + 1))
            for v, w in zip(verts, g):
                at[v] = verts[w]
            if any(tuple(sorted(map(at.__getitem__, e))) not in support for e in edges):
                raise ConsistencyFailure(f"generator {g} of a host component maps an edge off the host")
            yield at


def _edge_permutations(edges: list, gens: list) -> list[tuple[int, ...]]:
    """The vertex maps `gens` of `_vertex_generators` as permutations of positions in `edges`."""
    position = {e: i for i, e in enumerate(edges)}
    return [tuple(position[tuple(sorted(map(at.__getitem__, e)))] for e in edges) for at in gens]


def _route_costs(k: int, edges: int, d: int) -> tuple[float, float]:
    """Estimated seconds of the walk to order d on a host with `edges` edges of
    arity k, and of the free tree counting needs, inf if it cannot count."""
    walk = (GRAPH_WALK_S if k == 2 else WALK_S) * comb(d + edges - 1, d)
    if not k <= d <= MAX_FREE_EDGES:
        return walk, inf
    # one free tree to d fills every order, so (k, d) stored means all are
    return walk, 0 if (k, d) in _free_memo else ATLAS_S * ATLAS_GROWTH ** ((k - 1) * (d - k))


def _count_tables(host: MultiHypergraph, d: int, gens: list, budget: int = WORK_BUDGET) -> list[dict]:
    """Class tables of orders 1..d by counting injections given `gens` (module docstring).
    Vertex p > 1 of a free representative is placed among the host neighbours
    of a smaller vertex's image (a representative without one raises
    ConsistencyFailure), and an edge is checked at its largest vertex.
    Over `budget` placements raise SizeExceeded."""
    edges = {sum(1 << v for v in e) for e in host.support}  # by vertex bit set
    nbrs: dict[int, set[int]] = {}
    for e in host.support:
        for v in e:
            nbrs.setdefault(v, set()).update(e)
    roots = Counter(min(_orbit((x,), gens))[0] for x in nbrs)  # least vertex of an orbit: its size
    img, bits, used, placed = [0] * (d + 1), [0] * (d + 1), set(), itertools.count(1)

    def place(p: int) -> None:
        nonlocal found, first
        for x in nbrs[img[anchor[p]]] if p > 1 else roots:
            if x in used:
                continue
            if next(placed) > budget:
                estimate = INJECTION_S * budget
                raise SizeExceeded(f"injection count to order {d} over its budget; estimate over {estimate:.3g} s")
            img[p], bits[p] = x, 1 << x
            for members in checks[p]:
                if sum(members(bits)) not in edges:
                    break
            else:
                if p < len(checks) - 1:
                    used.add(x)
                    place(p + 1)
                    used.discard(x)
                else:
                    found += roots[img[1]]
                    first = first or img[:]

    tables: list[dict] = [{} for _ in range(d)]
    for j in range(d, 0, -1):  # the largest order first: one free tree fills all
        for rec in enumerate_connected_veblen(host.k, j):
            G = rec.representative
            checks = [[] for _ in range(G.n + 1)]
            for e in G.support:
                checks[e[-1]].append(itemgetter(*e))
            anchor = [min([e[0] for e in G.support if p in e[1:]], default=p) for p in range(G.n + 1)]
            if any(anchor[p] == p for p in range(2, G.n + 1)):
                raise ConsistencyFailure(f"free representative {G.edges} has a vertex with no smaller neighbour")
            found, first = 0, []
            place(1)
            count, rem = divmod(found, rec.aut_count)
            if rem:
                raise NormalizationFailure(f"{found} injections do not split over |Aut| = {rec.aut_count}")
            if count:
                tables[j - 1][rec.code] = [components(G.relabeled(dict(enumerate(first)), host.n))[0], count]
    return tables


def connected_infragraph_classes(host: MultiHypergraph, d: int) -> tuple[IsoClassRecord, ...]:
    """Isomorphism classes of connected Veblen graphs with d edges realized by
    multiplicity functions on the host's edge set, with labeled counts and a
    connected sub-multi-hypergraph of the host in the class, on 1..v.

    The tables of all orders up to d come at once from the walk or from
    injection counts of the free classes, tried first within the walk's
    estimate (module docstring); both give the same classes and counts.  They
    serve later calls on the host up to that order until another host is
    enumerated, so a caller that needs several orders asks for the largest first."""
    require_simple(host)
    if d <= 0:
        return ()
    return _sorted_records(_host_tables(host, d)[d - 1])


def count_infragraph(host: MultiHypergraph, H: MultiHypergraph) -> Fraction:
    """Occurrence count of H in the host: for connected H the number of
    multiplicity functions on host edges realizing H's class, an integer; in
    general the product over H's component classes divided by the factorials
    of repeated components."""
    require_simple(host)
    if host.k != H.k:
        return Fraction(0)
    if H.edge_count == 0:
        return Fraction(1)
    class_mult: dict[bytes, list] = {}
    for comp in components(H):
        class_mult.setdefault(canonical_form(comp), [comp, 0])[1] += 1
    tables = _host_tables(host, max(comp.edge_count for comp, _ in class_mult.values()))
    value = Fraction(1)
    for code, (comp, mu) in class_mult.items():
        value *= Fraction(tables[comp.edge_count - 1].get(code, (comp, 0))[1]) ** mu / factorial(mu)
    return value


def clear_caches() -> None:
    _infra_memo.clear()
    _free_memo.clear()
