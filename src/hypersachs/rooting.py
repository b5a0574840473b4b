"""Class weights of Veblen hypergraphs, summed over their Euler rootings.

A rooting orients every edge copy as a star pointing away from a chosen root
vertex.  Because the union of the stars must be balanced, each vertex v roots
exactly q_v = deg(v)/k copies and has in-degree (k-1) q_v, so a rooting is
determined by choosing, for every distinct edge e, how many of its copies each
vertex of e roots.  One such per-edge root-count assignment stands for

    prod_v q_v! / prod_{e,v} c_e(v)!

distinct rootings (sequences of rooted stars sorted by root), all yielding the
same digraph.  One walk over the edges (`_rooted_unions`) keeps the out-degree
Laplacian of the star union in place, `assoc_coeff_connected` reads the
arborescence count off each leaf's, and only `euler_orientations` merges
assignments into digraphs.  Weights are memoized by canonical code in
`_coeff_memo`, through `_class_weight` alone.

Aut(H) permutes the assignments and keeps their multiplicities and
arborescence counts, so for the weight the walk descends, at each edge, into
one root count per orbit of the automorphisms fixing the edges so far and
their counts, and the sum weighs each leaf by its orbit size.  One search on a
trivial group sends the walk plain below it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .canon import _search, canonical_form
from .digraph import MultiDigraph, is_eulerian
from .errors import ConsistencyFailure, NormalizationFailure, NotConnected, NotVeblen
from .hypergraph import MultiHypergraph, _compositions, components, is_connected, is_veblen
from .linalg import bareiss_det


def _combo_orbits(m: int, edges, chosen, feasible) -> tuple[list, bool]:
    """Orbits [(representative, size)] of edge i = len(chosen)'s feasible root
    counts under the automorphisms of H fixing edges 0..i (labelled by
    position) and the counts chosen on 0..i-1 (labelled singletons), found by
    one search, and whether that group is nontrivial."""
    i, e = len(chosen), edges[len(chosen)][0]
    marked = [(f, (0, mult)) for f, mult in edges[i + 1:]]
    marked += [(f, (1, j)) for j, (f, _) in enumerate(edges[:i + 1])]
    marked += [((v,), (2, j, c)) for j, combo in enumerate(chosen) for v, c in zip(edges[j][0], combo) if c]
    _, aut, gens, _ = _search(m, marked)
    # a generator moves the count at position t of e to position e.index(g[e[t]])
    moves = [sorted(range(len(e)), key=lambda t: e.index(g[e[t]])) for g in gens]
    orbits, seen = [], set()
    for combo in feasible:
        if combo not in seen:
            orbit = [combo]
            for c in orbit:  # the list grows until it is closed under the generators
                orbit += {tuple(c[t] for t in inv) for inv in moves} - set(orbit)
            seen.update(orbit)
            orbits.append((combo, len(orbit)))
    return orbits, aut > 1


def _rooted_unions(H: MultiHypergraph, symmetric: bool = False):
    """Yield, for each root-count assignment of a connected Veblen hypergraph
    (or with `symmetric` each Aut(H) orbit, times its size), the rootings it
    stands for and their star union's out-degree Laplacian, indexed like
    H.non_isolated and live: read it before the next step.  Edge i's counts come
    in lex order from `_compositions`, max(0, need_v - left[i][v]) <= c_v <= need_v."""
    if not is_veblen(H):
        raise NotVeblen("rootings are defined for Veblen hypergraphs only")
    if not is_connected(H):
        raise NotConnected("rootings require a connected hypergraph")
    verts = H.non_isolated
    index = {v: i for i, v in enumerate(verts)}
    deg = H.degrees()
    need = [deg[v] // H.k for v in verts]
    quota_factorial = prod(map(factorial, need))
    edges = [(tuple(index[v] for v in e), m) for e, m in H.edges]
    # left[i][v]: total copies of edges after i that contain v; vertex v can
    # still meet its quota only while need[v] <= left[i][v]
    left = [[0] * len(verts)]
    for e, m in reversed(edges[1:]):
        left.append([x + m if v in e else x for v, x in enumerate(left[-1])])
    left.reverse()
    # every rooted copy adds k-1 arcs out of its root: out(v) = (k-1) q_v
    lap = [[(H.k - 1) * q if v == w else 0 for w in range(len(verts))] for v, q in enumerate(need)]
    chosen: list[tuple[int, ...]] = []

    def root(e, combo, sign: int):
        # sign 1 roots combo[t] copies of e at e[t], each with an arc to every other vertex; -1 undoes it
        for v, c in zip(e, combo):
            need[v] -= sign * c
            for w in e:
                if w != v:
                    lap[v][w] -= sign * c

    def rec(i: int, size: int, copies: int, symmetric: bool):
        if i == len(edges):
            count, rem = divmod(quota_factorial, copies)
            if rem:
                raise NormalizationFailure(f"rooting multiplicity {quota_factorial}/{copies} is not integral")
            yield count * size, lap
            return
        (e, m), cap = edges[i], left[i]
        orbits = [(combo, 1) for combo in
                  _compositions(m, len(e), [max(0, need[v] - cap[v]) for v in e], [need[v] for v in e])]
        if symmetric and len(orbits) > 1:
            # the groups below are subgroups, so trivial below a trivial one
            orbits, symmetric = _combo_orbits(len(verts), edges, chosen, [c for c, _ in orbits])
        for combo, n in orbits:
            root(e, combo, 1)
            chosen.append(combo)
            yield from rec(i + 1, size * n, copies * prod(map(factorial, combo)), symmetric)
            chosen.pop()
            root(e, combo, -1)

    yield from rec(0, 1, 1, symmetric)


def euler_orientations(H: MultiHypergraph) -> tuple[tuple[MultiDigraph, int], ...]:
    """(digraph, multiplicity) for each distinct Eulerian digraph over the
    rootings of a connected Veblen hypergraph, by sorted arcs: multiplicity is
    the number of root-sorted rootings that produce it, its weight in the
    associated coefficient."""
    verts = H.non_isolated
    by_arcs: dict[tuple, int] = {}
    for count, lap in _rooted_unions(H):
        # the arcs u -> w are the negative off-diagonal entries, in sorted order
        key = tuple(((verts[u], verts[w]), -x)
                    for u, row in enumerate(lap) for w, x in enumerate(row) if x < 0)
        by_arcs[key] = by_arcs.get(key, 0) + count
    out = []
    for key in sorted(by_arcs):
        D = MultiDigraph(vertices=verts, arcs=key)
        if not is_eulerian(D):
            raise ConsistencyFailure("rooted star union is not Eulerian")
        out.append((D, by_arcs[key]))
    return tuple(out)


def assoc_coeff_connected(H: MultiHypergraph) -> Fraction:
    """Associated coefficient of a connected Veblen hypergraph: the sum over
    rootings of the arborescence count of the rooted star union, divided by
    the product of in-degrees (k-1) q_v."""
    total = 0
    for count, lap in _rooted_unions(H, symmetric=True):
        # a balanced union (columns sum to 0) has tau > 0 iff it is connected
        tau = bareiss_det([row[1:] for row in lap[1:]])
        if tau <= 0 or any(map(sum, zip(*lap))):
            raise ConsistencyFailure("rooted star union is not Eulerian")
        total += count * tau
    return Fraction(total, prod((H.k - 1) * d // H.k for d in H.degrees().values() if d))


_coeff_memo: dict[bytes, Fraction] = {}


def _class_weight(code: bytes, H: MultiHypergraph) -> Fraction:
    """`assoc_coeff_connected(H)` for H in the connected class `code`, once per code."""
    if code not in _coeff_memo:
        _coeff_memo[code] = assoc_coeff_connected(H)
    return _coeff_memo[code]


def assoc_coeff(H: MultiHypergraph) -> Fraction:
    """Associated coefficient of a Veblen hypergraph: the product over its
    connected components, memoized by canonical code."""
    if not is_veblen(H):
        raise NotVeblen("associated coefficients are defined for Veblen hypergraphs")
    result = Fraction(1)
    for comp in components(H):
        result *= _class_weight(canonical_form(comp), comp)
    return result


def clear_caches() -> None:
    _coeff_memo.clear()
