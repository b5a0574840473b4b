"""Euler orientations of Veblen hypergraphs and their associated coefficients.

A rooting orients every edge copy as a star pointing away from a chosen root
vertex.  Because the union of the stars must be balanced, each vertex v roots
exactly deg(v)/k copies, so a rooting is determined by choosing, for every
distinct edge e, how many of its copies each vertex of e roots.  One such
per-edge root-count assignment corresponds to

    prod_v r_v! / prod_{e,v} c_e(v)!

distinct rootings (sequences of rooted stars sorted by root), all yielding the
same digraph; orientations are deduplicated and carry that multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .canon import CanonicalCode, canonical_form
from .digraph import MultiDigraph, arborescence_count, is_eulerian
from .errors import ConsistencyFailure, NormalizationFailure, NotConnected, NotVeblen
from .hypergraph import MultiHypergraph, components, is_connected, is_veblen


@dataclass(frozen=True)
class EulerOrientation:
    """A distinct Eulerian digraph produced by rootings of H.

    multiplicity = number of root-sorted rooting sequences that produce this
    digraph (the weight it carries in the associated coefficient).
    """

    digraph: MultiDigraph
    root_counts: tuple[tuple[int, int], ...]
    multiplicity: int


def _root_count_assignments(H: MultiHypergraph):
    """Yield all per-edge root-count assignments meeting every vertex quota."""
    verts = H.non_isolated
    deg = H.degrees()
    quota = {v: deg[v] // H.k for v in verts}
    edges = list(H.edges)
    # capacity[i][v]: total copies of edges i.. that contain v; used to prune
    # assignments that can no longer meet a quota
    capacity = [dict.fromkeys(verts, 0) for _ in range(len(edges) + 1)]
    for i in range(len(edges) - 1, -1, -1):
        e, m = edges[i]
        for v in verts:
            capacity[i][v] = capacity[i + 1][v] + (m if v in e else 0)
    assigned = dict.fromkeys(verts, 0)
    chosen: list[tuple[int, ...]] = []

    def compositions(vs: tuple[int, ...], total: int, limits: list[int]):
        if len(vs) == 1:
            if total <= limits[0]:
                yield (total,)
            return
        for c in range(min(total, limits[0]) + 1):
            for rest in compositions(vs[1:], total - c, limits[1:]):
                yield (c,) + rest

    def rec(i: int):
        if i == len(edges):
            yield tuple(chosen)
            return
        e, m = edges[i]
        limits = [quota[v] - assigned[v] for v in e]
        for combo in compositions(e, m, limits):
            ok = True
            for v, c in zip(e, combo):
                assigned[v] += c
            for v in verts:
                if assigned[v] + capacity[i + 1][v] < quota[v]:
                    ok = False
                    break
            if ok:
                chosen.append(combo)
                yield from rec(i + 1)
                chosen.pop()
            for v, c in zip(e, combo):
                assigned[v] -= c
        return

    yield from rec(0)


def euler_orientations(H: MultiHypergraph) -> tuple[EulerOrientation, ...]:
    """The distinct Eulerian digraphs over all rootings of a connected Veblen
    hypergraph, each carrying the number of rootings that produce it."""
    if not is_veblen(H):
        raise NotVeblen("rootings are defined for Veblen hypergraphs only")
    if not is_connected(H):
        raise NotConnected("euler_orientations requires a connected hypergraph")
    verts = H.non_isolated
    deg = H.degrees()
    quota = {v: deg[v] // H.k for v in verts}
    quota_factorial = prod(factorial(q) for q in quota.values())
    root_counts = tuple(sorted(quota.items()))

    by_arcs: dict[tuple, int] = {}
    for assignment in _root_count_assignments(H):
        denom = 1
        arcs: dict[tuple[int, int], int] = {}
        for (e, _), combo in zip(H.edges, assignment):
            for root, c in zip(e, combo):
                if c == 0:
                    continue
                denom *= factorial(c)
                for w in e:
                    if w != root:
                        arcs[(root, w)] = arcs.get((root, w), 0) + c
        weight, rem = divmod(quota_factorial, denom)
        if rem:
            raise NormalizationFailure(f"rooting multiplicity {quota_factorial}/{denom} is not integral")
        key = tuple(sorted(arcs.items()))
        by_arcs[key] = by_arcs.get(key, 0) + weight

    out = []
    for key in sorted(by_arcs):
        D = MultiDigraph(vertices=verts, arcs=key)
        if not is_eulerian(D):
            raise ConsistencyFailure("rooted star union is not Eulerian")
        out.append(
            EulerOrientation(digraph=D, root_counts=root_counts, multiplicity=by_arcs[key])
        )
    return tuple(out)


def assoc_coeff_connected(H: MultiHypergraph) -> Fraction:
    """Associated coefficient of a connected Veblen hypergraph:
    sum over rootings of (arborescence count of the orientation) divided by
    the product of in-degrees."""
    orientations = euler_orientations(H)
    if not orientations:
        return Fraction(0)
    indeg = orientations[0].digraph.in_degrees()
    denom = prod(d for d in indeg.values())
    total = 0
    for orient in orientations:
        support = orient.digraph.non_isolated
        tau = arborescence_count(orient.digraph, support[0])
        total += orient.multiplicity * tau
    return Fraction(total, denom)


_coeff_memo: dict[CanonicalCode, Fraction] = {}


def assoc_coeff(H: MultiHypergraph) -> Fraction:
    """Associated coefficient of a Veblen hypergraph: the product over its
    connected components, memoized by canonical code."""
    if not is_veblen(H):
        raise NotVeblen("associated coefficients are defined for Veblen hypergraphs")
    result = Fraction(1)
    for comp in components(H):
        code = canonical_form(comp)
        value = _coeff_memo.get(code)
        if value is None:
            value = assoc_coeff_connected(comp)
            _coeff_memo[code] = value
        result *= value
    return result


def clear_caches() -> None:
    _coeff_memo.clear()
