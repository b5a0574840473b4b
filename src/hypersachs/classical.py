"""Ordinary graphs (k=2): exact characteristic polynomial and the
edge/cycle subgraph expansion of its coefficients; codegree thresholds of
any host.

`charpoly_graph`, `elementary_subgraphs` and `harary_sachs_coeffs` are the
k=2 certificate: they use no part of the rooting engine, the enumerators or
the trace assembly, and the test suite plays them against those.
`threshold_search` certifies nothing; it reads the production coefficient
table.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, SizeExceeded
from .hypergraph import MultiHypergraph, require_simple
from .linalg import charpoly_int
from .traces import codegree_coefficients

MAX_CHARPOLY_VERTICES = 12
# bounds of one elementary-subgraph census: steps of its cycle listing (0.2 to
# 3 µs each) and piece checks of its selection (about 60 ns each)
MAX_CYCLE_STEPS, MAX_CENSUS_CHECKS = 10**6, 10**9


def _require_graph(G: MultiHypergraph) -> None:
    if G.k != 2:
        raise DomainError(f"expected an ordinary graph (k=2), got k={G.k}")


def _cycles_of_graph(G: MultiHypergraph, d: int) -> list[tuple[int, ...]]:
    """The cycle subgraphs on at most d vertices, each listed once.

    Canonical listing: start at the cycle's smallest vertex, go toward the
    smaller of its two cycle neighbors.  The listing stops with SizeExceeded
    after MAX_CYCLE_STEPS path steps, or once the pieces it has found cost
    the selection in `elementary_subgraphs` more than MAX_CENSUS_CHECKS: the
    selection scans every piece after each piece on fewer than d vertices, so
    s such pieces cost it at least s(s-1)/2 checks.
    """
    adj: dict[int, set[int]] = {}
    for (u, v), _ in G.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    cycles: list[tuple[int, ...]] = []
    steps, small = 0, len(G.edges) if d > 2 else 0

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        nonlocal steps, small
        cur = path[-1]
        for w in sorted(adj[cur]):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
                    small += len(path) < d
            elif w > start and w not in on_path and len(path) < d:
                steps += 1
                if steps > MAX_CYCLE_STEPS:
                    raise SizeExceeded(f"cycles on at most {d} vertices: more than {MAX_CYCLE_STEPS:.3g} path steps")
                if small * (small - 1) // 2 > MAX_CENSUS_CHECKS:
                    raise SizeExceeded(f"elementary subgraphs on {d} vertices: {small} pieces on fewer vertices, "
                                       f"at least {small * (small - 1) // 2:.3g} piece checks, "
                                       f"bound {MAX_CENSUS_CHECKS:.3g}")
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.discard(w)
                path.pop()

    for s in sorted(adj):
        extend(s, [s], {s})
    return cycles


def elementary_subgraphs(G: MultiHypergraph, d: int) -> list[tuple[tuple, tuple]]:
    """All elementary subgraphs of the simple graph G on exactly d vertices:
    subgraphs whose components are single edges or cycles, each as a pair
    (edges, cycles).  A cycle is a vertex tuple listed as in `_cycles_of_graph`.
    A selection that may take more than MAX_CENSUS_CHECKS piece checks
    raises SizeExceeded before it starts."""
    _require_graph(G)
    require_simple(G)
    if d < 0:
        raise DomainError("vertex count must be nonnegative")
    edges = [e for e, _ in G.edges]
    cycles = _cycles_of_graph(G, d)
    # pieces in a fixed order; a subgraph is an increasing piece selection
    pieces: list[tuple[frozenset[int], int]] = [
        (frozenset(e), i) for i, e in enumerate(edges)
    ] + [(frozenset(c), len(edges) + i) for i, c in enumerate(cycles)]
    # the selection scans the pieces once at each partial selection of fewer
    # than d vertices; sets[t] counts the piece sets on t vertices, overlapping
    # or not, so it bounds those from above
    sets = [1] + [0] * d
    for verts, _ in pieces:
        for t in range(d, len(verts) - 1, -1):
            sets[t] += sets[t - len(verts)]
    work = len(pieces) * sum(sets[:d])
    if work > MAX_CENSUS_CHECKS:
        raise SizeExceeded(f"elementary subgraphs on {d} vertices: up to {work:.3g} piece checks, "
                           f"bound {MAX_CENSUS_CHECKS:.3g}")
    out: list[tuple[tuple, tuple]] = []

    def rec(i: int, used: frozenset[int], chosen: list[int], left: int) -> None:
        if left == 0:
            es = tuple(edges[j] for j in chosen if j < len(edges))
            cs = tuple(cycles[j - len(edges)] for j in chosen if j >= len(edges))
            out.append((es, cs))
            return
        for j in range(i, len(pieces)):
            verts, idx = pieces[j]
            if len(verts) <= left and not verts & used:
                chosen.append(idx)
                rec(j + 1, used | verts, chosen, left - len(verts))
                chosen.pop()

    rec(0, frozenset(), [], d)
    return out


def charpoly_graph(G: MultiHypergraph) -> tuple[int, ...]:
    """Characteristic polynomial of the 0/1 adjacency matrix, as the
    coefficient tuple (1, a_1, ..., a_n) of x^n + a_1 x^{n-1} + ... + a_n."""
    _require_graph(G)
    require_simple(G)
    if G.n > MAX_CHARPOLY_VERTICES:
        raise SizeExceeded(f"charpoly oracle bounded at {MAX_CHARPOLY_VERTICES} vertices")
    n = G.n
    A = [[0] * n for _ in range(n)]
    for (u, v), _ in G.edges:
        A[u - 1][v - 1] = 1
        A[v - 1][u - 1] = 1
    return charpoly_int(A)


def harary_sachs_coeffs(G: MultiHypergraph, d: int) -> int:
    """Coefficient of x^{n-d} in charpoly_graph(G), by summing signed weights
    of elementary subgraphs on d vertices."""
    _require_graph(G)
    require_simple(G)
    if d > G.n:
        raise DomainError(f"d={d} exceeds the vertex count {G.n}")
    return sum((-1) ** (len(es) + len(cs)) * 2 ** len(cs) for es, cs in elementary_subgraphs(G, d))


def threshold_single_edge(k: int, v: int) -> int:
    """Largest nonzero codegree for a host that is one k-uniform edge plus v-k
    isolated vertices: the edge alone has characteristic polynomial
    (x^k - 1)^(k^(k-2)) up to a power of x, and each isolated vertex raises
    the polynomial to the power k-1, so the last is k^(k-1) (k-1)^(v-k)."""
    if k < 2:
        raise DomainError(f"uniformity k must be >= 2, got {k}")
    if v < k:
        raise DomainError(f"a {k}-uniform edge needs at least {k} ambient vertices")
    return k ** (k - 1) * (k - 1) ** (v - k)


def threshold_search(host: MultiHypergraph, dmax: int) -> tuple[int | None, Fraction | None, bool]:
    """(threshold, witness, exact): the last codegree in 1..dmax with a
    nonzero coefficient and that coefficient, both None if all vanish.  exact
    is True only when a closed form certifies the threshold; otherwise it is
    a lower bound for the true one."""
    require_simple(host)
    if dmax < 1:
        raise DomainError("dmax must be at least 1")
    coefficients, _ = codegree_coefficients(host, dmax)
    threshold = next((d for d in range(dmax, 0, -1) if coefficients[d] != 0), None)
    witness = None if threshold is None else coefficients[threshold]
    exact = len(host.edges) == 1 and threshold == threshold_single_edge(host.k, host.n)
    return threshold, witness, exact
