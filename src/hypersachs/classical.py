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

from collections import Counter
from fractions import Fraction

from .errors import DomainError, SizeExceeded
from .hypergraph import MultiHypergraph, require_simple
from .linalg import charpoly_int
from .traces import codegree_coefficients

MAX_CHARPOLY_VERTICES = 12
# bounds of one elementary-subgraph census: steps of its cycle listing (0.2 to
# 3 µs each) and piece checks of its selection as `_check_census` bounds them
# (K_8 at 8 vertices: 8.0e6, 0.07 s)
MAX_CYCLE_STEPS, MAX_CENSUS_CHECKS = 10**6, 10**8


def _require_graph(G: MultiHypergraph) -> None:
    if G.k != 2:
        raise DomainError(f"expected an ordinary graph (k=2), got k={G.k}")


def _check_census(sizes: list[Counter], d: int) -> None:
    """Raise SizeExceeded if an upper bound on the piece checks of the
    selection in `elementary_subgraphs` on d vertices is over
    MAX_CENSUS_CHECKS; sizes[v] counts the pieces whose smallest vertex is v
    by vertex count, and fewer pieces never give a larger bound.  The
    selection decides v at most once per set of pieces with distinct
    smallest vertices below v on fewer than d vertices, overlapping or not,
    and checks each piece at v and leaving v out."""
    sets, checks = [1] + [0] * (d - 1), 0  # sets: such piece sets on t < d vertices
    for here in sizes:
        checks += (sum(here.values()) + 1) * sum(sets)
        for t in range(d - 1, 1, -1):
            sets[t] += sum(c * sets[t - s] for s, c in here.items() if s <= t)
    if checks > MAX_CENSUS_CHECKS:
        raise SizeExceeded(f"elementary subgraphs on {d} vertices: the selection's bound reaches "
                           f"{checks:.3g} piece checks, over {MAX_CENSUS_CHECKS:.3g}")


def _cycles_of_graph(G: MultiHypergraph, d: int, sizes: list[Counter]) -> list[tuple[int, ...]]:
    """The cycle subgraphs on at most d vertices, each listed once; every
    edge and cycle is counted in `sizes` at its smallest vertex.

    Canonical listing: start at the cycle's smallest vertex, go toward the
    smaller of its two cycle neighbors.  Starts go from the largest vertex
    down, so the pieces that every smaller start multiplies come first, and
    `_check_census` runs after each start that more than doubles the
    cycles.  More than MAX_CYCLE_STEPS path steps raise SizeExceeded.
    """
    adj: dict[int, set[int]] = {}
    for (u, v), _ in G.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        sizes[u][2] += 1
    cycles: list[tuple[int, ...]] = []
    steps = checked = 0

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        nonlocal steps
        cur = path[-1]
        for w in sorted(adj[cur]):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
                    sizes[start][len(path)] += 1
            elif w > start and w not in on_path and len(path) < d:
                steps += 1
                if steps > MAX_CYCLE_STEPS:
                    raise SizeExceeded(f"cycles on at most {d} vertices: more than {MAX_CYCLE_STEPS:.3g} path steps")
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.discard(w)
                path.pop()

    for s in sorted(adj, reverse=True):
        extend(s, [s], {s})
        if len(cycles) > 2 * checked:
            _check_census(sizes, d)
            checked = len(cycles)
    return cycles


def elementary_subgraphs(G: MultiHypergraph, d: int) -> list[tuple[tuple, tuple]]:
    """All elementary subgraphs of the simple graph G on exactly d vertices:
    subgraphs whose components are single edges or cycles, each as a pair
    (edges, cycles).  A cycle is a vertex tuple listed as in `_cycles_of_graph`.

    The selection decides the vertices in order: the smallest one not yet
    covered is left out, while fewer than n - d are, or covered by a piece
    whose smallest vertex it is.  Its work thus follows the subgraphs it
    lists; a bound of it over MAX_CENSUS_CHECKS piece checks
    (`_check_census`) raises SizeExceeded before it starts, and its
    recursion goes only as deep as the pieces it selects."""
    _require_graph(G)
    require_simple(G)
    if not 0 <= d <= G.n:
        raise DomainError(f"vertex count d={d} outside 0..{G.n}")
    edges = [e for e, _ in G.edges]
    sizes = [Counter() for _ in range(G.n + 1)]
    cycles = _cycles_of_graph(G, d, sizes)
    _check_census(sizes, d)
    # pieces (edges, then cycles) with their vertex bit sets, by smallest vertex
    at: list[list[tuple[int, tuple]]] = [[] for _ in range(G.n + 1)]
    for piece in edges + cycles:
        at[min(piece)].append((sum(1 << v for v in piece), piece))
    out: list[tuple[tuple, tuple]] = []

    def rec(v: int, used: int, chosen: list[tuple], left: int, spare: int) -> None:
        if left == 0:
            out.append((tuple(p for p in chosen if len(p) == 2), tuple(p for p in chosen if len(p) > 2)))
            return
        while True:  # some vertex from v on is undecided while left + spare > 0
            while used >> v & 1:
                v += 1
            for mask, piece in at[v]:
                if len(piece) <= left and not mask & used:
                    chosen.append(piece)
                    rec(v + 1, used | mask, chosen, left - len(piece), spare)
                    chosen.pop()
            if not spare:
                return
            v, spare = v + 1, spare - 1  # v left out

    rec(1, 0, [], d, G.n - d)
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
