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

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SizeExceeded
from .hypergraph import MultiHypergraph, require_simple
from .linalg import charpoly_int
from .traces import codegree_coefficients

MAX_CHARPOLY_VERTICES = 12


def _require_graph(G: MultiHypergraph) -> None:
    if G.k != 2:
        raise DomainError(f"expected an ordinary graph (k=2), got k={G.k}")


@dataclass(frozen=True)
class ElementarySubgraph:
    """A subgraph whose components are single edges or cycles.

    Cycles are stored as vertex tuples in traversal order starting at their
    smallest vertex, with the smaller neighbor second.
    """

    edge_components: tuple[tuple[int, int], ...]
    cycle_components: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.edge_components) + len(self.cycle_components)

    @property
    def cycle_count(self) -> int:
        return len(self.cycle_components)

    @property
    def vertex_count(self) -> int:
        return 2 * len(self.edge_components) + sum(
            len(c) for c in self.cycle_components
        )

    @property
    def sign_weight(self) -> int:
        return (-1) ** self.component_count * 2**self.cycle_count


def _cycles_of_graph(G: MultiHypergraph) -> list[tuple[int, ...]]:
    """All cycle subgraphs, each listed once.

    Canonical listing: start at the cycle's smallest vertex, go toward the
    smaller of its two cycle neighbors.
    """
    adj: dict[int, set[int]] = {}
    for (u, v), _ in G.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    cycles: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        cur = path[-1]
        for w in sorted(adj[cur]):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.discard(w)
                path.pop()

    for s in sorted(adj):
        extend(s, [s], {s})
    return cycles


def elementary_subgraphs(G: MultiHypergraph, d: int) -> list[ElementarySubgraph]:
    """All elementary subgraphs of the simple graph G on exactly d vertices."""
    _require_graph(G)
    require_simple(G)
    if d < 0:
        raise DomainError("vertex count must be nonnegative")
    edges = [e for e, _ in G.edges]
    cycles = _cycles_of_graph(G)
    # pieces in a fixed order; a subgraph is an increasing piece selection
    pieces: list[tuple[frozenset[int], int]] = [
        (frozenset(e), i) for i, e in enumerate(edges)
    ] + [(frozenset(c), len(edges) + i) for i, c in enumerate(cycles)]
    out: list[ElementarySubgraph] = []

    def rec(i: int, used: frozenset[int], chosen: list[int], left: int) -> None:
        if left == 0:
            es = tuple(edges[j] for j in chosen if j < len(edges))
            cs = tuple(cycles[j - len(edges)] for j in chosen if j >= len(edges))
            out.append(ElementarySubgraph(es, cs))
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
    return sum(H.sign_weight for H in elementary_subgraphs(G, d))


def threshold_single_edge(v: int) -> int:
    """Largest nonzero codegree for a host that is one edge plus v-3 isolated
    vertices (k=3)."""
    if v < 3:
        raise DomainError("a 3-uniform edge needs at least 3 ambient vertices")
    return 9 * 2 ** (v - 3)


@dataclass(frozen=True)
class ThresholdReport:
    """Largest codegree with a nonzero coefficient, up to the search bound.

    threshold is None when every coefficient in 1..dmax vanishes.  exact is
    True only when a closed form certifies the value; otherwise the result is
    a lower bound for the true threshold.
    """

    dmax: int
    threshold: int | None
    witness: Fraction | None
    exact: bool = False

    def describe(self) -> str:
        if self.threshold is None:
            return f"no nonzero coefficient found at codegrees 1..{self.dmax}"
        kind = "exactly" if self.exact else "at least (search bound)"
        return (
            f"threshold {kind} {self.threshold} "
            f"(c_{self.threshold} = {self.witness})"
        )


def threshold_search(host: MultiHypergraph, dmax: int) -> ThresholdReport:
    """Scan codegrees 1..dmax for the last nonzero coefficient."""
    require_simple(host)
    if dmax < 1:
        raise DomainError("dmax must be at least 1")
    table = codegree_coefficients(host, dmax)
    threshold = next((d for d in range(dmax, 0, -1) if table.coefficient(d) != 0), None)
    witness = None if threshold is None else table.coefficient(threshold)
    exact = host.k == 3 and len(host.edges) == 1 and threshold == threshold_single_edge(host.n)
    return ThresholdReport(dmax, threshold, witness, exact)
