"""Directed multigraph machinery: Eulerian tests, arborescence counts via the
matrix-tree determinant, and Euler-circuit counts via the BEST formula.

Parallel arcs are stored as multiplicities but circuits are counted as if the
copies were distinguishable (the convention the BEST formula uses); circuits
are counted up to cyclic rotation of the arc sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import ConsistencyFailure, DomainError, NotEulerian
from .linalg import bareiss_det

Arc = tuple[int, int]
ArcMultiset = tuple[tuple[Arc, int], ...]


@dataclass(frozen=True)
class MultiDigraph:
    vertices: tuple[int, ...]
    arcs: ArcMultiset

    @classmethod
    def build(cls, vertices, arcs=()) -> "MultiDigraph":
        """Normalize an arc collection; items are (u, v) pairs (multiplicity 1,
        repeats accumulate) or ((u, v), multiplicity) pairs."""
        vset = tuple(sorted(set(vertices)))
        members = set(vset)
        acc: dict[Arc, int] = {}
        for item in arcs:
            if len(item) == 2 and isinstance(item[0], tuple):
                (u, v), mult = item
            else:
                (u, v), mult = item, 1
            if u == v:
                raise DomainError(f"loop arc at vertex {u} not supported")
            if u not in members or v not in members:
                raise DomainError(f"arc ({u},{v}) touches a vertex outside the graph")
            if mult < 1:
                raise DomainError(f"arc ({u},{v}) has nonpositive multiplicity {mult}")
            acc[(u, v)] = acc.get((u, v), 0) + mult
        return cls(vertices=vset, arcs=tuple(sorted(acc.items())))

    def out_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for (u, _), m in self.arcs:
            deg[u] += m
        return deg

    def in_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for (_, v), m in self.arcs:
            deg[v] += m
        return deg

    @property
    def non_isolated(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for (u, v), _ in self.arcs:
            seen.add(u)
            seen.add(v)
        return tuple(sorted(seen))


def is_eulerian(D: MultiDigraph) -> bool:
    """Balanced at every vertex and weakly connected on the non-isolated support."""
    indeg = D.in_degrees()
    outdeg = D.out_degrees()
    if any(indeg[v] != outdeg[v] for v in D.vertices):
        return False
    support = D.non_isolated
    if not support:
        return False
    adj: dict[int, set[int]] = {v: set() for v in support}
    for (u, v), _ in D.arcs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(support)


def arborescence_count(D: MultiDigraph, root: int) -> int:
    """Number of spanning in-trees of D converging to `root`, by the directed
    matrix-tree theorem: determinant of the out-degree Laplacian with the
    root's row and column deleted, evaluated fraction-free."""
    if root not in D.vertices:
        raise DomainError(f"root {root} is not a vertex")
    support = list(D.non_isolated)
    if root not in support:
        support.append(root)
        support.sort()
    if len(support) == 1:
        return 1
    index = {v: i for i, v in enumerate(support)}
    n = len(support)
    lap = [[0] * n for _ in range(n)]
    for (u, v), m in D.arcs:
        lap[index[u]][index[u]] += m
        lap[index[u]][index[v]] -= m
    r = index[root]
    minor = [
        [lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r
    ]
    det = bareiss_det(minor)
    if det < 0:
        raise ConsistencyFailure(f"arborescence count {det} is negative")
    return det


def euler_circuit_count(D: MultiDigraph) -> int:
    """|E(D)| circuits by BEST: arborescences to any root times the product of
    (in-degree - 1) factorials; parallel arc copies distinguishable, circuits
    up to rotation."""
    if not is_eulerian(D):
        raise NotEulerian("Euler circuit count requires a balanced, connected digraph")
    support = D.non_isolated
    tau = arborescence_count(D, support[0])
    indeg = D.in_degrees()
    count = tau
    for v in support:
        count *= factorial(indeg[v] - 1)
    return count
